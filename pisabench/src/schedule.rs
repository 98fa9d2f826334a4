//! Seeded open-loop arrival schedules and the benchmark's own RNG.
//!
//! The arrival times of an open-loop workload come only from the
//! workload seed. A Poisson process of rate `λ` on `[0, T)`, conditioned
//! on its count, places its arrivals as sorted independent uniforms on
//! `[0, T)`; fixing the count at `round(λ·T)` keeps the offered load
//! identical across seeds while the arrival pattern (bursts and gaps)
//! varies with the seed.

/// SplitMix64: a small, fast, well-mixed generator for benchmark inputs
/// (kept here so the inputs do not depend on any library's RNG).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Arrival offsets, in seconds from the start of the window, of a
/// Poisson process of `rate` per second over `seconds`, conditioned on
/// exactly `round(rate · seconds)` arrivals. Sorted ascending.
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round().max(0.0) as usize;
    let mut rng = SplitMix::new(seed ^ 0xa221_7a15);
    let mut times: Vec<f64> = (0..count).map(|_| rng.next_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            poisson_arrivals(7, 10.0, 20.0),
            poisson_arrivals(7, 10.0, 20.0)
        );
        assert_ne!(
            poisson_arrivals(7, 10.0, 20.0),
            poisson_arrivals(8, 10.0, 20.0)
        );
    }

    #[test]
    fn offered_load_is_fixed_and_inside_the_window() {
        for seed in 0..20 {
            let t = poisson_arrivals(seed, 10.0, 20.0);
            assert_eq!(t.len(), 200);
            assert!(t.windows(2).all(|w| w[0] <= w[1]), "sorted");
            assert!(t.iter().all(|&x| (0.0..20.0).contains(&x)));
        }
        assert!(poisson_arrivals(1, 0.0, 20.0).is_empty());
    }

    #[test]
    fn gaps_look_exponential() {
        // Pool many seeds: the gaps of a Poisson process are exponential
        // with mean 1/λ, so about e⁻¹ of them exceed the mean.
        let rate = 10.0;
        let mut gaps = Vec::new();
        for seed in 0..50 {
            let t = poisson_arrivals(seed, rate, 100.0);
            gaps.extend(t.windows(2).map(|w| w[1] - w[0]));
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / rate).abs() < 0.005, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 1.0 / rate).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.02,
            "share above mean {long}"
        );
    }

    #[test]
    fn splitmix_is_uniform_enough() {
        let mut rng = SplitMix::new(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
