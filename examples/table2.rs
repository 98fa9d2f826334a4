//! Regenerates **Table II** — "Benchmark of Paillier cryptosystem
//! (n is 2048-bit)" — with this implementation on this machine, plus
//! the rows behind the paper's design choices at the same key size:
//!
//! - **CRT vs standard decryption**: the STP decrypts one ciphertext per
//!   entry.
//! - **Refresh: precomputed vs online vs re-encrypt**: the paper's
//!   221 s → 11 s request-refresh trick (§VI-A) needs rⁿ computed
//!   offline; computed online it costs as much as an encryption.
//! - **PISA's blinded sign test vs bitwise secure comparison**: the
//!   paper's central efficiency argument (§IV-B). One PISA entry costs a
//!   handful of homomorphic ops; one bitwise comparison costs ℓ=60
//!   encryptions, O(ℓ) homomorphic ops and ℓ decryptions.
//! - **The cost of privacy**: the same spectrum decision by plaintext
//!   WATCH and by one encrypted PISA round.
//!
//! ```sh
//! cargo run --release -p pisa-core --example table2 [key_bits]
//! ```

mod harness;

use harness::{fmt_bytes, fmt_duration, scaled_config};
use pisa::ablation::BitwiseComparison;
use pisa::prelude::*;
use pisa::{SdcServer, StpServer, SuClient, SuId};
use pisa_bigint::random::random_bits;
use pisa_bigint::Ibig;
use pisa_crypto::blind::Blinder;
use pisa_crypto::paillier::PaillierKeyPair;
use pisa_watch::{SuRequest, WatchSdc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Iterations per Table II row (paper: average of 30 iterations).
const ITERS: usize = 30;
/// Iterations per ablation row: a bitwise comparison or a PISA round
/// costs tens to hundreds of Table II operations.
const ABLATION_ITERS: usize = 3;

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("key size in bits"))
        .unwrap_or(2048);

    println!("Table II: Benchmark of Paillier cryptosystem (n is {bits}-bit)");
    println!("(paper values for n=2048 on an i5-2400 with GMP in parentheses)\n");

    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    let kp = PaillierKeyPair::generate(&mut rng, bits);
    let pk = kp.public();

    let size = |name: &str, bits: usize| println!("{:<42} {:>12}", name, format!("{bits} bits"));
    size("Public key size", 2 * bits);
    size("Secret key size", 2 * bits);
    size("Plaintext message size", bits);
    size("Ciphertext size", pk.ciphertext_bytes() * 8);

    let m = Ibig::from(0x0123_4567_89ab_cdefi64);
    let c1 = pk.encrypt(&m, &mut rng);
    let c2 = pk.encrypt(&Ibig::from(7i64), &mut rng);
    let k100 = Ibig::from(random_bits(&mut rng, 100));
    let kfull = Ibig::from(random_bits(&mut rng, bits - 8));

    let row = |name: &str, paper: &str, d: Duration| {
        println!("{:<42} {:>12}   (paper: {paper})", name, fmt_duration(d));
    };

    let mut enc_rng = StdRng::seed_from_u64(1);
    let encrypt = time_avg(ITERS, || pk.encrypt(&m, &mut enc_rng));
    row("Encryption", "30.378 ms", encrypt);
    let crt = time_avg(ITERS, || kp.secret().decrypt(&c1));
    row("Decryption (CRT)", "21.170 ms", crt);
    let standard = time_avg(ITERS, || kp.secret().decrypt_standard(&c1));
    row("Decryption (standard)", "-", standard);
    row(
        "Homomorphic addition",
        "0.004 ms",
        time_avg(ITERS, || pk.add(&c1, &c2)),
    );
    row(
        "Homomorphic subtraction",
        "0.073 ms",
        time_avg(ITERS, || pk.sub(&c1, &c2).unwrap()),
    );
    row(
        "Homomorphic scale (100-bit constant)",
        "1.564 ms",
        time_avg(ITERS, || pk.scalar_mul(&c1, &k100).unwrap()),
    );
    row(
        "Homomorphic scale (full-size)",
        "18.867 ms",
        time_avg(ITERS, || pk.scalar_mul(&c1, &kfull).unwrap()),
    );
    let mut rr_rng = StdRng::seed_from_u64(2);
    let online = time_avg(ITERS, || pk.rerandomize(&c1, &mut rr_rng));
    row("Re-randomization", "-", online);
    // The paper's refresh trick: rⁿ computed offline, one modmul online.
    let factor = pk.precompute_randomizer(&mut rng);
    let precomputed = time_avg(ITERS, || pk.rerandomize_precomputed(&c1, &factor));
    row("Re-randomization (precomputed rⁿ)", "-", precomputed);

    println!("\nshape checks: add ≪ sub ≪ scale(100) < scale(full) ≈ enc ≈ dec·(1..2)");

    // --- ablations -------------------------------------------------------
    println!("\nAblations ({bits}-bit keys, average of {ABLATION_ITERS} iterations)\n");
    let ablation = |name: &str, d: Duration| println!("{:<52} {:>12}", name, fmt_duration(d));

    // Sign test: SDC blind (eq. 14) + STP decrypt/sign + STP re-encrypt
    // + SDC unblind (eq. 16) — the full per-entry pipeline.
    let blinder = Blinder::new(128);
    let i_ct = pk.encrypt(&Ibig::from(123_456i64), &mut rng);
    let one = pk.encrypt_public_constant(&Ibig::from(1i64));
    let mut pisa_rng = StdRng::seed_from_u64(3);
    let pisa_entry = time_avg(ABLATION_ITERS, || {
        let f = blinder.sample(&mut pisa_rng);
        let scaled = pk.scalar_mul(&i_ct, &Ibig::from(f.alpha.clone())).unwrap();
        let beta_ct = pk.encrypt(&Ibig::from(f.beta.clone()), &mut pisa_rng);
        let v = pk
            .scalar_mul(&pk.sub(&scaled, &beta_ct).unwrap(), &f.epsilon.as_scalar())
            .unwrap();
        let x = if kp.secret().decrypt(&v).is_positive() {
            1i64
        } else {
            -1
        };
        let x_ct = pk.encrypt(&Ibig::from(x), &mut pisa_rng);
        let unblinded = pk.scalar_mul(&x_ct, &f.epsilon.as_scalar()).unwrap();
        pk.sub(&unblinded, &one).unwrap()
    });
    ablation("PISA blinded sign test, per entry (eqs. 14–16)", pisa_entry);
    let cmp = BitwiseComparison::paper_width();
    let mut cmp_rng = StdRng::seed_from_u64(4);
    let bitwise = time_avg(ABLATION_ITERS, || {
        cmp.compare(123_456, 999_999, pk, kp.secret(), &mut cmp_rng)
    });
    ablation(
        &format!("bitwise secure comparison, ℓ = {} bits", cmp.ell()),
        bitwise,
    );

    // The cost of privacy: same decision, same configuration; one in the
    // clear, one over ciphertexts (build + phase 1 + conversion + phase 2
    // + verify).
    let cfg = scaled_config(4, 3, 5, bits);
    let watch_sdc = WatchSdc::new(cfg.watch().clone());
    let request = SuRequest::full_power(cfg.watch(), BlockId(1), &[Channel(0)]);
    let watch = time_avg(ITERS, || watch_sdc.process_request(&request));
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc", &mut rng);
    let mut su = SuClient::new(SuId(0), BlockId(1), &cfg, &mut rng);
    stp.register_su(SuId(0), su.public_key().clone());
    let mut round_rng = StdRng::seed_from_u64(6);
    let mut request_bytes = 0;
    let round = time_avg(ABLATION_ITERS, || {
        let outcome =
            pisa::run_request_direct(&mut su, &mut sdc, &stp, &[Channel(0)], &mut round_rng)
                .unwrap();
        assert!(outcome.granted, "an empty system grants");
        request_bytes = outcome.request_bytes;
    });
    let entries = cfg.channels() * cfg.blocks();
    ablation(
        &format!("plaintext WATCH decision ({entries} entries)"),
        watch,
    );
    ablation(
        &format!(
            "PISA round ({entries} entries, {} request)",
            fmt_bytes(request_bytes as u64)
        ),
        round,
    );

    println!(
        "\nshape checks: bitwise/PISA per entry {:.0}x; standard/CRT decryption {:.1}x; \
         refresh online/precomputed {:.0}x, re-encryption/online {:.2}x; \
         PISA round/WATCH {:.0}x",
        ratio(bitwise, pisa_entry),
        ratio(standard, crt),
        ratio(online, precomputed),
        ratio(encrypt, online),
        ratio(round, watch),
    );
    assert!(
        bitwise > pisa_entry,
        "the bitwise comparison must cost more than PISA's sign test"
    );
    assert!(crt < standard, "CRT decryption must beat standard");
    assert!(
        precomputed < online,
        "a precomputed rⁿ must make the online refresh cheaper"
    );
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}

/// Measures `f` averaged over `iters` runs (the paper's Table II uses
/// the average of 30 iterations).
fn time_avg<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed() / iters as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_avg_positive() {
        let d = time_avg(3, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0 || d.is_zero());
    }
}
