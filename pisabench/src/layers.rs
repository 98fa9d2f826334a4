//! Primitive-level timings for the traced runs: the Montgomery kernel
//! at the workload's n² width, the Paillier operations of the paper's
//! Table II at its key size, and the session codec per frame kind.

use crate::stats::median;
use pisa::SessionMsg;
use pisa_bigint::modular::MontCtx;
use pisa_bigint::random::random_below;
use pisa_bigint::{Ibig, Ubig};
use pisa_crypto::paillier::PaillierKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median per-call time of `f`, in nanoseconds, over batches of `batch`
/// calls run for about `budget` in total.
fn per_call_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call).unwrap_or(0.0)
}

/// Kernel and Paillier costs at one key size.
#[derive(Debug, Clone, Copy)]
pub struct Primitives {
    pub mont_mul_ns: f64,
    pub pow_ms: f64,
    pub encrypt_ms: f64,
    pub decrypt_ms: f64,
    pub add_us: f64,
    pub scalar_mul_ms: f64,
    pub rerandomize_ms: f64,
}

/// Measures the primitives for `key_bits`-bit Paillier keys, with
/// scalars of `scalar_bits` bits (the blinding factor width).
pub fn primitives(key_bits: usize, scalar_bits: usize, seed: u64) -> Primitives {
    let budget = Duration::from_millis(150);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e5);
    let kp = PaillierKeyPair::generate(&mut rng, key_bits);
    let pk = kp.public();
    let n = pk.modulus().clone();
    let n2 = pk.modulus_squared().clone();

    // The kernel at the n² width every ciphertext operation runs at.
    let ctx = MontCtx::new(&n2).expect("n² is odd");
    let mut s = ctx.scratch();
    let a = ctx.to_mont(&random_below(&mut rng, &n2), &mut s);
    let b = ctx.to_mont(&random_below(&mut rng, &n2), &mut s);
    let mont_mul_ns = per_call_ns(budget, 1000, || {
        black_box(ctx.mont_mul(black_box(&a), black_box(&b), &mut s));
    });
    // A full-width exponent of the randomizer shape rⁿ mod n².
    let base = random_below(&mut rng, &n2);
    let pow_ms = per_call_ns(budget, 1, || {
        black_box(ctx.pow(black_box(&base), &n));
    }) / 1e6;

    let m = Ibig::from(123_456_789i64);
    let c1 = pk.encrypt(&m, &mut rng);
    let c2 = pk.encrypt(&m, &mut rng);
    let scalar = Ibig::from(random_below(&mut rng, &(Ubig::one() << scalar_bits)));
    let encrypt_ms = per_call_ns(budget, 1, || {
        black_box(pk.encrypt(&m, &mut rng));
    }) / 1e6;
    let decrypt_ms = per_call_ns(budget, 1, || {
        black_box(kp.secret().decrypt(&c1));
    }) / 1e6;
    let add_us = per_call_ns(budget, 100, || {
        black_box(pk.add(&c1, &c2));
    }) / 1e3;
    let scalar_mul_ms = per_call_ns(budget, 1, || {
        black_box(pk.scalar_mul(&c1, &scalar).expect("unit ciphertext"));
    }) / 1e6;
    let rerandomize_ms = per_call_ns(budget, 1, || {
        black_box(pk.rerandomize(&c1, &mut rng));
    }) / 1e6;
    Primitives {
        mont_mul_ns,
        pow_ms,
        encrypt_ms,
        decrypt_ms,
        add_us,
        scalar_mul_ms,
        rerandomize_ms,
    }
}

/// `SessionMsg::encode` and `decode` time per frame, in microseconds.
pub fn codec_us(frame: &SessionMsg) -> (f64, f64) {
    let budget = Duration::from_millis(60);
    let bytes = frame.encode().expect("well-formed frame");
    let encode = per_call_ns(budget, 4, || {
        black_box(frame.encode().expect("well-formed frame"));
    });
    let decode = per_call_ns(budget, 4, || {
        black_box(SessionMsg::decode(&bytes).expect("own frame decodes"));
    });
    (encode / 1e3, decode / 1e3)
}
