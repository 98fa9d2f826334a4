//! Parallel/sequential equivalence: the multi-threaded SDC and STP
//! paths must be *byte-identical* to the sequential ones — same wire
//! frames, same grant/deny — for any thread count. Both paths derive
//! per-entry randomness from a single RNG draw, so this holds exactly,
//! not just statistically.

use pisa::prelude::*;
use pisa::PisaMessage;
use pisa_radio::tv::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 8];

struct Fixture {
    cfg: SystemConfig,
    stp: StpServer,
    sdc: SdcServer,
    su: SuClient,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SystemConfig::small_test();
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.par", &mut rng);
    let su = SuClient::new(SuId(0), BlockId(3), &cfg, &mut rng);
    stp.register_su(su.id(), su.public_key().clone());
    Fixture { cfg, stp, sdc, su }
}

#[test]
fn phase1_parallel_is_byte_identical_to_sequential() {
    let mut f = fixture(0xe401);
    let mut rng = StdRng::seed_from_u64(0x11);
    let request =
        f.su.build_request(&f.cfg, f.stp.public_key(), &[Channel(0)], &mut rng);

    let sequential = f
        .sdc
        .process_request_phase1(&request, &mut StdRng::seed_from_u64(0x22))
        .unwrap();
    let seq_bytes = PisaMessage::SdcToStp(sequential).encode().unwrap();

    for threads in THREADS {
        let parallel = f
            .sdc
            .process_request_phase1_parallel(&request, threads, &mut StdRng::seed_from_u64(0x22))
            .unwrap();
        assert_eq!(
            PisaMessage::SdcToStp(parallel).encode().unwrap(),
            seq_bytes,
            "phase 1 diverged with {threads} threads"
        );
    }
}

#[test]
fn key_convert_parallel_is_byte_identical_to_sequential() {
    let mut f = fixture(0xe402);
    let mut rng = StdRng::seed_from_u64(0x33);
    let request =
        f.su.build_request(&f.cfg, f.stp.public_key(), &[Channel(1)], &mut rng);
    let query = f.sdc.process_request_phase1(&request, &mut rng).unwrap();

    let (sequential, seq_obs) = f
        .stp
        .key_convert(&query, &mut StdRng::seed_from_u64(0x44))
        .unwrap();
    let seq_bytes = PisaMessage::StpToSdc(sequential).encode().unwrap();

    for threads in THREADS {
        let (parallel, obs) = f
            .stp
            .key_convert_parallel(&query, threads, &mut StdRng::seed_from_u64(0x44))
            .unwrap();
        assert_eq!(
            PisaMessage::StpToSdc(parallel).encode().unwrap(),
            seq_bytes,
            "key conversion diverged with {threads} threads"
        );
        assert_eq!(obs.v_values, seq_obs.v_values, "{threads} threads");
    }
}

/// One full round on a freshly built fixture, so every call sees the
/// same license serial (it is monotone per SDC) and the entire response
/// — including the gated ciphertext `G̃` — is byte-comparable.
fn run_round(
    fixture_seed: u64,
    with_pu: bool,
    channels: &[Channel],
    phase1: impl FnOnce(&mut SdcServer, &pisa::SuRequestMsg, &mut StdRng) -> pisa::SdcToStpMsg,
    convert: impl FnOnce(&StpServer, &pisa::SdcToStpMsg, &mut StdRng) -> pisa::StpToSdcMsg,
) -> (bytes::Bytes, bool) {
    let mut f = fixture(fixture_seed);
    if with_pu {
        // A PU on the SU's channel right next door: the budget goes
        // negative and the request must be denied — on every path.
        let mut rng = StdRng::seed_from_u64(0x99);
        let mut pu = PuClient::new(0, BlockId(2));
        let e = f.sdc.e_matrix().clone();
        let pk_g = f.stp.public_key().clone();
        let update = pu.tune(Some(Channel(0)), &f.cfg, &e, &pk_g, &mut rng);
        f.sdc.handle_pu_update(pu.id(), update).unwrap();
    }
    let request = f.su.build_request(
        &f.cfg,
        f.stp.public_key(),
        channels,
        &mut StdRng::seed_from_u64(0x55),
    );
    let su_pk = f.stp.su_key(f.su.id()).unwrap().clone();

    let query = phase1(&mut f.sdc, &request, &mut StdRng::seed_from_u64(0x66));
    let reply = convert(&f.stp, &query, &mut StdRng::seed_from_u64(0x77));
    let response = f
        .sdc
        .process_request_phase2(&reply, &su_pk, &mut StdRng::seed_from_u64(0x88))
        .unwrap();
    let granted = f.su.handle_response(&response, f.sdc.signing_public_key());
    (
        PisaMessage::SdcResponse(response).encode().unwrap(),
        granted,
    )
}

fn assert_round_parity(fixture_seed: u64, with_pu: bool, expect_granted: bool) {
    let channels = [Channel(0)];
    let (seq_bytes, seq_granted) = run_round(
        fixture_seed,
        with_pu,
        &channels,
        |sdc, req, rng| sdc.process_request_phase1(req, rng).unwrap(),
        |stp, q, rng| stp.key_convert(q, rng).unwrap().0,
    );
    assert_eq!(seq_granted, expect_granted);

    for threads in THREADS {
        let (par_bytes, par_granted) = run_round(
            fixture_seed,
            with_pu,
            &channels,
            |sdc, req, rng| {
                sdc.process_request_phase1_parallel(req, threads, rng)
                    .unwrap()
            },
            |stp, q, rng| stp.key_convert_parallel(q, threads, rng).unwrap().0,
        );
        assert_eq!(
            par_bytes, seq_bytes,
            "response frame diverged with {threads} threads"
        );
        assert_eq!(
            par_granted, seq_granted,
            "decision diverged with {threads} threads"
        );
    }
}

#[test]
fn parallel_round_grants_like_sequential() {
    assert_round_parity(0xe403, false, true);
}

#[test]
fn parallel_round_denies_like_sequential() {
    assert_round_parity(0xe404, true, false);
}

// ---------------------------------------------------------------------
// The in-process storm against the plaintext reference: with no faults
// and no timeouts the real-fidelity simulator storm is deterministic,
// so every SU must reach its WATCH decision on the first attempt.
// ---------------------------------------------------------------------

#[test]
fn sim_storm_matches_watch_oracle() {
    use pisa::{storm_fixture, EngineConfig, StormFixture};
    use pisa_sim::model::ModelOracle;
    use pisa_sim::run_sim_storm_with;
    use std::time::Duration;

    let seed = 0xe405;
    let n = 12;
    // A timeout far beyond any crypto latency: exactly one attempt per SU.
    let engine = EngineConfig::default().with_timeout(Duration::from_secs(120));

    let StormFixture { sus, sdc, stp } = storm_fixture(n, seed).unwrap();
    let sim = run_sim_storm_with(sus, sdc, stp, None, &engine, seed, 0.0).unwrap();
    assert!(sim.all_terminal());
    assert_eq!(sim.fidelity, "real");

    // Identical per-SU decisions, each on the first attempt.
    let mut oracle = ModelOracle::new(SystemConfig::small_test().watch());
    let sim_dec: Vec<(u32, Option<bool>, u32)> = sim
        .outcomes
        .iter()
        .map(|o| (o.su, o.granted, o.attempts))
        .collect();
    let want: Vec<(u32, Option<bool>, u32)> = (0..n)
        .map(|i| (i, Some(oracle.su_decision(i)), 1))
        .collect();
    assert_eq!(sim_dec, want, "per-SU decisions diverged from WATCH");
    // Both grant and deny paths exercised (PU sits on channel 0).
    assert!(sim_dec.iter().any(|&(_, g, _)| g == Some(true)));
    assert!(sim_dec.iter().any(|&(_, g, _)| g == Some(false)));

    // The virtual network moved exactly one request, query, reply and
    // response per session.
    assert_eq!(sim.messages, u64::from(n) * 4);
}
