//! Chaos test for the session engines: many simultaneous SU sessions
//! over a network injecting deterministic drop / duplicate / reorder
//! (and, separately, corruption) faults must finish with *exactly* the
//! plaintext WATCH decision for every SU — retries re-send the
//! identical encrypted request and the SDC's attempt-scoped caching
//! makes recomputation idempotent, so faults can cost time but never
//! change an answer.
//!
//! The storms run the real Paillier/RSA engines on the simulator's
//! virtual time ([`run_sim_storm_with`]), so the fault schedule and
//! every retry are reproducible from the seeds.

use pisa::{storm_fixture, EngineConfig, StormFixture, SystemConfig};
use pisa_net::{FaultConfig, FaultPlan};
use pisa_sim::model::ModelOracle;
use pisa_sim::{run_sim_storm_with, StormReport};
use std::time::Duration;

const SESSIONS: u32 = 16;

/// Runs an `n`-session real-fidelity storm of the canonical fixture.
/// Some SUs sit next to the PU on its channel (denied), the rest don't
/// (granted) — the decision mix is part of what a chaos run must
/// preserve.
fn storm(n: u32, seed: u64, faults: Option<FaultConfig>, engine: &EngineConfig) -> StormReport {
    let StormFixture { sus, sdc, stp } = storm_fixture(n, seed).unwrap();
    run_sim_storm_with(sus, sdc, stp, faults, engine, seed, 0.0).unwrap()
}

/// `(su, decision)` pairs, in SU-id order.
fn decisions(report: &StormReport) -> Vec<(u32, Option<bool>)> {
    report.outcomes.iter().map(|o| (o.su, o.granted)).collect()
}

/// The plaintext WATCH decision for every SU of an `n`-session fixture.
fn watch_decisions(n: u32) -> Vec<(u32, Option<bool>)> {
    let mut oracle = ModelOracle::new(SystemConfig::small_test().watch());
    (0..n).map(|i| (i, Some(oracle.su_decision(i)))).collect()
}

#[test]
fn sixteen_sessions_survive_drop_duplicate_reorder() {
    let seed = 0xc0a5;
    let expected = watch_decisions(SESSIONS);
    // The scenario must exercise both outcomes, or decision equality
    // below would be vacuous.
    assert!(expected.iter().any(|(_, g)| *g == Some(true)));
    assert!(expected.iter().any(|(_, g)| *g == Some(false)));

    let faults = FaultConfig::new(0xfa17).with_default_plan(
        FaultPlan::none()
            .with_drop(0.10)
            .with_duplicate(0.10)
            .with_reorder(0.10),
    );
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(1500))
        .with_max_retries(12);
    let report = storm(SESSIONS, seed, Some(faults), &engine);

    assert!(report.all_terminal(), "{:?}", report.outcomes);
    assert_eq!(
        decisions(&report),
        expected,
        "faults changed a grant/deny decision"
    );

    // The chaos actually happened, and the engine's resilience counters
    // surfaced it.
    let faults_seen = report.faults;
    assert!(faults_seen.dropped > 0, "{faults_seen:?}");
    assert!(faults_seen.duplicated > 0, "{faults_seen:?}");
    assert!(faults_seen.reordered > 0, "{faults_seen:?}");
    let sessions = report.sessions;
    assert!(
        sessions.retries > 0 || sessions.rejected > 0,
        "no session ever retried or rejected under 10% loss: {sessions:?}"
    );
}

#[test]
fn corruption_is_rejected_not_trusted() {
    let seed = 0xc0a6;
    let faults = FaultConfig::new(0x0bad)
        .with_default_plan(FaultPlan::none().with_drop(0.05).with_corrupt(0.15));
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(800))
        .with_max_retries(12);
    let report = storm(6, seed, Some(faults), &engine);

    assert!(report.all_terminal(), "{:?}", report.outcomes);
    assert_eq!(
        decisions(&report),
        watch_decisions(6),
        "a flipped bit changed a grant/deny decision"
    );
    let faults_seen = report.faults;
    assert!(
        faults_seen.corrupted + faults_seen.corrupt_dropped > 0,
        "{faults_seen:?}"
    );
}

/// Each phase-1 query is key-converted at most once. Under drop-only
/// faults on FIFO links an SU retry makes the SDC re-send its stored
/// query, and the STP answers the re-send from its reply memo instead
/// of converting again — so real conversions never outnumber sign
/// tests, and decisions still equal the WATCH oracle.
#[test]
fn drop_retries_key_convert_each_query_once() {
    let seed = 0xc0a8;
    let faults = FaultConfig::new(0xd209).with_default_plan(FaultPlan::none().with_drop(0.10));
    let engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(1500))
        .with_max_retries(12);
    pisa_obs::set_enabled(true);
    let marker = pisa_obs::span("chaos.memo_storm");
    let report = storm(SESSIONS, seed, Some(faults), &engine);
    drop(marker);
    let spans = pisa_obs::report().spans;
    pisa_obs::set_enabled(false);

    assert!(report.all_terminal(), "{:?}", report.outcomes);
    assert_eq!(decisions(&report), watch_decisions(SESSIONS));
    // Other tests in this binary may record spans concurrently: count
    // only this storm's, which all close on this test's thread.
    let tid = spans
        .iter()
        .find(|s| s.name == "chaos.memo_storm")
        .expect("marker span recorded")
        .tid;
    let count = |name: &str| {
        spans
            .iter()
            .filter(|s| s.tid == tid && s.name == name)
            .count()
    };
    let (conversions, sign_tests) = (count("key_conversion"), count("sign_test"));
    assert!(
        count("key_conversion.replay") > 0,
        "no query was re-sent, so the memo went untested"
    );
    assert!(
        conversions <= sign_tests,
        "{conversions} key conversions for {sign_tests} sign-test queries"
    );
}

/// Observability must be close to free: the 16-session storm with
/// spans + counters enabled may cost at most 3% more wall time than the
/// identical run with them disabled. Min-of-N is used on both sides to
/// shed scheduler noise; the workload itself is Paillier-bound, so span
/// bookkeeping is far off the critical path.
/// Soak lane (ignored): two timed release-mode storms per round.
#[test]
#[ignore]
fn observability_overhead_is_under_three_percent() {
    const ROUNDS: usize = 3;
    let seed = 0xc0a7;

    let timed_storm = |observe: bool| {
        pisa_obs::set_enabled(observe);
        if observe {
            pisa_obs::reset();
        }
        let StormFixture { sus, sdc, stp } = storm_fixture(SESSIONS, seed).unwrap();
        let engine = EngineConfig::default().with_timeout(Duration::from_secs(5));
        let start = std::time::Instant::now();
        let report = run_sim_storm_with(sus, sdc, stp, None, &engine, seed, 0.0).unwrap();
        let elapsed = start.elapsed();
        pisa_obs::set_enabled(false);
        assert!(report.all_terminal() && report.undecided == 0);
        elapsed
    };

    // Warm-up pass so allocator/page-cache effects don't bias the
    // first measured configuration.
    timed_storm(false);

    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..ROUNDS {
        off = off.min(timed_storm(false));
        on = on.min(timed_storm(true));
    }
    assert!(!pisa_obs::report().spans.is_empty(), "no spans recorded");

    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    assert!(
        overhead < 0.03,
        "observability overhead {:.2}% exceeds 3% (off {off:?}, on {on:?})",
        overhead * 100.0
    );
}
