//! Chaos test for the networked storm: the 16-session drop / duplicate
//! / reorder scenario from `tests/chaos.rs`, but with SDC, STP and the
//! SU swarm as three independent service loops over real loopback
//! sockets. The chaos invariant must hold across process boundaries:
//! socket-layer faults can cost time, never change a grant/deny
//! decision away from the plaintext WATCH reference.

use pisa::{run_su_storm, EngineConfig, NetStormOpts, SdcService, StpService, SuId, SystemConfig};
use pisa_net::{FaultConfig, FaultPlan};
use pisa_sim::model::ModelOracle;
use std::time::Duration;

const SESSIONS: u32 = 16;
const SEED: u64 = 0xc0a5;

/// The plaintext WATCH decision for every SU of the storm fixture.
fn watch_decisions(sessions: u32) -> Vec<(SuId, Option<bool>)> {
    let mut oracle = ModelOracle::new(SystemConfig::small_test().watch());
    (0..sessions)
        .map(|i| (SuId(i), Some(oracle.su_decision(i))))
        .collect()
}

/// Launches the STP and SDC service loops on ephemeral loopback ports
/// and runs the SU swarm against them with `--halt` semantics, so the
/// shutdown cascade tears the whole deployment down at the end.
fn loopback_storm(opts: &NetStormOpts) -> pisa::EngineReport {
    let stp = StpService::bind(opts, "127.0.0.1:0").expect("bind stp");
    let stp_addr = stp.local_addr().expect("stp addr").to_string();
    let stp_thread = std::thread::spawn(move || stp.run());

    let sdc = SdcService::bind(opts, "127.0.0.1:0", &stp_addr).expect("bind sdc");
    let sdc_addr = sdc.local_addr().expect("sdc addr").to_string();
    let sdc_thread = std::thread::spawn(move || sdc.run());

    let report = run_su_storm(opts, &sdc_addr, true).expect("su storm");

    // The halt frame cascaded SU → SDC → STP: both services drain and
    // hand back their final server state.
    let _sdc_server = sdc_thread.join().expect("sdc service joined");
    let _stp_server = stp_thread.join().expect("stp service joined");
    report
}

#[test]
fn sixteen_sessions_survive_socket_drop_duplicate_reorder() {
    // Same knobs as the simulated chaos suite: 10% drop/dup/reorder per
    // directed link, a deadline wide enough to absorb 15 other
    // sessions' crypto queueing on the SDC, and a deep retry budget.
    // No corruption here — with `corrupt_possible` every denial burns a
    // retry (a flipped bit and a deny are indistinguishable by design),
    // so strict decision equality needs the corruption-free plan.
    let mut opts = NetStormOpts::new(SESSIONS, SEED);
    opts.engine = EngineConfig::default()
        .with_timeout(Duration::from_millis(1500))
        .with_max_retries(12);
    opts.faults = Some(
        FaultConfig::new(0xfa17).with_default_plan(
            FaultPlan::none()
                .with_drop(0.10)
                .with_duplicate(0.10)
                .with_reorder(0.10),
        ),
    );

    let decisions = watch_decisions(SESSIONS);
    // The scenario must exercise both outcomes, or decision equality
    // below would be vacuous.
    assert!(decisions.iter().any(|(_, g)| *g == Some(true)));
    assert!(decisions.iter().any(|(_, g)| *g == Some(false)));

    let report = loopback_storm(&opts);

    assert!(report.all_completed(), "{:?}", report.outcomes);
    assert_eq!(
        report.decisions(),
        decisions,
        "socket faults changed a grant/deny decision"
    );

    // The chaos actually happened on the SU process's outbound link
    // (its metrics only see SU→SDC; the servers inject their own).
    let faults_seen = report.metrics.fault_totals();
    assert!(
        faults_seen.dropped + faults_seen.duplicated + faults_seen.reordered > 0,
        "no socket fault ever fired under 10% chaos: {faults_seen:?}"
    );
    let sessions = report.metrics.session_totals();
    assert!(
        sessions.retries > 0 || sessions.rejected > 0,
        "no session ever retried or rejected under 10% loss: {sessions:?}"
    );
}

#[test]
fn clean_loopback_storm_matches_watch_exactly() {
    // Without faults the networked storm is a pure transport swap: the
    // decisions and the decision *order* must match the WATCH reference.
    let mut opts = NetStormOpts::new(8, SEED);
    opts.engine = EngineConfig::default().with_timeout(Duration::from_secs(5));

    let report = loopback_storm(&opts);

    assert!(report.all_completed(), "{:?}", report.outcomes);
    assert_eq!(report.decisions(), watch_decisions(8));
    // A clean network absorbs zero faults.
    let faults_seen = report.metrics.fault_totals();
    assert_eq!(faults_seen.dropped, 0);
    assert_eq!(faults_seen.corrupted, 0);
}
