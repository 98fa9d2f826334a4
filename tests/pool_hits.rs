//! Pins the offline/online split of §VI-A on the request path: with
//! randomizer pools enabled and refilled before the round, the SDC's
//! sign test and the STP's key conversion take their `rⁿ` factors from
//! the pools (exponentiations avoided, no pool miss), and the decision
//! is the one an unpooled system reaches.
//!
//! Compiled only when the crate's `obs` feature is active — always the
//! case for a workspace-wide `cargo test`. The op counters are process
//! globals, so the whole check is one `#[test]` in its own binary rather
//! than a unit test racing the crate's other crypto tests.
#![cfg(feature = "obs")]

use pisa::prelude::*;
use pisa_obs::{OpTotals, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One request on `channel` by an SU next to a PU tuned to channel 0,
/// with pools of `pool` factors per party (`None`: pools off).
fn decide(channel: Channel, pool: Option<usize>) -> (bool, Report) {
    let mut rng = StdRng::seed_from_u64(0x9001);
    let mut system = PisaSystem::setup(SystemConfig::small_test(), &mut rng);
    system.pu_update(0, BlockId(0), Some(Channel(0)), &mut rng);
    let su = system.register_su(BlockId(1), &mut rng);
    if let Some(capacity) = pool {
        system.enable_pools(capacity);
        system.refill_pools(&mut rng);
    }
    pisa_obs::reset();
    pisa_obs::set_enabled(true);
    let granted = system.request(su, &[channel], &mut rng).granted;
    pisa_obs::set_enabled(false);
    (granted, pisa_obs::report())
}

fn phase_ops(report: &Report, name: &str) -> OpTotals {
    report
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no {name} phase in the report"))
        .ops
}

#[test]
fn pooled_request_hits_its_pools_and_keeps_the_decision() {
    let mut decisions = Vec::new();
    for channel in [Channel(0), Channel(1)] {
        let (pooled, pooled_report) = decide(channel, Some(128));
        let (unpooled, unpooled_report) = decide(channel, None);
        for phase in ["sign_test", "key_conversion"] {
            let ops = phase_ops(&pooled_report, phase);
            // Unpooled phases avoid some exponentiations too (±1
            // scalars skip the ladder); the pool must avoid more.
            let online = phase_ops(&unpooled_report, phase);
            assert!(
                ops.mod_exps_avoided > online.mod_exps_avoided,
                "{phase} never hit its pool: {ops:?} vs unpooled {online:?}"
            );
            assert_eq!(ops.pool_misses, 0, "{phase}: {ops:?}");
        }
        assert_eq!(pooled, unpooled, "pools changed the decision on {channel}");
        decisions.push(pooled);
    }
    assert_eq!(
        decisions,
        [false, true],
        "the PU's channel denied, the other granted"
    );
}
