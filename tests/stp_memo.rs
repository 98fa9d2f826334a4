//! Pins the work behind a re-sent sign-test query: the STP key-converts
//! it once (one decryption per entry) and answers every re-send from its
//! reply memo with no decryption at all.
//!
//! Compiled only when the crate's `obs` feature is active — always the
//! case for a workspace-wide `cargo test`. The op counters are process
//! globals, so the whole check is one `#[test]` in its own binary rather
//! than a unit test racing the crate's other crypto tests.
#![cfg(feature = "obs")]

use pisa::{storm_fixture, PisaMessage, SessionMsg, StormFixture, StpSessionEngine};
use pisa_net::NetMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn re_sent_query_costs_one_conversion_of_decryptions() {
    let StormFixture {
        mut sus,
        mut sdc,
        stp,
    } = storm_fixture(1, 0x3e30).expect("fixture");
    let (mut su, channels) = sus.pop().expect("one SU");
    let mut rng = StdRng::seed_from_u64(0x3e31);
    let cfg = sdc.config().clone();
    let request = su.build_request(&cfg, stp.public_key(), &channels, &mut rng);
    let query = sdc
        .process_request_phase1_parallel(&request, 1, &mut rng)
        .expect("phase 1");
    let entries = query.v_matrix.len() as u64;
    assert_eq!(entries, 100, "4 channels × 25 blocks");

    let mut stp = StpSessionEngine::new(stp, 2, NetMetrics::new(), 0x517);
    let mut decryptions_for = |attempt: u32| {
        let frame = SessionMsg {
            session: u64::from(query.su_id.0),
            attempt,
            msg: PisaMessage::SdcToStp(query.clone()),
        };
        let before = pisa_obs::counters();
        let reply = stp.handle(frame).expect("converted");
        assert_eq!(reply.1.attempt, attempt);
        pisa_obs::counters().delta_since(&before).decryptions
    };

    pisa_obs::set_enabled(true);
    let per_attempt: Vec<u64> = (0..3).map(&mut decryptions_for).collect();
    pisa_obs::set_enabled(false);
    assert_eq!(per_attempt, vec![entries, 0, 0]);
}
