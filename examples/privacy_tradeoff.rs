//! The SU location-privacy vs. time trade-off of §VI-A: request
//! preparation, SDC phase 1 and STP key conversion scale linearly with
//! the number of blocks the SU's encrypted matrix covers (the paper's
//! example: a 100×300 matrix for "somewhere in the north" vs 100×600 for
//! full privacy).
//!
//! Run with:
//! ```sh
//! cargo run --release -p pisa-core --example privacy_tradeoff [key_bits]
//! ```

mod harness;

use harness::{fmt_bytes, fmt_duration, scaled_config};
use pisa::prelude::*;
use pisa::{SdcServer, StpServer, SuClient, SuId};
use pisa_net::WireSize;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let key_bits: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("key size in bits"))
        .unwrap_or(512);

    // 4 channels × 60 blocks — the paper's B=600 shape at 1/10 scale
    // (sweep points 15/30/45/60 mirror their 150/300/450/600).
    let cfg = scaled_config(4, 6, 10, key_bits);
    let blocks = cfg.blocks();
    let mut rng = StdRng::seed_from_u64(0x7ade0ff);
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc", &mut rng);
    // The SU sits in block 0, so every prefix region contains it.
    let mut su = SuClient::new(SuId(0), BlockId(0), &cfg, &mut rng);
    stp.register_su(SuId(0), su.public_key().clone());
    let su_pk = su.public_key().clone();

    println!(
        "location privacy vs time ({} channels × {blocks} blocks, {key_bits}-bit keys)\n",
        cfg.channels()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>14} {:>14}",
        "region", "privacy", "request", "prep time", "SDC phase1", "STP convert"
    );

    let mut rows = Vec::new();
    for region in [blocks / 4, blocks / 2, 3 * blocks / 4, blocks] {
        su.set_privacy(LocationPrivacy::Region(region));

        let t = Instant::now();
        let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
        let prep = t.elapsed();

        let t = Instant::now();
        let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();
        let phase1 = t.elapsed();

        let t = Instant::now();
        let (to_sdc, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
        let convert = t.elapsed();

        let response = sdc
            .process_request_phase2(&to_sdc, &su_pk, &mut rng)
            .unwrap();
        assert!(su.handle_response(&response, sdc.signing_public_key()));

        let bytes = request.wire_bytes();
        println!(
            "{:>8} {:>9.0}% {:>12} {:>14} {:>14} {:>14}",
            region,
            100.0 * region as f64 / blocks as f64,
            fmt_bytes(bytes as u64),
            fmt_duration(prep),
            fmt_duration(phase1),
            fmt_duration(convert)
        );
        rows.push((region, bytes, (prep + phase1 + convert).as_secs_f64()));
    }

    // The paper's claim: asymptotically linear. Check bytes exactly and
    // time roughly (2x region ⇒ ~2x time).
    let (r0, bytes0, time0) = rows[0];
    for &(region, bytes, time) in &rows[1..] {
        let scale = region as f64 / r0 as f64;
        let byte_ratio = bytes as f64 / bytes0 as f64 / scale;
        assert!(
            (0.9..1.1).contains(&byte_ratio),
            "request bytes not linear in region: {byte_ratio}"
        );
        let time_ratio = time / time0 / scale;
        if !(0.5..2.0).contains(&time_ratio) {
            println!("    (warning: deviation from linear scaling at {region}: {time_ratio:.2})");
        }
    }
    println!("\nrequest size is exactly linear in the exposed region —");
    println!(
        "full location privacy costs {}x the {r0}-block region.",
        blocks / r0
    );
}
