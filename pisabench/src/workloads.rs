//! The four workloads and the metrics each run reports.

use crate::direct::{Direct, PuUpdate, Request, Step};
use crate::layers::{codec_us, primitives};
use crate::report::{cpu_seconds, max_rss_mb, nproc, Report};
use crate::schedule::poisson_arrivals;
use crate::service::{Deployment, Load, Window};
use crate::stats::{beyond, median, percentile, reported};
use pisa::SystemConfig;
use pisa_net::{FaultPlan, Party};
use pisa_sim::{check_storm, SimConfig, StormReport};
use pisa_watch::WatchConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "service_light",
    "service_saturated",
    "churn_1024",
    "sim_modeled",
];

/// Open-loop arrival rate of `service_light`, sessions per second:
/// about a third of what `service_saturated` sustains on a busy host
/// (7.5/s) and a fifth of it on a quiet one (11.2/s). Higher rates let a
/// slow host push sessions past the SU's 200 ms deadline, where retries
/// feed on themselves.
pub const LIGHT_RATE: f64 = 2.5;
/// Sessions kept outstanding by `service_saturated`.
pub const SATURATED_K: usize = 8;
/// Sessions prebuilt per second of a `service_saturated` window: more
/// than the deployment decides, so the closed loop never runs dry.
pub const SATURATED_POOL_PER_S: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Key size and population of `churn_1024`.
pub const CHURN_BITS: usize = 1024;
pub const CHURN_PUS: usize = 8;
pub const CHURN_PUS_PER_ROUND: usize = 4;
pub const CHURN_SUS: usize = 16;
/// Sessions per modeled storm, and per warm-up storm of its set-up.
pub const SIM_SESSIONS: u32 = 100_000;
pub const SIM_WARMUP_SESSIONS: u32 = 25_000;
/// Direct-call rounds the service workloads' traced runs use as their
/// layer probe.
pub const PROBE_ROUNDS: usize = 5;
/// The SU's first-attempt deadline: the latency limit of a session.
pub const LIMIT_MS: f64 = 200.0;

/// Every per-layer metric, in report order. A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bigint.mont_mul_ns", "ns"),
    ("bigint.pow_ms", "ms"),
    ("bigint.mont_muls_per_request", "count"),
    ("paillier.encrypt_ms", "ms"),
    ("paillier.decrypt_ms", "ms"),
    ("paillier.add_us", "us"),
    ("paillier.scalar_mul_ms", "ms"),
    ("paillier.rerandomize_ms", "ms"),
    ("ops.mod_exps", "count"),
    ("ops.encryptions", "count"),
    ("ops.decryptions", "count"),
    ("ops.pool_misses", "count"),
    ("phase.su_prep_ms", "ms"),
    ("phase.sign_test_ms", "ms"),
    ("phase.key_conversion_ms", "ms"),
    ("phase.release_ms", "ms"),
    ("phase.verify_ms", "ms"),
    ("phase.pu_encrypt_ms", "ms"),
    ("phase.matrix_update_ms", "ms"),
    ("phase.residual_ms", "ms"),
    ("reconcile.su_prep_residual_ms", "ms"),
    ("reconcile.sign_test_residual_ms", "ms"),
    ("reconcile.key_conversion_residual_ms", "ms"),
    ("reconcile.release_residual_ms", "ms"),
    ("reconcile.verify_residual_ms", "ms"),
    ("reconcile.pu_encrypt_residual_ms", "ms"),
    ("reconcile.matrix_update_residual_ms", "ms"),
    ("durable.pu_update_ms", "ms"),
    ("durable.snapshot_ms", "ms"),
    ("durable.write_ms", "ms"),
    ("durable.checkpoint_bytes", "bytes"),
    ("session.attempts_per_session", "count"),
    ("session.timeouts", "count"),
    ("session.retries", "count"),
    ("session.rejects", "count"),
    ("session.first_attempt_share", "ratio"),
    ("stp.queries_per_session", "count"),
    ("net.bytes_per_session", "bytes"),
    ("net.messages_per_session", "count"),
    ("net.encode_us.request", "us"),
    ("net.encode_us.query", "us"),
    ("net.encode_us.reply", "us"),
    ("net.encode_us.response", "us"),
    ("net.decode_us.request", "us"),
    ("net.decode_us.query", "us"),
    ("net.decode_us.reply", "us"),
    ("net.decode_us.response", "us"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("proc.cpu_busy_share", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.attempts_per_session", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Runs `workload`; `None` if the name is unknown.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    Some(match (workload, trace) {
        ("service_light", false) => service_e2e(light_load(seed, seconds), seed),
        ("service_light", true) => service_traced(|s| light_load(seed, s), seconds, seed),
        ("service_saturated", false) => service_e2e(saturated_load(seconds), seed),
        ("service_saturated", true) => service_traced(saturated_load, seconds, seed),
        ("churn_1024", false) => churn_e2e(seed, seconds),
        ("churn_1024", true) => churn_traced(seed, seconds),
        ("sim_modeled", false) => sim_e2e(seed, seconds),
        ("sim_modeled", true) => sim_traced(seed, seconds),
        _ => return None,
    })
}

/// Per-layer values of one traced run, printed in [`PER_LAYER`] order.
#[derive(Default)]
struct Layers(HashMap<String, f64>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, value);
    }

    fn into_report(self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The end-to-end metrics of one untraced run. Tail percentiles and
/// peak memory are listed but are not bounded metrics: a run holds too
/// few sessions beyond the tail percentiles, and the allocator's
/// per-thread arenas move the peak, for either to be steady across
/// seeds.
fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    latency_ms: &[f64],
    per_second: f64,
    limit_ms: Option<f64>,
) {
    let n = latency_ms.len();
    report.put_n("setup_s", median(setups).unwrap_or(0.0), "s", setups.len());
    report.put_n(
        "latency_p50_ms",
        reported(percentile(latency_ms, 0.5).unwrap_or(0.0)),
        "ms",
        n,
    );
    report.put_n("throughput_per_s", per_second, "1/s", n);
    println!("  peak resident memory {:.3} MB", max_rss_mb());
    for q in [0.9, 0.95, 0.99] {
        println!(
            "  p{:<3} {:>12.3} ms  ({} of {n} samples beyond)",
            q * 100.0,
            reported(percentile(latency_ms, q).unwrap_or(0.0)),
            beyond(n, q)
        );
    }
    if let Some(limit) = limit_ms {
        println!(
            "  latency limit {limit} ms missed by {} of {n}",
            latency_ms.iter().filter(|&&l| l > limit).count()
        );
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- service

fn light_load(seed: u64, seconds: f64) -> Load {
    Load::Open {
        arrivals: poisson_arrivals(seed, LIGHT_RATE, seconds),
    }
}

fn saturated_load(seconds: f64) -> Load {
    Load::Closed {
        k: SATURATED_K,
        seconds,
    }
}

fn sessions_for(load: &Load) -> u32 {
    let n = match load {
        Load::Open { arrivals } => arrivals.len(),
        Load::Closed { seconds, .. } => (SATURATED_POOL_PER_S * seconds).ceil() as usize,
    };
    u32::try_from(n.max(1)).unwrap_or(u32::MAX)
}

fn window_report(w: &Window) -> Report {
    let mut report = Report::new(w.latency_ms.len(), w.failed);
    for m in &w.mismatches {
        report.error(m.clone());
    }
    report
}

fn service_e2e(load: Load, seed: u64) -> Report {
    let sessions = sessions_for(&load);
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous deployment down before timing the next.
        drop(deployment.take());
        let t = Instant::now();
        deployment = Some(Deployment::start(sessions, seed));
        setups.push(secs(t));
    }
    let mut deployment = deployment.expect("at least one set-up");
    let w = deployment.run(&load);
    drop(deployment);
    let mut report = window_report(&w);
    end_to_end(
        &mut report,
        &setups,
        &w.latency_ms,
        ratio(w.decided as f64, w.span_s),
        Some(LIMIT_MS),
    );
    report
}

/// `load` builds the workload's load for a window of the given length.
fn service_traced(load: impl Fn(f64) -> Load, seconds: f64, seed: u64) -> Report {
    // Untraced half-length pass first: the overhead baseline.
    let base_load = load(seconds / 2.0);
    let mut plain = Deployment::start(sessions_for(&base_load), seed);
    let base = plain.run(&base_load);
    drop(plain);

    let load = load(seconds);
    let mut d = Deployment::start(sessions_for(&load), seed);
    pisa_obs::set_enabled(true);
    pisa_obs::reset();
    let ops0 = pisa_obs::counters();
    let w = d.run(&load);
    let ops = pisa_obs::counters().delta_since(&ops0);
    pisa_obs::set_enabled(false);
    let mut layers = Layers::default();
    let n = w.decided as f64;
    layers.set("ops.mod_exps", ratio(ops.mod_exps as f64, n));
    layers.set("ops.encryptions", ratio(ops.encryptions as f64, n));
    layers.set("ops.decryptions", ratio(ops.decryptions as f64, n));
    layers.set("ops.pool_misses", ratio(ops.pool_misses as f64, n));
    let su = d.su_metrics().session_totals();
    let sdc = d.sdc_metrics().session_totals();
    let stp = d.stp_metrics().session_totals();
    layers.set(
        "session.attempts_per_session",
        ratio(w.attempts.iter().map(|&a| f64::from(a)).sum(), n),
    );
    layers.set("session.timeouts", ratio(su.timeouts as f64, n));
    layers.set("session.retries", ratio(su.retries as f64, n));
    layers.set(
        "session.rejects",
        ratio((su.rejected + sdc.rejected + stp.rejected) as f64, n),
    );
    layers.set(
        "session.first_attempt_share",
        ratio(
            w.attempts.iter().filter(|&&a| a == 1).count() as f64,
            w.latency_ms.len() as f64,
        ),
    );
    let link = |from, to| d.sdc_metrics().link(from, to).unwrap_or_default();
    let (query, reply) = (link(Party::Sdc, Party::Stp), link(Party::Stp, Party::Sdc));
    layers.set("stp.queries_per_session", ratio(query.messages as f64, n));
    layers.set(
        "net.bytes_per_session",
        ratio(
            (d.su_metrics().total_bytes() + query.bytes + reply.bytes) as f64,
            n,
        ),
    );
    layers.set(
        "net.messages_per_session",
        ratio(
            (d.su_metrics().total_messages() + query.messages + reply.messages) as f64,
            n,
        ),
    );
    drop(d);
    layers.set(
        "loadgen.lateness_p50_ms",
        percentile(&w.lateness_ms, 0.5).unwrap_or(0.0),
    );
    layers.set(
        "loadgen.lateness_max_ms",
        percentile(&w.lateness_ms, 1.0).unwrap_or(0.0),
    );
    layers.set("proc.cpu_busy_share", w.cpu_s / (w.span_s * nproc()));
    layers.set(
        "trace.overhead_share",
        overhead(
            percentile(&base.latency_ms, 0.5),
            percentile(&w.latency_ms, 0.5),
        ),
    );

    // The layer probe: the same 384-bit geometry by direct calls.
    let cfg = SystemConfig::small_test();
    let mut direct = Direct::new(cfg.clone(), seed, 4, 2, state_dir("probe"));
    let mut requests = Vec::new();
    let mut updates = Vec::new();
    let mut report = window_report(&w);
    for m in &base.mismatches {
        report.error(m.clone());
    }
    pisa_obs::set_enabled(true);
    for i in 0..PROBE_ROUNDS {
        updates.push(direct.retune(i % direct.pu_count()));
        let (req, ok) = direct.request();
        if !ok {
            report.error("layer probe decision disagrees with WATCH");
        }
        requests.push(req);
    }
    pisa_obs::set_enabled(false);
    drop(direct);
    direct_layers(&mut layers, &cfg, seed, &requests, &updates);
    layers.into_report(&mut report);
    report
}

fn overhead(untraced: Option<f64>, traced: Option<f64>) -> f64 {
    match (untraced, traced) {
        (Some(u), Some(t)) if u > 0.0 && u.is_finite() && t.is_finite() => t / u - 1.0,
        _ => 0.0,
    }
}

/// A scratch directory for checkpoints inside the working tree.
fn state_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("pisabench-state")
        .join(format!("{tag}-{}", std::process::id()))
}

// ------------------------------------------------------- direct-call layers

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Phase, reconciliation, durable, kernel, Paillier and codec metrics
/// from direct-call rounds at `cfg`'s key size.
fn direct_layers(
    layers: &mut Layers,
    cfg: &SystemConfig,
    seed: u64,
    requests: &[Request],
    updates: &[PuUpdate],
) {
    let prim = primitives(cfg.paillier_bits(), cfg.blind_bits(), seed);
    layers.set("bigint.mont_mul_ns", prim.mont_mul_ns);
    layers.set("bigint.pow_ms", prim.pow_ms);
    layers.set("paillier.encrypt_ms", prim.encrypt_ms);
    layers.set("paillier.decrypt_ms", prim.decrypt_ms);
    layers.set("paillier.add_us", prim.add_us);
    layers.set("paillier.scalar_mul_ms", prim.scalar_mul_ms);
    layers.set("paillier.rerandomize_ms", prim.rerandomize_ms);

    let mul_ms = prim.mont_mul_ns / 1e6;
    // Median time of a step and its residual once its Montgomery
    // multiplications are priced at the kernel's n²-width cost.
    let phase = |steps: Vec<Step>| {
        let ms = med(steps.iter().map(|s| s.ms));
        let muls = med(steps.iter().map(|s| s.mont_muls as f64));
        (ms, ms - muls * mul_ms)
    };
    let mut sum = 0.0;
    for (i, name) in [
        "su_prep",
        "sign_test",
        "key_conversion",
        "release",
        "verify",
    ]
    .into_iter()
    .enumerate()
    {
        let (ms, residual) = phase(requests.iter().map(|r| r.phases()[i].1).collect());
        sum += ms;
        layers.set(format!("phase.{name}_ms"), ms);
        layers.set(format!("reconcile.{name}_residual_ms"), residual);
    }
    layers.set(
        "phase.residual_ms",
        med(requests.iter().map(|r| r.total_ms)) - sum,
    );
    layers.set(
        "bigint.mont_muls_per_request",
        med(requests
            .iter()
            .map(|r| r.phases().iter().map(|(_, s)| s.mont_muls).sum::<u64>() as f64)),
    );
    let (ms, residual) = phase(updates.iter().map(|u| u.encrypt).collect());
    layers.set("phase.pu_encrypt_ms", ms);
    layers.set("reconcile.pu_encrypt_residual_ms", residual);
    let (ms, residual) = phase(updates.iter().map(|u| u.matrix_update).collect());
    layers.set("phase.matrix_update_ms", ms);
    layers.set("reconcile.matrix_update_residual_ms", residual);
    layers.set(
        "durable.pu_update_ms",
        med(updates.iter().map(|u| u.total_ms)),
    );
    layers.set(
        "durable.snapshot_ms",
        med(updates.iter().map(|u| u.snapshot.ms)),
    );
    layers.set("durable.write_ms", med(updates.iter().map(|u| u.write.ms)));
    layers.set(
        "durable.checkpoint_bytes",
        med(updates.iter().map(|u| u.checkpoint_bytes as f64)),
    );
    if let Some(last) = requests.last() {
        for (kind, frame) in &last.frames {
            let (enc, dec) = codec_us(frame);
            layers.set(format!("net.encode_us.{kind}"), enc);
            layers.set(format!("net.decode_us.{kind}"), dec);
        }
    }
}

// ------------------------------------------------------------------ churn

fn churn_config() -> SystemConfig {
    SystemConfig::new(WatchConfig::small_test(), CHURN_BITS, 64, 64)
}

fn churn_setup(seed: u64) -> Direct {
    Direct::new(
        churn_config(),
        seed,
        CHURN_PUS,
        CHURN_SUS,
        state_dir("churn"),
    )
}

/// Rounds of PU retunes and one SU request, for `seconds`.
struct Rounds {
    requests: Vec<Request>,
    updates: Vec<PuUpdate>,
    mismatches: usize,
    seconds: f64,
    cpu_s: f64,
}

fn churn_rounds(direct: &mut Direct, seconds: f64) -> Rounds {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut r = Rounds {
        requests: Vec::new(),
        updates: Vec::new(),
        mismatches: 0,
        seconds: 0.0,
        cpu_s: 0.0,
    };
    let mut next_pu = 0;
    while secs(t0) < seconds {
        for _ in 0..CHURN_PUS_PER_ROUND {
            r.updates.push(direct.retune(next_pu));
            next_pu = (next_pu + 1) % direct.pu_count();
        }
        let (req, ok) = direct.request();
        r.mismatches += usize::from(!ok);
        r.requests.push(req);
    }
    r.seconds = secs(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    r
}

fn churn_e2e(seed: u64, seconds: f64) -> Report {
    let mut setups = Vec::new();
    let mut direct = None;
    for _ in 0..SETUP_REPS {
        drop(direct.take());
        let t = Instant::now();
        direct = Some(churn_setup(seed));
        setups.push(secs(t));
    }
    let mut direct = direct.expect("at least one set-up");
    let rounds = churn_rounds(&mut direct, seconds);
    drop(direct);
    let mut report = Report::new(rounds.requests.len(), 0);
    if rounds.mismatches > 0 {
        report.error(format!(
            "{} encrypted decisions disagree with WATCH",
            rounds.mismatches
        ));
    }
    let latency: Vec<f64> = rounds.requests.iter().map(|r| r.total_ms).collect();
    end_to_end(
        &mut report,
        &setups,
        &latency,
        ratio(rounds.requests.len() as f64, rounds.seconds),
        None,
    );
    report
}

fn churn_traced(seed: u64, seconds: f64) -> Report {
    let mut direct = churn_setup(seed);
    let base = churn_rounds(&mut direct, seconds / 2.0);
    pisa_obs::set_enabled(true);
    pisa_obs::reset();
    let rounds = churn_rounds(&mut direct, seconds);
    pisa_obs::set_enabled(false);
    drop(direct);
    let mut report = Report::new(rounds.requests.len(), 0);
    if rounds.mismatches + base.mismatches > 0 {
        report.error("encrypted decisions disagree with WATCH");
    }
    let mut layers = Layers::default();
    let n = rounds.requests.len() as f64;
    let ops = |f: fn(&pisa_obs::OpTotals) -> u64| {
        ratio(rounds.requests.iter().map(|r| f(&r.ops) as f64).sum(), n)
    };
    layers.set("ops.mod_exps", ops(|o| o.mod_exps));
    layers.set("ops.encryptions", ops(|o| o.encryptions));
    layers.set("ops.decryptions", ops(|o| o.decryptions));
    layers.set("ops.pool_misses", ops(|o| o.pool_misses));
    // Direct calls: one key conversion and four messages per request;
    // the bytes are what the codec would put on the wire.
    layers.set("stp.queries_per_session", 1.0);
    if let Some(last) = rounds.requests.last() {
        let bytes: usize = last
            .frames
            .iter()
            .map(|(_, f)| f.encode().map_or(0, |b| b.len()))
            .sum();
        layers.set("net.bytes_per_session", bytes as f64);
        layers.set("net.messages_per_session", last.frames.len() as f64);
    }
    layers.set(
        "proc.cpu_busy_share",
        rounds.cpu_s / (rounds.seconds * nproc()),
    );
    let p50 = |r: &Rounds| {
        percentile(
            &r.requests.iter().map(|q| q.total_ms).collect::<Vec<_>>(),
            0.5,
        )
    };
    layers.set("trace.overhead_share", overhead(p50(&base), p50(&rounds)));
    direct_layers(
        &mut layers,
        &churn_config(),
        seed,
        &rounds.requests,
        &rounds.updates,
    );
    layers.into_report(&mut report);
    report
}

// -------------------------------------------------------------------- sim

/// The `BENCH_sim_v1` fault mix.
fn sim_config(sessions: u32) -> SimConfig {
    SimConfig::modeled(sessions).with_plan(
        FaultPlan::none()
            .with_drop(0.05)
            .with_duplicate(0.02)
            .with_reorder(0.05)
            .with_corrupt(0.02),
    )
}

struct Storms {
    wall_ms: Vec<f64>,
    reports: Vec<StormReport>,
    errors: Vec<String>,
}

/// Modeled storms with per-storm seeds derived from `seed`, for
/// `seconds`; each storm is checked against the simulator invariants.
fn sim_storms(seed: u64, seconds: f64, sessions: u32, traced: bool) -> Storms {
    let config = sim_config(sessions);
    let t0 = Instant::now();
    let mut s = Storms {
        wall_ms: Vec::new(),
        reports: Vec::new(),
        errors: Vec::new(),
    };
    let mut k = 0u64;
    while secs(t0) < seconds {
        let storm_seed = seed.wrapping_mul(1_000_003).wrapping_add(k);
        k += 1;
        if traced {
            // Keep the span registry bounded: one span per session.
            pisa_obs::reset();
        }
        let t = Instant::now();
        let result = check_storm(storm_seed, &config);
        s.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) => s.reports.push(r),
            Err(e) => s.errors.push(format!("storm seed {storm_seed}: {e}")),
        }
    }
    s
}

fn sim_e2e(seed: u64, seconds: f64) -> Report {
    // Set-up: warm-up storms that fault in the allocator and caches.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|i| {
            let t = Instant::now();
            let _ = check_storm(
                seed ^ (0x5e7u64 + i as u64),
                &sim_config(SIM_WARMUP_SESSIONS),
            );
            secs(t)
        })
        .collect();
    let storms = sim_storms(seed, seconds, SIM_SESSIONS, false);
    let mut report = Report::new(storms.wall_ms.len(), storms.errors.len());
    for e in storms.errors {
        report.error(e);
    }
    let sessions = storms.reports.len() as f64 * f64::from(SIM_SESSIONS);
    let total_s = storms.wall_ms.iter().sum::<f64>() / 1e3;
    end_to_end(
        &mut report,
        &setups,
        &storms.wall_ms,
        ratio(sessions, total_s),
        None,
    );
    report
}

fn sim_traced(seed: u64, seconds: f64) -> Report {
    let base = sim_storms(seed, seconds / 2.0, SIM_SESSIONS, false);
    pisa_obs::set_enabled(true);
    let storms = sim_storms(seed, seconds, SIM_SESSIONS, true);
    pisa_obs::set_enabled(false);
    pisa_obs::reset();
    let mut report = Report::new(storms.wall_ms.len(), storms.errors.len());
    for e in storms.errors.iter().chain(&base.errors) {
        report.error(e.clone());
    }
    let mut layers = Layers::default();
    let rs = &storms.reports;
    let n: f64 = rs.iter().map(|r| f64::from(r.sus)).sum();
    let total = |f: fn(&StormReport) -> u64| rs.iter().map(f).sum::<u64>() as f64;
    let attempts = ratio(total(|r| r.attempts_total), n);
    layers.set("session.attempts_per_session", attempts);
    layers.set("sim.attempts_per_session", attempts);
    layers.set("session.timeouts", ratio(total(|r| r.sessions.timeouts), n));
    layers.set("session.retries", ratio(total(|r| r.sessions.retries), n));
    layers.set("session.rejects", ratio(total(|r| r.sessions.rejected), n));
    layers.set(
        "session.first_attempt_share",
        ratio(
            rs.iter()
                .flat_map(|r| &r.outcomes)
                .filter(|o| o.granted.is_some() && o.attempts == 1)
                .count() as f64,
            n,
        ),
    );
    layers.set("net.bytes_per_session", ratio(total(|r| r.bytes), n));
    layers.set("net.messages_per_session", ratio(total(|r| r.messages), n));
    layers.set("sim.events", ratio(total(|r| r.events), rs.len() as f64));
    layers.set(
        "sim.events_per_s",
        ratio(
            total(|r| r.events),
            storms.wall_ms.iter().sum::<f64>() / 1e3,
        ),
    );
    layers.set(
        "trace.overhead_share",
        overhead(
            percentile(&base.wall_ms, 0.5),
            percentile(&storms.wall_ms, 0.5),
        ),
    );
    layers.into_report(&mut report);
    report
}
