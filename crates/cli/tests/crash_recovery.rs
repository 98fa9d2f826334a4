//! Tier-2 crash-recovery gate (`--ignored`): boots the STP and SDC as
//! real processes with `--state-dir` checkpointing, drives a networked
//! SU storm, SIGKILLs the SDC mid-storm, restarts it with `--resume`,
//! and requires the completed storm's decisions to match the plaintext
//! WATCH reference — the crash must be invisible to every SU.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SESSIONS: u32 = 16;
const SEED: u64 = 2017;

/// A spawned service that is killed (and its state dir removed) even
/// when an assertion fails mid-test.
struct Service {
    child: Child,
    name: &'static str,
}

impl Service {
    fn spawn(name: &'static str, args: &[&str]) -> Service {
        let child = Command::new(env!("CARGO_BIN_EXE_pisa"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        Service { child, name }
    }

    /// Reads stdout lines until the "serving on ADDR" banner appears,
    /// returning the bound address. Consumes the stdout pipe; the
    /// service keeps running detached from it.
    fn wait_for_addr(&mut self) -> String {
        let stdout = self
            .child
            .stdout
            .take()
            .unwrap_or_else(|| panic!("{} stdout not piped", self.name));
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("{} stdout died: {e}", self.name));
            if n == 0 {
                panic!("{} exited before its serving banner", self.name);
            }
            if let Some(rest) = line.split("serving on ").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_else(|| panic!("{}: malformed banner {line:?}", self.name))
                    .trim_end_matches(';')
                    .to_owned();
                // Keep draining on a detached thread so the service
                // never blocks (or panics) on a dead stdout pipe.
                std::thread::spawn(move || {
                    let mut sink = String::new();
                    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                });
                return addr;
            }
        }
    }

    fn sigkill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.sigkill();
    }
}

fn storm_opts() -> pisa::NetStormOpts {
    let mut opts = pisa::NetStormOpts::new(SESSIONS, SEED);
    // Generous retry budget: the SUs must ride out the whole
    // kill-to-resume window (SDC process restart + checkpoint load)
    // on ordinary timeout/retry logic, with no special-case handling.
    opts.engine = pisa::EngineConfig::default()
        .with_timeout(Duration::from_millis(500))
        .with_max_retries(40);
    opts
}

#[test]
#[ignore = "tier-2: spawns real processes and SIGKILLs one mid-protocol"]
fn sigkilled_sdc_resumes_and_storm_decisions_match_baseline() {
    let state_dir = std::env::temp_dir().join(format!("pisa-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let state = state_dir.to_str().expect("utf-8 temp path").to_owned();
    let sessions = SESSIONS.to_string();
    let seed = SEED.to_string();

    let mut stp = Service::spawn(
        "serve-stp",
        &[
            "serve-stp",
            "--listen",
            "127.0.0.1:0",
            "--sessions",
            &sessions,
            "--seed",
            &seed,
        ],
    );
    let stp_addr = stp.wait_for_addr();

    // The SDC needs a *fixed* port so the resumed process comes back at
    // the address the SUs are already retrying against. Probe a few
    // candidates in case one is taken on this machine.
    let mut sdc = None;
    let mut sdc_addr = String::new();
    for probe in 0..8u32 {
        let port = 17000 + (std::process::id() + probe * 131) % 20000;
        let addr = format!("127.0.0.1:{port}");
        let mut candidate = Service::spawn(
            "serve-sdc",
            &[
                "serve-sdc",
                "--listen",
                &addr,
                "--stp",
                &stp_addr,
                "--sessions",
                &sessions,
                "--seed",
                &seed,
                "--state-dir",
                &state,
                "--checkpoint-every",
                "2",
            ],
        );
        // A failed bind exits before the banner; give it a beat.
        std::thread::sleep(Duration::from_millis(300));
        match candidate.child.try_wait() {
            Ok(None) => {
                sdc_addr = candidate.wait_for_addr();
                sdc = Some(candidate);
                break;
            }
            _ => continue,
        }
    }
    let mut sdc = sdc.expect("no free port for the SDC in 8 probes");

    // The storm runs on its own thread; this thread plays the chaos
    // monkey, SIGKILLing the SDC as soon as its first checkpoint lands.
    let storm_sdc_addr = sdc_addr.clone();
    let storm = std::thread::spawn(move || {
        let opts = storm_opts();
        pisa::run_su_storm(&opts, &storm_sdc_addr, true)
    });

    let ckpt = state_dir.join("sdc.ckpt");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(
            Instant::now() < deadline,
            "SDC wrote no checkpoint within 30 s"
        );
        assert!(!storm.is_finished(), "storm finished before any checkpoint");
        std::thread::sleep(Duration::from_millis(20));
    }
    sdc.sigkill();

    // Resurrection: same port, same state dir, --resume. The SUs'
    // retries are hammering the dead address this whole time.
    let mut sdc2 = Service::spawn(
        "serve-sdc --resume",
        &[
            "serve-sdc",
            "--listen",
            &sdc_addr,
            "--stp",
            &stp_addr,
            "--sessions",
            &sessions,
            "--seed",
            &seed,
            "--state-dir",
            &state,
            "--checkpoint-every",
            "2",
            "--resume",
        ],
    );
    let resumed_addr = sdc2.wait_for_addr();
    assert_eq!(resumed_addr, sdc_addr, "resumed SDC must rebind its port");

    let report = storm
        .join()
        .expect("storm thread panicked")
        .expect("storm failed to complete against the resumed SDC");
    assert!(
        report.all_completed(),
        "every session must decide across the crash: {:?}",
        report.outcomes
    );

    let mut oracle = pisa_sim::model::ModelOracle::new(pisa::SystemConfig::small_test().watch());
    let watch: Vec<_> = (0..SESSIONS)
        .map(|i| (pisa::SuId(i), Some(oracle.su_decision(i))))
        .collect();
    assert_eq!(
        report.decisions(),
        watch,
        "crash + resume changed a grant/deny decision"
    );

    let _ = std::fs::remove_dir_all(&state_dir);
}
