//! `pisa su --verify` on the built binary: serve-stp and serve-sdc run
//! as real processes on loopback, and the SU process compares every
//! socket decision with the plaintext WATCH reference for its seed. A
//! deployment derived from another seed must fail verification and
//! name the SUs whose decisions differ.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

const SESSIONS: &str = "4";

/// A spawned service, killed on drop even when an assertion fails.
struct Service(Child);

impl Service {
    /// Spawns `pisa <args>` and waits for its "serving on ADDR" banner.
    fn spawn(args: &[&str]) -> (Service, String) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pisa"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn service");
        let stdout = child.stdout.take().expect("piped stdout");
        let service = Service(child);
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("service stdout");
            assert!(n > 0, "{args:?} exited before its serving banner");
            let Some(rest) = line.split("serving on ").nth(1) else {
                continue;
            };
            let addr = rest
                .split_whitespace()
                .next()
                .expect("banner address")
                .trim_end_matches(';')
                .to_owned();
            // Keep draining so the service never blocks on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            return (service, addr);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs a halting, verifying SU storm of `su_seed` against servers
/// derived from `server_seed`.
fn verified_storm(server_seed: &str, su_seed: &str) -> Output {
    let common = [
        "--sessions",
        SESSIONS,
        "--retries",
        "3",
        "--timeout-ms",
        "1000",
    ];
    let stp_args = [
        &[
            "serve-stp",
            "--listen",
            "127.0.0.1:0",
            "--seed",
            server_seed,
        ][..],
        &common,
    ]
    .concat();
    let (_stp, stp_addr) = Service::spawn(&stp_args);
    let sdc_args = [
        &[
            "serve-sdc",
            "--listen",
            "127.0.0.1:0",
            "--stp",
            &stp_addr,
            "--seed",
            server_seed,
        ][..],
        &common,
    ]
    .concat();
    let (_sdc, sdc_addr) = Service::spawn(&sdc_args);
    let su_args = [
        &[
            "su", "--sdc", &sdc_addr, "--seed", su_seed, "--halt", "--verify",
        ][..],
        &common,
    ]
    .concat();
    Command::new(env!("CARGO_BIN_EXE_pisa"))
        .args(su_args)
        .output()
        .expect("run su")
}

#[test]
fn su_verify_accepts_the_matching_deployment() {
    let out = verified_storm("2017", "2017");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("verify: all 4 decisions match the plaintext WATCH reference"),
        "{stdout}"
    );
}

#[test]
fn su_verify_names_mismatching_sus() {
    let out = verified_storm("2018", "2017");
    assert!(
        !out.status.success(),
        "a foreign deployment passed --verify"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("verify FAILED"), "{stderr}");
    let named: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("SuId("))
        .collect();
    assert!(!named.is_empty(), "no mismatching SU named: {stderr}");
    assert!(
        named
            .iter()
            .all(|l| l.contains("socket") && l.contains("WATCH")),
        "{stderr}"
    );
}
