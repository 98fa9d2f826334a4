//! `pisa sim` report exports, checked on the built binary: a
//! real-fidelity storm given `--metrics-out`/`--trace-out` exports the
//! obs phase report beside its `sim` section, while a modeled storm's
//! report carries the `sim` section alone.

use pisa_obs::json::Value;
use std::path::PathBuf;
use std::process::Command;

/// A per-process scratch file, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        let file = format!("pisa-sim-export-{}-{name}", std::process::id());
        TempFile(std::env::temp_dir().join(file))
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }

    fn json(&self) -> Value {
        let text = std::fs::read_to_string(&self.0).expect("export written");
        Value::parse(&text).expect("export is JSON")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn pisa(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_pisa"))
        .args(args)
        .output()
        .expect("run pisa");
    assert!(
        out.status.success(),
        "pisa {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn keys(doc: &Value) -> Vec<String> {
    match doc {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// The assertions of the CI observability smoke lane, on the same
/// command line.
#[test]
fn real_sim_exports_phases_and_trace() {
    let (metrics, trace) = (TempFile::new("metrics.json"), TempFile::new("trace.json"));
    pisa(&[
        "sim",
        "--mode",
        "real",
        "--sus",
        "4",
        "--drop",
        "0.1",
        "--seed",
        "7",
        "--metrics-out",
        metrics.path(),
        "--trace-out",
        trace.path(),
    ]);

    let m = metrics.json();
    let reports = m.get("phases").and_then(Value::as_array).expect("phases");
    // Every phase carries integer timings and the seven op counters.
    for p in reports {
        let name = p.get("name").and_then(Value::as_str);
        for field in ["count", "total_ns", "mean_ns", "p95_ns"] {
            let v = p.get(field).and_then(Value::as_f64);
            assert!(
                v.is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
                "{name:?}.{field} = {v:?}"
            );
        }
        for field in [
            "mod_exps",
            "mod_muls",
            "encryptions",
            "decryptions",
            "rerandomizations",
            "mod_exps_avoided",
            "pool_misses",
        ] {
            let v = p.get("ops").and_then(|ops| ops.get(field));
            assert!(v.and_then(Value::as_f64).is_some(), "{name:?}.ops.{field}");
        }
    }
    let phases: Vec<(&str, u64)> = reports
        .iter()
        .filter_map(|p| {
            let name = p.get("name").and_then(Value::as_str)?;
            Some((name, p.get("count").and_then(Value::as_u64)?))
        })
        .collect();
    let count = |want: &str| phases.iter().find(|(name, _)| *name == want).map(|p| p.1);
    for want in ["sign_test", "key_conversion", "signature_release"] {
        assert!(count(want).is_some(), "missing phase {want}: {phases:?}");
    }
    // Each phase-1 query is key-converted at most once: re-sends replay
    // the STP's memoized reply.
    let (kc, st) = (count("key_conversion"), count("sign_test"));
    assert!(
        kc <= st,
        "{kc:?} key conversions for {st:?} sign-test queries"
    );
    let on_wire = m.get("net").and_then(|n| n.get("bytes_on_wire"));
    assert!(on_wire.and_then(Value::as_u64).is_some_and(|b| b > 0));
    // The `sim` section leads, as in a modeled report.
    assert_eq!(keys(&m).first().map(String::as_str), Some("sim"));
    let sim_bytes = m.get("sim").and_then(|s| s.get("bytes"));
    assert_eq!(
        on_wire.and_then(Value::as_u64),
        sim_bytes.and_then(Value::as_u64)
    );

    let t = trace.json();
    let events = t
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty(), "empty chrome trace");
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
}

#[test]
fn modeled_sim_report_has_only_the_sim_section() {
    let metrics = TempFile::new("modeled.json");
    pisa(&[
        "sim",
        "--sus",
        "64",
        "--drop",
        "0.1",
        "--seed",
        "7",
        "--metrics-out",
        metrics.path(),
    ]);
    let m = metrics.json();
    assert_eq!(keys(&m), ["sim", "wall_ms"]);
    let fidelity = m.get("sim").and_then(|s| s.get("fidelity"));
    assert_eq!(fidelity.and_then(Value::as_str), Some("modeled"));
}
