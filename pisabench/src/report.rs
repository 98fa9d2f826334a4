//! Metric collection, the human-readable listing and the final JSON
//! result line.

use pisa_obs::json::Value;

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind the value, when it is a statistic over them.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Decision mismatches and broken invariants; empty when correct.
    pub errors: Vec<String>,
}

impl Report {
    pub fn new(attempted: usize, failed: usize) -> Self {
        Report {
            attempted: attempted as u64,
            failed: failed as u64,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints one line per metric, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self, workload: &str) {
        for e in &self.errors {
            println!("INCORRECT {workload}: {e}");
        }
        println!(
            "{workload}: attempted {} failed {}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("  {:<34} {:>16.6} {:<8} n={n}", m.name, m.value, m.unit),
                None => println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::object(vec![
                            ("value", Value::from_f64(m.value)),
                            ("unit", Value::Str(m.unit.to_owned())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Value::object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from_u64(self.attempted)),
            ("failed", Value::from_u64(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_json());
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second
    // on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Processors available to this process.
pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}
