//! Metrics, the printed lines, `results.json` and the result line the
//! benchmark contract asks for.

use cots_core::json::Json;

use crate::reduce::Timing;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For timings: the high percentile and the sample count.
    pub note: String,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// The median of a nanosecond timing distribution, scaled by
    /// `per_unit` nanoseconds per `unit`, with the highest supported
    /// percentile and the sample count as a note.
    pub fn timing(
        name: &'static str,
        samples: &mut [u64],
        per_unit: f64,
        unit: &'static str,
    ) -> Self {
        let t = Timing::of(samples);
        Self {
            name,
            value: t.p50 as f64 / per_unit,
            unit,
            note: format!(
                "p{} {:.3} {unit}, n={}",
                t.hi_pct,
                t.hi as f64 / per_unit,
                t.n
            ),
        }
    }

    fn to_json(&self, with_note: bool) -> Json {
        let mut members = vec![
            ("value", Json::Float(self.value)),
            ("unit", Json::Str(self.unit.to_string())),
        ];
        if with_note && !self.note.is_empty() {
            members.push(("note", Json::Str(self.note.clone())));
        }
        Json::obj(members)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (frames + queries + restarts).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// What the correctness checks saw, for `results.json`.
    pub checks: Vec<(String, String)>,
}

impl WorkloadResult {
    /// Print `workload/metric value unit` for every metric.
    pub fn print(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("{}/{} {} {}{note}", self.workload, m.name, m.value, m.unit);
        }
        println!(
            "{}/failed_ops {} of {} attempted",
            self.workload, self.failed, self.attempted
        );
        for (what, saw) in &self.checks {
            println!("{}/check {what}: {saw}", self.workload);
        }
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json(false)),
        ])
        .dump()
    }

    fn metrics_json(&self, notes: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), m.to_json(notes)))
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.to_string())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json(true)),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where the numbers were taken: without this a result cannot be
/// compared with anything.
pub fn host_stamp() -> Json {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::UInt(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("git_sha", env("COTS_BENCH_GIT_SHA")),
        ("rustc", env("COTS_BENCH_RUSTC")),
        ("date", env("COTS_BENCH_DATE")),
    ])
}

/// `results.json`: host stamp, arguments, and every workload's result.
pub fn results_json(seed: u64, seconds: u64, trace: bool, results: &[WorkloadResult]) -> Json {
    Json::obj(vec![
        ("host", host_stamp()),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::UInt(seconds)),
        ("trace", Json::Bool(trace)),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
}
