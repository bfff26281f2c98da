//! Shared harness utilities: scaling, repeat/median logic, output files.

use std::fs;
use std::path::PathBuf;

use cots_core::json::ToJson;
use cots_core::RunStats;
use cots_datagen::StreamSpec;

/// Experiment scaling knobs, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier applied to every stream length.
    pub factor: f64,
    /// Wall-clock repeats per configuration (median is reported).
    pub repeats: usize,
}

impl Scale {
    /// Read `REPRO_SCALE` (default 1.0) and `REPRO_REPEATS` (default 3).
    pub fn from_env() -> Self {
        let factor = std::env::var("REPRO_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0f64)
            .max(0.001);
        let repeats = std::env::var("REPRO_REPEATS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3usize)
            .max(1);
        Self { factor, repeats }
    }

    /// Scale a paper stream length.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(1_000)
    }
}

/// The standard workload of the paper's evaluation (§6): zipfian stream,
/// alphabet 1/20th of the stream length (the paper uses 5M over 100M).
pub fn paper_stream(n: usize, alpha: f64, seed: u64) -> Vec<u64> {
    StreamSpec::zipf(n, (n / 20).max(100), alpha, seed).generate()
}

/// Counter budget used across experiments: the paper does not state ε;
/// 1 000 counters (ε = 10⁻³) keeps the structure interesting (constant
/// eviction churn for every α used).
pub const CAPACITY: usize = 1_000;

/// The paper's query/merge period for the independent design.
pub const MERGE_EVERY: u64 = 50_000;

/// Run `f` `repeats` times and return the run with the median wall-clock.
pub fn median_run(repeats: usize, mut f: impl FnMut() -> RunStats) -> RunStats {
    let mut runs: Vec<RunStats> = (0..repeats.max(1)).map(|_| f()).collect();
    runs.sort_by_key(|r| r.elapsed);
    runs.swap_remove(runs.len() / 2)
}

/// Output directory for CSV/JSON artifacts.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write rows as CSV under `target/repro/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = out_dir().join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Write a serializable report under `target/repro/<name>.json`.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let path = out_dir().join(format!("{name}.json"));
    let s = cots_core::json::to_string_pretty(value);
    if let Err(e) = fs::write(&path, s) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::WorkCounters;
    use std::time::Duration;

    #[test]
    fn scale_floors() {
        let s = Scale {
            factor: 0.000001,
            repeats: 1,
        };
        assert_eq!(s.n(5_000_000), 1_000);
    }

    #[test]
    fn median_selects_middle() {
        let mut times = [30u64, 10, 20].into_iter();
        let r = median_run(3, || RunStats {
            engine: "x".into(),
            threads: 1,
            elements: 1,
            elapsed: Duration::from_millis(times.next().unwrap()),
            work: WorkCounters::default(),
        });
        assert_eq!(r.elapsed, Duration::from_millis(20));
    }

    #[test]
    fn paper_stream_respects_length() {
        let s = paper_stream(10_000, 2.0, 7);
        assert_eq!(s.len(), 10_000);
    }
}
