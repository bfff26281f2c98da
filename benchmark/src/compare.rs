//! The noise check: do two sets of runs of the same build agree within
//! the bounds `BENCHMARK.json` fixes?

use std::collections::BTreeMap;
use std::path::Path;

use cots_core::json::Json;

use crate::reduce::{median, quartiles};
use crate::server::Result;

/// `workload/metric` → one value per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_json(path: &Path) -> Result<Json> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .parse::<Json>()
        .map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Collect every `workload/metric` value from a set of `results.json`
/// files.
fn collect(files: &[String]) -> Result<Samples> {
    let mut out = Samples::new();
    for f in files {
        let doc = read_json(Path::new(f))?;
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
        for w in workloads {
            let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
            if w.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{f}: workload {name} failed its correctness checks"
                ));
            }
            let metrics = w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    out.entry((name.to_string(), metric.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(out)
}

/// `end_to_end` metric name → `(bound, higher is better)`.
fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, (f64, bool)>> {
    let doc = read_json(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("end_to_end entry without `{k}`"))
        };
        let name = field("name")?.as_str().unwrap_or_default().to_string();
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        let higher = field("better")?.as_str() == Some("higher");
        out.insert(name, (bound, higher));
    }
    Ok(out)
}

/// Print each set's median and quartiles per `workload/metric` as a
/// Markdown table; `Ok(false)` when a pair of set medians differs by
/// more than the metric's bound.
pub fn noise_check(benchmark_json: &Path, set_a: &[String], set_b: &[String]) -> Result<bool> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (collect(set_a)?, collect(set_b)?);
    println!(
        "| workload/metric | A median [q1, q3] | B median [q1, q3] | gap | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut agree = true;
    for (key, va) in &a {
        let Some(&(bound, higher)) = bounds.get(&key.1) else {
            continue;
        };
        let vb = b
            .get(key)
            .ok_or_else(|| format!("set B has no {}/{}", key.0, key.1))?;
        let (ma, mb) = (median(va), median(vb));
        // How much worse the worse set's median is, as a share of the
        // better one's: the driver's rule, applied in both directions.
        let (better, worse) = if (ma > mb) == higher {
            (ma, mb)
        } else {
            (mb, ma)
        };
        let gap = (better - worse).abs() / better.abs();
        let show = |v: &[f64], m: f64| match quartiles(v) {
            Some([q1, _, q3]) => (format!("{m:.5} [{q1:.5}, {q3:.5}]"), (q3 - q1) / m.abs()),
            None => (format!("{m:.5}"), 0.0),
        };
        let ((sa, spread_a), (sb, spread_b)) = (show(va, ma), show(vb, mb));
        let ok = gap <= bound;
        agree &= ok;
        println!(
            "| {}/{} | {sa} | {sb} | {gap:.4} | {spread_a:.4} | {spread_b:.4} | {bound} | {} |",
            key.0,
            key.1,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    Ok(agree)
}
