//! `interactions.json` holds what `BENCHMARK.json` has no key for: the
//! frozen per-workload limits and, per layer metric, the end-to-end
//! metric and workload it should move. It must stay in step with
//! `BENCHMARK.json` and `src/spec.rs`.

use std::collections::BTreeSet;
use std::path::Path;

use cots_benchmark::spec;
use cots_core::json::Json;

fn read(rel: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .parse()
        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn names(doc: &Json, list: &str) -> BTreeSet<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let benchmark = read("../BENCHMARK.json");
    let interactions = read("interactions.json");
    let (workloads, end_to_end, per_layer) = (
        names(&benchmark, "workloads"),
        names(&benchmark, "end_to_end"),
        names(&benchmark, "per_layer"),
    );
    let layers = interactions
        .get("per_layer")
        .and_then(Json::as_obj)
        .unwrap();
    let mapped: BTreeSet<String> = layers.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(
        mapped, per_layer,
        "interactions.json and BENCHMARK.json list different layer metrics"
    );
    for (name, entry) in layers {
        for list in ["moves", "should_not_move"] {
            let pairs = entry
                .get(list)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{name} has no `{list}` list"));
            for pair in pairs {
                let pair = pair.as_str().unwrap();
                let (metric, workload) = pair
                    .split_once('@')
                    .unwrap_or_else(|| panic!("{name}: `{pair}` is not metric@workload"));
                assert!(end_to_end.contains(metric), "{name}: unknown metric {pair}");
                assert!(
                    workloads.contains(workload),
                    "{name}: unknown workload {pair}"
                );
            }
        }
    }
}

#[test]
fn limits_are_the_ones_the_driver_applies() {
    let interactions = read("interactions.json");
    let limits = interactions.get("limits").and_then(Json::as_obj).unwrap();
    assert_eq!(limits.len(), spec::WORKLOADS.len());
    for (name, entry) in limits {
        let wl = spec::workload(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        let value = |k: &str| entry.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(value("L_ingest_us"), wl.limits.ingest_us, "{name}");
        assert_eq!(value("L_query_us"), wl.limits.query_us, "{name}");
        assert_eq!(value("S_keys"), wl.limits.staleness_keys, "{name}");
    }
}

#[test]
fn the_benchmark_names_the_workloads_the_driver_runs() {
    let benchmark = read("../BENCHMARK.json");
    let ours: BTreeSet<String> = spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&benchmark, "workloads"), ours);
}
