//! The paper's counter-keyed shape claims, run through the same experiment
//! specs as `repro` (`cots_bench::repro::SPECS`) at reduced scale: a
//! 200 000-element stream, one run per point, and only the slice of each
//! spec's grid the claim is about. Every assertion reads work counters;
//! wall-clock verdicts stay advisory in `SUMMARY.md`.

use cots_bench::repro::{self, Point, Spec};
use cots_bench::Scale;

const N: usize = 200_000;
const ONCE: Scale = Scale {
    factor: 1.0,
    repeats: 1,
};

fn points(spec: Spec) -> Vec<Point> {
    repro::run(&spec, ONCE).points
}

fn assert_rising(what: &str, values: &[f64]) {
    assert!(
        values.windows(2).all(|w| w[0] < w[1]),
        "{what} should rise strictly: {values:?}"
    );
}

/// Figure 11: at the base thread count, CoTS combines more increments per
/// summary operation the more skewed the stream is (α = 1.5 … 3.0).
#[test]
fn fig11_combining_factor_rises_with_skew() {
    let base = repro::spec("fig11").unwrap();
    let (engine, threads) = base.legs[0];
    let points = points(Spec {
        legs: &[(engine, &threads[..1])],
        sizes: &[N],
        ..base
    });
    let factors: Vec<f64> = points
        .iter()
        .map(|p| p.stats.work.combining_factor())
        .collect();
    assert_eq!(factors.len(), base.alphas.len());
    assert_rising("combining factor over α", &factors);
}

/// Figure 3(a): the counters the independent design merges grow with the
/// thread count (1, 2, 4, 8 threads at α = 1.5), so merging eats any gain.
#[test]
fn fig3a_merge_volume_rises_with_threads() {
    let base = repro::spec("fig3a").unwrap();
    let (engine, threads) = base.legs[0];
    let points = points(Spec {
        legs: &[(engine, &threads[..4])],
        alphas: &base.alphas[..1],
        sizes: &[N],
        ..base
    });
    let merged: Vec<f64> = points
        .iter()
        .map(|p| p.stats.work.merged_counters as f64)
        .collect();
    assert_eq!(merged.len(), 4);
    assert_rising("merged counters over threads", &merged);
}

/// §4.4: the hybrid degenerates at both ends of the skew range. At the
/// grid's lowest α nearly every element reaches the shared structure; at
/// its highest the caches absorb the stream.
#[test]
fn hybrid_degenerates_at_both_extremes() {
    let base = repro::spec("hybrid").unwrap();
    let (low, high) = (base.alphas[0], base.alphas[base.alphas.len() - 1]);
    let points = points(Spec {
        legs: &base.legs[..1],
        alphas: &[low, high],
        sizes: &[N],
        ..base
    });
    let locks: Vec<f64> = points.iter().map(|p| p.locks_per_element()).collect();
    assert_eq!(locks.len(), 2);
    assert!(
        locks[0] >= 100.0 * locks[1],
        "locks/element at α={low} should be ≥ 100× α={high}: {locks:?}"
    );
    assert!(locks[1] < 0.05, "locks/element at α={high}: {locks:?}");
}

/// Every spec writes the CSV header of the archived reference run.
#[test]
fn csv_headers_match_the_archived_results() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for spec in repro::SPECS {
        let archived = std::fs::read_to_string(format!("{dir}/{}.csv", spec.name)).unwrap();
        assert_eq!(
            archived.lines().next(),
            Some(spec.header().as_str()),
            "{}",
            spec.name
        );
    }
}
