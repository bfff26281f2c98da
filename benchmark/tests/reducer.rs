//! The slice-median reducer and the quartiles the noise check prints.

use cots_benchmark::reduce::{median, percentile, quartiles, reduce_slices, Slice, Timing};

fn slice(keys: u64, cpu_secs: f64, frames_ok: u64, queries_ok: u64, query_ns: Vec<u64>) -> Slice {
    Slice {
        secs: 2.0,
        keys,
        cpu_secs,
        frames: 100,
        frames_ok,
        queries: 50,
        queries_ok,
        query_ns,
    }
}

#[test]
fn one_stalled_slice_does_not_move_the_median() {
    let steady = || slice(20_000_000, 3.0, 95, 48, vec![300_000, 310_000, 320_000]);
    let mut slices: Vec<Slice> = (0..8).map(|_| steady()).collect();
    let clean = reduce_slices(&slices);
    // A noisy neighbour stalls slice 3: a tenth of the keys, ten times
    // the latency, most SLOs missed.
    slices[3] = slice(2_000_000, 3.9, 20, 5, vec![3_000_000, 3_100_000, 3_200_000]);
    let stalled = reduce_slices(&slices);
    assert_eq!(clean, stalled);
    assert_eq!(stalled.throughput_meps, 10.0);
    assert_eq!(stalled.cpu_s_per_mkeys, 0.15);
    assert_eq!(stalled.ingest_slo_frac, 0.95);
    assert_eq!(stalled.query_slo_frac, 0.96);
    assert_eq!(stalled.query_p50_ms, 0.31);
}

#[test]
fn an_even_count_takes_the_mean_of_the_middle_two() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert!(median(&[]).is_nan());
    // The same rule holds inside a slice's query latencies.
    let s = slice(1, 1.0, 1, 1, vec![100_000, 400_000, 200_000, 300_000]);
    assert_eq!(reduce_slices(&[s]).query_p50_ms, 0.25);
}

#[test]
fn a_slice_without_samples_is_left_out_not_counted_as_zero() {
    let mut idle = slice(0, 0.0, 0, 0, Vec::new());
    idle.frames = 0;
    idle.queries = 0;
    let busy = slice(10_000_000, 1.0, 90, 45, vec![500_000]);
    let e = reduce_slices(&[idle, busy.clone(), busy]);
    assert_eq!(e.ingest_slo_frac, 0.9);
    assert_eq!(e.query_slo_frac, 0.9);
    assert_eq!(e.cpu_s_per_mkeys, 0.1);
    assert_eq!(e.query_p50_ms, 0.5);
    // Throughput does count the idle slice: no keys in two seconds is a
    // measurement, not a gap.
    assert_eq!(e.throughput_meps, 5.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn timings_report_the_highest_percentile_with_ten_samples_beyond_it() {
    let mut v: Vec<u64> = (1..=1000).collect();
    let t = Timing::of(&mut v);
    assert_eq!((t.n, t.p50), (1000, 500));
    // 1000 samples leave exactly ten beyond p99, one beyond p99.9.
    assert_eq!((t.hi_pct, t.hi), (99.0, 990));
    let mut few: Vec<u64> = (1..=12).collect();
    assert_eq!(Timing::of(&mut few).hi_pct, 50.0);
    assert_eq!(percentile(&[], 50.0), 0);
    assert_eq!(percentile(&[7], 99.0), 7);
}
