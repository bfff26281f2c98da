//! Reducers: slice medians, percentiles, quartiles.

/// Median of `values` (mean of the middle two for an even count).
/// `NaN` on an empty set, which the report turns into a failed run.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), so the noise check agrees with the
/// driver that accepts or rejects the benchmark. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing distribution the way the metrics guide asks for it: the
/// median, and the highest percentile that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timing {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// The percentile `hi` is taken at (50 when the set is too small for
    /// anything higher).
    pub hi_pct: f64,
    /// Value at `hi_pct`.
    pub hi: u64,
}

impl Timing {
    /// Summarise `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let n = samples.len();
        let hi_pct = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Self {
            n,
            p50: percentile(samples, 50.0),
            hi_pct,
            hi: percentile(samples, hi_pct),
        }
    }
}

/// One slice of a timed window, as the slice reducer sees it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Slice length, seconds.
    pub secs: f64,
    /// Keys acked inside the slice.
    pub keys: u64,
    /// Server CPU (user + system) burnt inside the slice, seconds.
    pub cpu_secs: f64,
    /// INGEST frames attempted.
    pub frames: u64,
    /// Frames that met `L_ingest`.
    pub frames_ok: u64,
    /// Queries attempted.
    pub queries: u64,
    /// Queries that met `L_query`, `S_keys` and the sanity check.
    pub queries_ok: u64,
    /// Query latencies, nanoseconds.
    pub query_ns: Vec<u64>,
}

/// The five per-slice end-to-end values (everything but `setup_s`),
/// each reduced to the median over slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Million keys acked per second.
    pub throughput_meps: f64,
    /// Server CPU seconds per million keys acked.
    pub cpu_s_per_mkeys: f64,
    /// Share of frames inside `L_ingest`.
    pub ingest_slo_frac: f64,
    /// Share of queries inside `L_query` and `S_keys`.
    pub query_slo_frac: f64,
    /// Median query latency, milliseconds.
    pub query_p50_ms: f64,
}

/// Reduce slices to end-to-end values: compute each metric per slice,
/// then take the median across slices. A slice with no frames (or no
/// queries) has no value for the metrics built on them and is left out
/// of that metric's median.
pub fn reduce_slices(slices: &[Slice]) -> EndToEnd {
    let per = |f: &dyn Fn(&Slice) -> Option<f64>| -> f64 {
        median(&slices.iter().filter_map(f).collect::<Vec<_>>())
    };
    EndToEnd {
        throughput_meps: per(&|s| (s.secs > 0.0).then(|| s.keys as f64 / s.secs / 1e6)),
        cpu_s_per_mkeys: per(&|s| (s.keys > 0).then(|| s.cpu_secs / (s.keys as f64 / 1e6))),
        ingest_slo_frac: per(&|s| (s.frames > 0).then(|| s.frames_ok as f64 / s.frames as f64)),
        query_slo_frac: per(&|s| (s.queries > 0).then(|| s.queries_ok as f64 / s.queries as f64)),
        query_p50_ms: per(&|s| {
            (!s.query_ns.is_empty()).then(|| {
                let mut v = s.query_ns.clone();
                v.sort_unstable();
                // Mean of the two middle samples, like `median`, so the
                // value is not quantised to a single sample.
                let mid = v.len() / 2;
                let ns = if v.len() % 2 == 1 {
                    v[mid] as f64
                } else {
                    (v[mid - 1] + v[mid]) as f64 / 2.0
                };
                ns / 1e6
            })
        }),
    }
}
