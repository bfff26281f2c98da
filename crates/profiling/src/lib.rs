//! # cots-profiling
//!
//! Per-thread phase accounting used to reproduce the paper's time-breakdown
//! figures:
//!
//! * Figure 4 (independent design): **Counting** vs **Merge**.
//! * Figure 5 (shared design): **Hash Opns**, **Structure Opns**,
//!   **Min-Max Locks**, **Bucket Locks**, **Rest**.
//!
//! Engines carry a [`PhaseTimer`] per worker thread. When profiling is
//! disabled the timer is a no-op (no `Instant::now` calls), so the
//! throughput experiments are unaffected; the breakdown experiments enable
//! it and pay the measurement cost uniformly across designs, exactly as the
//! paper's instrumented binaries did.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod service;

pub use service::{IngestTally, ShardTally};

use std::time::{Duration, Instant};

use cots_core::json_record;

json_record! {
    /// The measured phases, covering both of the paper's breakdowns.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Phase {
        /// Frequency-counting work proper (Fig. 4 "Counting").
        Counting,
        /// Merging thread-local structures (Fig. 4 "Merge").
        Merge,
        /// Hash-table operations, including blocking on element-level
        /// synchronization (Fig. 5 "Hash Opns").
        HashOps,
        /// Stream Summary operations: add / increment / overwrite under bucket
        /// locks (Fig. 5 "Structure Opns").
        StructureOps,
        /// Acquiring the min/max bucket-pointer locks (Fig. 5 "Min-Max Locks").
        MinMaxLocks,
        /// Frequency-bucket lock acquisitions outside structure operations
        /// (Fig. 5 "Bucket Locks").
        BucketLocks,
        /// Everything else (Fig. 5 "Rest").
        Rest,
    }
}

/// Number of phases.
pub const NUM_PHASES: usize = 7;

/// All phases, in display order.
pub const ALL_PHASES: [Phase; NUM_PHASES] = [
    Phase::Counting,
    Phase::Merge,
    Phase::HashOps,
    Phase::StructureOps,
    Phase::MinMaxLocks,
    Phase::BucketLocks,
    Phase::Rest,
];

impl Phase {
    /// The paper's label for this phase.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Counting => "Counting",
            Phase::Merge => "Merge",
            Phase::HashOps => "Hash Opns",
            Phase::StructureOps => "Structure Opns",
            Phase::MinMaxLocks => "Min-Max Locks",
            Phase::BucketLocks => "Bucket Locks",
            Phase::Rest => "Rest",
        }
    }
}

json_record! {
    /// Accumulated time per phase for one thread.
    #[derive(Debug, Clone, Default)]
    pub struct PhaseTimes {
        nanos: [u64; NUM_PHASES],
    }
}

impl PhaseTimes {
    /// Add a span to a phase.
    #[inline]
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.nanos[phase as usize] += d.as_nanos() as u64;
    }

    /// Time spent in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase as usize])
    }

    /// Total time across phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Merge another thread's times into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for i in 0..NUM_PHASES {
            self.nanos[i] += other.nanos[i];
        }
    }
}

/// A per-thread phase timer. Construct enabled for breakdown experiments,
/// disabled for throughput experiments.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    enabled: bool,
    times: PhaseTimes,
}

impl PhaseTimer {
    /// A timer that records.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            times: PhaseTimes::default(),
        }
    }

    /// A timer that ignores everything at near-zero cost.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            times: PhaseTimes::default(),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Time a closure under `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.times.add(phase, start.elapsed());
        out
    }

    /// Start a manual span; pair with [`PhaseTimer::finish`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a manual span under `phase`.
    #[inline]
    pub fn finish(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(s) = start {
            self.times.add(phase, s.elapsed());
        }
    }

    /// The accumulated times.
    pub fn times(&self) -> &PhaseTimes {
        &self.times
    }

    /// Consume into the accumulated times.
    pub fn into_times(self) -> PhaseTimes {
        self.times
    }
}

json_record! {
    /// An aggregated percentage breakdown across threads — one bar of Figure
    /// 4/5.
    #[derive(Debug, Clone)]
    pub struct Breakdown {
        /// Thread count of the run the bar describes.
        pub threads: usize,
        /// Percentage of total time per phase, aligned with [`ALL_PHASES`].
        pub percent: [f64; NUM_PHASES],
        /// Total measured time across threads.
        pub total_nanos: u64,
    }
}

impl Breakdown {
    /// Aggregate per-thread phase times into a percentage stack.
    pub fn aggregate(threads: usize, per_thread: &[PhaseTimes]) -> Self {
        let mut sum = PhaseTimes::default();
        for t in per_thread {
            sum.merge(t);
        }
        let total = sum.total().as_nanos().max(1) as f64;
        let mut percent = [0.0; NUM_PHASES];
        for (i, p) in ALL_PHASES.iter().enumerate() {
            percent[i] = sum.get(*p).as_nanos() as f64 / total * 100.0;
        }
        Self {
            threads,
            percent,
            total_nanos: sum.total().as_nanos() as u64,
        }
    }

    /// Percentage for a phase.
    pub fn percent_of(&self, phase: Phase) -> f64 {
        self.percent[phase as usize]
    }

    /// Render the breakdown as one CSV row: `threads,p0,p1,...`.
    pub fn csv_row(&self) -> String {
        let mut s = self.threads.to_string();
        for p in self.percent {
            s.push_str(&format!(",{p:.2}"));
        }
        s
    }

    /// CSV header matching [`Breakdown::csv_row`].
    pub fn csv_header() -> String {
        let mut s = "threads".to_string();
        for p in ALL_PHASES {
            s.push(',');
            s.push_str(&p.label().replace(' ', "_"));
        }
        s
    }
}

json_record! {
    /// Advisory wall-clock summary over repeated runs of one configuration.
    ///
    /// Perf gates must key on *deterministic* work counters; wall clock on a
    /// shared CI runner is weather, so it is summarized here and reported,
    /// never gated on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ThroughputSummary {
        /// Median of the observed wall-clock times, in seconds.
        pub median_secs: f64,
        /// Fastest observed run, in seconds.
        pub min_secs: f64,
        /// Slowest observed run, in seconds.
        pub max_secs: f64,
    }
}

impl ThroughputSummary {
    /// Summarize a set of wall-clock observations (`None` when empty).
    pub fn from_durations(runs: &[Duration]) -> Option<Self> {
        if runs.is_empty() {
            return None;
        }
        let mut secs: Vec<f64> = runs.iter().map(Duration::as_secs_f64).collect();
        secs.sort_by(|a, b| a.total_cmp(b));
        Some(Self {
            median_secs: secs[secs.len() / 2],
            min_secs: secs[0],
            max_secs: secs[secs.len() - 1],
        })
    }

    /// Median throughput in million elements per second.
    pub fn meps(&self, elements: u64) -> f64 {
        if self.median_secs <= 0.0 {
            return 0.0;
        }
        elements as f64 / self.median_secs / 1e6
    }
}

/// Render a set of breakdowns (one per thread count) as the paper's stacked
/// percentage table, restricted to the phases that are non-zero anywhere.
pub fn render_breakdown_table(breakdowns: &[Breakdown]) -> String {
    let used: Vec<Phase> = ALL_PHASES
        .into_iter()
        .filter(|p| breakdowns.iter().any(|b| b.percent_of(*p) > 0.005))
        .collect();
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "threads"));
    for p in &used {
        out.push_str(&format!("{:>16}", p.label()));
    }
    out.push('\n');
    for b in breakdowns {
        out.push_str(&format!("{:>8}", b.threads));
        for p in &used {
            out.push_str(&format!("{:>15.1}%", b.percent_of(*p)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod throughput_tests {
    use super::*;

    #[test]
    fn summary_orders_and_converts() {
        let runs = [
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ];
        let t = ThroughputSummary::from_durations(&runs).unwrap();
        assert!((t.median_secs - 0.020).abs() < 1e-9);
        assert!((t.min_secs - 0.010).abs() < 1e-9);
        assert!((t.max_secs - 0.030).abs() < 1e-9);
        assert!((t.meps(2_000_000) - 100.0).abs() < 1e-6);
        assert!(ThroughputSummary::from_durations(&[]).is_none());
    }

    #[test]
    fn summary_json_round_trip() {
        let t = ThroughputSummary {
            median_secs: 0.5,
            min_secs: 0.25,
            max_secs: 1.0,
        };
        let s = cots_core::json::to_string(&t);
        let back: ThroughputSummary = cots_core::json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::disabled();
        let v = t.time(Phase::Counting, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert_eq!(t.times().total(), Duration::ZERO);
    }

    #[test]
    fn enabled_timer_records_spans() {
        let mut t = PhaseTimer::enabled();
        t.time(Phase::Merge, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        assert!(t.times().get(Phase::Merge) >= Duration::from_millis(2));
        assert_eq!(t.times().get(Phase::Counting), Duration::ZERO);
    }

    #[test]
    fn manual_spans() {
        let mut t = PhaseTimer::enabled();
        let s = t.start();
        std::thread::sleep(Duration::from_millis(2));
        t.finish(Phase::HashOps, s);
        assert!(t.times().get(Phase::HashOps) >= Duration::from_millis(1));

        let mut d = PhaseTimer::disabled();
        let s = d.start();
        assert!(s.is_none());
        d.finish(Phase::HashOps, s);
        assert_eq!(d.times().total(), Duration::ZERO);
    }

    #[test]
    fn phase_times_merge() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Counting, Duration::from_nanos(100));
        let mut b = PhaseTimes::default();
        b.add(Phase::Counting, Duration::from_nanos(50));
        b.add(Phase::Merge, Duration::from_nanos(25));
        a.merge(&b);
        assert_eq!(a.get(Phase::Counting), Duration::from_nanos(150));
        assert_eq!(a.total(), Duration::from_nanos(175));
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let mut t1 = PhaseTimes::default();
        t1.add(Phase::Counting, Duration::from_nanos(600));
        t1.add(Phase::Merge, Duration::from_nanos(400));
        let mut t2 = PhaseTimes::default();
        t2.add(Phase::Counting, Duration::from_nanos(1000));
        let b = Breakdown::aggregate(2, &[t1, t2]);
        assert!((b.percent_of(Phase::Counting) - 80.0).abs() < 1e-9);
        assert!((b.percent_of(Phase::Merge) - 20.0).abs() < 1e-9);
        let total: f64 = b.percent.iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_empty_input() {
        let b = Breakdown::aggregate(4, &[]);
        assert_eq!(b.total_nanos, 0);
        assert!(b.percent.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn csv_shapes() {
        let b = Breakdown::aggregate(2, &[]);
        let header = Breakdown::csv_header();
        let row = b.csv_row();
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(header.starts_with("threads,Counting,Merge"));
    }

    #[test]
    fn breakdown_json_round_trip() {
        let mut t = PhaseTimes::default();
        t.add(Phase::Counting, Duration::from_nanos(600));
        t.add(Phase::Merge, Duration::from_nanos(400));
        let b = Breakdown::aggregate(2, &[t.clone()]);
        let back: Breakdown = cots_core::json::from_str(&cots_core::json::to_string(&b)).unwrap();
        assert_eq!(back.threads, 2);
        assert_eq!(back.total_nanos, b.total_nanos);
        assert_eq!(back.percent, b.percent);
        let t2: PhaseTimes = cots_core::json::from_str(&cots_core::json::to_string(&t)).unwrap();
        assert_eq!(t2.get(Phase::Merge), Duration::from_nanos(400));
        for p in ALL_PHASES {
            let back: Phase = cots_core::json::from_str(&cots_core::json::to_string(&p)).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn table_renders_only_used_phases() {
        let mut t = PhaseTimes::default();
        t.add(Phase::HashOps, Duration::from_nanos(70));
        t.add(Phase::Rest, Duration::from_nanos(30));
        let b = Breakdown::aggregate(1, &[t]);
        let table = render_breakdown_table(&[b]);
        assert!(table.contains("Hash Opns"));
        assert!(table.contains("Rest"));
        assert!(!table.contains("Merge"));
    }
}
