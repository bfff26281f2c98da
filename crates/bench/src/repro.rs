//! The paper's evaluation as one table of experiment specs.
//!
//! Every figure and table of §4 (the naive designs) and §6 (CoTS) is a row
//! of [`SPECS`]: which engines run at which thread counts, over which α
//! grid and stream lengths, and which work counters its CSV records.
//! [`run`] measures a spec in this process, [`Outcome::write`] writes its
//! artefacts under `target/repro/`, and [`summary`] digests a set of
//! outcomes into `SUMMARY.md`. The `repro` binary runs the table;
//! `tests/claims.rs` runs the same rows at reduced scale and asserts the
//! paper's counter-keyed shape claims. Wall-clock verdicts stay advisory.

use std::fmt::Write as _;

use cots_core::{RunStats, WorkCounters};
use cots_naive::{LockKind, MergeStrategy};
use cots_profiling::{render_breakdown_table, Breakdown, Phase, PhaseTimes};

use crate::engines::{run_cots, run_hybrid, run_independent, run_sequential, run_shared};
use crate::harness::{median_run, paper_stream, write_csv, write_json, Scale, MERGE_EVERY};

/// An engine as the paper's evaluation configures it: the independent
/// design merges serially every [`MERGE_EVERY`] elements, the shared one
/// locks with blocking mutexes. Two variants exist only for the ablations:
/// each changes one design choice of its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Sequential Space Saving, the one-core baseline.
    Sequential,
    /// Independent Structures (§4.1).
    Independent,
    /// Independent Structures merging through a binary tree (§4.1, §4.3).
    IndependentTree,
    /// Shared Structure (§4.2).
    Shared,
    /// The dismissed hybrid of §4.4.
    Hybrid,
    /// The CoTS framework (§5).
    Cots,
    /// CoTS under the §5.2.3 σ/ρ adaptive thread gate.
    CotsAdaptive,
}

impl Engine {
    /// Short name, as printed and as the throughput CSV's `engine` column.
    fn label(self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Independent => "independent",
            Engine::IndependentTree => "independent-tree",
            Engine::Shared => "shared",
            Engine::Hybrid => "hybrid",
            Engine::Cots => "cots",
            Engine::CotsAdaptive => "cots-adaptive",
        }
    }

    /// The engine this one ablates, if it is an ablation variant.
    fn parent(self) -> Option<Engine> {
        match self {
            Engine::IndependentTree => Some(Engine::Independent),
            Engine::CotsAdaptive => Some(Engine::Cots),
            _ => None,
        }
    }

    /// Run over `stream` on `threads` workers. With `profile`, the naive
    /// designs also return their per-thread phase times.
    fn run(self, stream: &[u64], threads: usize, profile: bool) -> (RunStats, Vec<PhaseTimes>) {
        match self {
            Engine::Sequential => (run_sequential(stream), Vec::new()),
            Engine::Independent | Engine::IndependentTree => run_independent(
                stream,
                threads,
                if self == Engine::Independent {
                    MergeStrategy::Serial
                } else {
                    MergeStrategy::Hierarchical
                },
                Some(MERGE_EVERY),
                profile,
            ),
            Engine::Shared => run_shared(stream, threads, LockKind::Mutex, profile),
            Engine::Hybrid => (run_hybrid(stream, threads), Vec::new()),
            Engine::Cots => (run_cots(stream, threads, false), Vec::new()),
            Engine::CotsAdaptive => (run_cots(stream, threads, true), Vec::new()),
        }
    }
}

/// A work counter recorded as a CSV column.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// CSV header name.
    pub name: &'static str,
    /// Reads the counter from a run.
    pub value: fn(&WorkCounters) -> f64,
    /// Decimal places written.
    pub digits: usize,
}

/// How an experiment's points are tabulated and judged.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Speed-up over the first thread count (Figs. 3(a), 3(b), 11).
    Speedup,
    /// Share of time per phase, judged on whether the named phase's share
    /// grows with threads (Figs. 4, 5).
    Breakdown(Phase),
    /// Time over input size × threads (Figs. 6, 7, 12).
    Surface,
    /// Best-case seconds of sequential, shared and CoTS (Table 2).
    Table2,
    /// Elements per second of every leg: the §6 headline (peak CoTS beside
    /// sequential) and each ablation variant beside its parent.
    Throughput,
    /// The hybrid beside its two parents (§4.4).
    Hybrid,
}

/// One experiment: a row of [`SPECS`].
#[derive(Debug, Clone, Copy)]
pub struct Spec<'a> {
    /// Artefact name (`target/repro/<name>.csv`) and `repro` argument.
    pub name: &'static str,
    /// Section heading in `SUMMARY.md`.
    pub title: &'static str,
    /// Tabulation and verdict.
    pub kind: Kind,
    /// Engines in run order, each with the thread counts it runs at.
    pub legs: &'a [(Engine, &'a [usize])],
    /// Zipf skews.
    pub alphas: &'a [f64],
    /// Paper stream lengths, scaled by `REPRO_SCALE`.
    pub sizes: &'a [usize],
    /// Work counters recorded per point.
    pub columns: &'a [Column],
}

const NAIVE_THREADS: &[usize] = &[1, 2, 4, 8, 16, 32];
const ALPHAS: &[f64] = &[1.5, 2.0, 2.5, 3.0];
const HIGH_ALPHAS: &[f64] = &[2.0, 2.5, 3.0];
const SURFACE_SIZES: &[usize] = &[1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000];

const MERGES: Column = Column {
    name: "merges",
    value: |w| w.merges as f64,
    digits: 0,
};
const MERGED_COUNTERS: Column = Column {
    name: "merged_counters",
    value: |w| w.merged_counters as f64,
    digits: 0,
};
const LOCK_ACQUISITIONS: Column = Column {
    name: "lock_acquisitions",
    value: |w| w.lock_acquisitions as f64,
    digits: 0,
};
const LOCK_CONTENTIONS: Column = Column {
    name: "lock_contentions",
    value: |w| w.lock_contentions as f64,
    digits: 0,
};
const COMBINING_FACTOR: Column = Column {
    name: "combining_factor",
    value: WorkCounters::combining_factor,
    digits: 3,
};
const SUMMARY_OPS: Column = Column {
    name: "summary_ops_per_element",
    value: WorkCounters::summary_ops_per_element,
    digits: 6,
};

/// The paper's evaluation, in the order `repro` runs it.
pub const SPECS: &[Spec<'static>] = &[
    // Independent Structures, query (merge) every 50 000 elements. Paper:
    // no scaling, because the merge volume grows with the thread count.
    Spec {
        name: "fig3a",
        title: "Figure 3(a) — Independent Structures",
        kind: Kind::Speedup,
        legs: &[(Engine::Independent, NAIVE_THREADS)],
        alphas: ALPHAS,
        sizes: &[5_000_000],
        columns: &[MERGES, MERGED_COUNTERS],
    },
    // Shared Structure. Paper: performance degrades from 1 to 4 threads and
    // stays flat beyond; lock contention is the mechanism.
    Spec {
        name: "fig3b",
        title: "Figure 3(b) — Shared Structure",
        kind: Kind::Speedup,
        legs: &[(Engine::Shared, NAIVE_THREADS)],
        alphas: ALPHAS,
        sizes: &[5_000_000],
        columns: &[LOCK_ACQUISITIONS, LOCK_CONTENTIONS],
    },
    // Paper: counting scales down with threads, the merge share grows.
    Spec {
        name: "fig4",
        title: "Figure 4 — Independent breakdown",
        kind: Kind::Breakdown(Phase::Merge),
        legs: &[(Engine::Independent, NAIVE_THREADS)],
        alphas: HIGH_ALPHAS,
        sizes: &[5_000_000],
        columns: &[],
    },
    // Paper: with more threads the Hash Opns share grows (threads block on
    // the hot element's lock).
    Spec {
        name: "fig5",
        title: "Figure 5 — Shared breakdown",
        kind: Kind::Breakdown(Phase::HashOps),
        legs: &[(Engine::Shared, NAIVE_THREADS)],
        alphas: HIGH_ALPHAS,
        sizes: &[5_000_000],
        columns: &[],
    },
    // Paper: time grows with size; threads make it worse (more merges).
    Spec {
        name: "fig6",
        title: "Figure 6 — Independent surface",
        kind: Kind::Surface,
        legs: &[(Engine::Independent, NAIVE_THREADS)],
        alphas: HIGH_ALPHAS,
        sizes: SURFACE_SIZES,
        columns: &[MERGED_COUNTERS],
    },
    // Paper: time linear in size, no gain from threads at any size.
    Spec {
        name: "fig7",
        title: "Figure 7 — Shared surface",
        kind: Kind::Surface,
        legs: &[(Engine::Shared, NAIVE_THREADS)],
        alphas: HIGH_ALPHAS,
        sizes: SURFACE_SIZES,
        columns: &[LOCK_CONTENTIONS],
    },
    // Paper: near-linear speed-up for skewed data, driven by delegation;
    // the combining factor is its hardware-independent signature.
    Spec {
        name: "fig11",
        title: "Figure 11 — CoTS thread scaling",
        kind: Kind::Speedup,
        legs: &[(Engine::Cots, &[4, 8, 16, 32, 64, 128, 256])],
        alphas: ALPHAS,
        sizes: &[1_000_000],
        columns: &[COMBINING_FACTOR, SUMMARY_OPS],
    },
    // Paper: time linear in size, the same thread profile at every size.
    Spec {
        name: "fig12",
        title: "Figure 12 — CoTS surface",
        kind: Kind::Surface,
        legs: &[(Engine::Cots, &[4, 8, 16, 32, 64])],
        alphas: HIGH_ALPHAS,
        sizes: SURFACE_SIZES,
        columns: &[COMBINING_FACTOR],
    },
    // Best case over thread counts. Paper (quad-core): CoTS beats Shared by
    // two orders of magnitude and Sequential by 2–4× at α ≥ 2.5.
    Spec {
        name: "table2",
        title: "Table 2 — absolute seconds",
        kind: Kind::Table2,
        legs: &[
            (Engine::Sequential, &[1]),
            (Engine::Shared, &[1, 2, 4, 8]),
            (Engine::Cots, &[4, 8, 16, 32, 64]),
        ],
        alphas: HIGH_ALPHAS,
        sizes: &[16_000_000],
        columns: &[],
    },
    // Paper: > 60 M elements/s on a 2.4 GHz quad-core.
    Spec {
        name: "throughput",
        title: "Throughput",
        kind: Kind::Throughput,
        legs: &[
            (Engine::Sequential, &[1]),
            (Engine::Cots, &[4, 8, 16, 32, 64, 128]),
        ],
        alphas: &[3.0],
        sizes: &[4_000_000],
        columns: &[],
    },
    // Paper: at either end of the skew range the hybrid degenerates into
    // one of its parents.
    Spec {
        name: "hybrid",
        title: "Hybrid (§4.4)",
        kind: Kind::Hybrid,
        legs: &[
            (Engine::Hybrid, &[4]),
            (Engine::Shared, &[4]),
            (Engine::Independent, &[4]),
        ],
        alphas: &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        sizes: &[2_000_000],
        columns: &[],
    },
    // Two design choices no figure isolates. Paper §4.3: the hierarchical
    // merge does not beat the serial one, its per-level barriers cost what
    // the tree saves. §5.2.3: the σ/ρ gate parks threads that would only
    // queue. Each variant runs beside its parent; the CSV's engine column
    // tells them apart.
    Spec {
        name: "ablations",
        title: "Ablations — hierarchical merge (§4.3), adaptive gating (§5.2.3)",
        kind: Kind::Throughput,
        legs: &[
            (Engine::Independent, &[4, 8]),
            (Engine::IndependentTree, &[4, 8]),
            (Engine::Cots, &[16]),
            (Engine::CotsAdaptive, &[16]),
        ],
        alphas: &[2.5],
        sizes: &[2_000_000],
        columns: &[],
    },
];

/// The spec called `name`.
pub fn spec(name: &str) -> Option<Spec<'static>> {
    SPECS.iter().find(|s| s.name == name).copied()
}

/// Hardware threads this host offers (`available_parallelism`, 1 if unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// Zipf skew.
    pub alpha: f64,
    /// Stream length.
    pub n: usize,
    /// Engine run.
    pub engine: Engine,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock speed-up over the same engine at its first thread count.
    pub speedup: f64,
    /// The median run (the only run when profiling).
    pub stats: RunStats,
    /// Per-thread phase times; empty unless the spec is a breakdown.
    pub phases: Vec<PhaseTimes>,
}

impl Point {
    fn secs(&self) -> f64 {
        self.stats.elapsed.as_secs_f64()
    }

    /// Shared-structure lock acquisitions per stream element.
    pub fn locks_per_element(&self) -> f64 {
        self.stats.work.lock_acquisitions as f64 / self.n as f64
    }

    fn breakdown(&self) -> Breakdown {
        Breakdown::aggregate(self.threads, &self.phases)
    }
}

/// A spec and the points it measured, in run order.
#[derive(Debug, Clone)]
pub struct Outcome<'a> {
    /// The spec that was run.
    pub spec: Spec<'a>,
    /// α-major, then size, leg and thread count.
    pub points: Vec<Point>,
}

/// Measure every point of `spec`: one seed-42 stream per (α, size), and
/// per point the median of `scale.repeats` runs — or a single profiled run
/// for a breakdown.
pub fn run<'a>(spec: &Spec<'a>, scale: Scale) -> Outcome<'a> {
    let profile = matches!(spec.kind, Kind::Breakdown(_));
    let cores = cores();
    let mut points = Vec::new();
    for &alpha in spec.alphas {
        for &size in spec.sizes {
            let n = scale.n(size);
            let stream = paper_stream(n, alpha, 42);
            for &(engine, threads) in spec.legs {
                let mut first = None;
                for &t in threads {
                    let (stats, phases) = if profile {
                        engine.run(&stream, t, true)
                    } else {
                        let median = median_run(scale.repeats, || engine.run(&stream, t, false).0);
                        (median, Vec::new())
                    };
                    let speedup = stats.speedup_vs(first.get_or_insert_with(|| stats.clone()));
                    let point = Point {
                        alpha,
                        n,
                        engine,
                        threads: t,
                        speedup,
                        stats,
                        phases,
                    };
                    let counters: String = spec
                        .columns
                        .iter()
                        .map(|c| {
                            format!("  {} {:.*}", c.name, c.digits, (c.value)(&point.stats.work))
                        })
                        .collect();
                    println!(
                        "{:>11}  alpha {alpha:<3}  n {n:>8}  threads {t:>3}  {:>9.4} s{counters}{}",
                        engine.label(),
                        point.secs(),
                        if t > cores { "  (oversubscribed)" } else { "" }
                    );
                    points.push(point);
                }
            }
        }
    }
    Outcome {
        spec: *spec,
        points,
    }
}

impl Spec<'_> {
    /// The CSV header of this experiment's artefact.
    pub fn header(&self) -> String {
        let columns: String = self
            .columns
            .iter()
            .map(|c| format!(",{}", c.name))
            .collect();
        match self.kind {
            Kind::Speedup => format!(
                "alpha,threads,seconds,speedup_vs_{}{columns}",
                self.legs[0].1[0]
            ),
            Kind::Surface => format!("alpha,n,threads,seconds{columns}"),
            Kind::Breakdown(_) => format!("alpha,{}", Breakdown::csv_header()),
            Kind::Table2 => {
                "alpha,sequential_s,best_shared_s,best_cots_s,cots_vs_shared,cots_vs_sequential"
                    .into()
            }
            Kind::Throughput => "engine,threads,elements_per_second".into(),
            Kind::Hybrid => "alpha,hybrid_s,shared_s,independent_s,shared_locks_per_element".into(),
        }
    }
}

/// Fastest wall-clock seconds of `engine` among `points`.
fn best(points: &[&Point], engine: Engine) -> f64 {
    points
        .iter()
        .filter(|p| p.engine == engine)
        .map(|p| p.secs())
        .fold(f64::INFINITY, f64::min)
}

impl Outcome<'_> {
    /// Points grouped by α, in run order.
    fn by_alpha(&self) -> Vec<(f64, Vec<&Point>)> {
        let mut groups: Vec<(f64, Vec<&Point>)> = Vec::new();
        for p in &self.points {
            match groups.last_mut() {
                Some((alpha, ps)) if *alpha == p.alpha => ps.push(p),
                _ => groups.push((p.alpha, vec![p])),
            }
        }
        groups
    }

    /// The CSV rows matching [`Spec::header`].
    fn rows(&self) -> Vec<String> {
        let counters = |p: &Point| -> String {
            self.spec
                .columns
                .iter()
                .map(|c| format!(",{:.*}", c.digits, (c.value)(&p.stats.work)))
                .collect()
        };
        let per_point = |row: &dyn Fn(&Point) -> String| self.points.iter().map(row).collect();
        match self.spec.kind {
            Kind::Speedup => per_point(&|p| {
                let c = counters(p);
                format!(
                    "{},{},{:.6},{:.4}{c}",
                    p.alpha,
                    p.threads,
                    p.secs(),
                    p.speedup
                )
            }),
            Kind::Surface => per_point(&|p| {
                let c = counters(p);
                format!("{},{},{},{:.6}{c}", p.alpha, p.n, p.threads, p.secs())
            }),
            Kind::Breakdown(_) => {
                per_point(&|p| format!("{},{}", p.alpha, p.breakdown().csv_row()))
            }
            Kind::Throughput => per_point(&|p| {
                format!(
                    "{},{},{:.1}",
                    p.engine.label(),
                    p.threads,
                    p.stats.throughput()
                )
            }),
            Kind::Table2 => self
                .by_alpha()
                .into_iter()
                .map(|(alpha, ps)| {
                    let seq = best(&ps, Engine::Sequential);
                    let shared = best(&ps, Engine::Shared);
                    let cots = best(&ps, Engine::Cots);
                    let (vs_shared, vs_seq) = (shared / cots, seq / cots);
                    format!("{alpha},{seq:.6},{shared:.6},{cots:.6},{vs_shared:.3},{vs_seq:.3}")
                })
                .collect(),
            Kind::Hybrid => self
                .by_alpha()
                .into_iter()
                .map(|(alpha, ps)| {
                    format!(
                        "{alpha},{:.6},{:.6},{:.6},{:.6}",
                        best(&ps, Engine::Hybrid),
                        best(&ps, Engine::Shared),
                        best(&ps, Engine::Independent),
                        ps[0].locks_per_element()
                    )
                })
                .collect(),
        }
    }

    /// Write `<name>.csv`, plus `<name>_runs.json` (speed-up experiments)
    /// or `<name>_breakdowns.json` (breakdowns), under `target/repro/`.
    pub fn write(&self) {
        let name = self.spec.name;
        write_csv(name, &self.spec.header(), &self.rows());
        match self.spec.kind {
            Kind::Speedup => {
                let runs: Vec<RunStats> = self.points.iter().map(|p| p.stats.clone()).collect();
                write_json(&format!("{name}_runs"), &runs);
            }
            Kind::Breakdown(_) => {
                let reports: Vec<(f64, Vec<Breakdown>)> = self
                    .by_alpha()
                    .into_iter()
                    .map(|(alpha, ps)| (alpha, ps.iter().map(|p| p.breakdown()).collect()))
                    .collect();
                write_json(&format!("{name}_breakdowns"), &reports);
            }
            _ => {}
        }
    }

    /// Append this experiment's `SUMMARY.md` section: its table and its
    /// wall-clock verdict, with every thread count above `cores` marked †.
    fn report(&self, out: &mut String, cores: usize, repeats: usize) {
        let mark = |t: usize| if t > cores { "†" } else { "" };
        let max_threads = self.points.iter().map(|p| p.threads).max().unwrap_or(0);
        let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
        let groups = self.by_alpha();
        let _ = writeln!(out, "\n## {}\n", self.spec.title);
        match self.spec.kind {
            Kind::Speedup => {
                let engine = self.spec.legs[0].0;
                let base = self.spec.legs[0].1[0];
                let grid = |out: &mut String, what: &str, cell: &dyn Fn(&Point) -> String| {
                    let _ = write!(out, "| {what} \\ threads |");
                    for p in &groups[0].1 {
                        let _ = write!(out, " {}{} |", p.threads, mark(p.threads));
                    }
                    let _ = write!(out, "\n|---|{}\n", "---|".repeat(groups[0].1.len()));
                    for (alpha, ps) in &groups {
                        let cells: String = ps.iter().map(|p| format!(" {} |", cell(p))).collect();
                        let _ = writeln!(out, "| {alpha} |{cells}");
                    }
                    out.push('\n');
                };
                grid(out, &format!("speed-up vs {base}"), &|p| {
                    format!("{:.2}{}", p.speedup, mark(p.threads))
                });
                for c in self.spec.columns {
                    grid(out, c.name, &|p| {
                        format!("{:.*}", c.digits, (c.value)(&p.stats.work))
                    });
                }
                // CoTS should speed up somewhere on the grid; the naive
                // designs should gain nothing by the largest thread count.
                let scales = engine == Engine::Cots;
                let top = self
                    .points
                    .iter()
                    .filter(|p| scales || p.threads == max_threads)
                    .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                    .unwrap();
                let _ = writeln!(
                    out,
                    "Shape check: {} — {} speed-up {:.2} at {}{} threads ({}).",
                    if scales {
                        "speed-up expected"
                    } else {
                        "no scaling expected"
                    },
                    if scales { "best" } else { "max" },
                    top.speedup,
                    top.threads,
                    mark(top.threads),
                    verdict((top.speedup >= 1.5) == scales)
                );
            }
            Kind::Breakdown(phase) => {
                let mut grows = true;
                for (alpha, ps) in &groups {
                    let bars: Vec<Breakdown> = ps.iter().map(|p| p.breakdown()).collect();
                    grows &= bars.last().unwrap().percent_of(phase) > bars[0].percent_of(phase);
                    let _ = writeln!(
                        out,
                        "alpha = {alpha}\n\n```\n{}```\n",
                        render_breakdown_table(&bars)
                    );
                }
                let _ = writeln!(
                    out,
                    "Shape check: the {} share grows from {} to {max_threads}{} threads at every α — {}.",
                    phase.label(),
                    groups[0].1[0].threads,
                    mark(max_threads),
                    verdict(grows)
                );
            }
            Kind::Surface => {
                // Per (α, threads) series: time ratio over size ratio between
                // the largest and the smallest input.
                let mut ratios: Vec<f64> = Vec::new();
                for (_, ps) in &groups {
                    for small in ps.iter().filter(|p| p.n == ps[0].n) {
                        let large = ps
                            .iter()
                            .rev()
                            .find(|p| p.threads == small.threads)
                            .unwrap();
                        ratios.push(
                            (large.secs() / small.secs()) / (large.n as f64 / small.n as f64),
                        );
                    }
                }
                ratios.sort_by(f64::total_cmp);
                let median = ratios[ratios.len() / 2];
                let _ = writeln!(
                    out,
                    "Linearity: median (time ratio)/(size ratio) across (α, threads) series = \
                     {median:.2} (1.0 = perfectly linear; {}; up to {max_threads}{} threads).",
                    verdict((0.5..2.0).contains(&median)),
                    mark(max_threads)
                );
            }
            Kind::Table2 => {
                let _ = writeln!(
                    out,
                    "| alpha | Sequential | best Shared | best CoTS | CoTS vs Shared | CoTS vs Seq |\n\
                     |---|---|---|---|---|---|"
                );
                for (alpha, ps) in &groups {
                    let seq = best(ps, Engine::Sequential);
                    let shared = best(ps, Engine::Shared);
                    let cots = best(ps, Engine::Cots);
                    let _ = writeln!(
                        out,
                        "| {alpha} | {seq:.3} | {shared:.3} | {cots:.3} | {:.1}x | {:.2}x |",
                        shared / cots,
                        seq / cots
                    );
                }
                let _ = writeln!(
                    out,
                    "\n\"CoTS vs Seq\" is a ratio of medians over REPRO_REPEATS={repeats} \
                     timed runs per cell. One repeat is not a result: two back-to-back \
                     single-repeat runs on one 2-vCPU host read 4.33x and 2.79x at alpha 2.5. \
                     The ratio pits threads against one core, so it needs ≥ 4 real cores \
                     (ROADMAP, Parked); this host has {cores}."
                );
            }
            Kind::Throughput => {
                let _ = writeln!(
                    out,
                    "| engine | threads | M elem/s | vs parent |\n|---|---|---|---|"
                );
                for p in &self.points {
                    // An ablation variant beside its parent's point.
                    let base = p.engine.parent().and_then(|parent| {
                        self.points.iter().find(|b| {
                            (b.engine, b.threads, b.alpha, b.n) == (parent, p.threads, p.alpha, p.n)
                        })
                    });
                    let vs = base.map_or(String::new(), |b| {
                        format!("{:.2}x", p.stats.throughput() / b.stats.throughput())
                    });
                    let _ = writeln!(
                        out,
                        "| {} | {}{} | {:.2} | {vs} |",
                        p.engine.label(),
                        p.threads,
                        mark(p.threads),
                        p.stats.throughput() / 1e6
                    );
                }
                out.push('\n');
                let peak = self
                    .points
                    .iter()
                    .filter(|p| p.engine == Engine::Cots)
                    .max_by(|a, b| a.stats.throughput().total_cmp(&b.stats.throughput()));
                let seq = self.points.iter().find(|p| p.engine == Engine::Sequential);
                if let (Some(peak), Some(seq)) = (peak, seq) {
                    let _ = writeln!(
                        out,
                        "peak CoTS {:.2} M elem/s at {}{} threads vs sequential {:.2} M elem/s \
                         (paper: >60 M elem/s on 4 physical cores; that headline needs ≥ 4 real \
                         cores, this host has {cores}).",
                        peak.stats.throughput() / 1e6,
                        peak.threads,
                        mark(peak.threads),
                        seq.stats.throughput() / 1e6
                    );
                }
            }
            Kind::Hybrid => {
                let (lo, hi) = (&groups[0], &groups[groups.len() - 1]);
                let _ = writeln!(
                    out,
                    "shared-structure lock traffic per element: {:.2} at α={} (≈ pure shared \
                     design) vs {:.3} at α={} (cache absorbs the stream) — the predicted \
                     degeneration at both extremes.",
                    lo.1[0].locks_per_element(),
                    lo.0,
                    hi.1[0].locks_per_element(),
                    hi.0
                );
            }
        }
    }
}

/// `SUMMARY.md` over `outcomes`: one section per experiment, stamped with
/// the scale and the host's hardware threads.
pub fn summary(outcomes: &[Outcome], scale: Scale, cores: usize) -> String {
    let mut out = format!(
        "# Repro summary\n\n\
         Generated by `cargo run --release -p cots-bench --bin repro` at REPRO_SCALE={}, \
         REPRO_REPEATS={}. This host offers {cores} hardware threads \
         (`available_parallelism`); † marks a thread count above that, where a \
         speed-up or verdict is oversubscribed. Wall-clock verdicts are advisory; the \
         counter-keyed claims are tests (`crates/bench/tests/claims.rs`).\n",
        scale.factor, scale.repeats
    );
    for outcome in outcomes {
        outcome.report(&mut out, cores, scale.repeats);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_are_unique_and_grids_non_empty() {
        for (i, s) in SPECS.iter().enumerate() {
            assert_eq!(spec(s.name).unwrap().title, s.title);
            assert!(SPECS[..i].iter().all(|t| t.name != s.name));
            assert!(!s.legs.is_empty() && !s.alphas.is_empty() && !s.sizes.is_empty());
        }
        assert!(spec("fig99").is_none());
    }

    #[test]
    fn tiny_runs_render_every_kind() {
        let scale = Scale {
            factor: 0.0,
            repeats: 1,
        };
        for s in SPECS {
            let legs: Vec<(Engine, &[usize])> = s
                .legs
                .iter()
                .map(|&(e, t)| (e, &t[..t.len().min(2)]))
                .collect();
            let small = Spec {
                legs: &legs,
                alphas: &s.alphas[..2.min(s.alphas.len())],
                sizes: &s.sizes[..2.min(s.sizes.len())],
                ..*s
            };
            let outcome = run(&small, scale);
            let columns = small.header().split(',').count();
            for row in outcome.rows() {
                assert_eq!(row.split(',').count(), columns, "{}: {row}", s.name);
            }
            let text = summary(&[outcome], scale, 1);
            assert!(text.contains(s.title), "{text}");
            if s.name == "table2" {
                let note = format!("medians over REPRO_REPEATS={}", scale.repeats);
                assert!(text.contains(&note), "{text}");
            }
        }
    }
}
