//! The five workloads and the one shape they share.
//!
//! Everything that later issues refer to by name is fixed here: the
//! workload names, the server flags, the frame sizes and rates, and the
//! per-workload latency and staleness limits behind the two `_slo_frac`
//! metrics. `benchmark/README.md` records why each workload exists and
//! how the limits were derived.

/// Keys in the pre-generated block every workload cycles through.
/// 4096 and 256 both divide it, so a frame never straddles the wrap.
pub const BLOCK_KEYS: usize = 8 << 20;

/// Warm-up keys of a set-up (fewer on `ingest_flat`, which applies a
/// fifth as fast): enough that `setup_s` is well over a second.
pub const WARMUP_KEYS: usize = 12 << 20;

/// Every timed window is cut into this many slices; an end-to-end value
/// is the median of the slice values, so one stalled slice cannot move it.
pub const SLICES: usize = 8;

/// Server processes per run. Each is set up from nothing (`setup_s` is
/// the median set-up) and measured for `SLICES / ROUNDS` slices: how fast
/// one server process runs is partly settled when it starts, so slices
/// of one process repeat each other and slices of several do not.
pub const ROUNDS: usize = 4;

/// Counter budget of the summary (`--capacity`).
pub const CAPACITY: usize = 1000;
/// Shard workers (`--shards`), sized for a 2-vCPU host.
pub const SHARDS: usize = 2;
/// Snapshot publish cadence (`--refresh-ms`).
pub const REFRESH_MS: u64 = 20;
/// Ring capacity per (reactor, shard), in batches (`--queue-batches`).
pub const QUEUE_BATCHES: usize = 64;

/// Support fraction of the post-window exact-truth check.
pub const CHECK_PHI: f64 = 0.001;

/// Keys of the traced run's in-process replay: fixed work, so exact
/// counts repeat from run to run.
pub const TRACE_KEYS: usize = 2 << 20;

/// Keys of each of the traced run's two server windows (untraced, then
/// traced), framed and offered as the workload does. An open loop
/// offers four seconds' worth instead, whichever is less.
pub const TRACE_SERVER_KEYS: u64 = 4 << 20;

/// Keys of the recovered log the in-process replay pushes through a
/// fresh engine (`persist.recover.replay_ns_per_key`): a prefix is
/// enough, the engine pass above already covers the whole fixed work.
pub const TRACE_REPLAY_KEYS: usize = 1 << 20;

/// Checkpoints the `ingest_durable` window must contain; the background
/// cadence is derived from the window length so this holds at any
/// `--seconds`.
pub const CHECKPOINTS_PER_WINDOW: u64 = 12;

/// Pause before resending a frame the server answered `OVERLOADED`.
/// Two milliseconds lets the shard workers drain a few batches from a
/// full ring, so the closed loop keeps the rings full without spinning
/// on rejections.
pub const OVERLOAD_BACKOFF_US: u64 = 2_000;

/// How the ingest thread offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ingest {
    /// Closed loop: keep `in_flight` frames outstanding on one
    /// connection; the next frame goes out when an ack comes back.
    Closed {
        /// Frames kept in flight.
        in_flight: usize,
    },
    /// Open loop: one frame every `frame_keys / keys_per_s` seconds on a
    /// fixed schedule, timed from the instant each frame was due.
    Open {
        /// Offered rate, keys per second.
        keys_per_s: f64,
    },
}

/// The query mix, drawn per query from the seeded schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMix {
    /// `Point`, `TopK(100)`, `Point`, … in strict alternation.
    Alternate,
    /// 50 % `Point`, 40 % `TopK(100)`, 10 % `Frequent(0.001)`.
    Mixed,
}

/// Per-workload limits behind `ingest_slo_frac` and `query_slo_frac`:
/// measured once at the seed commit over ten seeds, set between the p95
/// and the p99 of a quiet run, rounded to two digits and frozen (see
/// README "Limits").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// `L_ingest`: an INGEST frame acked later than this misses.
    pub ingest_us: u64,
    /// `L_query`: a query answered later than this misses.
    pub query_us: u64,
    /// `S_keys`: an answer staler than this many keys misses.
    pub staleness_keys: u64,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Final name; later issues refer to it.
    pub name: &'static str,
    /// Zipf skew of the key block.
    pub alpha: f64,
    /// Distinct keys the block is drawn from.
    pub alphabet: usize,
    /// Run the server with `--data-dir … --fsync always`.
    pub durable: bool,
    /// The measured part is restart cycles, not one serving window.
    pub restart: bool,
    /// Keys per INGEST frame.
    pub frame_keys: usize,
    /// How ingest load is offered.
    pub ingest: Ingest,
    /// Open-loop query rate, queries per second.
    pub query_rate: f64,
    /// Which queries.
    pub mix: QueryMix,
    /// Keys acked and applied during set-up before the checked query
    /// (`recover_restart`: keys before the `CHECKPOINT`).
    pub warmup_keys: usize,
    /// `recover_restart` only: keys logged after the checkpoint, i.e. the
    /// WAL tail every restart replays.
    pub tail_keys: usize,
    /// SLO limits.
    pub limits: Limits,
}

const CLOSED: Ingest = Ingest::Closed { in_flight: 4 };

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest_volatile",
        alpha: 1.5,
        alphabet: 1_000_000,
        durable: false,
        restart: false,
        frame_keys: 4096,
        ingest: CLOSED,
        query_rate: 50.0,
        mix: QueryMix::Alternate,
        warmup_keys: WARMUP_KEYS,
        tail_keys: 0,
        limits: Limits {
            ingest_us: 2_500,
            query_us: 2_500,
            staleness_keys: 400_000,
        },
    },
    Workload {
        name: "ingest_flat",
        alpha: 1.1,
        alphabet: 10_000_000,
        durable: false,
        restart: false,
        frame_keys: 4096,
        ingest: CLOSED,
        query_rate: 50.0,
        mix: QueryMix::Alternate,
        warmup_keys: 5 << 19,
        tail_keys: 0,
        limits: Limits {
            ingest_us: 2_500,
            query_us: 2_500,
            staleness_keys: 80_000,
        },
    },
    Workload {
        name: "ingest_durable",
        alpha: 1.5,
        alphabet: 1_000_000,
        durable: true,
        restart: false,
        frame_keys: 4096,
        ingest: CLOSED,
        query_rate: 50.0,
        mix: QueryMix::Alternate,
        warmup_keys: WARMUP_KEYS,
        tail_keys: 0,
        limits: Limits {
            ingest_us: 2_500,
            query_us: 2_500,
            staleness_keys: 300_000,
        },
    },
    Workload {
        name: "serve_mixed",
        alpha: 1.5,
        alphabet: 1_000_000,
        durable: false,
        restart: false,
        frame_keys: 256,
        ingest: Ingest::Open {
            keys_per_s: 250_000.0,
        },
        query_rate: 500.0,
        mix: QueryMix::Mixed,
        warmup_keys: WARMUP_KEYS,
        tail_keys: 0,
        limits: Limits {
            ingest_us: 750,
            query_us: 1_000,
            staleness_keys: 8_000,
        },
    },
    Workload {
        name: "recover_restart",
        alpha: 1.5,
        alphabet: 1_000_000,
        durable: true,
        restart: true,
        frame_keys: 256,
        ingest: Ingest::Open {
            keys_per_s: 250_000.0,
        },
        query_rate: 200.0,
        mix: QueryMix::Alternate,
        warmup_keys: 8 << 20,
        tail_keys: 2 << 20,
        limits: Limits {
            ingest_us: 750,
            query_us: 1_000,
            staleness_keys: 8_000,
        },
    },
];

impl Workload {
    /// Keys of one server window of the traced run: fixed work, a whole
    /// number of frames.
    pub fn trace_server_keys(&self) -> u64 {
        let keys = match self.ingest {
            Ingest::Closed { .. } => TRACE_SERVER_KEYS,
            Ingest::Open { keys_per_s } => TRACE_SERVER_KEYS.min((keys_per_s * 4.0) as u64),
        };
        keys - keys % self.frame_keys as u64
    }
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
