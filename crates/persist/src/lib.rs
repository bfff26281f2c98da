//! # cots-persist
//!
//! Durable checkpoints, a batch write-ahead log, and crash recovery for
//! the CoTS serving stack — std-only, no external dependencies.
//!
//! The in-memory CoTS engine loses every counter on a crash. This crate
//! makes a `cots-serve` deployment restartable with *quantified* loss:
//!
//! * [`codec`] — length-prefixed, CRC-32-framed records. Decoding is
//!   total: any byte sequence is a record or a typed error, never a
//!   panic.
//! * [`checkpoint`] — epoch-consistent snapshots of the service's
//!   summary, committed by atomic rename; semantic validation rejects
//!   CRC-valid files that violate the Space-Saving envelope.
//! * [`wal`] — segmented batch log, group-committed per ring drain with a
//!   configurable [`FsyncPolicy`], each batch logged as its runs of equal
//!   keys; the scanner recovers the valid prefix of every segment, as
//!   the runs it logged, and accounts the rest as dropped mass.
//! * [`recover`] — loads the newest valid checkpoint (falling back on
//!   corruption), collects the WAL tail past its watermark, and emits a
//!   [`RecoveryReport`](cots_core::RecoveryReport).
//!
//! Soundness: the checkpoint is the service's merged summary at an exact
//! cut of the log; the serving stack seeds its empty per-shard summaries
//! from it (`Partitioned::seed`, under the checkpoint's admission floor)
//! and replays the WAL tail on top, so the service resumes the one
//! summary it had — the `count ≥ true ≥ count − error`
//! guarantee survives the crash with no merge on any answer, and any
//! unrecoverable tail only *under*-counts, by an amount the report
//! states.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod recover;
pub mod tail;
pub mod wal;

pub use checkpoint::{
    find_checkpoints, load_checkpoint, parse_checkpoint_name, prune_checkpoints, write_checkpoint,
    Checkpoint,
};
pub use codec::{decode_record, encode_record, RecordError, MAX_RECORD};
pub use crc::crc32;
pub use recover::{recover, recover_runs, Recovery};
pub use tail::{
    has_ack, load_ack, load_lineage, oldest_segment_seq, store_ack, store_lineage, TailStats,
    WalTailer, ACK_FILE, LINEAGE_FILE,
};
pub use wal::{
    parse_segment_name, prune_wal, scan_wal, CommitStats, FsyncPolicy, WalBatch, WalRuns, WalScan,
    WalWriter, DEFAULT_SEGMENT_BYTES, MAX_RECORD_KEYS, RUN_MAGIC, WAL_MAGIC, WEIGHTED_RUN_MAGIC,
};
