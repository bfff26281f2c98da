//! Segmented batch write-ahead log.
//!
//! Every ingested batch is assigned a sequence number and logged *before*
//! it is applied to the in-memory engine. Records are group-committed: a
//! shard worker stages the batches of one ring drain as one run record
//! and then calls [`WalWriter::commit`] once, so the CRC frame, the
//! syscall (and optional `fsync`) are paid per drain, not per batch.
//!
//! ## Segment format
//!
//! ```text
//! [magic "COTSWAL1": 8 bytes][CRC record]*
//! record payload := batch | run | weighted
//! batch    := [seq: u64 le][nkeys: u32 le][key: u64 le]*nkeys
//! run      := [magic "COTSRUN\xB1": 8 bytes][nbatches: u32 le][batch]*nbatches
//! weighted := [magic "COTSRUN\xB2": 8 bytes][nbatches: u32 le][wbatch]*nbatches
//! wbatch   := [seq: u64 le][nruns: u32 le]([key: u64 le][weight: u32 le])*nruns
//! ```
//!
//! The writer emits one form, the *weighted* run record
//! ([`WalWriter::append_run`]): a ring drain of consecutive batches in
//! one CRC frame, each batch stored as its runs of consecutive equal
//! keys. The serving path sorts every batch before logging it, so a
//! batch costs 12 bytes per *distinct* key — about 1 byte per key on a
//! skewed stream — instead of 8 per key. The encoding is lossless for
//! any order (unsorted input is runs of 1), at 12 bytes per key when
//! every key differs from its neighbour.
//!
//! The readers accept all three forms, freely mixed in one directory, so
//! data directories written by older builds replay unchanged: legacy
//! per-batch records ([`WalWriter::append`], kept so tests can produce
//! that grammar) and unweighted `run` records, whose per-batch layout is
//! BIN1's. Both run magics' little-endian `u64` values have their top
//! bit set (> 2⁶³), which no monotone batch sequence number ever
//! reaches, so no two payload forms can be confused.
//!
//! A record never exceeds [`MAX_RECORD`] bytes, nor — weighted — more
//! than [`MAX_RECORD_KEYS`] keys once its runs are expanded: the decoder
//! rejects a weight of 0 and a record past that cap before allocating,
//! so a 12-byte payload cannot claim 4 G keys. The writer splits a drain
//! that would exceed either limit into several records at batch
//! boundaries.
//!
//! Segments are named `wal-{first_seq:016x}.wal` after the first sequence
//! number they may contain. After a crash the scanner recovers the valid
//! prefix of every segment; a torn or corrupt frame ends that segment's
//! contribution (framing beyond it cannot be trusted) and the remaining
//! bytes are accounted as dropped. Restarted writers always open a *new*
//! segment at the next sequence number — they never append to a
//! possibly-torn file.
//!
//! Reading the log back — at recovery ([`scan_wal`], `scan_wal_runs`)
//! and while it is still being written (the replication shipper) — is
//! one loop, in [`crate::tail`], over one record decoder that yields every
//! batch as its `(key, weight)` runs ([`WalRuns`]): a weighted record's
//! runs as stored, a legacy or unweighted record's keys as runs of
//! weight 1. Recovery hands those runs to the serving stack as they are;
//! readers that want keys — the shipper, [`scan_wal`], the public
//! [`recover`](crate::recover()) — expand them with [`WalRuns::expand`],
//! the one place runs become keys again.
//!
//! AUDIT: total — the record parsers decode arbitrary disk bytes;
//! enforced by `cargo xtask audit` (lint-totality).

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use cots_core::{CotsError, Result};

use crate::codec::{encode_record, read_u32_le, read_u64_le, MAX_RECORD};
use crate::tail::WalTailer;

/// Magic prefix of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"COTSWAL1";

/// Magic prefix of a multi-batch *run* record payload. Sits where a
/// legacy record's `seq` field would: its little-endian value exceeds
/// 2⁶³, unreachable for a monotone sequence counter, so legacy and run
/// payloads are unambiguous.
pub const RUN_MAGIC: &[u8; 8] = b"COTSRUN\xB1";

/// Magic prefix of a *weighted* run record payload, the form the writer
/// emits: each batch is its runs of equal keys, `[key][weight]`. Its
/// little-endian value exceeds 2⁶³ too, and differs from [`RUN_MAGIC`].
pub const WEIGHTED_RUN_MAGIC: &[u8; 8] = b"COTSRUN\xB2";

/// Most keys one record may expand to: what a maximal unweighted record
/// could hold. The decoder refuses weighted records past it before
/// allocating; the writer never writes one.
pub const MAX_RECORD_KEYS: usize = MAX_RECORD / 8;

/// Bytes of a run record's header: magic and batch count.
const RUN_HEADER: usize = 12;

/// File extension of WAL segments.
pub const WAL_EXT: &str = "wal";

/// Default segment rotation threshold (8 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// When the log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every group commit. Survives power loss at the cost
    /// of one device flush per ring drain.
    Always,
    /// Write to the OS per group commit; `fsync` only at segment rotation
    /// and checkpoints. Survives process death (`kill -9`) — the page
    /// cache outlives the process — but an OS crash can lose the tail.
    #[default]
    Grouped,
    /// Never `fsync`. Still survives process death; fastest.
    Off,
}

impl FromStr for FsyncPolicy {
    type Err = CotsError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "grouped" => Ok(FsyncPolicy::Grouped),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(CotsError::InvalidConfig(format!(
                "unknown fsync policy {other:?} (expected always|grouped|off)"
            ))),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Grouped => "grouped",
            FsyncPolicy::Off => "off",
        })
    }
}

/// One logged batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Batch sequence number (monotone across the whole log).
    pub seq: u64,
    /// The keys of the batch, in logged order, which the serving path
    /// sorts.
    pub keys: Vec<u64>,
}

/// One logged batch as its runs: what the record decoder yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRuns {
    /// Batch sequence number (monotone across the whole log).
    pub seq: u64,
    /// `(key, weight)` runs in logged order, every weight at least 1. A
    /// weighted record's runs as stored; a legacy or unweighted record's
    /// keys as runs of weight 1.
    pub runs: Vec<(u64, u32)>,
}

impl WalRuns {
    /// Keys the batch holds: the sum of its weights.
    pub fn keys(&self) -> usize {
        self.runs.iter().map(|&(_, weight)| weight as usize).sum()
    }

    /// The batch key for key, in logged order: each run repeated by its
    /// weight. The decoder has bounded the sum of the weights by
    /// [`MAX_RECORD_KEYS`] per record before this allocates.
    pub fn expand(self) -> WalBatch {
        let mut keys = Vec::with_capacity(self.keys());
        for (key, weight) in self.runs {
            keys.resize(keys.len() + weight as usize, key);
        }
        WalBatch {
            seq: self.seq,
            keys,
        }
    }
}

/// What one [`WalWriter::commit`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Records written by this commit.
    pub records: u64,
    /// Keys across those records.
    pub keys: u64,
    /// Bytes written (framing included).
    pub bytes: u64,
    /// Whether this commit ended in an `fsync`.
    pub synced: bool,
    /// Batches staged since the last commit that were not logged: one
    /// batch alone exceeded [`MAX_RECORD`] or [`MAX_RECORD_KEYS`].
    pub refused: u64,
}

/// Appender for the active WAL segment.
///
/// Not internally synchronized: `cots-serve` wraps it in a mutex and
/// performs `append*`+`commit` as one group per ring drain.
pub struct WalWriter {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    file: File,
    segment_path: PathBuf,
    written: u64,
    buf: Vec<u8>,
    pending_records: u64,
    pending_keys: u64,
    pending_first_seq: Option<u64>,
    pending_refused: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("segment", &self.segment_path)
            .field("policy", &self.policy)
            .field("written", &self.written)
            .finish()
    }
}

impl WalWriter {
    /// Open a fresh segment in `dir` whose first record will carry
    /// `next_seq`. Always creates a new file — a restarted writer must
    /// never append to a possibly-torn segment.
    pub fn open(
        dir: &Path,
        next_seq: u64,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self> {
        fs::create_dir_all(dir)?;
        let (file, segment_path) = new_segment(dir, next_seq)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(1),
            file,
            segment_path,
            written: WAL_MAGIC.len() as u64,
            buf: Vec::new(),
            pending_records: 0,
            pending_keys: 0,
            pending_first_seq: None,
            pending_refused: 0,
        })
    }

    /// Stage one batch as a legacy per-batch record — the form builds
    /// before run records wrote, kept so tests and tools can produce the
    /// old grammar the readers must still accept. Nothing reaches the OS
    /// until [`commit`].
    ///
    /// [`commit`]: WalWriter::commit
    pub fn append(&mut self, seq: u64, keys: &[u64]) {
        let mut payload = Vec::with_capacity(12 + keys.len() * 8);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for k in keys {
            payload.extend_from_slice(&k.to_le_bytes());
        }
        self.stage(&payload, seq, 1, keys.len());
    }

    /// Stage a whole drain of consecutive batches as weighted run
    /// records: batch `i` carries sequence `first_seq + i` and is stored
    /// as its runs of consecutive equal keys, in the order given (sorted
    /// batches give long runs; any order reads back key for key). One CRC
    /// frame per drain, split at batch boundaries into several when the
    /// drain would exceed [`MAX_RECORD`] or [`MAX_RECORD_KEYS`]; a batch
    /// that alone exceeds either is not logged and is reported in
    /// [`CommitStats::refused`]. Nothing reaches the OS until
    /// [`commit`]; an empty slice stages nothing.
    ///
    /// [`commit`]: WalWriter::commit
    pub fn append_run<B: AsRef<[u64]>>(&mut self, first_seq: u64, batches: &[B]) {
        let mut record = Vec::new();
        let mut encoded = Vec::new();
        let (mut first, mut nbatches, mut nkeys) = (first_seq, 0usize, 0usize);
        for (seq, batch) in (first_seq..).zip(batches) {
            let batch = batch.as_ref();
            encoded.clear();
            if batch.len() <= MAX_RECORD_KEYS {
                push_weighted_batch(seq, batch, &mut encoded);
            }
            if batch.len() > MAX_RECORD_KEYS || RUN_HEADER + encoded.len() > MAX_RECORD {
                // Alone it exceeds a record: no reader could return it.
                self.pending_refused += 1;
                continue;
            }
            if record.len() + encoded.len() > MAX_RECORD || nkeys + batch.len() > MAX_RECORD_KEYS {
                self.stage_run(&mut record, first, nbatches, nkeys);
                (nbatches, nkeys) = (0, 0);
            }
            if nbatches == 0 {
                record.extend_from_slice(WEIGHTED_RUN_MAGIC);
                record.extend_from_slice(&[0; 4]);
                first = seq;
            }
            record.extend_from_slice(&encoded);
            nbatches += 1;
            nkeys += batch.len();
        }
        self.stage_run(&mut record, first, nbatches, nkeys);
    }

    /// Frame a run record of `nbatches` batches opening at `first` that
    /// [`append_run`](WalWriter::append_run) built in `record`, then
    /// empty `record`. A record with no batch stages nothing.
    fn stage_run(&mut self, record: &mut Vec<u8>, first: u64, nbatches: usize, nkeys: usize) {
        if nbatches > 0 {
            if let Some(count) = record.get_mut(8..RUN_HEADER) {
                count.copy_from_slice(&(nbatches as u32).to_le_bytes());
            }
            self.stage(record, first, nbatches, nkeys);
        }
        record.clear();
    }

    /// Frame one record payload into the commit buffer and book its
    /// batches and keys. Callers keep payloads within [`MAX_RECORD`]; the
    /// codec refuses anything larger, which is booked as refused.
    fn stage(&mut self, payload: &[u8], first: u64, nbatches: usize, nkeys: usize) {
        if encode_record(payload, &mut self.buf).is_none() {
            self.pending_refused += nbatches as u64;
            return;
        }
        self.pending_records += nbatches as u64;
        self.pending_keys += nkeys as u64;
        self.pending_first_seq.get_or_insert(first);
    }

    /// Group-commit everything staged since the last commit: rotate the
    /// segment if it is over the threshold, write the staged bytes, and
    /// apply the fsync policy.
    pub fn commit(&mut self) -> Result<CommitStats> {
        if self.buf.is_empty() {
            let refused = std::mem::take(&mut self.pending_refused);
            return Ok(CommitStats {
                refused,
                ..CommitStats::default()
            });
        }
        if self.written >= self.segment_bytes {
            // Rotation boundary: seal the old segment (it must be durable
            // before pruning can ever consider it complete) and start a
            // new one named after the first staged sequence number.
            if self.policy != FsyncPolicy::Off {
                self.file.sync_data()?;
            }
            // PANIC-OK: `buf` is non-empty (checked on entry), and every
            // append that fills `buf` also sets `pending_first_seq`; both
            // are cleared together below.
            let first = self.pending_first_seq.expect("buf non-empty");
            let (file, path) = new_segment(&self.dir, first)?;
            self.file = file;
            self.segment_path = path;
            self.written = WAL_MAGIC.len() as u64;
        }
        self.file.write_all(&self.buf)?;
        let synced = self.policy == FsyncPolicy::Always;
        if synced {
            self.file.sync_data()?;
        }
        let stats = CommitStats {
            records: self.pending_records,
            keys: self.pending_keys,
            bytes: self.buf.len() as u64,
            synced,
            refused: self.pending_refused,
        };
        self.written += self.buf.len() as u64;
        self.buf.clear();
        self.pending_records = 0;
        self.pending_keys = 0;
        self.pending_first_seq = None;
        self.pending_refused = 0;
        Ok(stats)
    }

    /// Force everything committed so far to stable storage, regardless of
    /// policy. Called before a checkpoint commits so the watermark never
    /// runs ahead of the durable log.
    pub fn sync(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.commit()?;
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Bytes written to the active segment so far.
    pub fn segment_len(&self) -> u64 {
        self.written
    }

    /// Path of the active segment.
    pub fn segment_path(&self) -> &Path {
        &self.segment_path
    }
}

fn new_segment(dir: &Path, first_seq: u64) -> Result<(File, PathBuf)> {
    let mut path = dir.join(format!("wal-{first_seq:016x}.{WAL_EXT}"));
    // A restart at the same sequence number (e.g. recovery recovered 0
    // batches twice in a row) must not clobber existing data: bump until
    // free. Suffixedless names are the common case.
    let mut bump = 0u32;
    while path.exists() {
        bump += 1;
        path = dir.join(format!("wal-{first_seq:016x}-{bump}.{WAL_EXT}"));
    }
    let mut file = File::create(&path)?;
    file.write_all(WAL_MAGIC)?;
    Ok((file, path))
}

/// Parse a segment file name back to its first sequence number; `None`
/// for non-WAL files.
pub fn parse_segment_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("wal-")?
        .strip_suffix(&format!(".{WAL_EXT}"))?;
    let hex = stem.split('-').next()?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Everything a scan of the log directory recovered: batches as keys
/// ([`WalBatch`], from [`scan_wal`]) or as runs ([`WalRuns`], what
/// [`recover_runs`](crate::recover_runs) scans).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalScan<B = WalBatch> {
    /// Recovered batches with `seq >= from_seq`, in sequence order.
    pub batches: Vec<B>,
    /// Segments visited.
    pub segments: u64,
    /// Valid records seen (including ones below `from_seq`).
    pub records: u64,
    /// Total bytes read across segments.
    pub bytes_scanned: u64,
    /// Frames that failed to decode (torn tails, bit rot, garbage).
    pub torn_frames: u64,
    /// Bytes abandoned after the first bad frame of each segment.
    pub dropped_bytes: u64,
    /// Highest sequence number observed in any valid record.
    pub max_seq: Option<u64>,
}

/// Every WAL segment file in `dir` as `(first_seq, path)`, in log order.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(first) = parse_segment_name(&path) {
            segments.push((first, path));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Scan every WAL segment in `dir` and recover the valid prefix of each,
/// every batch expanded into its keys: `scan_wal_runs`, then
/// [`WalRuns::expand`].
pub fn scan_wal(dir: &Path, from_seq: u64) -> Result<WalScan> {
    let scan = scan_wal_runs(dir, from_seq)?;
    Ok(WalScan {
        batches: scan.batches.into_iter().map(WalRuns::expand).collect(),
        segments: scan.segments,
        records: scan.records,
        bytes_scanned: scan.bytes_scanned,
        torn_frames: scan.torn_frames,
        dropped_bytes: scan.dropped_bytes,
        max_seq: scan.max_seq,
    })
}

/// Scan every WAL segment in `dir` and recover the valid prefix of each,
/// every batch as the runs it was logged as.
///
/// This is a [`WalTailer`] driven to the end of a log nobody is writing:
/// one poll reads everything committed, and [`WalTailer::seal`] books
/// what the newest segment still holds unread as a torn tail instead of
/// waiting for a writer to finish it.
///
/// Total: arbitrary file contents produce a [`WalScan`], never a panic.
/// Decoding stops at the first bad frame *per segment* (framing beyond it
/// is untrusted) but continues with the next segment — losing a middle
/// segment only under-counts, which the recovery report accounts for as
/// dropped bytes. Batches with `seq < from_seq` are already covered by
/// the checkpoint and are skipped; duplicate or regressing sequence
/// numbers are skipped too so a scan can never double-apply a batch.
pub(crate) fn scan_wal_runs(dir: &Path, from_seq: u64) -> Result<WalScan<WalRuns>> {
    let mut tailer = WalTailer::new(dir, from_seq);
    let batches = tailer.poll_runs(usize::MAX)?;
    tailer.seal();
    let stats = tailer.stats;
    Ok(WalScan {
        batches,
        segments: stats.segments,
        records: stats.records,
        bytes_scanned: stats.bytes_scanned,
        torn_frames: stats.torn_frames,
        dropped_bytes: stats.dropped_bytes,
        max_seq: stats.max_seq,
    })
}

/// Append one weighted batch — `seq`, then `keys` as its runs of
/// consecutive equal keys — to `out`. The caller bounds `keys.len()` by
/// [`MAX_RECORD_KEYS`], so the run count and every weight fit a `u32`.
fn push_weighted_batch(seq: u64, keys: &[u64], out: &mut Vec<u8>) {
    out.extend_from_slice(&seq.to_le_bytes());
    let count_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut nruns = 0u32;
    let mut rest = keys;
    while let Some(&key) = rest.first() {
        let run = rest.iter().position(|&k| k != key).unwrap_or(rest.len());
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(run as u32).to_le_bytes());
        nruns += 1;
        rest = rest.get(run..).unwrap_or(&[]);
    }
    if let Some(count) = out.get_mut(count_at..count_at + 4) {
        count.copy_from_slice(&nruns.to_le_bytes());
    }
}

/// Decode one batch at byte offset `off` as its runs; returns the batch
/// and the offset just past it. A weighted batch holds `[key][weight]`
/// items, any other `[key]` items of weight 1. `budget` is how many keys
/// the record may still hold: the weights are summed and checked against
/// it before anything is allocated. `None` on any layout violation, a
/// weight of 0, or a sum past the budget.
fn parse_batch(
    payload: &[u8],
    off: usize,
    weighted: bool,
    budget: &mut usize,
) -> Option<(WalRuns, usize)> {
    let width = if weighted { 12 } else { 8 };
    let weight = |item: &[u8]| {
        if weighted {
            read_u32_le(item, 8)
        } else {
            Some(1)
        }
    };
    let seq = read_u64_le(payload, off)?;
    let nitems = read_u32_le(payload, off.checked_add(8)?)? as usize;
    let start = off.checked_add(12)?;
    let end = start.checked_add(nitems.checked_mul(width)?)?;
    let items = payload.get(start..end)?.chunks_exact(width);
    let mut nkeys = 0usize;
    for item in items.clone() {
        let w = weight(item)? as usize;
        if w == 0 {
            return None;
        }
        nkeys = nkeys.checked_add(w).filter(|&n| n <= *budget)?;
    }
    *budget -= nkeys;
    // `nitems` items fit in the payload, which bounds the allocation.
    let mut runs = Vec::with_capacity(nitems);
    for item in items {
        runs.push((read_u64_le(item, 0)?, weight(item)?));
    }
    Some((WalRuns { seq, runs }, end))
}

/// Decode the `[nbatches][batch]*` body of a run record. `None` unless
/// every batch decodes and they end exactly at the payload's end.
fn parse_run(payload: &[u8], weighted: bool, budget: &mut usize) -> Option<Vec<WalRuns>> {
    let nbatches = read_u32_le(payload, 8)?;
    let mut off = RUN_HEADER;
    let mut run = Vec::new();
    for _ in 0..nbatches {
        let (batch, next) = parse_batch(payload, off, weighted, budget)?;
        run.push(batch);
        off = next;
    }
    (off == payload.len()).then_some(run)
}

/// Decode one CRC-valid record payload — a legacy single-batch record,
/// an unweighted or a weighted run record — appending its batches, as
/// runs, to `out` in order. No record holds more than
/// [`MAX_RECORD_KEYS`] keys. Returns `false` (and appends nothing) on a
/// malformed payload: a record decodes all-or-nothing, mirroring its
/// all-or-nothing CRC.
pub(crate) fn parse_record_payload(payload: &[u8], out: &mut Vec<WalRuns>) -> bool {
    let magic = payload.get(..RUN_MAGIC.len());
    let mut budget = MAX_RECORD_KEYS;
    let batches = if magic == Some(RUN_MAGIC.as_slice()) {
        parse_run(payload, false, &mut budget)
    } else if magic == Some(WEIGHTED_RUN_MAGIC.as_slice()) {
        parse_run(payload, true, &mut budget)
    } else {
        match parse_batch(payload, 0, false, &mut budget) {
            Some((batch, end)) if end == payload.len() => Some(vec![batch]),
            _ => None,
        }
    };
    match batches {
        Some(batches) => {
            out.extend(batches);
            true
        }
        None => false,
    }
}

/// Delete WAL segments made wholly redundant by a checkpoint at
/// `watermark`: a segment can go once its *successor* starts at or below
/// the watermark (every record it holds is then `< watermark`). Returns
/// the number of files removed. Removal errors are ignored — pruning is
/// an optimization, not a correctness requirement.
pub fn prune_wal(dir: &Path, watermark: u64) -> Result<u64> {
    let mut removed = 0;
    for pair in list_segments(dir)?.windows(2) {
        if let [(_, path), (next_first, _)] = pair {
            if *next_first <= watermark && fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cots-persist-wal-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!(
            "grouped".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Grouped
        );
        assert_eq!("off".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Off);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Grouped);
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
    }

    #[test]
    fn append_commit_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Grouped, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(0, &[1, 2, 3]);
        w.append(1, &[4]);
        let s1 = w.commit().unwrap();
        assert_eq!((s1.records, s1.keys), (2, 4));
        assert!(!s1.synced);
        w.append(2, &[]);
        w.commit().unwrap();
        assert_eq!(
            w.commit().unwrap(),
            CommitStats::default(),
            "empty commit is a no-op"
        );

        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.segments, 1);
        assert_eq!(scan.records, 3);
        assert_eq!(scan.torn_frames, 0);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.max_seq, Some(2));
        assert_eq!(
            scan.batches,
            vec![
                WalBatch {
                    seq: 0,
                    keys: vec![1, 2, 3]
                },
                WalBatch {
                    seq: 1,
                    keys: vec![4]
                },
                WalBatch {
                    seq: 2,
                    keys: vec![]
                },
            ]
        );
        // from_seq skips the checkpointed prefix.
        let tail = scan_wal(&dir, 2).unwrap();
        assert_eq!(tail.batches.len(), 1);
        assert_eq!(tail.batches[0].seq, 2);
        assert_eq!(tail.records, 3, "records counts everything scanned");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_creates_segments_and_scan_merges_them() {
        let dir = temp_dir("rotate");
        // Tiny threshold: every commit after the first rotates.
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 16).unwrap();
        for seq in 0..5u64 {
            w.append(seq, &[seq * 10, seq * 10 + 1]);
            w.commit().unwrap();
        }
        let n_segments = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| parse_segment_name(&e.as_ref().unwrap().path()).is_some())
            .count();
        assert!(
            n_segments >= 2,
            "expected rotation, got {n_segments} segment(s)"
        );
        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.batches.len(), 5);
        assert_eq!(scan.segments as usize, n_segments);
        assert!(scan.batches.windows(2).all(|w| w[0].seq < w[1].seq));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_valid_prefix() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        for seq in 0..4u64 {
            w.append(seq, &[seq; 3]);
        }
        w.commit().unwrap();
        let path = w.segment_path().to_path_buf();
        drop(w);
        let full = fs::read(&path).unwrap();
        // Tear mid-way through the last record.
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.batches.len(), 3, "valid prefix only");
        assert_eq!(scan.torn_frames, 1);
        assert!(scan.dropped_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_is_skipped_not_fatal() {
        let dir = temp_dir("middle");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 16).unwrap();
        for seq in 0..6u64 {
            w.append(seq, &[seq]);
            w.commit().unwrap();
        }
        drop(w);
        // Trash the magic of the second segment.
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(p).is_some())
            .collect();
        segs.sort();
        assert!(segs.len() >= 3);
        fs::write(&segs[1], b"garbage that is not a wal segment").unwrap();
        let scan = scan_wal(&dir, 0).unwrap();
        assert!(scan.torn_frames >= 1);
        assert!(scan.dropped_bytes > 0);
        // Batches from the surviving segments are still recovered, in order.
        assert!(!scan.batches.is_empty());
        assert!(scan.batches.windows(2).all(|w| w[0].seq < w[1].seq));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_sequences_never_double_apply() {
        let dir = temp_dir("dup");
        let mut w = WalWriter::open(&dir, 5, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(5, &[1]);
        w.append(5, &[1]); // simulated duplicate
        w.append(4, &[2]); // simulated regression
        w.append(6, &[3]);
        w.commit().unwrap();
        let scan = scan_wal(&dir, 5).unwrap();
        let seqs: Vec<u64> = scan.batches.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_segments_at_or_after_watermark() {
        let dir = temp_dir("prune");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 16).unwrap();
        for seq in 0..6u64 {
            w.append(seq, &[seq, seq, seq]);
            w.commit().unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let before = scan_wal(&dir, 0).unwrap();
        assert!(before.segments >= 3);
        // Checkpoint covers everything: all but the newest segment can go.
        let removed = prune_wal(&dir, 100).unwrap();
        assert_eq!(removed, before.segments - 1);
        // The tail past the watermark is still recoverable.
        let after = scan_wal(&dir, 0).unwrap();
        assert_eq!(after.segments, 1);
        // Pruning at watermark 0 removes nothing.
        assert_eq!(prune_wal(&dir, 0).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_record_round_trips_and_matches_per_batch_form() {
        let batches: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![], vec![9]];

        let run_dir = temp_dir("run");
        let mut w = WalWriter::open(&run_dir, 10, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run(10, &batches);
        let stats = w.commit().unwrap();
        assert_eq!(
            (stats.records, stats.keys),
            (3, 4),
            "records counts logical batches"
        );
        drop(w);

        let legacy_dir = temp_dir("run-legacy");
        let mut w =
            WalWriter::open(&legacy_dir, 10, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            w.append(10 + i as u64, batch);
        }
        w.commit().unwrap();
        drop(w);

        let run_scan = scan_wal(&run_dir, 0).unwrap();
        let legacy_scan = scan_wal(&legacy_dir, 0).unwrap();
        assert_eq!(run_scan.batches, legacy_scan.batches);
        assert_eq!(run_scan.records, legacy_scan.records);
        assert_eq!(run_scan.max_seq, Some(12));
        assert_eq!(run_scan.torn_frames, 0);
        // One frame for the run vs three for per-batch records.
        assert!(run_scan.dropped_bytes == 0 && legacy_scan.dropped_bytes == 0);
        fs::remove_dir_all(&run_dir).unwrap();
        fs::remove_dir_all(&legacy_dir).unwrap();
    }

    #[test]
    fn mixed_legacy_and_run_records_scan_in_order() {
        let dir = temp_dir("mixed");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(0, &[100]);
        w.append_run(1, &[vec![101], vec![102, 103]]);
        w.append(3, &[104]);
        w.commit().unwrap();
        drop(w);
        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.records, 4);
        assert_eq!(
            scan.batches,
            vec![
                WalBatch {
                    seq: 0,
                    keys: vec![100]
                },
                WalBatch {
                    seq: 1,
                    keys: vec![101]
                },
                WalBatch {
                    seq: 2,
                    keys: vec![102, 103]
                },
                WalBatch {
                    seq: 3,
                    keys: vec![104]
                },
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_run_stages_nothing() {
        let dir = temp_dir("empty-run");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run::<Vec<u64>>(0, &[]);
        assert_eq!(w.commit().unwrap(), CommitStats::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_run_record_is_all_or_nothing() {
        // A run record whose payload is damaged past the CRC (simulated
        // by handcrafting payloads) contributes no batches at all.
        let mut good = Vec::new();
        good.extend_from_slice(RUN_MAGIC);
        good.extend_from_slice(&2u32.to_le_bytes());
        for (seq, key) in [(5u64, 50u64), (6, 60)] {
            good.extend_from_slice(&seq.to_le_bytes());
            good.extend_from_slice(&1u32.to_le_bytes());
            good.extend_from_slice(&key.to_le_bytes());
        }
        let mut out = Vec::new();
        assert!(parse_record_payload(&good, &mut out));
        assert_eq!(out.len(), 2);

        // Truncated anywhere inside: rejected whole, never a partial run.
        for cut in 0..good.len() {
            out.clear();
            assert!(
                !parse_record_payload(&good[..cut], &mut out),
                "truncation at {cut} accepted"
            );
            assert!(out.is_empty(), "truncation at {cut} leaked batches");
        }
        // Trailing garbage: rejected.
        let mut padded = good.clone();
        padded.push(0);
        out.clear();
        assert!(!parse_record_payload(&padded, &mut out));
        // Hostile batch count: rejected without large allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(RUN_MAGIC);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        out.clear();
        assert!(!parse_record_payload(&hostile, &mut out));
    }

    #[test]
    fn sorted_batches_are_logged_as_their_runs() {
        let dir = temp_dir("weighted");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        let batches = vec![vec![1u64, 1, 1, 2, 2, 9], vec![5; 1000], vec![]];
        w.append_run(0, &batches);
        let stats = w.commit().unwrap();
        // Frame 8, header 12, then per batch 12 plus 12 per run.
        assert_eq!(stats.bytes, 8 + 12 + (12 + 3 * 12) + (12 + 12) + 12);
        assert_eq!((stats.records, stats.keys, stats.refused), (3, 1006, 0));
        let scan = scan_wal(&dir, 0).unwrap();
        let keys: Vec<Vec<u64>> = scan.batches.into_iter().map(|b| b.keys).collect();
        assert_eq!(keys, batches);

        // All-distinct keys are runs of one: 12 bytes a key, not 8.
        let distinct: Vec<u64> = (0..1000).collect();
        w.append_run(3, &[&distinct]);
        assert_eq!(w.commit().unwrap().bytes, 8 + 12 + 12 + 12 * 1000);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A drain of five 2 Mi-key batches (the most one BIN1 frame carries)
    /// is 120 MiB as runs of one: more than one record may hold. It is
    /// split at batch boundaries, and every key comes back.
    #[test]
    fn oversize_drain_is_split_into_records_that_recover() {
        let dir = temp_dir("oversize");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, u64::MAX).unwrap();
        let batch: Vec<u64> = (0..2 << 20).collect();
        let drain = [batch.as_slice(); 5];
        w.append_run(0, &drain);
        let stats = w.commit().unwrap();
        assert_eq!((stats.records, stats.keys, stats.refused), (5, 5 << 21, 0));
        drop(w);
        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.torn_frames, 0);
        assert_eq!(scan.batches.len(), 5);
        for (seq, b) in scan.batches.iter().enumerate() {
            assert_eq!(b.seq, seq as u64);
            assert!(b.keys == batch, "batch {seq} recovered key for key");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Runs keep the bytes small, but a record may still not expand past
    /// `MAX_RECORD_KEYS`: a drain over it is split, and a batch over it
    /// alone is refused rather than written unreadable.
    #[test]
    fn key_cap_splits_a_drain_and_refuses_a_batch_no_record_holds() {
        let dir = temp_dir("key-cap");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        let hot = vec![7u64; 3 << 20];
        let huge = vec![8u64; MAX_RECORD_KEYS + 1];
        w.append_run(0, &[hot.as_slice(), &hot, &huge, &hot, &[9]]);
        let stats = w.commit().unwrap();
        assert_eq!(stats.refused, 1);
        assert_eq!((stats.records, stats.keys), (4, 3 * (3 << 20) + 1));
        assert!(stats.bytes < 200, "runs, not keys: {} bytes", stats.bytes);
        drop(w);
        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.torn_frames, 0);
        let seqs: Vec<u64> = scan.batches.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, [0, 1, 3, 4], "the refused batch alone is missing");
        assert_eq!(scan.batches[2].keys, hot);
        assert_eq!(scan.batches[3].keys, [9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_weighted_record_is_all_or_nothing() {
        let mut good = Vec::new();
        good.extend_from_slice(WEIGHTED_RUN_MAGIC);
        good.extend_from_slice(&2u32.to_le_bytes());
        for (seq, runs) in [(5u64, &[(50u64, 3u32), (51, 1)][..]), (6, &[(60, 2)][..])] {
            good.extend_from_slice(&seq.to_le_bytes());
            good.extend_from_slice(&(runs.len() as u32).to_le_bytes());
            for &(key, weight) in runs {
                good.extend_from_slice(&key.to_le_bytes());
                good.extend_from_slice(&weight.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        assert!(parse_record_payload(&good, &mut out));
        assert_eq!(
            out,
            [
                WalRuns {
                    seq: 5,
                    runs: vec![(50, 3), (51, 1)]
                },
                WalRuns {
                    seq: 6,
                    runs: vec![(60, 2)]
                },
            ]
        );
        let keys: Vec<Vec<u64>> = out.iter().cloned().map(|b| b.expand().keys).collect();
        assert_eq!(keys, [vec![50, 50, 50, 51], vec![60, 60]]);
        for cut in 0..good.len() {
            out.clear();
            assert!(
                !parse_record_payload(&good[..cut], &mut out),
                "truncation at {cut} accepted"
            );
            assert!(out.is_empty(), "truncation at {cut} leaked batches");
        }
        // The weight of batch 6's only run sits in the last four bytes.
        let weight_at = good.len() - 4;
        for (weight, why) in [(0u32, "a zero weight"), (u32::MAX, "weights past the cap")] {
            let mut bad = good.clone();
            bad[weight_at..].copy_from_slice(&weight.to_le_bytes());
            out.clear();
            assert!(!parse_record_payload(&bad, &mut out), "{why} accepted");
            assert!(out.is_empty());
        }
    }

    #[test]
    fn restart_never_appends_to_old_segment() {
        let dir = temp_dir("restart");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(0, &[7]);
        w.commit().unwrap();
        let first_path = w.segment_path().to_path_buf();
        drop(w);
        let w2 = WalWriter::open(&dir, 1, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_ne!(w2.segment_path(), first_path.as_path());
        // Even a restart at the *same* sequence number gets a fresh file.
        let w3 = WalWriter::open(&dir, 1, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_ne!(w3.segment_path(), w2.segment_path());
        fs::remove_dir_all(&dir).unwrap();
    }
}
