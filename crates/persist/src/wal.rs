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
//! record payload := batch | run
//! batch := [seq: u64 le][nkeys: u32 le][key: u64 le]*nkeys
//! run   := [magic "COTSRUN\xB1": 8 bytes][nbatches: u32 le][batch]*nbatches
//! ```
//!
//! A *run* record ([`WalWriter::append_run`]) packs a whole ring drain
//! of consecutive batches into one CRC frame: one checksum and one
//! length prefix per drain instead of per batch, which is the log-side
//! twin of the BIN1 wire encoding (same per-batch byte layout). It is
//! the only form the running service writes (a drain of one batch is a
//! run of one). Legacy per-batch records ([`WalWriter::append`]) and run
//! records coexist freely in one directory — recovery and tailing parse
//! both — so data directories written by older builds replay unchanged. The run magic's little-endian `u64`
//! value has its top bit set (> 2⁶³), which no monotone batch sequence
//! number ever reaches, so the two payload forms cannot be confused.
//!
//! Segments are named `wal-{first_seq:016x}.wal` after the first sequence
//! number they may contain. After a crash the scanner recovers the valid
//! prefix of every segment; a torn or corrupt frame ends that segment's
//! contribution (framing beyond it cannot be trusted) and the remaining
//! bytes are accounted as dropped. Restarted writers always open a *new*
//! segment at the next sequence number — they never append to a
//! possibly-torn file.
//!
//! Reading the log back — at recovery ([`scan_wal`]) and while it is
//! still being written (the replication shipper) — is one loop, in
//! [`crate::tail`].
//!
//! AUDIT: total — the record parsers decode arbitrary disk bytes;
//! enforced by `cargo xtask audit` (lint-totality).

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use cots_core::{CotsError, Result};

use crate::codec::{encode_record, read_u32_le, read_u64_le};
use crate::tail::WalTailer;

/// Magic prefix of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"COTSWAL1";

/// Magic prefix of a multi-batch *run* record payload. Sits where a
/// legacy record's `seq` field would: its little-endian value exceeds
/// 2⁶³, unreachable for a monotone sequence counter, so legacy and run
/// payloads are unambiguous.
pub const RUN_MAGIC: &[u8; 8] = b"COTSRUN\xB1";

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
    /// The keys of the batch, in ingest order.
    pub keys: Vec<u64>,
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
    pub fn open(dir: &Path, next_seq: u64, policy: FsyncPolicy, segment_bytes: u64) -> Result<Self> {
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
        encode_record(&payload, &mut self.buf);
        self.pending_records += 1;
        self.pending_keys += keys.len() as u64;
        self.pending_first_seq.get_or_insert(seq);
    }

    /// Stage a whole drain of consecutive batches as one *run* record:
    /// batch `i` carries sequence `first_seq + i`. One CRC frame per
    /// drain instead of one per batch. Nothing reaches the OS until
    /// [`commit`]; an empty slice stages nothing.
    ///
    /// [`commit`]: WalWriter::commit
    pub fn append_run<B: AsRef<[u64]>>(&mut self, first_seq: u64, batches: &[B]) {
        if batches.is_empty() {
            return;
        }
        let keys: usize = batches.iter().map(|b| b.as_ref().len()).sum();
        let mut payload = Vec::with_capacity(12 + batches.len() * 12 + keys * 8);
        payload.extend_from_slice(RUN_MAGIC);
        payload.extend_from_slice(&(batches.len() as u32).to_le_bytes());
        for (i, batch) in batches.iter().enumerate() {
            let batch = batch.as_ref();
            payload.extend_from_slice(&(first_seq + i as u64).to_le_bytes());
            payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for k in batch {
                payload.extend_from_slice(&k.to_le_bytes());
            }
        }
        encode_record(&payload, &mut self.buf);
        self.pending_records += batches.len() as u64;
        self.pending_keys += keys as u64;
        self.pending_first_seq.get_or_insert(first_seq);
    }

    /// Group-commit everything staged since the last commit: rotate the
    /// segment if it is over the threshold, write the staged bytes, and
    /// apply the fsync policy.
    pub fn commit(&mut self) -> Result<CommitStats> {
        if self.buf.is_empty() {
            return Ok(CommitStats::default());
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
        };
        self.written += self.buf.len() as u64;
        self.buf.clear();
        self.pending_records = 0;
        self.pending_keys = 0;
        self.pending_first_seq = None;
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
    let stem = name.strip_prefix("wal-")?.strip_suffix(&format!(".{WAL_EXT}"))?;
    let hex = stem.split('-').next()?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Everything a scan of the log directory recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Recovered batches with `seq >= from_seq`, in sequence order.
    pub batches: Vec<WalBatch>,
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

/// Scan every WAL segment in `dir` and recover the valid prefix of each.
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
pub fn scan_wal(dir: &Path, from_seq: u64) -> Result<WalScan> {
    let mut tailer = WalTailer::new(dir, from_seq);
    let batches = tailer.poll(usize::MAX)?;
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

/// Decode one batch at byte offset `off`; returns the batch and the
/// offset just past it. `None` on any layout violation.
fn parse_one_batch(payload: &[u8], off: usize) -> Option<(WalBatch, usize)> {
    let seq = read_u64_le(payload, off)?;
    let nkeys = read_u32_le(payload, off.checked_add(8)?)? as usize;
    let start = off.checked_add(12)?;
    let end = start.checked_add(nkeys.checked_mul(8)?)?;
    let keys: Vec<u64> = payload
        .get(start..end)?
        .chunks_exact(8)
        .filter_map(|c| read_u64_le(c, 0))
        .collect();
    Some((WalBatch { seq, keys }, end))
}

/// Decode one CRC-valid record payload — a legacy single-batch record
/// or a multi-batch run record — appending its batches to `out` in
/// order. Returns `false` (and appends nothing) on a malformed payload:
/// a record decodes all-or-nothing, mirroring its all-or-nothing CRC.
pub(crate) fn parse_record_payload(payload: &[u8], out: &mut Vec<WalBatch>) -> bool {
    if payload.get(..RUN_MAGIC.len()) == Some(RUN_MAGIC.as_slice()) {
        let Some(nbatches) = read_u32_le(payload, 8) else {
            return false;
        };
        let mut off = 12usize;
        let mut run = Vec::new();
        for _ in 0..nbatches {
            match parse_one_batch(payload, off) {
                Some((batch, next)) => {
                    run.push(batch);
                    off = next;
                }
                None => return false,
            }
        }
        if off != payload.len() {
            return false;
        }
        out.extend(run);
        return true;
    }
    match parse_one_batch(payload, 0) {
        Some((batch, end)) if end == payload.len() => {
            out.push(batch);
            true
        }
        _ => false,
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
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("grouped".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Grouped);
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
        assert_eq!(w.commit().unwrap(), CommitStats::default(), "empty commit is a no-op");

        let scan = scan_wal(&dir, 0).unwrap();
        assert_eq!(scan.segments, 1);
        assert_eq!(scan.records, 3);
        assert_eq!(scan.torn_frames, 0);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.max_seq, Some(2));
        assert_eq!(
            scan.batches,
            vec![
                WalBatch { seq: 0, keys: vec![1, 2, 3] },
                WalBatch { seq: 1, keys: vec![4] },
                WalBatch { seq: 2, keys: vec![] },
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
        assert!(n_segments >= 2, "expected rotation, got {n_segments} segment(s)");
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
        assert_eq!((stats.records, stats.keys), (3, 4), "records counts logical batches");
        drop(w);

        let legacy_dir = temp_dir("run-legacy");
        let mut w = WalWriter::open(&legacy_dir, 10, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
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
                WalBatch { seq: 0, keys: vec![100] },
                WalBatch { seq: 1, keys: vec![101] },
                WalBatch { seq: 2, keys: vec![102, 103] },
                WalBatch { seq: 3, keys: vec![104] },
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
            assert!(!parse_record_payload(&good[..cut], &mut out), "truncation at {cut} accepted");
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
