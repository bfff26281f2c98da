//! Incremental WAL tailing and replication ack watermarks.
//!
//! [`WalTailer`] is the one reader of the segmented log. The replication
//! shipper uses it to follow the log *while a writer is still appending*,
//! returning each committed batch exactly once, in sequence order: it
//! keeps a cursor per segment and treats an incomplete frame at the end
//! of the newest segment as "not written yet, retry later". Recovery
//! ([`scan_wal`](crate::wal::scan_wal)) drives the same tailer to the end
//! of a quiescent directory and then [`WalTailer::seal`]s it, which is
//! what turns that unfinished tail into a torn one.
//!
//! Each segment's bytes are read once: a cursor keeps what it read but
//! has not decoded yet (the rest of a poll cut short at `max_keys`, or an
//! unfinished frame), and the next poll reads only what was appended
//! after it. [`TailStats::bytes_read`] counts those reads.
//!
//! Both read through one record decoder, which yields each batch as its
//! runs ([`WalTailer::poll_runs`], what recovery replays); the shipper's
//! [`WalTailer::poll`] expands them into keys with
//! [`WalRuns::expand`](crate::wal::WalRuns::expand). The batches are the
//! same either way; only the shape a reader gets them in differs.
//!
//! Damage is handled once, so shipping and recovery cannot disagree: a
//! bad frame in a segment that is no longer the newest ends that
//! segment's contribution (the framing beyond it is untrusted) and the
//! remaining bytes are counted as dropped — shipping under-ships exactly
//! the mass recovery would have dropped, never something else.
//!
//! [`load_ack`] / [`store_ack`] persist the standby's acknowledged
//! sequence number on the primary, CRC-framed. The primary uses it as a
//! *prune floor*: segments holding batches the standby has not yet
//! acknowledged survive checkpoint pruning, so a slow or briefly
//! disconnected standby can always catch up from the log instead of
//! needing a full snapshot resync.
//!
//! AUDIT: total — the tail path decodes arbitrary disk bytes while they
//! are being written; enforced by `cargo xtask audit` (lint-totality).

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cots_core::Result;

use crate::codec::{decode_record, encode_record, read_u64_le, RecordError};
use crate::wal::{list_segments, parse_record_payload, WalBatch, WalRuns, WAL_MAGIC};

/// File name of the persisted replication ack watermark.
pub const ACK_FILE: &str = "repl-ack";

/// File name of the persisted replication lineage (promotion
/// generation) — see [`store_lineage`].
pub const LINEAGE_FILE: &str = "repl-lineage";

/// Cumulative accounting of everything a tailer has read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Valid records decoded (including ones below the start sequence).
    pub records: u64,
    /// Keys inside batches actually returned to the caller.
    pub keys: u64,
    /// Frames abandoned to framing damage or malformed payloads.
    pub torn_frames: u64,
    /// Bytes those abandoned regions spanned.
    pub dropped_bytes: u64,
    /// Segments fully consumed (read to their final frame).
    pub segments_done: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Bytes accounted for so far: decoded frames, segment magics and
    /// abandoned regions. Equals the log's size once sealed.
    pub bytes_scanned: u64,
    /// Bytes read from segment files. Each byte is read once however many
    /// polls it takes to decode, so after a catch-up this is the size of
    /// the segments read.
    pub bytes_read: u64,
    /// Highest sequence number in any valid record (including ones
    /// below the start sequence).
    pub max_seq: Option<u64>,
}

/// Per-segment read cursor.
#[derive(Debug)]
struct SegCursor {
    first_seq: u64,
    path: PathBuf,
    /// Next byte offset to decode from.
    offset: u64,
    /// The file's bytes from `offset` on that were read but not decoded
    /// yet; the next read starts after them.
    pending: Vec<u8>,
    /// No more frames will ever be taken from this segment.
    done: bool,
}

/// Follows a live WAL directory, yielding each committed batch once.
///
/// Batches are returned in strictly increasing sequence order starting
/// at `from_seq`; duplicates and regressions (which a restarted writer
/// can produce) are skipped exactly as in recovery.
#[derive(Debug)]
pub struct WalTailer {
    dir: PathBuf,
    from_seq: u64,
    last_seq: Option<u64>,
    segments: Vec<SegCursor>,
    /// Cumulative read accounting.
    pub stats: TailStats,
}

impl WalTailer {
    /// Tail `dir`, returning batches with `seq >= from_seq`.
    pub fn new(dir: &Path, from_seq: u64) -> Self {
        Self {
            dir: dir.to_path_buf(),
            from_seq,
            last_seq: None,
            segments: Vec::new(),
            stats: TailStats::default(),
        }
    }

    /// The highest sequence number handed out so far, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Re-list the directory, keeping existing cursors and appending
    /// newly appeared segments in scan order.
    fn refresh(&mut self) -> Result<()> {
        let found = list_segments(&self.dir)?;
        // Cursors for files that disappeared (pruned) are dropped; any
        // unread frames they held are gone for recovery too, so the
        // shipper and a restart agree on what was lost.
        self.segments
            .retain(|c| found.iter().any(|(_, p)| *p == c.path));
        for (first_seq, path) in found {
            if !self.segments.iter().any(|c| c.path == path) {
                self.stats.segments += 1;
                self.segments.push(SegCursor {
                    first_seq,
                    path,
                    offset: 0,
                    pending: Vec::new(),
                    done: false,
                });
            }
        }
        self.segments
            .sort_by(|a, b| (a.first_seq, &a.path).cmp(&(b.first_seq, &b.path)));
        Ok(())
    }

    /// Read every complete, committed batch currently available, up to
    /// roughly `max_keys` keys (at least one batch is returned when any
    /// is available), each expanded into its keys. An empty vec means
    /// "caught up, poll again later".
    pub fn poll(&mut self, max_keys: usize) -> Result<Vec<WalBatch>> {
        let runs = self.poll_runs(max_keys)?;
        Ok(runs.into_iter().map(WalRuns::expand).collect())
    }

    /// [`poll`](WalTailer::poll), every batch left as the runs it was
    /// logged as.
    pub fn poll_runs(&mut self, max_keys: usize) -> Result<Vec<WalRuns>> {
        self.refresh()?;
        let mut out: Vec<WalRuns> = Vec::new();
        let mut out_keys = 0usize;
        let n = self.segments.len();
        for i in 0..n {
            if out_keys >= max_keys && !out.is_empty() {
                break;
            }
            // PANIC-OK: `i < n == self.segments.len()` and nothing in the
            // loop changes the vec's length.
            let c = &mut self.segments[i];
            if c.done {
                continue;
            }
            // The cursor's unread bytes, then whatever was appended since.
            let mut bytes = std::mem::take(&mut c.pending);
            match read_from(&c.path, c.offset + bytes.len() as u64, &mut bytes) {
                Ok(read) => self.stats.bytes_read += read as u64,
                // The file can vanish between listing and reading
                // (pruned); treat as done, a refresh will drop it.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    c.done = true;
                    continue;
                }
                // Anything else (permissions, a failing disk) must not
                // pass for an empty segment: recovery would silently
                // under-count and the shipper would skip live data.
                Err(e) => return Err(e.into()),
            }
            let is_last = i + 1 == n;
            let used = self.decode_segment(i, is_last, &bytes, max_keys, &mut out, &mut out_keys);
            // PANIC-OK: same in-bounds `i` as above.
            let c = &mut self.segments[i];
            c.offset += used as u64;
            if c.done {
                continue;
            }
            if !is_last && used == bytes.len() {
                // A sealed (non-newest) segment read cleanly to EOF will
                // never grow again: retire its cursor.
                c.done = true;
                self.stats.segments_done += 1;
            } else {
                bytes.drain(..used);
                c.pending = bytes;
            }
        }
        Ok(out)
    }

    /// Decode segment `i`'s unread `bytes` (the file from its cursor on)
    /// into `out` until it holds `max_keys` keys (`out_keys`) and at
    /// least one batch. Returns how many bytes were consumed; damage marks
    /// the segment done.
    fn decode_segment(
        &mut self,
        i: usize,
        is_last: bool,
        bytes: &[u8],
        max_keys: usize,
        out: &mut Vec<WalRuns>,
        out_keys: &mut usize,
    ) -> usize {
        let mut off = 0usize;
        // The magic prefix is consumed once per segment.
        // PANIC-OK: callers pass an `i` bounded by the poll loop.
        if self.segments[i].offset == 0 {
            if bytes.len() < WAL_MAGIC.len() {
                if !is_last {
                    // A newer segment exists: this stub will never grow
                    // into a valid segment.
                    self.finish_segment(i, bytes.len() as u64);
                }
                return 0;
            }
            if bytes.get(..WAL_MAGIC.len()) != Some(WAL_MAGIC.as_slice()) {
                self.finish_segment(i, bytes.len() as u64);
                return 0;
            }
            off = WAL_MAGIC.len();
            self.stats.bytes_scanned += off as u64;
        }
        let mut parsed: Vec<WalRuns> = Vec::new();
        while off < bytes.len() {
            if *out_keys >= max_keys && !out.is_empty() {
                break;
            }
            match decode_record(bytes.get(off..).unwrap_or(&[])) {
                Ok((payload, consumed)) => {
                    off += consumed;
                    self.stats.bytes_scanned += consumed as u64;
                    parsed.clear();
                    if parse_record_payload(payload, &mut parsed) {
                        for batch in parsed.drain(..) {
                            self.stats.records += 1;
                            self.stats.max_seq = self.stats.max_seq.max(Some(batch.seq));
                            let fresh = batch.seq >= self.from_seq
                                && self.last_seq.is_none_or(|l| batch.seq > l);
                            if fresh {
                                let keys = batch.keys();
                                self.last_seq = Some(batch.seq);
                                self.stats.keys += keys as u64;
                                *out_keys += keys;
                                out.push(batch);
                            }
                        }
                    } else {
                        // CRC-valid frame, malformed payload: framing is
                        // trustworthy, skip just it.
                        self.stats.torn_frames += 1;
                        self.stats.dropped_bytes += consumed as u64;
                    }
                }
                Err(RecordError::Incomplete) if is_last => {
                    // Mid-write tail of the active segment: the writer
                    // will finish it; decode it next poll.
                    break;
                }
                Err(_) => {
                    // Permanent damage (or a rotation left a torn tail
                    // behind): recovery would stop here too.
                    self.finish_segment(i, (bytes.len() - off) as u64);
                    break;
                }
            }
        }
        off
    }

    /// Declare the log quiescent: nobody will finish what the newest
    /// segment still holds unread (a half-written frame, or a file too
    /// short to carry the segment magic), so book it as a torn tail the
    /// way a sealed segment's would have been. Recovery calls this once
    /// the tailer has caught up; a live shipper never does.
    pub fn seal(&mut self) {
        let Some(i) = self.segments.len().checked_sub(1) else {
            return;
        };
        // PANIC-OK: `i` is the last index of a non-empty vec.
        let c = &self.segments[i];
        if c.done {
            return;
        }
        let len = fs::metadata(&c.path).map_or(c.offset, |m| m.len());
        let unread = len.saturating_sub(c.offset);
        if unread > 0 || c.offset == 0 {
            self.finish_segment(i, unread);
        }
    }

    /// Mark segment `i` consumed after damage: one torn frame spanning
    /// `dropped` abandoned bytes.
    fn finish_segment(&mut self, i: usize, dropped: u64) {
        self.stats.torn_frames += 1;
        self.stats.dropped_bytes += dropped;
        self.stats.bytes_scanned += dropped;
        // PANIC-OK: callers pass an `i` bounded by the poll loop.
        self.segments[i].done = true;
        self.stats.segments_done += 1;
    }
}

/// Append `path`'s bytes from `offset` to EOF to `buf`; returns how many.
fn read_from(path: &Path, offset: u64, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_to_end(buf)
}

/// The first sequence number still available in the log under `dir`:
/// the smallest segment start. `None` when no segments exist.
pub fn oldest_segment_seq(dir: &Path) -> Result<Option<u64>> {
    Ok(list_segments(dir)?.first().map(|(first, _)| *first))
}

/// Durably record the standby's acknowledged sequence number.
///
/// Written via temp file + atomic rename, CRC-framed; [`load_ack`]
/// treats any damage as "never acked" (sequence 0), which only makes
/// the primary retain more log than strictly needed — never less.
pub fn store_ack(dir: &Path, ack_seq: u64) -> Result<()> {
    store_watermark_file(dir, ACK_FILE, ack_seq)
}

/// Load the persisted ack watermark; 0 when absent or damaged (total:
/// arbitrary file contents never panic).
pub fn load_ack(dir: &Path) -> u64 {
    load_watermark_file(dir, ACK_FILE)
}

/// Whether a [`store_ack`] watermark file exists under `dir` — i.e.
/// whether a replication peer has ever acknowledged anything here.
/// Damage does not matter for this question (a damaged file still
/// proves a peer existed), only absence does.
pub fn has_ack(dir: &Path) -> bool {
    dir.join(ACK_FILE).exists()
}

/// Durably record this instance's replication lineage: the promotion
/// generation of the history it follows. A pair starts at lineage 0;
/// every standby → primary promotion increments it. The lineage is
/// carried on every `REPL_*` stream operation so a standby can refuse
/// a primary whose history diverged from its own (a dead ex-primary's
/// un-acked tail) instead of silently acknowledging unseen data.
///
/// Same temp-file + atomic-rename + CRC discipline as [`store_ack`].
pub fn store_lineage(dir: &Path, lineage: u64) -> Result<()> {
    store_watermark_file(dir, LINEAGE_FILE, lineage)
}

/// Load the persisted lineage; 0 when absent or damaged (total:
/// arbitrary file contents never panic). Damage degrading to lineage 0
/// is the conservative direction: a zeroed lineage makes this node
/// look *older*, so peers refuse it rather than trusting it.
pub fn load_lineage(dir: &Path) -> u64 {
    load_watermark_file(dir, LINEAGE_FILE)
}

/// Shared writer for the small CRC-framed u64 watermark files.
fn store_watermark_file(dir: &Path, name: &str, value: u64) -> Result<()> {
    let mut framed = Vec::new();
    encode_record(&value.to_le_bytes(), &mut framed);
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let mut f = File::create(&tmp)?;
    f.write_all(&framed)?;
    f.sync_data()?;
    fs::rename(&tmp, &path)?;
    Ok(())
}

/// Shared reader for the small CRC-framed u64 watermark files.
fn load_watermark_file(dir: &Path, name: &str) -> u64 {
    let Ok(bytes) = fs::read(dir.join(name)) else {
        return 0;
    };
    match decode_record(&bytes) {
        Ok((payload, _)) => read_u64_le(payload, 0).unwrap_or(0),
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{parse_segment_name, scan_wal, FsyncPolicy, WalWriter, DEFAULT_SEGMENT_BYTES};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cots-persist-tail-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tailer_follows_a_live_writer() {
        let dir = temp_dir("live");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        let mut t = WalTailer::new(&dir, 0);
        assert!(
            t.poll(usize::MAX).unwrap().is_empty(),
            "nothing committed yet"
        );

        w.append(0, &[1, 2]);
        w.append(1, &[3]);
        w.commit().unwrap();
        let got = t.poll(usize::MAX).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0],
            WalBatch {
                seq: 0,
                keys: vec![1, 2]
            }
        );
        assert_eq!(t.last_seq(), Some(1));

        // Nothing new: caught up.
        assert!(t.poll(usize::MAX).unwrap().is_empty());

        w.append(2, &[4, 5, 6]);
        w.commit().unwrap();
        let got = t.poll(usize::MAX).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 2);
        assert_eq!(t.stats.keys, 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tailer_crosses_segment_rotation() {
        let dir = temp_dir("rotate");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 16).unwrap();
        let mut t = WalTailer::new(&dir, 0);
        let mut seen = Vec::new();
        for seq in 0..6u64 {
            w.append(seq, &[seq * 10, seq * 10 + 1]);
            w.commit().unwrap();
            for b in t.poll(usize::MAX).unwrap() {
                seen.push(b.seq);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert!(t.stats.segments_done >= 1, "old segments consumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tailer_matches_scan_on_quiescent_log() {
        let dir = temp_dir("parity");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 64).unwrap();
        for seq in 0..20u64 {
            w.append(seq, &[seq, seq + 1, seq + 2]);
            if seq % 3 == 0 {
                w.commit().unwrap();
            }
        }
        w.commit().unwrap();
        drop(w);
        let scan = scan_wal(&dir, 4).unwrap();
        let mut t = WalTailer::new(&dir, 4);
        let mut tailed = Vec::new();
        loop {
            let got = t.poll(7).unwrap(); // tiny budget: many polls
            if got.is_empty() {
                break;
            }
            tailed.extend(got);
        }
        assert_eq!(tailed, scan.batches);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A catch-up in polls far smaller than a segment reads every
    /// segment byte once, and yields what one big poll would.
    #[test]
    fn many_poll_catch_up_reads_each_segment_once() {
        let dir = temp_dir("once");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 4096).unwrap();
        for seq in 0..400u64 {
            let keys: Vec<u64> = (0..(seq % 13 + 1)).map(|k| k * 977 + seq).collect();
            w.append(seq, &keys);
            if seq % 4 == 3 {
                w.commit().unwrap();
            }
        }
        w.commit().unwrap();
        drop(w);
        let size: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(p).is_some())
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        let mut one = WalTailer::new(&dir, 0);
        let whole = one.poll(usize::MAX).unwrap();
        let mut t = WalTailer::new(&dir, 0);
        let mut tailed = Vec::new();
        let mut polls = 0;
        loop {
            let got = t.poll(5).unwrap();
            if got.is_empty() {
                break;
            }
            polls += 1;
            tailed.extend(got);
        }
        assert!(t.stats.segments_done >= 2, "spans several segments");
        assert!(polls > 100, "{polls} polls");
        assert_eq!(tailed, whole);
        assert_eq!(
            t.stats.bytes_read, size,
            "each byte read once over {polls} polls"
        );
        assert_eq!(one.stats.bytes_read, size);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_of_active_segment_waits_then_resumes() {
        let dir = temp_dir("midwrite");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(0, &[1]);
        w.commit().unwrap();
        let path = w.segment_path().to_path_buf();
        let mut t = WalTailer::new(&dir, 0);
        assert_eq!(t.poll(usize::MAX).unwrap().len(), 1);

        // Simulate a half-written record: append a torn frame by hand.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        let mut framed = Vec::new();
        encode_record(&payload, &mut framed);
        let full = fs::read(&path).unwrap();
        let torn = [&full[..], &framed[..framed.len() - 4]].concat();
        fs::write(&path, &torn).unwrap();
        assert!(t.poll(usize::MAX).unwrap().is_empty(), "waits for the rest");
        assert_eq!(t.stats.torn_frames, 0, "not damage yet");

        // The writer finishes the record: the tailer picks it up.
        fs::write(&path, [&full[..], &framed[..]].concat()).unwrap();
        let got = t.poll(usize::MAX).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0],
            WalBatch {
                seq: 1,
                keys: vec![9]
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_sealed_segment_is_skipped_like_recovery() {
        let dir = temp_dir("damage");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 16).unwrap();
        for seq in 0..6u64 {
            w.append(seq, &[seq]);
            w.commit().unwrap();
        }
        drop(w);
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(p).is_some())
            .collect();
        segs.sort();
        assert!(segs.len() >= 3);
        // Flip a payload byte mid-segment: CRC damage in a sealed file.
        let mut bytes = fs::read(&segs[1]).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xFF;
        fs::write(&segs[1], &bytes).unwrap();

        let mut t = WalTailer::new(&dir, 0);
        let mut tailed = Vec::new();
        loop {
            let got = t.poll(usize::MAX).unwrap();
            if got.is_empty() {
                break;
            }
            tailed.extend(got.into_iter().map(|b| b.seq));
        }
        let scan = scan_wal(&dir, 0).unwrap();
        let scanned: Vec<u64> = scan.batches.iter().map(|b| b.seq).collect();
        assert_eq!(
            tailed, scanned,
            "tailer under-ships exactly what recovery drops"
        );
        assert!(t.stats.torn_frames >= 1);
        assert!(t.stats.dropped_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ack_watermark_round_trips_and_tolerates_damage() {
        let dir = temp_dir("ack");
        assert_eq!(load_ack(&dir), 0, "absent file reads as never-acked");
        store_ack(&dir, 42).unwrap();
        assert_eq!(load_ack(&dir), 42);
        store_ack(&dir, 43).unwrap();
        assert_eq!(load_ack(&dir), 43, "overwrite advances");
        let path = dir.join(ACK_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_ack(&dir), 0, "damage degrades to never-acked");
        fs::write(&path, b"").unwrap();
        assert_eq!(load_ack(&dir), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lineage_round_trips_and_tolerates_damage() {
        let dir = temp_dir("lineage");
        assert_eq!(load_lineage(&dir), 0, "absent file reads as lineage 0");
        assert!(!has_ack(&dir));
        store_lineage(&dir, 3).unwrap();
        assert_eq!(load_lineage(&dir), 3);
        assert!(!has_ack(&dir), "lineage file is not the ack file");
        store_ack(&dir, 7).unwrap();
        assert!(has_ack(&dir));
        assert_eq!(load_ack(&dir), 7, "the two files never alias");
        let path = dir.join(LINEAGE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_lineage(&dir), 0, "damage degrades to lineage 0");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oldest_segment_seq_tracks_pruning() {
        let dir = temp_dir("oldest");
        assert_eq!(oldest_segment_seq(&dir).unwrap(), None);
        let mut w = WalWriter::open(&dir, 3, FsyncPolicy::Off, 16).unwrap();
        for seq in 3..9u64 {
            w.append(seq, &[seq, seq]);
            w.commit().unwrap();
        }
        drop(w);
        assert_eq!(oldest_segment_seq(&dir).unwrap(), Some(3));
        crate::wal::prune_wal(&dir, 100).unwrap();
        let oldest = oldest_segment_seq(&dir).unwrap().unwrap();
        assert!(oldest > 3, "pruning advances the oldest available seq");
        fs::remove_dir_all(&dir).unwrap();
    }
}
