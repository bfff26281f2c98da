//! Epoch-consistent checkpoint files.
//!
//! A checkpoint captures the one summary of the whole service —
//! entries, total processed mass, publisher epoch — together with the WAL
//! **watermark**: the first batch sequence number *not* contained in the
//! snapshot. Recovery loads the newest valid checkpoint and replays WAL
//! batches with `seq >= watermark`; the pair is exact because the capture
//! runs under the ingest freeze gate (see `cots-serve`).
//!
//! ## File format
//!
//! ```text
//! [magic "COTSCKP1": 8 bytes][one CRC record: JSON-encoded Checkpoint]
//! ```
//!
//! Files are named `ckpt-{watermark:016x}.ckpt` and committed by writing
//! to a temporary name, `fsync`ing the file, atomically renaming into
//! place, and `fsync`ing the directory. A reader therefore never observes
//! a partially written checkpoint under a committed name; anything that
//! slips through anyway (bit rot, manual tampering) is caught by the CRC
//! and by [`Checkpoint::validate`], and recovery falls back to the next
//! older file.
//!
//! AUDIT: total — the load path decodes arbitrary disk bytes; enforced by
//! `cargo xtask audit` (lint-totality).

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use cots_core::json_record;
use cots_core::{CotsError, CounterEntry, Result, Snapshot};

use crate::codec::{decode_record, encode_record, MAX_RECORD};

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"COTSCKP1";

/// File extension of committed checkpoints.
pub const CKPT_EXT: &str = "ckpt";

json_record! {
    /// A decoded checkpoint: one consistent summary of the service plus the
    /// WAL position it corresponds to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Checkpoint {
        /// First WAL batch sequence number *not* reflected in `entries`.
        /// Recovery replays `seq >= watermark`.
        pub watermark: u64,
        /// Snapshot-publisher epoch at capture time; the restarted publisher
        /// resumes from here so client-visible epochs stay monotone.
        pub epoch: u64,
        /// Summary capacity the entries were produced under.
        pub capacity: usize,
        /// Total stream mass the summary accounts for.
        pub total: u64,
        /// Summary entries, sorted by descending count.
        pub entries: Vec<CounterEntry<u64>>,
    }
}

impl Checkpoint {
    /// Build a checkpoint from a captured snapshot.
    pub fn from_snapshot(
        watermark: u64,
        epoch: u64,
        capacity: usize,
        snap: &Snapshot<u64>,
    ) -> Self {
        Self {
            watermark,
            epoch,
            capacity,
            total: snap.total(),
            entries: snap.entries().to_vec(),
        }
    }

    /// View the checkpoint's summary as a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot<u64> {
        Snapshot::new(self.entries.clone(), self.total)
    }

    /// Semantic validation beyond the CRC: a CRC-valid file whose contents
    /// violate the Space-Saving envelope must be rejected, otherwise a
    /// recovered service would advertise bounds it cannot honor.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity is zero".into());
        }
        if self.entries.len() > self.capacity {
            return Err(format!(
                "{} entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        let mut guaranteed: u64 = 0;
        for e in &self.entries {
            if e.error > e.count {
                return Err(format!(
                    "entry {} has error {} > count {}",
                    e.item, e.error, e.count
                ));
            }
            guaranteed = guaranteed
                .checked_add(e.count - e.error)
                .ok_or_else(|| "guaranteed mass overflows u64".to_string())?;
        }
        if guaranteed > self.total {
            return Err(format!(
                "guaranteed mass {} exceeds recorded total {}",
                guaranteed, self.total
            ));
        }
        Ok(())
    }

    /// The committed file name for this checkpoint.
    pub fn file_name(&self) -> String {
        format!("ckpt-{:016x}.{CKPT_EXT}", self.watermark)
    }
}

/// Serialize and commit `ckpt` into `dir`, atomically.
///
/// Returns the committed path and the file size in bytes.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> Result<(PathBuf, u64)> {
    let mut buf = Vec::with_capacity(64 + ckpt.entries.len() * 48);
    buf.extend_from_slice(CKPT_MAGIC);
    let payload = cots_core::json::to_string(ckpt);
    if encode_record(payload.as_bytes(), &mut buf).is_none() {
        return Err(CotsError::Report(format!(
            "checkpoint of {} entries exceeds the {MAX_RECORD}-byte record limit",
            ckpt.entries.len()
        )));
    }

    let final_path = dir.join(ckpt.file_name());
    let tmp_path = dir.join(format!("{}.tmp", ckpt.file_name()));
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok((final_path, buf.len() as u64))
}

/// Load and fully validate the checkpoint at `path`.
///
/// Total: any file content yields `Ok` or a [`CotsError::Report`], never a
/// panic.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.get(..CKPT_MAGIC.len()) != Some(CKPT_MAGIC.as_slice()) {
        return Err(CotsError::Report(format!(
            "{}: not a checkpoint file (bad magic)",
            path.display()
        )));
    }
    let (payload, consumed) = decode_record(bytes.get(CKPT_MAGIC.len()..).unwrap_or(&[]))
        .map_err(|e| CotsError::Report(format!("{}: {e}", path.display())))?;
    if CKPT_MAGIC.len() + consumed != bytes.len() {
        return Err(CotsError::Report(format!(
            "{}: trailing garbage after checkpoint record",
            path.display()
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| CotsError::Report(format!("{}: payload not UTF-8: {e}", path.display())))?;
    let ckpt: Checkpoint = cots_core::json::from_str(text)
        .map_err(|e| CotsError::Report(format!("{}: {e}", path.display())))?;
    // A CRC-valid but semantically broken checkpoint is rejected here.
    ckpt.validate()
        .map_err(|e| CotsError::Report(format!("{}: invalid checkpoint: {e}", path.display())))?;
    Ok(ckpt)
}

/// List committed checkpoint files in `dir`, newest first (by the
/// watermark encoded in the file name).
pub fn find_checkpoints(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(watermark) = parse_checkpoint_name(&path) {
            found.push((watermark, path));
        }
    }
    found.sort_by_key(|&(watermark, _)| std::cmp::Reverse(watermark));
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// Delete all but the newest `keep` committed checkpoints. Keeping more
/// than one lets recovery fall back when the newest file is damaged.
/// Removal errors are ignored — pruning is an optimization. Returns the
/// number of files removed.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<u64> {
    let found = find_checkpoints(dir)?;
    let mut removed = 0;
    for path in found.iter().skip(keep.max(1)) {
        if fs::remove_file(path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Parse `ckpt-{watermark:016x}.ckpt`; `None` for anything else
/// (including `.tmp` leftovers from a crashed commit).
pub fn parse_checkpoint_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("ckpt-")?
        .strip_suffix(&format!(".{CKPT_EXT}"))?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// `fsync` a directory so a just-committed rename survives power loss.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // Opening a directory read-only and calling sync_all is the portable
    // std spelling of fsync(dirfd); on platforms where directories cannot
    // be synced this degrades to a no-op error we swallow.
    match File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cots-persist-ckpt-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            watermark: 42,
            epoch: 7,
            capacity: 4,
            total: 100,
            entries: vec![
                CounterEntry::new(1, 50, 0),
                CounterEntry::new(2, 30, 10),
                CounterEntry::new(3, 20, 20),
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let c = sample();
        let back: Checkpoint = cots_core::json::from_str(&cots_core::json::to_string(&c)).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn write_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let c = sample();
        let (path, bytes) = write_checkpoint(&dir, &c).unwrap();
        assert!(path.ends_with("ckpt-000000000000002a.ckpt"));
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(c, back);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn find_orders_newest_first_and_skips_tmp() {
        let dir = temp_dir("find");
        for wm in [3u64, 1, 2] {
            let mut c = sample();
            c.watermark = wm;
            write_checkpoint(&dir, &c).unwrap();
        }
        fs::write(dir.join("ckpt-00000000000000ff.ckpt.tmp"), b"junk").unwrap();
        fs::write(dir.join("wal-0000000000000000.wal"), b"junk").unwrap();
        let found = find_checkpoints(&dir).unwrap();
        let wms: Vec<u64> = found
            .iter()
            .map(|p| parse_checkpoint_name(p).unwrap())
            .collect();
        assert_eq!(wms, vec![3, 2, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_error_not_panic() {
        let dir = temp_dir("corrupt");
        let (path, _) = write_checkpoint(&dir, &sample()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(load_checkpoint(&path).is_err());
        // Truncations at every length are also errors, never panics.
        let full = {
            let (p, _) = write_checkpoint(&dir, &sample()).unwrap();
            fs::read(p).unwrap()
        };
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(load_checkpoint(&path).is_err(), "cut at {cut} decoded");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn semantically_invalid_checkpoint_is_rejected() {
        // error > count violates the envelope even if the CRC is intact.
        // CounterEntry::new asserts, so the hostile file is crafted as raw
        // JSON — exactly what an attacker or bit-rot-past-the-CRC would
        // present to the loader.
        let payload = r#"{"watermark": 42, "epoch": 7, "capacity": 4, "total": 100,
            "entries": [{"item": 9, "count": 5, "error": 6}]}"#;
        let dir = temp_dir("semantic");
        let mut buf = Vec::new();
        buf.extend_from_slice(CKPT_MAGIC);
        encode_record(payload.as_bytes(), &mut buf);
        let path = dir.join("ckpt-000000000000002a.ckpt");
        fs::write(&path, &buf).unwrap();
        assert!(load_checkpoint(&path).is_err());

        // Claiming less total mass than the guaranteed counts also fails.
        let mut c2 = sample();
        c2.total = 10;
        assert!(c2.validate().is_err());
        // As does more entries than capacity.
        let mut c3 = sample();
        c3.capacity = 2;
        assert!(c3.validate().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
