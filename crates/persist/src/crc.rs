//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven,
//! slicing-by-8.
//!
//! Used to frame every on-disk record so that torn writes, bit rot, and
//! garbage tails are detected instead of decoded. The tables are
//! generated at compile time; no dependencies.
//!
//! Slicing-by-8 folds eight input bytes per step through eight tables
//! (`TABLES[k]` advances a byte's contribution by `k` further bytes), so
//! the loop-carried dependency is one table round per 8 bytes instead of
//! per byte. It computes exactly the bytewise CRC: every segment and
//! checkpoint written by the one-table loop verifies unchanged.
//!
//! AUDIT: total — enforced by `cargo xtask audit` (lint-totality).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic one-byte-per-step table; `TABLES[k]` is the
/// CRC of a byte followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // PANIC-OK: `i < 256` is the loop condition and every table has
        // exactly 256 entries; a miss is a compile error (const fn).
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // PANIC-OK: `1 <= k < 8` and `i < 256` are the loop
            // conditions, and the inner index is masked to `& 0xFF`; a
            // miss is a compile error (const fn).
            let prev = tables[k - 1][i];
            // PANIC-OK: same bounds as the line above.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One table lookup: the low byte of `x` through `TABLES[k]`.
#[inline(always)]
fn fold(k: usize, x: u32) -> u32 {
    // PANIC-OK: every caller passes a constant `k < 8`, and the inner
    // index is masked to `& 0xFF` for the 256-entry tables.
    TABLES[k][(x & 0xFF) as usize]
}

/// CRC-32 of `data` (initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`;
/// the common "crc32" as computed by zlib, gzip, and PNG).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
        let lo = word as u32 ^ crc;
        let hi = (word >> 32) as u32;
        crc = fold(7, lo)
            ^ fold(6, lo >> 8)
            ^ fold(5, lo >> 16)
            ^ fold(4, lo >> 24)
            ^ fold(3, hi)
            ^ fold(2, hi >> 8)
            ^ fold(1, hi >> 16)
            ^ fold(0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ fold(0, crc ^ b as u32);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step loop the tables must reproduce exactly.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worlc");
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every length 0–4 KiB at every alignment 0–7: the word loop, the
        /// tail loop and their seam all agree with the bytewise CRC.
        #[test]
        fn slicing_by_8_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
            start in 0usize..8,
            len in 0usize..=4096,
        ) {
            let start = start.min(data.len());
            let end = (start + len).min(data.len());
            let slice = &data[start..end];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }
    }
}
