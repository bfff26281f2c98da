//! Multiplicative hashing (Knuth, TAOCP vol. 3 §6.4).
//!
//! The paper's search structure uses "a moderately robust hash function (such
//! as *Multiplicative Hashing*)" so that two writers rarely collide on the
//! same hash bucket. We implement the classic Fibonacci variant: multiply by
//! the odd constant closest to 2⁶⁴/φ and keep the high bits, which spreads
//! consecutive integer keys maximally far apart.
//!
//! For non-integer elements we first fold the value through the standard
//! `Hasher` machinery ([`FoldHasher`], itself a multiplicative accumulator
//! that ends in [`MulHash::finalize`]), so the whole family stays
//! allocation-free.
//!
//! Two forms share that fold:
//!
//! * [`MulHash`] — unseeded and deterministic across runs. The CoTS
//!   engine's table, the sketches' rows and key placement
//!   (`ShardSender::shard_of`, `Topology::member_of` in `cots-serve`) use
//!   it, because a placement must be the same after a restart.
//! * [`SeededMulHash`] — a `BuildHasher` whose fold starts from a
//!   per-instance random seed. The key indexes of the sequential summaries
//!   (`cots-sequential`) and the general merge ([`crate::merge`]) use it:
//!   their keys come from clients, and an unseeded hash would let a client
//!   choose keys that share a bucket.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// 2⁶⁴ / φ rounded to the nearest odd integer — Knuth's recommended
/// multiplier for 64-bit multiplicative hashing.
pub const KNUTH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A second odd constant (from SplitMix64) used to de-correlate the sketch
/// hash family from the table hash.
pub const SECONDARY_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// Stateless multiplicative hasher.
///
/// `MulHash::index(h, log2_buckets)` extracts a bucket index from the *high*
/// bits of `h * KNUTH_MUL`, which is the part of the product with the best
/// avalanche behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHash;

impl MulHash {
    /// Hash an arbitrary element to 64 bits.
    #[inline]
    pub fn hash<T: Hash>(value: &T) -> u64 {
        let mut f = FoldHasher::default();
        value.hash(&mut f);
        f.finish()
    }

    /// Finalizer: multiplicative avalanche (the SplitMix64 finalizer, two
    /// odd multiplies interleaved with xor-shifts). A single extra Knuth
    /// multiply here would compose with [`FoldHasher`]'s multiply into the
    /// poorly-structured constant K², measurably clustering bucket indices,
    /// so the avalanche form is used instead.
    #[inline]
    pub fn finalize(h: u64) -> u64 {
        let mut x = h;
        x = (x ^ (x >> 30)).wrapping_mul(SECONDARY_MUL);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Map a 64-bit hash to a table of `1 << log2_buckets` buckets using the
    /// high bits of the multiplicative product.
    #[inline]
    pub fn index(hash: u64, log2_buckets: u32) -> usize {
        debug_assert!(log2_buckets <= 63);
        if log2_buckets == 0 {
            return 0;
        }
        (hash >> (64 - log2_buckets)) as usize
    }

    /// An independent hash for row `row` of a sketch, derived by re-mixing
    /// with a per-row odd multiplier. Rows behave as a pairwise-independent
    /// family for the purposes of Count-Min / Count-Sketch error bounds.
    #[inline]
    pub fn row_hash<T: Hash>(value: &T, row: u64) -> u64 {
        let base = Self::hash(value);
        let mixed = base
            .wrapping_add(row.wrapping_mul(SECONDARY_MUL))
            .wrapping_mul(KNUTH_MUL | 1);
        mixed ^ (mixed >> 31)
    }
}

/// A minimal 64-bit folding hasher: multiplicative accumulation over the
/// written bytes, finished by [`MulHash::finalize`].
///
/// `FoldHasher::default()` starts from a fixed state, which is what
/// [`MulHash::hash`] uses. [`SeededMulHash`] builds one whose start state
/// depends on its seed. The finalizer in [`Hasher::finish`] is what makes
/// the result fit a table that takes its bucket from the *low* bits (as
/// std's `HashMap` does): the fold's product has low bits that depend only
/// on the key's low bits, so keys that differ only in their high bits would
/// otherwise all share one bucket.
#[derive(Debug)]
pub struct FoldHasher {
    state: u64,
}

impl Default for FoldHasher {
    fn default() -> Self {
        // Non-zero seed so that hashing the all-zero input does not collapse
        // to the multiplicative fixed point at 0.
        Self {
            state: SECONDARY_MUL,
        }
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        MulHash::finalize(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(KNUTH_MUL);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `BuildHasher` for key indexes: [`FoldHasher`] started from a
/// per-instance seed.
///
/// [`SeededMulHash::new`] (and `Default`) draw the seed from std's
/// `RandomState`, so two instances almost surely hash differently; keys
/// chosen to share a bucket under one instance spread out under another.
/// [`SeededMulHash::with_seed`] fixes it (seed 0 hashes exactly as
/// [`MulHash::hash`]).
///
/// This is a keyed mix, not a PRF: it makes bucket collisions hard to aim
/// at without the seed, but an adversary who can time lookups against one
/// long-lived instance is not ruled out. Use it where keys come from a
/// client and the hash only places them in a table; use [`MulHash`] where
/// the hash must be the same in every process (placement across shards or
/// members).
#[derive(Clone, Copy)]
pub struct SeededMulHash {
    seed: u64,
}

impl SeededMulHash {
    /// A hasher builder with a fresh random seed.
    pub fn new() -> Self {
        Self::with_seed(RandomState::new().hash_one(0u64))
    }

    /// A hasher builder with a fixed seed (tests, reproducible runs).
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for SeededMulHash {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SeededMulHash {
    // The seed is the whole defence; keep it out of logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeededMulHash").finish_non_exhaustive()
    }
}

impl BuildHasher for SeededMulHash {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: SECONDARY_MUL ^ self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(MulHash::hash(&42u64), MulHash::hash(&42u64));
        assert_ne!(MulHash::hash(&42u64), MulHash::hash(&43u64));
    }

    #[test]
    fn index_stays_in_range() {
        for log2 in 0..16u32 {
            for key in 0..1000u64 {
                let idx = MulHash::index(MulHash::hash(&key), log2);
                assert!(idx < (1usize << log2));
            }
        }
    }

    #[test]
    fn consecutive_keys_spread_over_buckets() {
        // The motivating property from the paper: writers on different
        // elements should almost never collide in the table. With 2^12
        // buckets and 4096 consecutive keys we expect high occupancy.
        let log2 = 12;
        let distinct: HashSet<usize> = (0..4096u64)
            .map(|k| MulHash::index(MulHash::hash(&k), log2))
            .collect();
        assert!(
            distinct.len() > 2500,
            "only {} distinct buckets out of 4096",
            distinct.len()
        );
    }

    #[test]
    fn row_hashes_differ_between_rows() {
        let a = MulHash::row_hash(&7u64, 0);
        let b = MulHash::row_hash(&7u64, 1);
        let c = MulHash::row_hash(&7u64, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn full_64bit_output_no_trivial_fixed_points() {
        assert_ne!(MulHash::hash(&0u64), 0);
        assert_ne!(MulHash::finalize(1), 1);
    }

    #[test]
    fn fold_hasher_handles_unaligned_bytes() {
        let mut h = FoldHasher::default();
        h.write(&[1, 2, 3]);
        let a = h.finish();
        let mut h = FoldHasher::default();
        h.write(&[1, 2, 3, 0]);
        let b = h.finish();
        // Not required to differ in principle, but with this construction
        // trailing zero-padding affects chunk count for len > 8 only; here
        // both are a single chunk and zero-padded equal. Document that:
        assert_eq!(a, b);
        // ...while genuinely different content must differ.
        let mut h = FoldHasher::default();
        h.write(&[3, 2, 1]);
        assert_ne!(a, h.finish());
    }

    /// Low 12 bits of `key`'s hash under `build` — a 4096-bucket index
    /// as a low-bits table (std's `HashMap`) takes it.
    fn low12(build: &SeededMulHash, key: u64) -> u64 {
        build.hash_one(key) & 0xFFF
    }

    #[test]
    fn seed_zero_hashes_like_mul_hash() {
        let build = SeededMulHash::with_seed(0);
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(build.hash_one(key), MulHash::hash(&key));
        }
    }

    #[test]
    fn fresh_instances_draw_different_seeds() {
        let (a, b) = (SeededMulHash::new(), SeededMulHash::new());
        assert_ne!(a.hash_one(1u64), b.hash_one(1u64));
        assert_eq!(format!("{a:?}"), "SeededMulHash { .. }");
    }

    #[test]
    fn collisions_chosen_under_one_seed_spread_under_another() {
        // An adversary who knew seed A could send keys that all share
        // one low-12-bit bucket; a reseed must scatter them.
        let (a, b) = (SeededMulHash::with_seed(0xA), SeededMulHash::with_seed(0xB));
        let target = low12(&a, 0);
        let chosen: Vec<u64> = (0u64..)
            .filter(|&k| low12(&a, k) == target)
            .take(256)
            .collect();
        let spread: HashSet<u64> = chosen.iter().map(|&k| low12(&b, k)).collect();
        assert!(
            spread.len() > 200,
            "only {} buckets under the other seed",
            spread.len()
        );
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        // The fold's product has the same low 32 bits for every `k << 32`;
        // only the finalizer in `finish` spreads them over the low bits.
        for seed in [0, 1, 0x5EED] {
            let build = SeededMulHash::with_seed(seed);
            let spread: HashSet<u64> = (0..4096u64).map(|k| low12(&build, k << 32)).collect();
            assert!(
                spread.len() > 2500,
                "seed {seed}: only {} of 4096 buckets",
                spread.len()
            );
        }
    }
}
