//! The key block and the exact-truth oracle over its cycled stream.
//!
//! Every workload sends one seeded block of keys over and over. The
//! stream the server has seen after `n` acked keys is therefore
//! `n / B` whole copies of the block plus its first `n % B` keys, and
//! exact truth for any prefix follows from one [`ExactCounter`] over the
//! block plus one scan of the partial last cycle.

use std::collections::HashMap;
use std::time::Instant;

use cots_core::{CounterEntry, Threshold};
use cots_datagen::{ExactCounter, StreamSpec};

/// The pre-generated keys and their exact per-block counts.
pub struct Block {
    keys: Vec<u64>,
    exact: ExactCounter<u64>,
    /// Seconds spent generating keys and truth (harness cost, kept out of
    /// `setup_s`; reported as `datagen.gen_s`).
    pub gen_secs: f64,
}

/// What the post-window check found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Keys whose exact count meets the threshold.
    pub truly_frequent: usize,
    /// Truly frequent keys the answer left out (recall 1.0 demands 0).
    pub missed: usize,
    /// Reported entries outside `count − error ≤ truth ≤ count`.
    pub bound_violations: usize,
    /// The answer's total differs from the keys acked.
    pub total_mismatch: bool,
}

impl CheckOutcome {
    /// Recall 1.0, envelope held, total exact.
    pub fn passed(&self) -> bool {
        self.missed == 0 && self.bound_violations == 0 && !self.total_mismatch
    }
}

impl Block {
    /// Generate `len` Zipf keys from `seed` and count them exactly.
    pub fn generate(len: usize, alphabet: usize, alpha: f64, seed: u64) -> Self {
        let t = Instant::now();
        let keys = StreamSpec::zipf(len, alphabet, alpha, seed).generate();
        Self::from_keys(keys, t)
    }

    /// Wrap an explicit key list (self-tests).
    pub fn from_vec(keys: Vec<u64>) -> Self {
        Self::from_keys(keys, Instant::now())
    }

    fn from_keys(keys: Vec<u64>, started: Instant) -> Self {
        assert!(!keys.is_empty(), "the block must hold keys");
        let exact = ExactCounter::from_stream(&keys);
        Self {
            keys,
            exact,
            gen_secs: started.elapsed().as_secs_f64(),
        }
    }

    /// Keys in one cycle.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Never true; a block holds keys.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One cycle of keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The `n` keys at stream position `pos` of the cycled stream.
    /// `n` must divide the block length so a frame never wraps.
    pub fn frame(&self, pos: u64, n: usize) -> &[u64] {
        let off = (pos % self.keys.len() as u64) as usize;
        &self.keys[off..off + n]
    }

    /// Exact count of each of `keys` in the first `n` keys of the cycled
    /// stream.
    pub fn counts(&self, keys: &[u64], n: u64) -> HashMap<u64, u64> {
        let cycles = n / self.keys.len() as u64;
        let partial = (n % self.keys.len() as u64) as usize;
        let mut out: HashMap<u64, u64> = keys
            .iter()
            .map(|k| (*k, cycles * self.exact.count(k)))
            .collect();
        if !out.is_empty() {
            for k in &self.keys[..partial] {
                if let Some(c) = out.get_mut(k) {
                    *c += 1;
                }
            }
        }
        out
    }

    /// Every key whose exact count in the first `n` stream keys is at
    /// least `ceil(phi × n)`, with that count.
    pub fn frequent(&self, phi: f64, n: u64) -> HashMap<u64, u64> {
        let threshold = Threshold::Fraction(phi).resolve(n);
        let cycles = n / self.keys.len() as u64;
        // A key seen `c` times per block is seen at most `(cycles + 1) × c`
        // times in the prefix, so anything frequent has `c` at least this.
        let per_block = threshold.div_ceil(cycles + 1).max(1);
        let candidates: Vec<u64> = self
            .exact
            .frequent(Threshold::Count(per_block))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut counts = self.counts(&candidates, n);
        counts.retain(|_, c| *c >= threshold);
        counts
    }

    /// Check a quiescent `Frequent(phi)` answer against exact truth for
    /// exactly the first `n` stream keys.
    pub fn check_frequent(
        &self,
        entries: &[CounterEntry<u64>],
        total: u64,
        phi: f64,
        n: u64,
    ) -> CheckOutcome {
        let truly = self.frequent(phi, n);
        let missed = truly
            .keys()
            .filter(|k| !entries.iter().any(|e| e.item == **k))
            .count();
        let reported: Vec<u64> = entries.iter().map(|e| e.item).collect();
        let truth = self.counts(&reported, n);
        let bound_violations = entries
            .iter()
            .filter(|e| !inside_envelope(e, truth[&e.item]))
            .count();
        CheckOutcome {
            truly_frequent: truly.len(),
            missed,
            bound_violations,
            total_mismatch: total != n,
        }
    }
}

/// The Space Saving envelope: `count − error ≤ truth ≤ count`. The entry
/// comes off the wire, so an `error` above `count` is a violation, not
/// an underflow.
pub fn inside_envelope(e: &CounterEntry<u64>, truth: u64) -> bool {
    e.count >= truth && e.count.checked_sub(e.error).is_some_and(|low| low <= truth)
}
