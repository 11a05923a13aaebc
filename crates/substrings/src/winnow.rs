//! Winnowing document fingerprints (Schleimer, Wilkerson, Aiken — SIGMOD
//! 2003), discussed by the paper as related work (§7).
//!
//! Winnowing selects, from the rolling k-gram hashes of a sequence, the
//! minimum hash of every window of `w` consecutive k-grams. Its guarantee:
//! any repetition of length ≥ `w + k − 1` shares at least one selected
//! fingerprint. The paper's observation is that fingerprints detect
//! *whether* repetition exists but "do not directly aid in finding the
//! sub-strings themselves that have high coverage" — so here they are only
//! a cheap existence test: a slice whose fingerprint multiset has no
//! duplicates provably contains no repeat long enough to trace. The trace
//! finder does not consult it; it always runs Algorithm 2.

use crate::Token;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hasher;

/// A selected fingerprint: the hash and the position of its k-gram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// k-gram hash value.
    pub hash: u64,
    /// Start position of the k-gram in the sequence.
    pub pos: usize,
}

/// Winnowing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinnowConfig {
    /// k-gram length (the "noise threshold": repeats shorter than k are
    /// never seen).
    pub k: usize,
    /// Window size (the "guarantee threshold" is `w + k − 1`).
    pub w: usize,
}

impl WinnowConfig {
    /// Shortest repetition guaranteed to share a fingerprint.
    pub fn guarantee(&self) -> usize {
        self.w + self.k - 1
    }
}

impl Default for WinnowConfig {
    fn default() -> Self {
        Self { k: 8, w: 18 } // guarantee 25 = the standard min trace length
    }
}

fn kgram_hash<T: Token>(gram: &[T]) -> u64 {
    // FxHash-style mixing over std's SipHash would be fine too; use a
    // simple multiply-xor chain that is deterministic across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in gram {
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut sip);
        h ^= sip.finish();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Computes the winnowed fingerprints of `s`.
///
/// Returns an empty vector when `s` is shorter than one k-gram. Selected
/// positions are "robust": within each window the rightmost minimal hash
/// is kept, and consecutive windows sharing their minimum emit it once.
pub fn winnow<T: Token>(s: &[T], config: WinnowConfig) -> Vec<Fingerprint> {
    let k = config.k.max(1);
    let w = config.w.max(1);
    if s.len() < k {
        return Vec::new();
    }
    let grams: Vec<u64> = s.windows(k).map(kgram_hash).collect();
    let mut out: Vec<Fingerprint> = Vec::new();
    // Monotone deque of (pos, hash) keeping window minima; ties keep the
    // rightmost.
    let mut dq: VecDeque<usize> = VecDeque::new();
    for i in 0..grams.len() {
        while dq.back().is_some_and(|&b| grams[b] >= grams[i]) {
            dq.pop_back();
        }
        dq.push_back(i);
        if dq.front().is_some_and(|&f| f + w <= i) {
            dq.pop_front();
        }
        if i + 1 >= w {
            let m = *dq.front().expect("window non-empty");
            if out.last().map(|f| f.pos) != Some(m) {
                out.push(Fingerprint { hash: grams[m], pos: m });
            }
        }
    }
    if out.is_empty() {
        // Sequence shorter than one full window: emit the global minimum
        // so every non-trivial sequence has at least one fingerprint.
        if let Some((pos, &hash)) =
            grams.iter().enumerate().min_by_key(|&(p, &h)| (h, std::cmp::Reverse(p)))
        {
            out.push(Fingerprint { hash, pos });
        }
    }
    out
}

/// Whether the fingerprint multiset contains a duplicated hash — a
/// necessary condition for `s` to contain a repeated substring of length
/// at least [`WinnowConfig::guarantee`]. Used as a cheap pre-filter: when
/// this returns `false`, a full mining pass cannot find a trace that
/// long.
pub fn has_repetition_evidence<T: Token>(s: &[T], config: WinnowConfig) -> bool {
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for f in winnow(s, config) {
        let c = seen.entry(f.hash).or_insert(0);
        *c += 1;
        if *c >= 2 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: usize, w: usize) -> WinnowConfig {
        WinnowConfig { k, w }
    }

    #[test]
    fn guarantee_threshold() {
        assert_eq!(WinnowConfig::default().guarantee(), 25);
        assert_eq!(cfg(4, 5).guarantee(), 8);
    }

    #[test]
    fn short_input_no_fingerprints() {
        assert!(winnow(b"abc", cfg(8, 4)).is_empty());
    }

    #[test]
    fn deterministic() {
        let s: Vec<u64> = (0..200).map(|i| i % 13).collect();
        assert_eq!(winnow(&s, cfg(4, 8)), winnow(&s, cfg(4, 8)));
    }

    #[test]
    fn repeats_share_fingerprints() {
        // Two occurrences of a long block must share a fingerprint.
        let mut s: Vec<u16> = (0..40).collect();
        s.extend(1000..1020);
        s.extend(0..40); // the repeat
        let c = cfg(4, 8);
        assert!(40 >= c.guarantee());
        assert!(has_repetition_evidence(&s, c));
    }

    #[test]
    fn random_stream_usually_clean() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let s: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        assert!(
            !has_repetition_evidence(&s, WinnowConfig::default()),
            "distinct random tokens yield no duplicate fingerprints"
        );
    }

    #[test]
    fn periodic_stream_flagged() {
        let s: Vec<u32> = (0..400).map(|i| i % 50).collect();
        assert!(has_repetition_evidence(&s, WinnowConfig::default()));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The winnowing guarantee: any two non-overlapping occurrences
            /// of a substring of length ≥ w + k − 1 share a fingerprint
            /// hash.
            #[test]
            fn guarantee_holds(
                block in proptest::collection::vec(any::<u16>(), 12..30),
                gap in proptest::collection::vec(20_000u32..30_000, 0..20),
            ) {
                let c = cfg(4, 8); // guarantee 11 ≤ 12 ≤ block len
                let mut s: Vec<u32> = block.iter().map(|&b| u32::from(b)).collect();
                s.extend(gap.iter().copied());
                s.extend(block.iter().map(|&b| u32::from(b)));
                prop_assert!(has_repetition_evidence(&s, c),
                    "repeat of len {} not flagged", block.len());
            }

            /// Fingerprint positions are strictly increasing and in range.
            #[test]
            fn positions_monotone(s in proptest::collection::vec(0u8..6, 0..300)) {
                let fps = winnow(&s, cfg(3, 5));
                for w in fps.windows(2) {
                    prop_assert!(w[0].pos < w[1].pos);
                }
                for f in &fps {
                    prop_assert!(f.pos + 3 <= s.len().max(3));
                }
            }
        }
    }
}
