//! Suffix array and LCP array construction.
//!
//! The trace finder (Algorithm 2 of the paper) needs, for an arbitrary
//! token alphabet, the suffix array of the history buffer plus the LCP
//! (longest common prefix) array between adjacent suffixes. They are built
//! in reusable `u32` scratch (so inputs hold at most `u32::MAX` tokens):
//!
//! 1. alphabet compaction, `O(n)` expected plus `O(σ log σ)` for `σ`
//!    distinct tokens: one order-preserving pass through an open-addressing
//!    table with a fixed hasher, then a sort of the distinct tokens;
//! 2. suffix sorting by [`SuffixBackend::Sais`] (the default; `O(n)`, see
//!    [`crate::sais`]) or [`SuffixBackend::Doubling`] (prefix doubling with
//!    counting-sort passes, `O(n log n)`, a cross-check and ablation
//!    baseline);
//! 3. Kasai's LCP, `O(n)`.
//!
//! Both backends produce identical [`SuffixArray`] values (property-tested
//! in this module), so backend choice is purely a performance knob.

use crate::sais::Sais;
use crate::Token;
use std::hash::{Hash, Hasher};

/// Which suffix-array construction algorithm [`SuffixArray::build_with`]
/// runs.
///
/// Both backends yield bit-identical [`SuffixArray`] values; the choice
/// only affects construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuffixBackend {
    /// Prefix doubling with counting-sort passes: `O(n log n)`.
    Doubling,
    /// SA-IS induced sorting: `O(n)` after alphabet compaction.
    #[default]
    Sais,
}

/// Suffix array of a token sequence together with its LCP array.
///
/// For a sequence `S` of length `n`:
///
/// * `sa[i]` is the start position of the `i`-th smallest suffix;
/// * `rank[p]` is the index in `sa` of the suffix starting at `p`
///   (the inverse permutation of `sa`);
/// * `lcp[i]` is the length of the longest common prefix of the suffixes
///   `S[sa[i]..]` and `S[sa[i+1]..]`; `lcp` has length `n - 1` (or 0 for
///   `n <= 1`).
///
/// # Example
///
/// ```
/// use substrings::suffix_array::SuffixArray;
///
/// let sa = SuffixArray::build(b"banana");
/// assert_eq!(sa.sa(), &[5, 3, 1, 0, 4, 2]); // a, ana, anana, banana, na, nana
/// assert_eq!(sa.lcp(), &[1, 3, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixArray {
    sa: Vec<usize>,
    rank: Vec<usize>,
    lcp: Vec<usize>,
}

impl SuffixArray {
    /// Builds the suffix array and LCP array of `s` with the default
    /// backend ([`SuffixBackend::Sais`], linear time).
    ///
    /// Accepts any token type; the alphabet is first compacted to dense
    /// ranks by hashing (`O(n)` expected plus `O(σ log σ)` for `σ`
    /// distinct tokens).
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than `u32::MAX` tokens.
    pub fn build<T: Token>(s: &[T]) -> Self {
        Self::build_with(s, SuffixBackend::default())
    }

    /// Builds the suffix array and LCP array of `s` with an explicit
    /// backend. Both backends return identical results.
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than `u32::MAX` tokens.
    pub fn build_with<T: Token>(s: &[T], backend: SuffixBackend) -> Self {
        assert!(fits_u32(s.len()), "suffix arrays index positions in u32");
        let mut scratch = SuffixScratch::default();
        scratch.build(s, backend);
        let widen = |v: &[u32]| v.iter().map(|&x| x as usize).collect();
        Self { sa: widen(&scratch.sa), rank: widen(&scratch.rank), lcp: widen(&scratch.lcp) }
    }

    /// The suffix array: positions of suffixes in lexicographic order.
    pub fn sa(&self) -> &[usize] {
        &self.sa
    }

    /// The inverse permutation of [`Self::sa`].
    pub fn rank(&self) -> &[usize] {
        &self.rank
    }

    /// LCP lengths between lexicographically adjacent suffixes
    /// (`lcp()[i]` pairs `sa()[i]` with `sa()[i + 1]`).
    pub fn lcp(&self) -> &[usize] {
        &self.lcp
    }

    /// Number of suffixes (the length of the underlying sequence).
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the underlying sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }
}

/// Whether every position of an `n`-token input fits a `u32` index.
pub(crate) fn fits_u32(n: usize) -> bool {
    u32::try_from(n).is_ok()
}

/// Reusable buffers for the suffix, rank and LCP arrays of one input.
/// Each [`Self::build`] overwrites the last and allocates only when an
/// input outgrows every earlier one.
#[derive(Debug, Default)]
pub(crate) struct SuffixScratch {
    /// Compaction table (first-sight number + 1 per slot, 0 when empty),
    /// then each first-sight number's dense rank.
    slots: Vec<u32>,
    /// First position of each distinct token, by first-sight number,
    /// then in token order.
    first: Vec<u32>,
    /// The input as dense ranks.
    text: Vec<u32>,
    sais: Sais,
    pub(crate) sa: Vec<u32>,
    pub(crate) rank: Vec<u32>,
    pub(crate) lcp: Vec<u32>,
}

impl SuffixScratch {
    /// Indexes `s`, whose length must fit `u32` (checked by the callers).
    pub(crate) fn build<T: Token>(&mut self, s: &[T], backend: SuffixBackend) {
        debug_assert!(fits_u32(s.len()));
        let sigma = self.compact(s);
        match backend {
            SuffixBackend::Sais => self.sais.build(&self.text, sigma, &mut self.sa),
            SuffixBackend::Doubling => {
                self.sa.clear();
                self.sa.extend(doubling_sa(&self.text).into_iter().map(|p| p as u32));
            }
        }
        refill(&mut self.rank, s.len(), 0);
        for (i, &p) in self.sa.iter().enumerate() {
            self.rank[p as usize] = i as u32;
        }
        kasai(&self.text, &self.sa, &self.rank, &mut self.lcp);
    }

    /// Writes `s` as order-preserving dense ranks into `text` and returns
    /// the alphabet size `σ`. The table is at most two-thirds full and
    /// probed linearly from a fixed hash, so no random seed is involved.
    fn compact<T: Token>(&mut self, s: &[T]) -> usize {
        let bits = (s.len() + s.len() / 2).max(2).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        refill(&mut self.slots, mask + 1, 0);
        self.first.clear();
        self.text.clear();
        self.text.reserve_exact(s.len());
        for (i, t) in s.iter().enumerate() {
            let mut h = FxHasher::slot(t, bits);
            let id = loop {
                match self.slots[h] {
                    0 => {
                        self.first.push(i as u32);
                        self.slots[h] = self.first.len() as u32;
                        break self.first.len() as u32 - 1;
                    }
                    id if s[self.first[id as usize - 1] as usize] == *t => break id - 1,
                    _ => h = (h + 1) & mask,
                }
            };
            self.text.push(id);
        }
        self.first.sort_unstable_by(|&a, &b| s[a as usize].cmp(&s[b as usize]));
        for (r, &p) in self.first.iter().enumerate() {
            self.slots[self.text[p as usize] as usize] = r as u32;
        }
        for c in &mut self.text {
            *c = self.slots[*c as usize];
        }
        self.first.len()
    }
}

/// Empties `v` and refills it with `len` copies of `x`. Growth is exact:
/// scratch keeps its capacity from window to window, where amortized
/// doubling would only hold memory no window uses.
pub(crate) fn refill<T: Copy>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.reserve_exact(len);
    v.resize(len, x);
}

/// The Fx multiply-rotate hash: fast, and the same on every run.
struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    /// `t`'s home slot in a table of `2^bits` slots, from the high bits.
    fn slot<T: Hash>(t: &T, bits: u32) -> usize {
        let mut h = FxHasher(0);
        t.hash(&mut h);
        (h.0.wrapping_mul(Self::K) >> (64 - bits)) as usize
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Prefix-doubling suffix array over a dense-ranked text: `O(n log n)`.
fn doubling_sa(text: &[u32]) -> Vec<usize> {
    let n = text.len();
    let mut rank: Vec<usize> = text.iter().map(|&c| c as usize).collect();
    let mut sa: Vec<usize> = (0..n).collect();
    // Sort by initial rank using counting sort.
    sa = counting_sort_by_key(&sa, n, |&p| rank[p]);

    let mut tmp_rank = vec![0usize; n];
    let mut k = 1usize;
    while k < n {
        // Sort by (rank[p], rank[p + k]) via two stable counting-sort
        // passes: first the secondary key, then the primary key.
        let secondary_key = |p: usize| if p + k < n { rank[p + k] + 1 } else { 0 };
        sa = counting_sort_by_key(&sa, n + 1, |&p| secondary_key(p));
        sa = counting_sort_by_key(&sa, n, |&p| rank[p]);

        // Re-rank: adjacent entries with equal key pairs share a rank.
        tmp_rank[sa[0]] = 0;
        for i in 1..n {
            let (prev, cur) = (sa[i - 1], sa[i]);
            let same = rank[prev] == rank[cur] && secondary_key(prev) == secondary_key(cur);
            tmp_rank[cur] = tmp_rank[prev] + usize::from(!same);
        }
        std::mem::swap(&mut rank, &mut tmp_rank);
        if rank[sa[n - 1]] == n - 1 {
            break; // All suffixes distinguished.
        }
        k *= 2;
    }
    sa
}

/// Stable counting sort of `items` by `key`, where keys lie in `0..buckets`.
fn counting_sort_by_key<F>(items: &[usize], buckets: usize, key: F) -> Vec<usize>
where
    F: Fn(&usize) -> usize,
{
    let mut counts = vec![0usize; buckets + 1];
    for it in items {
        counts[key(it) + 1] += 1;
    }
    for b in 1..counts.len() {
        counts[b] += counts[b - 1];
    }
    let mut out = vec![0usize; items.len()];
    for it in items {
        let k = key(it);
        out[counts[k]] = *it;
        counts[k] += 1;
    }
    out
}

/// Kasai's linear-time LCP construction over the dense-ranked text,
/// written into `lcp` (`n - 1` entries, none for `n ≤ 1`).
fn kasai(text: &[u32], sa: &[u32], rank: &[u32], lcp: &mut Vec<u32>) {
    let n = text.len();
    refill(lcp, n.saturating_sub(1), 0);
    if n <= 1 {
        return;
    }
    let mut h = 0usize;
    for p in 0..n {
        let r = rank[p] as usize;
        if r + 1 == n {
            h = 0;
            continue;
        }
        let q = sa[r + 1] as usize;
        while p + h < n && q + h < n && text[p + h] == text[q + h] {
            h += 1;
        }
        lcp[r] = h as u32;
        h = h.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maps arbitrary tokens to order-preserving dense ranks in `0..σ`,
    /// returning the ranked text and the alphabet size `σ`.
    fn compact_alphabet<T: Token>(s: &[T]) -> (Vec<u32>, usize) {
        let mut scratch = SuffixScratch::default();
        let sigma = scratch.compact(s);
        (scratch.text, sigma)
    }

    /// Reference construction by sorting all suffixes (O(n² log n)).
    fn naive_sa<T: Token>(s: &[T]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..s.len()).collect();
        idx.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
        idx
    }

    fn naive_lcp<T: Token>(s: &[T], sa: &[usize]) -> Vec<usize> {
        sa.windows(2)
            .map(|w| {
                let (a, b) = (&s[w[0]..], &s[w[1]..]);
                a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
            })
            .collect()
    }

    /// Both backends must produce the same `SuffixArray` value (sa, rank,
    /// and lcp alike).
    fn check_backend_parity<T: Token>(s: &[T]) {
        let doubling = SuffixArray::build_with(s, SuffixBackend::Doubling);
        let sais = SuffixArray::build_with(s, SuffixBackend::Sais);
        assert_eq!(doubling, sais, "backend mismatch on {s:?}");
    }

    #[test]
    fn empty_and_singleton() {
        let sa = SuffixArray::build::<u8>(&[]);
        assert!(sa.is_empty());
        assert_eq!(sa.lcp(), &[] as &[usize]);

        let sa = SuffixArray::build(b"x");
        assert_eq!(sa.sa(), &[0]);
        assert_eq!(sa.len(), 1);
        assert_eq!(sa.lcp(), &[] as &[usize]);

        check_backend_parity::<u8>(&[]);
        check_backend_parity(b"x".as_slice());
    }

    #[test]
    fn banana() {
        for backend in [SuffixBackend::Doubling, SuffixBackend::Sais] {
            let sa = SuffixArray::build_with(b"banana", backend);
            assert_eq!(sa.sa(), &[5, 3, 1, 0, 4, 2]);
            assert_eq!(sa.lcp(), &[1, 3, 0, 0, 2]);
            // rank is the inverse permutation.
            for (i, &p) in sa.sa().iter().enumerate() {
                assert_eq!(sa.rank()[p], i);
            }
        }
    }

    #[test]
    fn figure4_string() {
        // The paper's Figure 4 walks Algorithm 2 over "aabcbcbaa"; its
        // suffix array column (start indices) is 8,7,0,1,6,4,2,5,3.
        let sa = SuffixArray::build(b"aabcbcbaa");
        assert_eq!(sa.sa(), &[8, 7, 0, 1, 6, 4, 2, 5, 3]);
        check_backend_parity(b"aabcbcbaa".as_slice());
    }

    #[test]
    fn all_equal_tokens() {
        let s = vec![7u64; 64];
        check_backend_parity(&s);
        let sa = SuffixArray::build(&s);
        // Suffixes sort by decreasing start (shortest first).
        let expect: Vec<usize> = (0..64).rev().collect();
        assert_eq!(sa.sa(), expect.as_slice());
        // LCP between adjacent = length of the shorter suffix.
        for (i, &l) in sa.lcp().iter().enumerate() {
            assert_eq!(l, i + 1);
        }
    }

    #[test]
    fn matches_naive_on_fixed_corpus() {
        let corpus: &[&[u8]] = &[
            b"abracadabra",
            b"mississippi",
            b"aaaabaaaab",
            b"abcabcabcabc",
            b"zyxwvu",
            b"aabcbcbaa",
            b"abababab",
        ];
        for s in corpus {
            check_backend_parity(s);
            for backend in [SuffixBackend::Doubling, SuffixBackend::Sais] {
                let sa = SuffixArray::build_with(s, backend);
                assert_eq!(sa.sa(), naive_sa(s).as_slice(), "sa mismatch on {s:?}");
                assert_eq!(sa.lcp(), naive_lcp(s, sa.sa()).as_slice(), "lcp mismatch on {s:?}");
            }
        }
    }

    #[test]
    fn large_alphabet_u64() {
        // Tokens far apart in value must still compact correctly.
        let s: Vec<u64> = vec![u64::MAX, 0, 1 << 40, u64::MAX, 0, 1 << 40, u64::MAX];
        check_backend_parity(&s);
        let sa = SuffixArray::build(&s);
        assert_eq!(sa.sa(), naive_sa(&s).as_slice());
        assert_eq!(sa.lcp(), naive_lcp(&s, sa.sa()).as_slice());
    }

    #[test]
    fn compaction_preserves_order_and_density() {
        let s: Vec<u64> = vec![900, 3, 900, 77, 3, 1 << 50];
        let (text, alphabet) = compact_alphabet(&s);
        assert_eq!(alphabet, 4);
        assert_eq!(text, vec![2, 0, 2, 1, 0, 3]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn agrees_with_naive(s in proptest::collection::vec(0u8..6, 0..200)) {
                let sa = SuffixArray::build(&s);
                let expect_sa = naive_sa(&s);
                let expect_lcp = naive_lcp(&s, sa.sa());
                prop_assert_eq!(sa.sa(), expect_sa.as_slice());
                prop_assert_eq!(sa.lcp(), expect_lcp.as_slice());
            }

            #[test]
            fn rank_is_inverse(s in proptest::collection::vec(0u16..40, 0..300)) {
                let sa = SuffixArray::build(&s);
                for (i, &p) in sa.sa().iter().enumerate() {
                    prop_assert_eq!(sa.rank()[p], i);
                }
            }

            #[test]
            fn sa_is_permutation(s in proptest::collection::vec(any::<u8>(), 0..250)) {
                let sa = SuffixArray::build(&s);
                let mut seen = vec![false; s.len()];
                for &p in sa.sa() {
                    prop_assert!(!seen[p]);
                    seen[p] = true;
                }
                prop_assert!(seen.iter().all(|&b| b));
            }

            /// Backend parity on random inputs: identical sa, rank, AND
            /// lcp arrays.
            #[test]
            fn backends_agree_random(s in proptest::collection::vec(any::<u16>(), 0..300)) {
                check_backend_parity(&s);
            }

            /// Backend parity on periodic inputs (repeat-dense worst case
            /// for the overlap machinery).
            #[test]
            fn backends_agree_periodic(
                period in 1usize..9,
                reps in 1usize..40,
            ) {
                let s: Vec<u32> = (0..period * reps).map(|i| (i % period) as u32).collect();
                check_backend_parity(&s);
            }

            /// Backend parity on all-equal and degenerate short inputs.
            #[test]
            fn backends_agree_all_equal(len in 0usize..130, tok in any::<u64>()) {
                let s = vec![tok; len];
                check_backend_parity(&s);
            }
        }
    }
}
