//! SA-IS: linear-time suffix array construction.
//!
//! The paper's complexity budget (§4.2) cites linear-time suffix array
//! construction (Kasai et al. for LCP; SA-IS / DC3 for the array itself).
//! This module is the **default backend** behind
//! [`crate::suffix_array::SuffixArray::build`]
//! ([`SuffixBackend::Sais`](crate::suffix_array::SuffixBackend)) and the
//! repeat miner's hot path: induced sorting in `O(n)` over the dense
//! `u32` alphabet that compaction produces. Prefix doubling
//! (`O(n log n)`) remains available as
//! [`SuffixBackend::Doubling`](crate::suffix_array::SuffixBackend) and is
//! cross-checked against this implementation by property tests and raced
//! in the `mining_throughput` bench.
//!
//! The algorithm classifies suffixes as S-type (smaller than their right
//! neighbor) or L-type, locates the leftmost-S (LMS) positions, induce-
//! sorts from an approximate LMS order, names the LMS substrings, recurses
//! if names collide, and induce-sorts once more from the exact order. Each
//! level is `O(n)` and at most halves the input, so the total is `O(n)`.
//! The reduced problem lives inside the output array (sorted LMS positions
//! in its head, their names in its tail), so the builder keeps only suffix
//! types and bucket pointers per recursion level, in buffers reused from
//! call to call: a warm construction allocates nothing.

use crate::suffix_array::{fits_u32, refill, SuffixScratch};
use crate::Token;

/// Marks an unfilled suffix-array slot while inducing.
const EMPTY: u32 = u32::MAX;

/// Builds the suffix array of `s` in `O(n)` time (plus the shared
/// hash-based alphabet compaction: `O(n)` expected, `O(σ log σ)` in the
/// number of distinct tokens).
///
/// Returns the same permutation as
/// [`crate::suffix_array::SuffixArray::build`]; prefer that entry point
/// when the LCP and rank arrays are also needed.
///
/// # Panics
///
/// Panics if `s` is longer than `u32::MAX` tokens.
pub fn suffix_array_sais<T: Token>(s: &[T]) -> Vec<usize> {
    assert!(fits_u32(s.len()), "suffix arrays index positions in u32");
    let mut scratch = SuffixScratch::default();
    scratch.build(s, crate::SuffixBackend::Sais);
    scratch.sa.iter().map(|&p| p as usize).collect()
}

/// Reusable SA-IS state: one [`Level`] of buffers per recursion depth.
/// The recursion itself runs inside the output array, so a level needs
/// only its suffix types and buckets.
#[derive(Debug, Default)]
pub(crate) struct Sais {
    levels: Vec<Level>,
}

/// The buffers of one recursion level.
#[derive(Debug, Default)]
struct Level {
    /// Suffix types: true = S-type (suffix < next suffix), false = L-type.
    is_s: Vec<bool>,
    /// Bucket size per symbol, and bucket heads or tails while inducing.
    sizes: Vec<u32>,
    ptr: Vec<u32>,
}

impl Sais {
    /// Writes the suffix array of `text` (symbols in `0..alphabet`) into
    /// `sa`. The virtual sentinel (smaller than every symbol) is handled
    /// implicitly and never stored.
    pub(crate) fn build(&mut self, text: &[u32], alphabet: usize, sa: &mut Vec<u32>) {
        refill(sa, text.len(), EMPTY);
        self.level(0, text, alphabet, sa);
    }

    fn level(&mut self, depth: usize, text: &[u32], alphabet: usize, sa: &mut [u32]) {
        let n = text.len();
        if n <= 1 {
            sa.fill(0);
            return;
        }
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Level::default);
        }
        // Taken out (allocation-free) so the recursion can borrow `self`.
        let Level { mut is_s, mut sizes, mut ptr } = std::mem::take(&mut self.levels[depth]);

        // The last suffix is L-type: its single symbol exceeds the
        // sentinel that follows it.
        refill(&mut is_s, n, false);
        for i in (0..n - 1).rev() {
            is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
        }
        refill(&mut sizes, alphabet, 0);
        for &c in text {
            sizes[c as usize] += 1;
        }

        // Sort the LMS substrings: induce from the LMS positions seeded
        // in text order.
        sa.fill(EMPTY);
        buckets(&sizes, &mut ptr, true);
        for i in (1..n as u32).filter(|&i| is_lms(&is_s, i)) {
            let c = text[i as usize] as usize;
            ptr[c] -= 1;
            sa[ptr[c] as usize] = i;
        }
        induce(text, &is_s, &sizes, &mut ptr, sa);

        // Compact the `m ≤ n/2` sorted LMS positions into `sa[..m]` and
        // name their substrings at `sa[m + p/2]` (LMS positions are at
        // least two apart, so the slots are distinct and below `n`).
        let mut m = 0;
        for i in 0..n {
            let p = sa[i];
            if is_lms(&is_s, p) {
                sa[m] = p;
                m += 1;
            }
        }
        sa[m..].fill(EMPTY);
        let mut name = 0;
        for i in 0..m {
            let p = sa[i] as usize;
            if i > 0 && !lms_substrings_equal(text, &is_s, sa[i - 1] as usize, p) {
                name += 1;
            }
            sa[m + p / 2] = name;
        }

        // Order the LMS suffixes exactly. The induced order already is
        // when every name is distinct; otherwise recurse on the reduced
        // string of names (in text order, packed into the tail), then map
        // its suffix array back to text positions.
        if (name as usize + 1) < m {
            let mut j = n;
            for i in (m..n).rev() {
                if sa[i] != EMPTY {
                    j -= 1;
                    sa[j] = sa[i];
                }
            }
            let (head, reduced) = sa.split_at_mut(n - m);
            self.level(depth + 1, reduced, name as usize + 1, &mut head[..m]);
            for (slot, i) in reduced.iter_mut().zip((1..n as u32).filter(|&i| is_lms(&is_s, i))) {
                *slot = i;
            }
            for r in &mut head[..m] {
                *r = reduced[*r as usize];
            }
        }

        // Seed the LMS suffixes at their bucket tails in exact order, from
        // the back (each lands at or after its own index), and induce.
        sa[m..].fill(EMPTY);
        buckets(&sizes, &mut ptr, true);
        for i in (0..m).rev() {
            let p = std::mem::replace(&mut sa[i], EMPTY);
            let c = text[p as usize] as usize;
            ptr[c] -= 1;
            debug_assert!(ptr[c] as usize >= i, "an LMS seed overwrote an unplaced one");
            sa[ptr[c] as usize] = p;
        }
        induce(text, &is_s, &sizes, &mut ptr, sa);
        self.levels[depth] = Level { is_s, sizes, ptr };
    }
}

/// Whether the LMS substrings starting at LMS positions `a != b` are
/// equal: same symbols and types up to and including the next LMS
/// position. The last LMS substring runs into the sentinel, which equals
/// nothing.
fn lms_substrings_equal(text: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = text.len();
    let mut k = 0;
    loop {
        let (x, y) = (a + k, b + k);
        if x == n || y == n || text[x] != text[y] || is_s[x] != is_s[y] {
            return false;
        }
        // Types agree here and at every earlier offset, so `x` is LMS
        // exactly when `y` is.
        if k > 0 && is_lms(is_s, x as u32) {
            return true;
        }
        k += 1;
    }
}

/// Whether position `i` is leftmost-S: S-type after an L-type.
fn is_lms(is_s: &[bool], i: u32) -> bool {
    let i = i as usize;
    i > 0 && is_s[i] && !is_s[i - 1]
}

/// Induces the L-type suffixes left to right from the LMS seeds in `sa`,
/// then the S-type suffixes right to left (overwriting the seeds).
fn induce(text: &[u32], is_s: &[bool], sizes: &[u32], ptr: &mut Vec<u32>, sa: &mut [u32]) {
    let n = text.len();
    // Induce L-type from left to right, starting with the virtual
    // sentinel's predecessor: suffix n-1, always L-type.
    buckets(sizes, ptr, false);
    let c = text[n - 1] as usize;
    sa[ptr[c] as usize] = (n - 1) as u32;
    ptr[c] += 1;
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && p > 0 && !is_s[p as usize - 1] {
            let c = text[p as usize - 1] as usize;
            sa[ptr[c] as usize] = p - 1;
            ptr[c] += 1;
        }
    }
    // Induce S-type from right to left (overwrites the LMS seeds).
    buckets(sizes, ptr, true);
    for i in (0..n).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 && is_s[p as usize - 1] {
            let c = text[p as usize - 1] as usize;
            ptr[c] -= 1;
            sa[ptr[c] as usize] = p - 1;
        }
    }
}

/// Writes each bucket's one-past-last index (`tails`) or first index
/// into `ptr`.
fn buckets(sizes: &[u32], ptr: &mut Vec<u32>, tails: bool) {
    ptr.clear();
    ptr.reserve_exact(sizes.len());
    let mut sum = 0;
    ptr.extend(sizes.iter().map(|&sz| {
        sum += sz;
        if tails {
            sum
        } else {
            sum - sz
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix_array::{SuffixArray, SuffixBackend};

    fn check<T: Token>(s: &[T]) {
        let sais = suffix_array_sais(s);
        let doubling = SuffixArray::build_with(s, SuffixBackend::Doubling);
        assert_eq!(sais, doubling.sa(), "SA-IS vs doubling on {s:?}");
    }

    #[test]
    fn classic_strings() {
        check(b"banana".as_slice());
        check(b"mississippi".as_slice());
        check(b"aabcbcbaa".as_slice());
        check(b"abracadabra".as_slice());
        check(b"yabbadabbado".as_slice());
    }

    #[test]
    fn degenerate_inputs() {
        check::<u8>(&[]);
        check(b"a".as_slice());
        check(b"aa".as_slice());
        check(b"ab".as_slice());
        check(b"ba".as_slice());
        check(&[5u8; 100]);
    }

    #[test]
    fn periodic_and_fibonacci() {
        let periodic: Vec<u32> = (0..300).map(|i| i % 7).collect();
        check(&periodic);
        // Fibonacci word: a classic SA stress input.
        let mut fib = vec![0u8];
        let mut prev = vec![1u8];
        for _ in 0..12 {
            let next = [fib.clone(), prev.clone()].concat();
            prev = fib;
            fib = next;
        }
        check(&fib);
    }

    #[test]
    fn large_alphabet() {
        let s: Vec<u64> = vec![u64::MAX, 0, 1 << 40, u64::MAX, 0, 1 << 40, 7];
        check(&s);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// SA-IS and prefix doubling agree on arbitrary inputs.
            #[test]
            fn agrees_with_doubling_small_alphabet(
                s in proptest::collection::vec(0u8..4, 0..300)
            ) {
                check(&s);
            }

            #[test]
            fn agrees_with_doubling_large_alphabet(
                s in proptest::collection::vec(any::<u16>(), 0..200)
            ) {
                check(&s);
            }
        }
    }
}
