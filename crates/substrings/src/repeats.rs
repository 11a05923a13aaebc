//! Non-overlapping repeated substring mining — Algorithm 2 of the paper.
//!
//! This is the trace finder's core analysis (spelled
//! `quick_matching_of_substrings` in the artifact's command-line flags): a
//! single pass over the suffix array + LCP array of the history buffer
//! collects candidate repeats, then a greedy longest-first sweep selects as
//! many non-overlapping occurrences as possible; the sweep's
//! interval-intersection test is `O(1)` amortized via a coverage-mark
//! array, exactly as §4.2 describes.
//!
//! [`RepeatMiner`] runs it in reusable `u32` scratch, so a warm miner
//! allocates only its output. Per phase, for `n` tokens and `c ≤ 2n`
//! candidates (`O(n log n)` in total):
//!
//! 1. compaction, SA-IS and Kasai's LCP ([`crate::suffix_array`]): `O(n)`
//!    expected plus `O(σ log σ)` for `σ` distinct tokens;
//! 2. candidates, `O(n)`: packed `u64` keys `(u32::MAX − len) << 32 |
//!    rank`; a window without any stops here;
//! 3. one sort of the keys, `O(c log c)`, and of the LCP edges
//!    `(i, i + 1)` with `lcp[i] ≥ min_len` by descending LCP, `O(n log n)`;
//! 4. grouping, `O(c α(n))`: an interval union-find over ranks takes the
//!    edges in as the sweep's lengths fall, so equal-length candidates
//!    share content exactly when their ranks share a component;
//! 5. the greedy sweep, `O(c log c + n)`: the keys' `(len desc, rank)`
//!    order already visits groups in order, so only the starts within a
//!    group are sorted.
//!
//! The algorithm trades optimality of the §3 objective for speed in two
//! places (both called out in the paper): only maximal repetitions of each
//! adjacent suffix pair are considered, and selection is greedy
//! longest-first rather than a bin-packing computation. The longest
//! non-overlapping repeat is found up to a factor ≤ 2 lost on highly
//! periodic inputs (the overlap branch rounds chunk lengths down to a
//! multiple of the period); on aperiodic repeats it is found exactly.
//! [`crate::coverage::max_coverage_upper_bound`] provides a reference bound
//! for small inputs to measure the coverage gap.

use crate::suffix_array::{fits_u32, refill, SuffixBackend, SuffixScratch};
use crate::{Interval, Token};

/// A repeated substring selected by [`find_repeats`], together with the
/// non-overlapping start positions chosen for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repeat<T> {
    /// The repeated token sequence.
    pub content: Vec<T>,
    /// Selected (mutually non-overlapping) occurrence start positions, in
    /// increasing order.
    pub occurrences: Vec<usize>,
}

impl<T> Repeat<T> {
    /// Length of the repeated substring.
    pub fn len(&self) -> usize {
        self.content.len()
    }

    /// Whether the repeat is the empty string (never produced by mining).
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// The selected occurrences as intervals of the mined sequence.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        let len = self.content.len();
        self.occurrences.iter().map(move |&s| Interval::new(s, s + len))
    }

    /// Total number of positions covered by the selected occurrences.
    pub fn coverage(&self) -> usize {
        self.content.len() * self.occurrences.len()
    }
}

/// Mines `s` for non-overlapping repeated substrings of length ≥ 2.
///
/// Equivalent to [`find_repeats_min_len`]`(s, 2)`; length-1 repeats are
/// never useful as traces (the paper's minimum-length constraint exists
/// precisely to amortize the constant replay cost).
///
/// # Example
///
/// The paper's Figure 4 input:
///
/// ```
/// use substrings::repeats::find_repeats;
/// let reps = find_repeats(b"aabcbcbaa");
/// let contents: Vec<&[u8]> = reps.iter().map(|r| r.content.as_slice()).collect();
/// assert_eq!(contents, vec![b"aa".as_slice(), b"bc".as_slice()]);
/// ```
pub fn find_repeats<T: Token>(s: &[T]) -> Vec<Repeat<T>> {
    find_repeats_min_len(s, 2)
}

/// Mines `s` for non-overlapping repeated substrings of length ≥ `min_len`.
///
/// Returns repeats ordered by decreasing length (ties broken by content
/// group discovery order); each repeat lists at least one occurrence, and
/// all selected occurrences across all repeats are mutually disjoint.
/// Inputs longer than `u32::MAX` tokens yield no repeats.
///
/// `min_len` maps to the runtime flag `-lg:auto_trace:min_trace_length`.
/// Repeated calls should share a [`RepeatMiner`] instead, which reuses
/// its scratch.
pub fn find_repeats_min_len<T: Token>(s: &[T], min_len: usize) -> Vec<Repeat<T>> {
    RepeatMiner::new().mine(s, min_len)
}

/// [`find_repeats_min_len`] with an explicit suffix-array backend.
///
/// The backend is a pure performance knob — both produce identical
/// suffix/LCP arrays, so the mined repeats are bit-identical; the
/// `mining_throughput` bench races the two.
pub fn find_repeats_min_len_with<T: Token>(
    s: &[T],
    min_len: usize,
    backend: SuffixBackend,
) -> Vec<Repeat<T>> {
    RepeatMiner::new().mine_with(s, min_len, backend)
}

/// Algorithm 2 with reusable scratch.
///
/// Every buffer is refilled per call and grows only when a window
/// outgrows all earlier ones, so a warm miner allocates only the repeats
/// it returns (one vector, plus a content and an occurrence vector per
/// repeat), and a new one allocates nothing until its first call. Results
/// never depend on what the miner mined before.
///
/// # Example
///
/// ```
/// use substrings::repeats::{find_repeats_min_len, RepeatMiner};
///
/// let mut miner = RepeatMiner::new();
/// for s in [&b"aabcbcbaa"[..], b"qqabcdefabcdefqq", b"abab"] {
///     assert_eq!(miner.mine(s, 2), find_repeats_min_len(s, 2));
/// }
/// ```
#[derive(Debug, Default)]
pub struct RepeatMiner {
    index: SuffixScratch,
    /// Candidates as `key(len, rank)`, then `key(len, start)` per group.
    keys: Vec<u64>,
    /// LCP edges `(i, i + 1)` with `lcp[i] ≥ min_len`, as `key(lcp[i], i)`.
    edges: Vec<u64>,
    covered: Vec<bool>,
    /// Selected starts, group after group, and per group with a selection
    /// its length and the end of its picks.
    picks: Vec<u32>,
    groups: Vec<(u32, u32)>,
}

/// Packs `(len, low)` so that ascending keys run by descending `len`,
/// then ascending `low`.
fn key(len: u32, low: u32) -> u64 {
    u64::from(u32::MAX - len) << 32 | u64::from(low)
}

fn key_len(k: u64) -> u32 {
    u32::MAX - (k >> 32) as u32
}

fn key_low(k: u64) -> u32 {
    k as u32
}

/// Root of `x`'s component, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

impl RepeatMiner {
    /// A miner with empty scratch (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// [`find_repeats_min_len`], in this miner's scratch.
    pub fn mine<T: Token>(&mut self, s: &[T], min_len: usize) -> Vec<Repeat<T>> {
        self.mine_with(s, min_len, SuffixBackend::Sais)
    }

    /// [`find_repeats_min_len_with`], in this miner's scratch.
    pub fn mine_with<T: Token>(
        &mut self,
        s: &[T],
        min_len: usize,
        backend: SuffixBackend,
    ) -> Vec<Repeat<T>> {
        let n = s.len();
        let min_len = min_len.max(1);
        if n < min_len.saturating_mul(2) || !fits_u32(n) {
            return Vec::new();
        }
        self.index.build(s, backend);
        if !self.collect_candidates(min_len as u32) {
            return Vec::new();
        }
        self.select(n);
        let mut out = Vec::with_capacity(self.groups.len());
        let mut from = 0;
        for &(len, end) in &self.groups {
            let occ = &self.picks[from..end as usize];
            let start = occ[0] as usize;
            out.push(Repeat {
                content: s[start..start + len as usize].to_vec(),
                occurrences: occ.iter().map(|&p| p as usize).collect(),
            });
            from = end as usize;
        }
        out
    }

    /// Pass 1 of Algorithm 2: walk adjacent suffix-array entries, emit
    /// candidate occurrences and the LCP edges grouping needs. Returns
    /// whether any candidate was found.
    fn collect_candidates(&mut self, min_len: u32) -> bool {
        let SuffixScratch { sa, rank, lcp, .. } = &self.index;
        // Sized exactly: these buffers stay allocated between windows.
        let edges = lcp.iter().filter(|&&p| p >= min_len).count();
        self.keys.clear();
        self.keys.reserve_exact(2 * edges);
        self.edges.clear();
        self.edges.reserve_exact(edges);
        for (i, &p) in lcp.iter().enumerate() {
            if p < min_len {
                continue;
            }
            let r = i as u32;
            self.edges.push(key(p, r));
            let (s1, s2) = (sa[i], sa[i + 1]);
            let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
            if lo + p <= hi {
                // The two occurrences do not overlap in the string.
                self.keys.push(key(p, r));
                self.keys.push(key(p, r + 1));
            } else {
                // Overlapping occurrences: by the structure of the suffix
                // array the overlap is a run of repeats of period d = hi - lo.
                // Split the run into two adjacent non-overlapping chunks.
                let d = hi - lo;
                let mut l = (p + d) / 2;
                l -= l % d;
                if l >= min_len {
                    self.keys.push(key(l, rank[lo as usize]));
                    self.keys.push(key(l, rank[(lo + l) as usize]));
                }
            }
        }
        !self.keys.is_empty()
    }

    /// Pass 2: group the candidates by content and select greedily,
    /// longest first, into `picks` and `groups`.
    ///
    /// Two ranks share a prefix of length `len` exactly when every LCP
    /// edge between them is at least `len`: when they are connected once
    /// all those edges are in. With keys sorted by `(len desc, rank)`, a
    /// group is a run of equal-length keys in one component; sorting its
    /// starts gives the sweep the `(len desc, group, start)` order. Every
    /// earlier selection is at least as long as the current candidate, so
    /// an intersection implies one of the candidate's endpoints is
    /// already covered.
    fn select(&mut self, n: usize) {
        let Self { index, keys, edges, covered, picks, groups } = self;
        keys.sort_unstable();
        edges.sort_unstable();
        // The rank array is spent: it becomes the union-find's parents.
        let parent = &mut index.rank;
        parent.clear();
        parent.extend(0..n as u32);
        refill(covered, n, false);
        picks.clear();
        groups.clear();
        let mut next_edge = 0;
        let mut i = 0;
        while i < keys.len() {
            let len = key_len(keys[i]);
            while let Some(&e) = edges.get(next_edge).filter(|&&e| key_len(e) >= len) {
                let (a, b) = (find(parent, key_low(e)), find(parent, key_low(e) + 1));
                parent[a as usize] = b;
                next_edge += 1;
            }
            let root = find(parent, key_low(keys[i]));
            let mut j = i + 1;
            while j < keys.len()
                && key_len(keys[j]) == len
                && find(parent, key_low(keys[j])) == root
            {
                j += 1;
            }
            let group = &mut keys[i..j];
            for k in group.iter_mut() {
                *k = key(len, index.sa[key_low(*k) as usize]);
            }
            group.sort_unstable();
            let len = len as usize;
            let before = picks.len();
            for &k in group.iter() {
                let start = key_low(k) as usize;
                if covered[start] || covered[start + len - 1] {
                    continue;
                }
                covered[start..start + len].fill(true);
                picks.push(start as u32);
            }
            if picks.len() > before {
                groups.push((len as u32, picks.len() as u32));
            }
            i = j;
        }
    }
}

/// Total coverage (§3 objective value) of a mined repeat set.
pub fn total_coverage<T>(repeats: &[Repeat<T>]) -> usize {
    repeats.iter().map(Repeat::coverage).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Algorithm 2 as it ran before [`RepeatMiner`]: `usize` arrays from
    /// [`SuffixArray`], a sparse-table RMQ over the LCP for grouping, and a
    /// second full sort for the sweep. Kept as the differential oracle.
    mod reference {
        use super::super::Repeat;
        use crate::suffix_array::{SuffixArray, SuffixBackend};
        use crate::Token;
        use std::cmp::Reverse;

        /// A candidate occurrence: `(len, group, start)` where `group`
        /// identifies the substring content (equal content ⇔ equal group
        /// within a length).
        #[derive(Debug, Clone, Copy)]
        struct Candidate {
            len: usize,
            start: usize,
            group: u32,
        }

        pub(super) fn find_repeats_min_len_with<T: Token>(
            s: &[T],
            min_len: usize,
            backend: SuffixBackend,
        ) -> Vec<Repeat<T>> {
            let min_len = min_len.max(1);
            let n = s.len();
            if n < 2 * min_len {
                return Vec::new();
            }
            let sa = SuffixArray::build_with(s, backend);
            let mut cands = collect_candidates(&sa, min_len);
            assign_groups(&sa, &mut cands);

            cands.sort_unstable_by_key(|c| (Reverse(c.len), c.group, c.start));
            let mut covered = vec![false; n];
            let mut out: Vec<Repeat<T>> = Vec::new();
            let mut group_slot: Vec<Option<usize>> = Vec::new();
            for c in &cands {
                if covered[c.start] || covered[c.start + c.len - 1] {
                    continue;
                }
                covered[c.start..c.start + c.len].iter_mut().for_each(|b| *b = true);
                let gi = c.group as usize;
                if group_slot.len() <= gi {
                    group_slot.resize(gi + 1, None);
                }
                match group_slot[gi] {
                    Some(slot) => out[slot].occurrences.push(c.start),
                    None => {
                        group_slot[gi] = Some(out.len());
                        out.push(Repeat {
                            content: s[c.start..c.start + c.len].to_vec(),
                            occurrences: vec![c.start],
                        });
                    }
                }
            }
            for r in &mut out {
                r.occurrences.sort_unstable();
            }
            out
        }

        fn collect_candidates(sa: &SuffixArray, min_len: usize) -> Vec<Candidate> {
            let mut cands = Vec::with_capacity(2 * sa.len());
            for i in 0..sa.len().saturating_sub(1) {
                let (s1, s2, p) = (sa.sa()[i], sa.sa()[i + 1], sa.lcp()[i]);
                if p < min_len {
                    continue;
                }
                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                if lo + p <= hi {
                    cands.push(Candidate { len: p, start: s1, group: 0 });
                    cands.push(Candidate { len: p, start: s2, group: 0 });
                } else {
                    let d = hi - lo;
                    let mut l = (p + d) / 2;
                    l -= l % d;
                    if l >= min_len {
                        cands.push(Candidate { len: l, start: lo, group: 0 });
                        cands.push(Candidate { len: l, start: lo + l, group: 0 });
                    }
                }
            }
            cands
        }

        fn assign_groups(sa: &SuffixArray, cands: &mut [Candidate]) {
            let rmq = LcpRmq::new(sa.lcp());
            cands.sort_unstable_by_key(|c| (Reverse(c.len), sa.rank()[c.start]));
            let mut next_group = 0u32;
            for i in 0..cands.len() {
                if i > 0 {
                    let (prev, cur) = (cands[i - 1], cands[i]);
                    let same = prev.len == cur.len
                        && (prev.start == cur.start
                            || rmq.range_min(sa.rank()[prev.start], sa.rank()[cur.start])
                                >= cur.len);
                    if !same {
                        next_group += 1;
                    }
                }
                cands[i].group = next_group;
            }
        }

        /// Sparse-table range-minimum structure over the LCP array.
        struct LcpRmq {
            // table[k][i] = min of lcp[i .. i + 2^k]
            table: Vec<Vec<usize>>,
        }

        impl LcpRmq {
            fn new(lcp: &[usize]) -> Self {
                let n = lcp.len();
                let mut table = vec![lcp.to_vec()];
                let mut k = 1;
                while (1 << k) <= n {
                    let prev = &table[k - 1];
                    let half = 1 << (k - 1);
                    let row: Vec<usize> =
                        (0..=n - (1 << k)).map(|i| prev[i].min(prev[i + half])).collect();
                    table.push(row);
                    k += 1;
                }
                Self { table }
            }

            /// Minimum of `lcp[lo..hi]` where `lo < hi` are suffix ranks.
            fn range_min(&self, a: usize, b: usize) -> usize {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                debug_assert!(lo < hi, "range_min needs distinct ranks");
                let len = hi - lo;
                let k = usize::BITS as usize - 1 - len.leading_zeros() as usize;
                self.table[k][lo].min(self.table[k][hi - (1 << k)])
            }
        }
    }

    /// A noisy periodic stream of `len` tokens: `motif` rotated by `rot`,
    /// every `every`-th block replaced by the sub-motif `motif[a..=b]`,
    /// tokens reduced modulo `alpha` (when nonzero) and `noise` written
    /// over the result.
    fn periodic_stream(
        motif: &[u64],
        alpha: u64,
        (every, rot, (a, b)): (usize, usize, (usize, usize)),
        noise: &[(usize, u64)],
        len: usize,
    ) -> Vec<u64> {
        let m = motif.len();
        let (a, b) = ((a % m).min(b % m), (a % m).max(b % m));
        let mut s: Vec<u64> = Vec::with_capacity(len + m);
        let mut block = 0;
        while s.len() < len {
            if every > 0 && block % every == every - 1 {
                s.extend_from_slice(&motif[a..=b]);
            } else {
                s.extend((0..m).map(|k| motif[(k + rot) % m]));
            }
            block += 1;
        }
        s.truncate(len);
        if alpha > 0 {
            s.iter_mut().for_each(|t| *t %= alpha);
        }
        for &(at, tok) in noise {
            if at < len {
                s[at] = tok;
            }
        }
        s
    }

    #[test]
    fn oversize_input_yields_no_repeats() {
        // A zero-sized token type makes a window past `u32::MAX` tokens
        // cost no memory; the miner must refuse it rather than wrap.
        let huge = vec![(); u32::MAX as usize + 1];
        assert!(find_repeats_min_len(&huge, 2).is_empty());
        assert!(RepeatMiner::new().mine(&huge, 25).is_empty());
        // Just inside the bound the all-equal window still mines.
        let mut miner = RepeatMiner::new();
        assert_eq!(
            miner.mine(&[(); 4], 2),
            vec![Repeat { content: vec![(); 2], occurrences: vec![0, 2] }]
        );
    }

    #[test]
    fn miner_reuse_across_token_types_and_sizes() {
        // One miner, windows that grow, shrink and change token type: every
        // result equals a fresh mining of the same window.
        let mut miner = RepeatMiner::new();
        let long: Vec<u64> = (0..3000u64).map(|i| (i % 37) * 1_000_003).collect();
        let short: Vec<u32> = (0..60u32).map(|i| i % 7).collect();
        for _ in 0..2 {
            assert_eq!(miner.mine(&long, 5), find_repeats_min_len(&long, 5));
            assert_eq!(miner.mine(b"aabcbcbaa", 2), find_repeats_min_len(b"aabcbcbaa", 2));
            assert_eq!(miner.mine(&short, 3), find_repeats_min_len(&short, 3));
            assert!(miner.mine(&(0..500u32).collect::<Vec<_>>(), 2).is_empty());
        }
    }

    fn contents<T: Token>(reps: &[Repeat<T>]) -> Vec<Vec<T>> {
        reps.iter().map(|r| r.content.clone()).collect()
    }

    /// All selected intervals across all repeats must be pairwise disjoint
    /// and must actually match their repeat's content.
    fn check_well_formed<T: Token>(s: &[T], reps: &[Repeat<T>], min_len: usize) {
        let mut all: Vec<Interval> = Vec::new();
        for r in reps {
            assert!(r.len() >= min_len, "repeat shorter than min_len: {r:?}");
            for iv in r.intervals() {
                assert_eq!(&s[iv.start..iv.end], r.content.as_slice(), "occurrence mismatch");
                all.push(iv);
            }
        }
        all.sort();
        for w in all.windows(2) {
            assert!(!w[0].overlaps(&w[1]), "overlapping selections {w:?}");
        }
    }

    #[test]
    fn figure4_output() {
        // Figure 4: FindRepeats("aabcbcbaa") = { aa, bc }.
        let reps = find_repeats(b"aabcbcbaa");
        assert_eq!(contents(&reps), vec![b"aa".to_vec(), b"bc".to_vec()]);
        // aa selected at 0 and 7; bc at 2 and 4.
        assert_eq!(reps[0].occurrences, vec![0, 7]);
        assert_eq!(reps[1].occurrences, vec![2, 4]);
        check_well_formed(b"aabcbcbaa", &reps, 2);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_repeats::<u8>(&[]).is_empty());
        assert!(find_repeats(b"a").is_empty());
        assert!(find_repeats(b"ab").is_empty());
        assert!(find_repeats(b"abc").is_empty());
        // Shortest input with a length-2 repeat.
        let reps = find_repeats(b"abab");
        assert_eq!(contents(&reps), vec![b"ab".to_vec()]);
        assert_eq!(reps[0].occurrences, vec![0, 2]);
    }

    #[test]
    fn pure_tandem_run() {
        // "abababab" → period ab; greedy should tile it completely.
        let s = b"abababab";
        let reps = find_repeats(s);
        check_well_formed(s, &reps, 2);
        assert_eq!(total_coverage(&reps), 8);
    }

    #[test]
    fn all_same_token() {
        let s = vec![9u8; 17];
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        // Nearly everything should be covered (at most min_len-1 + remainder
        // positions uncovered).
        assert!(total_coverage(&reps) >= 14, "coverage {}", total_coverage(&reps));
    }

    #[test]
    fn repeats_separated_by_noise() {
        // The motivating case for relaxing tandem repeats: a loop body
        // interrupted by irregular convergence checks.
        // body = "wxyz", noise tokens q, r, s interleave.
        let s = b"wxyzqwxyzrwxyzswxyz";
        let reps = find_repeats(s);
        check_well_formed(s, &reps, 2);
        let body = reps.iter().find(|r| r.content == b"wxyz".to_vec());
        let body = body.expect("loop body found despite noise");
        assert!(body.occurrences.len() >= 4, "found {:?}", body.occurrences);
    }

    #[test]
    fn longest_repeat_always_found() {
        // The paper guarantees the longest repeated substring is selected.
        let s = b"qqabcdefabcdefqq";
        let reps = find_repeats(s);
        assert_eq!(reps[0].content, b"abcdef".to_vec());
        assert_eq!(reps[0].occurrences, vec![2, 8]);
    }

    #[test]
    fn min_len_filters_short_repeats() {
        let s = b"aabcbcbaa";
        let reps = find_repeats_min_len(s, 3);
        // No repeated substring of length >= 3 exists.
        assert!(reps.is_empty(), "{reps:?}");
        // min_len = 1 admits single-token repeats.
        let reps1 = find_repeats_min_len(s, 1);
        check_well_formed(s, &reps1, 1);
        assert!(total_coverage(&reps1) >= total_coverage(&find_repeats(s)));
    }

    #[test]
    fn jacobi_period_two_stream() {
        // Figure 1's steady state: the region allocator alternates x1/x2,
        // so the repeating unit spans TWO source-level iterations:
        //   DOT(R,x1,t1) SUB(b,t1,t2) DIV(t2,d,x2) DOT(R,x2,t1) ...
        // Encode each distinct (task, args) as a token; the stream is a
        // 6-token period repeated.
        let period: Vec<u16> = vec![1, 2, 3, 4, 5, 6];
        let mut s = Vec::new();
        for _ in 0..8 {
            s.extend_from_slice(&period);
        }
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        assert_eq!(total_coverage(&reps), s.len());
        // The dominant repeat must be a multiple of the 6-token period.
        assert_eq!(reps[0].len() % 6, 0, "dominant repeat {:?}", reps[0].len());
    }

    #[test]
    fn backend_choice_never_changes_mining() {
        let corpus: &[&[u8]] = &[b"aabcbcbaa", b"abababab", b"qqabcdefabcdefqq", b"banana"];
        for s in corpus {
            let sais = find_repeats_min_len_with(s, 2, SuffixBackend::Sais);
            let doubling = find_repeats_min_len_with(s, 2, SuffixBackend::Doubling);
            assert_eq!(sais, doubling, "backend changed mining on {s:?}");
        }
    }

    #[test]
    fn no_repeats_in_all_distinct() {
        let s: Vec<u32> = (0..500).collect();
        assert!(find_repeats(&s).is_empty());
    }

    #[test]
    fn coverage_of_long_period_with_prefix() {
        // A long unique startup phase followed by a repetitive main loop.
        let mut s: Vec<u32> = (1000..1100).collect(); // unique prefix
        let period: Vec<u32> = (0..50).collect();
        for _ in 0..10 {
            s.extend_from_slice(&period);
        }
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        // All 500 loop positions should be covered.
        assert!(total_coverage(&reps) >= 500, "coverage {}", total_coverage(&reps));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Selected occurrences are disjoint, match their content, and
            /// respect the minimum length, for arbitrary small-alphabet
            /// strings (small alphabets maximize repeat density).
            #[test]
            fn well_formed(
                s in proptest::collection::vec(0u8..4, 0..400),
                min_len in 1usize..6,
            ) {
                let reps = find_repeats_min_len(&s, min_len);
                let mut all: Vec<Interval> = Vec::new();
                for r in &reps {
                    prop_assert!(r.len() >= min_len);
                    for iv in r.intervals() {
                        prop_assert_eq!(&s[iv.start..iv.end], r.content.as_slice());
                        all.push(iv);
                    }
                }
                all.sort();
                for w in all.windows(2) {
                    prop_assert!(!w[0].overlaps(&w[1]));
                }
            }

            /// The suffix-array backend never changes what Algorithm 2
            /// mines: SA-IS and prefix doubling select identical repeats
            /// on noisy periodic task-hash streams (the finder's input
            /// shape) at every minimum length.
            #[test]
            fn sais_and_doubling_mine_identically(
                period in proptest::collection::vec(any::<u64>(), 1..12),
                noise in proptest::collection::vec((0usize..400, any::<u64>()), 0..8),
                len in 0usize..400,
                min_len in 1usize..6,
            ) {
                let mut s: Vec<u64> = (0..len).map(|i| period[i % period.len()]).collect();
                for (at, tok) in noise {
                    if at < s.len() {
                        s[at] = tok;
                    }
                }
                prop_assert_eq!(
                    find_repeats_min_len_with(&s, min_len, SuffixBackend::Sais),
                    find_repeats_min_len_with(&s, min_len, SuffixBackend::Doubling)
                );
            }

            /// The scratch miner mines exactly what the reference mined,
            /// on noisy periodic task-hash streams (rotations, sub-motifs,
            /// shrunk alphabets) at minimum lengths 1–29. One miner mines
            /// every window in turn, so scratch left over from a longer or
            /// wider window would show up on the next one.
            #[test]
            fn miner_matches_reference(
                windows in proptest::collection::vec(
                    (
                        (proptest::collection::vec(any::<u64>(), 1..80), 0u64..48),
                        (0usize..6, 0usize..80, (0usize..80, 0usize..80)),
                        (
                            proptest::collection::vec((0usize..6000, any::<u64>()), 0..24),
                            0usize..6000,
                            1usize..30,
                        ),
                    ),
                    2..7,
                ),
            ) {
                let mut miner = RepeatMiner::new();
                let mut first: Option<(Vec<u64>, usize)> = None;
                for ((motif, alpha), shape, (noise, len, min_len)) in windows {
                    let s = periodic_stream(&motif, alpha, shape, &noise, len);
                    prop_assert_eq!(
                        miner.mine(&s, min_len),
                        reference::find_repeats_min_len_with(&s, min_len, SuffixBackend::Doubling)
                    );
                    first.get_or_insert((s, min_len));
                }
                if let Some((s, min_len)) = first {
                    prop_assert_eq!(
                        miner.mine(&s, min_len),
                        reference::find_repeats_min_len_with(&s, min_len, SuffixBackend::Sais)
                    );
                }
            }

            /// Every substring the miner reports really does occur at least
            /// twice in the input (possibly overlapping).
            #[test]
            fn reported_content_repeats(s in proptest::collection::vec(0u8..3, 4..300)) {
                let reps = find_repeats(&s);
                for r in &reps {
                    let occ = s
                        .windows(r.content.len())
                        .filter(|w| *w == r.content.as_slice())
                        .count();
                    prop_assert!(occ >= 2, "substring {:?} occurs {} time(s)", r.content, occ);
                }
            }

            /// The miner's longest find is sandwiched against the true
            /// longest non-overlapping repeat (by brute force): never
            /// longer, and at least half as long. Exact equality does NOT
            /// hold on periodic inputs — e.g. "0101010", whose longest
            /// non-overlapping repeat "010" (at 0 and 4) is invisible to
            /// Algorithm 2 because both adjacent suffix pairs take the
            /// overlap branch and round the chunk length down to a multiple
            /// of the period d = 2. This is inherent to the paper's
            /// pseudocode, which trades optimality for O(n log n).
            #[test]
            fn finds_longest_repeat(s in proptest::collection::vec(0u8..3, 4..120)) {
                let n = s.len();
                let mut longest = 0usize;
                for len in (2..=n / 2).rev() {
                    let mut found = false;
                    'outer: for i in 0..=n - len {
                        for j in i + len..=n - len {
                            if s[i..i + len] == s[j..j + len] {
                                found = true;
                                break 'outer;
                            }
                        }
                    }
                    if found {
                        longest = len;
                        break;
                    }
                }
                let reps = find_repeats(&s);
                let got = reps.iter().map(|r| r.len()).max().unwrap_or(0);
                prop_assert!(got <= longest, "selected {got} > brute-force longest {longest}");
                prop_assert!(got >= longest.div_ceil(2), "selected {got} < half of {longest}");
            }
        }
    }
}
