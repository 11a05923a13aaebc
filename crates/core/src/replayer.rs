//! The trace replayer (§4.3): online candidate recognition and replay.
//!
//! Mined candidates live in a trie; as each task arrives, a set of cursors
//! ("pointers into the trie") advances. A cursor reaching a terminal node
//! has recognized a complete candidate occurrence. Because Apophenia never
//! speculates (§5.2), tasks buffer in a *pending queue* while any cursor
//! might still complete a match covering them; once a match is chosen, the
//! tasks before it flush untraced, the matched tasks are forwarded inside
//! `begin_trace`/`end_trace`, and the stream continues.
//!
//! When several matches are available the replayer picks by the paper's
//! scoring function: candidate length × occurrence count (capped, and
//! exponentially decayed by staleness), with a small bonus for candidates
//! that have replayed before — exploration vs. exploitation.
//!
//! Replay is deferred while an *older* cursor (one whose match would start
//! at or before the best completed match) is still alive: it may complete
//! a longer, better-scoring candidate. Deferral is bounded by the longest
//! candidate in the trie, so the pending queue cannot grow without bound.
//!
//! Periodic streams sit in that deferral most of the time: sub-pieces and
//! rotations of a long motif keep completing while the motif's own cursor
//! is still alive. Two exact shortcuts keep those decisions cheap. First,
//! when some cursor starts at or before the *earliest* completed match
//! (kept current as matches come and go), it blocks whichever match would
//! win, so the decision breaks before any scoring, in O(live cursors).
//! Second, when a choice is needed, each distinct candidate is scored
//! once per decision (many completed matches share a candidate), and the
//! cached scores are dropped when the decision returns. The frozen
//! reference pipeline ([`TraceReplayer::reference`]) keeps the
//! unshortened rule, so the parity suites compare the two.
//!
//! # Bounded memory
//!
//! With [`CapacityConfig`] limits set, the candidate store itself is
//! bounded too: after every ingest, while the trie exceeds
//! `max_candidates` live candidates or `max_trie_nodes` live nodes, the
//! lowest-scoring candidate is evicted (ties evict the newer id). Two
//! classes are deferred — candidates with a completed match awaiting a
//! replay decision (their in-flight occurrence must resolve first) and
//! candidates with a live cursor on their path (the cursor may be about
//! to complete them). Eviction inputs — scores, cursor positions, pending
//! matches — are pure functions of the ingest/replay stream, so
//! control-replicated nodes (§5.1) evict identically. When the trie's
//! free list outgrows its live nodes the trie is compacted and surviving
//! cursors are remapped, so allocation tracks the live set.

use crate::config::{CapacityConfig, Config, ScoringConfig};
use crate::finder::MinedBatch;
use std::collections::{HashSet, VecDeque};
use substrings::trie::{CandidateId, NodeId, NodeSnapshot, Trie, TrieSnapshot};
use tasksim::ids::TraceId;
use tasksim::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tasksim::task::{TaskDesc, TaskHash};

/// Where the replayer forwards operations — the runtime beneath Apophenia.
///
/// Implemented by [`tasksim::runtime::Runtime`] (and by test doubles).
pub trait TraceSink {
    /// The sink's error type.
    type Error;

    /// Forwards `begin_trace`.
    fn begin_trace(&mut self, id: TraceId) -> Result<(), Self::Error>;
    /// Forwards `end_trace`.
    fn end_trace(&mut self, id: TraceId) -> Result<(), Self::Error>;
    /// Forwards a task launch.
    fn execute_task(&mut self, task: TaskDesc) -> Result<(), Self::Error>;
    /// Forwards a contiguous run of untraced task launches in one call —
    /// the batched sink path [`TraceReplayer::on_batch`] drives. Must be
    /// observably equivalent to calling [`Self::execute_task`] on each
    /// element in order, leaving the buffer empty on success; sinks with
    /// per-call overhead (stat folds, pipeline pumping) override it to pay
    /// that overhead once per run. On error, tasks already forwarded stay
    /// forwarded and the rest are dropped with the drained buffer.
    ///
    /// # Errors
    ///
    /// Propagates the first per-task error.
    fn execute_batch(&mut self, tasks: &mut Vec<TaskDesc>) -> Result<(), Self::Error> {
        for task in tasks.drain(..) {
            self.execute_task(task)?;
        }
        Ok(())
    }
    /// Notifies the sink that no future replay will reference `id` (the
    /// candidate recorded under it was evicted), so any template stored
    /// for it can be dropped. Without this, candidate eviction would
    /// orphan templates and the template store would keep growing even
    /// under a candidate cap. Default: ignore.
    ///
    /// # Errors
    ///
    /// Sink-defined.
    fn forget_trace(&mut self, _id: TraceId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Reports the replayer's current §4.3 utility score for the
    /// candidate behind trace `id`, pushed just before each replay — the
    /// shared signal a bounded template store ranks its own evictions by,
    /// so the two stores agree about what is hot. The score is a pure
    /// function of the deterministic stream. Default: ignore.
    ///
    /// # Errors
    ///
    /// Sink-defined.
    fn record_trace_score(&mut self, _id: TraceId, _score: f64) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl TraceSink for tasksim::runtime::Runtime {
    type Error = tasksim::runtime::RuntimeError;

    fn begin_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::begin_trace(self, id)
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::end_trace(self, id)
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::execute_task(self, task).map(|_| ())
    }

    fn execute_batch(&mut self, tasks: &mut Vec<TaskDesc>) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::execute_batch(self, tasks)
    }

    fn forget_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::forget_template(self, id);
        Ok(())
    }

    fn record_trace_score(&mut self, id: TraceId, score: f64) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::note_trace_score(self, id, score);
        Ok(())
    }
}

/// Per-candidate bookkeeping for scoring.
#[derive(Debug, Clone, Default)]
struct CandidateMeta {
    /// Assigned on first replay; templates are recorded under this id.
    trace_id: Option<TraceId>,
    /// Occurrences observed (mined + matched live).
    count: u32,
    /// Global position just past the most recent occurrence.
    last_seen: u64,
    /// Completed replays.
    replays: u64,
    len: usize,
}

/// An active trie cursor: a potential match in progress.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: NodeId,
    /// Global position of the first token of the potential match.
    start: u64,
}

/// A fully recognized candidate occurrence awaiting a replay decision.
#[derive(Debug, Clone, Copy)]
struct CompletedMatch {
    cand: CandidateId,
    start: u64,
    end: u64,
}

/// A buffered, not-yet-forwarded task.
#[derive(Debug, Clone)]
struct PendingTask {
    desc: TaskDesc,
    global: u64,
}

/// Memoized image of the most recently replayed candidate's trie path,
/// letting the mid-replay steady state advance its single cursor without
/// hash-map stepping. Guarded by the trie epoch: any trie mutation
/// invalidates it, and it is rebuilt (at most once per candidate per
/// epoch) on the next replay. Never serialized — a restored replayer
/// rebuilds it lazily.
#[derive(Debug, Default)]
struct ReplayMemo {
    cand: Option<CandidateId>,
    epoch: u64,
    /// The candidate's token sequence.
    seq: Vec<TaskHash>,
    /// The trie node at each position (root excluded).
    chain: Vec<NodeId>,
    /// Whether the node at each position ends fast stepping: a terminal
    /// (some candidate completes there — the generic path must record the
    /// match) or a leaf (the cursor dies there).
    stop: Vec<bool>,
}

/// Bytes charged per live trie node by the deterministic byte model
/// behind [`CapacityConfig::max_trie_bytes`]: the node struct (child map
/// header, terminal, depth, subtree bookkeeping) plus its parent's child
/// entry. Deliberately a model constant rather than an allocator probe —
/// byte budgets must be a pure function of the deterministic stream so
/// replicated nodes enforce them in lock-step.
pub const TRIE_NODE_FOOTPRINT: usize = 96;

/// Counters the replayer exposes to the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayerStats {
    /// Tasks forwarded untraced.
    pub forwarded_untraced: u64,
    /// Tasks forwarded inside a trace (recording or replaying).
    pub forwarded_traced: u64,
    /// Trace fragments issued (begin/end pairs).
    pub traces_issued: u64,
    /// Candidate pieces currently live.
    pub candidates: usize,
    /// Candidates evicted to stay under the [`CapacityConfig`] bounds.
    pub evicted_candidates: u64,
    /// Times the candidate trie was compacted to release freed nodes.
    pub trie_compactions: u64,
    /// Most live candidates held at once, sampled after capacity
    /// enforcement. With `max_candidates` set this exceeds the cap only
    /// while every over-cap candidate is deferred (a pending completed
    /// match or a live cursor on its path) — eviction is best-effort at
    /// each ingest, re-attempted at the next.
    pub peak_candidates: usize,
    /// Most trie node slots ever allocated at once (live + free-listed) —
    /// the memory high-water mark the capacity bounds exist to contain.
    pub peak_trie_nodes: usize,
    /// Slots currently allocated in the per-candidate bookkeeping table
    /// (`meta`, parallel to the trie's candidate slots). Shrinks when
    /// capacity enforcement truncates trailing tombstoned slots.
    pub meta_capacity: usize,
    /// Most `meta` slots ever allocated at once.
    pub peak_meta_capacity: usize,
    /// Tasks currently buffered in the pending queue (the replayer's half
    /// of the end-to-end backpressure signal).
    pub pending_tasks: usize,
    /// Most tasks ever buffered in the pending queue at once.
    pub peak_pending_tasks: usize,
    /// Current candidate-store footprint under the deterministic byte
    /// model (see [`TraceReplayer::trie_bytes`]).
    pub trie_bytes: usize,
    /// Highest candidate-store footprint observed, sampled after capacity
    /// enforcement — the figure a `max_trie_bytes` budget bounds.
    pub peak_trie_bytes: usize,
    /// §4.3 score evaluations made to choose among completed matches
    /// (replay decisions and end-of-stream flushes). The work counter of
    /// the deferral path: a decision that an older cursor blocks scores
    /// nothing, and one that must choose scores each distinct candidate
    /// once. The frozen reference pipeline does not count.
    pub match_scores: u64,
}

/// The online recognizer/replayer. See module docs.
#[derive(Debug)]
pub struct TraceReplayer {
    trie: Trie<TaskHash>,
    meta: Vec<CandidateMeta>,
    cursors: Vec<Cursor>,
    pending: VecDeque<PendingTask>,
    completed: Vec<CompletedMatch>,
    /// Trace ids whose candidates were evicted; the sink is told to drop
    /// their templates at the next forwarding opportunity (eviction runs
    /// inside `ingest`, which has no sink at hand).
    retired_traces: Vec<TraceId>,
    scoring: ScoringConfig,   // snapshot: derived (from Config)
    capacity: CapacityConfig, // snapshot: derived (from Config)
    min_len: usize,           // snapshot: derived (from Config)
    max_piece: usize,         // snapshot: derived (from Config)
    next_trace: u32,
    /// Global index of the next arriving task.
    now: u64,
    stats: ReplayerStats,
    /// Built by [`Self::reference`]: route through the frozen per-task
    /// reference path instead of the fast paths. A test baseline, never
    /// persisted: a restored replayer takes the fast paths, which are
    /// bit-identical.
    reference: bool, // snapshot: derived
    /// Bumped on every trie mutation (ingest); guards [`ReplayMemo`].
    /// A restored replayer starts at epoch zero with a cold memo, which
    /// only costs one generic step before the fast path re-engages.
    trie_epoch: u64, // snapshot: derived
    /// When `Some(i)`: exactly one cursor is live, sitting at
    /// `memo.chain[i]` with no completed match outstanding — the
    /// mid-replay steady state. Cleared by anything that perturbs cursors
    /// outside the per-task step (ingest, flush).
    fast_pos: Option<usize>, // snapshot: derived — re-established by the next step
    memo: ReplayMemo, // snapshot: derived — rebuilt lazily per epoch
    /// Double-buffer scratch swapped with `cursors` each generic step, so
    /// the steady states never allocate a survivor vector.
    scratch_cursors: Vec<Cursor>, // snapshot: derived
    /// Reusable run buffer behind [`Self::on_batch`]'s contiguous
    /// untraced forwarding.
    run_buf: Vec<TaskDesc>, // snapshot: derived
    /// Reusable scratch collections for `enforce_capacity` (the hot
    /// ingest path must not rebuild them per call).
    scratch_pending: HashSet<u32>, // snapshot: derived
    scratch_cursor_nodes: HashSet<NodeId>, // snapshot: derived
    scratch_ranked: Vec<(f64, u32)>, // snapshot: derived
    scratch_dead: HashSet<NodeId>, // snapshot: derived
    /// `(stamp, score)` per candidate id for [`Self::best_completed`]: an
    /// entry is valid only while its stamp equals `score_stamp`, which
    /// each call bumps, so no score outlives the call that computed it.
    scratch_scores: Vec<(u64, f64)>, // snapshot: derived
    score_stamp: u64, // snapshot: derived
    /// Earliest start among `completed`, kept current wherever the fast
    /// paths change it, so [`Self::decide`] reads it without a scan. The
    /// reference step extends `completed` without updating it; only
    /// `decide` reads it, and the reference pipeline never calls `decide`.
    first_completed: Option<u64>, // snapshot: derived — recomputed on restore
}

impl TraceReplayer {
    /// Creates a replayer from a configuration.
    pub fn new(config: &Config) -> Self {
        Self {
            trie: Trie::new(),
            meta: Vec::new(),
            cursors: Vec::new(),
            pending: VecDeque::new(),
            completed: Vec::new(),
            retired_traces: Vec::new(),
            scoring: config.scoring,
            capacity: config.capacity,
            min_len: config.min_trace_length,
            max_piece: config.effective_max_len(),
            next_trace: 0,
            now: 0,
            stats: ReplayerStats::default(),
            reference: false,
            trie_epoch: 0,
            fast_pos: None,
            memo: ReplayMemo::default(),
            scratch_cursors: Vec::new(),
            run_buf: Vec::new(),
            scratch_pending: HashSet::new(),
            scratch_cursor_nodes: HashSet::new(),
            scratch_ranked: Vec::new(),
            scratch_dead: HashSet::new(),
            scratch_scores: Vec::new(),
            score_stamp: 0,
            first_completed: None,
        }
    }

    /// A replayer that feeds every task through the frozen per-task
    /// reference pipeline: the pre-optimization recognizer the fast paths
    /// are pinned against by the parity suites and the `hot_path` bench.
    pub fn reference(config: &Config) -> Self {
        Self { reference: true, ..Self::new(config) }
    }

    /// Whether this replayer was built by [`Self::reference`].
    pub(crate) fn is_reference(&self) -> bool {
        self.reference
    }

    /// Ingests mined candidates: splits them into pieces of at most
    /// `max_trace_length` tokens (Figure 8) and registers each piece, then
    /// enforces the [`CapacityConfig`] bounds by score-based eviction.
    pub fn ingest(&mut self, batch: &MinedBatch) {
        // The trie is about to change shape (and capacity enforcement may
        // remap cursors): invalidate the replay memo and disengage the
        // fast path until the generic step re-establishes it.
        self.trie_epoch += 1;
        self.fast_pos = None;
        for cand in &batch.candidates {
            let mut offset = 0usize;
            while offset < cand.content.len() {
                let end = (offset + self.max_piece).min(cand.content.len());
                let piece = &cand.content[offset..end];
                if let Some(id) =
                    (piece.len() >= self.min_len.max(1)).then(|| self.trie.insert(piece)).flatten()
                {
                    let idx = id.0 as usize;
                    if self.meta.len() <= idx {
                        self.meta.resize_with(idx + 1, CandidateMeta::default);
                    }
                    let m = &mut self.meta[idx];
                    m.len = piece.len();
                    m.count = m.count.saturating_add(cand.occurrences.len() as u32);
                    let occ_end =
                        cand.occurrences.iter().map(|&o| o + end as u64).max().unwrap_or(0);
                    m.last_seen = m.last_seen.max(occ_end.min(batch.slice_end));
                } else {
                    // `insert` rejects only empty pieces, which the
                    // `min_len.max(1)` guard already filtered out.
                    debug_assert!(
                        piece.len() < self.min_len.max(1),
                        "non-empty piece rejected by the trie"
                    );
                }
                offset = end;
            }
        }
        self.stats.peak_meta_capacity = self.stats.peak_meta_capacity.max(self.meta.len());
        // Node peak samples *before* enforcement (the true allocation
        // high-water, including the transient a big batch causes);
        // candidate peak samples *after* (the live-set high-water the
        // `max_candidates` bound guarantees).
        self.stats.peak_trie_nodes =
            self.stats.peak_trie_nodes.max(self.trie.allocated_node_count());
        self.enforce_capacity();
        self.stats.peak_candidates = self.stats.peak_candidates.max(self.trie.candidate_count());
        self.stats.candidates = self.trie.candidate_count();
        self.stats.peak_trie_bytes = self.stats.peak_trie_bytes.max(self.trie_bytes());
    }

    /// The candidate store's current footprint under the deterministic
    /// byte model backing [`CapacityConfig::max_trie_bytes`]: a flat
    /// [`TRIE_NODE_FOOTPRINT`] per live node plus the stored candidate
    /// contents. A *model*, not an allocator measurement — it is a pure
    /// function of the live structure, so control-replicated nodes (§5.1)
    /// agree on it and evict identically, and a snapshot restores to the
    /// same figure.
    pub fn trie_bytes(&self) -> usize {
        self.trie.node_count() * TRIE_NODE_FOOTPRINT
            + self.meta.iter().map(|m| m.len * std::mem::size_of::<TaskHash>()).sum::<usize>()
    }

    /// Like [`Self::trie_bytes`] but charging *allocated* node slots
    /// (live + free-listed) — the figure compaction exists to shrink.
    fn trie_allocated_bytes(&self) -> usize {
        self.trie.allocated_node_count() * TRIE_NODE_FOOTPRINT
            + self.meta.iter().map(|m| m.len * std::mem::size_of::<TaskHash>()).sum::<usize>()
    }

    /// Whether the trie currently exceeds a configured bound.
    fn over_capacity(&self) -> bool {
        self.capacity.max_candidates.is_some_and(|m| self.trie.candidate_count() > m)
            || self.capacity.max_trie_nodes.is_some_and(|m| self.trie.node_count() > m)
            || self.capacity.max_trie_bytes.is_some_and(|m| self.trie_bytes() > m)
    }

    /// Evicts lowest-scoring candidates until the [`CapacityConfig`]
    /// bounds hold, then compacts the trie if the free list dominates.
    ///
    /// Deterministic by construction: ranking uses the §4.3 score at the
    /// current stream position with candidate-id tie-breaks, and the
    /// deferral sets (pending matches, live-cursor paths) are functions of
    /// the deterministic ingest/replay stream — so control-replicated
    /// nodes evict in lock-step.
    fn enforce_capacity(&mut self) {
        if !self.over_capacity() {
            return;
        }
        // All working collections are taken from reusable scratch fields
        // and returned below: capacity enforcement sits on the ingest hot
        // path and must not rebuild them per call.
        //
        // Candidates whose in-flight occurrence awaits a replay decision.
        let mut pending = std::mem::take(&mut self.scratch_pending);
        pending.clear();
        pending.extend(self.completed.iter().map(|c| c.cand.0));
        let mut cursor_nodes = std::mem::take(&mut self.scratch_cursor_nodes);
        cursor_nodes.clear();
        cursor_nodes.extend(self.cursors.iter().map(|c| c.node));
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        ranked.clear();
        ranked.extend(
            (0..self.trie.candidate_slots() as u32)
                .filter(|&i| self.trie.is_live(CandidateId(i)))
                .map(|i| (self.score(CandidateId(i), self.now), i)),
        );
        // Lowest score evicts first; ties evict the newer (higher) id.
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| b.1.cmp(&a.1))
        });
        for &(_, idx) in &ranked {
            if !self.over_capacity() {
                break;
            }
            let id = CandidateId(idx);
            if pending.contains(&idx) {
                continue;
            }
            if !cursor_nodes.is_empty()
                && self
                    .trie
                    .path_nodes(id)
                    .is_some_and(|p| p.iter().any(|n| cursor_nodes.contains(n)))
            {
                continue;
            }
            let Some(pruned) = self.trie.remove(id) else {
                // `ranked` was built from live slots and nothing in this
                // loop kills a candidate it has not popped yet.
                debug_assert!(false, "ranked candidate {idx} is dead");
                continue;
            };
            if !pruned.is_empty() && !self.cursors.is_empty() {
                // Deferral keeps cursor-occupied paths alive, so this is
                // defensive: no cursor should ever sit on a pruned node.
                let mut dead = std::mem::take(&mut self.scratch_dead);
                dead.clear();
                dead.extend(pruned);
                self.cursors.retain(|c| !dead.contains(&c.node));
                self.scratch_dead = dead;
            }
            // The template recorded under the candidate's trace id (if
            // any) is unreachable once the candidate is gone; queue it so
            // the sink can drop it too.
            if let Some(tid) = self.meta[idx as usize].trace_id {
                self.retired_traces.push(tid);
            }
            self.meta[idx as usize] = CandidateMeta::default();
            self.stats.evicted_candidates += 1;
        }
        self.scratch_pending = pending;
        self.scratch_cursor_nodes = cursor_nodes;
        self.scratch_ranked = ranked;
        // Compact when the freed slots matter: either the allocated table
        // exceeds the configured node bound (the bound is about memory,
        // not just live structure) or the free list outweighs the live
        // set. Surviving cursors are remapped to the rebuilt nodes.
        let over_alloc =
            self.capacity.max_trie_nodes.is_some_and(|m| self.trie.allocated_node_count() > m)
                || self.capacity.max_trie_bytes.is_some_and(|m| self.trie_allocated_bytes() > m);
        let mut compacted = false;
        if self.trie.free_node_count() > 0
            && (over_alloc || self.trie.free_node_count() > self.trie.node_count())
        {
            let remap = self.trie.compact();
            // Deferral keeps cursor paths live, so every cursor's node has
            // a slot in the rebuilt trie; a cursor that lost its node
            // anyway is dead weight, not a reason to abort the stream.
            self.cursors.retain_mut(|c| match remap.get(c.node.index()).copied().flatten() {
                Some(node) => {
                    c.node = node;
                    true
                }
                None => {
                    debug_assert!(false, "cursor sits on a compacted-away node");
                    false
                }
            });
            self.stats.trie_compactions += 1;
            compacted = true;
        }
        // Shrink the candidate id space (and the parallel `meta` side
        // table) past the last live candidate: slots are reused, but
        // without this the tables would stay at their historical high
        // water forever (ROADMAP follow-up). Trailing slots are exactly
        // the ones no live id indexes, so truncation never moves a live
        // candidate and stays deterministic across replicated nodes. The
        // backing allocation is released only when a compaction already
        // decided memory matters — never on the routine ingest path.
        let slots = self.trie.truncate_candidates();
        if slots < self.meta.len() {
            self.meta.truncate(slots);
            if compacted {
                self.meta.shrink_to_fit();
            }
        }
    }

    /// Feeds one task through the recognizer, forwarding whatever is ready
    /// to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn on_task<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        if self.reference {
            return self.on_task_reference(desc, hash, sink);
        }
        self.drain_retired(sink)?;
        // Untraceable steady state: nothing buffered, nothing matching,
        // and no candidate starts with this token (the root map makes the
        // check exact, so the root cursor the slow path would spawn is
        // guaranteed to die without side effects). Forward immediately —
        // no queue traffic, no cursor churn, no allocation.
        if self.cursors.is_empty()
            && self.completed.is_empty()
            && self.pending.is_empty()
            && !self.trie.can_start_with(hash)
        {
            self.now += 1;
            // The slow path buffers the task and flushes it within the
            // same call; mirror the stats it would have recorded.
            self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(1);
            self.stats.forwarded_untraced += 1;
            return sink.execute_task(desc);
        }
        self.on_task_hot(desc, hash, sink)
    }

    /// Feeds a batch of tasks, forwarding maximal untraceable runs to the
    /// sink as single [`TraceSink::execute_batch`] calls. Drains `tasks`;
    /// the (now empty) vector keeps its capacity for the caller to refill.
    ///
    /// Event order, per-task stats, and the sink's op digest are
    /// bit-identical to feeding every task through [`Self::on_task`].
    ///
    /// # Errors
    ///
    /// Propagates the first sink error. Tasks already counted in the
    /// current untraceable run keep their stats even if the flushing
    /// `execute_batch` fails — the engine aborts on sink errors, so the
    /// torn counters are never observed by a successful run.
    pub fn on_batch<S: TraceSink>(
        &mut self,
        tasks: &mut Vec<(TaskDesc, TaskHash)>,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        if self.reference {
            for (desc, hash) in tasks.drain(..) {
                self.on_task_reference(desc, hash, sink)?;
            }
            return Ok(());
        }
        // Retired trace ids only accumulate during ingest, which cannot
        // happen mid-batch: one drain up front covers the whole batch.
        self.drain_retired(sink)?;
        let mut run = std::mem::take(&mut self.run_buf);
        run.clear();
        let result = self.on_batch_inner(tasks, &mut run, sink);
        run.clear();
        self.run_buf = run;
        result
    }

    fn on_batch_inner<S: TraceSink>(
        &mut self,
        tasks: &mut Vec<(TaskDesc, TaskHash)>,
        run: &mut Vec<TaskDesc>,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        for (desc, hash) in tasks.drain(..) {
            // Same condition (and stats emulation) as the untraceable
            // fast path in `on_task`, but the forward is deferred into
            // `run` so contiguous untraceable tasks reach the sink as one
            // `execute_batch` call.
            if self.cursors.is_empty()
                && self.completed.is_empty()
                && self.pending.is_empty()
                && !self.trie.can_start_with(hash)
            {
                self.now += 1;
                self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(1);
                self.stats.forwarded_untraced += 1;
                run.push(desc);
                continue;
            }
            // Order matters: the buffered untraceable run precedes this
            // task in the stream, so it must reach the sink first.
            if !run.is_empty() {
                sink.execute_batch(run)?;
            }
            self.on_task_hot(desc, hash, sink)?;
        }
        if !run.is_empty() {
            sink.execute_batch(run)?;
        }
        Ok(())
    }

    /// The non-reference per-task path: try the memoized mid-replay fast
    /// lane, fall back to the generic cursor step.
    fn on_task_hot<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        // Mid-replay steady state: exactly one cursor walking the
        // memoized candidate chain (the `fast_pos` invariant, established
        // by `try_engage_fast` and torn down by ingest/flush before the
        // trie or cursors can change shape). If the next token continues
        // the chain without completing it, and no other candidate could
        // spawn a root cursor here, the generic step reduces to: buffer
        // the task and advance the lone cursor. `decide` is provably a
        // no-op (nothing completed, no cursor died, the minimum cursor
        // start is unchanged), so it is skipped entirely.
        if let Some(i) = self.fast_pos {
            let next = i + 1;
            if next < self.memo.seq.len()
                && hash == self.memo.seq[next]
                && !self.memo.stop[next]
                && !self.trie.can_start_with(hash)
            {
                let global = self.now;
                self.now += 1;
                self.pending.push_back(PendingTask { desc, global });
                self.stats.peak_pending_tasks =
                    self.stats.peak_pending_tasks.max(self.pending.len());
                self.cursors[0].node = self.memo.chain[next];
                self.fast_pos = Some(next);
                return Ok(());
            }
            // Disengage before the generic step mutates cursor state.
            self.fast_pos = None;
        }
        self.step_generic(desc, hash, sink)
    }

    /// The generic cursor step, restructured around reusable scratch
    /// buffers: no allocation once the cursor vectors reach their
    /// steady-state capacity.
    fn step_generic<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let global = self.now;
        self.now += 1;
        self.pending.push_back(PendingTask { desc, global });
        self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(self.pending.len());

        // Advance cursors (including a fresh one starting here) through
        // the reusable double buffer; completions land directly in
        // `self.completed`.
        let pre_existing = self.cursors.len();
        let mut survivors = std::mem::take(&mut self.scratch_cursors);
        survivors.clear();
        let mut kept = 0usize;
        for idx in 0..=pre_existing {
            let cur = if idx < pre_existing {
                self.cursors[idx]
            } else {
                // Spawn the root cursor only when this token can actually
                // start a candidate — `can_start_with` is exact, so a
                // skipped spawn is one that would have died in `step`.
                if !self.trie.can_start_with(hash) {
                    break;
                }
                Cursor { node: Trie::<TaskHash>::ROOT, start: global }
            };
            if let Some(next) = self.trie.step(cur.node, hash) {
                if let Some(cand) = self.trie.terminal(next) {
                    self.completed.push(CompletedMatch { cand, start: cur.start, end: global + 1 });
                    self.first_completed =
                        Some(self.first_completed.map_or(cur.start, |f| f.min(cur.start)));
                    let m = &mut self.meta[cand.0 as usize];
                    m.count = m.count.saturating_add(1);
                    m.last_seen = global + 1;
                }
                // Leaf cursors cannot extend further; drop them.
                if !self.trie.is_leaf(next) {
                    survivors.push(Cursor { node: next, start: cur.start });
                    if idx < pre_existing {
                        kept += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut self.cursors, &mut survivors);
        self.scratch_cursors = survivors;

        // `decide` can only act when a match is awaiting a verdict or a
        // cursor death moved the flushable prefix. With no completions
        // pending and every pre-existing cursor surviving, the minimum
        // cursor start is unchanged (a fresh root survivor starts at
        // `global`, past everything buffered), so the replay loop and the
        // prefix flush are both no-ops — skip the whole pass.
        if !self.completed.is_empty() || kept != pre_existing {
            self.decide(sink)?;
        }
        self.try_engage_fast();
        Ok(())
    }

    /// The frozen per-task reference pipeline (see [`Self::reference`]):
    /// the pre-optimization recognizer step, kept verbatim as the
    /// behavioral baseline the fast paths are pinned against.
    fn on_task_reference<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        self.drain_retired(sink)?;
        let global = self.now;
        self.now += 1;
        self.pending.push_back(PendingTask { desc, global });
        self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(self.pending.len());

        // Advance cursors (including a fresh one starting here).
        let mut survivors = Vec::with_capacity(self.cursors.len() + 1);
        let mut newly_completed = Vec::new();
        let candidates_exist = !self.trie.is_empty();
        let mut all = std::mem::take(&mut self.cursors);
        if candidates_exist {
            all.push(Cursor { node: Trie::<TaskHash>::ROOT, start: global });
        }
        for cur in all {
            if let Some(next) = self.trie.step(cur.node, hash) {
                if let Some(cand) = self.trie.terminal(next) {
                    newly_completed.push(CompletedMatch {
                        cand,
                        start: cur.start,
                        end: global + 1,
                    });
                    let m = &mut self.meta[cand.0 as usize];
                    m.count = m.count.saturating_add(1);
                    m.last_seen = global + 1;
                }
                // Leaf cursors cannot extend further; drop them.
                if !self.trie.is_leaf(next) {
                    survivors.push(Cursor { node: next, start: cur.start });
                }
            }
        }
        self.cursors = survivors;
        self.completed.extend(newly_completed);

        self.decide_reference(sink)
    }

    /// Flushes everything at end of stream: replays any eligible completed
    /// matches, then forwards the rest untraced.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn flush<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        self.drain_retired(sink)?;
        self.fast_pos = None;
        // No more tokens will arrive: live cursors can never finish.
        self.cursors.clear();
        loop {
            let best = if self.reference {
                self.best_completed_reference()
            } else {
                self.best_completed()
            };
            let Some(best) = best else { break };
            self.replay(best, sink)?;
        }
        while let Some(p) = self.pending.pop_front() {
            self.stats.forwarded_untraced += 1;
            sink.execute_task(p.desc)?;
        }
        self.completed.clear();
        self.first_completed = None;
        Ok(())
    }

    /// Replayer counters.
    pub fn stats(&self) -> ReplayerStats {
        ReplayerStats {
            candidates: self.trie.candidate_count(),
            meta_capacity: self.meta.len(),
            pending_tasks: self.pending.len(),
            trie_bytes: self.trie_bytes(),
            ..self.stats
        }
    }

    /// Number of tasks currently buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Live trie nodes (including the root).
    pub fn trie_node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Allocated trie node slots (live + free-listed) — the actual memory
    /// footprint between compactions.
    pub fn trie_allocated_nodes(&self) -> usize {
        self.trie.allocated_node_count()
    }

    /// Whether `id` names a live (not evicted) candidate.
    pub fn candidate_live(&self, id: CandidateId) -> bool {
        self.trie.is_live(id)
    }

    /// The score (§4.3) of candidate `cand` as of stream position `now`.
    ///
    /// Never NaN: a degenerate (non-positive) half-life — which
    /// [`Config::validate`](crate::config::Config::validate) rejects but a
    /// struct literal can still produce — degrades to "fresh scores full,
    /// anything stale scores zero" instead of poisoning every comparison.
    pub fn score(&self, cand: CandidateId, now: u64) -> f64 {
        let m = &self.meta[cand.0 as usize];
        let count = m.count.min(self.scoring.count_cap) as f64;
        let staleness = now.saturating_sub(m.last_seen) as f64;
        let half_life = self.scoring.staleness_half_life;
        let decay = if staleness <= 0.0 {
            1.0
        } else if half_life > 0.0 {
            0.5f64.powf(staleness / half_life)
        } else {
            0.0
        };
        let bonus = if m.replays > 0 { 1.0 + self.scoring.replay_bonus } else { 1.0 };
        m.len as f64 * count * decay * bonus
    }

    /// Serializes the replayer's complete dynamic state: the candidate
    /// trie (free lists and tombstones included, so slot recycling
    /// continues identically), the meta table, live cursors, the pending
    /// buffer, completed matches, retired trace ids, and counters.
    /// Configuration-derived fields are rebuilt from the [`Config`] the
    /// snapshot's owner serializes alongside.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        let snap = self.trie.to_snapshot();
        w.put_seq(&snap.nodes, |w, n| {
            w.put_seq(&n.sorted_children, |w, (tok, child)| {
                w.put_u64(tok.0);
                w.put_u32(*child);
            });
            w.put_opt_u32(n.terminal);
            w.put_u32(n.depth);
            w.put_u32(n.subtree_max);
        });
        w.put_seq(&snap.lengths, |w, l| w.put_u32(*l));
        w.put_seq(&snap.contents, |w, c| w.put_seq(c, |w, h| w.put_u64(h.0)));
        w.put_seq(&snap.free_nodes, |w, n| w.put_u32(*n));
        w.put_seq(&snap.free_candidates, |w, c| w.put_u32(*c));
        w.put_seq(&self.meta, |w, m| {
            w.put_opt_u32(m.trace_id.map(|t| t.0));
            w.put_u32(m.count);
            w.put_u64(m.last_seen);
            w.put_u64(m.replays);
            w.put_len(m.len);
        });
        w.put_seq(&self.cursors, |w, c| {
            w.put_len(c.node.index());
            w.put_u64(c.start);
        });
        w.put_deque(&self.pending, |w, p| {
            p.desc.snapshot(w);
            w.put_u64(p.global);
        });
        w.put_seq(&self.completed, |w, c| {
            w.put_u32(c.cand.0);
            w.put_u64(c.start);
            w.put_u64(c.end);
        });
        w.put_seq(&self.retired_traces, |w, t| w.put_u32(t.0));
        w.put_u32(self.next_trace);
        w.put_u64(self.now);
        let s = &self.stats;
        w.put_u64(s.forwarded_untraced);
        w.put_u64(s.forwarded_traced);
        w.put_u64(s.traces_issued);
        w.put_u64(s.evicted_candidates);
        w.put_u64(s.trie_compactions);
        w.put_u64(s.match_scores);
        w.put_len(s.peak_candidates);
        w.put_len(s.peak_trie_nodes);
        w.put_len(s.peak_meta_capacity);
        w.put_len(s.peak_pending_tasks);
        w.put_len(s.peak_trie_bytes);
    }

    /// Rebuilds a replayer from `config` plus the state captured by
    /// [`Self::write_snapshot`]. The restored replayer makes every future
    /// match, replay, and eviction decision exactly as the original would
    /// have.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input
    /// (broken trie invariants, out-of-range cursors, dead completed
    /// matches).
    pub fn restore_snapshot(
        config: &Config,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self, SnapshotError> {
        let nodes = r.get_seq(|r| {
            Ok(NodeSnapshot {
                sorted_children: r.get_seq(|r| Ok((TaskHash(r.get_u64()?), r.get_u32()?)))?,
                terminal: r.get_opt_u32()?,
                depth: r.get_u32()?,
                subtree_max: r.get_u32()?,
            })
        })?;
        let snap = TrieSnapshot {
            nodes,
            lengths: r.get_seq(|r| r.get_u32())?,
            contents: r.get_seq(|r| r.get_seq(|r| Ok(TaskHash(r.get_u64()?))))?,
            free_nodes: r.get_seq(|r| r.get_u32())?,
            free_candidates: r.get_seq(|r| r.get_u32())?,
        };
        let trie = Trie::from_snapshot(snap).map_err(SnapshotError::Corrupt)?;
        let mut replayer = TraceReplayer::new(config);
        let node_bound = trie.allocated_node_count();
        replayer.trie = trie;
        replayer.meta = r.get_seq(|r| {
            Ok(CandidateMeta {
                trace_id: r.get_opt_u32()?.map(TraceId),
                count: r.get_u32()?,
                last_seen: r.get_u64()?,
                replays: r.get_u64()?,
                len: r.get_len()?,
            })
        })?;
        replayer.cursors = r.get_seq(|r| {
            let node = r.get_len()?;
            if node >= node_bound {
                return Err(SnapshotError::Corrupt("cursor node out of range".into()));
            }
            Ok(Cursor { node: NodeId::from_index(node), start: r.get_u64()? })
        })?;
        replayer.pending =
            r.get_deque(|r| Ok(PendingTask { desc: TaskDesc::restore(r)?, global: r.get_u64()? }))?;
        replayer.completed = r.get_seq(|r| {
            Ok(CompletedMatch {
                cand: CandidateId(r.get_u32()?),
                start: r.get_u64()?,
                end: r.get_u64()?,
            })
        })?;
        for c in &replayer.completed {
            if (c.cand.0 as usize) >= replayer.meta.len() || !replayer.trie.is_live(c.cand) {
                return Err(SnapshotError::Corrupt(
                    "completed match names a dead candidate".into(),
                ));
            }
        }
        replayer.retired_traces = r.get_seq(|r| Ok(TraceId(r.get_u32()?)))?;
        replayer.next_trace = r.get_u32()?;
        replayer.now = r.get_u64()?;
        // Replay's queue pops are total only because the pending buffer is
        // a contiguous run of global indices ending just before `now`,
        // with every completed-match window inside that run. A live
        // engine maintains this by construction; a snapshot merely claims
        // it, so verify the claim instead of panicking mid-replay later.
        let mut expect = replayer.pending.front().map(|p| p.global);
        for p in &replayer.pending {
            if Some(p.global) != expect {
                return Err(SnapshotError::Corrupt("pending globals are not contiguous".into()));
            }
            expect = p.global.checked_add(1);
        }
        if replayer.pending.back().is_some_and(|b| b.global.checked_add(1) != Some(replayer.now)) {
            return Err(SnapshotError::Corrupt("pending buffer does not end at `now`".into()));
        }
        let window_lo = replayer.pending.front().map_or(replayer.now, |p| p.global);
        for c in &replayer.completed {
            if c.start < window_lo || c.end > replayer.now || c.start >= c.end {
                return Err(SnapshotError::Corrupt(
                    "completed match window outside the pending buffer".into(),
                ));
            }
        }
        replayer.stats = ReplayerStats {
            forwarded_untraced: r.get_u64()?,
            forwarded_traced: r.get_u64()?,
            traces_issued: r.get_u64()?,
            candidates: replayer.trie.candidate_count(),
            evicted_candidates: r.get_u64()?,
            trie_compactions: r.get_u64()?,
            match_scores: r.get_u64()?,
            peak_candidates: r.get_len()?,
            peak_trie_nodes: r.get_len()?,
            meta_capacity: replayer.meta.len(),
            peak_meta_capacity: r.get_len()?,
            pending_tasks: replayer.pending.len(),
            peak_pending_tasks: r.get_len()?,
            trie_bytes: 0,
            peak_trie_bytes: r.get_len()?,
        };
        replayer.stats.trie_bytes = replayer.trie_bytes();
        replayer.first_completed = replayer.completed.iter().map(|c| c.start).min();
        Ok(replayer)
    }

    /// Tells the sink to drop templates whose candidates were evicted
    /// since the last forwarding opportunity.
    fn drain_retired<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        for tid in std::mem::take(&mut self.retired_traces) {
            sink.forget_trace(tid)?;
        }
        Ok(())
    }

    /// Drives flush/replay decisions after each arrival. Decides exactly
    /// as [`Self::decide_reference`]; see the module docs for the two
    /// shortcuts that make the deferral-heavy states cheap.
    fn decide<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        let mut first_cursor = self.cursors.iter().map(|c| c.start).min();
        let mut first_match = self.first_completed;
        debug_assert_eq!(first_match, self.completed.iter().map(|c| c.start).min());
        while let Some(first) = first_match {
            // Exact early-out: a cursor starting at or before every
            // completed match starts at or before the best one, which
            // blocks it through the first disjunct below whichever match
            // the scores pick. `best_completed` is pure, so skipping it
            // skips nothing but work.
            if first_cursor.is_some_and(|c| c <= first) {
                break;
            }
            // The deferral rule of `decide_reference`, commented there.
            let Some(best) = self.best_completed() else { break };
            let patience = 2 * self.trie.max_candidate_len();
            let best_len = (best.end - best.start) as usize;
            let blocked = self.cursors.iter().any(|c| {
                c.start <= best.start
                    || (c.start < best.end
                        && self.trie.potential_len(c.node) > best_len
                        && self.pending.len() < patience)
            });
            if blocked {
                break;
            }
            self.replay(best, sink)?;
            first_cursor = self.cursors.iter().map(|c| c.start).min();
            first_match = self.first_completed;
        }
        // Flush the prefix no potential match can cover any more.
        let keep_from = first_cursor.into_iter().chain(first_match).min().unwrap_or(self.now);
        while self.pending.front().is_some_and(|p| p.global < keep_from) {
            let Some(p) = self.pending.pop_front() else { break };
            self.stats.forwarded_untraced += 1;
            sink.execute_task(p.desc)?;
        }
        Ok(())
    }

    /// Highest-scoring completed match (ties: longer, then earlier start).
    /// Picks exactly what [`Self::best_completed_reference`] picks — same
    /// scores, comparator and last-of-equals rule — but scores each
    /// distinct candidate once, into stamped scratch.
    fn best_completed(&mut self) -> Option<CompletedMatch> {
        self.score_stamp += 1;
        let stamp = self.score_stamp;
        let mut scores = std::mem::take(&mut self.scratch_scores);
        if scores.len() < self.meta.len() {
            scores.resize(self.meta.len(), (0, 0.0));
        }
        let mut evaluated = 0u64;
        for c in &self.completed {
            let slot = &mut scores[c.cand.0 as usize];
            if slot.0 != stamp {
                *slot = (stamp, self.score(c.cand, self.now));
                evaluated += 1;
            }
        }
        self.stats.match_scores += evaluated;
        let best = self.completed.iter().copied().max_by(|a, b| {
            let (sa, sb) = (scores[a.cand.0 as usize].1, scores[b.cand.0 as usize].1);
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.end - a.start).cmp(&(b.end - b.start)))
                .then_with(|| b.start.cmp(&a.start))
        });
        self.scratch_scores = scores;
        best
    }

    /// The frozen reference decision pass behind [`Self::on_task_reference`]:
    /// the pre-optimization rule [`Self::decide`] is pinned against.
    fn decide_reference<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        loop {
            // Choose the best completed match, then check whether an
            // active cursor justifies deferring it (the paper's
            // `SelectReplayTrace(D, P, A)` consults the active pointers A):
            //
            // * a cursor whose match would start at or before the best
            //   match may complete an overlapping, better candidate;
            // * a cursor that started inside the best match and can still
            //   grow into something *longer* would be killed by replaying
            //   now — e.g. a short phase-shifted candidate must not
            //   permanently lock out the long multi-iteration trace whose
            //   occurrences straddle it.
            //
            // Deferral is abandoned once the pending queue exceeds twice
            // the longest candidate, bounding buffering even on streams
            // that keep cursors alive indefinitely.
            let best = self.best_completed_reference();
            let best = match best {
                Some(b) => b,
                None => break,
            };
            let patience = 2 * self.trie.max_candidate_len();
            let best_len = (best.end - best.start) as usize;
            let blocked = self.cursors.iter().any(|c| {
                c.start <= best.start
                    || (c.start < best.end
                        && self.trie.potential_len(c.node) > best_len
                        && self.pending.len() < patience)
            });
            if blocked {
                break;
            }
            self.replay(best, sink)?;
        }
        // Flush the prefix no potential match can cover any more.
        let keep_from = self
            .cursors
            .iter()
            .map(|c| c.start)
            .chain(self.completed.iter().map(|c| c.start))
            .min()
            .unwrap_or(self.now);
        while self.pending.front().is_some_and(|p| p.global < keep_from) {
            let Some(p) = self.pending.pop_front() else { break };
            self.stats.forwarded_untraced += 1;
            sink.execute_task(p.desc)?;
        }
        Ok(())
    }

    /// Highest-scoring completed match (ties: longer, then earlier start),
    /// scoring both sides of every comparison: the reference selection.
    fn best_completed_reference(&self) -> Option<CompletedMatch> {
        self.completed.iter().copied().max_by(|a, b| {
            let (sa, sb) = (self.score(a.cand, self.now), self.score(b.cand, self.now));
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.end - a.start).cmp(&(b.end - b.start)))
                .then_with(|| b.start.cmp(&a.start))
        })
    }

    /// Flushes the prefix before `m`, forwards `m` inside a trace, and
    /// drops state overlapping it.
    fn replay<S: TraceSink>(&mut self, m: CompletedMatch, sink: &mut S) -> Result<(), S::Error> {
        // Forward the untraced prefix.
        while self.pending.front().is_some_and(|p| p.global < m.start) {
            let Some(p) = self.pending.pop_front() else { break };
            self.stats.forwarded_untraced += 1;
            sink.execute_task(p.desc)?;
        }
        debug_assert_eq!(
            self.pending.front().map(|p| p.global),
            Some(m.start),
            "match start must head the pending queue"
        );
        // Push the candidate's current utility to the sink before the
        // brackets: a bounded template store ranks its evictions by this
        // shared signal instead of its own replays/LRU heuristic.
        let score = self.score(m.cand, self.now);
        let meta = &mut self.meta[m.cand.0 as usize];
        let tid = *meta.trace_id.get_or_insert_with(|| {
            let t = TraceId(self.next_trace);
            self.next_trace += 1;
            t
        });
        sink.record_trace_score(tid, score)?;
        sink.begin_trace(tid)?;
        for _ in m.start..m.end {
            // Total by construction: matches are minted over buffered
            // tasks, and `restore_snapshot` rejects images whose match
            // windows fall outside the pending run.
            let Some(p) = self.pending.pop_front() else {
                debug_assert!(false, "matched task window outran the pending buffer");
                break;
            };
            self.stats.forwarded_traced += 1;
            sink.execute_task(p.desc)?;
        }
        sink.end_trace(tid)?;
        self.stats.traces_issued += 1;
        self.meta[m.cand.0 as usize].replays += 1;

        // Drop cursors and matches overlapping the consumed interval.
        self.cursors.retain(|c| c.start >= m.end);
        self.completed.retain(|c| c.start >= m.end);
        self.first_completed = self.completed.iter().map(|c| c.start).min();
        // A candidate that just replayed is the one most likely to walk
        // the stream again immediately: memoize its chain so the next
        // occurrence can take the fast lane.
        self.memoize(m.cand);
        Ok(())
    }

    /// Caches candidate `cand`'s token sequence, node chain, and per-node
    /// stop flags for the mid-replay fast path. Idempotent per trie epoch:
    /// the steady-state call (same candidate, unchanged trie) returns
    /// without touching the heap.
    fn memoize(&mut self, cand: CandidateId) {
        if self.memo.cand == Some(cand) && self.memo.epoch == self.trie_epoch {
            return;
        }
        self.memo.cand = None;
        self.memo.seq.clear();
        self.memo.chain.clear();
        self.memo.stop.clear();
        let Some(chain) = self.trie.path_nodes(cand) else {
            return;
        };
        self.memo.seq.extend_from_slice(self.trie.candidate(cand));
        for &node in &chain {
            self.memo.stop.push(self.trie.terminal(node).is_some() || self.trie.is_leaf(node));
        }
        self.memo.chain = chain;
        self.memo.cand = Some(cand);
        self.memo.epoch = self.trie_epoch;
    }

    /// Engages the mid-replay fast path when its invariant holds: no
    /// pending verdicts, exactly one live cursor, and that cursor sits on
    /// the first node of the (current-epoch) memoized chain.
    fn try_engage_fast(&mut self) {
        self.fast_pos = None;
        if self.completed.is_empty()
            && self.cursors.len() == 1
            && self.memo.cand.is_some()
            && self.memo.epoch == self.trie_epoch
            && !self.memo.chain.is_empty()
            && self.cursors[0].node == self.memo.chain[0]
        {
            self.fast_pos = Some(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::MinedCandidate;
    use std::convert::Infallible;

    /// Records the forwarded event stream.
    #[derive(Debug, Default)]
    struct EventSink {
        events: Vec<Event>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Begin(TraceId),
        End(TraceId),
        Task(TaskHash),
        Forget(TraceId),
    }

    impl TraceSink for EventSink {
        type Error = Infallible;

        fn begin_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
            self.events.push(Event::Begin(id));
            Ok(())
        }

        fn end_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
            self.events.push(Event::End(id));
            Ok(())
        }

        fn execute_task(&mut self, task: TaskDesc) -> Result<(), Infallible> {
            self.events.push(Event::Task(task.semantic_hash()));
            Ok(())
        }

        fn forget_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
            self.events.push(Event::Forget(id));
            Ok(())
        }
    }

    fn task(k: u32) -> TaskDesc {
        TaskDesc::new(tasksim::ids::TaskKindId(k))
    }

    fn hash(k: u32) -> TaskHash {
        task(k).semantic_hash()
    }

    fn cfg(min: usize) -> Config {
        Config::standard().with_min_trace_length(min)
    }

    fn batch_of(contents: &[&[u32]]) -> MinedBatch {
        MinedBatch {
            job: 0,
            candidates: contents
                .iter()
                .map(|c| MinedCandidate {
                    content: c.iter().map(|&k| hash(k)).collect(),
                    occurrences: vec![0],
                })
                .collect(),
            slice_end: 0,
        }
    }

    fn feed(r: &mut TraceReplayer, sink: &mut EventSink, kinds: &[u32]) {
        for &k in kinds {
            r.on_task(task(k), hash(k), sink).unwrap();
        }
    }

    #[test]
    fn no_candidates_passthrough_immediately() {
        let mut r = TraceReplayer::new(&cfg(2));
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[1, 2, 3]);
        assert_eq!(r.pending_len(), 0, "nothing buffers without candidates");
        assert_eq!(s.events.len(), 3);
        assert!(s.events.iter().all(|e| matches!(e, Event::Task(_))));
    }

    #[test]
    fn match_is_bracketed_in_trace() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2, 3]]));
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[9, 1, 2, 3, 8]);
        r.flush(&mut s).unwrap();
        let expect = vec![
            Event::Task(hash(9)),
            Event::Begin(TraceId(0)),
            Event::Task(hash(1)),
            Event::Task(hash(2)),
            Event::Task(hash(3)),
            Event::End(TraceId(0)),
            Event::Task(hash(8)),
        ];
        assert_eq!(s.events, expect);
        assert_eq!(r.stats().traces_issued, 1);
        assert_eq!(r.stats().forwarded_untraced, 2);
        assert_eq!(r.stats().forwarded_traced, 3);
    }

    #[test]
    fn repeated_matches_reuse_trace_id() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2]]));
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[1, 2, 1, 2, 1, 2]);
        r.flush(&mut s).unwrap();
        let begins: Vec<&Event> =
            s.events.iter().filter(|e| matches!(e, Event::Begin(_))).collect();
        assert_eq!(begins.len(), 3);
        assert!(begins.iter().all(|e| **e == Event::Begin(TraceId(0))));
    }

    #[test]
    fn order_is_always_preserved() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2], &[3, 4, 5]]));
        let mut s = EventSink::default();
        let stream = [7, 1, 2, 3, 4, 5, 6, 1, 2, 9];
        feed(&mut r, &mut s, &stream);
        r.flush(&mut s).unwrap();
        let tasks: Vec<TaskHash> = s
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Task(h) => Some(*h),
                _ => None,
            })
            .collect();
        let expect: Vec<TaskHash> = stream.iter().map(|&k| hash(k)).collect();
        assert_eq!(tasks, expect, "forwarding preserves program order");
    }

    #[test]
    fn longer_overlapping_candidate_wins() {
        // Trie has both [1,2] and [1,2,3,4]; stream contains the long one.
        // The replayer must defer the short match and replay the long one.
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2], &[1, 2, 3, 4]]));
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[1, 2, 3, 4, 9]);
        r.flush(&mut s).unwrap();
        let traced: Vec<&Event> = s
            .events
            .iter()
            .skip_while(|e| !matches!(e, Event::Begin(_)))
            .take_while(|e| !matches!(e, Event::End(_)))
            .collect();
        assert_eq!(traced.len(), 5, "4 tasks + begin inside the trace: {:?}", s.events);
    }

    #[test]
    fn short_candidate_replays_when_long_dies() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2], &[1, 2, 3, 4]]));
        let mut s = EventSink::default();
        // 1 2 3 9: long candidate dies at 9; short [1,2] must then replay.
        feed(&mut r, &mut s, &[1, 2, 3, 9]);
        r.flush(&mut s).unwrap();
        assert!(
            s.events.contains(&Event::Begin(TraceId(0))),
            "short candidate replayed: {:?}",
            s.events
        );
        // 3 and 9 flushed untraced after the trace.
        assert_eq!(r.stats().forwarded_untraced, 2);
    }

    #[test]
    fn max_trace_length_splits_candidates() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_trace_length(3));
        let long: Vec<u32> = (1..=9).collect();
        let long_ref: Vec<&[u32]> = vec![&long];
        r.ingest(&batch_of(&long_ref));
        assert_eq!(r.stats().candidates, 3, "9-token candidate → three 3-token pieces");
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        r.flush(&mut s).unwrap();
        let begins = s.events.iter().filter(|e| matches!(e, Event::Begin(_))).count();
        assert_eq!(begins, 3, "three piece replays: {:?}", s.events);
    }

    #[test]
    fn min_len_drops_short_pieces() {
        // 7-token candidate, max piece 3, min 3 → pieces 3+3, tail 1 dropped.
        let mut r = TraceReplayer::new(&cfg(3).with_max_trace_length(3));
        let c: Vec<u32> = (1..=7).collect();
        let c_ref: Vec<&[u32]> = vec![&c];
        r.ingest(&batch_of(&c_ref));
        assert_eq!(r.stats().candidates, 2);
    }

    #[test]
    fn score_decays_with_staleness() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: vec![0, 2, 4],
            }],
            slice_end: 6,
        });
        let id = CandidateId(0);
        let fresh = r.score(id, 6);
        let stale = r.score(id, 6 + 100_000);
        assert!(fresh > 0.0);
        assert!(stale < fresh * 0.01, "stale score {stale} vs fresh {fresh}");
    }

    #[test]
    fn score_caps_count() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: (0..100).map(|i| i * 2).collect(),
            }],
            slice_end: 200,
        });
        let score = r.score(CandidateId(0), 200);
        // len 2 × cap 16 = 32 maximum (no decay at last_seen).
        assert!(score <= 32.0 + 1e-9, "score {score}");
    }

    #[test]
    fn replay_bonus_prefers_replayed() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2]]));
        let mut s = EventSink::default();
        let before = r.score(CandidateId(0), 0);
        feed(&mut r, &mut s, &[1, 2]);
        r.flush(&mut s).unwrap();
        // After one replay, with equal count/staleness the score carries
        // the bonus. Compare against a manually computed unbonused score.
        let after = r.score(CandidateId(0), r.now);
        assert!(after > before, "replayed candidate scores higher: {after} vs {before}");
    }

    #[test]
    fn reingest_accumulates_count_without_duplicating() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: vec![0, 4],
            }],
            slice_end: 8,
        });
        let id = CandidateId(0);
        assert_eq!(r.stats().candidates, 1);
        let first = r.score(id, 8);
        // A later analysis re-mines the same candidate: same id, counts
        // and recency accumulate, nothing duplicates.
        r.ingest(&MinedBatch {
            job: 1,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: vec![8, 12, 16],
            }],
            slice_end: 20,
        });
        assert_eq!(r.stats().candidates, 1, "re-ingest never duplicates");
        let second = r.score(id, 20);
        // count 2 → 5 at zero staleness: score strictly grows.
        assert!(second > first, "count accumulated: {second} vs {first}");
        // len stays that of the piece (guards against len clobbering).
        let at_cap = r.score(id, 20);
        assert!(at_cap <= 2.0 * 16.0 + 1e-9, "len still 2: {at_cap}");
    }

    #[test]
    fn eviction_drops_lowest_scoring_candidate() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(2));
        // Three candidates, utility ordered by occurrence count.
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![
                MinedCandidate { content: vec![hash(1), hash(2)], occurrences: vec![0, 2, 4] },
                MinedCandidate { content: vec![hash(3), hash(4)], occurrences: vec![6, 8] },
                MinedCandidate { content: vec![hash(5), hash(6)], occurrences: vec![10] },
            ],
            slice_end: 12,
        });
        let s = r.stats();
        assert_eq!(s.candidates, 2, "cap enforced");
        assert_eq!(s.evicted_candidates, 1);
        assert_eq!(s.peak_candidates, 2, "live-set peak respects the cap");
        assert!(!r.candidate_live(CandidateId(2)), "lowest-count candidate evicted");
        assert!(r.candidate_live(CandidateId(0)));
        assert!(r.candidate_live(CandidateId(1)));
        // Survivors still replay; the evicted sequence passes through.
        let mut sink = EventSink::default();
        feed(&mut r, &mut sink, &[5, 6, 1, 2]);
        r.flush(&mut sink).unwrap();
        assert_eq!(r.stats().traces_issued, 1, "only the survivor traced");
    }

    #[test]
    fn eviction_reuses_candidate_slots_cleanly() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
        r.ingest(&batch_of(&[&[1, 2]]));
        r.ingest(&MinedBatch {
            job: 1,
            candidates: vec![MinedCandidate {
                content: vec![hash(3), hash(4)],
                occurrences: vec![4, 6, 8],
            }],
            slice_end: 10,
        });
        // [1,2] (count 1, stale) evicted; [3,4] reuses its slot with
        // fresh bookkeeping.
        assert_eq!(r.stats().candidates, 1);
        assert_eq!(r.stats().evicted_candidates, 1);
        let mut sink = EventSink::default();
        feed(&mut r, &mut sink, &[1, 2, 3, 4]);
        r.flush(&mut sink).unwrap();
        assert_eq!(r.stats().traces_issued, 1, "recycled slot replays as the new candidate");
        let tasks: Vec<TaskHash> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Task(h) => Some(*h),
                _ => None,
            })
            .collect();
        assert_eq!(tasks, vec![hash(1), hash(2), hash(3), hash(4)], "order preserved");
    }

    #[test]
    fn eviction_forgets_orphaned_templates() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
        let mut s = EventSink::default();
        r.ingest(&batch_of(&[&[1, 2]]));
        // Replay once so the candidate carries TraceId(0) and the sink
        // holds a template for it.
        feed(&mut r, &mut s, &[1, 2]);
        assert_eq!(r.stats().traces_issued, 1);
        // A fresher candidate evicts it; the next forwarding opportunity
        // must tell the sink to drop the now-unreachable template.
        r.ingest(&MinedBatch {
            job: 1,
            candidates: vec![MinedCandidate {
                content: vec![hash(3), hash(4)],
                occurrences: vec![4, 6, 8],
            }],
            slice_end: 10,
        });
        feed(&mut r, &mut s, &[9]);
        assert!(
            s.events.contains(&Event::Forget(TraceId(0))),
            "orphaned template forgotten: {:?}",
            s.events
        );
        // Never-replayed evicted candidates (no trace id) emit nothing.
        let forgets = s.events.iter().filter(|e| matches!(e, Event::Forget(_))).count();
        assert_eq!(forgets, 1);
    }

    #[test]
    fn eviction_truncates_meta_tail() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
        // A hot candidate first, then a cold one: the cold (tail) slot is
        // evicted and the id space + meta table shrink back.
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: vec![0, 2, 4, 6],
            }],
            slice_end: 8,
        });
        r.ingest(&MinedBatch {
            job: 1,
            candidates: vec![MinedCandidate {
                content: vec![hash(3), hash(4)],
                occurrences: vec![0],
            }],
            slice_end: 8,
        });
        let s = r.stats();
        assert_eq!(s.candidates, 1);
        assert!(r.candidate_live(CandidateId(0)), "high-score candidate survives");
        assert_eq!(s.peak_meta_capacity, 2, "both slots were allocated");
        assert_eq!(s.meta_capacity, 1, "tombstoned tail slot truncated: {s:?}");
    }

    #[test]
    fn eviction_defers_candidates_with_live_cursors() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
        r.ingest(&batch_of(&[&[7, 8]]));
        let mut sink = EventSink::default();
        // Start a partial match of [7,8]: a live cursor sits on its path.
        feed(&mut r, &mut sink, &[7]);
        // A fresher, higher-scoring candidate arrives; the cap says evict,
        // but [7,8]'s cursor defers its eviction.
        r.ingest(&MinedBatch {
            job: 1,
            candidates: vec![MinedCandidate {
                content: vec![hash(5), hash(6)],
                occurrences: vec![10, 12, 14],
            }],
            slice_end: 16,
        });
        assert!(r.candidate_live(CandidateId(0)), "cursor-protected candidate survives");
        // The in-progress match completes and replays.
        feed(&mut r, &mut sink, &[8]);
        r.flush(&mut sink).unwrap();
        assert_eq!(r.stats().traces_issued, 1, "deferred candidate completed its match");
    }

    #[test]
    fn trie_node_cap_bounds_memory_and_compacts() {
        let mut r = TraceReplayer::new(&cfg(2).with_max_trie_nodes(16));
        // Waves of disjoint candidates; each wave's staleness makes the
        // previous wave evictable.
        for wave in 0..20u32 {
            let base = wave * 100;
            let content: Vec<TaskHash> = (base..base + 8).map(hash).collect();
            r.ingest(&MinedBatch {
                job: u64::from(wave),
                candidates: vec![MinedCandidate {
                    content,
                    occurrences: vec![u64::from(wave) * 100, u64::from(wave) * 100 + 8],
                }],
                slice_end: u64::from(wave + 1) * 100,
            });
            assert!(r.trie_node_count() <= 17, "live nodes capped: {}", r.trie_node_count());
        }
        let s = r.stats();
        assert!(s.evicted_candidates > 0);
        assert!(s.trie_compactions > 0, "free list released: {s:?}");
        assert!(
            r.trie_allocated_nodes() <= 2 * 17,
            "allocation tracks the live set: {}",
            r.trie_allocated_nodes()
        );
        assert!(s.peak_trie_nodes < 20 * 8, "peaks stayed far below unbounded growth");
    }

    #[test]
    fn trie_byte_budget_bounds_memory() {
        // Room for roughly two 8-token candidates under the byte model;
        // the third wave must evict the stalest.
        let budget = 2 * (8 * TRIE_NODE_FOOTPRINT + 64) + TRIE_NODE_FOOTPRINT;
        let mut r = TraceReplayer::new(&cfg(2).with_max_trie_bytes(budget));
        for wave in 0..12u32 {
            let base = wave * 100;
            let content: Vec<TaskHash> = (base..base + 8).map(hash).collect();
            r.ingest(&MinedBatch {
                job: u64::from(wave),
                candidates: vec![MinedCandidate {
                    content,
                    occurrences: vec![u64::from(wave) * 100, u64::from(wave) * 100 + 8],
                }],
                slice_end: u64::from(wave + 1) * 100,
            });
            assert!(r.trie_bytes() <= budget, "live bytes within budget: {}", r.trie_bytes());
        }
        let s = r.stats();
        assert!(s.evicted_candidates > 0, "budget forced evictions: {s:?}");
        assert!(s.peak_trie_bytes <= budget, "post-enforcement peak bounded: {s:?}");
        assert_eq!(s.trie_bytes, r.trie_bytes(), "stats mirror the live figure");
    }

    #[test]
    fn zero_max_trace_length_terminates() {
        // Regression: `end = offset + 0` used to loop `ingest` forever.
        let mut bad = cfg(1);
        bad.max_trace_length = Some(0);
        let mut r = TraceReplayer::new(&bad);
        r.ingest(&batch_of(&[&[1, 2, 3]]));
        assert!(r.stats().candidates <= 3, "split degraded to 1-token pieces");
    }

    #[test]
    fn zero_half_life_scores_stay_finite() {
        // Regression: staleness 0 / half-life 0 used to be NaN, poisoning
        // every `best_completed` comparison.
        let mut bad = cfg(2);
        bad.scoring.staleness_half_life = 0.0;
        let mut r = TraceReplayer::new(&bad);
        r.ingest(&MinedBatch {
            job: 0,
            candidates: vec![MinedCandidate {
                content: vec![hash(1), hash(2)],
                occurrences: vec![0],
            }],
            slice_end: 2,
        });
        let fresh = r.score(CandidateId(0), 2);
        let stale = r.score(CandidateId(0), 100);
        assert!(fresh.is_finite() && fresh > 0.0, "fresh score finite: {fresh}");
        assert_eq!(stale, 0.0, "stale score collapses instead of NaN");
        // And the replayer still replays.
        let mut sink = EventSink::default();
        feed(&mut r, &mut sink, &[1, 2]);
        r.flush(&mut sink).unwrap();
        assert_eq!(r.stats().traces_issued, 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_state_and_counters() {
        let config = cfg(2).with_max_candidates(4);
        let mut r = TraceReplayer::new(&config);
        r.ingest(&batch_of(&[&[1, 2, 3], &[7, 8]]));
        let mut s = EventSink::default();
        // Leave a live cursor and pending tasks at the cut.
        feed(&mut r, &mut s, &[9, 1, 2]);
        assert!(r.pending_len() > 0, "cut mid-match");

        let mut w = SnapshotWriter::new();
        r.write_snapshot(&mut w);
        let payload = w.into_payload();
        let mut reader = SnapshotReader::new(&payload);
        let mut restored = TraceReplayer::restore_snapshot(&config, &mut reader).unwrap();
        reader.expect_end().unwrap();
        assert_eq!(restored.stats(), r.stats());
        assert_eq!(restored.pending_len(), r.pending_len());
        assert_eq!(restored.trie_node_count(), r.trie_node_count());

        // Both finish the match identically.
        let (mut sa, mut sb) = (EventSink::default(), EventSink::default());
        feed(&mut r, &mut sa, &[3, 5]);
        feed(&mut restored, &mut sb, &[3, 5]);
        r.flush(&mut sa).unwrap();
        restored.flush(&mut sb).unwrap();
        assert_eq!(sa.events, sb.events, "continuation is event-for-event identical");
        assert_eq!(r.stats(), restored.stats());
    }

    #[test]
    fn corrupt_replayer_snapshots_rejected() {
        let config = cfg(2);
        let mut r = TraceReplayer::new(&config);
        r.ingest(&batch_of(&[&[1, 2]]));
        let mut s = EventSink::default();
        feed(&mut r, &mut s, &[1]);
        let mut w = SnapshotWriter::new();
        r.write_snapshot(&mut w);
        let payload = w.into_payload();
        // Truncation at any prefix is a typed error, never a panic.
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            let mut reader = SnapshotReader::new(&payload[..cut]);
            assert!(
                TraceReplayer::restore_snapshot(&config, &mut reader).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    /// A long periodic motif and the candidates mining extracts from it,
    /// shaped so that replay decisions sit in deferral: the motif is
    /// `blocks` copies of a shared `inner` piece, each closed by its own
    /// separator (`sep + b`). Candidates: the motif, its rotations at the
    /// block boundaries, the inner piece and every block. The inner piece
    /// and the blocks complete once per block, each while the cursor of
    /// the motif occurrence that started earlier is still alive.
    fn deferring_fixture(inner: &[u32], blocks: u32, sep: u32) -> (Vec<u32>, Vec<Vec<u32>>) {
        let block = inner.len() + 1;
        let motif: Vec<u32> = (0..blocks)
            .flat_map(|b| inner.iter().copied().chain(std::iter::once(sep + b)))
            .collect();
        let mut cands: Vec<Vec<u32>> =
            (0..motif.len()).step_by(block).map(|r| [&motif[r..], &motif[..r]].concat()).collect();
        cands.push(inner.to_vec());
        cands.extend(motif.chunks(block).map(<[u32]>::to_vec));
        (motif, cands)
    }

    fn batch_of_vecs(cands: &[Vec<u32>]) -> MinedBatch {
        let refs: Vec<&[u32]> = cands.iter().map(Vec::as_slice).collect();
        batch_of(&refs)
    }

    #[test]
    fn deferred_decisions_score_nothing_behind_an_older_cursor() {
        // Regression: every arrival used to re-score every completed match
        // (two §4.3 scores per comparison) even when an older cursor was
        // bound to block whichever match won.
        let (motif, cands) = deferring_fixture(&[1, 2, 3, 4], 6, 50);
        let mut fast = TraceReplayer::new(&cfg(2));
        let mut reference = TraceReplayer::reference(&cfg(2));
        let (mut sf, mut sr) = (EventSink::default(), EventSink::default());
        fast.ingest(&batch_of_vecs(&cands));
        reference.ingest(&batch_of_vecs(&cands));
        let stream: Vec<u32> = motif.iter().copied().cycle().take(200 * motif.len()).collect();
        feed(&mut fast, &mut sf, &stream);
        feed(&mut reference, &mut sr, &stream);
        fast.flush(&mut sf).unwrap();
        reference.flush(&mut sr).unwrap();
        assert_eq!(sf.events, sr.events, "decisions unchanged");
        assert_eq!(ReplayerStats { match_scores: 0, ..fast.stats() }, reference.stats());
        let s = fast.stats();
        assert!(s.traces_issued >= 100, "the stream really replays: {s:?}");
        assert!(s.peak_pending_tasks >= motif.len(), "decisions really deferred: {s:?}");
        let per_task = s.match_scores as f64 / stream.len() as f64;
        assert!(per_task < 0.5, "{per_task:.2} match scores per task: {s:?}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Snapshot/restore at a random point of a random stream:
            /// the restored replayer must forward exactly the events the
            /// uninterrupted replayer forwards for the rest of the
            /// stream, including after a fresh mining ingest (which
            /// exercises slot recycling and capacity eviction).
            #[test]
            fn snapshot_restore_continues_identically(
                cand_a in proptest::collection::vec(1u32..5, 2..5),
                cand_b in proptest::collection::vec(1u32..5, 2..5),
                stream in proptest::collection::vec(1u32..6, 4..50),
                cut_sel in any::<u16>(),
            ) {
                let config = cfg(2).with_max_candidates(2);
                let mut original = TraceReplayer::new(&config);
                let seed: Vec<&[u32]> = vec![&cand_a];
                original.ingest(&batch_of(&seed));
                let cut = 1 + (cut_sel as usize) % (stream.len() - 1);
                let mut pre = EventSink::default();
                feed(&mut original, &mut pre, &stream[..cut]);

                let mut w = SnapshotWriter::new();
                original.write_snapshot(&mut w);
                let payload = w.into_payload();
                let mut reader = SnapshotReader::new(&payload);
                let mut restored =
                    TraceReplayer::restore_snapshot(&config, &mut reader).unwrap();
                reader.expect_end().unwrap();

                // A post-cut ingest lands identically on both (the
                // capacity cap may force an eviction decision).
                let late: Vec<&[u32]> = vec![&cand_b];
                original.ingest(&batch_of(&late));
                restored.ingest(&batch_of(&late));

                let (mut sa, mut sb) = (EventSink::default(), EventSink::default());
                feed(&mut original, &mut sa, &stream[cut..]);
                feed(&mut restored, &mut sb, &stream[cut..]);
                original.flush(&mut sa).unwrap();
                restored.flush(&mut sb).unwrap();
                prop_assert_eq!(sa.events, sb.events);
                prop_assert_eq!(original.stats(), restored.stats());

                // And their states stay byte-identical afterwards.
                let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
                original.write_snapshot(&mut wa);
                restored.write_snapshot(&mut wb);
                prop_assert_eq!(wa.into_payload(), wb.into_payload());
            }

            /// The shortened decision path decides exactly as the frozen
            /// reference on deferral-heavy streams: a random motif, its
            /// rotations and sub-pieces as candidates (ingested at the
            /// start, and a subset re-ingested mid-stream), repeated with
            /// noise sprinkled in, fed per task and in batches.
            #[test]
            fn deferral_shortcuts_decide_as_the_reference(
                motif in proptest::collection::vec(1u32..8, 4..24),
                rotations in any::<u32>(),
                pieces in proptest::collection::vec((any::<u16>(), 2usize..8), 0..6),
                reps in 2usize..12,
                noise in proptest::collection::vec((any::<u16>(), 1u32..12), 0..8),
                cap in 0usize..8,
                chunk in 1usize..40,
                cut_sel in any::<u16>(),
            ) {
                let n = motif.len();
                let mut cands: Vec<Vec<u32>> = (0..n)
                    .filter(|r| *r == 0 || rotations & (1 << (r % 32)) != 0)
                    .map(|r| [&motif[r..], &motif[..r]].concat())
                    .collect();
                cands.extend(pieces.iter().map(|&(at, len)| {
                    let at = at as usize % n;
                    motif[at..(at + len).min(n)].to_vec()
                }));
                let mut stream: Vec<u32> = motif.iter().copied().cycle().take(reps * n).collect();
                for &(at, kind) in &noise {
                    let at = at as usize % (stream.len() + 1);
                    stream.insert(at, kind);
                }
                let cut = cut_sel as usize % (stream.len() + 1);
                let late = &cands[..cands.len().div_ceil(2)];

                let mut config = cfg(2);
                // Below 3 the cap is off; otherwise eviction runs too.
                config.capacity.max_candidates = (cap >= 3).then_some(cap);
                let run = |mut r: TraceReplayer, batched: bool| {
                    let mut sink = EventSink::default();
                    r.ingest(&batch_of_vecs(&cands));
                    let parts = [(&stream[..cut], Some(late)), (&stream[cut..], None)];
                    for (part, then_ingest) in parts {
                        if batched {
                            for c in part.chunks(chunk) {
                                let mut buf: Vec<_> =
                                    c.iter().map(|&k| (task(k), hash(k))).collect();
                                r.on_batch(&mut buf, &mut sink).unwrap();
                            }
                        } else {
                            feed(&mut r, &mut sink, part);
                        }
                        if let Some(late) = then_ingest {
                            r.ingest(&batch_of_vecs(late));
                        }
                    }
                    r.flush(&mut sink).unwrap();
                    (sink.events, r.stats())
                };
                let (ref_events, ref_stats) = run(TraceReplayer::reference(&config), false);
                let (events, stats) = run(TraceReplayer::new(&config), false);
                let (batch_events, batch_stats) = run(TraceReplayer::new(&config), true);
                prop_assert_eq!(&events, &ref_events);
                prop_assert_eq!(ReplayerStats { match_scores: 0, ..stats }, ref_stats);
                prop_assert_eq!(&batch_events, &ref_events);
                prop_assert_eq!(batch_stats, stats);
            }
        }
    }

    #[test]
    fn pending_queue_bounded_by_candidate_length() {
        let mut r = TraceReplayer::new(&cfg(2));
        r.ingest(&batch_of(&[&[1, 2, 3, 4, 5]]));
        let mut s = EventSink::default();
        // Stream never matches the candidate fully; pending must stay
        // small (bounded by candidate length, not stream length).
        for i in 0..1000u32 {
            let k = 1 + (i % 3); // 1,2,3,1,2,3 — always dies at depth ≤ 3
            r.on_task(task(k), hash(k), &mut s).unwrap();
            assert!(r.pending_len() <= 5, "pending {} at {i}", r.pending_len());
        }
    }
}
