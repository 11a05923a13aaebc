//! Counting-allocator proof of the allocation-free steady states.
//!
//! The recognize/replay hot paths promise O(1) work *and zero heap
//! traffic* per task once warm, in the three states long runs actually
//! sit in:
//!
//! * **untraceable stream** — nothing buffered, nothing matching, every
//!   token rejected by the trie's dense root map and forwarded straight
//!   to the sink;
//! * **mid-replay** — a single cursor walking a memoized candidate chain
//!   while the pending buffer cycles inside its warmed capacity;
//! * **deferring** — a long motif whose inner pieces keep completing
//!   while the cursor of the motif occurrence that started earlier is
//!   alive, so completed matches pile up and nearly every replay decision
//!   defers (the early-out and the score-once scratch);
//! * **warm inline mining** — a synchronous `TraceFinder` on
//!   `Config::standard()` whose miner scratch has seen windows of every
//!   sampled size: a window without repeats mines with no allocation at
//!   all, and a window with repeats allocates only its output (one
//!   candidate list plus a content and an occurrence vector per
//!   candidate).
//!
//! A counting `#[global_allocator]` wrapper measures heap allocations
//! (alloc / alloc_zeroed / realloc) across thousands of steady-state
//! tasks and asserts the count is exactly zero (or, for mining, the
//! output's). Arming and counting are *per-thread* (const-initialized
//! TLS, no destructor, so the allocator may probe it safely): harness
//! threads allocating concurrently, the other test included, cannot
//! pollute the measurement.

use apophenia::{Config, MinedBatch, MinedCandidate, TraceFinder, TraceReplayer, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use tasksim::ids::{TaskKindId, TraceId};
use tasksim::task::{TaskDesc, TaskHash};

/// Forwards to the system allocator, counting allocations made by a
/// thread while that thread is armed.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is armed.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

/// A sink that discards everything (the replayer's own cost in
/// isolation).
struct NullSink;

impl TraceSink for NullSink {
    type Error = Infallible;

    fn begin_trace(&mut self, _id: TraceId) -> Result<(), Infallible> {
        Ok(())
    }

    fn end_trace(&mut self, _id: TraceId) -> Result<(), Infallible> {
        Ok(())
    }

    fn execute_task(&mut self, _task: TaskDesc) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A bare task: empty region lists, so construction, moves, and drops
/// never touch the heap — every counted allocation is the replayer's.
fn task(kind: u32) -> (TaskDesc, TaskHash) {
    let desc = TaskDesc::new(TaskKindId(kind));
    let hash = desc.semantic_hash();
    (desc, hash)
}

fn motif_batch(kinds: &[u32]) -> MinedBatch {
    candidates_batch(&[kinds.to_vec()])
}

fn candidates_batch(cands: &[Vec<u32>]) -> MinedBatch {
    MinedBatch {
        job: 0,
        candidates: cands
            .iter()
            .map(|kinds| MinedCandidate {
                content: kinds.iter().map(|&k| task(k).1).collect(),
                occurrences: vec![0],
            })
            .collect(),
        slice_end: 0,
    }
}

#[test]
fn steady_states_are_allocation_free() {
    const MOTIF: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    // `standard()` requires 25-token traces; admit the 8-token motif.
    let config = Config::standard().with_min_trace_length(4);
    let mut sink = NullSink;

    // --- Untraceable stream ---------------------------------------------
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&motif_batch(&MOTIF));
    // Warm up: a few untraceable tokens (distinct kinds, so nothing ever
    // matches the candidate) plus the stats call the loop makes.
    for i in 0..64u32 {
        let (desc, hash) = task(1000 + i);
        replayer.on_task(desc, hash, &mut sink).unwrap();
    }
    let allocs = allocations_in(|| {
        for i in 0..4096u32 {
            let (desc, hash) = task(2000 + i);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    });
    assert_eq!(allocs, 0, "untraceable steady state allocated {allocs} times over 4096 tasks");
    assert_eq!(replayer.stats().traces_issued, 0, "stream was really untraceable");

    // --- Mid-replay ------------------------------------------------------
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&motif_batch(&MOTIF));
    // Warm up: stream the motif until the replayer has issued traces a
    // few times (cursor scratch, pending buffer, and replay memo are all
    // at steady-state capacity afterwards).
    while replayer.stats().traces_issued < 3 {
        for &k in &MOTIF {
            let (desc, hash) = task(k);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    }
    let issued_before = replayer.stats().traces_issued;
    let allocs = allocations_in(|| {
        for _ in 0..512 {
            for &k in &MOTIF {
                let (desc, hash) = task(k);
                replayer.on_task(desc, hash, &mut sink).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "mid-replay steady state allocated {allocs} times over 4096 tasks");
    assert_eq!(
        replayer.stats().traces_issued - issued_before,
        512,
        "every measured occurrence replayed"
    );

    // --- Deferring -------------------------------------------------------
    // Twelve blocks of a shared inner piece, each closed by its own
    // separator; candidates are the motif, its rotations at block
    // boundaries, the inner piece and each block.
    const INNER: [u32; 4] = [10, 11, 12, 13];
    const BLOCKS: u32 = 12;
    let motif: Vec<u32> =
        (0..BLOCKS).flat_map(|b| INNER.iter().copied().chain(std::iter::once(100 + b))).collect();
    let block = INNER.len() + 1;
    let mut cands: Vec<Vec<u32>> =
        (0..motif.len()).step_by(block).map(|r| [&motif[r..], &motif[..r]].concat()).collect();
    cands.push(INNER.to_vec());
    cands.extend(motif.chunks(block).map(<[u32]>::to_vec));
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&candidates_batch(&cands));
    while replayer.stats().traces_issued < 3 {
        for &k in &motif {
            let (desc, hash) = task(k);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    }
    let before = replayer.stats();
    let allocs = allocations_in(|| {
        for _ in 0..64 {
            for &k in &motif {
                let (desc, hash) = task(k);
                replayer.on_task(desc, hash, &mut sink).unwrap();
            }
        }
    });
    let after = replayer.stats();
    assert_eq!(allocs, 0, "deferring steady state allocated {allocs} times over 3840 tasks");
    assert_eq!(
        after.traces_issued - before.traces_issued,
        64,
        "every measured occurrence replayed"
    );
    assert!(after.peak_pending_tasks >= motif.len(), "decisions deferred: {after:?}");
    assert!(after.match_scores > before.match_scores, "some decisions had to choose: {after:?}");
}

/// Records tokens from `stream` until the finder mines a window. Returns
/// the allocations those `record` calls made (the inline mining included)
/// and the mined batch, polled outside the measurement.
fn record_until_mined(
    finder: &mut TraceFinder,
    stream: &mut impl Iterator<Item = TaskHash>,
) -> (u64, MinedBatch) {
    let mut allocs = 0;
    loop {
        let Some(h) = stream.next() else { panic!("streams are endless") };
        allocs += allocations_in(|| finder.record(h));
        if finder.in_flight() > 0 {
            let mut mined = finder.poll_completed();
            assert_eq!(mined.len(), 1, "one window per firing");
            return (allocs, mined.remove(0));
        }
    }
}

#[test]
fn warm_sync_mining_allocates_only_its_output() {
    // `standard()`: a 5,000-token buffer sampled every 500 tokens, so the
    // windows are 500, 1,000, 2,000, 4,000 and 5,000 tokens long and the
    // sizes cycle every 16 firings.
    let config = Config::standard();
    assert!(config.mines_inline());
    const CYCLE: usize = 16;

    // --- No repeats: every token distinct --------------------------------
    let mut finder = TraceFinder::new(&config);
    let mut distinct = (1u64..).map(|i| TaskHash(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    // Warm: the buffer fills, then two full cycles of window sizes.
    for _ in 0..3 * CYCLE {
        let _ = record_until_mined(&mut finder, &mut distinct);
    }
    for firing in 0..2 * CYCLE {
        let (allocs, batch) = record_until_mined(&mut finder, &mut distinct);
        assert!(batch.candidates.is_empty(), "firing {firing}: distinct tokens repeated");
        assert_eq!(allocs, 0, "firing {firing}: a repeat-free window allocated {allocs} times");
    }

    // --- Repeats: a 40-token loop body ----------------------------------
    // Every third body ends in one of five noise tokens, so the stream
    // repeats every 15 bodies (600 tokens) and the window contents every
    // 6 firings; with the sizes, every 48.
    let mut finder = TraceFinder::new(&config);
    let mut periodic = (0u64..).map(|i| {
        let (body, k) = (i / 40, i % 40);
        let tok = if k == 39 && body % 3 == 2 { 1_000 + body / 3 % 5 } else { k };
        TaskHash(tok.wrapping_mul(0xD1B5_4A32_D192_ED03))
    });
    for _ in 0..2 * 48 {
        let _ = record_until_mined(&mut finder, &mut periodic);
    }
    let mut mined = 0;
    for firing in 0..48 {
        let (allocs, batch) = record_until_mined(&mut finder, &mut periodic);
        let n = batch.candidates.len() as u64;
        mined += n;
        assert!(n > 0, "firing {firing}: the loop body was not mined");
        assert!(
            allocs <= 1 + 2 * n,
            "firing {firing}: {allocs} allocations for {n} candidates (output only allows {})",
            1 + 2 * n
        );
    }
    assert!(mined >= 48, "every window mined a candidate");
}
