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
//!   defers (the early-out and the score-once scratch).
//!
//! A counting `#[global_allocator]` wrapper measures heap allocations
//! (alloc / alloc_zeroed / realloc) across thousands of steady-state
//! tasks and asserts the count is exactly zero. Arming is *per-thread*
//! (const-initialized TLS, no destructor, so the allocator may probe it
//! safely): harness threads allocating concurrently cannot pollute the
//! measurement.

use apophenia::{Config, MinedBatch, MinedCandidate, TraceReplayer, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use tasksim::ids::{TaskKindId, TraceId};
use tasksim::task::{TaskDesc, TaskHash};

/// Forwards to the system allocator, counting allocations made by a
/// thread while that thread is armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::SeqCst)
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
