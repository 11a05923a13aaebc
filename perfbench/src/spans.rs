//! In-memory spans for the traced run.
//!
//! Each span records a name, start, end, its parent span, the issued-task
//! index it belongs to (the request id every span of one `execute_task`
//! shares), and the allocations the calling thread made inside it. A
//! span's self time is its duration minus the durations of its direct
//! children; the same holds for allocations.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

/// Span names: one per layer call the traced run wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One application `execute_task` through the assembled engine.
    Issue,
    /// One application `mark_iteration`.
    Mark,
    /// One application region call.
    Region,
    /// The end-of-stream flush.
    Flush,
    /// `TaskDesc::semantic_hash`.
    Hash,
    /// `TraceFinder::record` that submitted no mining job.
    FinderRecord,
    /// `TraceFinder::record` that submitted a mining job.
    FinderRecordJob,
    /// `TraceFinder::poll_completed`.
    FinderPoll,
    /// `TraceFinder::quiesce`.
    FinderQuiesce,
    /// `TraceFinder::drain_blocking`.
    FinderDrain,
    /// `TraceReplayer::ingest`.
    ReplayerIngest,
    /// `TraceReplayer::on_task`.
    ReplayerOnTask,
    /// `TraceReplayer::flush`.
    ReplayerFlush,
    /// Sink `execute_task` that ran the full dependence analysis.
    RuntimeFresh,
    /// Sink `execute_task` that recorded into a template.
    RuntimeRecord,
    /// Sink `execute_task` that replayed from a template.
    RuntimeReplay,
    /// Sink `begin_trace`.
    RuntimeBeginTrace,
    /// Sink `end_trace`.
    RuntimeEndTrace,
    /// Sink `forget_trace` and `record_trace_score`.
    RuntimeHint,
    /// `SimPipeline::feed` over the whole log plus `finalize`. Keep
    /// last: [`Name::COUNT`] relies on it.
    Exec,
}

impl Name {
    /// Number of names (tables indexed by `name as usize`).
    pub const COUNT: usize = Name::Exec as usize + 1;

    /// The dotted name written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Issue => "app.execute_task",
            Name::Mark => "app.mark_iteration",
            Name::Region => "app.region",
            Name::Flush => "app.flush",
            Name::Hash => "hash.semantic_hash",
            Name::FinderRecord => "finder.record",
            Name::FinderRecordJob => "finder.record_job",
            Name::FinderPoll => "finder.poll_completed",
            Name::FinderQuiesce => "finder.quiesce",
            Name::FinderDrain => "finder.drain_blocking",
            Name::ReplayerIngest => "replayer.ingest",
            Name::ReplayerOnTask => "replayer.on_task",
            Name::ReplayerFlush => "replayer.flush",
            Name::RuntimeFresh => "runtime.execute_task.fresh",
            Name::RuntimeRecord => "runtime.execute_task.record",
            Name::RuntimeReplay => "runtime.execute_task.replay",
            Name::RuntimeBeginTrace => "runtime.begin_trace",
            Name::RuntimeEndTrace => "runtime.end_trace",
            Name::RuntimeHint => "runtime.hint",
            Name::Exec => "exec.feed_finalize",
        }
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Issued tasks before this span opened (the request id).
    pub task: u32,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
    /// Allocations the thread made inside the span.
    pub allocs: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder: a flat vector plus a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Current request id.
    pub task: u32,
}

impl Spans {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { t0: crate::now(), spans: Vec::with_capacity(capacity), open: Vec::new(), task: 0 }
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: Name) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(idx as u32);
        let allocs = alloc::thread_allocs() as u32;
        self.spans.push(Span {
            name,
            parent,
            task: self.task,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            allocs,
        });
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn exit(&mut self, idx: usize) {
        let end = self.t0.elapsed().as_nanos() as u64;
        let allocs = alloc::thread_allocs() as u32;
        let span = &mut self.spans[idx];
        span.end = end;
        span.allocs = allocs.wrapping_sub(span.allocs);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx as u32), "spans close innermost first");
    }

    /// Renames span `idx` (a call whose kind is known only afterwards).
    pub fn rename(&mut self, idx: usize, name: Name) {
        self.spans[idx].name = name;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations of every span (duration minus the
    /// direct children's durations; likewise for allocations).
    pub fn self_costs(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self.spans.iter().map(|s| (s.dur(), s.allocs)).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut out[s.parent as usize];
                p.0 -= s.dur();
                p.1 = p.1.wrapping_sub(s.allocs);
            }
        }
        out
    }

    /// Writes the spans as tab-separated values: id, parent (-1 for a
    /// root), task, name, start_ns, end_ns, allocs.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_tsv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\ttask\tname\tstart_ns\tend_ns\tallocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.task,
                s.name.label(),
                s.start,
                s.end,
                s.allocs
            )?;
        }
        Ok(())
    }
}
