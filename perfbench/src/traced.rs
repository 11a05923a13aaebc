//! The traced run: the automatic-tracing engine rebuilt from the layers'
//! public APIs, with a span around every call into a layer.
//!
//! The assembly follows `AutoTracer::execute_task` call for call — hash,
//! `TraceFinder::record`, `poll_completed`, `TraceReplayer::ingest` per
//! completed batch, `TraceReplayer::on_task` — over a `Runtime` reached
//! through [`TimedSink`], a `TraceSink` that times each runtime call. The
//! runtime keeps its `Full` log, which `SimPipeline::feed`/`finalize`
//! then simulate. The run must reproduce the `Session` op digest and its
//! drained report exactly; the caller checks both.

use crate::spans::{Name, Spans, ROOT};
use crate::stream::{Call, Stream, Workload};
use apophenia::{TraceFinder, TraceReplayer, TraceSink};
use tasksim::exec::{LogRetention, SimPipeline, SimReport};
use tasksim::ids::TraceId;
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::stats::RuntimeStats;
use tasksim::task::TaskDesc;

/// What the traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Every span, in open order.
    pub spans: Spans,
    /// Op digest after the final flush.
    pub digest: u64,
    /// The report `SimPipeline` computed from the `Full` log.
    pub report: SimReport,
    /// Final runtime counters.
    pub stats: RuntimeStats,
    /// Final replayer counters.
    pub replayer: apophenia::replayer::ReplayerStats,
    /// Mining jobs the finder submitted.
    pub jobs: u64,
    /// Mined batches ingested.
    pub batches: u64,
    /// Batches whose ingest grew the trie (more nodes or candidates).
    pub novel_batches: u64,
    /// Operations in the log.
    pub ops: u64,
    /// Most operations the pipeline held at once.
    pub exec_peak_retained: usize,
    /// Wall time of the application calls (every call of the stream plus
    /// the final flush) by a clock read outside their spans: the
    /// independent total the root spans must account for.
    pub call_wall_ns: u64,
    /// Issuer calls attempted.
    pub attempted: u64,
    /// Issuer calls that failed (or returned unexpected region ids).
    pub failed: u64,
}

impl TracedRun {
    /// Total duration of the root spans of the application calls (every
    /// root but the simulation of the log).
    pub fn root_call_ns(&self) -> u64 {
        let roots = self.spans.spans().iter().filter(|s| s.parent == ROOT && s.name != Name::Exec);
        roots.map(|s| s.dur()).sum()
    }
}

/// The runtime configuration `Session` gives the automatic front-end,
/// with the log kept in full.
fn runtime_config(workload: Workload) -> RuntimeConfig {
    let (nodes, gpus_per_node) = workload.machine();
    let mut rt = RuntimeConfig::multi_node(nodes, gpus_per_node)
        .with_log_retention(LogRetention::Full)
        .with_auto_layer();
    if let Some(bytes) = workload.config().capacity.max_template_bytes {
        rt.max_template_bytes = Some(rt.max_template_bytes.map_or(bytes, |own| own.min(bytes)));
    }
    rt
}

/// A `TraceSink` over the runtime that records a span per call and
/// buckets each `execute_task` by the `RuntimeStats` counter it advanced.
struct TimedSink<'a> {
    rt: &'a mut Runtime,
    spans: &'a mut Spans,
}

impl TimedSink<'_> {
    fn timed<T>(&mut self, name: Name, f: impl FnOnce(&mut Runtime) -> T) -> T {
        let span = self.spans.enter(name);
        let out = f(self.rt);
        self.spans.exit(span);
        out
    }
}

impl TraceSink for TimedSink<'_> {
    type Error = RuntimeError;

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.timed(Name::RuntimeBeginTrace, |rt| rt.begin_trace(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.timed(Name::RuntimeEndTrace, |rt| rt.end_trace(id))
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        let before = *self.rt.stats();
        let span = self.spans.enter(Name::RuntimeFresh);
        let out = self.rt.execute_task(task).map(|_| ());
        self.spans.exit(span);
        let after = self.rt.stats();
        if after.tasks_replayed > before.tasks_replayed {
            self.spans.rename(span, Name::RuntimeReplay);
        } else if after.tasks_recorded > before.tasks_recorded {
            self.spans.rename(span, Name::RuntimeRecord);
        }
        out
    }

    fn forget_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.timed(Name::RuntimeHint, |rt| {
            rt.forget_template(id);
        });
        Ok(())
    }

    fn record_trace_score(&mut self, id: TraceId, score: f64) -> Result<(), RuntimeError> {
        self.timed(Name::RuntimeHint, |rt| rt.note_trace_score(id, score));
        Ok(())
    }
}

/// The engine's three layers plus ingest bookkeeping.
struct Engine {
    rt: Runtime,
    finder: TraceFinder,
    replayer: TraceReplayer,
    spans: Spans,
    batches: u64,
    novel_batches: u64,
}

impl Engine {
    fn ingest(&mut self, batches: Vec<apophenia::MinedBatch>) {
        for batch in &batches {
            let nodes = self.replayer.trie_node_count();
            let candidates = self.replayer.stats().candidates;
            let span = self.spans.enter(Name::ReplayerIngest);
            self.replayer.ingest(batch);
            self.spans.exit(span);
            self.batches += 1;
            let grew = self.replayer.trie_node_count() > nodes
                || self.replayer.stats().candidates > candidates;
            self.novel_batches += u64::from(grew);
        }
    }

    /// `AutoTracer::execute_task` (Algorithm 1), one layer call at a time.
    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        let span = self.spans.enter(Name::Hash);
        let hash = task.semantic_hash();
        self.spans.exit(span);
        let jobs = self.finder.jobs_submitted;
        let span = self.spans.enter(Name::FinderRecord);
        self.finder.record(hash);
        self.spans.exit(span);
        if self.finder.jobs_submitted != jobs {
            self.spans.rename(span, Name::FinderRecordJob);
        }
        let span = self.spans.enter(Name::FinderPoll);
        let batches = self.finder.poll_completed();
        self.spans.exit(span);
        self.ingest(batches);
        let span = self.spans.enter(Name::ReplayerOnTask);
        let mut sink = TimedSink { rt: &mut self.rt, spans: &mut self.spans };
        let out = self.replayer.on_task(task, hash, &mut sink);
        self.spans.exit(span);
        out
    }

    /// `AutoTracer::flush`.
    fn flush(&mut self) -> Result<(), RuntimeError> {
        let span = self.spans.enter(Name::FinderDrain);
        let batches = self.finder.drain_blocking();
        self.spans.exit(span);
        self.ingest(batches);
        let span = self.spans.enter(Name::ReplayerFlush);
        let mut sink = TimedSink { rt: &mut self.rt, spans: &mut self.spans };
        let out = self.replayer.flush(&mut sink);
        self.spans.exit(span);
        out
    }
}

/// Runs `stream` through the assembled, traced engine.
pub fn run(workload: Workload, stream: &Stream) -> TracedRun {
    let config = workload.config();
    let mut e = Engine {
        rt: Runtime::new(runtime_config(workload)),
        finder: TraceFinder::new(&config),
        replayer: TraceReplayer::new(&config),
        spans: Spans::with_capacity(stream.calls.len() * 8),
        batches: 0,
        novel_batches: 0,
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut issued = 0u64;
    let mut call_wall_ns = 0u64;
    for call in &stream.calls {
        attempted += 1;
        e.spans.task = issued as u32;
        let staged = match call {
            Call::Task(desc) => Some(desc.clone()),
            _ => None,
        };
        let outer = crate::now();
        let ok = match call {
            Call::Task(_) => {
                let task = staged.expect("task cloned above");
                let span = e.spans.enter(Name::Issue);
                issued += 1;
                let ok = e.execute_task(task).is_ok();
                e.spans.exit(span);
                ok
            }
            Call::Mark => {
                let span = e.spans.enter(Name::Mark);
                e.rt.mark_iteration_after(issued);
                e.spans.exit(span);
                true
            }
            Call::Quiesce => {
                let span = e.spans.enter(Name::FinderQuiesce);
                e.finder.quiesce();
                e.spans.exit(span);
                true
            }
            Call::CreateRegion { fields, id } => {
                let span = e.spans.enter(Name::Region);
                let got = e.rt.create_region(*fields);
                e.spans.exit(span);
                got == *id
            }
            Call::Partition { region, parts, ids } => {
                let span = e.spans.enter(Name::Region);
                let got = e.rt.partition(*region, *parts);
                e.spans.exit(span);
                got.is_ok_and(|got| got == *ids)
            }
            Call::DestroyRegion(region) => {
                let span = e.spans.enter(Name::Region);
                let ok = e.rt.destroy_region(*region).is_ok();
                e.spans.exit(span);
                ok
            }
        };
        call_wall_ns += outer.elapsed().as_nanos() as u64;
        failed += u64::from(!ok);
    }
    attempted += 1;
    e.spans.task = issued as u32;
    let outer = crate::now();
    let span = e.spans.enter(Name::Flush);
    failed += u64::from(e.flush().is_err());
    e.spans.exit(span);
    call_wall_ns += outer.elapsed().as_nanos() as u64;

    let digest = e.rt.op_digest();
    let stats = *e.rt.stats();
    let replayer = e.replayer.stats();
    let jobs = e.finder.jobs_submitted;
    let log = e.rt.into_log();
    let span = e.spans.enter(Name::Exec);
    let mut pipeline = SimPipeline::new(*log.config());
    for op in log.ops() {
        pipeline.feed(op);
    }
    let exec_peak_retained = pipeline.peak_retained();
    let report = pipeline.finalize();
    e.spans.exit(span);
    TracedRun {
        spans: e.spans,
        digest,
        report,
        stats,
        replayer,
        jobs,
        batches: e.batches,
        novel_batches: e.novel_batches,
        ops: log.ops().len() as u64,
        exec_peak_retained,
        call_wall_ns,
        attempted,
        failed,
    }
}
