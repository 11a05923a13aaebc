//! The Apophenia engine: Algorithm 1 wired end to end.
//!
//! [`AutoTracer`] is the front-end component the paper describes: it sits
//! between the application and the runtime, intercepting every
//! `execute_task` call. Each task is hashed (§4.1) and fed to the trace
//! finder (history buffer + asynchronous mining, §4.2) and the trace
//! replayer (trie matching + scored replay, §4.3); the replayer forwards a
//! possibly re-bracketed stream of tasks and `begin_trace`/`end_trace`
//! calls to the underlying [`Runtime`]. Applications using [`AutoTracer`]
//! need no tracing annotations at all.
//!
//! One function decides when mined batches ingest, per
//! [`Config::ingest`]; it runs the §5.1 agreement too, so a
//! control-replicated deployment is N engines from one configuration.

use crate::config::{Config, FinderPolicy, IngestSchedule};
use crate::finder::{get_batch, put_batch, FinderError, MinedBatch, MiningPool, TraceFinder};
use crate::metrics::{TracedWindow, WarmupDetector};
use crate::replayer::{ReplayerStats, TraceReplayer};
use crate::snapshot::{get_config, put_config};
use std::collections::VecDeque;
use tasksim::exec::LogStats;
use tasksim::ids::{RegionId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::snapshot::{
    self, CheckpointMeta, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::{TaskDesc, TaskHash};

/// Counters of the §5.1 agreement ([`IngestSchedule::Agreed`]). Each
/// engine models every node, so each holds the deployment's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgreementStats {
    /// Batch ingestions, summed over the deployment's nodes.
    pub ingests: u64,
    /// Times any node had to stall waiting for its own mining job.
    pub waits: u64,
    /// Total simulated stall, in operations-worth of waiting.
    pub stall_ops: u64,
    /// The current agreed ingestion interval.
    pub interval: u64,
}

/// Automatic tracing layered over a [`Runtime`].
///
/// Applications normally reach this through
/// [`Session`](crate::session::Session), which returns it as a
/// `Box<dyn TaskIssuer>`; region management and manual-bracket rejection
/// live in the [`TaskIssuer`] impl below.
///
/// # Example
///
/// ```
/// use apophenia::{AutoTracer, Config};
/// use tasksim::issuer::TaskIssuer;
/// use tasksim::runtime::RuntimeConfig;
/// use tasksim::task::TaskDesc;
/// use tasksim::ids::TaskKindId;
///
/// # fn main() -> Result<(), tasksim::runtime::RuntimeError> {
/// let mut auto = AutoTracer::new(
///     RuntimeConfig::single_node(1),
///     Config::standard().with_min_trace_length(2).with_multi_scale_factor(8),
/// );
/// let a = auto.create_region(1);
/// let b = auto.create_region(1);
/// for _ in 0..200 {
///     auto.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b))?;
///     auto.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a))?;
///     auto.mark_iteration();
/// }
/// auto.flush()?;
/// assert!(auto.runtime().stats().tasks_replayed > 0, "traces were found and replayed");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AutoTracer {
    /// The tracing configuration the engine was built from — retained so
    /// checkpoints are self-contained (a restored process needs no
    /// side-channel config).
    config: Config,
    rt: Runtime,
    finder: TraceFinder,
    replayer: TraceReplayer,
    window: TracedWindow,
    warmup: WarmupDetector,
    prev: RuntimeStats,
    iter_traced: u64,
    iter_total: u64,
    /// Tasks the application has issued so far (including buffered ones).
    issued: u64,
    /// Batches waiting for their agreed ingestion point under
    /// [`IngestSchedule::Agreed`], as `(ingest_at, batch)`.
    agreed: VecDeque<(u64, MinedBatch)>,
    /// The agreement protocol's counters; `interval` is the live one.
    agreement: AgreementStats,
    /// Reusable `(task, hash)` accumulator for [`TaskIssuer::issue_batch`]
    /// — always empty between calls, so it is not serialized.
    batch_scratch: Vec<(TaskDesc, TaskHash)>, // snapshot: derived
}

impl AutoTracer {
    /// Creates an engine over a fresh runtime. The runtime is forced into
    /// `auto_layer` cost accounting (12 µs launches, §5.2 replay gating).
    pub fn new(rt_config: RuntimeConfig, config: Config) -> Self {
        Self::assemble(TraceFinder::new(&config), rt_config, config)
    }

    /// Like [`Self::new`], but every task takes the frozen per-task
    /// reference pipeline ([`TraceReplayer::reference`]) instead of the
    /// fast paths — the baseline the parity suites and the `hot_path`
    /// bench measure against. Not part of the configuration or a
    /// checkpoint: a restored engine takes the fast paths, which produce
    /// bit-identical op digests, reports, and stats.
    pub fn reference(rt_config: RuntimeConfig, config: Config) -> Self {
        let replayer = TraceReplayer::reference(&config);
        Self { replayer, ..Self::new(rt_config, config) }
    }

    /// Like [`Self::new`], but the finder submits mining jobs to `pool`
    /// instead of spawning a private worker pool — the constructor a
    /// multi-tenant host uses so every tenant shares one set of mining
    /// threads. Per-engine mining results and submission-order reassembly
    /// are unaffected; only the threads are shared.
    pub fn with_pool(rt_config: RuntimeConfig, config: Config, pool: &MiningPool) -> Self {
        Self::assemble(TraceFinder::with_pool(&config, pool), rt_config, config)
    }

    /// Folds the tracing config's template byte budget
    /// ([`crate::config::CapacityConfig::max_template_bytes`]) into the
    /// runtime config (taking the tighter of the two when both are set),
    /// forces auto-layer cost accounting, and builds the engine.
    fn assemble(finder: TraceFinder, mut rt_config: RuntimeConfig, config: Config) -> Self {
        if let Some(bytes) = config.capacity.max_template_bytes {
            rt_config.max_template_bytes =
                Some(rt_config.max_template_bytes.map_or(bytes, |own| own.min(bytes)));
        }
        let interval =
            if let IngestSchedule::Agreed { interval, .. } = config.ingest { interval } else { 0 };
        Self {
            finder,
            replayer: TraceReplayer::new(&config),
            config,
            rt: Runtime::new(rt_config.with_auto_layer()),
            window: TracedWindow::figure10(),
            warmup: WarmupDetector::default(),
            prev: RuntimeStats::default(),
            iter_traced: 0,
            iter_total: 0,
            issued: 0,
            agreed: VecDeque::new(),
            agreement: AgreementStats { interval, ..AgreementStats::default() },
            batch_scratch: Vec::new(),
        }
    }

    /// The per-task core of Algorithm 1 on the single-task path.
    fn issue_one(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        let hash = self.admit(&task, &mut Vec::new())?;
        self.replayer.on_task(task, hash, &mut self.rt)
    }

    /// The batched core of Algorithm 1: admits every task into `run` and
    /// forwards it through [`TraceReplayer::on_batch`] at the end.
    fn issue_batch_inner(
        &mut self,
        tasks: &mut Vec<TaskDesc>,
        run: &mut Vec<(TaskDesc, TaskHash)>,
    ) -> Result<(), RuntimeError> {
        for task in tasks.drain(..) {
            let hash = self.admit(&task, run)?;
            run.push((task, hash));
        }
        if !run.is_empty() {
            self.replayer.on_batch(run, &mut self.rt)?;
        }
        Ok(())
    }

    /// The prelude both issue paths share: hash, record, enforce the
    /// finder policy, ingest what is due. The not-yet-forwarded batched
    /// tasks in `run` precede this one, so they reach the replayer before
    /// anything ingests, keeping batched issuance decision-identical.
    fn admit(
        &mut self,
        task: &TaskDesc,
        run: &mut Vec<(TaskDesc, TaskHash)>,
    ) -> Result<TaskHash, RuntimeError> {
        let hash = task.semantic_hash();
        self.issued += 1;
        self.finder.record(hash);
        self.enforce_finder_policy()?;
        let due = self.due_batches(false);
        if !due.is_empty() && !run.is_empty() {
            self.replayer.on_batch(run, &mut self.rt)?;
        }
        due.iter().for_each(|batch| self.replayer.ingest(batch));
        Ok(hash)
    }

    /// The one ingest schedule: the mined batches [`Config::ingest`] makes
    /// due at the current task, in order. At a flush (program end) every
    /// batch is due, and agreed batches ingest without counting as agreed.
    ///
    /// Under [`IngestSchedule::Agreed`] the batch of a slice ending at
    /// operation `e` ingests at `e + interval` (the interval when it
    /// arrives). Node `n` has it ready at `e + delay(n, job)`; each node
    /// not ready by then stalls, and any stall doubles the interval. Every
    /// engine of a deployment computes this for all nodes alike.
    fn due_batches(&mut self, flushing: bool) -> Vec<MinedBatch> {
        let mined =
            if flushing { self.finder.drain_blocking() } else { self.finder.poll_completed() };
        let IngestSchedule::Agreed { delay, .. } = self.config.ingest else {
            return mined;
        };
        for batch in mined {
            self.agreed.push_back((batch.slice_end + self.agreement.interval, batch));
        }
        if flushing {
            return self.agreed.drain(..).map(|(_, batch)| batch).collect();
        }
        let now = self.issued;
        let nodes = self.rt.config().nodes.max(1);
        let mut due = Vec::new();
        let mut waited = false;
        while let Some((_, batch)) = self.agreed.pop_front_if(|(at, _)| *at <= now) {
            for node in 0..nodes {
                let ready_at = batch.slice_end + delay.delay(node, batch.job);
                if ready_at > now {
                    waited = true;
                    self.agreement.waits += 1;
                    self.agreement.stall_ops += ready_at - now;
                }
            }
            self.agreement.ingests += u64::from(nodes);
            due.push(batch);
        }
        if waited {
            self.agreement.interval = self.agreement.interval.saturating_mul(2).min(1 << 20);
        }
        due
    }

    /// Under [`FinderPolicy::FailStop`], turns a degraded mining pipeline
    /// into a typed error at the next issue; under the default degrade
    /// policy this is free (the failure stays visible via
    /// [`Self::finder_health`]).
    fn enforce_finder_policy(&mut self) -> Result<(), RuntimeError> {
        if self.config.finder_policy == FinderPolicy::FailStop {
            self.finder.health().map_err(|e| RuntimeError::FinderFailed(e.to_string()))?;
        }
        Ok(())
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Replayer counters.
    pub fn replayer_stats(&self) -> ReplayerStats {
        self.replayer.stats()
    }

    /// The Figure 10 traced-fraction window.
    pub fn traced_window(&self) -> &TracedWindow {
        &self.window
    }

    /// Whether the mining pipeline is healthy; see
    /// [`TraceFinder::health`]. A degraded pipeline keeps the task stream
    /// flowing — it only costs tracing opportunities.
    ///
    /// # Errors
    ///
    /// The first [`FinderError`] the pipeline hit.
    pub fn finder_health(&mut self) -> Result<(), FinderError> {
        self.finder.health()
    }

    /// The Figure 9 warmup detector.
    pub fn warmup(&self) -> &WarmupDetector {
        &self.warmup
    }

    /// The §5.1 agreement counters (all zero unless the schedule is
    /// [`IngestSchedule::Agreed`]).
    pub fn agreement_stats(&self) -> AgreementStats {
        self.agreement
    }

    /// Tasks the application has issued so far (including buffered ones).
    pub fn tasks_issued(&self) -> u64 {
        self.issued
    }

    /// Flushes and consumes the engine, returning the run's artifacts:
    /// the simulation report (streamed incrementally when the runtime was
    /// built with [`tasksim::exec::LogRetention::Drain`], batch-computed
    /// otherwise — bit-identical either way), the raw log when retention
    /// kept it, and the final stats.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the final flush.
    pub fn finish(mut self) -> Result<RunArtifacts, RuntimeError> {
        self.flush()?;
        Ok(self.rt.into_artifacts())
    }

    /// Serializes the engine's complete state — configuration, runtime
    /// (log, templates, analyzer, pipeline), finder (history buffer,
    /// sampler, completed batches), replayer (trie, cursors, pending
    /// buffer), agreement queue, and metrics — as one self-contained
    /// payload. The finder's
    /// mining pipeline is quiesced first, which is why this takes
    /// `&mut self`; the engine continues normally afterwards.
    pub fn write_snapshot(&mut self, w: &mut SnapshotWriter) {
        put_config(w, &self.config);
        self.rt.write_snapshot(w);
        self.finder.write_snapshot(w);
        self.replayer.write_snapshot(w);
        self.window.snapshot(w);
        self.warmup.snapshot(w);
        self.prev.snapshot(w);
        w.put_u64(self.iter_traced);
        w.put_u64(self.iter_total);
        w.put_u64(self.issued);
        let a = self.agreement;
        [a.ingests, a.waits, a.stall_ops, a.interval].into_iter().for_each(|v| w.put_u64(v));
        w.put_deque(&self.agreed, |w, (ingest_at, batch)| {
            w.put_u64(*ingest_at);
            put_batch(w, batch);
        });
    }

    /// Rebuilds an engine from [`Self::write_snapshot`] output. The
    /// restored engine continues bit-identically to the uninterrupted
    /// run: same mining schedule, same replay decisions, same evictions,
    /// same report.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = get_config(r)?;
        let rt = Runtime::restore_snapshot(r)?;
        if !rt.config().auto_layer {
            return Err(SnapshotError::Corrupt(
                "auto-tracer snapshot carries a non-auto runtime".into(),
            ));
        }
        let finder = TraceFinder::restore_snapshot(&config, r)?;
        let replayer = TraceReplayer::restore_snapshot(&config, r)?;
        Ok(Self {
            config,
            rt,
            finder,
            replayer,
            window: TracedWindow::restore(r)?,
            warmup: WarmupDetector::restore(r)?,
            prev: RuntimeStats::restore(r)?,
            iter_traced: r.get_u64()?,
            iter_total: r.get_u64()?,
            issued: r.get_u64()?,
            agreement: AgreementStats {
                ingests: r.get_u64()?,
                waits: r.get_u64()?,
                stall_ops: r.get_u64()?,
                interval: r.get_u64()?,
            },
            agreed: r.get_deque(|r| Ok((r.get_u64()?, get_batch(r)?)))?,
            batch_scratch: Vec::new(),
        })
    }

    /// Folds newly forwarded tasks into the metrics.
    fn absorb_stats(&mut self) {
        let s = *self.rt.stats();
        let fresh = s.tasks_fresh - self.prev.tasks_fresh;
        let traced = (s.tasks_recorded + s.tasks_replayed)
            - (self.prev.tasks_recorded + self.prev.tasks_replayed);
        for _ in 0..fresh {
            self.window.push(false);
        }
        for _ in 0..traced {
            self.window.push(true);
        }
        self.iter_traced += traced;
        self.iter_total += traced + fresh;
        self.prev = s;
    }
}

impl TaskIssuer for AutoTracer {
    /// Regions are not operations; creation passes straight through.
    fn create_region(&mut self, fields: u32) -> RegionId {
        self.rt.create_region(fields)
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        self.rt.partition(region, parts)
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        self.rt.destroy_region(region)
    }

    /// Algorithm 1's `ExecuteTask`: hash, feed the finder, ingest what the
    /// schedule makes due, and let the replayer forward what it can.
    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.issue_one(task)?;
        self.absorb_stats();
        Ok(())
    }

    /// The batched hot path: each task is hashed and fed to the finder
    /// exactly as in `execute_task`, but tasks accumulate in
    /// a reusable scratch vector and reach the replayer through
    /// [`TraceReplayer::on_batch`], which forwards contiguous untraceable
    /// runs to the runtime as single
    /// [`TraceSink::execute_batch`](crate::replayer::TraceSink::execute_batch)
    /// calls. Mined batches still ingest at their deterministic stream
    /// positions — the accumulated run is flushed through the replayer
    /// first — so the operation log is bit-identical to task-at-a-time
    /// issuance, and the runtime-stats delta and traced-window metrics are
    /// folded in once per batch instead of once per task.
    ///
    /// An engine built by [`AutoTracer::reference`] takes the frozen
    /// per-task path for every task instead.
    fn issue_batch(&mut self, mut tasks: Vec<TaskDesc>) -> Result<(), RuntimeError> {
        if self.replayer.is_reference() {
            let result = tasks.into_iter().try_for_each(|task| self.issue_one(task));
            self.absorb_stats();
            return result;
        }
        let mut run = std::mem::take(&mut self.batch_scratch);
        run.clear();
        let mut result = self.issue_batch_inner(&mut tasks, &mut run);
        if result.is_err() && !run.is_empty() {
            // The buffered tasks precede the failing issue in stream
            // order, so they still reach the replayer — and an error
            // forwarding them happened "first" and wins.
            if let Err(e) = self.replayer.on_batch(&mut run, &mut self.rt) {
                result = Err(e);
            }
        }
        run.clear();
        self.batch_scratch = run;
        self.absorb_stats();
        result
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    /// The mark binds to the tasks issued so far in *application* order:
    /// some may still sit in the replayer's pending buffer, but the
    /// simulator resolves marks by task count.
    fn mark_iteration(&mut self) {
        self.rt.mark_iteration_after(self.issued);
        self.warmup.record_iteration(self.iter_traced, self.iter_total);
        self.iter_traced = 0;
        self.iter_total = 0;
    }

    /// Blocks on outstanding analyses, ingests everything mined, replays
    /// any eligible matches, and forwards the rest untraced. Under
    /// [`FinderPolicy::FailStop`] a failure only this drain revealed is
    /// an error too.
    fn flush(&mut self) -> Result<(), RuntimeError> {
        let due = self.due_batches(true);
        self.enforce_finder_policy()?;
        due.iter().for_each(|batch| self.replayer.ingest(batch));
        self.replayer.flush(&mut self.rt)?;
        self.absorb_stats();
        Ok(())
    }

    fn stats(&self) -> RuntimeStats {
        *self.rt.stats()
    }

    fn log_stats(&self) -> LogStats {
        self.rt.log_stats()
    }

    /// Replayer pending buffer + pipeline deferral queue, unified.
    fn buffered_ops(&self) -> BufferStats {
        let r = self.replayer.stats();
        BufferStats {
            replayer_pending: r.pending_tasks,
            peak_replayer_pending: r.peak_pending_tasks,
            ..self.rt.buffer_stats()
        }
    }

    /// Mining-pipeline health as a description (see
    /// [`AutoTracer::finder_health`] for the typed form).
    fn health(&mut self) -> Result<(), String> {
        self.finder.health().map_err(|e| e.to_string())
    }

    /// Blocks until every in-flight mining job lands (reassembled, queued
    /// for the next poll). Makes asynchronous ingestion a pure function
    /// of the task stream when invoked on a deterministic schedule.
    fn quiesce(&mut self) {
        self.finder.quiesce();
    }

    /// The candidate trie's modeled footprint (current, peak) in bytes.
    fn trie_footprint(&self) -> (usize, usize) {
        let r = self.replayer.stats();
        (r.trie_bytes, r.peak_trie_bytes)
    }

    fn op_digest(&self) -> u64 {
        self.rt.op_digest()
    }

    fn checkpoint(&mut self, out: &mut dyn std::io::Write) -> Result<CheckpointMeta, RuntimeError> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        Ok(snapshot::write_checkpoint(
            snapshot::FRONT_END_AUTO,
            self.issued,
            self.rt.log_stats().pushed,
            self.rt.op_digest(),
            &w.into_payload(),
            out,
        )?)
    }

    fn warmup_iterations(&self) -> Option<u64> {
        self.warmup.warmup_iterations()
    }

    fn traced_samples(&self) -> Vec<(u64, f64)> {
        self.window.samples().to_vec()
    }

    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        AutoTracer::finish(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasksim::cost::Micros;
    use tasksim::ids::TaskKindId;

    fn small_config() -> Config {
        Config::standard().with_min_trace_length(2).with_batch_size(256).with_multi_scale_factor(16)
    }

    fn engine() -> AutoTracer {
        AutoTracer::new(RuntimeConfig::single_node(1), small_config())
    }

    /// A two-task loop body on a pair of regions.
    fn run_loop(auto: &mut AutoTracer, iters: usize) {
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for _ in 0..iters {
            auto.execute_task(
                TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.execute_task(
                TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.mark_iteration();
        }
        auto.flush().unwrap();
    }

    #[test]
    fn loop_gets_traced_automatically() {
        let mut auto = engine();
        run_loop(&mut auto, 300);
        let s = auto.runtime().stats();
        assert!(s.trace_replays > 0, "replays: {s}");
        assert!(s.replayed_fraction() > 0.5, "most tasks replayed in steady state: {s}");
        assert_eq!(s.mismatches, 0, "automatic traces never mismatch");
    }

    #[test]
    fn warmup_reached_on_iterative_program() {
        let mut auto = engine();
        run_loop(&mut auto, 300);
        let w = auto.warmup().warmup_iterations();
        assert!(w.is_some(), "steady state reached");
        assert!(w.unwrap() < 200, "warmup {w:?} too long");
    }

    #[test]
    fn traced_window_ramps_up() {
        let mut auto = engine();
        run_loop(&mut auto, 400);
        let samples = auto.traced_window().samples();
        assert!(!samples.is_empty());
        let early = samples.first().unwrap().1;
        let late = samples.last().unwrap().1;
        assert!(late > early, "traced fraction ramps: {early} → {late}");
        assert!(late > 60.0, "steady state mostly traced: {late}");
    }

    #[test]
    fn capped_engine_still_traces_and_samples_capacity() {
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1).with_max_templates(4),
            small_config().with_max_candidates(8).with_max_trie_nodes(512),
        );
        run_loop(&mut auto, 300);
        let s = auto.runtime().stats();
        assert!(s.replayed_fraction() > 0.5, "caps don't hurt a stable loop: {s}");
        let r = auto.replayer_stats();
        assert!(r.peak_trie_nodes > 0, "candidates were ingested: {r:?}");
        assert!(r.peak_trie_bytes > 0, "{r:?}");
        assert!(r.peak_candidates <= 8, "candidate cap held at every ingest: {r:?}");
        assert!(r.candidates <= 8, "{r:?}");
        assert!(auto.finder_health().is_ok());
    }

    #[test]
    fn fail_stop_policy_surfaces_finder_errors() {
        use crate::config::FinderPolicy;
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config()
                .with_async_mining()
                .with_multi_scale_factor(8)
                .with_finder_policy(FinderPolicy::FailStop),
        );
        auto.finder.kill_pool_for_test();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        // The first issue after a job is lost must fail with the typed
        // error (the stream before that flows normally).
        let mut failure = None;
        for i in 0..64u32 {
            let t = TaskDesc::new(TaskKindId(i % 2)).reads(a).writes(b);
            if let Err(e) = TaskIssuer::issue_batch(&mut auto, vec![t]) {
                failure = Some(e);
                break;
            }
        }
        let err = failure.expect("fail-stop surfaced the dead pool");
        assert!(
            matches!(err, RuntimeError::FinderFailed(ref m) if m.contains("disconnected")),
            "typed error: {err}"
        );
    }

    #[test]
    fn fail_stop_surfaces_finder_failures_at_flush() {
        // A worker panic that lands only at the final drain must still be
        // surfaced by the first flush under fail-stop (regression: flush
        // used to check the policy before draining, and lost it). The
        // poisoned job is the one the last task submits, so its panic
        // usually shows only during that drain. A control-replicated
        // deployment flushes each of its engines the same way.
        let config = small_config()
            .with_async_mining()
            .with_multi_scale_factor(8)
            .with_finder_policy(FinderPolicy::FailStop);
        let mut auto = AutoTracer::new(RuntimeConfig::single_node(1), config);
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        let mut issue_err = None;
        for k in 0..32u32 {
            if k == 31 {
                auto.finder.poison_next = true;
            }
            if let Err(e) = auto.execute_task(TaskDesc::new(TaskKindId(k % 4)).reads(a).writes(b)) {
                issue_err = Some(e);
                break;
            }
        }
        let err = match issue_err {
            // The panic may already surface at the issue's health check
            // — also correct under fail-stop.
            Some(e) => e,
            None => auto.flush().expect_err("the first fail-stop flush surfaces the panic"),
        };
        assert!(
            matches!(err, RuntimeError::FinderFailed(ref m) if m.contains("panicked")),
            "typed error: {err}"
        );
        // The default degrade policy flushes the same scenario cleanly.
        let config = small_config().with_async_mining().with_multi_scale_factor(8);
        let mut auto = AutoTracer::new(RuntimeConfig::single_node(1), config);
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for k in 0..32u32 {
            if k == 31 {
                auto.finder.poison_next = true;
            }
            auto.execute_task(TaskDesc::new(TaskKindId(k % 4)).reads(a).writes(b)).unwrap();
        }
        auto.flush().expect("degrade policy keeps flushing");
        assert!(auto.finder_health().is_err(), "the panic stays observable");
    }

    #[test]
    fn degrade_policy_keeps_streaming_after_finder_death() {
        // The default: same failure, no error — the run continues
        // untraced and health() reports the degradation.
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config().with_async_mining().with_multi_scale_factor(8),
        );
        auto.finder.kill_pool_for_test();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..64u32 {
            auto.execute_task(TaskDesc::new(TaskKindId(i % 2)).reads(a).writes(b))
                .expect("degrade policy never errors");
        }
        auto.flush().unwrap();
        assert_eq!(auto.runtime().stats().tasks_total, 64, "stream kept flowing");
        assert!(auto.finder_health().is_err(), "degradation stays observable");
    }

    #[test]
    fn replayer_scores_reach_the_template_store() {
        use tasksim::ids::TraceId;
        let mut auto = engine();
        run_loop(&mut auto, 300);
        assert!(auto.runtime().stats().trace_replays > 0);
        assert!(
            auto.runtime().trace_score(TraceId(0)).is_some_and(|s| s > 0.0),
            "the replayed trace carries its §4.3 score as the shared eviction signal"
        );
    }

    #[test]
    fn buffered_ops_reports_replayer_and_pipeline_queues() {
        use tasksim::exec::LogRetention;
        let mut rt_cfg = RuntimeConfig::single_node(1).with_log_retention(LogRetention::Drain);
        rt_cfg.window = 64;
        let mut auto = AutoTracer::new(rt_cfg, small_config());
        run_loop(&mut auto, 400);
        let b = TaskIssuer::buffered_ops(&auto);
        assert!(b.peak_replayer_pending > 0, "a traced loop buffers in the replayer: {b:?}");
        assert!(b.peak_pipeline_deferred > 0, "gated replays defer in the pipeline: {b:?}");
        // After flush, the replayer's queue is empty again.
        assert_eq!(b.replayer_pending, 0, "{b:?}");
        assert!(b.peak_total() >= b.total());
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        use tasksim::issuer::TaskIssuer as _;
        let straight = {
            let mut auto = engine();
            run_loop(&mut auto, 200);
            auto.finish().unwrap()
        };
        let resumed = {
            let mut auto = engine();
            let a = auto.create_region(1);
            let b = auto.create_region(1);
            for _ in 0..73 {
                auto.execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.mark_iteration();
            }
            let mut bytes = Vec::new();
            let meta = auto.checkpoint(&mut bytes).unwrap();
            assert_eq!(meta.tasks_issued, 146);
            drop(auto);
            let (tag, payload) = tasksim::snapshot::read_envelope(&mut bytes.as_slice()).unwrap();
            assert_eq!(tag, tasksim::snapshot::FRONT_END_AUTO);
            let mut r = tasksim::snapshot::SnapshotReader::new(&payload);
            let mut auto = AutoTracer::restore_snapshot(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(auto.runtime().op_digest(), meta.op_digest);
            for _ in 73..200 {
                auto.execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.mark_iteration();
            }
            auto.flush().unwrap();
            auto.finish().unwrap()
        };
        assert_eq!(straight.stats, resumed.stats);
        assert_eq!(straight.log().digest(), resumed.log().digest(), "bit-identical op stream");
        assert_eq!(straight.report, resumed.report);
        assert_eq!(
            straight.report.total.0.to_bits(),
            resumed.report.total.0.to_bits(),
            "clocks identical to the bit"
        );
    }

    #[test]
    fn random_stream_never_traces() {
        let mut auto = engine();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..500u32 {
            // Every task kind distinct: no repeats exist.
            auto.execute_task(TaskDesc::new(TaskKindId(i)).reads(a).writes(b)).unwrap();
        }
        auto.flush().unwrap();
        let s = auto.runtime().stats();
        assert_eq!(s.tasks_replayed, 0);
        assert_eq!(s.tasks_recorded, 0);
        assert_eq!(s.tasks_total, 500, "all tasks still executed");
    }

    #[test]
    fn order_preserved_through_engine() {
        let mut auto = engine();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        let mut expected = Vec::new();
        for i in 0..120u32 {
            let kind = TaskKindId(i % 3);
            let t = TaskDesc::new(kind).reads(a).writes(b);
            expected.push(t.semantic_hash());
            auto.execute_task(t).unwrap();
        }
        auto.flush().unwrap();
        let got: Vec<_> = auto.runtime().log().task_records().map(|r| r.hash).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn finish_yields_report_and_log() {
        let mut auto = engine();
        run_loop(&mut auto, 100);
        let artifacts = auto.finish().unwrap();
        assert!(artifacts.report.total > Micros::ZERO);
        assert_eq!(artifacts.log().iteration_count(), 100);
        assert_eq!(
            artifacts.report,
            tasksim::exec::simulate(artifacts.log()),
            "precomputed report equals a batch pass over the stored log"
        );
    }

    #[test]
    fn drained_engine_matches_full_and_bounds_residency() {
        use tasksim::exec::LogRetention;
        let body = |retention: LogRetention| {
            // Retention is O(window + trace length); shrink the window so
            // the bound is visible on a test-sized stream (the default
            // 30000 exceeds the whole run).
            let mut rt_cfg = RuntimeConfig::single_node(1).with_log_retention(retention);
            rt_cfg.window = 64;
            let mut auto = AutoTracer::new(rt_cfg, small_config());
            run_loop(&mut auto, 1000);
            let resident = auto.rt.log_stats();
            (auto.finish().unwrap(), resident)
        };
        let (full, full_resident) = body(LogRetention::Full);
        let (drained, drain_resident) = body(LogRetention::Drain);
        assert_eq!(full.report, drained.report, "drain is bit-identical to full");
        assert_eq!(full.stats, drained.stats);
        assert!(drained.log.is_none());
        assert_eq!(full_resident.retained, full_resident.pushed as usize);
        assert!(
            drain_resident.peak_retained * 4 < full_resident.peak_retained,
            "drained residency {} far below full {}",
            drain_resident.peak_retained,
            full_resident.peak_retained
        );
    }

    #[test]
    fn engine_beats_untraced_on_small_tasks() {
        // The headline claim, end to end: an iterative program with small
        // tasks runs faster (in simulated time) with Apophenia than
        // without tracing.
        let mut auto = AutoTracer::new(RuntimeConfig::single_node(1), small_config());
        run_loop(&mut auto, 400);
        let auto_report = auto.finish().unwrap().report;

        // Untraced baseline.
        let mut rt = Runtime::new(RuntimeConfig::single_node(1));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        for _ in 0..400 {
            rt.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)))
                .unwrap();
            rt.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)))
                .unwrap();
            rt.mark_iteration();
        }
        let untraced_report = rt.into_artifacts().report;

        let auto_tp = auto_report.steady_throughput(100);
        let untraced_tp = untraced_report.steady_throughput(100);
        assert!(auto_tp > untraced_tp * 2.0, "auto {auto_tp} iters/s vs untraced {untraced_tp}");
    }

    #[test]
    fn async_mining_mode_also_converges() {
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config().with_async_mining().with_mining_threads(2),
        );
        // Async results land whenever the worker thread gets scheduled, so
        // run long enough (with occasional yields) for ingestion to happen
        // mid-stream rather than only at the final flush.
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..3000 {
            auto.execute_task(
                TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.execute_task(
                TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.mark_iteration();
            if i % 16 == 0 {
                std::thread::yield_now();
            }
        }
        auto.flush().unwrap();
        let s = auto.runtime().stats();
        assert!(s.trace_replays > 0, "async mode replays too: {s}");
    }
}
