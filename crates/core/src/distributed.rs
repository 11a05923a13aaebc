//! Distributed Apophenia under control replication (§5.1).
//!
//! Every node runs the application and its own engine. Mining results are
//! deterministic, their arrival time is not, so nodes agree per mining
//! job on the operation at which it ingests:
//! [`IngestSchedule::Agreed`](crate::config::IngestSchedule::Agreed),
//! which each [`AutoTracer`] runs itself. Every engine models every
//! node's stalls, so a deployment shares no state: it is N engines built
//! from one [`Config`] and fed one stream, plus a lock-step check over
//! their op digests.

use crate::config::Config;
use crate::engine::{AgreementStats, AutoTracer};
use crate::replayer::ReplayerStats;
use tasksim::exec::LogStats;
use tasksim::ids::{RegionId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::snapshot::{self, CheckpointMeta, SnapshotError, SnapshotReader, SnapshotWriter};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;

/// A control-replicated deployment: one [`AutoTracer`] per node, all
/// running the same configuration over the same stream. Node 0 answers
/// every read-out; the others are identical while in lock-step.
#[derive(Debug)]
pub struct DistributedAutoTracer {
    /// Node `i`'s engine; never empty.
    engines: Vec<AutoTracer>,
}

impl DistributedAutoTracer {
    /// Builds `rt_config.nodes` engines (at least one) running `config`
    /// as-is, normally under [`Config::with_agreed_ingest`].
    pub fn new(rt_config: RuntimeConfig, config: Config) -> Self {
        Self::build(rt_config, config, AutoTracer::new)
    }

    /// Like [`Self::new`], but every node is an
    /// [`AutoTracer::reference`] engine on the frozen per-task reference
    /// pipeline (a test baseline; a restored deployment takes the fast
    /// paths).
    pub fn reference(rt_config: RuntimeConfig, config: Config) -> Self {
        Self::build(rt_config, config, AutoTracer::reference)
    }

    fn build(
        mut rt_config: RuntimeConfig,
        config: Config,
        engine: fn(RuntimeConfig, Config) -> AutoTracer,
    ) -> Self {
        rt_config.nodes = rt_config.nodes.max(1);
        let engines = (0..rt_config.nodes).map(|_| engine(rt_config, config.clone())).collect();
        Self { engines }
    }

    /// Like [`Self::new`], but rejects zero nodes and a [`Config`] that
    /// fails [`Config::validate`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the problem.
    pub fn try_new(rt_config: RuntimeConfig, config: Config) -> Result<Self, RuntimeError> {
        if rt_config.nodes == 0 {
            return Err(RuntimeError::InvalidConfig(
                "distributed deployment needs at least one node".into(),
            ));
        }
        config.validate().map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        Ok(Self::new(rt_config, config))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.engines.len()
    }

    /// Verifies every node forwarded the same operation stream (same op
    /// count, same order-sensitive digest, so the check holds under any
    /// log retention).
    ///
    /// # Errors
    ///
    /// A description of the first diverging node.
    pub fn check_lockstep(&self) -> Result<(), String> {
        let stream = |e: &AutoTracer| (e.runtime().log().stats().pushed, e.op_digest());
        let lead = stream(self.lead());
        for (i, engine) in self.engines.iter().enumerate().skip(1) {
            let node = stream(engine);
            if node != lead {
                return Err(format!(
                    "node {i} diverged from node 0: (ops, digest) {node:x?} vs {lead:x?}"
                ));
            }
        }
        Ok(())
    }

    /// A node's runtime (for inspecting stats/logs).
    pub fn node_runtime(&self, node: usize) -> &Runtime {
        self.engines[node].runtime()
    }

    /// A node's replayer counters.
    pub fn node_replayer_stats(&self, node: usize) -> ReplayerStats {
        self.engines[node].replayer_stats()
    }

    /// The agreement protocol's deployment-wide counters.
    pub fn agreement_stats(&self) -> AgreementStats {
        self.lead().agreement_stats()
    }

    /// Serializes the node count, then every engine's payload, all cut at
    /// the same issued-task barrier.
    pub fn write_snapshot(&mut self, w: &mut SnapshotWriter) {
        w.put_len(self.engines.len());
        for engine in &mut self.engines {
            engine.write_snapshot(w);
        }
    }

    /// Rebuilds a deployment from [`Self::write_snapshot`] output and
    /// re-checks lock-step, so a snapshot assembled from diverged nodes is
    /// rejected instead of resumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated, corrupt, or diverged input.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let nodes = r.get_len()?;
        if nodes == 0 {
            return Err(SnapshotError::Corrupt("distributed snapshot has no nodes".into()));
        }
        let engines =
            (0..nodes).map(|_| AutoTracer::restore_snapshot(r)).collect::<Result<_, _>>()?;
        let d = Self { engines };
        d.check_lockstep()
            .map_err(|msg| SnapshotError::Corrupt(format!("restored nodes diverged: {msg}")))?;
        Ok(d)
    }

    fn lead(&self) -> &AutoTracer {
        &self.engines[0]
    }

    /// Runs `f` on every node in order, stopping at the first error.
    fn each(
        &mut self,
        f: impl FnMut(&mut AutoTracer) -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        self.engines.iter_mut().try_for_each(f)
    }

    /// Runs `f` on every node and returns node 0's result, which every
    /// node must share.
    fn agreed<T: PartialEq + std::fmt::Debug>(&mut self, f: impl FnMut(&mut AutoTracer) -> T) -> T {
        let mut all: Vec<T> = self.engines.iter_mut().map(f).collect();
        assert!(all.windows(2).all(|w| w[0] == w[1]), "nodes disagree: {all:?}");
        all.swap_remove(0)
    }
}

impl TaskIssuer for DistributedAutoTracer {
    fn create_region(&mut self, fields: u32) -> RegionId {
        self.agreed(|e| e.create_region(fields))
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        self.agreed(|e| e.partition(region, parts))
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        self.each(|e| e.destroy_region(region))
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.each(|e| e.execute_task(task.clone()))
    }

    fn issue_batch(&mut self, tasks: Vec<TaskDesc>) -> Result<(), RuntimeError> {
        self.each(|e| e.issue_batch(tasks.clone()))
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn mark_iteration(&mut self) {
        self.engines.iter_mut().for_each(TaskIssuer::mark_iteration);
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        self.each(TaskIssuer::flush)
    }

    fn stats(&self) -> RuntimeStats {
        self.lead().stats()
    }

    fn log_stats(&self) -> LogStats {
        self.lead().log_stats()
    }

    fn buffered_ops(&self) -> BufferStats {
        self.lead().buffered_ops()
    }

    /// The first degraded node's mining-pipeline failure, if any.
    fn health(&mut self) -> Result<(), String> {
        let mut nodes = self.engines.iter_mut().enumerate();
        nodes.try_for_each(|(i, e)| e.health().map_err(|msg| format!("node {i}: {msg}")))
    }

    fn quiesce(&mut self) {
        self.engines.iter_mut().for_each(TaskIssuer::quiesce);
    }

    fn trie_footprint(&self) -> (usize, usize) {
        self.lead().trie_footprint()
    }

    fn op_digest(&self) -> u64 {
        self.lead().op_digest()
    }

    fn checkpoint(&mut self, out: &mut dyn std::io::Write) -> Result<CheckpointMeta, RuntimeError> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        let lead = self.lead();
        Ok(snapshot::write_checkpoint(
            snapshot::FRONT_END_DISTRIBUTED,
            lead.tasks_issued(),
            lead.log_stats().pushed,
            lead.op_digest(),
            &w.into_payload(),
            out,
        )?)
    }

    fn warmup_iterations(&self) -> Option<u64> {
        self.lead().warmup_iterations()
    }

    fn traced_samples(&self) -> Vec<(u64, f64)> {
        self.lead().traced_samples()
    }

    /// Flushes, verifies lock-step, and returns node 0's artifacts.
    fn finish(mut self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        self.flush()?;
        self.check_lockstep().map_err(RuntimeError::Divergence)?;
        self.engines.swap_remove(0).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayModel;
    use tasksim::cost::Micros;
    use tasksim::ids::TaskKindId;

    fn cfg() -> Config {
        Config::standard().with_min_trace_length(2).with_batch_size(256).with_multi_scale_factor(16)
    }

    /// [`cfg`] under the agreement schedule.
    fn agreed(seed: u64, max_delay: u64, interval: u64) -> Config {
        cfg().with_agreed_ingest(interval, DelayModel::new(seed, max_delay))
    }

    fn drive(d: &mut DistributedAutoTracer, iters: usize) {
        let a = d.create_region(1);
        let b = d.create_region(1);
        for _ in 0..iters {
            d.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(20.0)))
                .unwrap();
            d.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(20.0)))
                .unwrap();
            d.mark_iteration();
        }
        d.flush().unwrap();
    }

    #[test]
    fn nodes_never_diverge_despite_skewed_delays() {
        let mut d = DistributedAutoTracer::new(RuntimeConfig::multi_node(4, 2), agreed(42, 40, 8));
        drive(&mut d, 250);
        d.check_lockstep().expect("nodes in lock-step");
        // And tracing still works.
        assert!(d.node_runtime(0).stats().trace_replays > 0);
        assert_eq!(
            d.node_runtime(0).stats().trace_replays,
            d.node_runtime(3).stats().trace_replays
        );
    }

    #[test]
    fn interval_grows_under_slow_mining() {
        // The starting interval of 2 is deliberately too small.
        let mut d = DistributedAutoTracer::new(RuntimeConfig::multi_node(2, 2), agreed(7, 200, 2));
        drive(&mut d, 200);
        let s = d.agreement_stats();
        assert!(s.waits > 0, "small interval forces waits: {s:?}");
        assert!(s.interval > 2, "interval adapted upward: {s:?}");
        d.check_lockstep().expect("still in lock-step");
    }

    #[test]
    fn no_waits_when_mining_fast() {
        let mut d = DistributedAutoTracer::new(RuntimeConfig::multi_node(2, 2), agreed(3, 0, 16));
        drive(&mut d, 150);
        assert_eq!(d.agreement_stats().waits, 0);
        d.check_lockstep().expect("lock-step");
    }

    #[test]
    fn steady_state_stops_waiting() {
        // After adaptation, late-program jobs should not wait any more.
        let mut d = DistributedAutoTracer::new(RuntimeConfig::multi_node(2, 2), agreed(11, 60, 4));
        drive(&mut d, 150);
        let waits_early = d.agreement_stats().waits;
        drive_more(&mut d, 150);
        let waits_late = d.agreement_stats().waits;
        assert_eq!(waits_early, waits_late, "no additional waits once the interval adapted");
        d.check_lockstep().expect("lock-step");
    }

    fn drive_more(d: &mut DistributedAutoTracer, iters: usize) {
        // Reuse regions 0/1 created by the first drive() call.
        let a = tasksim::ids::RegionId(0);
        let b = tasksim::ids::RegionId(1);
        for _ in 0..iters {
            d.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(20.0)))
                .unwrap();
            d.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(20.0)))
                .unwrap();
            d.mark_iteration();
        }
        d.flush().unwrap();
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        let mut rt = RuntimeConfig::multi_node(2, 2);
        rt.nodes = 0;
        let err = DistributedAutoTracer::try_new(rt, agreed(1, 0, 8)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("node")),
            "typed error, not a panic: {err}"
        );
        // `new` clamps instead of panicking.
        let d = DistributedAutoTracer::new(rt, agreed(1, 0, 8));
        assert_eq!(d.node_count(), 1);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let rt = RuntimeConfig::multi_node(2, 2);
        let mut bad = agreed(1, 0, 8);
        bad.scoring.staleness_half_life = 0.0;
        let err = DistributedAutoTracer::try_new(rt, bad).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        let mut zero_interval = cfg();
        zero_interval.ingest =
            crate::config::IngestSchedule::Agreed { interval: 0, delay: DelayModel::new(1, 0) };
        let err = DistributedAutoTracer::try_new(rt, zero_interval).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // `new` takes the same degenerate config as-is (no validation
        // panic), matching AutoTracer's constructor contract.
        let mut bad = agreed(1, 0, 8);
        bad.scoring.staleness_half_life = 0.0;
        let d = DistributedAutoTracer::new(RuntimeConfig::multi_node(1, 1), bad);
        assert_eq!(d.node_count(), 1);
    }

    #[test]
    fn capped_nodes_evict_in_lockstep() {
        // Phase-shifting stream + tight capacity bounds on every store:
        // evictions must happen and must happen identically on all nodes.
        let config = agreed(9, 50, 4).with_max_candidates(6).with_max_trie_nodes(256);
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2).with_max_templates(3),
            config,
        );
        let a = d.create_region(1);
        let b = d.create_region(1);
        for phase in 0..4u32 {
            for _ in 0..300 {
                for k in 0..3 {
                    d.execute_task(
                        TaskDesc::new(TaskKindId(phase * 10 + k))
                            .reads(a)
                            .writes(b)
                            .gpu_time(Micros(20.0)),
                    )
                    .unwrap();
                }
                d.mark_iteration();
            }
        }
        d.flush().unwrap();
        d.check_lockstep().expect("capped nodes stay in lock-step");
        let r0 = d.node_replayer_stats(0);
        assert!(r0.evicted_candidates > 0, "caps actually engaged: {r0:?}");
        for n in 1..d.node_count() {
            assert_eq!(d.node_replayer_stats(n), r0, "node {n} evicted identically");
            assert_eq!(d.node_runtime(n).stats(), d.node_runtime(0).stats());
        }
        assert!(d.node_runtime(0).stats().trace_replays > 0, "tracing still works under caps");
    }

    #[test]
    fn delay_model_is_deterministic() {
        let m = DelayModel::new(5, 100);
        assert_eq!(m.delay(0, 7), m.delay(0, 7));
        assert!(m.delay(0, 7) <= 100);
        // Different nodes generally see different delays.
        let distinct = (0..16).map(|n| m.delay(n, 3)).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 4, "delays vary across nodes");
    }
}
