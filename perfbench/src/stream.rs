//! The benchmark's workloads and their recorded call streams.
//!
//! Each workload's generator runs once, before any timing, against a
//! [`Recorder`]: region calls go to a bare runtime so the recorded ids
//! are the ids the real front-end will hand out, and everything else is
//! stored. The timed runs then issue the recorded [`Call`]s and nothing
//! else, so generator and recycler cost stay out of every measurement.

use apophenia::Config;
use tasksim::exec::LogStats;
use tasksim::ids::{RegionId, TaskKindId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::snapshot::CheckpointMeta;
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;
use workloads::driver::{AppParams, ProblemSize, Workload as _};
use workloads::synthetic::RandomStream;
use workloads::{Cfd, S3d};

/// Tasks between two `quiesce` barriers on `random-gated` (see
/// [`Workload::RandomGated`]).
pub const QUIESCE_EVERY_TASKS: u64 = 2_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The S3D model on 2 Perlmutter-like nodes × 4 GPUs, small size,
    /// `Config::standard()` with inline mining: long periodic RK
    /// iterations with irregular Fortran hand-offs. Most tasks replay.
    S3d,
    /// The cuPyNumeric CFD model on one Eos-like node (8 GPUs), small
    /// size, `Config::standard()`: recycled temporaries and a
    /// convergence check every 10 iterations keep coverage partial.
    Cfd,
    /// A seeded `RandomStream` (16 tasks per iteration over 10k kinds)
    /// under asynchronous, gated mining with one worker, quiesced after
    /// the first iteration boundary at or past every
    /// [`QUIESCE_EVERY_TASKS`] issued tasks. Nothing repeats.
    RandomGated,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::S3d, Workload::Cfd, Workload::RandomGated];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::S3d => "s3d",
            Workload::Cfd => "cfd",
            Workload::RandomGated => "random-gated",
        }
    }

    /// Application iterations in a full-size run.
    pub fn default_iters(self) -> usize {
        match self {
            Workload::S3d => 200,
            Workload::Cfd => 400,
            Workload::RandomGated => 4_000,
        }
    }

    /// Machine shape as (nodes, GPUs per node).
    pub fn machine(self) -> (u32, u32) {
        match self {
            Workload::S3d => (2, 4),
            Workload::Cfd => (1, 8),
            Workload::RandomGated => (1, 4),
        }
    }

    /// The tracing configuration the workload runs under.
    pub fn config(self) -> Config {
        match self {
            Workload::S3d | Workload::Cfd => Config::standard(),
            Workload::RandomGated => {
                Config::standard().with_async_mining().with_mining_threads(1).with_gated_ingest()
            }
        }
    }

    /// Records `iters` iterations of the workload's call stream from
    /// `seed`. For `s3d` and `cfd` the seed remaps task kinds through a
    /// bijection (same structure, different hashes); for `random-gated`
    /// it seeds the generator.
    pub fn record(self, seed: u64, iters: usize) -> Stream {
        let (nodes, gpus_per_node) = self.machine();
        let params = AppParams { nodes, gpus_per_node, size: ProblemSize::Small, iters };
        let mut rec = Recorder {
            rt: Runtime::new(RuntimeConfig::multi_node(nodes, gpus_per_node)),
            calls: Vec::new(),
        };
        let generated = match self {
            Workload::S3d => S3d.run(&mut rec, &params, false),
            Workload::Cfd => Cfd.run(&mut rec, &params, false),
            Workload::RandomGated => {
                RandomStream { seed, kinds: 10_000 }.run(&mut rec, &params, false)
            }
        };
        generated.expect("workload generators only create regions and record calls");
        let mut calls = rec.calls;
        match self {
            Workload::S3d | Workload::Cfd => {
                for call in &mut calls {
                    if let Call::Task(task) = call {
                        task.kind = TaskKindId(remap_kind(task.kind.0, seed));
                    }
                }
            }
            Workload::RandomGated => calls = insert_quiesces(calls, QUIESCE_EVERY_TASKS),
        }
        Stream::new(calls)
    }
}

/// One recorded application call.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// `create_region(fields)`, which returned `id`.
    CreateRegion {
        /// Fields of the new region.
        fields: u32,
        /// The id the recording runtime returned.
        id: RegionId,
    },
    /// `partition(region, parts)`, which returned `ids`.
    Partition {
        /// The partitioned region.
        region: RegionId,
        /// Number of parts.
        parts: u32,
        /// The ids the recording runtime returned.
        ids: Vec<RegionId>,
    },
    /// `destroy_region(region)`.
    DestroyRegion(RegionId),
    /// `execute_task(task)`.
    Task(TaskDesc),
    /// `mark_iteration()`.
    Mark,
    /// `quiesce()`.
    Quiesce,
}

/// A recorded call stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The calls, in issue order.
    pub calls: Vec<Call>,
    /// Number of `execute_task` calls.
    pub tasks: u64,
    /// Number of iteration marks.
    pub iterations: u64,
}

impl Stream {
    fn new(calls: Vec<Call>) -> Self {
        let tasks = calls.iter().filter(|c| matches!(c, Call::Task(_))).count() as u64;
        let iterations = calls.iter().filter(|c| matches!(c, Call::Mark)).count() as u64;
        Self { calls, tasks, iterations }
    }

    /// An order-sensitive FNV-1a digest of every call and argument.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for call in &self.calls {
            match call {
                Call::CreateRegion { fields, id } => {
                    h.word(1);
                    h.word(u64::from(*fields));
                    h.word(u64::from(id.0));
                }
                Call::Partition { region, parts, ids } => {
                    h.word(2);
                    h.word(u64::from(region.0));
                    h.word(u64::from(*parts));
                    ids.iter().for_each(|id| h.word(u64::from(id.0)));
                }
                Call::DestroyRegion(region) => {
                    h.word(3);
                    h.word(u64::from(region.0));
                }
                Call::Task(task) => {
                    h.word(4);
                    h.word(task.semantic_hash().0);
                    h.word(task.gpu_time.0.to_bits());
                }
                Call::Mark => h.word(5),
                Call::Quiesce => h.word(6),
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A bijection on task-kind ids keyed by `seed`: every step (xor with a
/// constant, multiply by an odd constant, xor with a right shift, add a
/// constant) is invertible on `u32`, so distinct kinds stay distinct.
fn remap_kind(kind: u32, seed: u64) -> u32 {
    let key = (seed ^ (seed >> 32)) as u32;
    let mut x = kind ^ key;
    x = x.wrapping_mul(0x9e37_79b1);
    x ^= x >> 15;
    x = x.wrapping_mul(0x85eb_ca77);
    x ^= x >> 13;
    x.wrapping_add(key.rotate_left(7))
}

/// Inserts a `quiesce` after the first iteration mark at or past every
/// `every` issued tasks — a schedule that is a pure function of the
/// stream, which keeps gated asynchronous ingestion reproducible.
fn insert_quiesces(calls: Vec<Call>, every: u64) -> Vec<Call> {
    let mut out = Vec::with_capacity(calls.len() + calls.len() / every as usize + 1);
    let mut issued = 0;
    let mut next = every;
    for call in calls {
        let mark = matches!(call, Call::Mark);
        if matches!(call, Call::Task(_)) {
            issued += 1;
        }
        out.push(call);
        if mark && issued >= next {
            out.push(Call::Quiesce);
            next = issued + every;
        }
    }
    out
}

/// A `TaskIssuer` that records calls. Region calls also run on a bare
/// runtime so the recorded ids match what a real front-end returns.
struct Recorder {
    rt: Runtime,
    calls: Vec<Call>,
}

impl TaskIssuer for Recorder {
    fn create_region(&mut self, fields: u32) -> RegionId {
        let id = self.rt.create_region(fields);
        self.calls.push(Call::CreateRegion { fields, id });
        id
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        let ids = self.rt.partition(region, parts)?;
        self.calls.push(Call::Partition { region, parts, ids: ids.clone() });
        Ok(ids)
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        self.rt.destroy_region(region)?;
        self.calls.push(Call::DestroyRegion(region));
        Ok(())
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.calls.push(Call::Task(task));
        Ok(())
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn mark_iteration(&mut self) {
        self.calls.push(Call::Mark);
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        Ok(())
    }

    fn stats(&self) -> RuntimeStats {
        *self.rt.stats()
    }

    fn log_stats(&self) -> LogStats {
        self.rt.log_stats()
    }

    fn buffered_ops(&self) -> BufferStats {
        BufferStats::default()
    }

    fn op_digest(&self) -> u64 {
        self.rt.op_digest()
    }

    fn checkpoint(&mut self, out: &mut dyn std::io::Write) -> Result<CheckpointMeta, RuntimeError> {
        TaskIssuer::checkpoint(&mut self.rt, out)
    }

    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        Ok(self.rt.into_artifacts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_is_injective_on_a_range() {
        let mut seen: Vec<u32> = (0..20_000).map(|k| remap_kind(k, 42)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20_000);
    }

    #[test]
    fn quiesces_follow_marks_on_schedule() {
        let mut calls = Vec::new();
        for _ in 0..10 {
            for _ in 0..3 {
                calls.push(Call::Task(TaskDesc::new(TaskKindId(0))));
            }
            calls.push(Call::Mark);
        }
        let out = insert_quiesces(calls, 7);
        let at: Vec<usize> =
            out.iter().enumerate().filter(|(_, c)| **c == Call::Quiesce).map(|(i, _)| i).collect();
        // Marks after 9, 18 and 27 tasks are the first at or past 7, 16, 25.
        assert_eq!(at.len(), 3);
        assert!(at.iter().all(|&i| out[i - 1] == Call::Mark));
    }
}
