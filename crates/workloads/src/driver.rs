//! Running a workload against untraced / manually traced / automatically
//! traced / distributed front-ends.
//!
//! Workloads issue tasks through [`tasksim::issuer::TaskIssuer`] — the one
//! object-safe contract every front-end implements — so the same
//! application code runs unchanged against a bare runtime (untraced, or
//! manually annotated), an [`apophenia::AutoTracer`], or a distributed
//! deployment. The front-end is selected by *data*: [`Mode`] (a re-export
//! of [`apophenia::Tracing`]) feeds [`apophenia::Session`], which builds
//! the issuer. This mirrors the paper's experimental configurations
//! (`untraced`, `manual`, `auto`) plus the §5.1 distributed deployment.

use apophenia::Session;
use tasksim::exec::{LogRetention, OpLog, SimReport};
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::RuntimeError;
use tasksim::snapshot::CheckpointMeta;
use tasksim::stats::RuntimeStats;

/// Which tracing configuration a run uses — [`apophenia::Tracing`] under
/// its experiment-harness name.
pub type Mode = apophenia::Tracing;

/// Problem-size class used in the weak-scaling sweeps ("-s/-m/-l").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemSize {
    /// Small: runtime overhead most exposed.
    Small,
    /// Medium.
    Medium,
    /// Large: easiest to hide overhead.
    Large,
}

impl ProblemSize {
    /// All sizes, in sweep order.
    pub const ALL: [ProblemSize; 3] = [ProblemSize::Small, ProblemSize::Medium, ProblemSize::Large];

    /// The graph-label suffix the paper uses.
    pub fn suffix(self) -> &'static str {
        match self {
            ProblemSize::Small => "s",
            ProblemSize::Medium => "m",
            ProblemSize::Large => "l",
        }
    }

    /// A per-size multiplier applied to base task granularity.
    pub fn granularity_factor(self) -> f64 {
        match self {
            ProblemSize::Small => 1.0,
            ProblemSize::Medium => 2.0,
            ProblemSize::Large => 4.0,
        }
    }
}

/// Machine + problem parameters for one run.
#[derive(Debug, Clone, Copy)]
pub struct AppParams {
    /// Machine nodes.
    pub nodes: u32,
    /// GPUs per node (4 on Perlmutter, 8 on Eos).
    pub gpus_per_node: u32,
    /// Problem size class.
    pub size: ProblemSize,
    /// Application iterations to run.
    pub iters: usize,
}

impl AppParams {
    /// Total GPUs.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }

    /// A Perlmutter-like machine (4 A100s per node) with `gpus` total.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is not a multiple of 4 (or less than 4).
    pub fn perlmutter(gpus: u32, size: ProblemSize, iters: usize) -> Self {
        assert!(gpus >= 4 && gpus.is_multiple_of(4), "Perlmutter nodes have 4 GPUs");
        Self { nodes: gpus / 4, gpus_per_node: 4, size, iters }
    }

    /// An Eos-like machine (8 H100s per node) with `gpus` total; GPU
    /// counts below 8 run on a partial node.
    pub fn eos(gpus: u32, size: ProblemSize, iters: usize) -> Self {
        if gpus < 8 {
            Self { nodes: 1, gpus_per_node: gpus.max(1), size, iters }
        } else {
            assert!(gpus.is_multiple_of(8), "Eos nodes have 8 GPUs");
            Self { nodes: gpus / 8, gpus_per_node: 8, size, iters }
        }
    }
}

/// A workload: issues a task stream shaped like one of the paper's
/// applications.
pub trait Workload {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Whether a manually traced variant exists (S3D, HTR, FlexFlow do;
    /// the cuPyNumeric apps do not — §6.1).
    fn has_manual(&self) -> bool;

    /// Issues the full run (setup + `params.iters` iterations) through
    /// `issuer`. `manual` selects the hand-annotated variant.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    fn run(
        &self,
        issuer: &mut dyn TaskIssuer,
        params: &AppParams,
        manual: bool,
    ) -> Result<(), RuntimeError>;
}

/// Everything a single run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The machine-simulation report — streamed incrementally under
    /// [`LogRetention::Drain`], batch-computed under
    /// [`LogRetention::Full`]; bit-identical either way.
    pub report: SimReport,
    /// The raw operation log, present only under [`LogRetention::Full`].
    pub log: Option<OpLog>,
    /// Runtime counters.
    pub stats: RuntimeStats,
    /// Warmup iterations until replay steady state (single-node auto only;
    /// distributed front-ends do not measure warmup and report `None`).
    pub warmup_iterations: Option<u64>,
    /// Figure 10 traced-fraction samples (single-node auto only; empty for
    /// distributed front-ends).
    pub traced_samples: Vec<(u64, f64)>,
}

impl RunOutcome {
    /// The stored operation log.
    ///
    /// # Panics
    ///
    /// Panics if the run used [`LogRetention::Drain`].
    pub fn log(&self) -> &OpLog {
        self.log.as_ref().expect("raw OpLog requires LogRetention::Full")
    }
}

/// Runs `workload` under `mode` with full log retention and returns the
/// outcome (report + raw log). The front-end is built through [`Session`];
/// the workload sees only `dyn TaskIssuer`.
///
/// # Errors
///
/// Propagates runtime errors — e.g. manual-mode sequence mismatches on
/// workloads whose streams are not manually traceable.
///
/// # Panics
///
/// Panics if `mode` is [`Mode::Manual`] but the workload has no manual
/// variant.
pub fn run_workload(
    workload: &dyn Workload,
    params: &AppParams,
    mode: &Mode,
) -> Result<RunOutcome, RuntimeError> {
    run_workload_with(workload, params, mode, LogRetention::Full)
}

/// [`run_workload`] with an explicit retention policy:
/// [`LogRetention::Drain`] streams the run through the incremental
/// simulator (no log materialized — resident ops stay O(window + trace
/// length), which is what makes production-length streams feasible).
///
/// # Errors
///
/// See [`run_workload`].
///
/// # Panics
///
/// See [`run_workload`].
pub fn run_workload_with(
    workload: &dyn Workload,
    params: &AppParams,
    mode: &Mode,
    retention: LogRetention,
) -> Result<RunOutcome, RuntimeError> {
    let manual = mode.is_manual();
    if manual {
        assert!(workload.has_manual(), "{} has no manual variant", workload.name());
    }
    let mut issuer = Session::builder()
        .nodes(params.nodes)
        .gpus_per_node(params.gpus_per_node)
        .tracing(mode.clone())
        .log_retention(retention)
        .build();
    workload.run(issuer.as_mut(), params, manual)?;
    issuer.flush()?;
    let warmup_iterations = issuer.warmup_iterations();
    let traced_samples = issuer.traced_samples();
    let artifacts = issuer.finish()?;
    Ok(RunOutcome {
        report: artifacts.report,
        log: artifacts.log,
        stats: artifacts.stats,
        warmup_iterations,
        traced_samples,
    })
}

/// Checkpoints a running session into a byte buffer — the driver-level
/// convenience over [`TaskIssuer::checkpoint`] for callers that park the
/// snapshot in memory or hand it to their own storage layer. The session
/// keeps running normally afterwards.
///
/// # Errors
///
/// Propagates checkpoint (I/O/serialization) errors.
pub fn checkpoint_session(
    issuer: &mut dyn TaskIssuer,
) -> Result<(CheckpointMeta, Vec<u8>), RuntimeError> {
    let mut bytes = Vec::new();
    let meta = issuer.checkpoint(&mut bytes)?;
    Ok((meta, bytes))
}

/// Restores a session from bytes written by [`checkpoint_session`] (or
/// any [`TaskIssuer::checkpoint`] writer). The restored issuer continues
/// bit-identically to the uninterrupted run.
///
/// # Errors
///
/// Typed snapshot errors on corrupt or truncated input.
pub fn resume_session(bytes: &[u8]) -> Result<Box<dyn TaskIssuer>, RuntimeError> {
    Session::resume_from(&mut &*bytes)
}

/// Convenience: run and return steady-state throughput (iterations/sec)
/// after `warmup` iterations. Uses [`LogRetention::Drain`] — throughput
/// needs only the report, so nothing is materialized.
///
/// # Errors
///
/// See [`run_workload`].
pub fn measure_throughput(
    workload: &dyn Workload,
    params: &AppParams,
    mode: &Mode,
    warmup: usize,
) -> Result<f64, RuntimeError> {
    let outcome = run_workload_with(workload, params, mode, LogRetention::Drain)?;
    Ok(outcome.report.steady_throughput(warmup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apophenia::Config;
    use tasksim::cost::Micros;
    use tasksim::ids::{TaskKindId, TraceId};
    use tasksim::task::TaskDesc;

    /// A trivial two-task loop used to exercise the harness.
    struct Ping;

    impl Workload for Ping {
        fn name(&self) -> &'static str {
            "ping"
        }

        fn has_manual(&self) -> bool {
            true
        }

        fn run(
            &self,
            d: &mut dyn TaskIssuer,
            p: &AppParams,
            manual: bool,
        ) -> Result<(), RuntimeError> {
            let a = d.create_region(1);
            let b = d.create_region(1);
            for _ in 0..p.iters {
                if manual {
                    d.begin_trace(TraceId(0))?;
                }
                d.execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(80.0)),
                )?;
                d.execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(80.0)),
                )?;
                if manual {
                    d.end_trace(TraceId(0))?;
                }
                d.mark_iteration();
            }
            Ok(())
        }
    }

    fn params() -> AppParams {
        AppParams { nodes: 1, gpus_per_node: 4, size: ProblemSize::Small, iters: 300 }
    }

    #[test]
    fn all_modes_run_through_one_harness() {
        let p = params();
        let auto_cfg = Config::standard().with_min_trace_length(2).with_multi_scale_factor(16);
        let modes = [
            Mode::Untraced,
            Mode::Manual,
            Mode::Auto(auto_cfg.clone()),
            Mode::Distributed(auto_cfg.with_agreed_ingest(16, apophenia::DelayModel::new(5, 0))),
        ];
        for mode in modes {
            let out = run_workload(&Ping, &p, &mode).unwrap();
            assert_eq!(out.stats.tasks_total, 600, "{}", mode.label());
            assert_eq!(out.log().iteration_count(), 300, "{}", mode.label());
            assert_eq!(out.report.iteration_finish.len(), 300, "{}", mode.label());
        }
    }

    #[test]
    fn drained_run_matches_full_retention() {
        let p = params();
        let cfg = Config::standard().with_min_trace_length(2).with_multi_scale_factor(16);
        let full = run_workload(&Ping, &p, &Mode::Auto(cfg.clone())).unwrap();
        let drained = run_workload_with(&Ping, &p, &Mode::Auto(cfg), LogRetention::Drain).unwrap();
        assert_eq!(full.report, drained.report, "retention never changes the report");
        assert_eq!(full.stats, drained.stats);
        assert!(drained.log.is_none());
    }

    #[test]
    fn manual_and_auto_beat_untraced() {
        let p = params();
        let auto_cfg = Config::standard().with_min_trace_length(2).with_multi_scale_factor(16);
        let untraced = measure_throughput(&Ping, &p, &Mode::Untraced, 50).unwrap();
        let manual = measure_throughput(&Ping, &p, &Mode::Manual, 50).unwrap();
        let auto = measure_throughput(&Ping, &p, &Mode::Auto(auto_cfg), 50).unwrap();
        // The Ping loop is only 2 tasks, so the per-replay constant `c`
        // (1 ms) caps the gain near 1.6x; real workloads amortize it.
        assert!(manual > untraced * 1.5, "manual {manual} vs untraced {untraced}");
        assert!(auto > untraced * 1.4, "auto {auto} vs untraced {untraced}");
        // Auto within the paper's 0.92x–1.03x of manual.
        let ratio = auto / manual;
        assert!((0.85..=1.1).contains(&ratio), "auto/manual ratio {ratio}");
    }

    #[test]
    fn machine_constructors() {
        let p = AppParams::perlmutter(16, ProblemSize::Medium, 10);
        assert_eq!((p.nodes, p.gpus_per_node, p.total_gpus()), (4, 4, 16));
        let e = AppParams::eos(64, ProblemSize::Large, 10);
        assert_eq!((e.nodes, e.gpus_per_node), (8, 8));
        let tiny = AppParams::eos(2, ProblemSize::Small, 10);
        assert_eq!((tiny.nodes, tiny.gpus_per_node), (1, 2));
    }

    #[test]
    #[should_panic(expected = "4 GPUs")]
    fn perlmutter_rejects_bad_gpu_count() {
        AppParams::perlmutter(6, ProblemSize::Small, 1);
    }
}
