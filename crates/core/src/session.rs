//! The one entry point for applications: build an issuing front-end by
//! *data*, not by code paths.
//!
//! The paper's promise is that automatic tracing is a drop-in layer: the
//! application issues tasks through the same interface whether it runs
//! untraced, manually annotated, under Apophenia, or control-replicated
//! across nodes. [`Session`] delivers that promise as an API: a builder
//! selects the machine shape and a [`Tracing`] configuration, and
//! [`SessionBuilder::build`] returns a `Box<dyn TaskIssuer>` — workloads,
//! examples, benches, and tests hold the trait object and never mention a
//! concrete front-end type.
//!
//! ```
//! use apophenia::{Config, Session, Tracing};
//! use tasksim::ids::TaskKindId;
//! use tasksim::task::TaskDesc;
//!
//! # fn main() -> Result<(), tasksim::runtime::RuntimeError> {
//! let mut issuer = Session::builder()
//!     .nodes(1)
//!     .gpus_per_node(4)
//!     .tracing(Tracing::Auto(
//!         Config::standard().with_min_trace_length(2).with_multi_scale_factor(8),
//!     ))
//!     .build();
//! let a = issuer.create_region(1);
//! let b = issuer.create_region(1);
//! for _ in 0..200 {
//!     issuer.issue_batch(vec![
//!         TaskDesc::new(TaskKindId(0)).reads(a).writes(b),
//!         TaskDesc::new(TaskKindId(1)).reads(b).writes(a),
//!     ])?;
//!     issuer.mark_iteration();
//! }
//! issuer.flush()?;
//! assert!(issuer.stats().tasks_replayed > 0, "traced with zero annotations");
//! # Ok(())
//! # }
//! ```

use crate::config::Config;
use crate::distributed::DistributedAutoTracer;
use crate::engine::AutoTracer;
use crate::finder::MiningPool;
use tasksim::exec::LogRetention;
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::{Runtime, RuntimeConfig};

/// Which tracing front-end a [`Session`] builds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tracing {
    /// No tracing: every task pays the full dependence analysis.
    Untraced,
    /// The application's own `begin_trace`/`end_trace` annotations drive
    /// the runtime's tracing engine (the front-end is a bare runtime; the
    /// *workload* decides to emit brackets).
    Manual,
    /// Apophenia: automatic tracing with the given configuration.
    Auto(Config),
    /// Control-replicated Apophenia: one engine per node, all running
    /// this configuration — normally under the §5.1 agreement schedule
    /// ([`Config::with_agreed_ingest`]), which keeps them in lock-step.
    Distributed(Config),
}

impl Tracing {
    /// Standard-configuration Apophenia.
    pub fn auto() -> Self {
        Tracing::Auto(Config::standard())
    }

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Tracing::Untraced => "untraced",
            Tracing::Manual => "manual",
            Tracing::Auto(_) => "auto",
            Tracing::Distributed(_) => "distributed",
        }
    }

    /// Whether the workload should emit its manual trace annotations.
    pub fn is_manual(&self) -> bool {
        matches!(self, Tracing::Manual)
    }
}

/// Builder for an issuing front-end. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    runtime: RuntimeConfig,
    tracing: Tracing,
    pool: Option<MiningPool>,
}

impl SessionBuilder {
    /// Number of machine nodes (default 1).
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.runtime.nodes = nodes.max(1);
        self
    }

    /// GPUs per node (default 1).
    pub fn gpus_per_node(mut self, gpus: u32) -> Self {
        self.runtime.gpus_per_node = gpus.max(1);
        self
    }

    /// Replaces the full runtime configuration (cost model, mismatch
    /// policy, window) while keeping the tracing selection.
    pub fn runtime_config(mut self, config: RuntimeConfig) -> Self {
        self.runtime = config;
        self
    }

    /// Selects the operation-log retention policy (default
    /// [`LogRetention::Full`]). [`LogRetention::Drain`] streams every op
    /// through the incremental simulator as it is issued — resident
    /// memory stays O(window + trace length) on arbitrarily long runs,
    /// the report is bit-identical, and `finish()` returns `log: None`.
    pub fn log_retention(mut self, retention: LogRetention) -> Self {
        self.runtime.retention = retention;
        self
    }

    /// Selects the tracing front-end (default [`Tracing::Untraced`]).
    pub fn tracing(mut self, tracing: Tracing) -> Self {
        self.tracing = tracing;
        self
    }

    /// Hands the [`Tracing::Auto`] front-end a shared [`MiningPool`]
    /// instead of letting it spawn a private worker pool — the hook a
    /// multi-tenant host uses so every tenant's asynchronous mining runs
    /// on one set of threads. Ignored by front-ends without a finder
    /// (untraced/manual) and by [`Tracing::Distributed`], whose simulated
    /// per-node finders are deliberately private (each node of a real
    /// deployment is its own process).
    pub fn mining_pool(mut self, pool: &MiningPool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// Builds the issuer. Automatic front-ends force the runtime into
    /// `auto_layer` cost accounting themselves; untraced/manual runs keep
    /// the plain 7 µs launch path.
    pub fn build(self) -> Box<dyn TaskIssuer> {
        match self.tracing {
            Tracing::Untraced | Tracing::Manual => Box::new(Runtime::new(self.runtime)),
            Tracing::Auto(config) => match &self.pool {
                Some(pool) => Box::new(AutoTracer::with_pool(self.runtime, config, pool)),
                None => Box::new(AutoTracer::new(self.runtime, config)),
            },
            Tracing::Distributed(config) => {
                Box::new(DistributedAutoTracer::new(self.runtime, config))
            }
        }
    }
}

/// Namespace for [`Session::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Session;

impl Session {
    /// Starts building a front-end: one node, one GPU, untraced.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            runtime: RuntimeConfig::single_node(1),
            tracing: Tracing::Untraced,
            pool: None,
        }
    }

    /// Restores a front-end from a checkpoint written by
    /// [`TaskIssuer::checkpoint`]. The snapshot is self-contained — the
    /// envelope's front-end tag selects which front-end to rebuild, and
    /// the payload carries every configuration knob — so a fresh process
    /// needs nothing but the bytes. The restored issuer continues
    /// **bit-identically** to the uninterrupted run: same reports, same
    /// op digest, same eviction decisions.
    ///
    /// ```
    /// use apophenia::{Config, Session, Tracing};
    /// use tasksim::ids::TaskKindId;
    /// use tasksim::task::TaskDesc;
    ///
    /// # fn main() -> Result<(), tasksim::runtime::RuntimeError> {
    /// let mut issuer = Session::builder()
    ///     .tracing(Tracing::Auto(
    ///         Config::standard().with_min_trace_length(2).with_multi_scale_factor(8),
    ///     ))
    ///     .build();
    /// let a = issuer.create_region(1);
    /// let b = issuer.create_region(1);
    /// for _ in 0..100 {
    ///     issuer.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b))?;
    ///     issuer.mark_iteration();
    /// }
    /// // Checkpoint mid-stream (in production: to a file), "crash", …
    /// let mut bytes = Vec::new();
    /// let meta = issuer.checkpoint(&mut bytes)?;
    /// drop(issuer);
    /// // … and resume in a fresh session, continuing where it left off.
    /// let mut resumed = Session::resume_from(&mut bytes.as_slice())?;
    /// assert_eq!(resumed.op_digest(), meta.op_digest);
    /// for _ in 0..100 {
    ///     resumed.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b))?;
    ///     resumed.mark_iteration();
    /// }
    /// resumed.flush()?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Snapshot`](tasksim::runtime::RuntimeError) with a
    /// typed [`SnapshotError`](tasksim::snapshot::SnapshotError) on
    /// truncated, corrupt, version-mismatched, or unknown-front-end
    /// input.
    pub fn resume_from(
        reader: &mut dyn std::io::Read,
    ) -> Result<Box<dyn TaskIssuer>, tasksim::runtime::RuntimeError> {
        use tasksim::snapshot::{self, SnapshotError, SnapshotReader};
        let (tag, payload) = snapshot::read_envelope(reader)?;
        let mut r = SnapshotReader::new(&payload);
        let issuer: Box<dyn TaskIssuer> = match tag {
            snapshot::FRONT_END_RUNTIME => Box::new(Runtime::restore_snapshot(&mut r)?),
            snapshot::FRONT_END_AUTO => Box::new(AutoTracer::restore_snapshot(&mut r)?),
            snapshot::FRONT_END_DISTRIBUTED => {
                Box::new(DistributedAutoTracer::restore_snapshot(&mut r)?)
            }
            other => return Err(SnapshotError::UnknownFrontEnd(other).into()),
        };
        r.expect_end().map_err(tasksim::runtime::RuntimeError::Snapshot)?;
        Ok(issuer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayModel;
    use tasksim::cost::Micros;
    use tasksim::ids::{TaskKindId, TraceId};
    use tasksim::runtime::RuntimeError;
    use tasksim::task::TaskDesc;

    fn small_auto() -> Config {
        Config::standard().with_min_trace_length(2).with_multi_scale_factor(16)
    }

    fn drive(issuer: &mut dyn TaskIssuer, iters: usize, manual: bool) {
        let a = issuer.create_region(1);
        let b = issuer.create_region(1);
        for _ in 0..iters {
            if manual {
                issuer.begin_trace(TraceId(0)).unwrap();
            }
            issuer
                .execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
                )
                .unwrap();
            issuer
                .execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
                )
                .unwrap();
            if manual {
                issuer.end_trace(TraceId(0)).unwrap();
            }
            issuer.mark_iteration();
        }
        issuer.flush().unwrap();
    }

    #[test]
    fn builder_selects_front_end_by_data() {
        for tracing in [
            Tracing::Untraced,
            Tracing::Manual,
            Tracing::Auto(small_auto()),
            Tracing::Distributed(small_auto().with_agreed_ingest(8, DelayModel::new(1, 0))),
        ] {
            let manual = tracing.is_manual();
            let label = tracing.label();
            let mut issuer = Session::builder().nodes(2).gpus_per_node(2).tracing(tracing).build();
            drive(issuer.as_mut(), 200, manual);
            let stats = issuer.stats();
            assert_eq!(stats.tasks_total, 400, "{label}");
            match label {
                "untraced" => assert_eq!(stats.tasks_replayed, 0, "{label}"),
                _ => assert!(stats.tasks_replayed > 0, "{label}: {stats}"),
            }
            let artifacts = issuer.finish().unwrap();
            let log = artifacts.log();
            assert_eq!(log.task_count(), 400, "{label}");
            assert_eq!(log.iteration_count(), 200, "{label}");
            assert_eq!(artifacts.report.iteration_finish.len(), 200, "{label}");
        }
    }

    #[test]
    fn drained_sessions_match_full_for_every_front_end() {
        use tasksim::exec::LogRetention;
        for tracing in [
            Tracing::Untraced,
            Tracing::Manual,
            Tracing::Auto(small_auto()),
            Tracing::Distributed(small_auto().with_agreed_ingest(8, DelayModel::new(7, 12))),
        ] {
            let label = tracing.label();
            let manual = tracing.is_manual();
            let run = |retention: LogRetention| {
                let mut issuer = Session::builder()
                    .nodes(2)
                    .gpus_per_node(2)
                    .tracing(tracing.clone())
                    .log_retention(retention)
                    .build();
                drive(issuer.as_mut(), 150, manual);
                issuer.finish().unwrap()
            };
            let full = run(LogRetention::Full);
            let drained = run(LogRetention::Drain);
            assert_eq!(full.report, drained.report, "{label}: retention changed the report");
            assert_eq!(full.stats, drained.stats, "{label}");
            assert!(drained.log.is_none(), "{label}: drained run kept a log");
        }
    }

    #[test]
    fn auto_front_ends_reject_manual_brackets() {
        for tracing in [
            Tracing::Auto(small_auto()),
            Tracing::Distributed(small_auto().with_agreed_ingest(8, DelayModel::new(1, 0))),
        ] {
            let mut issuer = Session::builder().tracing(tracing).build();
            let err = issuer.begin_trace(TraceId(9)).unwrap_err();
            assert!(
                matches!(err, RuntimeError::AnnotationUnderAuto(TraceId(9))),
                "typed error, not a panic: {err}"
            );
            let err = issuer.end_trace(TraceId(9)).unwrap_err();
            assert!(matches!(err, RuntimeError::AnnotationUnderAuto(_)));
        }
    }

    #[test]
    fn warmup_and_samples_surface_through_the_trait() {
        let mut issuer = Session::builder().tracing(Tracing::Auto(small_auto())).build();
        drive(issuer.as_mut(), 300, false);
        assert!(issuer.warmup_iterations().is_some(), "steady state reached");
        assert!(!issuer.traced_samples().is_empty());
        // Untraced front-ends report the defaults.
        let mut plain = Session::builder().build();
        drive(plain.as_mut(), 10, false);
        assert_eq!(plain.warmup_iterations(), None);
        assert!(plain.traced_samples().is_empty());
    }
}
