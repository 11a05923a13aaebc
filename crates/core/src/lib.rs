//! # Apophenia: automatic tracing for task-based runtime systems
//!
//! A Rust reproduction of *"Automatic Tracing in Task-Based Runtime
//! Systems"* (ASPLOS '25). Implicitly parallel runtimes like Legion spend
//! ~1 ms of dynamic dependence analysis per task; *tracing* memoizes that
//! analysis for repeated program fragments, but traditionally requires
//! manual `begin_trace`/`end_trace` annotations that break under program
//! composition (the paper's Figure 1). Apophenia removes the annotations:
//! it watches the stream of issued tasks, finds repeated fragments with
//! online string analyses, and drives the runtime's tracing engine
//! automatically — a JIT compiler for dependence analysis.
//!
//! ## Crate map
//!
//! One issuing contract — [`tasksim::issuer::TaskIssuer`] — spans every
//! front-end; everything here either implements it or feeds it:
//!
//! * [`session`] — [`Session`]: the application entry point. A builder
//!   selects machine shape and a [`Tracing`] configuration (untraced /
//!   manual / auto / distributed) and returns a `Box<dyn TaskIssuer>`.
//! * [`config`] — the `-lg:auto_trace:*` knobs from the paper's artifact.
//! * [`sampler`] — ruler-function multi-scale buffer sampling (§4.4).
//! * [`finder`] — history buffer + (a)synchronous repeat mining (§4.2),
//!   over the [`substrings`] crate's Algorithm 2.
//! * [`replayer`] — trie-based online candidate matching, scoring, and
//!   replay issuance (§4.3).
//! * [`engine`] — [`AutoTracer`]: Algorithm 1 assembled, sitting between
//!   the application and a [`tasksim`] runtime. Implements `TaskIssuer`
//!   with a batched hot path (`issue_batch`) that amortizes per-task
//!   bookkeeping without changing any tracing decision, and owns the one
//!   ingest schedule ([`IngestSchedule`]), the §5.1 agreement included.
//! * [`distributed`] — [`DistributedAutoTracer`]: a control-replicated
//!   deployment as N engines built from one [`Config`], plus the
//!   lock-step check over their op digests; also a `TaskIssuer`.
//! * [`snapshot`] — checkpoint/restore: every front-end serializes its
//!   complete state (`TaskIssuer::checkpoint`) and
//!   [`Session::resume_from`](session::Session::resume_from) rebuilds it
//!   in a fresh process, continuing bit-identically.
//! * [`metrics`] — Figure 9 / Figure 10 instrumentation.
//!
//! ## Quickstart
//!
//! Applications program against the trait object and select the
//! configuration by data — swapping `Tracing::Auto` for
//! `Tracing::Untraced` (or `Tracing::Distributed(..)`) changes nothing
//! else in the program:
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
//!         Config::standard().with_min_trace_length(2).with_multi_scale_factor(16),
//!     ))
//!     .build();
//! let x = issuer.create_region(1);
//! let y = issuer.create_region(1);
//! for _ in 0..100 {
//!     // The batched hot path; `execute_task` issues one at a time.
//!     issuer.issue_batch(vec![
//!         TaskDesc::new(TaskKindId(0)).reads(x).writes(y),
//!         TaskDesc::new(TaskKindId(1)).reads(y).writes(x),
//!     ])?;
//!     issuer.mark_iteration();
//! }
//! issuer.flush()?;
//! println!("{}", issuer.stats()); // most tasks replayed, no annotations
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod distributed;
pub mod engine;
pub mod finder;
pub mod metrics;
pub mod replayer;
pub mod sampler;
pub mod session;
pub mod snapshot;

pub use config::{
    CapacityConfig, Config, ConfigError, DelayModel, FinderPolicy, IdentifierAlgorithm,
    IngestSchedule, MiningMode, RepeatsAlgorithm, ScoringConfig,
};
pub use distributed::DistributedAutoTracer;
pub use engine::{AgreementStats, AutoTracer};
pub use finder::{FinderError, MinedBatch, MinedCandidate, MiningPool, TraceFinder};
pub use metrics::{TracedWindow, WarmupDetector};
pub use replayer::{TraceReplayer, TraceSink};
pub use session::{Session, SessionBuilder, Tracing};
pub use snapshot::{CheckpointMeta, SnapshotError};
