//! A Legion-like task-based runtime substrate.
//!
//! The Apophenia paper targets the Legion runtime system; this crate is the
//! stand-in substrate for this reproduction. It implements the pieces of an
//! implicitly parallel task-based runtime that automatic tracing interacts
//! with:
//!
//! * [`region`] — logical regions, fields, and disjoint partitions, the
//!   data model whose usage drives the dependence analysis;
//! * [`privilege`] — access privileges (read, read-write, write-discard,
//!   reductions) and the conflict relation between them;
//! * [`task`] — task descriptors with region requirements and the 64-bit
//!   semantic hash that turns a task stream into a token stream (§4.1);
//! * [`deps`] — the dynamic dependence analysis: a serial pass that
//!   computes, for each issued task, its dependence edges on prior tasks;
//! * [`graph`] — the resulting task graph, with optional transitive
//!   reduction (Legion's `-lg:inline_transitive_reduction`);
//! * [`trace`] — the tracing engine: `begin_trace(id)` / `end_trace(id)`
//!   memoization of analysis results, sequence validation, and replay
//!   (the substrate of Lee et al.'s dynamic tracing that Apophenia drives);
//! * [`runtime`] — the façade tying the above together and producing an
//!   [`exec::OpLog`] of everything that happened;
//! * [`issuer`] — the object-safe [`TaskIssuer`] contract applications
//!   program against, implemented by [`Runtime`] here and by the
//!   `apophenia` front-ends above it (one API whether a stream runs
//!   untraced, manually annotated, or automatically traced);
//! * [`cost`] — the calibrated cost model (α, α_m, α_r, c, launch
//!   overheads) from the paper's reported measurements;
//! * [`exec`] — a discrete-event simulation of Legion's three-stage
//!   pipeline (application → analysis → execution) over a machine model,
//!   yielding steady-state iteration throughput;
//! * [`snapshot`] — the versioned binary codec behind
//!   [`TaskIssuer::checkpoint`](issuer::TaskIssuer::checkpoint): every
//!   stateful layer serializes itself so an interrupted run can restore
//!   mid-stream and continue bit-identically;
//! * [`stats`] — counters shared by the above.
//!
//! The crate deliberately knows nothing about Apophenia: the `apophenia`
//! crate layers on top through the same public API an application uses,
//! exactly as the paper's implementation sits between the application and
//! Legion.

pub mod cost;
pub mod deps;
pub mod exec;
pub mod graph;
pub mod ids;
pub mod index;
pub mod issuer;
pub mod privilege;
pub mod region;
pub mod runtime;
pub mod snapshot;
pub mod stats;
pub mod task;
pub mod trace;

pub use cost::{CostModel, Micros};
pub use exec::{simulate, LogRetention, LogStats, OpLog, SimPipeline, SimReport};
pub use ids::{FieldId, OpId, RegionId, TaskKindId, TraceId};
pub use issuer::{RunArtifacts, TaskIssuer};
pub use privilege::Privilege;
pub use region::RegionForest;
pub use runtime::{Runtime, RuntimeConfig, RuntimeError};
pub use snapshot::{
    CheckpointMeta, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
pub use stats::BufferStats;
pub use task::{RegionRequirement, TaskDesc, TaskHash};
