//! # apophenia-serve: a multi-tenant tracing service
//!
//! One process, many independent task streams: a [`TraceService`] hosts a
//! registry of *tenants*, each an issuing front-end built through
//! [`apophenia::Session`] — untraced, manually annotated, automatically
//! traced, or control-replicated — keyed by [`StreamId`]. Three things
//! make multi-tenancy more than a `Vec` of engines:
//!
//! * **A shared mining pool.** Automatic tracing mines the task stream on
//!   worker threads. N tenants spawning N × `mining_threads` workers
//!   oversubscribes the host, so the service constructs one
//!   [`MiningPool`] and hands every tenant's finder a handle; each mining
//!   job carries its submitter's private reply channels, so tenants share
//!   *threads* without sharing (or reordering) each other's *results*.
//! * **Byte budgets.** The service apportions global
//!   [`ServeConfig::max_trie_bytes`] / [`ServeConfig::max_template_bytes`]
//!   ceilings across its tenant slots: each tenant's capacity
//!   configuration is tightened to its share at registration, so one
//!   tenant's pathological stream cannot crowd the fleet out of memory.
//!   The budgets bound the *deterministic byte model* (trie node and
//!   template footprints derived from structure counts, never allocator
//!   probes), so identical streams cost identical bytes everywhere.
//! * **Admission control.** Every front-end reports its end-to-end
//!   buffering via [`TaskIssuer::buffered_ops`]; a tenant whose depth
//!   exceeds [`ServeConfig::max_buffered_ops`] gets [`ServeError::Busy`]
//!   pushback instead of more work. Rejections are counted per tenant and
//!   surface in the metrics snapshot.
//!
//! Aggregate observability comes from the same trait surface:
//! [`TraceService::fleet_metrics`] rolls every tenant's counters, log
//! residency, buffering, byte footprints, and mining-pipeline health into
//! one [`FleetMetrics`], and [`TraceService::render_metrics`] renders the
//! per-tenant + fleet view as a text snapshot.
//!
//! Determinism is preserved per tenant: mining results return in strict
//! per-tenant submission order regardless of sharing, so a tenant's run
//! through the service is bit-identical to the same stream run solo —
//! exactly (for synchronous mining, or asynchronous mining quiesced on a
//! deterministic schedule via [`TraceService::quiesce`]) or modulo
//! asynchronous ingestion timing otherwise.
//!
//! ```
//! use apophenia::{Config, Tracing};
//! use apophenia_serve::{ServeConfig, StreamId, TraceService};
//! use tasksim::ids::TaskKindId;
//! use tasksim::task::TaskDesc;
//!
//! # fn main() -> Result<(), apophenia_serve::ServeError> {
//! let mut svc = TraceService::new(ServeConfig::default().with_tenant_slots(4));
//! let auto = Tracing::Auto(Config::standard().with_min_trace_length(2));
//! svc.register(StreamId(7), auto)?;
//! let a = svc.create_region(StreamId(7), 1)?;
//! let b = svc.create_region(StreamId(7), 1)?;
//! for _ in 0..50 {
//!     svc.submit(
//!         StreamId(7),
//!         vec![
//!             TaskDesc::new(TaskKindId(0)).reads(a).writes(b),
//!             TaskDesc::new(TaskKindId(1)).reads(b).writes(a),
//!         ],
//!     )?;
//!     svc.mark_iteration(StreamId(7))?;
//! }
//! let artifacts = svc.finish(StreamId(7))?;
//! assert_eq!(artifacts.stats.tasks_total, 100);
//! # Ok(())
//! # }
//! ```

use apophenia::session::{Session, Tracing};
use apophenia::{Config, MiningPool};
use std::collections::BTreeMap;
use tasksim::exec::LogStats;
use tasksim::ids::RegionId;
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{RuntimeConfig, RuntimeError};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;

/// Identifies one tenant's task stream within a [`TraceService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Host-level configuration: how many tenants, how many shared mining
/// threads, and the fleet-wide resource ceilings the registry apportions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Tenant slots the host provisions for. Registration beyond this
    /// count is rejected, and the byte ceilings below are divided by this
    /// number to produce each tenant's share.
    pub tenant_slots: usize,
    /// Worker threads in the shared [`MiningPool`] (total for the whole
    /// fleet, not per tenant).
    pub mining_threads: usize,
    /// Admission control: a tenant whose
    /// [`TaskIssuer::buffered_ops`]`().total()` exceeds this depth gets
    /// [`ServeError::Busy`] instead of more work. `None` admits always.
    pub max_buffered_ops: Option<usize>,
    /// Fleet-wide ceiling on candidate-trie bytes (the deterministic
    /// model of [`apophenia::replayer::TRIE_NODE_FOOTPRINT`] plus content
    /// tables). Apportioned: each tenant's
    /// [`apophenia::CapacityConfig::max_trie_bytes`] is tightened to
    /// `ceiling / tenant_slots` at registration.
    pub max_trie_bytes: Option<usize>,
    /// Fleet-wide ceiling on template-store bytes
    /// ([`tasksim::trace::TraceTemplate::footprint_bytes`]), apportioned
    /// like `max_trie_bytes`.
    pub max_template_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tenant_slots: 8,
            mining_threads: 2,
            max_buffered_ops: None,
            max_trie_bytes: None,
            max_template_bytes: None,
        }
    }
}

impl ServeConfig {
    /// Sets the tenant-slot count (clamped to at least 1).
    pub fn with_tenant_slots(mut self, slots: usize) -> Self {
        self.tenant_slots = slots.max(1);
        self
    }

    /// Sets the shared pool's worker-thread count (clamped to at least 1).
    pub fn with_mining_threads(mut self, threads: usize) -> Self {
        self.mining_threads = threads.max(1);
        self
    }

    /// Enables admission control at the given buffered-op depth.
    pub fn with_max_buffered_ops(mut self, depth: usize) -> Self {
        self.max_buffered_ops = Some(depth);
        self
    }

    /// Sets the fleet-wide candidate-trie byte ceiling (clamped ≥ 1).
    pub fn with_max_trie_bytes(mut self, bytes: usize) -> Self {
        self.max_trie_bytes = Some(bytes.max(1));
        self
    }

    /// Sets the fleet-wide template-store byte ceiling (clamped ≥ 1).
    pub fn with_max_template_bytes(mut self, bytes: usize) -> Self {
        self.max_template_bytes = Some(bytes.max(1));
        self
    }

    /// One tenant's share of the trie ceiling (clamped ≥ 1 byte).
    pub fn trie_share(&self) -> Option<usize> {
        self.max_trie_bytes.map(|b| (b / self.tenant_slots).max(1))
    }

    /// One tenant's share of the template ceiling (clamped ≥ 1 byte).
    pub fn template_share(&self) -> Option<usize> {
        self.max_template_bytes.map(|b| (b / self.tenant_slots).max(1))
    }
}

/// Why a service operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control: the tenant's buffered-op depth exceeds the
    /// configured limit. Back off and resubmit; nothing was issued.
    Busy {
        /// The pushed-back stream.
        stream: StreamId,
        /// Its buffered-op depth at rejection.
        buffered: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// No tenant is registered under this id.
    UnknownTenant(StreamId),
    /// A tenant is already registered under this id.
    DuplicateTenant(StreamId),
    /// Every tenant slot is occupied.
    AtCapacity {
        /// The host's slot count.
        slots: usize,
    },
    /// The tenant's front-end reported an error.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Busy { stream, buffered, limit } => {
                write!(f, "{stream} busy: {buffered} ops buffered exceeds admission limit {limit}")
            }
            Self::UnknownTenant(s) => write!(f, "no tenant registered as {s}"),
            Self::DuplicateTenant(s) => write!(f, "a tenant is already registered as {s}"),
            Self::AtCapacity { slots } => write!(f, "all {slots} tenant slots are occupied"),
            Self::Runtime(e) => write!(f, "tenant runtime error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

struct Tenant {
    issuer: Box<dyn TaskIssuer>,
    label: &'static str,
    busy_rejections: u64,
}

/// One tenant's rolled-up view for the metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// The tenant's stream id.
    pub stream: StreamId,
    /// The tracing front-end's label (`untraced` / `manual` / `auto` /
    /// `distributed`).
    pub label: &'static str,
    /// Runtime counters (includes template bytes + peak).
    pub stats: RuntimeStats,
    /// Operation-log residency.
    pub log: LogStats,
    /// End-to-end buffering depths and peaks.
    pub buffered: BufferStats,
    /// Candidate-trie bytes, current.
    pub trie_bytes: usize,
    /// Candidate-trie bytes, peak.
    pub peak_trie_bytes: usize,
    /// Admission-control pushbacks issued to this tenant.
    pub busy_rejections: u64,
    /// Mining-pipeline degradation, if any (None = healthy).
    pub degraded: Option<String>,
}

/// The fleet-wide rollup: sums of every tenant's counters plus host
/// state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetMetrics {
    /// Registered tenants.
    pub tenants: usize,
    /// Provisioned slots.
    pub slots: usize,
    /// Shared-pool worker threads.
    pub pool_threads: usize,
    /// Total tasks issued across the fleet.
    pub tasks_total: u64,
    /// Total tasks replayed across the fleet.
    pub tasks_replayed: u64,
    /// Total operations pushed across the fleet.
    pub ops_pushed: u64,
    /// Operations currently resident across the fleet.
    pub ops_retained: usize,
    /// Operations currently buffered end to end across the fleet.
    pub buffered: usize,
    /// Sum of per-tenant buffering peaks (upper bound on the true
    /// simultaneous fleet peak).
    pub peak_buffered: usize,
    /// Candidate-trie bytes across the fleet, current.
    pub trie_bytes: usize,
    /// Sum of per-tenant trie-byte peaks.
    pub peak_trie_bytes: usize,
    /// Template-store bytes across the fleet, current.
    pub template_bytes: u64,
    /// Sum of per-tenant template-byte peaks.
    pub peak_template_bytes: u64,
    /// Admission-control pushbacks across the fleet.
    pub busy_rejections: u64,
    /// Tenants whose mining pipeline is degraded.
    pub degraded_tenants: usize,
}

/// The multi-tenant tracing service. See the [module docs](self).
///
/// The service is a single-owner object: one thread drives it at a time
/// (the shared pool's workers run concurrently underneath). It is `Send`
/// — the whole service, tenants included, can move onto a server worker
/// thread — which is what the [`TaskIssuer`]`: Send` bound exists for.
#[derive(Debug)]
pub struct TraceService {
    config: ServeConfig,
    pool: MiningPool,
    tenants: BTreeMap<StreamId, Tenant>,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("label", &self.label)
            .field("busy_rejections", &self.busy_rejections)
            .finish_non_exhaustive()
    }
}

impl TraceService {
    /// Starts a service: spawns the shared mining pool, no tenants yet.
    pub fn new(config: ServeConfig) -> Self {
        let config = ServeConfig {
            tenant_slots: config.tenant_slots.max(1),
            mining_threads: config.mining_threads.max(1),
            ..config
        };
        Self { pool: MiningPool::new(config.mining_threads), config, tenants: BTreeMap::new() }
    }

    /// The host configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared mining pool (cloneable handle).
    pub fn pool(&self) -> &MiningPool {
        &self.pool
    }

    /// Registered tenant count.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Registers a tenant under `stream` with a default single-node
    /// machine shape. See [`Self::register_configured`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] / [`ServeError::AtCapacity`].
    pub fn register(&mut self, stream: StreamId, tracing: Tracing) -> Result<(), ServeError> {
        self.register_configured(stream, tracing, RuntimeConfig::single_node(1))
    }

    /// Registers a tenant with an explicit machine shape. The tenant's
    /// capacity configuration is tightened to its apportioned share of
    /// the fleet byte ceilings (taking the tighter bound when the tenant
    /// brings its own), and automatic front-ends mine on the shared pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] when `stream` is taken,
    /// [`ServeError::AtCapacity`] when every slot is occupied.
    pub fn register_configured(
        &mut self,
        stream: StreamId,
        tracing: Tracing,
        runtime: RuntimeConfig,
    ) -> Result<(), ServeError> {
        if self.tenants.contains_key(&stream) {
            return Err(ServeError::DuplicateTenant(stream));
        }
        if self.tenants.len() >= self.config.tenant_slots {
            return Err(ServeError::AtCapacity { slots: self.config.tenant_slots });
        }
        let label = tracing.label();
        let tracing = self.apportion(tracing);
        let mut runtime = runtime;
        if let Some(share) = self.config.template_share() {
            runtime.max_template_bytes =
                Some(runtime.max_template_bytes.map_or(share, |own| own.min(share)));
        }
        let issuer = Session::builder()
            .runtime_config(runtime)
            .tracing(tracing)
            .mining_pool(&self.pool)
            .build();
        self.tenants.insert(stream, Tenant { issuer, label, busy_rejections: 0 });
        Ok(())
    }

    /// Tightens a tracing configuration's byte budgets to this host's
    /// per-tenant shares.
    fn apportion(&self, tracing: Tracing) -> Tracing {
        let tighten = |mut c: Config| {
            if let Some(share) = self.config.trie_share() {
                c.capacity.max_trie_bytes =
                    Some(c.capacity.max_trie_bytes.map_or(share, |own| own.min(share)));
            }
            if let Some(share) = self.config.template_share() {
                c.capacity.max_template_bytes =
                    Some(c.capacity.max_template_bytes.map_or(share, |own| own.min(share)));
            }
            c
        };
        match tracing {
            Tracing::Auto(c) => Tracing::Auto(tighten(c)),
            Tracing::Distributed(c) => Tracing::Distributed(tighten(c)),
            other => other,
        }
    }

    fn tenant_mut(&mut self, stream: StreamId) -> Result<&mut Tenant, ServeError> {
        self.tenants.get_mut(&stream).ok_or(ServeError::UnknownTenant(stream))
    }

    /// Submits a batch of tasks on a tenant's stream, subject to
    /// admission control: a tenant buffering more than
    /// [`ServeConfig::max_buffered_ops`] is pushed back with
    /// [`ServeError::Busy`] (counted, nothing issued) — drain pressure by
    /// waiting, quiescing, or flushing, then resubmit.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`], [`ServeError::UnknownTenant`], or a wrapped
    /// [`RuntimeError`] from the front-end.
    pub fn submit(&mut self, stream: StreamId, tasks: Vec<TaskDesc>) -> Result<(), ServeError> {
        let limit = self.config.max_buffered_ops;
        let t = self.tenant_mut(stream)?;
        if let Some(limit) = limit {
            let buffered = t.issuer.buffered_ops().total();
            if buffered > limit {
                t.busy_rejections += 1;
                return Err(ServeError::Busy { stream, buffered, limit });
            }
        }
        t.issuer.issue_batch(tasks)?;
        Ok(())
    }

    /// Creates a region on a tenant's stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn create_region(&mut self, stream: StreamId, fields: u32) -> Result<RegionId, ServeError> {
        Ok(self.tenant_mut(stream)?.issuer.create_region(fields))
    }

    /// Marks an iteration boundary on a tenant's stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn mark_iteration(&mut self, stream: StreamId) -> Result<(), ServeError> {
        self.tenant_mut(stream)?.issuer.mark_iteration();
        Ok(())
    }

    /// Blocks until the tenant's in-flight background mining lands (see
    /// [`TaskIssuer::quiesce`]) — the deterministic-ingestion barrier,
    /// and a way to relieve admission pressure without flushing.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn quiesce(&mut self, stream: StreamId) -> Result<(), ServeError> {
        self.tenant_mut(stream)?.issuer.quiesce();
        Ok(())
    }

    /// Flushes a tenant's buffered state (see [`TaskIssuer::flush`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or a wrapped [`RuntimeError`].
    pub fn flush(&mut self, stream: StreamId) -> Result<(), ServeError> {
        Ok(self.tenant_mut(stream)?.issuer.flush()?)
    }

    /// Deregisters a tenant and returns its run artifacts (flushing
    /// first), freeing the slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or a wrapped [`RuntimeError`]; the
    /// tenant is removed either way (a tenant that cannot finish cleanly
    /// does not pin a slot forever).
    pub fn finish(&mut self, stream: StreamId) -> Result<RunArtifacts, ServeError> {
        let t = self.tenants.remove(&stream).ok_or(ServeError::UnknownTenant(stream))?;
        Ok(t.issuer.finish()?)
    }

    /// Direct access to a tenant's front-end, for operations the service
    /// does not wrap (checkpointing, op digests, warmup queries).
    pub fn issuer_mut(&mut self, stream: StreamId) -> Option<&mut (dyn TaskIssuer + '_)> {
        self.tenants.get_mut(&stream).map(|t| &mut *t.issuer as _)
    }

    /// One tenant's rolled-up metrics. `&mut self` because health
    /// evidence arrives on channels that must be drained to be observed.
    pub fn tenant_metrics(&mut self, stream: StreamId) -> Option<TenantMetrics> {
        let t = self.tenants.get_mut(&stream)?;
        let (trie_bytes, peak_trie_bytes) = t.issuer.trie_footprint();
        Some(TenantMetrics {
            stream,
            label: t.label,
            stats: t.issuer.stats(),
            log: t.issuer.log_stats(),
            buffered: t.issuer.buffered_ops(),
            trie_bytes,
            peak_trie_bytes,
            busy_rejections: t.busy_rejections,
            degraded: t.issuer.health().err(),
        })
    }

    /// Every tenant's metrics, ordered by stream id.
    pub fn all_tenant_metrics(&mut self) -> Vec<TenantMetrics> {
        let streams: Vec<StreamId> = self.tenants.keys().copied().collect();
        streams.into_iter().filter_map(|s| self.tenant_metrics(s)).collect()
    }

    /// The fleet-wide rollup.
    pub fn fleet_metrics(&mut self) -> FleetMetrics {
        let mut fleet = FleetMetrics {
            tenants: self.tenants.len(),
            slots: self.config.tenant_slots,
            pool_threads: self.pool.threads(),
            ..FleetMetrics::default()
        };
        for m in self.all_tenant_metrics() {
            fleet.tasks_total += m.stats.tasks_total;
            fleet.tasks_replayed += m.stats.tasks_replayed;
            fleet.ops_pushed += m.log.pushed;
            fleet.ops_retained += m.log.retained;
            fleet.buffered += m.buffered.total();
            fleet.peak_buffered += m.buffered.peak_total();
            fleet.trie_bytes += m.trie_bytes;
            fleet.peak_trie_bytes += m.peak_trie_bytes;
            fleet.template_bytes += m.stats.template_bytes;
            fleet.peak_template_bytes += m.stats.peak_template_bytes;
            fleet.busy_rejections += m.busy_rejections;
            fleet.degraded_tenants += usize::from(m.degraded.is_some());
        }
        fleet
    }

    /// Renders the fleet + per-tenant metrics as a text snapshot — one
    /// `fleet` line followed by one line per tenant, ordered by stream
    /// id.
    pub fn render_metrics(&mut self) -> String {
        use std::fmt::Write;
        let fleet = self.fleet_metrics();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet tenants={}/{} pool_threads={} tasks={} replayed={} ops={} retained={} \
             buffered={} (peak {}) trie_bytes={} (peak {}) template_bytes={} (peak {}) \
             busy_rejections={} degraded={}",
            fleet.tenants,
            fleet.slots,
            fleet.pool_threads,
            fleet.tasks_total,
            fleet.tasks_replayed,
            fleet.ops_pushed,
            fleet.ops_retained,
            fleet.buffered,
            fleet.peak_buffered,
            fleet.trie_bytes,
            fleet.peak_trie_bytes,
            fleet.template_bytes,
            fleet.peak_template_bytes,
            fleet.busy_rejections,
            fleet.degraded_tenants,
        );
        for m in self.all_tenant_metrics() {
            let _ = writeln!(
                out,
                "{} [{}] tasks={} replayed={} buffered={} (peak {}) trie_bytes={} (peak {}) \
                 template_bytes={} (peak {}) busy_rejections={}{}",
                m.stream,
                m.label,
                m.stats.tasks_total,
                m.stats.tasks_replayed,
                m.buffered.total(),
                m.buffered.peak_total(),
                m.trie_bytes,
                m.peak_trie_bytes,
                m.stats.template_bytes,
                m.stats.peak_template_bytes,
                m.busy_rejections,
                match &m.degraded {
                    Some(why) => format!(" DEGRADED: {why}"),
                    None => String::new(),
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasksim::ids::TaskKindId;

    fn auto() -> Tracing {
        Tracing::Auto(Config::standard().with_min_trace_length(2).with_multi_scale_factor(16))
    }

    fn loop_body(a: RegionId, b: RegionId) -> Vec<TaskDesc> {
        vec![
            TaskDesc::new(TaskKindId(0)).reads(a).writes(b),
            TaskDesc::new(TaskKindId(1)).reads(b).writes(a),
        ]
    }

    #[test]
    fn service_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceService>();
        assert_send::<MiningPool>();
    }

    #[test]
    fn registry_enforces_slots_and_uniqueness() {
        let mut svc = TraceService::new(ServeConfig::default().with_tenant_slots(2));
        svc.register(StreamId(1), Tracing::Untraced).unwrap();
        let err = svc.register(StreamId(1), Tracing::Untraced).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateTenant(StreamId(1))), "{err}");
        svc.register(StreamId(2), auto()).unwrap();
        let err = svc.register(StreamId(3), Tracing::Untraced).unwrap_err();
        assert!(matches!(err, ServeError::AtCapacity { slots: 2 }), "{err}");
        assert_eq!(svc.tenant_count(), 2);
        // Finishing a tenant frees its slot.
        svc.finish(StreamId(1)).unwrap();
        svc.register(StreamId(3), Tracing::Untraced).unwrap();
        let err = svc.submit(StreamId(99), vec![]).unwrap_err();
        assert!(matches!(err, ServeError::UnknownTenant(StreamId(99))), "{err}");
    }

    #[test]
    fn tenants_trace_over_the_shared_pool() {
        let mut svc = TraceService::new(ServeConfig::default().with_tenant_slots(4));
        let handles_before = svc.pool().handles();
        for id in 0..3 {
            let cfg = Config::standard()
                .with_min_trace_length(2)
                .with_multi_scale_factor(16)
                .with_async_mining();
            svc.register(StreamId(id), Tracing::Auto(cfg)).unwrap();
        }
        assert!(
            svc.pool().handles() >= handles_before + 3,
            "every async tenant holds a pool handle"
        );
        let mut regions = BTreeMap::new();
        for id in 0..3 {
            let a = svc.create_region(StreamId(id), 1).unwrap();
            let b = svc.create_region(StreamId(id), 1).unwrap();
            regions.insert(id, (a, b));
        }
        for i in 0..400 {
            for id in 0..3 {
                let (a, b) = regions[&id];
                svc.submit(StreamId(id), loop_body(a, b)).unwrap();
                svc.mark_iteration(StreamId(id)).unwrap();
                // Periodic quiesce: the deterministic ingestion schedule a
                // replay-sensitive tenant would run with anyway.
                if i % 16 == 15 {
                    svc.quiesce(StreamId(id)).unwrap();
                }
            }
        }
        for id in 0..3 {
            svc.quiesce(StreamId(id)).unwrap();
            svc.flush(StreamId(id)).unwrap();
            let m = svc.tenant_metrics(StreamId(id)).unwrap();
            assert_eq!(m.stats.tasks_total, 800, "tenant {id}");
            assert!(m.stats.tasks_replayed > 0, "tenant {id} traced: {}", m.stats);
            assert_eq!(m.degraded, None, "tenant {id} healthy");
        }
    }

    #[test]
    fn byte_budgets_are_apportioned_and_enforced() {
        // A tiny fleet template ceiling: each tenant's template store must
        // stay within its share.
        let mut svc = TraceService::new(
            ServeConfig::default()
                .with_tenant_slots(2)
                .with_max_template_bytes(2 * 2048)
                .with_max_trie_bytes(2 * 64 * 1024),
        );
        svc.register(StreamId(0), auto()).unwrap();
        let a = svc.create_region(StreamId(0), 1).unwrap();
        let b = svc.create_region(StreamId(0), 1).unwrap();
        for i in 0..600u32 {
            // Phase-shifting loop bodies force several distinct templates.
            let phase = i / 100;
            svc.submit(
                StreamId(0),
                vec![
                    TaskDesc::new(TaskKindId(2 * phase)).reads(a).writes(b),
                    TaskDesc::new(TaskKindId(2 * phase + 1)).reads(b).writes(a),
                ],
            )
            .unwrap();
            svc.mark_iteration(StreamId(0)).unwrap();
        }
        svc.flush(StreamId(0)).unwrap();
        let m = svc.tenant_metrics(StreamId(0)).unwrap();
        assert!(m.stats.peak_template_bytes > 0, "templates were recorded: {:?}", m.stats);
        assert!(
            m.stats.template_bytes <= 2048,
            "template store within its 2048-byte share: {}",
            m.stats.template_bytes
        );
        assert!(m.peak_trie_bytes <= 64 * 1024, "trie within its share: {}", m.peak_trie_bytes);
    }

    #[test]
    fn admission_control_pushes_back_and_counts() {
        // Depth 0: any buffered op triggers Busy. The replayer of a traced
        // loop buffers between submissions, so pushback must occur.
        let mut svc =
            TraceService::new(ServeConfig::default().with_tenant_slots(2).with_max_buffered_ops(0));
        svc.register(StreamId(0), auto()).unwrap();
        let a = svc.create_region(StreamId(0), 1).unwrap();
        let b = svc.create_region(StreamId(0), 1).unwrap();
        let mut busy = 0u64;
        for _ in 0..300 {
            match svc.submit(StreamId(0), loop_body(a, b)) {
                Ok(()) => svc.mark_iteration(StreamId(0)).unwrap(),
                Err(ServeError::Busy { stream, buffered, limit }) => {
                    assert_eq!(stream, StreamId(0));
                    assert!(buffered > limit);
                    busy += 1;
                    // Relieve pressure the sanctioned way.
                    svc.flush(StreamId(0)).unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(busy > 0, "a traced loop at depth 0 must hit admission control");
        let m = svc.tenant_metrics(StreamId(0)).unwrap();
        assert_eq!(m.busy_rejections, busy, "rejections counted");
        assert!(svc.fleet_metrics().busy_rejections >= busy);
    }

    #[test]
    fn metrics_snapshot_renders_fleet_and_tenants() {
        let mut svc = TraceService::new(ServeConfig::default().with_tenant_slots(3));
        svc.register(StreamId(4), auto()).unwrap();
        svc.register(StreamId(9), Tracing::Untraced).unwrap();
        let a = svc.create_region(StreamId(4), 1).unwrap();
        let b = svc.create_region(StreamId(4), 1).unwrap();
        for _ in 0..120 {
            svc.submit(StreamId(4), loop_body(a, b)).unwrap();
            svc.mark_iteration(StreamId(4)).unwrap();
        }
        svc.flush(StreamId(4)).unwrap();
        let text = svc.render_metrics();
        assert!(text.starts_with("fleet tenants=2/3"), "{text}");
        assert!(text.contains("stream4 [auto]"), "{text}");
        assert!(text.contains("stream9 [untraced]"), "{text}");
        assert!(!text.contains("DEGRADED"), "{text}");
        let fleet = svc.fleet_metrics();
        assert_eq!(fleet.tasks_total, 240);
        assert!(fleet.tasks_replayed > 0);
        assert!(fleet.ops_pushed >= fleet.tasks_total);
        // Per-tenant footprints: current and peak, trie and templates.
        let m = svc.tenant_metrics(StreamId(4)).unwrap();
        assert!(m.trie_bytes > 0 && m.peak_trie_bytes >= m.trie_bytes, "{m:?}");
        assert!(m.stats.peak_template_bytes >= m.stats.template_bytes, "{m:?}");
        assert!(m.stats.template_bytes > 0, "{m:?}");
    }

    #[test]
    fn error_display_covers_every_variant() {
        let errors: Vec<ServeError> = vec![
            ServeError::Busy { stream: StreamId(1), buffered: 9, limit: 4 },
            ServeError::UnknownTenant(StreamId(2)),
            ServeError::DuplicateTenant(StreamId(3)),
            ServeError::AtCapacity { slots: 8 },
            ServeError::Runtime(RuntimeError::InvalidConfig("x".into())),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty(), "{e:?}");
        }
    }
}
