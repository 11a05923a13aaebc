//! Multi-tenant serving: N interleaved tenants over one shared mining
//! pool are bit-identical to the same tenants run solo.
//!
//! The `TraceService` promises isolation-under-sharing: tenants share
//! mining *threads*, never results or ordering, so a tenant's run
//! through a crowded service must equal — op digest, simulation report,
//! runtime counters — the same stream through an otherwise-empty
//! service. Asynchronous-mining tenants achieve this with gated ingest
//! (`Config::with_gated_ingest`) plus a quiesce schedule derived from
//! the stream (here: every iteration): completed analyses wait at the
//! gate and land at the first issue after each quiesce, making
//! ingestion a pure function of the stream rather than of pool timing.
//!
//! Alongside determinism, this file is the serve smoke required by the
//! acceptance criteria: byte budgets demonstrably enforced (peak trie
//! bytes within the apportioned share; template store held to its share
//! by eviction) and admission control demonstrably exercised (`Busy`
//! observed under a tiny queue depth), with the metrics snapshot
//! rendering throughout.

use apophenia::{Config, DelayModel, Tracing};
use apophenia_serve::{ServeConfig, ServeError, StreamId, TraceService};
use proptest::prelude::*;
use tasksim::cost::Micros;
use tasksim::exec::SimReport;
use tasksim::ids::{RegionId, TaskKindId, TraceId};
use tasksim::stats::RuntimeStats;
use tasksim::task::TaskDesc;

const SLOTS: usize = 8;
const ITERS: usize = 120;

fn small_auto() -> Config {
    Config::standard().with_min_trace_length(2).with_batch_size(256).with_multi_scale_factor(16)
}

/// The eight tenants cover every front-end, with async-mining tenants
/// (the ones that actually use the shared pool) in the majority.
fn mode(id: u64) -> Tracing {
    match id % 5 {
        0 | 3 => Tracing::Auto(small_auto().with_async_mining().with_gated_ingest()),
        1 => Tracing::Auto(small_auto()),
        2 => Tracing::Untraced,
        4 if id == 4 => Tracing::Manual,
        _ => {
            Tracing::Distributed(small_auto().with_agreed_ingest(8, DelayModel::new(2024 + id, 25)))
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_tenant_slots(SLOTS)
        .with_mining_threads(3)
        .with_max_trie_bytes(SLOTS * 256 * 1024)
        .with_max_template_bytes(SLOTS * 512 * 1024)
}

/// Registers tenant `id` and creates its two regions.
fn enroll(svc: &mut TraceService, id: u64) -> (RegionId, RegionId) {
    svc.register(StreamId(id), mode(id)).unwrap();
    let a = svc.create_region(StreamId(id), 1).unwrap();
    let b = svc.create_region(StreamId(id), 1).unwrap();
    (a, b)
}

/// One iteration of tenant `id`'s program: a per-tenant loop body
/// (distinct kinds, tenant-dependent length), manual brackets when the
/// front-end wants them, and the deterministic quiesce that pins
/// asynchronous ingestion to the stream.
fn step(svc: &mut TraceService, id: u64, (a, b): (RegionId, RegionId)) {
    let len = 2 + (id as usize % 3) * 2;
    let body: Vec<TaskDesc> = (0..len as u32)
        .map(|k| {
            let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
            TaskDesc::new(TaskKindId(id as u32 * 16 + k))
                .reads(src)
                .writes(dst)
                .gpu_time(Micros(50.0 + id as f64))
        })
        .collect();
    let manual = mode(id).is_manual();
    if manual {
        svc.issuer_mut(StreamId(id)).unwrap().begin_trace(TraceId(0)).unwrap();
    }
    svc.submit(StreamId(id), body).unwrap();
    if manual {
        svc.issuer_mut(StreamId(id)).unwrap().end_trace(TraceId(0)).unwrap();
    }
    svc.mark_iteration(StreamId(id)).unwrap();
    svc.quiesce(StreamId(id)).unwrap();
}

/// Drains tenant `id` and returns everything determinism is judged on.
fn harvest(svc: &mut TraceService, id: u64) -> (u64, SimReport, RuntimeStats) {
    svc.quiesce(StreamId(id)).unwrap();
    svc.flush(StreamId(id)).unwrap();
    let digest = svc.issuer_mut(StreamId(id)).unwrap().op_digest();
    let artifacts = svc.finish(StreamId(id)).unwrap();
    (digest, artifacts.report, artifacts.stats)
}

/// Tenant `id`'s stream through an otherwise-empty service with the
/// *same* host configuration (shares are per-slot, so solo and crowded
/// tenants get identical budgets).
fn solo(id: u64, iters: usize) -> (u64, SimReport, RuntimeStats) {
    let mut svc = TraceService::new(serve_config());
    let regions = enroll(&mut svc, id);
    for _ in 0..iters {
        step(&mut svc, id, regions);
    }
    harvest(&mut svc, id)
}

#[test]
fn eight_interleaved_tenants_match_solo_runs() {
    let mut svc = TraceService::new(serve_config());
    let regions: Vec<(RegionId, RegionId)> =
        (0..SLOTS as u64).map(|id| enroll(&mut svc, id)).collect();
    assert!(
        svc.pool().handles() > 1,
        "async tenants hold handles on the one shared pool: {:?}",
        svc.pool()
    );
    for _ in 0..ITERS {
        for id in 0..SLOTS as u64 {
            step(&mut svc, id, regions[id as usize]);
        }
    }
    // The fleet snapshot renders mid-flight, with every tenant healthy.
    let text = svc.render_metrics();
    assert!(text.starts_with(&format!("fleet tenants={SLOTS}/{SLOTS}")), "{text}");
    assert!(!text.contains("DEGRADED"), "{text}");

    // Byte budgets: every tenant stayed within its apportioned share.
    let trie_share = serve_config().trie_share().unwrap();
    for m in svc.all_tenant_metrics() {
        assert!(
            m.peak_trie_bytes <= trie_share,
            "{}: peak trie bytes {} exceed the {trie_share}-byte share",
            m.stream,
            m.peak_trie_bytes
        );
    }

    for id in 0..SLOTS as u64 {
        let crowded = harvest(&mut svc, id);
        let alone = solo(id, ITERS);
        assert_eq!(crowded.0, alone.0, "tenant {id} ({}): op digest", mode(id).label());
        assert_eq!(crowded.1, alone.1, "tenant {id} ({}): report", mode(id).label());
        assert_eq!(crowded.2, alone.2, "tenant {id} ({}): stats", mode(id).label());
    }
}

#[test]
fn traced_tenants_actually_replay_over_the_shared_pool() {
    // Sharing must not cost the paper's point: automatically traced
    // tenants replay most of their stream.
    let mut svc = TraceService::new(serve_config());
    let traced: Vec<u64> =
        (0..SLOTS as u64).filter(|id| matches!(mode(*id), Tracing::Auto(_))).collect();
    assert!(traced.len() >= 4, "the tenant mix keeps auto in the majority");
    let regions: Vec<_> = traced.iter().map(|&id| enroll(&mut svc, id)).collect();
    for _ in 0..ITERS {
        for (i, &id) in traced.iter().enumerate() {
            step(&mut svc, id, regions[i]);
        }
    }
    for &id in &traced {
        let (_, _, stats) = harvest(&mut svc, id);
        assert!(
            stats.tasks_replayed > stats.tasks_total / 4,
            "tenant {id}: substantially replayed, got {stats}"
        );
    }
}

#[test]
fn tiny_queue_depth_draws_busy_pushback() {
    let mut svc =
        TraceService::new(ServeConfig::default().with_tenant_slots(2).with_max_buffered_ops(0));
    svc.register(StreamId(0), Tracing::Auto(small_auto())).unwrap();
    let a = svc.create_region(StreamId(0), 1).unwrap();
    let b = svc.create_region(StreamId(0), 1).unwrap();
    let mut busy = 0u64;
    for _ in 0..200 {
        let body = vec![
            TaskDesc::new(TaskKindId(0)).reads(a).writes(b),
            TaskDesc::new(TaskKindId(1)).reads(b).writes(a),
        ];
        match svc.submit(StreamId(0), body) {
            Ok(()) => svc.mark_iteration(StreamId(0)).unwrap(),
            Err(ServeError::Busy { stream, buffered, limit }) => {
                assert_eq!((stream, limit), (StreamId(0), 0));
                assert!(buffered > 0);
                busy += 1;
                svc.flush(StreamId(0)).unwrap();
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(busy > 0, "a replaying tenant at depth 0 must be pushed back");
    assert_eq!(svc.tenant_metrics(StreamId(0)).unwrap().busy_rejections, busy);
    assert!(svc.render_metrics().contains(&format!("busy_rejections={busy}")));
}

#[test]
fn template_byte_shares_are_enforced_by_eviction() {
    // Two slots over a 2 × 2048-byte fleet ceiling: a phase-shifting
    // tenant records far more template bytes than its 2048-byte share
    // and must be held to it by eviction.
    let mut svc = TraceService::new(
        ServeConfig::default().with_tenant_slots(2).with_max_template_bytes(2 * 2048),
    );
    svc.register(StreamId(0), Tracing::Auto(small_auto())).unwrap();
    let a = svc.create_region(StreamId(0), 1).unwrap();
    let b = svc.create_region(StreamId(0), 1).unwrap();
    for i in 0..600u32 {
        let phase = i / 75;
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
    assert!(m.stats.templates_evicted > 0, "the byte share forced eviction: {}", m.stats);
    assert!(
        m.stats.template_bytes <= 2048,
        "resident template bytes within the share: {}",
        m.stats.template_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings × tracing modes: however tenant steps are
    /// shuffled against each other, each tenant is bit-identical to its
    /// solo run. `picks` chooses which tenant advances next; tenants
    /// that finish early are skipped, and everyone is driven to exactly
    /// `iters` iterations at the end.
    #[test]
    fn random_interleavings_are_bit_identical_to_solo(
        ids in proptest::collection::vec(0u64..10, 3..4),
        picks in proptest::collection::vec(0usize..3, 0..150),
        iters in 20usize..40,
    ) {
        // Distinct stream ids (tenant programs differ by id, so clashes
        // would register duplicates).
        let mut ids = ids;
        for k in 1..ids.len() {
            while ids[..k].contains(&ids[k]) {
                ids[k] = (ids[k] + 1) % 10;
            }
        }
        let mut svc = TraceService::new(serve_config());
        let regions: Vec<_> = ids.iter().map(|&id| enroll(&mut svc, id)).collect();
        let mut done = vec![0usize; ids.len()];
        for pick in picks {
            if done[pick] < iters {
                step(&mut svc, ids[pick], regions[pick]);
                done[pick] += 1;
            }
        }
        for (k, &id) in ids.iter().enumerate() {
            for _ in done[k]..iters {
                step(&mut svc, id, regions[k]);
            }
        }
        for (k, &id) in ids.iter().enumerate() {
            let crowded = harvest(&mut svc, id);
            let alone = solo(id, iters);
            prop_assert_eq!(crowded.0, alone.0, "tenant {} ({}): digest", id, mode(id).label());
            prop_assert_eq!(crowded.1, alone.1, "tenant {} ({}): report", id, mode(id).label());
            prop_assert_eq!(crowded.2, alone.2, "tenant {} ({}): stats", id, mode(id).label());
            let _ = k;
        }
    }
}
