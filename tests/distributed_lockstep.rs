//! Control-replication integration: distributed Apophenia must make
//! identical decisions on every node, on real workload streams, under
//! skewed asynchronous-mining latencies (§5.1).

use apophenia::{Config, ConfigError, DelayModel, DistributedAutoTracer};
use tasksim::cost::Micros;
use tasksim::ids::TaskKindId;
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::{RuntimeConfig, RuntimeError};
use tasksim::task::TaskDesc;

fn small_config() -> Config {
    Config::standard().with_min_trace_length(4).with_batch_size(512).with_multi_scale_factor(64)
}

/// Drives an S3D-shaped stream (RHS body + periodic hand-off) through a
/// distributed deployment.
fn drive_s3d_like(d: &mut DistributedAutoTracer, iters: usize) {
    let field = d.create_region(1);
    let rhs = d.create_region(1);
    for i in 0..iters {
        for k in 0..24u32 {
            d.execute_task(
                TaskDesc::new(TaskKindId(k)).reads(field).read_writes(rhs).gpu_time(Micros(500.0)),
            )
            .unwrap();
        }
        if i < 10 || i % 10 == 0 {
            d.execute_task(
                TaskDesc::new(TaskKindId(99)).read_writes(field).gpu_time(Micros(100.0)),
            )
            .unwrap();
        }
        d.mark_iteration();
    }
    d.flush().unwrap();
}

#[test]
fn four_nodes_identical_logs_under_skew() {
    let mut d = DistributedAutoTracer::new(
        RuntimeConfig::multi_node(4, 4),
        small_config().with_agreed_ingest(16, DelayModel::new(2024, 100)),
    );
    drive_s3d_like(&mut d, 200);
    d.check_lockstep().expect("all nodes agree");
    let s = d.node_runtime(0).stats();
    assert!(s.trace_replays > 0, "tracing happened: {s}");
    for n in 1..d.node_count() {
        assert_eq!(d.node_runtime(n).stats(), s, "node {n} stats equal");
    }
}

#[test]
fn agreement_interval_adapts_and_stops_stalling() {
    let mut d = DistributedAutoTracer::new(
        RuntimeConfig::multi_node(2, 4),
        small_config().with_agreed_ingest(2, DelayModel::new(7, 300)),
    );
    drive_s3d_like(&mut d, 150);
    let stats_mid = d.agreement_stats();
    assert!(stats_mid.interval > 2, "interval adapted: {stats_mid:?}");
    // Continue: no further waits once adapted.
    drive_s3d_like(&mut d, 150);
    let stats_end = d.agreement_stats();
    assert_eq!(stats_mid.waits, stats_end.waits, "steady state reached: {stats_end:?}");
    d.check_lockstep().expect("lock-step maintained");
}

#[test]
fn capped_two_node_deployment_evicts_in_lockstep() {
    // The bounded-memory lifecycle must be §5.1-safe: with every store
    // capped and a phase-shifting stream forcing evictions, a capped
    // 2-node deployment under skewed mining delays stays in lock-step
    // and evicts identically on both nodes.
    let config = small_config().with_max_candidates(8).with_max_trie_nodes(512);
    let mut d = DistributedAutoTracer::new(
        RuntimeConfig::multi_node(2, 4).with_max_templates(4),
        config.with_agreed_ingest(8, DelayModel::new(2025, 120)),
    );
    let a = d.create_region(1);
    let b = d.create_region(1);
    for phase in 0..4u32 {
        for _ in 0..250 {
            for k in 0..4 {
                d.execute_task(
                    TaskDesc::new(TaskKindId(phase * 100 + k))
                        .reads(a)
                        .writes(b)
                        .gpu_time(Micros(50.0)),
                )
                .unwrap();
            }
            d.mark_iteration();
        }
    }
    d.flush().unwrap();
    d.check_lockstep().expect("capped nodes stay in lock-step");
    let r0 = d.node_replayer_stats(0);
    let r1 = d.node_replayer_stats(1);
    assert_eq!(r0, r1, "eviction bookkeeping identical across nodes");
    assert!(r0.evicted_candidates > 0, "phase shifts forced evictions: {r0:?}");
    assert!(r0.candidates <= 8, "candidate cap held: {r0:?}");
    let s = d.node_runtime(0).stats();
    assert!(s.trace_replays > 0, "tracing still effective under caps: {s}");
    assert_eq!(d.node_runtime(1).stats(), s);
}

#[test]
fn drained_deployment_stays_checkable_and_matches_full() {
    // Under `LogRetention::Drain` no node stores any ops, yet lock-step
    // must stay verifiable (via the order-sensitive stream digest) and
    // the finished report must be bit-identical to a full-retention run.
    use tasksim::exec::LogRetention;
    use tasksim::issuer::TaskIssuer as _;
    let run = |retention: LogRetention| {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 4).with_log_retention(retention),
            small_config().with_agreed_ingest(16, DelayModel::new(2024, 100)),
        );
        drive_s3d_like(&mut d, 150);
        d.check_lockstep().expect("lock-step verifiable under any retention");
        let resident = d.log_stats();
        (Box::new(d).finish().expect("finish"), resident)
    };
    let (full, full_resident) = run(LogRetention::Full);
    let (drained, drain_resident) = run(LogRetention::Drain);
    assert_eq!(full.report, drained.report, "retention never changes the distributed report");
    assert_eq!(full.stats, drained.stats);
    assert!(drained.log.is_none());
    assert_eq!(full_resident.pushed, drain_resident.pushed, "same stream counted both ways");
    assert_eq!(
        full_resident.retained as u64, full_resident.pushed,
        "full retention keeps every op"
    );
}

#[test]
fn digest_catches_divergence_when_ops_are_drained() {
    // Two *independent* drained runs fed different streams must carry
    // different digests — the property check_lockstep's drained-mode
    // comparison rests on.
    use tasksim::exec::LogRetention;
    use tasksim::issuer::TaskIssuer as _;
    let run = |kinds: u32| {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(1, 4).with_log_retention(LogRetention::Drain),
            small_config().with_agreed_ingest(16, DelayModel::new(0, 0)),
        );
        let a = d.create_region(1);
        let b = d.create_region(1);
        for k in 0..kinds {
            d.execute_task(TaskDesc::new(TaskKindId(k % 7)).reads(a).writes(b)).unwrap();
        }
        d.flush().unwrap();
        d.node_runtime(0).log().digest()
    };
    assert_ne!(run(40), run(41), "streams of different shape digest differently");
    assert_eq!(run(40), run(40), "digests are deterministic");
}

#[test]
fn distributed_matches_single_node_decisions_when_mining_instant() {
    // With zero mining delay and the same ingestion interval the
    // distributed deployment's node 0 must behave exactly like a
    // single-node deployment.
    let mk = |nodes: u32| {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(nodes, 4),
            small_config().with_agreed_ingest(16, DelayModel::new(0, 0)),
        );
        drive_s3d_like(&mut d, 100);
        (d.node_runtime(0).stats().trace_replays, d.node_runtime(0).stats().tasks_replayed)
    };
    // Note: analysis costs differ with node count but *decisions* do not.
    assert_eq!(mk(1), mk(4));
}

/// FNV-1a over bytes: the fingerprint behind the pinned values below.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Bit-exact fingerprint of a report: every iteration finish time and
/// stage total, by `f64::to_bits`.
fn report_fingerprint(r: &tasksim::exec::SimReport) -> u64 {
    let totals = [&r.total, &r.analysis_busy, &r.exec_busy, &r.exec_stall];
    let bits: Vec<u8> =
        r.iteration_finish.iter().chain(totals).flat_map(|m| m.0.to_bits().to_le_bytes()).collect();
    fnv(&bits)
}

/// What a finished deployment decided, in pinnable form: op digest,
/// report and stats fingerprints, and the agreement counters
/// `(ingests, waits, stall_ops, interval)`.
fn decisions(d: DistributedAutoTracer) -> (u64, u64, u64, (u64, u64, u64, u64)) {
    let a = d.agreement_stats();
    let digest = d.op_digest();
    let artifacts = Box::new(d).finish().expect("finish");
    let stats = fnv(format!("{:?}", artifacts.stats).as_bytes());
    (
        digest,
        report_fingerprint(&artifacts.report),
        stats,
        (a.ingests, a.waits, a.stall_ops, a.interval),
    )
}

#[test]
fn agreement_decisions_are_pinned() {
    // Op digests, report and stats fingerprints and agreement counters of
    // the deployments above, recorded from the original stand-alone
    // distributed front-end before it became N engines sharing one ingest
    // schedule. Every decision — which batch ingests at which operation,
    // who stalls, when the interval doubles — must be unchanged.
    use tasksim::exec::LogRetention;
    let deploy = |rt: RuntimeConfig, cfg: Config, seed: u64, max_delay: u64, interval: u64| {
        DistributedAutoTracer::new(
            rt,
            cfg.with_agreed_ingest(interval, DelayModel::new(seed, max_delay)),
        )
    };

    let mut d = deploy(RuntimeConfig::multi_node(4, 4), small_config(), 2024, 100, 16);
    drive_s3d_like(&mut d, 200);
    assert_eq!(
        decisions(d),
        (0x25d3_8149_5ea1_f169, 0xe55a_b2f4_88dc_55dc, 0x5ede_5cbe_7e35_e4cf, (284, 12, 391, 256)),
        "four nodes under skew"
    );

    let mut d = deploy(RuntimeConfig::multi_node(2, 4), small_config(), 7, 300, 2);
    drive_s3d_like(&mut d, 150);
    let a = d.agreement_stats();
    assert_eq!((a.ingests, a.waits, a.stall_ops, a.interval), (80, 14, 1256, 1024), "adapting");
    drive_s3d_like(&mut d, 150);
    assert_eq!(
        decisions(d),
        (
            0xc4d7_aeee_2933_ceae,
            0xd19f_be35_123e_928a,
            0x976d_d8c0_040a_7400,
            (162, 14, 1256, 1024)
        ),
        "adapted"
    );

    let capped = small_config().with_max_candidates(8).with_max_trie_nodes(512);
    let mut d = deploy(RuntimeConfig::multi_node(2, 4).with_max_templates(4), capped, 2025, 120, 8);
    let a = d.create_region(1);
    let b = d.create_region(1);
    for phase in 0..4u32 {
        for _ in 0..250 {
            for k in 0..4 {
                d.execute_task(
                    TaskDesc::new(TaskKindId(phase * 100 + k))
                        .reads(a)
                        .writes(b)
                        .gpu_time(Micros(50.0)),
                )
                .unwrap();
            }
            d.mark_iteration();
        }
    }
    d.flush().unwrap();
    let r = d.node_replayer_stats(0);
    assert_eq!((r.evicted_candidates, r.candidates), (24, 7), "capped eviction bookkeeping");
    assert_eq!(
        decisions(d),
        (0x7a3b_e5f0_e56e_78ba, 0x4329_083e_826f_c475, 0x08a7_ada5_75b5_9a92, (116, 8, 387, 256)),
        "capped"
    );

    for retention in [LogRetention::Full, LogRetention::Drain] {
        let rt = RuntimeConfig::multi_node(2, 4).with_log_retention(retention);
        let mut d = deploy(rt, small_config(), 2024, 100, 16);
        drive_s3d_like(&mut d, 150);
        assert_eq!(
            decisions(d),
            (
                0xbcdd_5671_03e9_e9cf,
                0xd30f_2308_1852_bd35,
                0x10af_871c_4f0b_eeb8,
                (104, 7, 178, 256)
            ),
            "{retention:?}"
        );
    }

    for (kinds, pinned) in [
        (
            40u32,
            (0xac80_2eeb_266d_4cd6, 0x7303_7424_cefd_0f26, 0x2a3a_846f_116d_4f92, (0, 0, 0, 16)),
        ),
        (41, (0x8ee4_0b07_d20e_ac56, 0x4b77_3786_2aaa_157a, 0x1097_89f8_af61_4234, (0, 0, 0, 16))),
    ] {
        let rt = RuntimeConfig::multi_node(1, 4).with_log_retention(LogRetention::Drain);
        let mut d = deploy(rt, small_config(), 0, 0, 16);
        let a = d.create_region(1);
        let b = d.create_region(1);
        for k in 0..kinds {
            d.execute_task(TaskDesc::new(TaskKindId(k % 7)).reads(a).writes(b)).unwrap();
        }
        d.flush().unwrap();
        assert_eq!(decisions(d), pinned, "{kinds} short-stream tasks");
    }

    for (nodes, pinned) in [
        (
            1u32,
            (0x038a_ec28_f3b3_77da, 0xa229_71a4_59af_a8be, 0x9860_1386_c6f2_d22c, (37, 0, 0, 16)),
        ),
        (4, (0x038a_ec28_f3b3_77da, 0xb1ca_6bf5_c43b_2ae5, 0x9860_1386_c6f2_d22c, (148, 0, 0, 16))),
    ] {
        let mut d = deploy(RuntimeConfig::multi_node(nodes, 4), small_config(), 0, 0, 16);
        drive_s3d_like(&mut d, 100);
        assert_eq!(decisions(d), pinned, "{nodes} nodes, instant mining");
    }
}

#[test]
fn async_mining_under_the_agreed_schedule_stays_in_lockstep() {
    // Regression: the agreed ingestion point used to be stamped when a
    // batch was *polled*, which under asynchronous mining depends on
    // worker timing, so four nodes at interval 1 diverged within about a
    // hundred operations. The point is now stamped from the mined slice
    // and the agreed schedule mines inline (its latency is the delay
    // model's), and validation rejects the combination outright.
    let config = small_config()
        .with_agreed_ingest(1, DelayModel::new(2024, 100))
        .with_async_mining()
        .with_mining_threads(2);
    let err = DistributedAutoTracer::try_new(RuntimeConfig::multi_node(4, 4), config.clone())
        .expect_err("validation rejects asynchronous mining under the agreed schedule");
    assert!(
        matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("synchronous mining")),
        "typed error: {err}"
    );
    assert_eq!(config.validate(), Err(ConfigError::AgreedAsyncMining));

    // Built unchecked, the deployment still cannot diverge.
    let mut d = DistributedAutoTracer::new(RuntimeConfig::multi_node(4, 4), config);
    drive_s3d_like(&mut d, 300);
    d.check_lockstep().expect("async config under the agreed schedule stays in lock-step");
    assert!(d.agreement_stats().ingests > 0, "batches were agreed on");
}
