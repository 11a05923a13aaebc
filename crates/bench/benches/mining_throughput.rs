//! Throughput of the mining hot path (§4.2's complexity budget, end to
//! end): suffix-array backends raced against each other, and the finder
//! pipeline across mining modes and worker-pool sizes.
//!
//! Two layers are measured:
//!
//! * `suffix_backend` — bare `SuffixArray::build_with` on SA-IS (linear
//!   time, the default) vs prefix doubling (`O(n log n)`), across buffer
//!   sizes and stream shapes. On repeat-dense streams (periodic,
//!   workload — the shapes worth mining) SA-IS should win and the gap
//!   should widen with the buffer; the ≥64k-token rows are the
//!   acceptance check. On the all-distinct `aperiodic` stream doubling
//!   legitimately wins: every rank is distinct after one round, so its
//!   early exit beats SA-IS's full induced sort.
//! * `finder_pipeline` — a full `TraceFinder` fed a token stream and
//!   drained: inline (`Sync`) mining vs the `Async` worker pool with 1, 2,
//!   and 4 threads. Feeding is sequential either way; the pool overlaps
//!   mining with feeding and with itself, so wall time should drop as
//!   threads are added.
//!
//! Streams: `periodic` (repeat-dense worst case), `aperiodic` (random —
//! no repeats, candidate collection is cheap but sorting is not), and
//! `workload` (task hashes recorded from the NoisyLoop workload driven
//! through an untraced `Session` — realistic alphabet and noise).
//!
//! Besides the criterion timings, the bench prints the
//! `bench::report::render_mining_throughput` table so the perf trajectory
//! of the hot path is recorded run over run.

use apophenia::{Config, Session, TraceFinder};
use bench::{render_mining_throughput, MiningThroughputRow};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use substrings::suffix_array::{SuffixArray, SuffixBackend};
use tasksim::task::TaskHash;
use workloads::driver::{AppParams, ProblemSize, Workload};
use workloads::synthetic::NoisyLoop;

/// `--test` smoke mode: shrink the hand-rolled report so CI stays fast
/// (the criterion groups already run single-sample in this mode).
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn periodic_stream(n: usize) -> Vec<u64> {
    (0..n).map(|i| (i % 120) as u64).collect()
}

fn aperiodic_stream(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect()
}

/// Task hashes recorded from a real workload stream: NoisyLoop driven
/// through an untraced Session, hashes read back out of the op log.
fn workload_stream(n: usize) -> Vec<u64> {
    let wl = NoisyLoop::default();
    let params = AppParams {
        nodes: 1,
        gpus_per_node: 1,
        size: ProblemSize::Small,
        iters: n / wl.period + 2,
    };
    let mut issuer = Session::builder().build();
    wl.run(issuer.as_mut(), &params, false).expect("workload runs untraced");
    let artifacts = issuer.finish().expect("untraced log");
    let mut s: Vec<u64> = artifacts.log().task_records().map(|r| r.hash.0).collect();
    s.truncate(n);
    s
}

fn streams(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("periodic", periodic_stream(n)),
        ("aperiodic", aperiodic_stream(n)),
        ("workload", workload_stream(n)),
    ]
}

/// Finder configuration used by the pipeline benchmarks: a production-ish
/// buffer with a mining job every 512 tokens.
fn finder_config(n: usize) -> Config {
    Config::standard()
        .with_batch_size(4096.min(n))
        .with_multi_scale_factor(512)
        .with_min_trace_length(25)
}

/// Feeds the whole stream through a fresh finder and drains it.
fn mine_stream(config: &Config, s: &[u64]) -> usize {
    let mut f = TraceFinder::new(config);
    for &t in s {
        f.record(TaskHash(t));
    }
    f.drain_blocking().len()
}

fn bench_suffix_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("suffix_backend");
    for &n in &[16_384usize, 65_536, 131_072] {
        for (stream, s) in streams(n) {
            g.throughput(Throughput::Elements(n as u64));
            for (label, backend) in
                [("doubling", SuffixBackend::Doubling), ("sais", SuffixBackend::Sais)]
            {
                g.bench_with_input(
                    BenchmarkId::new(&format!("{label}/{stream}"), n),
                    &s,
                    |b, s| b.iter(|| SuffixArray::build_with(s, backend)),
                );
            }
        }
    }
    g.finish();
}

fn bench_finder_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("finder_pipeline");
    g.sample_size(10);
    let n = 65_536;
    for (stream, s) in streams(n) {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new(&format!("sync/{stream}"), n), &s, |b, s| {
            b.iter(|| mine_stream(&finder_config(n), s))
        });
        for threads in [1usize, 2, 4] {
            let config = finder_config(n).with_async_mining().with_mining_threads(threads);
            g.bench_with_input(
                BenchmarkId::new(&format!("pool{threads}/{stream}"), n),
                &s,
                |b, s| b.iter(|| mine_stream(&config, s)),
            );
        }
    }
    g.finish();
}

/// Best-of-`reps` wall time of `work`, in seconds.
fn best_secs<O>(reps: usize, mut work: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(work());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Prints the recorded-trajectory table (`report::render_mining_throughput`).
fn report_table(_c: &mut Criterion) {
    let (n, reps) = if smoke() { (8_192, 1) } else { (65_536, 3) };
    let mut rows = Vec::new();
    for (stream, s) in streams(n) {
        for (label, backend) in
            [("doubling", SuffixBackend::Doubling), ("sais", SuffixBackend::Sais)]
        {
            let secs = best_secs(reps, || SuffixArray::build_with(&s, backend));
            rows.push(MiningThroughputRow {
                stream,
                config: format!("suffix/{label}"),
                tokens: n,
                threads: 1,
                mtok_per_sec: n as f64 / secs / 1e6,
            });
        }
        let secs = best_secs(reps, || mine_stream(&finder_config(n), &s));
        rows.push(MiningThroughputRow {
            stream,
            config: "finder/sync".into(),
            tokens: n,
            threads: 1,
            mtok_per_sec: n as f64 / secs / 1e6,
        });
        for threads in [1usize, 2, 4] {
            let config = finder_config(n).with_async_mining().with_mining_threads(threads);
            let secs = best_secs(reps, || mine_stream(&config, &s));
            rows.push(MiningThroughputRow {
                stream,
                config: "finder/pool".into(),
                tokens: n,
                threads,
                mtok_per_sec: n as f64 / secs / 1e6,
            });
        }
    }
    print!("{}", render_mining_throughput(&rows));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_suffix_backends, bench_finder_pipeline, report_table
}
criterion_main!(benches);
