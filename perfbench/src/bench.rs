//! One benchmark run: record the stream, measure, check, report.

use crate::calib;
use crate::session::{self, SessionRun};
use crate::spans::Name;
use crate::stream::{Stream, Workload};
use crate::traced::{self, TracedRun};
use apophenia::Tracing;
use std::time::Duration;
use tasksim::exec::SimReport;
use tasksim::stats::RuntimeStats;

/// End-to-end metrics (reported with tracing off), as (name, unit).
///
/// Issue cost is gated as ratios to work timed seconds apart: absolute
/// wall times of these memory-bound streams drift by a fifth or more with
/// the load on a shared host, while both sides of such a ratio drift
/// together. `overhead_x`, `cpu_overhead_x` and the issue percentiles
/// divide the automatic runs by the untraced runs that bracket them, so
/// they measure what tracing adds; `untraced_cal_x` divides the untraced
/// runs by the fixed calibration kernel, so a slower shared runtime path
/// (which lowers the other ratios) raises it. The absolute figures are
/// printed as notes and reported per layer (`session.*`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("overhead_x", "x"),
    ("cpu_overhead_x", "x"),
    ("untraced_cal_x", "x"),
    ("issue_p50_x", "x"),
    ("issue_p99_x", "x"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (reported by the traced run), as (name, unit).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("session.tasks_per_s", "1/s"),
    ("session.issue_p50_us", "us"),
    ("session.issue_p99_us", "us"),
    ("hash.ns_per_task", "ns/task"),
    ("finder.record_ns_per_task", "ns/task"),
    ("finder.job_us_p50", "us"),
    ("finder.poll_ns_per_task", "ns/task"),
    ("finder.quiesce_wait_ns_per_task", "ns/task"),
    ("finder.jobs", "count"),
    ("finder.novel_batch_frac", "ratio"),
    ("finder.allocs_per_task", "allocs/task"),
    ("replayer.self_ns_per_task", "ns/task"),
    ("replayer.late_over_early", "ratio"),
    ("replayer.tenth01_ns_per_task", "ns/task"),
    ("replayer.tenth02_ns_per_task", "ns/task"),
    ("replayer.tenth03_ns_per_task", "ns/task"),
    ("replayer.tenth04_ns_per_task", "ns/task"),
    ("replayer.tenth05_ns_per_task", "ns/task"),
    ("replayer.tenth06_ns_per_task", "ns/task"),
    ("replayer.tenth07_ns_per_task", "ns/task"),
    ("replayer.tenth08_ns_per_task", "ns/task"),
    ("replayer.tenth09_ns_per_task", "ns/task"),
    ("replayer.tenth10_ns_per_task", "ns/task"),
    ("replayer.ingest_us_per_batch", "us"),
    ("replayer.peak_pending_tasks", "count"),
    ("replayer.peak_trie_bytes", "bytes"),
    ("replayer.peak_candidates", "count"),
    ("replayer.traced_frac", "ratio"),
    ("replayer.allocs_per_task", "allocs/task"),
    ("runtime.fresh_ns_per_task", "ns/task"),
    ("runtime.record_ns_per_task", "ns/task"),
    ("runtime.replay_ns_per_task", "ns/task"),
    ("runtime.end_trace_us", "us"),
    ("runtime.peak_template_bytes", "bytes"),
    ("runtime.replayed_fraction", "ratio"),
    ("runtime.allocs_per_task", "allocs/task"),
    ("exec.ns_per_op", "ns/op"),
    ("exec.peak_retained", "count"),
    ("exec.sim_iters_per_s", "iter/s"),
    ("trace.overhead_ns_per_task", "ns/task"),
    ("trace.residual_ns_per_task", "ns/task"),
    ("trace.issue_wall_ns_per_task", "ns/task"),
];

/// Share of the application calls' wall time (outer clock) that the root
/// spans may miss: the span recorder's own work before a span's first
/// clock read and after its last.
const SPAN_GAP_TOLERANCE: f64 = 0.2;

/// `setup_s` samples taken after each automatic repetition, so the
/// samples spread over the whole run.
const SETUP_SAMPLES_PER_REP: usize = 3;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Measurement budget in seconds; at least one repetition runs.
    pub seconds: f64,
    /// Report per-layer metrics from traced runs instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Iterations to record (the workload's default when `None`).
    pub iters: Option<usize>,
    /// Where to write the last traced run's spans, if anywhere.
    pub spans: Option<std::path::PathBuf>,
}

/// A finished run: the result line plus human-readable notes.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Calls attempted in the measured section.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// (name, value, unit) in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the human reader (sample counts, failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result as one JSON object on one line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Collects failed correctness checks.
#[derive(Debug, Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; `None` for no
/// samples. Reorders `v`.
fn quantile<T: Copy + PartialOrd>(v: &mut [T], q: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let (_, x, _) = v.select_nth_unstable_by(rank - 1, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(*x)
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5).unwrap_or(0.0)
}

/// The mean over the run's streams of each stream's median over its
/// repetitions (`per_rep[i]` belongs to stream `i % STREAMS_PER_RUN`).
/// The median drops the host's slow and fast moments; the mean weighs
/// every stream the same, where a median across streams would jump
/// between their different amounts of work.
fn stream_mean(per_rep: &[f64]) -> f64 {
    let medians = (0..STREAMS_PER_RUN)
        .map(|k| median(per_rep.iter().skip(k).step_by(STREAMS_PER_RUN).copied().collect()));
    medians.sum::<f64>() / STREAMS_PER_RUN as f64
}

/// The `q`-quantile of pooled latencies in ns, in µs.
fn latency_us(ns: &mut [u32], q: f64) -> f64 {
    quantile(ns, q).map_or(0.0, |x| f64::from(x) * 1e-3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Streams recorded per run, each from its own seed derived from
/// `--seed`; repetitions rotate through them. On `s3d` and `cfd` the
/// seeded kind bijection changes mining tie-breaks and with them the work
/// done, so a run averages a few streams rather than resting on one.
const STREAMS_PER_RUN: usize = 8;

/// The seed of stream `k` of a run seeded with `seed`.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(STREAMS_PER_RUN as u64).wrapping_add(k as u64)
}

/// What every run of one stream must reproduce: the traced assembly's
/// digest, report and counters.
struct Reference {
    digest: u64,
    report: SimReport,
    stats: RuntimeStats,
}

/// Issuer calls attempted and failed over the measured repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// The `Session` repetitions' measurements (the untraced side stays
/// empty in per-layer mode).
#[derive(Default)]
struct Sessions {
    auto_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    overhead: Vec<f64>,
    cpu_overhead: Vec<f64>,
    untraced_cal: Vec<f64>,
    p50_ratio: Vec<f64>,
    p99_ratio: Vec<f64>,
    heap_mib: Vec<f64>,
    /// Every automatic `execute_task` latency of the run, pooled.
    auto_ns: Vec<u32>,
    /// Every untraced `execute_task` latency of the run, pooled.
    untraced_ns: Vec<u32>,
    setup: Vec<f64>,
    /// Tasks issued by the automatic runs.
    tasks: u64,
    /// Seconds the automatic runs spent in `quiesce` calls.
    quiesce_s: f64,
    /// CPU seconds of the automatic runs.
    cpu_s: f64,
}

impl Sessions {
    fn add_auto(&mut self, mut auto: SessionRun, tasks: u64) -> f64 {
        self.auto_wall.push(auto.wall_s);
        self.heap_mib.push(auto.peak_heap_bytes as f64 / f64::from(1 << 20));
        self.auto_ns.append(&mut auto.issue_ns);
        self.tasks += tasks;
        self.quiesce_s += auto.quiesce_s;
        self.cpu_s += auto.cpu_s;
        auto.wall_s
    }

    /// Issued tasks ÷ wall time, pooled over every automatic run: the
    /// host's slow and fast periods weigh in by the time they last,
    /// instead of a median flipping between them.
    fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.auto_wall.iter().sum::<f64>()
    }
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let iters = opts.iters.unwrap_or_else(|| w.default_iters());
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut streams = Vec::with_capacity(STREAMS_PER_RUN);
    for k in 0..STREAMS_PER_RUN {
        let seed = stream_seed(opts.seed, k);
        let stream = w.record(seed, iters);
        let digest = stream.digest();
        checks.expect(w.record(seed, iters).digest() == digest, || {
            format!("stream {k}: recording is not a function of the seed")
        });
        notes.push(format!(
            "stream {k}: {} seed {seed}, {} iterations, {} tasks, {} calls, digest {digest:016x}",
            w.name(),
            stream.iterations,
            stream.tasks,
            stream.calls.len()
        ));
        streams.push(stream);
    }

    // One discarded sample warms the allocator and the thread spawner,
    // one discarded kernel run faults in the kernel's memory; the
    // reference traced runs warm everything else.
    session::setup_samples(w, 1);
    let mut kernel = calib::Kernel::default();
    kernel.time_s();
    let mut span_gaps = Vec::new();
    let references: Vec<Reference> = streams
        .iter()
        .map(|s| {
            let t = traced::run(w, s);
            span_gaps.push(check_traced(&mut checks, s, &t));
            Reference { digest: t.digest, report: t.report, stats: t.stats }
        })
        .collect();

    // Each repetition issues one stream: untraced, automatic and untraced
    // again (end-to-end), or automatic then traced (per layer). The run
    // stops after a whole rotation once the budget is spent, so every
    // stream weighs the same.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = crate::now();
    let mut tally = Tally::default();
    let mut sessions = Sessions::default();
    // Per-layer metrics of every traced run; only the last run's spans
    // are kept, for the span file.
    let mut per_run: Vec<Vec<f64>> = Vec::new();
    let mut last_traced: Option<TracedRun> = None;
    for rep in 0.. {
        let k = rep % STREAMS_PER_RUN;
        let (s, r) = (&streams[k], &references[k]);
        if opts.trace {
            let auto = measured(w, s, Some(r), &mut checks, &mut tally);
            let auto_wall = sessions.add_auto(auto, s.tasks);
            let t = traced::run(w, s);
            span_gaps.push(check_traced(&mut checks, s, &t));
            check_same(&mut checks, r, t.digest, &t.report, &t.stats, "traced run");
            tally.attempted += t.attempted;
            tally.failed += t.failed;
            per_run.push(layer_metrics(&t, auto_wall, iters));
            last_traced = Some(t);
        } else {
            let cal_before = kernel.time_s();
            let mut before = measured(w, s, None, &mut checks, &mut tally);
            let mut auto = measured(w, s, Some(r), &mut checks, &mut tally);
            let mut after = measured(w, s, None, &mut checks, &mut tally);
            let cal_after = kernel.time_s();
            // Quiesce waits are left out of the wall-time ratio: they are
            // the mining worker's backlog on the other core, which the
            // host slows and speeds independently of the issuing core.
            // The worker's work itself counts in `cpu_overhead_x`.
            let issuing_s = auto.wall_s - auto.quiesce_s;
            let untraced_s = before.wall_s + after.wall_s;
            sessions.overhead.push(2.0 * issuing_s / untraced_s);
            sessions.cpu_overhead.push(2.0 * auto.cpu_s / (before.cpu_s + after.cpu_s));
            sessions.untraced_cal.push(untraced_s / (cal_before + cal_after));
            let from = sessions.untraced_ns.len();
            sessions.untraced_ns.append(&mut before.issue_ns);
            sessions.untraced_ns.append(&mut after.issue_ns);
            let untraced_ns = &mut sessions.untraced_ns[from..];
            for (q, ratios) in [(0.5, &mut sessions.p50_ratio), (0.99, &mut sessions.p99_ratio)] {
                ratios.push(ratio(latency_us(&mut auto.issue_ns, q), latency_us(untraced_ns, q)));
            }
            sessions.add_auto(auto, s.tasks);
            sessions.untraced_wall.extend([before.wall_s, after.wall_s]);
            sessions.setup.extend(session::setup_samples(w, SETUP_SAMPLES_PER_REP));
        }
        if (rep + 1) % STREAMS_PER_RUN == 0 && start.elapsed() >= budget {
            break;
        }
    }

    notes.push(format!(
        "span accounting: the spans of the application calls miss at most {:.2}% of their wall \
         time by the outer clock (limit {}%)",
        100.0 * span_gaps.iter().copied().fold(0.0, f64::max),
        100.0 * SPAN_GAP_TOLERANCE
    ));
    let metrics = if opts.trace {
        if let (Some(path), Some(last)) = (&opts.spans, &last_traced) {
            match write_spans(path, w, last) {
                Ok(file) => notes.push(format!("spans of the last traced run: {}", file.display())),
                Err(e) => checks.expect(false, || format!("writing spans: {e}")),
            }
        }
        notes.push(format!(
            "per-layer metrics: session.* pool {} automatic sessions, the rest are medians of {} \
             traced runs",
            sessions.auto_wall.len(),
            per_run.len()
        ));
        let mut values = vec![
            sessions.tasks_per_s(),
            latency_us(&mut sessions.auto_ns, 0.5),
            latency_us(&mut sessions.auto_ns, 0.99),
        ];
        values
            .extend((0..per_run[0].len()).map(|i| median(per_run.iter().map(|m| m[i]).collect())));
        PER_LAYER.iter().zip(values).map(|((name, unit), v)| (*name, v, *unit)).collect()
    } else {
        end_to_end(sessions, &mut notes)
    };

    for (name, value, _) in &metrics {
        checks.expect(value.is_finite(), || format!("{name} is not a finite number"));
    }
    for failure in &checks.0 {
        notes.push(format!("CHECK FAILED: {failure}"));
    }
    Outcome {
        correct: checks.0.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// Runs `stream` through a `Session` (automatic when a reference is
/// given, untraced otherwise) and checks the outcome.
fn measured(
    w: Workload,
    stream: &Stream,
    reference: Option<&Reference>,
    checks: &mut Checks,
    tally: &mut Tally,
) -> SessionRun {
    let tracing = match reference {
        Some(_) => Tracing::Auto(w.config()),
        None => Tracing::Untraced,
    };
    let label = tracing.label();
    let run = session::run(w, stream, tracing);
    tally.attempted += run.attempted;
    tally.failed += run.failed;
    checks.expect(run.failed == 0, || format!("{label} session: {} failed calls", run.failed));
    checks.expect(run.stats.tasks_total == stream.tasks, || {
        format!(
            "{label} session: tasks_total {} != {} recorded",
            run.stats.tasks_total, stream.tasks
        )
    });
    if let Some(r) = reference {
        check_same(checks, r, run.digest, &run.report, &run.stats, "automatic session");
    }
    run
}

/// Checks a traced run; returns the share of the application calls' wall
/// time that their spans missed.
fn check_traced(checks: &mut Checks, stream: &Stream, t: &TracedRun) -> f64 {
    // The root spans must account for the application calls' wall time
    // as an independent clock read around each call saw it; what they
    // miss is the recorder's own work at the span edges.
    let outer = t.call_wall_ns as f64;
    let spans = t.root_call_ns() as f64;
    let gap = ratio(outer - spans, outer);
    checks.expect((0.0..=SPAN_GAP_TOLERANCE).contains(&gap), || {
        format!(
            "span accounting: the spans of the application calls cover {spans} ns, the outer \
             clock read {outer} ns"
        )
    });
    checks.expect(t.failed == 0, || format!("traced run: {} failed calls", t.failed));
    checks.expect(t.stats.tasks_total == stream.tasks, || {
        format!("traced run: tasks_total {} != {} recorded", t.stats.tasks_total, stream.tasks)
    });
    checks.expect(t.stats.mismatches == 0, || "traced run: replay mismatches".into());
    gap
}

fn check_same(
    checks: &mut Checks,
    reference: &Reference,
    digest: u64,
    report: &SimReport,
    stats: &RuntimeStats,
    label: &str,
) {
    checks.expect(digest == reference.digest, || {
        format!("{label}: op digest {digest:016x} != traced {:016x}", reference.digest)
    });
    checks.expect(*report == reference.report, || {
        format!("{label}: report differs from the one fed from the Full log")
    });
    checks.expect(*stats == reference.stats, || format!("{label}: runtime stats differ"));
}

fn end_to_end(
    mut sessions: Sessions,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let spread = |mut v: Vec<f64>| {
        let mut at = |q| quantile(&mut v, q).unwrap_or(0.0);
        format!("min {:.4} median {:.4} max {:.4}", at(0.0), at(0.5), at(1.0))
    };
    let auto_p50 = latency_us(&mut sessions.auto_ns, 0.5);
    let auto_p99 = latency_us(&mut sessions.auto_ns, 0.99);
    let untraced_p50 = latency_us(&mut sessions.untraced_ns, 0.5);
    let untraced_p99 = latency_us(&mut sessions.untraced_ns, 0.99);
    notes.push(format!(
        "{} automatic and {} untraced repetitions ({} and {} execute_task calls); the ratios \
         and peak_heap_mib are means over the streams of medians over their repetitions, \
         issue_p50_x and issue_p99_x of the percentiles of one automatic run and of the two \
         untraced runs around it",
        sessions.auto_wall.len(),
        sessions.untraced_wall.len(),
        sessions.auto_ns.len(),
        sessions.untraced_ns.len()
    ));
    notes.push(format!(
        "automatic, pooled: tasks_per_s {:.1} 1/s, issue_p50_us {auto_p50} us, issue_p99_us {auto_p99} us",
        sessions.tasks_per_s()
    ));
    notes.push(format!(
        "untraced, pooled: issue_p50_us {untraced_p50} us, issue_p99_us {untraced_p99} us"
    ));
    let auto_wall_s: f64 = sessions.auto_wall.iter().sum();
    notes.push(format!(
        "automatic wall s: {} ({:.1}% of it in quiesce, left out of overhead_x); \
         CPU {:.1}% of wall",
        spread(sessions.auto_wall.clone()),
        100.0 * ratio(sessions.quiesce_s, auto_wall_s),
        100.0 * ratio(sessions.cpu_s, auto_wall_s)
    ));
    notes.push(format!("untraced wall s: {}", spread(sessions.untraced_wall.clone())));
    notes.push(format!(
        "setup_s: median of {} samples, each the mean of {} builds",
        sessions.setup.len(),
        session::BUILDS_PER_SAMPLE
    ));
    let values = [
        stream_mean(&sessions.overhead),
        stream_mean(&sessions.cpu_overhead),
        stream_mean(&sessions.untraced_cal),
        stream_mean(&sessions.p50_ratio),
        stream_mean(&sessions.p99_ratio),
        stream_mean(&sessions.heap_mib),
        median(sessions.setup),
    ];
    END_TO_END.iter().zip(values).map(|((name, unit), v)| (*name, v, *unit)).collect()
}

/// Per-layer metrics of one traced run, in [`PER_LAYER`] order.
fn layer_metrics(t: &TracedRun, session_wall_s: f64, iters: usize) -> Vec<f64> {
    let spans = t.spans.spans();
    let costs = t.spans.self_costs();
    let tasks = t.stats.tasks_total;
    let n = tasks as f64;
    const N: usize = Name::COUNT;
    let mut self_ns = [0u64; N];
    let mut self_allocs = [0u64; N];
    let mut dur_ns = [0u64; N];
    let mut count = [0u64; N];
    let mut tenths = [0u64; 10];
    let mut job_us = Vec::new();
    let app_wall = t.root_call_ns();
    for (s, &(ns, allocs)) in spans.iter().zip(&costs) {
        let k = s.name as usize;
        self_ns[k] += ns;
        self_allocs[k] += u64::from(allocs);
        dur_ns[k] += s.dur();
        count[k] += 1;
        if s.name == Name::ReplayerOnTask {
            let tenth = (u64::from(s.task) * 10 / tasks.max(1)).min(9);
            tenths[tenth as usize] += ns;
        }
        if s.name == Name::FinderRecordJob {
            job_us.push(s.dur() as f64 * 1e-3);
        }
    }
    let of = |names: &[Name], table: &[u64; N]| {
        names.iter().map(|&m| table[m as usize]).sum::<u64>() as f64
    };
    let finder = [
        Name::FinderRecord,
        Name::FinderRecordJob,
        Name::FinderPoll,
        Name::FinderQuiesce,
        Name::FinderDrain,
    ];
    let replayer = [Name::ReplayerOnTask, Name::ReplayerIngest, Name::ReplayerFlush];
    let runtime = [
        Name::RuntimeFresh,
        Name::RuntimeRecord,
        Name::RuntimeReplay,
        Name::RuntimeBeginTrace,
        Name::RuntimeEndTrace,
        Name::RuntimeHint,
        Name::Region,
        Name::Mark,
    ];
    // Layer self time plus the residual (the glue inside application
    // calls: `Issue` and `Flush` self time) is the root spans' total,
    // provided every span name is in one of the lists.
    let layer_ns = of(&[Name::Hash], &self_ns)
        + of(&finder, &self_ns)
        + of(&replayer, &self_ns)
        + of(&runtime, &self_ns);
    let residual = of(&[Name::Issue, Name::Flush], &self_ns);
    debug_assert_eq!(layer_ns + residual, app_wall as f64, "a span name is in no list");
    debug_assert_eq!(app_wall, t.root_call_ns());
    let per_task = |ns: f64| ns / n;
    let tenth_tasks = n / 10.0;
    let tenth = |i: usize| tenths[i] as f64 / tenth_tasks;
    let bucket = |m: Name| ratio(dur_ns[m as usize] as f64, count[m as usize] as f64);
    let r = &t.replayer;
    let forwarded = (r.forwarded_traced + r.forwarded_untraced) as f64;
    let exec_ns = dur_ns[Name::Exec as usize] as f64;
    let mut values = vec![
        per_task(of(&[Name::Hash], &self_ns)),
        per_task(of(&[Name::FinderRecord, Name::FinderRecordJob], &self_ns)),
        median(job_us),
        per_task(of(&[Name::FinderPoll], &self_ns)),
        per_task(of(&[Name::FinderQuiesce, Name::FinderDrain], &self_ns)),
        t.jobs as f64,
        ratio(t.novel_batches as f64, t.batches as f64),
        per_task(of(&finder, &self_allocs)),
        per_task(of(&replayer, &self_ns)),
        ratio(tenth(9), tenth(1)),
    ];
    values.extend((0..10).map(tenth));
    values.extend([
        ratio(dur_ns[Name::ReplayerIngest as usize] as f64 * 1e-3, t.batches as f64),
        r.peak_pending_tasks as f64,
        r.peak_trie_bytes as f64,
        r.peak_candidates as f64,
        ratio(r.forwarded_traced as f64, forwarded),
        per_task(of(&replayer, &self_allocs)),
        bucket(Name::RuntimeFresh),
        bucket(Name::RuntimeRecord),
        bucket(Name::RuntimeReplay),
        bucket(Name::RuntimeEndTrace) * 1e-3,
        t.stats.peak_template_bytes as f64,
        t.stats.replayed_fraction(),
        per_task(of(&runtime, &self_allocs)),
        ratio(exec_ns, t.ops as f64),
        t.exec_peak_retained as f64,
        t.report.steady_throughput(iters / 2),
        per_task(app_wall as f64 + exec_ns - session_wall_s * 1e9),
        per_task(residual),
        per_task(app_wall as f64),
    ]);
    debug_assert_eq!(values.len() + 3, PER_LAYER.len(), "the session.* metrics come first");
    values
}

fn write_spans(
    dir: &std::path::Path,
    w: Workload,
    t: &TracedRun,
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.tsv", w.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    t.spans.write_tsv(&mut out)?;
    out.flush()?;
    Ok(path)
}
