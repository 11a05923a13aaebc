//! Session runs, without spans: the recorded stream issued through a
//! `Session`, one `execute_task` at a time (a closed loop: each task is
//! issued after the previous call returns).

use crate::alloc;
use crate::stream::{Call, Stream, Workload};
use apophenia::{Session, Tracing};
use tasksim::exec::{LogRetention, SimReport};
use tasksim::issuer::TaskIssuer;
use tasksim::stats::RuntimeStats;
use tasksim::task::TaskDesc;

/// Tasks cloned from the recording per staging step. Staging happens
/// between timed sections, so cloning stays out of every measurement.
const CHUNK: usize = 256;

/// What one `Session` run produced.
#[derive(Debug)]
pub struct SessionRun {
    /// Seconds spent inside issuer calls, from the first call until
    /// `flush` and `finish` return (task staging excluded).
    pub wall_s: f64,
    /// Seconds of `wall_s` spent inside `quiesce` calls (waiting for the
    /// mining worker).
    pub quiesce_s: f64,
    /// CPU seconds the process used over the same span (the issuing
    /// thread plus any mining worker, task staging excluded).
    pub cpu_s: f64,
    /// Wall time of every `execute_task` call, in nanoseconds.
    pub issue_ns: Vec<u32>,
    /// Op digest after the final flush.
    pub digest: u64,
    /// The drained simulation report.
    pub report: SimReport,
    /// Final runtime counters.
    pub stats: RuntimeStats,
    /// Issuer calls attempted.
    pub attempted: u64,
    /// Issuer calls that returned an error (including region calls whose
    /// ids differ from the recording).
    pub failed: u64,
    /// Live-heap high-water mark above the heap held before the build.
    pub peak_heap_bytes: usize,
}

/// Builds the workload's `Session` with `tracing` and drained retention.
pub fn build(workload: Workload, tracing: Tracing) -> Box<dyn TaskIssuer> {
    let (nodes, gpus_per_node) = workload.machine();
    Session::builder()
        .nodes(nodes)
        .gpus_per_node(gpus_per_node)
        .log_retention(LogRetention::Drain)
        .tracing(tracing)
        .build()
}

/// Issues `stream` through a fresh `Session`. Calls are timed back to
/// back (one clock read per call) in chunks of [`CHUNK`] tasks.
///
/// # Panics
///
/// Panics if `finish` fails, which a drained session never does once
/// `flush` succeeded.
pub fn run(workload: Workload, stream: &Stream, tracing: Tracing) -> SessionRun {
    let mut issue_ns = Vec::with_capacity(stream.tasks as usize);
    let mut staged: Vec<TaskDesc> = Vec::with_capacity(CHUNK);
    let baseline = alloc::reset_peak();
    let mut issuer = build(workload, tracing);
    let (mut wall_ns, mut quiesce_ns) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rest = &stream.calls[..];
    let mut staging_cpu_s = 0.0;
    let cpu_start = crate::process_cpu_s();
    while !rest.is_empty() {
        let staging = crate::thread_cpu_s();
        let mut len = 0;
        for call in rest {
            if let Call::Task(task) = call {
                if staged.len() == CHUNK {
                    break;
                }
                staged.push(task.clone());
            }
            len += 1;
        }
        let (chunk, tail) = rest.split_at(len);
        rest = tail;
        let mut tasks = staged.drain(..);
        staging_cpu_s += crate::thread_cpu_s() - staging;
        let start = crate::now();
        let mut last = start;
        for call in chunk {
            let ok = match call {
                Call::Task(_) => {
                    let task = tasks.next().expect("one staged task per task call");
                    let ok = issuer.execute_task(task).is_ok();
                    let now = crate::now();
                    issue_ns.push(u32::try_from((now - last).as_nanos()).unwrap_or(u32::MAX));
                    last = now;
                    ok
                }
                other => {
                    let ok = issue_other(issuer.as_mut(), other);
                    let now = crate::now();
                    if matches!(other, Call::Quiesce) {
                        quiesce_ns += (now - last).as_nanos() as u64;
                    }
                    last = now;
                    ok
                }
            };
            attempted += 1;
            failed += u64::from(!ok);
        }
        wall_ns += (last - start).as_nanos() as u64;
    }
    let start = crate::now();
    attempted += 1;
    failed += u64::from(issuer.flush().is_err());
    let digest = issuer.op_digest();
    let artifacts = issuer.finish().expect("finish after a successful flush");
    wall_ns += start.elapsed().as_nanos() as u64;
    let cpu_s = crate::process_cpu_s() - cpu_start - staging_cpu_s;
    let peak_heap_bytes = alloc::peak().saturating_sub(baseline);
    SessionRun {
        wall_s: wall_ns as f64 * 1e-9,
        quiesce_s: quiesce_ns as f64 * 1e-9,
        cpu_s,
        issue_ns,
        digest,
        report: artifacts.report,
        stats: artifacts.stats,
        attempted,
        failed,
        peak_heap_bytes,
    }
}

/// Issues one non-task call; `false` when it failed or returned ids that
/// differ from the recording.
fn issue_other(issuer: &mut dyn TaskIssuer, call: &Call) -> bool {
    match call {
        Call::CreateRegion { fields, id } => issuer.create_region(*fields) == *id,
        Call::Partition { region, parts, ids } => {
            issuer.partition(*region, *parts).is_ok_and(|got| got == *ids)
        }
        Call::DestroyRegion(region) => issuer.destroy_region(*region).is_ok(),
        Call::Mark => {
            issuer.mark_iteration();
            true
        }
        Call::Quiesce => {
            issuer.quiesce();
            true
        }
        Call::Task(_) => unreachable!("tasks are issued by the caller"),
    }
}

/// Builds per `setup_s` sample.
pub const BUILDS_PER_SAMPLE: usize = 100;

/// Seconds to build the workload's automatic `Session` (including
/// spawning its mining pool), each sample the mean over
/// [`BUILDS_PER_SAMPLE`] builds. Dropping the sessions — which joins
/// their pools — is not timed.
pub fn setup_samples(workload: Workload, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let mut built = Vec::with_capacity(BUILDS_PER_SAMPLE);
            let start = crate::now();
            for _ in 0..BUILDS_PER_SAMPLE {
                built.push(build(workload, Tracing::Auto(workload.config())));
            }
            let s = start.elapsed().as_secs_f64() / BUILDS_PER_SAMPLE as f64;
            drop(built);
            s
        })
        .collect()
}
