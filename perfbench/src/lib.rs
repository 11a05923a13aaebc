//! The repository benchmark: issue cost and trace quality of the
//! automatic tracing engine on recorded workload streams.
//!
//! A run records one workload's call stream from a seed, then either
//! issues it through `Session` with no instrumentation (end-to-end
//! metrics) or through the engine rebuilt from its layers with a span
//! around every layer call (per-layer metrics). See `README.md` for the
//! metric → layer → workload map.

pub mod alloc;
pub mod bench;
pub mod calib;
pub mod session;
pub mod spans;
pub mod stream;
pub mod traced;

/// The benchmark's clock.
pub fn now() -> std::time::Instant {
    // lint: allow(ambient-state): the benchmark measures wall time; no
    // decision of the measured engine depends on a reading.
    std::time::Instant::now()
}

/// CPU seconds the whole process has used so far: every thread,
/// including threads already joined.
pub fn process_cpu_s() -> f64 {
    cpu_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the POSIX CPU-time clocks are always available on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
