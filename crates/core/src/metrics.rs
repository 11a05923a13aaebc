//! Instrumentation behind the paper's Figure 9 and Figure 10.
//!
//! * [`TracedWindow`] — for every forwarded task, the fraction of the last
//!   `W` tasks that ran inside a trace (Figure 10 plots this for S3D with
//!   `W = 5000`).
//! * [`WarmupDetector`] — the number of application iterations until
//!   Apophenia reaches a steady state of replaying traces (Figure 9's
//!   table; 30–300 iterations across the paper's applications).

use std::collections::VecDeque;
use tasksim::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Rolling traced-fraction tracker (Figure 10).
///
/// The sample series is bounded: past [`Self::MAX_SAMPLES`] entries it
/// keeps every second sample and doubles the sampling interval, so an
/// unbounded stream keeps an evenly spaced sketch of the whole run.
#[derive(Debug, Clone)]
pub struct TracedWindow {
    window: usize,
    ring: VecDeque<bool>,
    traced_in_ring: usize, // snapshot: derived — recounted from `ring` on restore
    /// `(task index, percent traced of last `window`)` samples.
    samples: Vec<(u64, f64)>,
    sample_every: u64,
    count: u64,
}

impl TracedWindow {
    /// Retention bound: the series decimates itself past this length.
    pub const MAX_SAMPLES: usize = 4096;

    /// Tracks the last `window` tasks, sampling the percentage every
    /// `sample_every` tasks (an interval that doubles each time the series
    /// is decimated).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `sample_every == 0`.
    pub fn new(window: usize, sample_every: u64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(sample_every > 0, "sample interval must be positive");
        Self {
            window,
            ring: VecDeque::with_capacity(window),
            traced_in_ring: 0,
            samples: Vec::new(),
            sample_every,
            count: 0,
        }
    }

    /// The paper's Figure 10 configuration: window of 5000, sampled every
    /// 100 tasks.
    pub fn figure10() -> Self {
        Self::new(5000, 100)
    }

    /// Records one forwarded task.
    pub fn push(&mut self, traced: bool) {
        if self.ring.len() == self.window && self.ring.pop_front() == Some(true) {
            self.traced_in_ring -= 1;
        }
        self.ring.push_back(traced);
        self.traced_in_ring += usize::from(traced);
        self.count += 1;
        if self.count.is_multiple_of(self.sample_every) {
            self.samples.push((self.count, self.percent()));
            if self.samples.len() > Self::MAX_SAMPLES {
                // Every sample sits on a multiple of the old interval, so
                // this keeps every second one: half the resolution, full
                // span, even spacing.
                self.sample_every = self.sample_every.saturating_mul(2);
                let every = self.sample_every;
                self.samples.retain(|&(at, _)| at.is_multiple_of(every));
            }
        }
    }

    /// Percent of the current window that was traced, in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            100.0 * self.traced_in_ring as f64 / self.ring.len() as f64
        }
    }

    /// The sampled `(task index, percent)` series.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Tasks recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Detects the warmup→steady-state transition (Figure 9).
///
/// An iteration is *steady* when at least `threshold` of its tasks ran
/// inside a trace; the steady state begins after `consecutive` steady
/// iterations in a row.
#[derive(Debug, Clone)]
pub struct WarmupDetector {
    threshold: f64,
    consecutive: u32,
    streak: u32,
    iterations: u64,
    steady_at: Option<u64>,
}

impl WarmupDetector {
    /// A detector requiring `threshold` traced fraction over `consecutive`
    /// iterations.
    pub fn new(threshold: f64, consecutive: u32) -> Self {
        Self {
            threshold,
            consecutive: consecutive.max(1),
            streak: 0,
            iterations: 0,
            steady_at: None,
        }
    }

    /// Records one finished iteration with `traced` of `total` tasks
    /// traced.
    pub fn record_iteration(&mut self, traced: u64, total: u64) {
        self.iterations += 1;
        let frac = if total == 0 { 1.0 } else { traced as f64 / total as f64 };
        if frac >= self.threshold {
            self.streak += 1;
            if self.streak == self.consecutive && self.steady_at.is_none() {
                // Steady state began when the streak started.
                self.steady_at = Some(self.iterations - u64::from(self.consecutive) + 1);
            }
        } else {
            self.streak = 0;
        }
    }

    /// Iterations before the steady state began (the Figure 9 number), if
    /// reached.
    pub fn warmup_iterations(&self) -> Option<u64> {
        self.steady_at.map(|s| s - 1)
    }

    /// Iterations observed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl Default for WarmupDetector {
    fn default() -> Self {
        Self::new(0.8, 3)
    }
}

impl Snapshot for TracedWindow {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.window);
        w.put_deque(&self.ring, |w, b| w.put_bool(*b));
        w.put_seq(&self.samples, |w, (at, pct)| {
            w.put_u64(*at);
            w.put_f64(*pct);
        });
        w.put_u64(self.sample_every);
        w.put_u64(self.count);
    }
}

impl Restore for TracedWindow {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let window = r.get_len()?;
        let ring = r.get_deque(|r| r.get_bool())?;
        if window == 0 || ring.len() > window {
            return Err(SnapshotError::Corrupt("traced-window ring exceeds its window".into()));
        }
        let traced_in_ring = ring.iter().filter(|&&b| b).count();
        let samples = r.get_seq(|r| Ok((r.get_u64()?, r.get_f64()?)))?;
        if samples.len() > Self::MAX_SAMPLES {
            return Err(SnapshotError::Corrupt("traced-window samples exceed their bound".into()));
        }
        let sample_every = r.get_u64()?;
        if sample_every == 0 {
            return Err(SnapshotError::Corrupt("traced-window sample interval is zero".into()));
        }
        Ok(Self { window, ring, traced_in_ring, samples, sample_every, count: r.get_u64()? })
    }
}

impl Snapshot for WarmupDetector {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.threshold);
        w.put_u32(self.consecutive);
        w.put_u32(self.streak);
        w.put_u64(self.iterations);
        w.put_opt_u64(self.steady_at);
    }
}

impl Restore for WarmupDetector {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            threshold: r.get_f64()?,
            consecutive: r.get_u32()?,
            streak: r.get_u32()?,
            iterations: r.get_u64()?,
            steady_at: r.get_opt_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_percent_tracks_ring() {
        let mut w = TracedWindow::new(4, 1);
        for traced in [false, false, true, true] {
            w.push(traced);
        }
        assert!((w.percent() - 50.0).abs() < 1e-9);
        // Two more traced pushes evict the two untraced ones.
        w.push(true);
        w.push(true);
        assert!((w.percent() - 100.0).abs() < 1e-9);
        assert_eq!(w.count(), 6);
        assert_eq!(w.samples().len(), 6);
    }

    #[test]
    fn window_empty_is_zero() {
        let w = TracedWindow::new(10, 5);
        assert_eq!(w.percent(), 0.0);
    }

    #[test]
    fn sampling_interval_respected() {
        let mut w = TracedWindow::new(100, 10);
        for i in 0..95 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.samples().len(), 9);
        assert_eq!(w.samples()[0].0, 10);
    }

    #[test]
    fn warmup_detects_transition() {
        let mut d = WarmupDetector::new(0.8, 3);
        // 5 cold iterations, then steady.
        for _ in 0..5 {
            d.record_iteration(10, 100);
        }
        for _ in 0..4 {
            d.record_iteration(95, 100);
        }
        assert_eq!(d.warmup_iterations(), Some(5));
        assert_eq!(d.iterations(), 9);
    }

    #[test]
    fn warmup_requires_consecutive() {
        let mut d = WarmupDetector::new(0.8, 3);
        d.record_iteration(90, 100);
        d.record_iteration(90, 100);
        d.record_iteration(10, 100); // streak broken
        d.record_iteration(90, 100);
        d.record_iteration(90, 100);
        d.record_iteration(90, 100);
        assert_eq!(d.warmup_iterations(), Some(3));
    }

    #[test]
    fn warmup_never_reached() {
        let mut d = WarmupDetector::default();
        for _ in 0..10 {
            d.record_iteration(0, 100);
        }
        assert_eq!(d.warmup_iterations(), None);
        assert_eq!(d.iterations(), 10);
    }

    #[test]
    fn warmup_snapshot_size_is_independent_of_run_length() {
        let encoded_len = |iterations: u32| {
            let mut d = WarmupDetector::default();
            for i in 0..iterations {
                d.record_iteration(u64::from(i % 7) * 15, 100);
            }
            let mut w = SnapshotWriter::new();
            d.snapshot(&mut w);
            let payload = w.into_payload();
            let mut r = SnapshotReader::new(&payload);
            let back = WarmupDetector::restore(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back.iterations(), u64::from(iterations));
            assert_eq!(back.warmup_iterations(), d.warmup_iterations());
            payload.len()
        };
        assert_eq!(encoded_len(10), encoded_len(10_000), "checkpoint state grows with the run");
    }

    #[test]
    fn empty_iteration_counts_as_steady() {
        let mut d = WarmupDetector::new(0.8, 1);
        d.record_iteration(0, 0);
        assert_eq!(d.warmup_iterations(), Some(0));
    }

    #[test]
    fn traced_samples_stay_bounded_and_span_the_run() {
        // Figure 10's configuration over a run 400× longer than Figure 10.
        let mut w = TracedWindow::figure10();
        let n = 4 * TracedWindow::MAX_SAMPLES as u64 * 100;
        for i in 0..n {
            w.push(i % 3 != 0);
        }
        let samples = w.samples();
        assert!(samples.len() <= TracedWindow::MAX_SAMPLES, "{}", samples.len());
        assert!(samples.len() > TracedWindow::MAX_SAMPLES / 4, "sketch keeps resolution");
        // Evenly spaced from the start of the run to its end.
        let step = samples[0].0;
        assert!(step <= n / 1000, "first sample at {step}");
        for (k, &(at, pct)) in samples.iter().enumerate() {
            assert_eq!(at, step * (k as u64 + 1), "sample {k}");
            assert!((0.0..=100.0).contains(&pct));
        }
        let last = samples.last().unwrap().0;
        assert!(last + step > n, "span preserved: last sample at {last} of {n}");
    }
}
