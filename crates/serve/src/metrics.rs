//! Service metrics: lock-free counters plus a latency reservoir, the
//! source of the `/stats` endpoint's queue depth, cache hit rate, retry
//! counts and per-job latency percentiles.
//!
//! The reservoir is a fixed ring of the [`LATENCY_WINDOW`] most recent
//! completions, so a long-running service holds bounded memory and a
//! `/stats` call sorts at most that many samples, once.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many of the most recent successful attempts the `/stats`
/// latency percentiles cover.
pub const LATENCY_WINDOW: usize = 4096;

/// The latency reservoir: the last [`LATENCY_WINDOW`] samples, oldest
/// overwritten first.
#[derive(Default)]
struct LatencyRing {
    samples: Vec<f64>,
    /// Slot the next sample goes to once the ring is full.
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, seconds: f64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(seconds);
        } else {
            self.samples[self.next] = seconds;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }
}

/// Monotonic counters and completed-job latencies.
#[derive(Default)]
pub struct Metrics {
    /// Jobs received over HTTP (before admission control).
    pub submitted: AtomicU64,
    /// Jobs admitted to the queue.
    pub accepted: AtomicU64,
    /// Whole batches refused with 429 because the queue was full.
    pub rejected_full: AtomicU64,
    /// Jobs answered straight from the verified result cache.
    pub cache_hits: AtomicU64,
    /// Jobs that had to be computed.
    pub cache_misses: AtomicU64,
    /// Cache entries that failed checksum verification and were
    /// quarantined instead of served.
    pub cache_quarantined: AtomicU64,
    /// Jobs completed by a worker.
    pub completed: AtomicU64,
    /// Failed attempts that were re-queued with backoff.
    pub retries: AtomicU64,
    /// Attempts cancelled at their deadline.
    pub timeouts: AtomicU64,
    /// Attempts that panicked inside the executor.
    pub panics: AtomicU64,
    /// Jobs parked in the dead-letter list after exhausting retries.
    pub dead_letters: AtomicU64,
    /// Worker threads replaced by the supervisor after a panic.
    pub workers_replaced: AtomicU64,
    /// Journal records dropped as corrupt/truncated during replay.
    pub journal_dropped: AtomicU64,
    /// Wall-clock seconds of the most recent successful attempts.
    latencies: Mutex<LatencyRing>,
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Bumps a counter by one.
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl Metrics {
    /// Records one successful attempt's wall-clock latency.
    pub fn record_latency(&self, seconds: f64) {
        self.latencies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(seconds);
    }

    /// The number of latencies in the window, and the `qs`-quantiles
    /// (0..=1, nearest-rank) of them in milliseconds, all taken from one
    /// sorted copy; the quantiles are 0 with no observations.
    pub fn latency_ms<const N: usize>(&self, qs: [f64; N]) -> (usize, [f64; N]) {
        let mut sorted = self
            .latencies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .samples
            .clone();
        if sorted.is_empty() {
            return (0, [0.0; N]);
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1] * 1000.0;
        (n, qs.map(at))
    }

    /// Cache hit rate over all lookups so far (0 with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = get(&self.cache_hits) as f64;
        let total = hits + get(&self.cache_misses) as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// The `/stats` JSON body (queue depth and worker count are owned by
    /// the server and passed in).
    pub fn snapshot(&self, queue_depth: usize, workers: usize, draining: bool) -> Value {
        let (count, [p50, p90, p99]) = self.latency_ms([0.50, 0.90, 0.99]);
        Value::Object(vec![
            ("queue_depth".into(), Value::UInt(queue_depth as u64)),
            ("workers".into(), Value::UInt(workers as u64)),
            ("draining".into(), Value::Bool(draining)),
            ("submitted".into(), Value::UInt(get(&self.submitted))),
            ("accepted".into(), Value::UInt(get(&self.accepted))),
            (
                "rejected_full".into(),
                Value::UInt(get(&self.rejected_full)),
            ),
            ("completed".into(), Value::UInt(get(&self.completed))),
            ("retries".into(), Value::UInt(get(&self.retries))),
            ("timeouts".into(), Value::UInt(get(&self.timeouts))),
            ("panics".into(), Value::UInt(get(&self.panics))),
            ("dead_letters".into(), Value::UInt(get(&self.dead_letters))),
            (
                "workers_replaced".into(),
                Value::UInt(get(&self.workers_replaced)),
            ),
            (
                "journal_dropped".into(),
                Value::UInt(get(&self.journal_dropped)),
            ),
            (
                "cache".into(),
                Value::Object(vec![
                    ("hits".into(), Value::UInt(get(&self.cache_hits))),
                    ("misses".into(), Value::UInt(get(&self.cache_misses))),
                    (
                        "quarantined".into(),
                        Value::UInt(get(&self.cache_quarantined)),
                    ),
                    ("hit_rate".into(), Value::Float(self.cache_hit_rate())),
                ]),
            ),
            (
                "latency_ms".into(),
                Value::Object(vec![
                    ("count".into(), Value::UInt(count as u64)),
                    ("p50".into(), Value::Float(p50)),
                    ("p90".into(), Value::Float(p90)),
                    ("p99".into(), Value::Float(p99)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let m = Metrics::default();
        for v in [0.010, 0.020, 0.030, 0.040] {
            m.record_latency(v);
        }
        let (count, [p50, p99]) = m.latency_ms([0.50, 0.99]);
        assert_eq!(count, 4);
        assert!((p50 - 20.0).abs() < 1e-9);
        assert!((p99 - 40.0).abs() < 1e-9);
        assert_eq!(Metrics::default().latency_ms([0.5]), (0, [0.0]));
    }

    #[test]
    fn reservoir_is_a_bounded_window_of_recent_latencies() {
        let m = Metrics::default();
        // A first generation of slow jobs, then a full window of fast
        // ones: the slow ones must age out entirely.
        for _ in 0..LATENCY_WINDOW / 2 {
            m.record_latency(10.0);
        }
        for k in 0..LATENCY_WINDOW {
            m.record_latency(0.001 * (1 + k % 4) as f64);
        }
        assert_eq!(m.latencies.lock().unwrap().samples.len(), LATENCY_WINDOW);
        let (count, [p50, p99, max]) = m.latency_ms([0.5, 0.99, 1.0]);
        assert_eq!(count, LATENCY_WINDOW);
        assert!((p50 - 2.0).abs() < 1e-9, "p50 {p50}");
        assert!((p99 - 4.0).abs() < 1e-9, "p99 {p99}");
        assert!((max - 4.0).abs() < 1e-9, "old samples leaked: max {max}");
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let m = Metrics::default();
        assert_eq!(m.cache_hit_rate(), 0.0);
        bump(&m.cache_hits);
        bump(&m.cache_hits);
        bump(&m.cache_misses);
        assert!((m.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_reports_every_section() {
        let m = Metrics::default();
        bump(&m.retries);
        m.record_latency(0.005);
        let s = m.snapshot(3, 2, false);
        assert_eq!(s.get("queue_depth").and_then(Value::as_u64), Some(3));
        assert_eq!(s.get("retries").and_then(Value::as_u64), Some(1));
        let lat = s.get("latency_ms").expect("latency section");
        assert_eq!(lat.get("count").and_then(Value::as_u64), Some(1));
        assert!(s.get("cache").is_some());
    }
}
