//! Host clocks and steadiness probes. The CPU-time clocks time the
//! simulation work: on a shared virtual machine they leave out time the
//! hypervisor stole and time spent waiting for a core, which wall time
//! counts. The probes are printed beside every run so that a contended
//! run shows instead of quietly widening the spread: run-queue wait of
//! the threads doing the measured work, hypervisor steal time and a
//! fixed calibration loop; also the peak resident memory of a timed part.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `(ran, waited)` nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat`.
fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

static RAN_NS: AtomicU64 = AtomicU64::new(0);
static WAITED_NS: AtomicU64 = AtomicU64::new(0);

/// Runs `f`, charging the calling thread's run and run-queue-wait time
/// during it to the process totals behind [`runq_wait_frac`].
pub fn metered<R>(f: impl FnOnce() -> R) -> R {
    let before = schedstat();
    let out = f();
    if let (Some((r0, w0)), Some((r1, w1))) = (before, schedstat()) {
        RAN_NS.fetch_add(r1.saturating_sub(r0), Ordering::Relaxed);
        WAITED_NS.fetch_add(w1.saturating_sub(w0), Ordering::Relaxed);
    }
    out
}

/// Clears the metered totals and the timed peak (one workload's run
/// starts).
pub fn reset() {
    RAN_NS.store(0, Ordering::Relaxed);
    WAITED_NS.store(0, Ordering::Relaxed);
    TIMED_PEAK_KB.store(0, Ordering::Relaxed);
}

/// Share of metered time the working threads spent runnable but
/// waiting for a CPU.
pub fn runq_wait_frac() -> f64 {
    let ran = RAN_NS.load(Ordering::Relaxed) as f64;
    let waited = WAITED_NS.load(Ordering::Relaxed) as f64;
    if ran + waited == 0.0 {
        0.0
    } else {
        waited / (ran + waited)
    }
}

/// `(steal, total)` jiffies of all CPUs, from the first line of
/// `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Share of all CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor stole.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Milliseconds for a fixed integer loop: the median of five timings.
/// A slow reading flags a throttled or contended core.
pub fn calib_ms() -> f64 {
    let mut laps: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    laps.sort_by(f64::total_cmp);
    laps[2]
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds run by all threads of this process, ended ones included.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds run by the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

static TIMED_PEAK_KB: AtomicU64 = AtomicU64::new(0);

/// Starts a timed part: the process's peak resident size drops to its
/// current size, so set-up, checks and earlier workloads of the same
/// process do not count.
pub fn start_peak() {
    // "5" resets VmHWM to the current resident size (proc(5)).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Ends a timed part, keeping the peak resident size since
/// [`start_peak`] for [`peak_rss_mb`] if it is the highest so far.
pub fn end_peak() {
    TIMED_PEAK_KB.fetch_max(vm_hwm_kb(), Ordering::Relaxed);
}

/// Peak resident set size of this process in MiB during the timed parts
/// since [`reset`].
pub fn peak_rss_mb() -> f64 {
    TIMED_PEAK_KB.load(Ordering::Relaxed) as f64 / 1024.0
}

/// `VmHWM` of this process in KiB.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}
