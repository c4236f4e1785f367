//! Benchmark-side spans around calls into the program's layers.
//!
//! Tracing is off unless [`enable`] was called; a disabled span is one
//! relaxed load and a direct call. Spans stay in memory until the run
//! ends. Each span records its name (`layer.what`), start, end, parent
//! and the operation (simulation point or job) it belongs to; the spans
//! of one operation share that id.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread: (span id, op id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable() {
    now_ns();
    ON.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ON.store(false, Ordering::Relaxed);
}

/// Runs `f` with tracing off, restoring the previous state after.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = ON.swap(false, Ordering::Relaxed);
    let out = f();
    ON.store(was, Ordering::Relaxed);
    out
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// The innermost open span of this thread and its operation (zeros for
/// none), to hand to work that continues on other threads.
pub fn current() -> (u64, u64) {
    STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)))
}

fn record<R>(name: &'static str, parent: u64, op: Option<u64>, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let op = op.unwrap_or(id);
    STACK.with(|s| s.borrow_mut().push((id, op)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span sink poisoned by a panicking recorder")
        .push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Runs `f` inside a span that is a child of this thread's open span and
/// belongs to the same operation.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let (parent, op) = current();
    record(name, parent, Some(op), f)
}

/// Runs `f` inside a span under `(parent span, op)` taken from
/// [`current`] on another thread.
pub fn span_under<R>(name: &'static str, under: (u64, u64), f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    record(name, under.0, Some(under.1), f)
}

/// Runs `f` inside a span that starts a new operation under `parent`.
pub fn op<R>(name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    record(name, parent, None, f)
}

/// Every span recorded so far, removed from the sink.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span sink poisoned"))
}

/// Self time per layer: each span's duration minus the part its
/// children cover, summed by layer. Children that ran concurrently on
/// other threads can cover more than their parent; the parent's self
/// time then counts as 0.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child = BTreeMap::<u64, f64>::new();
    for s in spans {
        *child.entry(s.parent).or_default() += s.seconds();
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.seconds() - child.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds() * 1e3)
        .collect()
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
