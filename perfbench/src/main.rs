//! `perfbench` — the regshare host-performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload for about `--seconds` of repeated
//! passes and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! start with `#` and carry diagnostics: the digest check, the tail
//! percentile and its sample count, and the host-steadiness probes.
//! README.md lists the workloads and metrics.

mod host;
mod inputs;
mod layers;
mod serve;
mod simwork;
mod stats;
mod trace;

use regshare::isa::{Program, RegClass};
use regshare::sim::NUM_STAGE_SLOTS;
use regshare_serve::fnv1a64;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["detailed", "sweep", "sampled", "serve"];

/// The seed the committed reference digests were taken at.
const DEFAULT_SEED: u64 = 1;

/// Reference digests of the simulated statistics at [`DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference.json");

/// How much work a pass does: `Full` for measurement, `Tiny` for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

/// Where runs keep service data directories and trace files: inside
/// the working directory, which is the checkout's root.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Runs `setup` `n` times, timing each; returns the times and the last
/// result. Earlier results are dropped outside the timing.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let started = Instant::now();
        let value = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one set-up ran"))
}

/// One timed pass: its wall time, the CPU time of all the process's
/// threads during it, and its result.
pub struct Timed<T> {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub result: T,
}

/// Runs whole passes until `seconds` of wall time have passed (at least
/// one), returning each pass's times and result.
pub fn timed<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<Timed<T>> {
    host::start_peak();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pass_started = Instant::now();
        let cpu_started = host::process_cpu_s();
        let result = pass();
        out.push(Timed {
            wall_s: pass_started.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_s() - cpu_started,
            result,
        });
    }
    host::end_peak();
    out
}

/// A digest of simulated statistics, split into what the fixed kernels
/// produced and what the seed-generated inputs produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Digest {
    kernels: Vec<u8>,
    inputs: Vec<u8>,
}

impl Digest {
    pub fn add(&mut self, seeded: bool, fields: &[u64]) {
        let bytes = if seeded {
            &mut self.inputs
        } else {
            &mut self.kernels
        };
        for f in fields {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
    }

    fn hex(&self) -> (String, String) {
        (
            format!("{:016x}", fnv1a64(&self.kernels)),
            format!("{:016x}", fnv1a64(&self.inputs)),
        )
    }
}

pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub insts: u64,
    pub ops: usize,
}

/// Deterministic counts from the first pass's detailed runs.
#[derive(Default)]
pub struct Counts {
    pub rename_stall_cycles: u64,
    pub work: [u64; NUM_STAGE_SLOTS],
}

/// Detailed-pipeline and warming figures as the program reports them.
#[derive(Default)]
pub struct SimFacts {
    pub cycles: u64,
    pub detailed_s: f64,
    pub warm_s: f64,
    pub run_ms: Vec<f64>,
}

/// Service counters read from `/stats` outside the timed passes: cache
/// hits and misses of the cached pass, the rest over the whole run; and
/// the wall latencies of the timed jobs and of the cached pass's.
#[derive(Default)]
pub struct ServeFacts {
    pub job_ms: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub retries: u64,
    pub rejected: u64,
    pub dead_lettered: u64,
    pub cached_ms: Vec<f64>,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    pub digests: Vec<Digest>,
    /// Whether each pass draws new inputs; otherwise every pass repeats
    /// the first and its digest must match the first pass's.
    pub fresh_inputs_each_pass: bool,
    /// Each operation's CPU time, in the order they ran.
    pub op_seconds: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Programs (with their swept register class) for the layer replays.
    pub replay: Vec<(Program, RegClass)>,
    pub counts: Counts,
    pub sim: SimFacts,
    pub serve: ServeFacts,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn pass<T>(&mut self, timed: &Timed<T>, insts: u64, ops: usize, digest: Digest) {
        self.passes.push(Pass {
            wall_s: timed.wall_s,
            cpu_s: timed.cpu_s,
            insts,
            ops,
        });
        self.digests.push(digest);
    }
}

fn run(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "detailed" => simwork::detailed(ctx),
        "sweep" => simwork::sweep(ctx),
        "sampled" => simwork::sampled(ctx),
        "serve" => serve::serve(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        stats::median(&out.passes.iter().map(f).collect::<Vec<_>>())
    };
    let op_ms: Vec<f64> = out.op_seconds.iter().map(|s| s * 1e3).collect();
    vec![
        (
            "sim_insts_per_cpu_s",
            per_pass(&|p| p.insts as f64 / p.cpu_s),
            "1/s",
        ),
        (
            "ops_per_cpu_s",
            per_pass(&|p| p.ops as f64 / p.cpu_s),
            "1/s",
        ),
        ("op_cpu_ms_p50", stats::median(&op_ms), "ms"),
        ("op_cpu_ms_tail", stats::blocked_tail(&op_ms).0.value, "ms"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ("setup_s", stats::median(&out.setup_s), "s"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Span totals in seconds by name.
fn span_total(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(trace::Span::seconds)
        .sum()
}

fn per_layer(
    workload: &str,
    out: &Outcome,
    spans: &[trace::Span],
    replay_spans: &[trace::Span],
    replay: &layers::Replay,
    traced_wall_s: f64,
    overhead: f64,
) -> Vec<Metric> {
    let r = replay;
    let frac = |hits: (u64, u64)| ratio(hits.0 as f64, hits.1 as f64);
    let mut m: Vec<Metric> = vec![
        (
            "isa.emulate_insts_per_s",
            ratio(r.emulated as f64, r.emulate_s),
            "1/s",
        ),
        (
            "mem.timed_accesses_per_s",
            ratio(r.mem_accesses as f64, r.timed_s),
            "1/s",
        ),
        (
            "mem.warm_accesses_per_s",
            ratio(r.mem_accesses as f64, r.warm_s),
            "1/s",
        ),
        ("mem.l1d_hit_frac", frac(r.l1d), "frac"),
        ("mem.l2_hit_frac", frac(r.l2), "frac"),
        ("mem.tlb_hit_frac", frac(r.tlb), "frac"),
        (
            "core.baseline.renames_per_s",
            ratio(r.renames[0] as f64, r.rename_s[0]),
            "1/s",
        ),
        (
            "core.reuse.renames_per_s",
            ratio(r.renames[1] as f64, r.rename_s[1]),
            "1/s",
        ),
        (
            "core.baseline.stall_frac",
            ratio(r.stalls[0] as f64, r.attempts[0] as f64),
            "frac",
        ),
        (
            "core.reuse.stall_frac",
            ratio(r.stalls[1] as f64, r.attempts[1] as f64),
            "frac",
        ),
        (
            "core.reuse.reuse_frac",
            ratio(r.reuses as f64, r.renamed_uops as f64),
            "frac",
        ),
        ("core.reuse.repairs", r.repairs as f64, "count"),
        (
            "sim.cycles_per_s",
            ratio(out.sim.cycles as f64, out.sim.detailed_s),
            "1/s",
        ),
        (
            "sim.rename_stall_cycles",
            out.counts.rename_stall_cycles as f64,
            "count",
        ),
    ];
    for (name, work) in WORK_METRICS.iter().zip(out.counts.work) {
        m.push((name, work as f64, "count"));
    }
    let build_ms = trace::durations_ms(spans, "workloads.program_build");
    let new_ms = trace::durations_ms(spans, "sim.pipeline_new");
    let run_tail = stats::tail(&out.sim.run_ms);
    let point_ms = trace::durations_ms(spans, "harness.point");
    let submit_ms = trace::durations_ms(spans, "serve.submit");
    let poll_ms = trace::durations_ms(spans, "serve.poll");
    let (busy, wall) = match workload {
        "sampled" => ("sim.window", "harness.batch"),
        _ => ("harness.point", "harness.pass"),
    };
    let workers = nproc() as f64;
    let serve = &out.serve;
    m.extend([
        (
            "sim.warm_frac",
            ratio(out.sim.warm_s, out.sim.warm_s + out.sim.detailed_s),
            "frac",
        ),
        ("sim.run_ms_p50", stats::median(&out.sim.run_ms), "ms"),
        ("sim.run_ms_tail", run_tail.value, "ms"),
        ("sim.pipeline_new_ms", mean(&new_ms), "ms"),
        (
            "sim.setup_frac",
            ratio(
                build_ms.iter().chain(&new_ms).sum::<f64>() / 1e3,
                traced_wall_s,
            ),
            "frac",
        ),
        ("workloads.program_build_ms", mean(&build_ms), "ms"),
        (
            "harness.par_efficiency",
            ratio(span_total(spans, busy), workers * span_total(spans, wall)),
            "frac",
        ),
        ("harness.point_ms_p50", stats::median(&point_ms), "ms"),
        ("harness.point_ms_tail", stats::tail(&point_ms).value, "ms"),
        ("serve.submit_ms_p50", stats::median(&submit_ms), "ms"),
        ("serve.submit_ms_tail", stats::tail(&submit_ms).value, "ms"),
        ("serve.poll_ms_p50", stats::median(&poll_ms), "ms"),
        ("serve.job_ms_p50", stats::median(&serve.job_ms), "ms"),
        ("serve.job_ms_tail", stats::tail(&serve.job_ms).value, "ms"),
        (
            "serve.cached_job_ms_p50",
            stats::median(&serve.cached_ms),
            "ms",
        ),
        (
            "serve.cached_job_ms_tail",
            stats::tail(&serve.cached_ms).value,
            "ms",
        ),
        (
            "serve.cache_hit_frac",
            ratio(
                serve.cache_hits as f64,
                (serve.cache_hits + serve.cache_misses) as f64,
            ),
            "frac",
        ),
        ("serve.retries", serve.retries as f64, "count"),
        ("serve.rejected", serve.rejected as f64, "count"),
        ("serve.dead_lettered", serve.dead_lettered as f64, "count"),
    ]);
    let own = trace::self_seconds(spans);
    let own_replay = trace::self_seconds(replay_spans);
    for (name, layer) in SELF_METRICS {
        let s = own.get(layer).or(own_replay.get(layer)).copied();
        m.push((name, s.unwrap_or(0.0), "s"));
    }
    m.push(("trace.overhead_frac", overhead, "frac"));
    m
}

const WORK_METRICS: [&str; NUM_STAGE_SLOTS] = [
    "sim.work.housekeeping",
    "sim.work.commit",
    "sim.work.writeback",
    "sim.work.issue",
    "sim.work.rename",
    "sim.work.decode",
    "sim.work.fetch",
    "sim.work.observe",
];

const SELF_METRICS: [(&str, &str); 7] = [
    ("harness.self_s", "harness"),
    ("workloads.self_s", "workloads"),
    ("sim.self_s", "sim"),
    ("serve.self_s", "serve"),
    ("isa.self_s", "isa"),
    ("core.self_s", "core"),
    ("mem.self_s", "mem"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Checks the pass digests: identical across repeated passes, and equal
/// to the committed reference at the default seed.
fn check_digests(workload: &str, ctx: &Ctx, out: &mut Outcome) -> Option<(String, String)> {
    let first = out.digests.first()?.clone();
    if !out.fresh_inputs_each_pass {
        let differing = out.digests.iter().filter(|d| **d != first).count();
        for _ in 0..differing {
            out.fail(format!(
                "{workload}: a pass's simulated statistics differ from the first pass's"
            ));
        }
    }
    let (kernels, inputs) = first.hex();
    if ctx.seed == DEFAULT_SEED && ctx.size == Size::Full {
        let reference = serde_json::from_str(REFERENCE)
            .ok()
            .and_then(|v: Value| v.get(workload).cloned());
        let field = |k: &str| {
            reference
                .as_ref()
                .and_then(|r| r.get(k))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if field("kernels").as_deref() != Some(&kernels)
            || field("inputs").as_deref() != Some(&inputs)
        {
            out.fail(format!(
                "{workload}: digest {kernels}/{inputs} differs from the reference {:?}/{:?}",
                field("kernels"),
                field("inputs")
            ));
        }
    }
    Some((kernels, inputs))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload and returns its result line.
fn measure(workload: &str, args: &Args) -> String {
    host::reset();
    let jiffies = host::cpu_jiffies();
    let calib_start = host::calib_ms();
    let ctx = |seconds: f64| Ctx {
        seed: args.seed,
        seconds,
        size: args.size,
        setups: match args.size {
            Size::Full => 9,
            Size::Tiny => 2,
        },
    };
    let (mut out, metrics) = if args.trace {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead.
        let plain = run(workload, &ctx(args.seconds / 2.0));
        let plain_e2e = end_to_end(&plain);
        trace::enable();
        let started = Instant::now();
        let mut traced = run(workload, &ctx(args.seconds / 2.0));
        let traced_wall_s = started.elapsed().as_secs_f64();
        let spans = trace::take();
        let replay = layers::replay(&traced.replay).unwrap_or_else(|e| {
            traced.fail(format!("layer replay: {e}"));
            layers::Replay::default()
        });
        let replay_spans = trace::take();
        trace::disable();
        let traced_e2e = end_to_end(&traced);
        for ((name, a, unit), (_, b, _)) in plain_e2e.iter().zip(&traced_e2e) {
            println!("# untraced {name} = {a} {unit}; traced = {b} {unit}");
        }
        let overhead = ratio(plain_e2e[0].1 - traced_e2e[0].1, plain_e2e[0].1);
        let mut all_spans = spans.clone();
        all_spans.extend_from_slice(&replay_spans);
        let path = work_dir().join(format!("trace-{workload}-{}.jsonl", args.seed));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(&all_spans)) {
            println!("# could not write {}: {e}", path.display());
        }
        let metrics = per_layer(
            workload,
            &traced,
            &spans,
            &replay_spans,
            &replay,
            traced_wall_s,
            overhead,
        );
        // Both halves' passes must repeat the first and match the
        // reference.
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.problems.extend(plain.problems);
        traced.digests.extend(plain.digests);
        (traced, metrics)
    } else {
        let out = run(workload, &ctx(args.seconds));
        let metrics = end_to_end(&out);
        (out, metrics)
    };
    let digests = check_digests(workload, &ctx(args.seconds), &mut out);
    let calib_end = host::calib_ms();
    let host_metrics: Vec<Metric> = vec![
        ("host.runq_wait_frac", host::runq_wait_frac(), "frac"),
        (
            "host.steal_frac",
            host::steal_frac(jiffies, host::cpu_jiffies()),
            "frac",
        ),
        ("host.calib_ms", (calib_start + calib_end) / 2.0, "ms"),
    ];
    println!(
        "# workload={workload} seed={} seconds={} trace={} size={:?} nproc={} passes={} ops={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size,
        nproc(),
        out.passes.len(),
        out.op_seconds.len()
    );
    let rates = |secs: fn(&Pass) -> f64| {
        out.passes
            .iter()
            .map(|p| format!("{:.0}", p.insts as f64 / secs(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# per-pass sim_insts_per_cpu_s: {}", rates(|p| p.cpu_s));
    println!(
        "# per-pass sim_insts per wall second: {}",
        rates(|p| p.wall_s)
    );
    let op_ms: Vec<f64> = out.op_seconds.iter().map(|s| s * 1e3).collect();
    let (tail, blocks) = stats::blocked_tail(&op_ms);
    println!(
        "# op_cpu_ms_tail is the median over {blocks} blocks of their p{}, {} operations in all; \
         setup_s is the median of {} set-ups",
        tail.percentile,
        tail.samples,
        out.setup_s.len()
    );
    for (name, value, unit) in &host_metrics {
        println!("# {name} = {value} {unit}");
    }
    if let Some(d) = &digests {
        println!("# digest kernels={} inputs={}", d.0, d.1);
    }
    for problem in &out.problems {
        println!("# FAILED: {problem}");
    }
    let mut metrics = metrics;
    if args.trace {
        metrics.extend(host_metrics);
    }
    let correct = out.failed == 0 && digests.is_some();
    json_line(correct, out.attempted.max(1), out.failed, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|tiny]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("perfbench: creating {}: {e}", work_dir().display());
        std::process::exit(1);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        println!("{}", measure(name, &args));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_metrics_follow_the_stage_slots() {
        for (metric, slot) in WORK_METRICS.iter().zip(regshare::sim::STAGE_SLOT_NAMES) {
            assert_eq!(*metric, format!("sim.work.{slot}"));
        }
    }
}
