//! The service workload, `serve`.
//!
//! An in-process `Server` with the simulator executor (one worker per
//! core) and a fresh data directory is driven as a closed loop by one
//! client thread with one job outstanding: more clients on a machine
//! of few cores would time the scheduler more than the service. A job
//! runs from its submit request to the reply that carries its result.
//! With one job in flight, the process's CPU time over that interval is
//! the job's cost to the service — HTTP on both sides, admission,
//! journal, simulation, cache and the polls — and is the operation time
//! the end-to-end metrics use; the wall latency goes to the per-layer
//! metrics, since on a shared virtual machine it follows the host's
//! load. Polls are 1 ms apart, not the 25 ms of `Client::wait_terminal`,
//! so the sleep does not quantise the latency, and `/stats` is read only
//! outside the timed passes.

use crate::inputs::Rng;
use crate::{host, repeat_setup, timed, trace, Ctx, Digest, Outcome, ServeFacts, Size, Timed};
use regshare::core::BankConfig;
use regshare::experiments::SimExecutor;
use regshare::harness::swept_class;
use regshare::isa::{Program, RegClass};
use regshare::workloads::all_kernels;
use regshare_serve::{fnv1a64, Client, JobExecutor, ServeConfig, Server};
use serde::Value;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const POLL_PAUSE: Duration = Duration::from_millis(1);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running service over a fresh data directory; dropping it drains
/// the server, joins its threads and removes the directory.
struct Service {
    server: Option<Server>,
    dir: PathBuf,
    addr: String,
}

impl Service {
    fn start() -> std::io::Result<Service> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let dir = crate::work_dir().join(format!("serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: crate::nproc(),
            data_dir: dir.clone(),
            deadline: Duration::from_secs(120),
            ..ServeConfig::default()
        };
        let server = trace::span("serve.start", || {
            Server::start(config, Arc::new(SimExecutor))
        })?;
        let addr = format!("127.0.0.1:{}", server.port());
        Ok(Service {
            server: Some(server),
            dir,
            addr,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One job as the client saw it: wall latency, the process's CPU time
/// meanwhile, and the result.
struct Job {
    seconds: f64,
    cpu_s: f64,
    result: Result<String, String>,
}

fn run_job(client: &Client, payload: &Value) -> Job {
    let started = Instant::now();
    let cpu_started = host::process_cpu_s();
    let result = job_result(client, payload, started);
    Job {
        seconds: started.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu_started,
        result,
    }
}

fn job_result(client: &Client, payload: &Value, started: Instant) -> Result<String, String> {
    let body = serde_json::to_string(&Value::Object(vec![(
        "jobs".to_string(),
        Value::Array(vec![payload.clone()]),
    )]))
    .map_err(|e| format!("encode job: {e}"))?;
    let (status, reply) = trace::span("serve.submit", || {
        client.request("POST", "/jobs", Some(&body))
    })?;
    if status != 202 {
        return Err(format!("submit returned {status}"));
    }
    let id = reply
        .get("jobs")
        .and_then(Value::as_array)
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("id"))
        .and_then(Value::as_u64)
        .ok_or("submit reply without a job id")?;
    let path = format!("/jobs/{id}");
    loop {
        let (status, row) = trace::span("serve.poll", || client.request("GET", &path, None))?;
        if status != 200 {
            return Err(format!("job {id} returned {status}"));
        }
        match row.get("status").and_then(Value::as_str) {
            Some("completed") => {
                return row
                    .get("result")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("job {id} completed without a result"))
            }
            Some("dead_lettered") => {
                let error = row.get("error").and_then(Value::as_str).unwrap_or("?");
                return Err(format!("job {id} dead-lettered: {error}"));
            }
            _ if started.elapsed() > JOB_TIMEOUT => {
                return Err(format!("job {id} timed out"));
            }
            _ => std::thread::sleep(POLL_PAUSE),
        }
    }
}

/// Runs every payload through the service in turn from the calling
/// thread: one closed-loop client with one job outstanding. Jobs come
/// back in payload order.
fn closed_loop(addr: &str, payloads: &[Value]) -> Vec<Job> {
    let client = Client::new(addr);
    let pass = trace::current().0;
    payloads
        .iter()
        .map(|payload| {
            trace::op("harness.point", pass, || {
                host::metered(|| run_job(&client, payload))
            })
        })
        .collect()
}

/// Distinct payloads never seen before in this run: a kernel, a scheme,
/// a register-file size and an instruction budget drawn from `rng`. The
/// budgets are stratified — the i-th falls in the i-th of `n` equal
/// slices of the range — so a set's total work barely depends on the
/// seed. The range is narrow, so that jobs differ in cost by their
/// kernel only and the tail latency rests on many like jobs.
fn draw(rng: &mut Rng, n: usize, scales: (u64, u64), seen: &mut HashSet<String>) -> Vec<Value> {
    let kernels = all_kernels();
    let slice = (scales.1 - scales.0) / n as u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let kernel = kernels[rng.below(kernels.len() as u64) as usize].name;
        let scheme = ["baseline", "proposed"][rng.below(2) as usize];
        let rf = BankConfig::PAPER_SIZES[rng.below(7) as usize];
        let scale = scales.0 + slice * out.len() as u64 + rng.below(slice.max(1));
        let payload = Value::Object(vec![
            ("kernel".to_string(), Value::Str(kernel.to_string())),
            ("scheme".to_string(), Value::Str(scheme.to_string())),
            ("rf".to_string(), Value::UInt(rf as u64)),
            ("scale".to_string(), Value::UInt(scale)),
        ]);
        if seen.insert(serde_json::to_string(&payload).expect("payload encodes")) {
            out.push(payload);
        }
    }
    out
}

fn field(result: &str, key: &str) -> u64 {
    serde_json::from_str(result)
        .ok()
        .and_then(|v| v.get(key).and_then(Value::as_u64))
        .unwrap_or(0)
}

/// Byte-compares each served result with an in-process run of the same
/// payload, outside timing. The in-process runs also give the `sim`
/// layer's figures for `serve`.
fn verify(served: &[(Value, String)], out: &mut Outcome) {
    let checked = regshare::harness::par_map(served, |(payload, _)| {
        let started = Instant::now();
        let local = SimExecutor.run(payload, &Arc::new(AtomicBool::new(false)));
        (local, started.elapsed().as_secs_f64())
    });
    for ((payload, result), (local, seconds)) in served.iter().zip(checked) {
        match local {
            Ok(local) if local == *result => {
                out.sim.cycles += field(result, "cycles");
                out.sim.detailed_s += seconds;
                out.sim.run_ms.push(seconds * 1e3);
            }
            Ok(_) => out.fail(format!(
                "served result differs from in-process run of {payload:?}"
            )),
            Err(e) => out.fail(format!("in-process run of {payload:?}: {e}")),
        }
    }
}

/// Reads the service counters from `/stats`; called only outside the
/// timed passes, since `/stats` clones and sorts the latency reservoir.
fn read_stats(service: &Service) -> Result<ServeFacts, String> {
    let stats = Client::new(&service.addr)
        .stats()
        .map_err(|e| format!("reading /stats: {e}"))?;
    let count = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Ok(ServeFacts {
        cache_hits: count(&["cache", "hits"]),
        cache_misses: count(&["cache", "misses"]),
        retries: count(&["retries"]),
        rejected: count(&["rejected_full"]),
        dead_lettered: count(&["dead_letters"]),
        ..ServeFacts::default()
    })
}

/// Folds one pass of jobs into the outcome; returns the served results.
fn account<T>(
    payloads: &[Value],
    jobs: &[Job],
    pass: &Timed<T>,
    out: &mut Outcome,
) -> Vec<(Value, String)> {
    let mut insts = 0;
    let mut digest = Digest::default();
    let mut served = Vec::new();
    for (payload, job) in payloads.iter().zip(jobs) {
        out.attempted += 1;
        out.op_seconds.push(job.cpu_s);
        out.serve.job_ms.push(job.seconds * 1e3);
        match &job.result {
            Ok(result) => {
                insts += field(result, "committed_instructions");
                digest.add(true, &[fnv1a64(result.as_bytes())]);
                served.push((payload.clone(), result.clone()));
            }
            Err(e) => out.fail(e.clone()),
        }
    }
    out.pass(pass, insts, payloads.len(), digest);
    served
}

struct Sizes {
    pass_jobs: usize,
    scales: (u64, u64),
}

fn sizes(ctx: &Ctx) -> Sizes {
    match ctx.size {
        Size::Full => Sizes {
            pass_jobs: 32,
            scales: (45_000, 55_000),
        },
        Size::Tiny => Sizes {
            pass_jobs: 6,
            scales: (500, 1_500),
        },
    }
}

/// `serve`: every job carries a payload not seen before, so each one is
/// queued, journaled, simulated by a worker and cached. After the timed
/// passes, one untimed pass resubmits every served payload: each is a
/// cache hit at admission, so its latency is the service's own overhead
/// (HTTP, admission, cache lookup, result fetch), and it must return the
/// first result byte for byte.
pub fn serve(ctx: &Ctx) -> Outcome {
    let sizes = sizes(ctx);
    let mut out = Outcome {
        fresh_inputs_each_pass: true,
        ..Outcome::default()
    };
    let (setup_s, service) = repeat_setup(ctx.setups, Service::start);
    out.setup_s = setup_s;
    let service = match service {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("starting the service: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(ctx.seed);
    let mut seen = HashSet::new();
    let passes = timed(ctx.seconds, || {
        let payloads = draw(&mut rng, sizes.pass_jobs, sizes.scales, &mut seen);
        let jobs = trace::span("harness.pass", || closed_loop(&service.addr, &payloads));
        (payloads, jobs)
    });
    let mut served = Vec::new();
    for pass in &passes {
        let (payloads, jobs) = &pass.result;
        served.extend(account(payloads, jobs, pass, &mut out));
    }
    let cold = read_stats(&service);
    cached_pass(&service, &served, &mut out);
    match (cold, read_stats(&service)) {
        (Ok(cold), Ok(after)) => {
            let serve = &mut out.serve;
            serve.cache_hits = after.cache_hits - cold.cache_hits;
            serve.cache_misses = after.cache_misses - cold.cache_misses;
            serve.retries = after.retries;
            serve.rejected = after.rejected;
            serve.dead_lettered = after.dead_lettered;
        }
        (Err(e), _) | (_, Err(e)) => out.fail(e),
    }
    drop(service);
    verify(&served, &mut out);
    out.replay = replay_programs(&served);
    out
}

/// Resubmits every served payload once, untimed and untraced; a reply
/// must equal the first result.
fn cached_pass(service: &Service, served: &[(Value, String)], out: &mut Outcome) {
    let payloads: Vec<Value> = served.iter().map(|(p, _)| p.clone()).collect();
    let jobs = trace::paused(|| closed_loop(&service.addr, &payloads));
    for ((payload, first), job) in served.iter().zip(jobs) {
        out.attempted += 1;
        match job.result {
            Ok(result) if result == *first => out.serve.cached_ms.push(job.seconds * 1e3),
            Ok(_) => out.fail(format!(
                "cached result for {payload:?} differs from its first run"
            )),
            Err(e) => out.fail(format!("cached pass: {e}")),
        }
    }
}

/// The distinct kernels the served jobs ran, for the layer replays.
fn replay_programs(served: &[(Value, String)]) -> Vec<(Program, RegClass)> {
    let mut names: Vec<&str> = served
        .iter()
        .filter_map(|(p, _)| p.get("kernel").and_then(Value::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let kernel = crate::inputs::kernel(n);
            let program = trace::span("workloads.program_build", || {
                kernel.program(crate::layers::REPLAY_LEN)
            });
            (program, swept_class(kernel.suite))
        })
        .collect()
}
