//! The in-process simulation workloads: `detailed`, `sweep` and
//! `sampled`.

use crate::inputs::{kernel, program_set, Source};
use crate::{host, repeat_setup, timed, trace, Ctx, Outcome, Size};
use regshare::area::{equal_area_config, RegFilePorts};
use regshare::core::{BankConfig, BaselineRenamer, Renamer, RenamerConfig, ReuseRenamer};
use regshare::harness::{
    experiment_config, par_map, par_map_with, renamer_config_for, renamer_for, Scheme, FIXED_RF,
};
use regshare::isa::{Program, RegClass};
use regshare::sim::{
    run_window, sample_windows, FetchPolicyKind, Pipeline, SampledConfig, SampledReport, SimConfig,
    SimReport, WindowResult,
};
use regshare::stats::SamplePlan;
use std::sync::Mutex;

const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::Proposed];

/// The paper's headline equal-area point (Table III row for 64
/// baseline registers) for the swept file; the other file keeps its
/// Table I size, [`FIXED_RF`].
const HEADLINE_RF: usize = 64;

/// One simulation point: one program per hardware thread.
#[derive(Clone)]
pub struct Point {
    pub sources: Vec<usize>,
    pub scheme: Scheme,
    pub rf: usize,
    pub width: usize,
    pub budget: u64,
}

impl Point {
    fn single(source: usize, scheme: Scheme, rf: usize, budget: u64) -> Point {
        Point {
            sources: vec![source],
            scheme,
            rf,
            width: 3,
            budget,
        }
    }

    fn renamer(&self, swept: RegClass) -> Box<dyn Renamer> {
        let threads = self.sources.len();
        if threads == 1 && BankConfig::PAPER_SIZES.contains(&self.rf) {
            return renamer_for(self.scheme, self.rf, swept);
        }
        let banked = match self.scheme {
            Scheme::Baseline => BankConfig::conventional(self.rf),
            // Table III has no row for the Table I size; the area model
            // solves the same equal-area split there.
            Scheme::Proposed if threads == 1 => equal_area_config(self.rf, RegFilePorts::default()),
            Scheme::Proposed => BankConfig::paper_row(self.rf),
        };
        // Every SMT thread pins its architectural state in the shared
        // file, so SMT points bank both classes; one thread banks only
        // the swept file, as the harness does.
        let other = match threads {
            1 => BankConfig::conventional(FIXED_RF),
            _ => banked.clone(),
        };
        let (int_banks, fp_banks) = match swept {
            RegClass::Int => (banked, other),
            RegClass::Fp => (other, banked),
        };
        let config = RenamerConfig {
            int_banks,
            fp_banks,
            ..RenamerConfig::baseline(self.rf)
        }
        .with_threads(threads);
        match self.scheme {
            Scheme::Baseline => Box::new(BaselineRenamer::new(config)),
            Scheme::Proposed => Box::new(ReuseRenamer::new(config)),
        }
    }

    fn config(&self, oracle: bool) -> SimConfig {
        let threads = self.sources.len();
        let budget = self.budget * threads as u64;
        let mut config = experiment_config(budget)
            .with_width(self.width)
            .with_threads(threads);
        if threads > 1 {
            config.fetch_policy = FetchPolicyKind::Icount;
            config.max_cycles = budget.saturating_mul(200).max(2_000_000);
        }
        config.check_oracle = oracle;
        config
    }
}

/// Builds the pipeline for `point` over `programs` and runs it.
pub fn simulate(
    programs: Vec<Program>,
    point: &Point,
    swept: RegClass,
    oracle: bool,
) -> Result<SimReport, String> {
    let renamer = point.renamer(swept);
    let mut sim = trace::span("sim.pipeline_new", || {
        Pipeline::new_smt(programs, renamer, point.config(oracle))
    })
    .map_err(|e| e.to_string())?;
    trace::span("sim.run", || sim.run()).map_err(|e| e.to_string())
}

/// Runs every seed-generated program once under the lockstep oracle,
/// outside timing and set-up: a simulated commit that diverges from the
/// functional machine fails the run.
fn oracle_pass(sources: &[Source], rf: usize, budget: u64, out: &mut Outcome) {
    for (i, source) in sources.iter().enumerate().filter(|(_, s)| s.seeded()) {
        for scheme in SCHEMES {
            let point = Point::single(i, scheme, rf, budget);
            out.attempted += 1;
            let program = source.build(budget);
            let checked = trace::paused(|| simulate(vec![program], &point, source.swept(), true));
            if let Err(e) = checked {
                out.fail(format!("oracle check of {}: {e}", source.label()));
            }
        }
    }
}

/// Runs `points` as timed passes on `workers` threads (`None` = one per
/// core) until `ctx.seconds` have passed. `programs` supplies a point's
/// programs; building them inside the operation is part of its cost. An
/// operation's time is the CPU time of the thread that ran it.
fn run_points(
    ctx: &Ctx,
    sources: &[Source],
    points: &[Point],
    workers: Option<usize>,
    programs: impl Fn(&Point) -> Vec<Program> + Sync,
    out: &mut Outcome,
) {
    let passes = timed(ctx.seconds, || {
        trace::span("harness.pass", || {
            let pass = trace::current().0;
            par_map_with(points, workers, |point| {
                let started = host::thread_cpu_s();
                let report = trace::op("harness.point", pass, || {
                    host::metered(|| {
                        let swept = sources[point.sources[0]].swept();
                        simulate(programs(point), point, swept, false)
                    })
                });
                (report, host::thread_cpu_s() - started)
            })
        })
    });
    for (index, mut pass) in passes.into_iter().enumerate() {
        let mut insts = 0;
        let mut digest = crate::Digest::default();
        for (point, (report, seconds)) in points.iter().zip(std::mem::take(&mut pass.result)) {
            out.op_seconds.push(seconds);
            out.attempted += 1;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            insts += report.committed_instructions;
            out.sim.cycles += report.cycles;
            out.sim.detailed_s += report.wall_seconds;
            out.sim.run_ms.push(report.wall_seconds * 1e3);
            let seeded = point.sources.iter().any(|&s| sources[s].seeded());
            digest.add(
                seeded,
                &[
                    report.cycles,
                    report.committed_instructions,
                    report.committed_uops,
                    report.rename_stall_cycles,
                    report.rename.reuses,
                ],
            );
            if index == 0 {
                out.counts.rename_stall_cycles += report.rename_stall_cycles;
                for (sum, w) in out.counts.work.iter_mut().zip(report.profile.work) {
                    *sum += w;
                }
            }
        }
        out.pass(&pass, insts, points.len(), digest);
    }
}

/// The instruction budget that brings `point`'s single program to about
/// `work` simulated cycles plus committed micro-ops, from the rate of a
/// `probe`-instruction run. Host time tracks that sum (each counts about
/// as much), so runs sized to it cost within a factor of about three of
/// each other, against five at one instruction budget: the tail latency
/// rests on many like runs rather than on the few slowest kernels. The
/// counts are deterministic, so the budget is too.
fn sized_budget(source: &Source, point: &Point, probe: u64, work: u64) -> Result<u64, String> {
    let probe_point = Point {
        budget: probe,
        ..point.clone()
    };
    let report = simulate(
        vec![source.build(probe)],
        &probe_point,
        source.swept(),
        false,
    )?;
    let probe_work = (report.cycles + report.committed_uops).max(1);
    Ok((probe * work / probe_work).div_ceil(100) * 100)
}

/// `detailed`: every kernel plus seed-drawn synthetic programs under
/// both schemes at the Table I register file, one long single-threaded
/// run each, programs built during set-up. An untimed probe pass sizes
/// every run to the same simulated work. Runs go one at a time to a
/// single worker: two simulating threads on a machine of few cores slow
/// each other by an amount that varies from run to run.
pub fn detailed(ctx: &Ctx) -> Outcome {
    // Programs, seed-drawn programs, the oracle pass's budget, and the
    // probe budget and simulated work that size each run.
    let (kernels, synthetic, oracle_budget, probe, work) = match ctx.size {
        Size::Full => (18, 4, 40_000, 10_000, 200_000),
        Size::Tiny => (3, 1, 2_000, 1_000, 6_000),
    };
    let sources = program_set(ctx.seed, kernels, synthetic);
    let mut out = Outcome::default();
    let to_size: Vec<Point> = (0..sources.len())
        .flat_map(|i| SCHEMES.map(|s| Point::single(i, s, FIXED_RF, 0)))
        .collect();
    let budgets = trace::paused(|| {
        par_map(&to_size, |p| {
            sized_budget(&sources[p.sources[0]], p, probe, work)
        })
    });
    let mut points = Vec::new();
    for (point, budget) in to_size.into_iter().zip(budgets) {
        out.attempted += 1;
        match budget {
            Ok(budget) => points.push(Point { budget, ..point }),
            Err(e) => out.fail(format!("sizing {}: {e}", sources[point.sources[0]].label())),
        }
    }
    let (setup_s, programs) = repeat_setup(ctx.setups, || {
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let budget = points
                    .iter()
                    .filter(|p| p.sources[0] == i)
                    .map(|p| p.budget)
                    .max()
                    .unwrap_or(oracle_budget);
                trace::span("workloads.program_build", || s.build(budget))
            })
            .collect::<Vec<_>>()
    });
    out.setup_s = setup_s;
    oracle_pass(&sources, FIXED_RF, oracle_budget, &mut out);
    run_points(
        ctx,
        &sources,
        &points,
        Some(1),
        |p| vec![programs[p.sources[0]].clone()],
        &mut out,
    );
    out.replay = programs
        .into_iter()
        .zip(&sources)
        .map(|(p, s)| (p, s.swept()))
        .collect();
    out
}

/// `sweep`: a fig10-style register-file sweep at a short budget — every
/// program × both schemes × five register-file sizes, plus 2-thread
/// ICOUNT and 8-wide points — on one worker per core. Each point builds
/// its own program and pipeline, as the experiment harness does.
pub fn sweep(ctx: &Ctx) -> Outcome {
    let (kernels, synthetic, budget, sizes, extra): (usize, usize, u64, &[usize], usize) =
        match ctx.size {
            Size::Full => (18, 2, 10_000, &[48, 64, 80, 96, 112], 2),
            Size::Tiny => (2, 1, 1_000, &[48, 112], 1),
        };
    let mut sources = Vec::new();
    let mut points = Vec::new();
    let mut programs = Vec::new();
    let (setup_s, ()) = repeat_setup(ctx.setups, || {
        sources = program_set(ctx.seed, kernels, synthetic);
        let base = sources.len();
        // Fixed SMT pairs and wide-machine kernels mixing both suites.
        for name in ["saxpy", "hashjoin", "fft", "crc32", "matmul", "pchase"] {
            sources.push(Source::Kernel(kernel(name)));
        }
        points = (0..base)
            .flat_map(|i| {
                sizes
                    .iter()
                    .flat_map(move |&rf| SCHEMES.map(|s| Point::single(i, s, rf, budget)))
            })
            .collect();
        for scheme in SCHEMES {
            for m in 0..extra {
                points.push(Point {
                    sources: vec![base + 2 * m, base + 2 * m + 1],
                    ..Point::single(0, scheme, 112, budget)
                });
                points.push(Point {
                    width: 8,
                    ..Point::single(base + 4 + m, scheme, 96, budget)
                });
            }
        }
        // Building each program once checks the generated inputs before
        // timing; the points still build their own.
        programs = sources
            .iter()
            .map(|s| trace::span("workloads.program_build", || s.build(budget)))
            .collect::<Vec<_>>();
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    oracle_pass(&sources, HEADLINE_RF, budget, &mut out);
    run_points(
        ctx,
        &sources,
        &points,
        None,
        |p| {
            trace::span("workloads.program_build", || {
                p.sources
                    .iter()
                    .map(|&s| sources[s].build(p.budget))
                    .collect()
            })
        },
        &mut out,
    );
    out.replay = programs
        .into_iter()
        .zip(&sources)
        .map(|(p, s)| (p, s.swept()))
        .collect();
    out
}

/// `sampled`: the two-speed engine — one sequential functional-warming
/// pass per program feeding periodic detailed windows sliced across one
/// worker per core — at a budget where warming takes most host time.
pub fn sampled(ctx: &Ctx) -> Outcome {
    let (kernels, synthetic, scale, plan, lead) = match ctx.size {
        Size::Full => (
            18,
            2,
            3_000_000,
            SamplePlan::new(800_000, 2_000, 10_000),
            regshare::sim::DEFAULT_LEAD,
        ),
        Size::Tiny => (2, 1, 60_000, SamplePlan::new(20_000, 500, 2_000), 5_000),
    };
    let sources = program_set(ctx.seed, kernels, synthetic);
    let sample = SampledConfig {
        lead,
        ..SampledConfig::new(plan)
    };
    let (setup_s, programs) = repeat_setup(ctx.setups, || {
        sources
            .iter()
            .map(|s| trace::span("workloads.program_build", || s.build(scale)))
            .collect::<Vec<_>>()
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    oracle_pass(&sources, HEADLINE_RF, 100_000.min(scale), &mut out);
    // Programs run one at a time, so the process's CPU time during one is
    // that program's: its warming thread plus its window workers.
    let passes = timed(ctx.seconds, || {
        trace::span("harness.pass", || {
            let pass = trace::current().0;
            sources
                .iter()
                .zip(&programs)
                .map(|(source, program)| {
                    let started = host::process_cpu_s();
                    let report = trace::op("harness.point", pass, || {
                        host::metered(|| sampled_run(program, source.swept(), scale, &sample))
                    });
                    (report, host::process_cpu_s() - started)
                })
                .collect::<Vec<_>>()
        })
    });
    for mut pass in passes {
        let mut insts = 0;
        let mut digest = crate::Digest::default();
        for (source, (report, seconds)) in sources.iter().zip(std::mem::take(&mut pass.result)) {
            out.op_seconds.push(seconds);
            out.attempted += 1;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{}: {e}", source.label()));
                    continue;
                }
            };
            insts += report.warm_instructions + report.detailed_instructions;
            out.sim.warm_s += report.warm_seconds;
            out.sim.detailed_s += report.detailed_seconds;
            for w in &report.windows {
                out.sim.cycles += w.cycles;
                out.sim.run_ms.push(w.wall_seconds * 1e3);
            }
            digest.add(
                source.seeded(),
                &[
                    report.warm_instructions,
                    report.detailed_instructions,
                    report.detailed_uops,
                    report.detailed_cycles,
                    report.ipc_mean().to_bits(),
                    report.ipc_ci95().to_bits(),
                ],
            );
        }
        out.pass(&pass, insts, sources.len(), digest);
    }
    out.replay = sources
        .iter()
        .map(|s| (s.build(crate::layers::REPLAY_LEN), s.swept()))
        .collect();
    out
}

/// One program through the two-speed engine under the proposed scheme,
/// as `harness::run_kernel_sampled` runs a kernel.
fn sampled_run(
    program: &Program,
    swept: RegClass,
    scale: u64,
    sample: &SampledConfig,
) -> Result<SampledReport, String> {
    let rconfig = renamer_config_for(Scheme::Proposed, HEADLINE_RF, swept);
    let config = experiment_config(scale);
    let errors = Mutex::new(Vec::new());
    let report = trace::span("sim.sampled", || {
        sample_windows(program, &config, sample, scale, |jobs| {
            trace::span("harness.batch", || {
                let under = trace::current();
                par_map_with(&jobs, None, |job| {
                    trace::span_under("sim.window", under, || {
                        let renamer = renamer_for(Scheme::Proposed, HEADLINE_RF, swept);
                        run_window(job, renamer, &rconfig, config.clone())
                    })
                    .unwrap_or_else(|e| {
                        errors
                            .lock()
                            .expect("window error list poisoned")
                            .push(format!("window at {}: {e}", job.spec.start));
                        WindowResult {
                            start: job.spec.start,
                            instructions: 0,
                            cycles: 0,
                            uops: 0,
                            wall_seconds: 0.0,
                        }
                    })
                })
            })
        })
    });
    let errors = errors.into_inner().expect("window error list poisoned");
    match errors.first() {
        None => Ok(report),
        Some(e) => Err(e.clone()),
    }
}
