//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- fig10 fig11 --scale 200000
//! ```
//!
//! Each experiment prints its table and writes machine-readable rows to
//! `results/<exp>.json`. The experiments themselves live in
//! `regshare::experiments` (one module per subcommand); this binary only
//! parses flags and dispatches through the registry.

use regshare::experiments::{die, registry, Args};

fn parse_args() -> Args {
    let mut exps = Vec::new();
    let mut scale = 150_000u64;
    let mut out_dir = "results".to_string();
    let mut campaigns = 108usize;
    let mut seed = 0xC0FFEEu64;
    let mut kernels = None;
    let mut sample = false;
    let mut workers = None;
    let mut period = None;
    let mut warmup = None;
    let mut measure = None;
    let mut port = 0u16;
    let mut data_dir = "results/serve".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--out" => {
                out_dir = it.next().unwrap_or_else(|| die("--out needs a directory"));
            }
            "--campaigns" => {
                campaigns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--campaigns needs a number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--kernels" => {
                let list = it.next().unwrap_or_else(|| die("--kernels needs a list"));
                kernels = Some(list.split(',').map(str::to_string).collect());
            }
            "--sample" => sample = true,
            "--workers" => {
                workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--workers needs a number")),
                );
            }
            "--period" => {
                period = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--period needs a number")),
                );
            }
            "--warmup" => {
                warmup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--warmup needs a number")),
                );
            }
            "--measure" => {
                measure = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--measure needs a number")),
                );
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--port needs a port number"));
            }
            "--data-dir" => {
                data_dir = it
                    .next()
                    .unwrap_or_else(|| die("--data-dir needs a directory"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [EXPERIMENT..] [--scale N] [--out DIR]\n\
                     \x20                 [--campaigns N] [--seed N] [--kernels a,b,c]\n\
                     \x20                 [--sample] [--workers N] [--period N] \
                     [--warmup N] [--measure N]\n\
                     \x20                 [--port N] [--data-dir DIR]\n\
                     experiments: fig1 fig2 fig3 table1 table2 table3 fig9 fig10 fig10ec \
                     fig11 fig12 analyze hints ablate-counter ablate-predictor ablate-banks \
                     ablate-speculation inject smt sample shape serve submit all\n\
                     --campaigns/--seed/--kernels apply to the `inject` fault-injection \
                     sweep only\n\
                     --sample makes `all` run the two-speed sampled registry (sample, \
                     shape), the mode that scales to --scale 1000000000\n\
                     --workers/--period/--warmup/--measure tune sampled runs\n\
                     `serve` runs the job service (--port to pin the bind port, \
                     --data-dir for journal+cache, --workers for pool size); `submit` \
                     batches a sweep to a running service at --port and verifies the \
                     results against in-process runs"
                );
                std::process::exit(0);
            }
            other => exps.push(other.to_string()),
        }
    }
    if exps.is_empty() {
        exps.push("all".into());
    }
    Args {
        exps,
        scale,
        out_dir,
        campaigns,
        seed,
        kernels,
        sample,
        workers,
        period,
        warmup,
        measure,
        port,
        data_dir,
    }
}

fn main() {
    let args = parse_args();
    let known = registry();
    // The two-speed registry: everything that scales to 10⁹. `all`
    // runs it only under `--sample`.
    let sampled = ["sample", "shape"];
    // The job service pair blocks on (or requires) a live listener, so
    // `all` never includes it either.
    let service = ["serve", "submit"];
    let selected: Vec<&str> = if args.exps.iter().any(|e| e == "all") {
        if args.sample {
            sampled.to_vec()
        } else {
            known
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !sampled.contains(n) && !service.contains(n))
                .collect()
        }
    } else {
        args.exps.iter().map(String::as_str).collect()
    };
    for name in selected {
        match known.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => {
                if let Err(e) = f(&args) {
                    die(&format!("{name}: {e}"));
                }
            }
            None => die(&format!("unknown experiment: {name} (try --help)")),
        }
    }
}
