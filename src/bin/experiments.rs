//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- fig10 fig11 --scale 200000
//! ```
//!
//! Each experiment prints its table and writes machine-readable rows to
//! `results/<exp>.json`. The experiments themselves live in
//! `regshare::experiments`; this binary only parses flags and runs what
//! the registry selects.

use regshare::experiments::{die, registry, select, Args, Group};
use std::str::FromStr;

/// The value after `flag`, or exit with a diagnostic.
fn value(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// The numeric value after `flag`, or exit with a diagnostic.
fn number<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    value(it, flag, "a number")
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a number")))
}

/// The registry names of one group, space-separated.
fn group_names(group: Group) -> String {
    let names: Vec<&str> = registry()
        .iter()
        .filter(|e| e.group == group)
        .map(|e| e.name)
        .collect();
    names.join(" ")
}

fn usage() -> ! {
    println!(
        "usage: experiments [EXPERIMENT..] [--scale N] [--out DIR]\n\
         \x20                 [--campaigns N] [--seed N] [--kernels a,b,c]\n\
         \x20                 [--sample] [--workers N] [--period N] \
         [--warmup N] [--measure N]\n\
         \x20                 [--port N] [--data-dir DIR]\n\
         `all` runs, in order: {}\n\
         `all --sample` runs: {}\n\
         job service (never in `all`): {}\n\
         --campaigns/--seed/--kernels apply to the `inject` fault-injection \
         sweep only\n\
         --sample makes `all` run the two-speed sampled registry, the mode \
         that scales to --scale 1000000000\n\
         --workers/--period/--warmup/--measure tune sampled runs\n\
         `serve` runs the job service (--port to pin the bind port, \
         --data-dir for journal+cache, --workers for pool size); `submit` \
         batches a sweep to a running service at --port and verifies the \
         results against in-process runs",
        group_names(Group::Paper),
        group_names(Group::Sampled),
        group_names(Group::Service),
    );
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        exps: Vec::new(),
        scale: 150_000,
        out_dir: "results".to_string(),
        campaigns: 108,
        seed: 0xC0FFEE,
        kernels: None,
        sample: false,
        workers: None,
        period: None,
        warmup: None,
        measure: None,
        port: 0,
        data_dir: "results/serve".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = number(&mut it, &a),
            "--out" => args.out_dir = value(&mut it, &a, "a directory"),
            "--campaigns" => args.campaigns = number(&mut it, &a),
            "--seed" => args.seed = number(&mut it, &a),
            "--kernels" => {
                let list = value(&mut it, &a, "a list");
                args.kernels = Some(list.split(',').map(str::to_string).collect());
            }
            "--sample" => args.sample = true,
            "--workers" => args.workers = Some(number(&mut it, &a)),
            "--period" => args.period = Some(number(&mut it, &a)),
            "--warmup" => args.warmup = Some(number(&mut it, &a)),
            "--measure" => args.measure = Some(number(&mut it, &a)),
            "--port" => args.port = number(&mut it, &a),
            "--data-dir" => args.data_dir = value(&mut it, &a, "a directory"),
            "--help" | "-h" => usage(),
            _ => args.exps.push(a),
        }
    }
    if args.exps.is_empty() {
        args.exps.push("all".into());
    }
    args
}

fn main() {
    let args = parse_args();
    let selected = select(&args.exps, args.sample).unwrap_or_else(|e| die(&e));
    for exp in selected {
        if let Err(e) = (exp.run)(&args) {
            die(&format!("{}: {e}", exp.name));
        }
    }
}
