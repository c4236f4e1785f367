//! `regsim` — run one workload through the simulator from the command
//! line.
//!
//! ```text
//! regsim --kernel gmm --scheme proposed --regs 48 --scale 200000
//! regsim --kernel pchase --scheme both --regs 64 --verify
//! regsim --synthetic --bias 0.7 --seed 3 --scheme both
//! regsim --file program.s --verify
//! regsim --list
//! ```

use regshare::core::{Renamer, ReuseRenamer};
use regshare::harness::{equal_count_config, renamer_for, swept_class, Scheme};
use regshare::isa::RegClass;
use regshare::sim::{Pipeline, SimConfig};
use regshare::workloads::synthetic::{generate, SyntheticConfig};
use regshare::workloads::{all_kernels, kernel};

struct Options {
    kernel: Option<String>,
    file: Option<String>,
    synthetic: bool,
    bias: f64,
    seed: u64,
    scheme: String,
    regs: usize,
    scale: u64,
    verify: bool,
    equal_count: bool,
    fault: Option<u64>,
    list: bool,
}

fn usage() -> ! {
    println!(
        "usage: regsim [--kernel NAME | --file PROG.s | --synthetic] [options]\n\
         \n\
         workload:\n\
           --kernel NAME      one of the {} built-in kernels (see --list)\n\
           --file PATH        assemble and run a textual .s program\n\
           --synthetic        generated workload (see --bias/--seed)\n\
           --bias F           synthetic single-use bias, 0..1 (default 0.5)\n\
           --seed N           synthetic RNG seed (default 1)\n\
         \n\
         simulation:\n\
           --scheme S         baseline | proposed | both (default both)\n\
           --regs N           swept register file size: 48..112 (default 64)\n\
           --scale N          committed-instruction budget (default 100000)\n\
           --equal-count      proposed scheme keeps the baseline's register count\n\
           --verify           lockstep-check every commit against the functional machine\n\
           --fault ADDR       inject a one-shot page fault at this data address\n\
           --list             list the built-in kernels and exit",
        all_kernels().len()
    );
    std::process::exit(0);
}

fn parse() -> Options {
    let mut o = Options {
        kernel: None,
        file: None,
        synthetic: false,
        bias: 0.5,
        seed: 1,
        scheme: "both".into(),
        regs: 64,
        scale: 100_000,
        verify: false,
        equal_count: false,
        fault: None,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2)
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--kernel" => o.kernel = Some(value(&mut args, "--kernel")),
            "--file" => o.file = Some(value(&mut args, "--file")),
            "--synthetic" => o.synthetic = true,
            "--bias" => o.bias = value(&mut args, "--bias").parse().unwrap_or(0.5),
            "--seed" => o.seed = value(&mut args, "--seed").parse().unwrap_or(1),
            "--scheme" => o.scheme = value(&mut args, "--scheme"),
            "--regs" => o.regs = value(&mut args, "--regs").parse().unwrap_or(64),
            "--scale" => o.scale = value(&mut args, "--scale").parse().unwrap_or(100_000),
            "--verify" => o.verify = true,
            "--equal-count" => o.equal_count = true,
            "--fault" => {
                let v = value(&mut args, "--fault");
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                o.fault = Some(parsed.unwrap_or_else(|_| {
                    eprintln!("error: bad --fault address: {v}");
                    std::process::exit(2)
                }));
            }
            "--list" => o.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    o
}

fn main() {
    let o = parse();
    if o.list {
        println!("{:10}  suite", "kernel");
        for k in all_kernels() {
            println!("{:10}  {}", k.name, k.suite);
        }
        return;
    }

    let (program, swept, label) = if let Some(path) = &o.file {
        let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let program = regshare::isa::parse_program(&source).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        });
        (program, RegClass::Int, path.clone())
    } else if o.synthetic {
        let cfg = SyntheticConfig {
            single_use_bias: o.bias,
            seed: o.seed,
            iterations: (o.scale / 100).max(1),
            ..SyntheticConfig::default()
        };
        (
            generate(cfg),
            RegClass::Int,
            format!("synthetic(bias={}, seed={})", o.bias, o.seed),
        )
    } else {
        let name = o.kernel.clone().unwrap_or_else(|| usage());
        let kernel = kernel(&name).unwrap_or_else(|| {
            eprintln!("error: unknown kernel {name} (try --list)");
            std::process::exit(2);
        });
        (kernel.program(o.scale), swept_class(kernel.suite), name)
    };

    let mut config = SimConfig {
        max_instructions: o.scale,
        max_cycles: o.scale.saturating_mul(100).max(1_000_000),
        check_oracle: o.verify,
        ..SimConfig::default()
    };
    if let Some(addr) = o.fault {
        config.inject_page_faults.push(addr);
    }

    let schemes: Vec<Scheme> = match o.scheme.as_str() {
        "baseline" => vec![Scheme::Baseline],
        "proposed" => vec![Scheme::Proposed],
        "both" => vec![Scheme::Baseline, Scheme::Proposed],
        other => {
            eprintln!("error: unknown scheme {other}");
            std::process::exit(2);
        }
    };

    let mut ipcs = Vec::new();
    for scheme in schemes {
        let renamer: Box<dyn Renamer> = if scheme == Scheme::Proposed && o.equal_count {
            Box::new(ReuseRenamer::new(equal_count_config(o.regs, swept)))
        } else {
            renamer_for(scheme, o.regs, swept)
        };
        let mut sim = Pipeline::new(program.clone(), renamer, config.clone());
        match sim.run() {
            Ok(report) => {
                println!("=== {label} / {} / {} regs ===", scheme.label(), o.regs);
                println!("{report}");
                println!();
                ipcs.push(report.ipc());
            }
            Err(e) => {
                eprintln!("simulation failed ({}): {e}", scheme.label());
                std::process::exit(1);
            }
        }
    }
    if ipcs.len() == 2 && ipcs[0] > 0.0 {
        println!("speedup (proposed / baseline): {:.4}", ipcs[1] / ipcs[0]);
    }
}
