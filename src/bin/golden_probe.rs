//! Prints golden (kernel, scheme) -> (cycles, committed) tuples for the
//! determinism regression test. Dev tool; output is pasted into
//! `tests/determinism.rs` (default mode) or `WIDTH_GOLDEN` in
//! `tests/smt.rs` (`width` mode: the superscalar-width sweep goldens).

use regshare::harness::{
    experiment_config, renamer_for, run_kernel, run_kernel_with, swept_class, Scheme,
};
use regshare::workloads::all_kernels;

fn main() {
    let width_mode = std::env::args().any(|a| a == "width");
    let scale = 8_000;
    let rf = 64;
    if width_mode {
        // The width sweep pins rename-width scaling behavior: widths
        // 2/4/8 (see `SimConfig::with_width`) with all other Table I
        // parameters unchanged.
        for kernel in all_kernels() {
            if !["saxpy", "fft", "hashjoin", "dct", "matmul", "sort"].contains(&kernel.name) {
                continue;
            }
            for scheme in [Scheme::Baseline, Scheme::Proposed] {
                for width in [2usize, 4, 8] {
                    let cfg = experiment_config(scale).with_width(width);
                    let renamer = renamer_for(scheme, rf, swept_class(kernel.suite));
                    let r = run_kernel_with(&kernel, renamer, cfg, scale);
                    println!(
                        "    (\"{}\", Scheme::{:?}, {}, {}, {}),",
                        kernel.name, scheme, width, r.cycles, r.committed_instructions
                    );
                }
            }
        }
        return;
    }
    for kernel in all_kernels() {
        for scheme in [Scheme::Baseline, Scheme::Proposed] {
            let r = run_kernel(&kernel, scheme, rf, scale);
            println!(
                "    (\"{}\", Scheme::{:?}, {}, {}),",
                kernel.name, scheme, r.cycles, r.committed_instructions
            );
        }
    }
}
