//! The §IV/§VI-C ablations: the proposed scheme's swept file at 64
//! registers (equal count), varied one dimension at a time from the
//! paper's 52/4/4/4 split, 2-bit counter, 512-entry predictor and
//! speculative reuse. Each ablation is a settings table; the 64-register
//! baseline runs once and every setting is measured against it.

use super::common::{save, Args, ExpError};
use crate::core::{BankConfig, RenamerConfig, ReuseRenamer};
use crate::harness::{
    experiment_config, par_map, run_kernel, run_kernel_with, swept_class, Scheme, FIXED_RF,
};
use crate::isa::RegClass;
use crate::stats::{geomean, Table};
use crate::workloads::all_kernels;
use serde::Serialize;

/// One ablation setting of the proposed scheme's swept file.
struct Setting {
    banks: [usize; 4],
    counter_bits: u8,
    predictor_entries: usize,
    speculative_reuse: bool,
}

/// The paper's configuration at 64 registers, equal count.
const PAPER: Setting = Setting {
    banks: [52, 4, 4, 4],
    counter_bits: 2,
    predictor_entries: 512,
    speculative_reuse: true,
};

impl Setting {
    fn config(&self, swept: RegClass) -> RenamerConfig {
        RenamerConfig {
            counter_bits: self.counter_bits,
            predictor_entries: self.predictor_entries,
            speculative_reuse: self.speculative_reuse,
            ..RenamerConfig::baseline(FIXED_RF)
                .with_banks(swept, BankConfig::new(self.banks.to_vec()))
        }
    }
}

#[derive(Serialize)]
struct AblateRow {
    setting: String,
    geomean_speedup: f64,
    mean_reuse_pct: f64,
}

/// Version-counter width: an n-bit counter allows 2^n − 1 reuses. The
/// bank layout stays fixed; narrower counters simply saturate earlier
/// and leave deeper shadow cells unused. Writes `ablate_counter.json`.
pub(crate) fn counter(args: &Args) -> Result<(), ExpError> {
    let title = "== Ablation: version counter width (equal count, 64 regs) ==";
    ablate(args, "ablate_counter", title, [1u8, 2, 3], |bits, s| {
        s.counter_bits = bits;
        format!("{bits}-bit counter")
    })
}

/// Speculative (non-redefining) reuse on vs safe reuses only (§IV-A2).
/// Writes `ablate_speculation.json`.
pub(crate) fn speculation(args: &Args) -> Result<(), ExpError> {
    let title = "== Ablation: speculative (non-redefining) reuse, §IV-A2 (equal count, 64 regs) ==";
    let values = [
        ("safe reuses only", false),
        ("with speculation (paper)", true),
    ];
    ablate(
        args,
        "ablate_speculation",
        title,
        values,
        |(label, spec), s| {
            s.speculative_reuse = spec;
            label.to_string()
        },
    )
}

/// Register type predictor size. Writes `ablate_predictor.json`.
pub(crate) fn predictor(args: &Args) -> Result<(), ExpError> {
    let title = "== Ablation: register type predictor size (equal count, 64 regs) ==";
    let values = [64usize, 128, 256, 512, 1024, 4096];
    ablate(args, "ablate_predictor", title, values, |entries, s| {
        s.predictor_entries = entries;
        format!("{entries} entries")
    })
}

/// Shadow-bank split at a fixed register count. Writes
/// `ablate_banks.json`.
pub(crate) fn banks(args: &Args) -> Result<(), ExpError> {
    let title = "== Ablation: bank split at 64 registers (equal count) ==";
    let splits = [
        [52, 4, 4, 4],
        [48, 8, 4, 4],
        [48, 4, 4, 8],
        [44, 12, 4, 4],
        [52, 12, 0, 0],
        [56, 0, 0, 8],
    ];
    ablate(args, "ablate_banks", title, splits, |banks, s| {
        s.banks = banks;
        format!("{banks:?}")
    })
}

/// Runs one ablation: each value becomes a setting through `vary`,
/// which changes one field of [`PAPER`] and returns the row label.
fn ablate<T: Copy>(
    args: &Args,
    name: &str,
    title: &str,
    values: impl IntoIterator<Item = T>,
    vary: impl Fn(T, &mut Setting) -> String,
) -> Result<(), ExpError> {
    let settings: Vec<(String, Setting)> = values
        .into_iter()
        .map(|v| {
            let mut s = PAPER;
            (vary(v, &mut s), s)
        })
        .collect();
    println!("{title}");
    let kernels = all_kernels();
    let base = par_map(&kernels, |k| {
        run_kernel(k, Scheme::Baseline, 64, args.scale).ipc()
    });
    // Every (setting, kernel) point is independent; par_map keeps them in
    // setting-major order, so each setting's kernels aggregate in kernel
    // order exactly as a serial loop would.
    let points: Vec<(usize, usize)> = (0..settings.len())
        .flat_map(|s| (0..kernels.len()).map(move |k| (s, k)))
        .collect();
    let metrics = par_map(&points, |&(s, k)| {
        let kernel = &kernels[k];
        let config = settings[s].1.config(swept_class(kernel.suite));
        let prop = run_kernel_with(
            kernel,
            Box::new(ReuseRenamer::new(config)),
            experiment_config(args.scale),
            args.scale,
        );
        (prop.ipc() / base[k], prop.rename.reuse_fraction() * 100.0)
    });
    let mut table = Table::with_headers(&["setting", "geomean speedup", "mean reuse %"]);
    table.numeric();
    let mut rows = Vec::new();
    for ((label, _), metrics) in settings.iter().zip(metrics.chunks(kernels.len())) {
        let speedups: Vec<f64> = metrics.iter().map(|m| m.0).collect();
        let reuse: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        let g = geomean(&speedups);
        let m = crate::stats::mean(&reuse);
        table.row(vec![label.clone(), format!("{g:.4}"), format!("{m:.1}")]);
        rows.push(AblateRow {
            setting: label.clone(),
            geomean_speedup: g,
            mean_reuse_pct: m,
        });
    }
    print!("{table}");
    save(&args.out_dir, name, &rows)
}
