//! The IPC-sweep harness behind the `fig10` and `fig10ec` registry
//! rows.

use super::common::{save, Args, ExpError, RF_SIZES};
use crate::core::ReuseRenamer;
use crate::harness::{
    equal_count_config, experiment_config, par_map, run_kernel, run_kernel_with, swept_class,
    Scheme,
};
use crate::stats::{geomean, Table};
use crate::workloads::{all_kernels, Suite};
use serde::Serialize;

#[derive(Serialize)]
struct SpeedupRow {
    kernel: String,
    suite: String,
    rf_regs: usize,
    baseline_ipc: f64,
    proposed_ipc: f64,
    speedup: f64,
    reuse_pct: f64,
}

/// The Fig. 10 sweep: every kernel at every size in [`RF_SIZES`],
/// proposed over baseline IPC, written to `fig10.json`. `equal_count`
/// swaps the equal-area proposed configuration for the
/// equal-register-count one ([`equal_count_config`]) and writes
/// `fig10ec.json` (Fig. 10-EC).
pub(crate) fn speedup_sweep(args: &Args, equal_count: bool) -> Result<(), ExpError> {
    let (name, title) = if equal_count {
        let title = "== Figure 10-EC (extension): equal-register-count speedup vs baseline ==";
        ("fig10ec", title)
    } else {
        let title = "== Figure 10: equal-area speedup vs baseline, per register file size ==";
        ("fig10", title)
    };
    println!("{title}");
    // Every (kernel, size) point is independent; fan out across cores
    // and collect rows back in sweep order.
    let points: Vec<(crate::workloads::Kernel, usize)> = all_kernels()
        .into_iter()
        .flat_map(|k| RF_SIZES.into_iter().map(move |rf| (k, rf)))
        .collect();
    let rows: Vec<SpeedupRow> = par_map(&points, |&(ref k, rf)| {
        let base = run_kernel(k, Scheme::Baseline, rf, args.scale);
        let prop = if equal_count {
            let renamer = ReuseRenamer::new(equal_count_config(rf, swept_class(k.suite)));
            run_kernel_with(
                k,
                Box::new(renamer),
                experiment_config(args.scale),
                args.scale,
            )
        } else {
            run_kernel(k, Scheme::Proposed, rf, args.scale)
        };
        SpeedupRow {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            rf_regs: rf,
            baseline_ipc: base.ipc(),
            proposed_ipc: prop.ipc(),
            speedup: prop.ipc() / base.ipc(),
            reuse_pct: prop.rename.reuse_fraction() * 100.0,
        }
    });
    // Per-kernel rows, then per-suite and overall geomeans. `rows` is
    // kernel-major, one chunk of RF_SIZES per kernel.
    let mut headers: Vec<String> = vec!["kernel".into(), "suite".into()];
    headers.extend(RF_SIZES.iter().map(|n| n.to_string()));
    let mut table = Table::new(headers);
    table.numeric();
    for chunk in rows.chunks(RF_SIZES.len()) {
        let mut cells = vec![chunk[0].kernel.clone(), chunk[0].suite.clone()];
        cells.extend(chunk.iter().map(|r| format!("{:.3}", r.speedup)));
        table.row(cells);
    }
    let labels = Suite::ALL.iter().map(|s| s.label()).chain(["ALL"]);
    for label in labels {
        let mut cells = vec!["GEOMEAN".to_string(), label.to_string()];
        for rf in RF_SIZES {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| (label == "ALL" || r.suite == label) && r.rf_regs == rf)
                .map(|r| r.speedup)
                .collect();
            cells.push(format!("{:.3}", geomean(&vals)));
        }
        table.row(cells);
    }
    print!("{table}");
    save(&args.out_dir, name, &rows)
}
