#![warn(missing_docs)]

//! `regshare` — register renaming with physical register sharing.
//!
//! A from-scratch reproduction of *"A Novel Register Renaming Technique
//! for Out-of-Order Processors"* (HPCA 2018): an execute-driven
//! out-of-order core simulator, the paper's physical-register-sharing
//! renaming scheme with shadow-cell recovery, the conventional baseline,
//! benchmark kernel suites, an analytical area model, and a harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace libraries and provides the
//! [`harness`] used by the examples, the experiment binary and the
//! `perfbench` benchmark.
//!
//! # Quickstart
//!
//! ```
//! use regshare::harness::{run_kernel, Scheme};
//! use regshare::workloads::all_kernels;
//!
//! let kernel = &all_kernels()[0]; // saxpy
//! let base = run_kernel(kernel, Scheme::Baseline, 48, 20_000);
//! let prop = run_kernel(kernel, Scheme::Proposed, 48, 20_000);
//! println!("speedup: {:.3}", prop.ipc() / base.ipc());
//! ```

pub mod alloc_track;
pub mod experiments;

pub use alloc_track::CountingAlloc;

pub use regshare_analyze as analyze;
pub use regshare_area as area;
pub use regshare_core as core;
pub use regshare_isa as isa;
pub use regshare_mem as mem;
pub use regshare_sim as sim;
pub use regshare_stats as stats;
pub use regshare_workloads as workloads;

pub mod harness {
    //! Shared experiment plumbing: build a renamer for a scheme, run a
    //! kernel through the timing simulator, and aggregate results.

    use regshare_core::{BankConfig, BaselineRenamer, Renamer, RenamerConfig, ReuseRenamer};
    use regshare_isa::RegClass;
    use regshare_sim::{
        run_window, sample_windows, Pipeline, SampledConfig, SampledReport, SimConfig, SimReport,
    };
    use regshare_workloads::{Kernel, Suite};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Maps `f` over `items` on a scoped worker pool, one OS thread per
    /// available core, returning results in **input order** no matter
    /// which worker finished first.
    ///
    /// Each simulation point is independent (every run constructs its own
    /// pipeline, renamer and memory image), so the experiment sweeps are
    /// embarrassingly parallel; work is handed out through an atomic
    /// cursor so long and short kernels balance across workers. With one
    /// core (or one item) this degrades to a plain sequential map — the
    /// results are bit-identical either way, which is what lets the
    /// determinism test cover the parallel path.
    ///
    /// Worker panics (e.g. a simulation error surfaced by
    /// [`run_kernel`]) are re-raised on the caller with their original
    /// payload.
    ///
    /// # Examples
    ///
    /// ```
    /// use regshare::harness::par_map;
    ///
    /// let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
    /// assert_eq!(squares, [1, 4, 9, 16]);
    /// ```
    pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        par_map_with(items, None, f)
    }

    /// [`par_map`] with an explicit worker count (`None` = one per
    /// available core). Results are in input order and bit-identical for
    /// every worker count — the property the time-parallel slicing
    /// determinism test pins down by sweeping `workers`.
    pub fn par_map_with<T, R, F>(items: &[T], workers: Option<usize>, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            .min(n);
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut collected: Vec<(usize, R)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        collected.sort_by_key(|&(i, _)| i);
        collected.into_iter().map(|(_, r)| r).collect()
    }

    /// Number of physical registers in the register file that is *not*
    /// being swept (the paper keeps the other file at its Table I size).
    pub const FIXED_RF: usize = 128;

    /// The register file a suite stresses — the one the paper sweeps for
    /// that suite ("for integer benchmarks we consider different sizes of
    /// the integer register file whereas for floating-point benchmarks we
    /// measure performance for different sizes of the floating-point
    /// register file", §VI-B).
    pub fn swept_class(suite: Suite) -> RegClass {
        match suite {
            Suite::Fp | Suite::Cognitive => RegClass::Fp,
            Suite::Int | Suite::Media => RegClass::Int,
        }
    }

    /// Which renaming scheme to simulate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scheme {
        /// Conventional merged register file, release-on-commit.
        Baseline,
        /// The paper's physical-register-sharing scheme at equal area
        /// (Table III bank configuration).
        Proposed,
    }

    impl Scheme {
        /// Display label used in tables.
        pub fn label(self) -> &'static str {
            match self {
                Scheme::Baseline => "baseline",
                Scheme::Proposed => "proposed",
            }
        }
    }

    /// The renamer configuration for a scheme at a given
    /// *baseline-equivalent* size of the swept register file; the other
    /// file stays at [`FIXED_RF`] registers and every other field at its
    /// Table I value. The proposed scheme gets the Table III equal-area
    /// bank split for the swept file.
    pub fn renamer_config_for(scheme: Scheme, rf_regs: usize, swept: RegClass) -> RenamerConfig {
        let banks = match scheme {
            Scheme::Baseline => BankConfig::conventional(rf_regs),
            Scheme::Proposed => BankConfig::paper_row(rf_regs),
        };
        RenamerConfig::baseline(FIXED_RF).with_banks(swept, banks)
    }

    /// The proposed scheme at the same register *count* as a baseline of
    /// `rf_regs` registers (Fig. 10-EC): the swept file keeps
    /// `rf_regs − 12` conventional registers and 4/4/4 shadow-cell banks.
    /// This measures the mechanism without the equal-area discount.
    pub fn equal_count_config(rf_regs: usize, swept: RegClass) -> RenamerConfig {
        let banks = BankConfig::new(vec![rf_regs.saturating_sub(12), 4, 4, 4]);
        RenamerConfig::baseline(FIXED_RF).with_banks(swept, banks)
    }

    /// Builds the renamer for a scheme (see [`renamer_config_for`] for
    /// the sizing rules).
    pub fn renamer_for(scheme: Scheme, rf_regs: usize, swept: RegClass) -> Box<dyn Renamer> {
        let config = renamer_config_for(scheme, rf_regs, swept);
        match scheme {
            Scheme::Baseline => Box::new(BaselineRenamer::new(config)),
            Scheme::Proposed => Box::new(ReuseRenamer::new(config)),
        }
    }

    /// The simulator configuration used by all experiments: Table I
    /// defaults, instruction budget `scale`, generous cycle cap.
    pub fn experiment_config(scale: u64) -> SimConfig {
        SimConfig {
            max_instructions: scale,
            max_cycles: scale.saturating_mul(60).max(1_000_000),
            ..SimConfig::default()
        }
    }

    /// Runs one kernel under one scheme and register-file size.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors (oracle mismatch, deadlock) — an
    /// experiment must never silently drop a run.
    pub fn run_kernel(kernel: &Kernel, scheme: Scheme, rf_regs: usize, scale: u64) -> SimReport {
        let program = kernel.program(scale);
        let renamer = renamer_for(scheme, rf_regs, swept_class(kernel.suite));
        let mut sim = Pipeline::new(program, renamer, experiment_config(scale));
        match sim.run() {
            Ok(report) => report,
            Err(e) => panic!(
                "{} ({}, {} regs): {e}",
                kernel.name,
                scheme.label(),
                rf_regs
            ),
        }
    }

    /// Runs a kernel with a custom simulator configuration.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors.
    pub fn run_kernel_with(
        kernel: &Kernel,
        renamer: Box<dyn Renamer>,
        config: SimConfig,
        scale: u64,
    ) -> SimReport {
        let program = kernel.program(scale);
        let mut sim = Pipeline::new(program, renamer, config);
        match sim.run() {
            Ok(report) => report,
            Err(e) => panic!("{}: {e}", kernel.name),
        }
    }

    /// Runs one kernel through the two-speed engine: a sequential
    /// functional-warming pass with periodic detailed windows, the
    /// windows of each batch sliced across `workers` threads (`None` =
    /// one per core). Window positions depend only on `(plan, scale,
    /// lead)` and every window runs from its own checkpoint clone, so
    /// the report is bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if a window's detailed simulation errors — a sampled
    /// experiment must never silently drop an observation.
    pub fn run_kernel_sampled(
        kernel: &Kernel,
        scheme: Scheme,
        rf_regs: usize,
        scale: u64,
        sample: &SampledConfig,
        workers: Option<usize>,
    ) -> SampledReport {
        let program = kernel.program(scale);
        let swept = swept_class(kernel.suite);
        let rconfig = renamer_config_for(scheme, rf_regs, swept);
        let config = experiment_config(scale);
        sample_windows(&program, &config, sample, scale, |jobs| {
            par_map_with(&jobs, workers, |job| {
                let renamer = renamer_for(scheme, rf_regs, swept);
                match run_window(job, renamer, &rconfig, config.clone()) {
                    Ok(r) => r,
                    Err(e) => panic!(
                        "{} ({}, {} regs) window at {}: {e}",
                        kernel.name,
                        scheme.label(),
                        rf_regs,
                        job.spec.start
                    ),
                }
            })
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn renamer_config_for_sizes_only_the_swept_file() {
            for (swept, other) in [(RegClass::Int, RegClass::Fp), (RegClass::Fp, RegClass::Int)] {
                for (scheme, swept_banks) in [
                    (Scheme::Baseline, BankConfig::conventional(64)),
                    (Scheme::Proposed, BankConfig::paper_row(64)),
                ] {
                    let c = renamer_config_for(scheme, 64, swept);
                    assert_eq!(c.banks(swept), &swept_banks, "{scheme:?} {swept:?}");
                    assert_eq!(c.banks(other), &BankConfig::conventional(FIXED_RF));
                    // Every non-bank field keeps its Table I value.
                    assert_eq!(c.counter_bits, 2);
                    assert_eq!(c.predictor_entries, 512);
                    assert_eq!(c.predictor_bits, 2);
                    assert!(c.speculative_reuse);
                    assert_eq!(c.hint_policy, regshare_core::HintPolicy::DynamicOnly);
                    assert_eq!(c.threads, 1);
                }
            }
        }

        #[test]
        fn equal_count_config_keeps_the_baseline_register_count() {
            let c = equal_count_config(48, RegClass::Int);
            assert_eq!(c.int_banks, BankConfig::new(vec![36, 4, 4, 4]));
            assert_eq!(c.int_banks.total(), 48);
            assert_eq!(c.fp_banks, BankConfig::conventional(FIXED_RF));
        }
    }
}
