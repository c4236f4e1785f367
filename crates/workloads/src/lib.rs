#![warn(missing_docs)]

//! Benchmark kernels and dataflow analysis for the `regshare` study.
//!
//! The paper evaluates on SPEC CPU2006, Mediabench and two cognitive
//! kernels (GMM scoring, DNN inference). Those binaries cannot be compiled
//! for the TRISC research ISA, so this crate provides **18 hand-written
//! kernels** in four suites whose register-dataflow shapes match the
//! classes the paper relies on:
//!
//! * [`Suite::Fp`] — numeric kernels (saxpy, fir, dct, matmul, horner,
//!   stencil, options pricing, fft) with long single-use dependence
//!   chains, standing in for SPECfp (> 50 % single-consumer values).
//! * [`Suite::Int`] — control/memory-heavy kernels (sort, hash join,
//!   pointer chase, crc32, rle, bitcount) standing in for SPECint
//!   (≈ 30 % single-consumer values).
//! * [`Suite::Media`] — adpcm and sum-of-absolute-differences kernels in
//!   the spirit of Mediabench.
//! * [`Suite::Cognitive`] — GMM scoring and a DNN MLP layer, the paper's
//!   added machine-learning workloads.
//!
//! [`analysis`] reproduces the paper's motivation measurements over the
//! functional traces of any program: single-consumer percentages (Fig. 1),
//! consumer-count histograms (Fig. 2) and reuse-chain potential (Fig. 3).
//!
//! # Examples
//!
//! ```
//! use regshare_workloads::{all_kernels, Suite};
//!
//! let fp: Vec<_> = all_kernels().into_iter()
//!     .filter(|k| k.suite == Suite::Fp)
//!     .collect();
//! assert_eq!(fp.len(), 8);
//! let program = fp[0].program(1_000);
//! assert!(!program.is_empty());
//! ```

pub mod analysis;
mod kernels;
pub mod synthetic;

use regshare_isa::Program;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The benchmark suite a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// Floating-point numeric kernels (SPECfp-like).
    Fp,
    /// Integer control/memory kernels (SPECint-like).
    Int,
    /// Multimedia kernels (Mediabench-like).
    Media,
    /// Machine-learning kernels (GMM, DNN).
    Cognitive,
}

impl Suite {
    /// All suites in presentation order.
    pub const ALL: [Suite; 4] = [Suite::Fp, Suite::Int, Suite::Media, Suite::Cognitive];

    /// Human-readable suite label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Fp => "specfp-like",
            Suite::Int => "specint-like",
            Suite::Media => "mediabench-like",
            Suite::Cognitive => "cognitive",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A benchmark kernel: a named program generator.
///
/// `scale` controls the dynamic instruction count roughly linearly;
/// kernels aim for `scale` committed instructions within a factor of ~2.
#[derive(Clone, Copy)]
pub struct Kernel {
    /// Kernel name (unique across suites).
    pub name: &'static str,
    /// Which suite it represents.
    pub suite: Suite,
    build: fn(u64) -> Program,
}

impl Kernel {
    /// Builds the program at the given dynamic-instruction scale.
    pub fn program(&self, scale: u64) -> Program {
        (self.build)(scale)
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

/// Every kernel, grouped by suite in presentation order.
pub fn all_kernels() -> Vec<Kernel> {
    kernels::all()
}

/// The built-in kernel called `name`, if there is one.
pub fn kernel(name: &str) -> Option<Kernel> {
    all_kernels().into_iter().find(|k| k.name == name)
}

/// The kernels of one suite.
pub fn suite_kernels(suite: Suite) -> Vec<Kernel> {
    all_kernels()
        .into_iter()
        .filter(|k| k.suite == suite)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{Machine, StopReason};

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(suite_kernels(Suite::Fp).len(), 8);
        assert_eq!(suite_kernels(Suite::Int).len(), 6);
        assert_eq!(suite_kernels(Suite::Media).len(), 2);
        assert_eq!(suite_kernels(Suite::Cognitive).len(), 2);
        assert_eq!(all_kernels().len(), 18);
    }

    #[test]
    fn kernel_names_are_unique() {
        use std::collections::HashSet;
        let names: HashSet<&str> = all_kernels().iter().map(|k| k.name).collect();
        assert_eq!(names.len(), all_kernels().len());
    }

    #[test]
    fn every_kernel_runs_to_halt_on_the_functional_machine() {
        for k in all_kernels() {
            let p = k.program(2_000);
            let mut m = Machine::new(p);
            let stop = m
                .run(1_000_000)
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name));
            assert_eq!(stop, StopReason::Halted, "{} did not halt", k.name);
            assert!(m.retired() > 100, "{} retired too few instructions", k.name);
        }
    }

    #[test]
    fn scale_controls_dynamic_length() {
        for k in all_kernels() {
            let short = {
                let mut m = Machine::new(k.program(1_000));
                m.run(10_000_000).unwrap();
                m.retired()
            };
            let long = {
                let mut m = Machine::new(k.program(8_000));
                m.run(10_000_000).unwrap();
                m.retired()
            };
            assert!(
                long > short,
                "{}: scale had no effect ({short} vs {long})",
                k.name
            );
            // Rough linearity: dynamic length within a factor of ~4 of
            // the requested scale.
            assert!(
                (250..=32_000).contains(&short),
                "{}: scale 1000 produced {short} instructions",
                k.name
            );
        }
    }

    #[test]
    fn suite_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = Suite::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
