//! Workload inputs: the fixed kernel suite plus programs and payloads
//! drawn from the workload seed. The program under test receives only
//! the generated inputs, never the seed.

use regshare::harness::swept_class;
use regshare::isa::{Program, RegClass};
use regshare::workloads::synthetic::{generate, SyntheticConfig};
use regshare::workloads::{all_kernels, Kernel};

/// SplitMix64: a small, fixed generator so inputs for a seed never
/// depend on another crate's RNG version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where a program comes from: a hand-written kernel, or a synthetic
/// program generated from the workload seed.
#[derive(Clone)]
pub enum Source {
    Kernel(Kernel),
    Synthetic(SyntheticConfig),
}

impl Source {
    pub fn label(&self) -> String {
        match self {
            Source::Kernel(k) => k.name.to_string(),
            Source::Synthetic(c) => format!("synthetic-{:016x}", c.seed),
        }
    }

    /// Whether the workload seed chose this program.
    pub fn seeded(&self) -> bool {
        matches!(self, Source::Synthetic(_))
    }

    /// The register file a sweep varies for this program; synthetic
    /// programs are integer-dominated.
    pub fn swept(&self) -> RegClass {
        match self {
            Source::Kernel(k) => swept_class(k.suite),
            Source::Synthetic(_) => RegClass::Int,
        }
    }

    /// The program sized for `budget` committed instructions.
    pub fn build(&self, budget: u64) -> Program {
        match self {
            Source::Kernel(k) => k.program(budget),
            Source::Synthetic(c) => generate(SyntheticConfig {
                // Enough outer iterations that the budget, not the
                // program's end, stops the run.
                iterations: 2 * budget / c.body as u64 + 2,
                ..*c
            }),
        }
    }
}

/// A synthetic program drawn from `rng`: loop body size and the dataflow
/// mix vary, so the generated inputs cover shapes the kernels do not.
pub fn synthetic(rng: &mut Rng) -> Source {
    Source::Synthetic(SyntheticConfig {
        body: 60 + rng.below(81) as usize,
        iterations: 1,
        single_use_bias: rng.range_f64(0.2, 0.8),
        fp_fraction: rng.range_f64(0.1, 0.5),
        mem_fraction: rng.range_f64(0.05, 0.3),
        branch_fraction: rng.range_f64(0.03, 0.15),
        seed: rng.next_u64(),
    })
}

/// The first `kernels` kernels of the suite followed by `synthetic`
/// seed-drawn programs.
pub fn program_set(seed: u64, kernels: usize, synthetic_count: usize) -> Vec<Source> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Source> = all_kernels()
        .into_iter()
        .take(kernels)
        .map(Source::Kernel)
        .collect();
    out.extend((0..synthetic_count).map(|_| synthetic(&mut rng)));
    out
}

/// The kernel called `name`.
pub fn kernel(name: &str) -> Kernel {
    all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("kernel {name} is not in the suite"))
}
