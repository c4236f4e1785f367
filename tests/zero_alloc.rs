//! Zero-allocation regression test for the detailed-mode hot loop.
//!
//! Installs the counting global allocator, warms a detailed pipeline
//! past its setup phase (queue/scratch capacities, cache fills, wheel
//! growth), then drives steady-state cycles and asserts the heap is
//! never touched. This pins the hot-loop overhaul's core claim: the
//! per-cycle tick performs no allocation once warm — on an integer and
//! a floating-point kernel, on `dct` (whose loads wait behind
//! unresolved stores, the select walk's masked path), and on a
//! two-thread ICOUNT core (per-thread slot handles and the select
//! merge across threads).
//!
//! The test lives alone in its own binary: the allocator counters are
//! process-wide, and a concurrently running test would pollute them.

use regshare::core::{BankConfig, RenamerConfig, ReuseRenamer};
use regshare::harness::{experiment_config, renamer_for, swept_class, Scheme};
use regshare::isa::Program;
use regshare::sim::{FetchPolicyKind, Pipeline, SimConfig};
use regshare::workloads::{all_kernels, Kernel};

#[global_allocator]
static ALLOC: regshare::CountingAlloc = regshare::CountingAlloc::new();

/// Cycles to run before measuring, per resident thread: enough for
/// every lazily-grown structure (waiter lists, completion wheel, LSQ
/// slabs, cache/TLB state) to reach its high-water capacity, and for
/// each program to have touched every page of its data (a first store
/// to a page allocates it in the simulated memory image — the
/// program's footprint growing, not the tick). Threads share the core,
/// so two of them need twice the cycles to get as far.
const WARMUP_CYCLES: u64 = 120_000;

/// Steady-state cycles measured for allocation silence.
const MEASURED_CYCLES: u64 = 10_000;

/// Program scale large enough that warmup + measurement stay well
/// inside the run (no halt, no wind-down).
const SCALE: u64 = 400_000;

fn kernel(name: &str) -> Kernel {
    all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("kernel {name} missing from the sweep"))
}

/// The measurement configuration: audits walk the ROB and free lists
/// with scratch storage and are off the hot path by design; the oracle
/// and trace layers are opt-in. None of them belong in this
/// measurement.
fn quiet(mut cfg: SimConfig) -> SimConfig {
    cfg.audit_interval = 0;
    cfg.check_oracle = false;
    cfg.trace = false;
    cfg
}

fn single_thread(name: &str) -> Pipeline {
    let k = kernel(name);
    let renamer = renamer_for(Scheme::Proposed, 64, swept_class(k.suite));
    Pipeline::new(k.program(SCALE), renamer, quiet(experiment_config(SCALE)))
}

const TWO_THREAD: &str = "saxpy+dct, 2-thread ICOUNT";

/// Two threads over shared reuse banks, fetch arbitrated by ICOUNT.
fn two_thread_icount() -> Pipeline {
    let programs: Vec<Program> = ["saxpy", "dct"]
        .iter()
        .map(|name| kernel(name).program(SCALE))
        .collect();
    let banks = BankConfig::new(vec![72, 8, 8, 8]);
    let config = RenamerConfig {
        int_banks: banks.clone(),
        fp_banks: banks,
        ..RenamerConfig::baseline(96)
    }
    .with_threads(2);
    let mut cfg = quiet(experiment_config(SCALE * 2).with_threads(2));
    cfg.fetch_policy = FetchPolicyKind::Icount;
    Pipeline::new_smt(programs, Box::new(ReuseRenamer::new(config)), cfg).expect("valid smt config")
}

#[test]
fn steady_state_tick_never_allocates() {
    for name in ["saxpy", "hashjoin", "dct", TWO_THREAD] {
        let mut sim = match name {
            TWO_THREAD => two_thread_icount(),
            kernel => single_thread(kernel),
        };
        let threads = sim.report().threads as u64;
        sim.run_cycles(WARMUP_CYCLES * threads)
            .unwrap_or_else(|e| panic!("{name}: warmup failed: {e}"));

        let before = regshare::alloc_track::allocations();
        sim.run_cycles(MEASURED_CYCLES)
            .unwrap_or_else(|e| panic!("{name}: measured run failed: {e}"));
        let during = regshare::alloc_track::allocations() - before;

        assert_eq!(
            during, 0,
            "{name}: {during} heap allocations in {MEASURED_CYCLES} steady-state cycles"
        );
    }
}
