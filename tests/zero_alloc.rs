//! Zero-allocation regression test for the detailed-mode hot loop.
//!
//! Installs the counting global allocator, warms a detailed pipeline
//! past its setup phase (queue/scratch capacities, cache fills, wheel
//! growth), then drives steady-state cycles and asserts the heap is
//! never touched. This pins the hot-loop overhaul's core claim: the
//! per-cycle tick performs no allocation once warm, on both an
//! integer and a floating-point kernel.
//!
//! The test lives alone in its own binary: the allocator counters are
//! process-wide, and a concurrently running test would pollute them.

use regshare::harness::{experiment_config, renamer_for, swept_class, Scheme};
use regshare::sim::Pipeline;
use regshare::workloads::all_kernels;

#[global_allocator]
static ALLOC: regshare::CountingAlloc = regshare::CountingAlloc::new();

/// Cycles to run before measuring: enough for every lazily-grown
/// structure (ready queue, waiter lists, completion wheel, LSQ slabs,
/// cache/TLB state) to reach its high-water capacity.
const WARMUP_CYCLES: u64 = 120_000;

/// Steady-state cycles measured for allocation silence.
const MEASURED_CYCLES: u64 = 10_000;

/// Program scale large enough that warmup + measurement stay well
/// inside the run (no halt, no wind-down).
const SCALE: u64 = 400_000;

#[test]
fn steady_state_tick_never_allocates() {
    for name in ["saxpy", "hashjoin"] {
        let kernel = all_kernels()
            .into_iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("kernel {name} missing from the sweep"));
        let mut cfg = experiment_config(SCALE);
        // Audits walk the ROB and free lists with scratch storage and
        // are off the hot path by design; the oracle and trace layers
        // are opt-in. None of them belong in this measurement.
        cfg.audit_interval = 0;
        cfg.check_oracle = false;
        cfg.trace = false;
        let renamer = renamer_for(Scheme::Proposed, 64, swept_class(kernel.suite));
        let mut sim = Pipeline::new(kernel.program(SCALE), renamer, cfg);
        sim.run_cycles(WARMUP_CYCLES)
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
