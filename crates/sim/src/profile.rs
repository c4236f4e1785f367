//! Deterministic per-stage work counters: one `u64` increment per unit
//! of stage work (micro-ops fetched, renamed, issued, written back,
//! committed; recovery squashes). They are always on, cost nothing
//! measurable, and are byte-identical across runs, so every report
//! carries them. Host-time attribution lives outside the simulator, in
//! the `perfbench` benchmark.

use serde::Serialize;

/// The stage groups the cycle loop attributes work to, in tick order
/// (commit-first, matching `Pipeline::step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StageSlot {
    /// Injection polling, interrupt delivery, recovery-boundary checks.
    Housekeeping,
    /// In-order retirement (including the lockstep oracle when enabled).
    Commit,
    /// Completion drain, wakeup broadcast, branch resolution.
    Writeback,
    /// Select + register read + execute (the fused issue/execute tick).
    Issue,
    /// Rename + dispatch (the fused rename/dispatch tick).
    Rename,
    /// Fetch-queue to decode-queue transfer.
    Decode,
    /// Prediction-following fetch from the program image.
    Fetch,
    /// Invariant audits and occupancy sampling.
    Observe,
}

/// Number of [`StageSlot`]s.
pub const NUM_STAGE_SLOTS: usize = 8;

/// Display names, indexed by `StageSlot as usize`.
pub const STAGE_SLOT_NAMES: [&str; NUM_STAGE_SLOTS] = [
    "housekeeping",
    "commit",
    "writeback",
    "issue",
    "rename",
    "decode",
    "fetch",
    "observe",
];

/// Per-stage work accounting for one simulation run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StageProfile {
    /// Deterministic work units per stage: micro-ops moved through the
    /// stage, or events handled for the bookkeeping slots.
    pub work: [u64; NUM_STAGE_SLOTS],
}

impl StageProfile {
    /// Counts `n` units of deterministic stage work.
    #[inline(always)]
    pub fn add_work(&mut self, slot: StageSlot, n: u64) {
        self.work[slot as usize] += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counters_accumulate() {
        let mut p = StageProfile::default();
        p.add_work(StageSlot::Rename, 3);
        p.add_work(StageSlot::Rename, 2);
        assert_eq!(p.work[StageSlot::Rename as usize], 5);
    }

    #[test]
    fn slot_names_cover_every_slot() {
        assert_eq!(STAGE_SLOT_NAMES.len(), NUM_STAGE_SLOTS);
        assert_eq!(STAGE_SLOT_NAMES[StageSlot::Observe as usize], "observe");
    }
}
