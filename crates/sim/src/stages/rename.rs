//! Rename: drive the renaming scheme and hand micro-ops to dispatch.

use crate::core_state::{CoreState, RenamedBundle, StageIo};
use crate::profile::StageSlot;
use crate::stages::{DispatchStage, StageOutcome, WORST_CASE_UOPS};

/// The rename stage. Pulls decoded instructions, checks downstream
/// capacity, asks the [`regshare_core::Renamer`] for the micro-op
/// expansion (repairs first, main op last), and hands each renamed
/// instruction to dispatch as a [`RenamedBundle`].
///
/// Rename and dispatch are fused within one tick: each instruction's
/// capacity check must see the ROB/IQ/LSQ occupancy left by the
/// previous instruction's dispatch, so batching renames behind a latch
/// would change stall timing.
///
/// The `rename_width` budget is shared across the hardware threads,
/// visited in a rotation starting at `cycle % threads`: a thread that
/// stalls (full partition, no free registers) yields the remaining
/// budget to the next thread instead of wasting the slots.
///
/// A rename that finds no free register and no reuse stalls and simply
/// retries the next cycle.
#[derive(Debug, Default)]
pub(crate) struct RenameStage;

impl RenameStage {
    pub(crate) fn tick(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
        dispatch: &mut DispatchStage,
    ) -> StageOutcome {
        let n = core.threads.len();
        let rob_partition = core.rob_partition();
        let mut stalled_for_regs = false;
        let mut budget = core.config.rename_width;
        for k in 0..n {
            let tid = (core.cycle as usize + k) % n;
            let hart = core.threads[tid].hart;
            while budget > 0 {
                let Some(f) = lat[tid].decoded.front() else {
                    break;
                };
                // A renamed instruction expands to at most the main op
                // plus one repair per source: reserve conservatively
                // before renaming. ROB and LSQ capacity come from this
                // thread's partitions; the issue queue is shared.
                let rob_free = rob_partition - core.threads[tid].rob.len();
                let iq_free = core.config.iq_entries - core.iq_len;
                let is_load = f.d.is_load() as usize;
                let is_store = f.d.is_store() as usize;
                if rob_free < WORST_CASE_UOPS
                    || iq_free < WORST_CASE_UOPS
                    || !core.threads[tid].lsq.has_room(is_load, is_store)
                {
                    break;
                }
                let Some(uops) = core.renamer.rename_on(hart, core.next_seq, f.pc, &f.inst) else {
                    stalled_for_regs = true;
                    break;
                };
                let f = lat[tid].decoded.pop_front().expect("front checked above");
                core.next_seq += uops.len() as u64;
                core.profile.add_work(StageSlot::Rename, uops.len() as u64);
                budget -= 1;
                dispatch.dispatch(
                    core,
                    tid,
                    RenamedBundle {
                        uops,
                        pc: f.pc,
                        inst: f.inst,
                        d: f.d,
                        pred: f.pred,
                    },
                );
            }
            if budget == 0 {
                break;
            }
        }
        if stalled_for_regs {
            core.rename_stall_cycles += 1;
        }
        StageOutcome::Ran
    }
}
