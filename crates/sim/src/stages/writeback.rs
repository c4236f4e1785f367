//! Writeback: drain completions, broadcast wakeups, resolve branches.

use crate::core_state::{tag_addr, CoreState, StageIo};
use crate::errors::TraceStage;
use crate::profile::StageSlot;
use crate::recovery;
use crate::stages::StageOutcome;
use crate::SimError;
use regshare_core::UopKind;

/// The writeback stage. Takes this cycle's completions off the wheel,
/// writes destination values into the register file, wakes consumers
/// through the scoreboard, and resolves branches — triggering
/// mispredict recovery inline so younger completions in the same batch
/// see the post-squash machine.
#[derive(Debug, Default)]
pub(crate) struct WritebackStage;

impl WritebackStage {
    pub(crate) fn tick(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
    ) -> Result<StageOutcome, SimError> {
        let mut done = core.completions.take(core.cycle);
        if done.is_empty() {
            core.completions.recycle(done);
            return Ok(StageOutcome::Ran);
        }
        // Out-of-order issue can schedule completions for one cycle in
        // any order; broadcast oldest-first like real wakeup ports.
        done.sort_unstable();
        core.profile
            .add_work(StageSlot::Writeback, done.len() as u64);
        for &(seq, h) in &done {
            let (tid, idx) = (h.tid(), h.idx());
            if !core.threads[tid].rob.holds(idx, seq) {
                continue; // squashed while in flight
            }
            // The slot stays live through the wakeup broadcasts below:
            // they mutate entries in place but never insert or remove.
            let (dst, result, dst2, result2, is_branch) = {
                let e = &mut core.threads[tid].rob[idx];
                e.done = true;
                (e.dst, e.result, e.dst2, e.result2, e.d.is_branch())
            };
            if is_branch {
                core.threads[tid].unresolved_branches.remove(seq);
            }
            core.renamer.on_writeback(seq);
            if core.config.trace {
                let pc = core.threads[tid].rob[idx].pc;
                core.trace_event(tid, seq, pc, TraceStage::Writeback);
            }
            if let Some(tag) = dst {
                let Some(bits) = result else {
                    return Err(core.corrupt_err(
                        lat,
                        format!("seq {seq} writes {tag} but produced no value"),
                    ));
                };
                core.rf[tag.class.index()].write(tag.preg, tag.version, bits);
                core.broadcast_ready(lat, tag)?;
            }
            if let Some(tag) = dst2 {
                let Some(bits) = result2 else {
                    return Err(core.corrupt_err(
                        lat,
                        format!("seq {seq} writes back {tag} but produced no value"),
                    ));
                };
                core.rf[tag.class.index()].write(tag.preg, tag.version, bits);
                core.broadcast_ready(lat, tag)?;
            }
            // Resolve branches.
            let e = &core.threads[tid].rob[idx];
            if e.kind == UopKind::Main && e.d.is_branch() {
                let (pc, inst, next_pc) = (e.pc, e.inst, e.next_pc);
                let (taken, pred) = match (e.taken, e.pred) {
                    (Some(t), Some(p)) => (t, p),
                    _ => {
                        return Err(core.corrupt_err(
                            lat,
                            format!(
                                "resolved branch seq {seq} is missing its outcome or prediction"
                            ),
                        ));
                    }
                };
                let target = next_pc;
                // Update under the same thread-tagged key used at predict.
                core.bpred
                    .update(tag_addr(tid, pc), &inst, taken, target, pred);
                let mispredicted = pred.taken != taken || (taken && pred.target != target);
                if mispredicted {
                    core.mispredicts += 1;
                    let penalty = core.config.mispredict_penalty;
                    recovery::redirect_after_squash(core, lat, tid, seq, next_pc, penalty);
                    // Nested-recovery injection: an interrupt scheduled
                    // on this misprediction ordinal is delivered later
                    // this same cycle, mid-recovery.
                    if let Some(inj) = &mut core.inject {
                        let ordinal = inj.mispredicts_seen;
                        inj.mispredicts_seen += 1;
                        if inj.nested_ordinals.binary_search(&ordinal).is_ok() {
                            inj.pending_interrupt = true;
                            inj.stats.nested_interrupts += 1;
                        }
                    }
                }
            }
        }
        core.completions.recycle(done);
        Ok(StageOutcome::Ran)
    }
}
