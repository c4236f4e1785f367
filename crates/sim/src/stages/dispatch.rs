//! Dispatch: insert renamed micro-ops into the ROB, issue queue, LSQ
//! and the wakeup network.

use crate::core_state::{CoreState, RenamedBundle, RobEntry};
use crate::errors::TraceStage;
use regshare_core::UopKind;

/// The dispatch stage. Consumes one [`RenamedBundle`] per call — driven
/// by rename within the same tick (see [`crate::stages::RenameStage`]) —
/// allocating entries in the renaming thread's ROB and LSQ partitions,
/// registering destinations with the shared scoreboard, and parking each
/// micro-op on its busy source tags.
#[derive(Debug, Default)]
pub(crate) struct DispatchStage;

impl DispatchStage {
    pub(crate) fn dispatch(&mut self, core: &mut CoreState, tid: usize, bundle: RenamedBundle) {
        let RenamedBundle {
            uops,
            pc,
            inst,
            d,
            pred,
        } = bundle;
        let hart = core.threads[tid].hart;
        for &uop in &uops {
            for dst in [uop.dst, uop.dst2].into_iter().flatten() {
                core.scoreboard.set_busy(dst);
                if dst.version == 0 {
                    core.rf[dst.class.index()].reset_on_alloc(dst.preg);
                }
            }
            let is_main = uop.kind == UopKind::Main;
            if is_main && d.is_load() {
                core.threads[tid].lsq.dispatch_load(uop.seq);
            }
            if is_main && d.is_store() {
                core.threads[tid].lsq.dispatch_store(uop.seq);
            }
            core.trace_event(tid, uop.seq, pc, TraceStage::Dispatch);
            // Register with the wakeup network: count the busy
            // sources and park on each; producers can only precede
            // consumers in rename order, so a tag observed ready
            // here stays ready until this entry issues.
            let mut pending_srcs = 0u8;
            for tag in uop.srcs.iter().flatten() {
                if !core.scoreboard.is_ready(*tag) {
                    core.scoreboard.watch(*tag, uop.seq);
                    pending_srcs += 1;
                }
            }
            core.threads[tid].rob.push_back(RobEntry {
                hart,
                seq: uop.seq,
                pc,
                inst,
                d,
                kind: uop.kind,
                srcs: uop.srcs,
                dst: uop.dst,
                dst2: uop.dst2,
                pred: if is_main { pred } else { None },
                issued: false,
                done: false,
                pending_srcs,
                exception: false,
                result: None,
                result2: None,
                ea: None,
                taken: None,
                next_pc: pc + 1,
            });
            if pending_srcs == 0 {
                core.ready_q.insert(uop.seq);
            }
            core.iq_len += 1;
            if d.is_branch() {
                core.threads[tid].unresolved_branches.insert(uop.seq);
            }
        }
    }
}
