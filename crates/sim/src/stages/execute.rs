//! Execute: evaluate a selected micro-op and schedule its completion.

use crate::core_state::{tag_addr, CoreState, StageIo};
use crate::{SimError, StoreSearch};
use regshare_core::UopKind;
use regshare_isa::exec::{self, Action};
use regshare_isa::OpClass;
use regshare_mem::DataAccess;

/// The execute stage. Driven per candidate by the issue stage's select
/// loop (see [`crate::stages::IssueStage`]): claims a functional unit,
/// reads operands out of the value-carrying register file (shadow cells
/// included), evaluates the micro-op, and books the completion on the
/// wheel. Memory operations go through the LSQ for forwarding,
/// conflict and fault detection.
#[derive(Debug, Default)]
pub(crate) struct ExecuteStage;

/// What one select attempt came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attempt {
    /// Executed and booked on the completion wheel; the caller marks the
    /// entry issued.
    Issued,
    /// No unit of this class is free; none will be for the rest of the
    /// cycle, as a unit only gets busier within one.
    NoUnit(OpClass),
    /// A load overlapping an older store it cannot forward from; retry
    /// next cycle.
    Conflict,
}

impl ExecuteStage {
    /// Attempts to execute the ready micro-op of thread `tid` in ROB
    /// slot `idx`. The select walk guarantees a load reaches here only
    /// once every older store of its thread has resolved its address.
    pub(crate) fn try_execute(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
        tid: usize,
        idx: usize,
    ) -> Result<Attempt, SimError> {
        let entry = &core.threads[tid].rob[idx];
        let seq = entry.seq;
        debug_assert!(
            entry
                .srcs
                .iter()
                .flatten()
                .all(|t| core.scoreboard.is_ready(*t)),
            "seq {seq} selected with a busy source operand",
        );
        let inst = entry.inst;
        let d = entry.d;
        let kind = entry.kind;
        let pc = entry.pc;
        let srcs = entry.srcs;
        match kind {
            UopKind::RepairMove => {
                let Some(latency) = core.fus.try_issue(OpClass::IntAlu, core.cycle) else {
                    return Ok(Attempt::NoUnit(OpClass::IntAlu));
                };
                let Some(src) = srcs[0] else {
                    return Err(core
                        .corrupt_err(lat, format!("repair move seq {seq} has no source operand")));
                };
                let expensive = core.rf[src.class.index()].needs_recover(src.preg, src.version);
                let value = core.rf[src.class.index()].read_version(src.preg, src.version);
                let total = if expensive {
                    core.expensive_repairs += 1;
                    latency + 2 // the 3-step micro-op sequence of Fig. 8 2(a)
                } else {
                    latency
                };
                core.threads[tid].rob[idx].result = Some(value);
                core.schedule(tid, idx, total);
                Ok(Attempt::Issued)
            }
            UopKind::Main if d.is_load() => {
                debug_assert!(
                    core.threads[tid].lsq.older_stores_resolved(seq),
                    "load seq {seq} selected behind an unresolved store"
                );
                let ops = core.read_operands(&srcs);
                let (ea, width, writeback) = match exec::evaluate(&inst, pc, ops) {
                    Action::Load { ea, width } => (ea, width, None),
                    Action::LoadPost {
                        ea,
                        width,
                        writeback,
                    } => (ea, width, Some(writeback)),
                    other => {
                        return Err(core.corrupt_err(
                            lat,
                            format!("load seq {seq} evaluated to a non-load action {other:?}"),
                        ));
                    }
                };
                let found = match core.threads[tid].lsq.search(seq, ea, width) {
                    Ok(found) => found,
                    Err(e) => return Err(core.lsq_err(lat, e)),
                };
                match found {
                    StoreSearch::Conflict { .. } => Ok(Attempt::Conflict),
                    StoreSearch::Forward(bits) => {
                        if core.fus.try_issue(OpClass::Load, core.cycle).is_none() {
                            return Ok(Attempt::NoUnit(OpClass::Load));
                        }
                        let latency = 1 + core.config.mem.l1d.latency;
                        let e = &mut core.threads[tid].rob[idx];
                        e.result = Some(bits);
                        e.result2 = writeback;
                        e.ea = Some(ea);
                        core.schedule(tid, idx, latency);
                        Ok(Attempt::Issued)
                    }
                    StoreSearch::Memory => {
                        if core.fus.try_issue(OpClass::Load, core.cycle).is_none() {
                            return Ok(Attempt::NoUnit(OpClass::Load));
                        }
                        let access = core.mem_timing.access_data_checked(
                            tag_addr(tid, pc) * 4,
                            tag_addr(tid, ea),
                            false,
                            core.cycle,
                        );
                        let (latency, bits, fault) = match access {
                            DataAccess::Done(latency) => {
                                (1 + latency, core.threads[tid].memory.read(ea, width), false)
                            }
                            DataAccess::Fault => (2, 0, true),
                        };
                        // A forced fault retries cleanly after the
                        // precise flush (the armed flag is one-shot).
                        let fault = fault || core.consume_armed_load_fault();
                        let e = &mut core.threads[tid].rob[idx];
                        e.result = Some(bits);
                        e.result2 = writeback;
                        e.ea = Some(ea);
                        e.exception = fault;
                        core.schedule(tid, idx, latency);
                        Ok(Attempt::Issued)
                    }
                }
            }
            UopKind::Main if d.is_store() => {
                let Some(latency) = core.fus.try_issue(OpClass::Store, core.cycle) else {
                    return Ok(Attempt::NoUnit(OpClass::Store));
                };
                let ops = core.read_operands(&srcs);
                let (ea, width, value, writeback) = match exec::evaluate(&inst, pc, ops) {
                    Action::Store { ea, width, value } => (ea, width, value, None),
                    Action::StorePost {
                        ea,
                        width,
                        value,
                        writeback,
                    } => (ea, width, value, Some(writeback)),
                    other => {
                        return Err(core.corrupt_err(
                            lat,
                            format!("store seq {seq} evaluated to a non-store action {other:?}"),
                        ));
                    }
                };
                if let Err(e) = core.threads[tid].lsq.resolve_store(seq, ea, width, value) {
                    return Err(core.lsq_err(lat, e));
                }
                let forced = core.consume_armed_store_fault();
                let fault = core.mem_timing.tlb().would_fault(tag_addr(tid, ea)) || forced;
                let e = &mut core.threads[tid].rob[idx];
                e.ea = Some(ea);
                e.result2 = writeback;
                e.exception = fault;
                core.schedule(tid, idx, latency);
                Ok(Attempt::Issued)
            }
            UopKind::Main => {
                let class = d.class;
                let Some(latency) = core.fus.try_issue(class, core.cycle) else {
                    return Ok(Attempt::NoUnit(class));
                };
                let ops = core.read_operands(&srcs);
                let action = exec::evaluate(&inst, pc, ops);
                let e = &mut core.threads[tid].rob[idx];
                match action {
                    Action::Value(bits) => {
                        e.result = Some(bits);
                        e.next_pc = pc + 1;
                    }
                    Action::Branch {
                        taken,
                        target,
                        link,
                    } => {
                        e.taken = Some(taken);
                        e.next_pc = if taken { target } else { pc + 1 };
                        e.result = link;
                    }
                    Action::Nop | Action::Halt => {
                        e.next_pc = pc + 1;
                    }
                    Action::Load { .. }
                    | Action::Store { .. }
                    | Action::LoadPost { .. }
                    | Action::StorePost { .. } => {
                        return Err(core.corrupt_err(
                            lat,
                            format!("non-memory seq {seq} evaluated to a memory action"),
                        ));
                    }
                }
                core.schedule(tid, idx, latency);
                Ok(Attempt::Issued)
            }
        }
    }
}
