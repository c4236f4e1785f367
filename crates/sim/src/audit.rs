//! Periodic invariant audits of the pipeline's bookkeeping, and the
//! seeded issue-queue corruptions their self-tests use.
//!
//! Every [`crate::SimConfig::audit_interval`] cycles the renamer audits its
//! free lists and tables, and the pipeline checks its own state: ROB
//! partition order and ownership, issue-queue occupancy, and the
//! issue-queue invariants over the slot masks — a slot's ready bit is
//! set iff its entry is live, unissued and has no busy source, and every
//! scoreboard waiter names a live, unissued entry parked on one of its
//! own busy sources, as many times as its not-ready counter says.

use crate::core_state::{CoreState, RobEntry, StageIo};
use crate::rob::RobSlot;
use crate::SimError;
use regshare_isa::RegClass;

/// A deliberate issue-queue corruption, used by the invariant auditor's
/// self-tests: each breaks one invariant the next audit must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IqCorruptKind {
    /// Set the ready bit of an issued entry's slot.
    StrayReadyBit,
    /// Leave a waiter on a busy tag for a slot that holds no entry, as
    /// a squash that failed to unwatch its consumer would.
    LeftoverWaiter,
}

impl CoreState {
    /// Every [`crate::SimConfig::audit_interval`] cycles, cross-check the
    /// renamer's bookkeeping (free list / PRT / map tables) and the
    /// pipeline's IQ/ROB/wakeup state against their invariants.
    pub(crate) fn audit_if_due(&mut self, lat: &[StageIo]) -> Result<(), SimError> {
        let n = self.config.audit_interval;
        if n == 0 || self.cycle == 0 || !self.cycle.is_multiple_of(n) {
            return Ok(());
        }
        self.audit(lat)
    }

    /// Runs every audit now.
    pub(crate) fn audit(&mut self, lat: &[StageIo]) -> Result<(), SimError> {
        self.audits += 1;
        if let Err(what) = self.renamer.audit() {
            return Err(self.corrupt_err(lat, format!("renamer audit: {what}")));
        }
        self.audit_occupancy(lat)?;
        self.audit_pipeline(lat)
    }

    /// The two occupancy readouts must agree: the per-bank in-use counts
    /// (the Fig. 9 signal) have to sum to the scheme's total allocated
    /// register count.
    fn audit_occupancy(&self, lat: &[StageIo]) -> Result<(), SimError> {
        for class in [RegClass::Int, RegClass::Fp] {
            let per_bank: usize = self.renamer.in_use_per_bank(class).into_iter().sum();
            let total = self.renamer.allocated_total(class);
            if per_bank != total {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "{class:?} per-bank occupancy sums to {per_bank} \
                         but {total} registers are allocated"
                    ),
                ));
            }
        }
        Ok(())
    }

    fn audit_pipeline(&self, lat: &[StageIo]) -> Result<(), SimError> {
        let max_version = self.renamer.max_version();
        let rob_partition = self.rob_partition();
        let mut unissued = 0usize;
        for (tid, ctx) in self.threads.iter().enumerate() {
            let rob = &ctx.rob;
            if rob.len() > rob_partition {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "thread {tid} holds {} ROB entries but its partition is {rob_partition}",
                        rob.len()
                    ),
                ));
            }
            let mut prev_seq = None;
            let mut ready = 0;
            let mut waiting = 0;
            for pos in 0..rob.len() {
                let h = RobSlot::new(tid, rob.slot_of(pos));
                let e = &rob[h.idx()];
                if e.hart.index() != tid {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {} tagged {} sits in thread {tid}'s ROB partition",
                            e.seq, e.hart
                        ),
                    ));
                }
                if let Some(p) = prev_seq {
                    if e.seq <= p {
                        return Err(self.corrupt_err(
                            lat,
                            format!("ROB order (thread {tid}): seq {} follows seq {p}", e.seq),
                        ));
                    }
                }
                prev_seq = Some(e.seq);
                ready += rob.is_ready(h.idx()) as usize;
                waiting += !e.issued as usize;
                unissued += self.audit_rob_entry(lat, h, e, max_version)?;
            }
            if rob.ready_count() != ready || rob.waiting_count() != waiting {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "thread {tid}: ready count {} and {} waiting bit(s), but {ready} \
                         ready bit(s) on live slots and {waiting} unissued entries",
                        rob.ready_count(),
                        rob.waiting_count()
                    ),
                ));
            }
        }
        if unissued != self.iq_len {
            return Err(self.corrupt_err(
                lat,
                format!(
                    "issue-queue occupancy {} but {unissued} unissued ROB entries",
                    self.iq_len
                ),
            ));
        }
        self.audit_waiters(lat)
    }

    /// Every scoreboard waiter must name a live, unissued entry parked
    /// on one of its own sources, and each entry must be parked exactly
    /// `pending_srcs` times.
    fn audit_waiters(&self, lat: &[StageIo]) -> Result<(), SimError> {
        let mut parked: Vec<Vec<u8>> = self
            .threads
            .iter()
            .map(|ctx| vec![0; ctx.rob.capacity()])
            .collect();
        for (tag, h) in self.scoreboard.waiters() {
            let live = h.tid() < self.threads.len() && self.threads[h.tid()].rob.is_live(h.idx());
            if !live {
                return Err(self.corrupt_err(
                    lat,
                    format!("scoreboard waiter {h} on {tag} names a slot that holds no entry"),
                ));
            }
            let e = &self.threads[h.tid()].rob[h.idx()];
            if e.issued || !e.srcs.contains(&Some(tag)) {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "scoreboard waiter {h} on {tag} names seq {}, which is {}",
                        e.seq,
                        if e.issued {
                            "issued"
                        } else {
                            "not a consumer of it"
                        }
                    ),
                ));
            }
            parked[h.tid()][h.idx()] += 1;
        }
        for (tid, ctx) in self.threads.iter().enumerate() {
            for pos in 0..ctx.rob.len() {
                let idx = ctx.rob.slot_of(pos);
                let e = &ctx.rob[idx];
                if !e.issued && parked[tid][idx] != e.pending_srcs {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {}: {} scoreboard waiter entries but pending_srcs {}",
                            e.seq, parked[tid][idx], e.pending_srcs
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks one ROB entry's wakeup/readiness invariants; returns 1 if
    /// the entry occupies an issue-queue slot (unissued), 0 otherwise.
    fn audit_rob_entry(
        &self,
        lat: &[StageIo],
        h: RobSlot,
        e: &RobEntry,
        max_version: u8,
    ) -> Result<usize, SimError> {
        let rob = &self.threads[h.tid()].rob;
        let busy = e
            .srcs
            .iter()
            .flatten()
            .filter(|t| !self.scoreboard.is_ready(**t))
            .count() as u8;
        if !e.issued && e.pending_srcs != busy {
            return Err(self.corrupt_err(
                lat,
                format!(
                    "seq {}: pending_srcs {} but {busy} busy source operand(s)",
                    e.seq, e.pending_srcs
                ),
            ));
        }
        if e.issued && e.pending_srcs != 0 {
            return Err(self.corrupt_err(
                lat,
                format!("seq {} issued with pending_srcs {}", e.seq, e.pending_srcs),
            ));
        }
        let want_ready = !e.issued && e.pending_srcs == 0;
        let waiting = rob.is_waiting_as(h.idx(), e.fu_class());
        if rob.is_ready(h.idx()) != want_ready || waiting == e.issued {
            return Err(self.corrupt_err(
                lat,
                format!(
                    "slot {h} (seq {}): ready bit {} and {} waiting bit {}, but issued={} \
                     pending_srcs={}",
                    e.seq,
                    rob.is_ready(h.idx()),
                    e.fu_class(),
                    waiting,
                    e.issued,
                    e.pending_srcs
                ),
            ));
        }
        if e.done {
            for tag in [e.dst, e.dst2].into_iter().flatten() {
                if !self.scoreboard.is_ready(tag) {
                    return Err(self.corrupt_err(
                        lat,
                        format!("seq {} done but destination {tag} is still busy", e.seq),
                    ));
                }
            }
        }
        for tag in e.srcs.iter().chain([e.dst, e.dst2].iter()).flatten() {
            if tag.version > max_version {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "seq {}: tag {tag} version exceeds the counter maximum {max_version}",
                        e.seq
                    ),
                ));
            }
            let cells = self.renamer.banks(tag.class).shadow_cells_of(tag.preg);
            if tag.version > 0 && tag.version > cells {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "seq {}: tag {tag} version has no backing shadow cell \
                         ({cells} available)",
                        e.seq
                    ),
                ));
            }
        }
        Ok(!e.issued as usize)
    }

    /// Applies a seeded issue-queue corruption; false when no entry in
    /// flight fits `kind` this cycle (no issued entry, or no busy source
    /// and free slot).
    pub(crate) fn corrupt_issue_queue(&mut self, kind: IqCorruptKind) -> bool {
        for tid in 0..self.threads.len() {
            let rob = &self.threads[tid].rob;
            let slots = (0..rob.len()).map(|pos| rob.slot_of(pos));
            match kind {
                IqCorruptKind::StrayReadyBit => {
                    if let Some(idx) = slots.clone().find(|&idx| rob[idx].issued) {
                        self.threads[tid].rob.mark_ready(idx);
                        return true;
                    }
                }
                IqCorruptKind::LeftoverWaiter => {
                    let busy = slots
                        .flat_map(|idx| rob[idx].srcs)
                        .flatten()
                        .find(|t| !self.scoreboard.is_ready(*t));
                    if let (Some(tag), true) = (busy, rob.len() < rob.capacity()) {
                        let dead = rob.slot_of(rob.len());
                        self.scoreboard.watch(tag, RobSlot::new(tid, dead));
                        return true;
                    }
                }
            }
        }
        false
    }
}
