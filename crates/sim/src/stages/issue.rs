//! Issue: select operand-ready micro-ops and send them to execute.

use crate::core_state::{CoreState, StageIo};
use crate::profile::StageSlot;
use crate::rob::{class_bit, ClassSet, Rob};
use crate::stages::execute::Attempt;
use crate::stages::{ExecuteStage, StageOutcome};
use crate::SimError;
use regshare_isa::{OpClass, MAX_HARTS};

/// The issue stage. Walks the ready masks oldest-first (lowest sequence
/// number first — the age-ordered select the paper assumes) and drives
/// [`ExecuteStage::try_execute`] per candidate, up to `issue_width`
/// successes per cycle. Candidates that hit a structural hazard keep
/// their ready bit and retry next cycle.
#[derive(Debug, Default)]
pub(crate) struct IssueStage;

impl IssueStage {
    pub(crate) fn tick(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
        exec: &mut ExecuteStage,
    ) -> Result<StageOutcome, SimError> {
        if !core.threads.iter().any(|ctx| ctx.rob.any_ready()) {
            return Ok(StageOutcome::Ran);
        }
        let mut select = Select::new(core.threads.len());
        let mut issued = 0;
        while issued < core.config.issue_width {
            let Some((tid, idx)) = select.next(|t| &core.threads[t].rob) else {
                break;
            };
            match exec.try_execute(core, lat, tid, idx)? {
                Attempt::Issued => {
                    core.threads[tid].rob.issue(idx);
                    core.iq_len -= 1;
                    issued += 1;
                    select.issued(tid);
                }
                Attempt::NoUnit(class) => select.refuse(class),
                Attempt::Conflict => {}
            }
        }
        core.profile.add_work(StageSlot::Issue, issued as u64);
        Ok(StageOutcome::Ran)
    }
}

/// One cycle's oldest-first walk over the threads' ready masks.
///
/// Each thread's candidates come from a bit-scan of its ROB ring from
/// the head, so they arrive in age order; with several threads the walk
/// merges the scans by sequence number, giving one global oldest-first
/// order. Two kinds of candidate are skipped without an attempt, both
/// exactly the ones an attempt would turn down without side effects:
///
/// * loads younger than their thread's oldest unissued store (an
///   unresolved address), masked out as one range and re-derived when
///   that store issues, so it unblocks younger loads the same cycle;
/// * every candidate of a functional-unit class the pool has refused
///   this cycle — units only get busier within a cycle.
pub(crate) struct Select {
    threads: usize,
    /// Next logical ROB position to scan, per thread.
    cursor: [usize; MAX_HARTS],
    /// Logical position of the thread's oldest unissued store (its
    /// length when there is none), found when a ready load first needs
    /// it: loads past it are blocked.
    fence: [Option<usize>; MAX_HARTS],
    refused: ClassSet,
}

impl Select {
    pub(crate) fn new(threads: usize) -> Self {
        Select {
            threads,
            cursor: [0; MAX_HARTS],
            fence: [None; MAX_HARTS],
            refused: 0,
        }
    }

    /// The next candidate as `(thread, ROB slot)`, oldest first.
    pub(crate) fn next<'a>(&mut self, rob: impl Fn(usize) -> &'a Rob) -> Option<(usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for t in 0..self.threads {
            let r = rob(t);
            if let Some(pos) = self.next_in(t, r) {
                let seq = r.seq_at(pos);
                if best.is_none_or(|(s, _, _)| seq < s) {
                    best = Some((seq, t, pos));
                }
            }
        }
        let (_, t, pos) = best?;
        self.cursor[t] = pos + 1;
        Some((t, rob(t).slot_of(pos)))
    }

    /// Thread `t`'s next candidate position.
    fn next_in(&mut self, t: usize, r: &Rob) -> Option<usize> {
        let pos = r.next_ready(self.cursor[t], self.refused)?;
        // The attempt reads the entry next anyway, so ask it, not the
        // masks, whether this is a load.
        if r[r.slot_of(pos)].fu_class() == OpClass::Load
            && pos > *self.fence[t].get_or_insert_with(|| r.oldest_waiting(OpClass::Store))
        {
            // Every position from here on is past the fence.
            return r.next_ready(pos, self.refused | class_bit(OpClass::Load));
        }
        Some(pos)
    }

    /// The last candidate of thread `t` issued; if it was the fencing
    /// store, the fence moves on (found again when next needed).
    pub(crate) fn issued(&mut self, t: usize) {
        if self.fence[t] == Some(self.cursor[t] - 1) {
            self.fence[t] = None;
        }
    }

    /// The functional-unit pool turned `class` down for this cycle.
    pub(crate) fn refuse(&mut self, class: OpClass) {
        self.refused |= class_bit(class);
    }
}

#[cfg(test)]
mod tests {
    //! The mask select against a reference model of the plain walk it
    //! replaces: every operand-ready, unissued micro-op of every thread
    //! in ascending sequence order, each attempted in turn (a load
    //! behind an unresolved store of its thread turned down, a refused
    //! class turned down), stopping after `issue_width` issues.

    use super::*;
    use crate::core_state::RobEntry;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use regshare_core::UopKind;
    use regshare_isa::{DecodedOp, Inst, Opcode};

    const OPS: [Opcode; 5] = [
        Opcode::Add,
        Opcode::Ld,
        Opcode::St,
        Opcode::Mul,
        Opcode::Fadd,
    ];

    /// One generated machine: per-thread ROB rings plus the hazards.
    struct Case {
        robs: Vec<Rob>,
        width: usize,
        /// Free units per class this cycle.
        units: [u8; 9],
        /// Loads whose store search conflicts (by seq).
        conflicts: Vec<u64>,
    }

    fn build(seed: u64) -> Case {
        let mut rng = SmallRng::seed_from_u64(seed);
        let threads = rng.gen_range(1..=MAX_HARTS);
        let cap = [8, 16, 64, 128][rng.gen_range(0..4)];
        let mut robs: Vec<Rob> = (0..threads)
            .map(|_| Rob::new(cap, RobEntry::filler()))
            .collect();
        // Rotate each ring so the live window wraps.
        for r in &mut robs {
            for _ in 0..rng.gen_range(0..cap) {
                r.push_back(RobEntry::filler());
                r.pop_front();
            }
        }
        let mut seq = 1u64;
        let mut conflicts = Vec::new();
        for _ in 0..rng.gen_range(0..threads * cap) {
            let t = rng.gen_range(0..threads);
            if robs[t].len() == cap {
                continue;
            }
            let op = OPS[rng.gen_range(0..OPS.len())];
            let inst = Inst::bare(op);
            let e = RobEntry {
                seq,
                d: DecodedOp::decode(&inst, 0),
                inst,
                kind: if rng.gen_range(0..8) == 0 {
                    UopKind::RepairMove
                } else {
                    UopKind::Main
                },
                issued: rng.gen_range(0..4) == 0,
                pending_srcs: (rng.gen_range(0..3) == 0) as u8,
                ..RobEntry::filler()
            };
            let e = RobEntry {
                pending_srcs: if e.issued { 0 } else { e.pending_srcs },
                ..e
            };
            if rng.gen_range(0..4) == 0 {
                conflicts.push(seq);
            }
            robs[t].push_back(e);
            // Squash gaps, and threads interleaving in seq order.
            seq += rng.gen_range(1..4);
        }
        // Squash a random tail off some threads.
        for r in &mut robs {
            for _ in 0..rng.gen_range(0..=r.len()) / 2 {
                r.pop_back();
            }
        }
        let mut units = [0u8; 9];
        for u in &mut units {
            *u = rng.gen_range(0..4);
        }
        Case {
            robs,
            width: rng.gen_range(1..9),
            units,
            conflicts,
        }
    }

    /// Attempts one candidate against the case's hazards, mutating the
    /// free-unit counts as the functional-unit pool would.
    fn attempt(e: &RobEntry, units: &mut [u8; 9], conflicts: &[u64]) -> Attempt {
        let class = e.fu_class();
        if class == OpClass::Load && conflicts.contains(&e.seq) {
            return Attempt::Conflict;
        }
        if units[class as usize] == 0 {
            return Attempt::NoUnit(class);
        }
        units[class as usize] -= 1;
        Attempt::Issued
    }

    /// The reference walk; returns the issued seqs in issue order and
    /// the units left.
    fn reference(case: &Case) -> (Vec<u64>, [u8; 9]) {
        let mut all: Vec<(u64, usize, RobEntry)> = Vec::new();
        for (t, r) in case.robs.iter().enumerate() {
            all.extend(r.iter().map(|e| (e.seq, t, *e)));
        }
        all.sort_by_key(|c| c.0);
        let mut issued_seqs: Vec<u64> = all.iter().filter(|c| c.2.issued).map(|c| c.0).collect();
        let mut units = case.units;
        let mut out = Vec::new();
        for &(seq, t, e) in &all {
            if out.len() >= case.width {
                break;
            }
            if e.issued || e.pending_srcs != 0 {
                continue;
            }
            let unresolved_older_store = all.iter().any(|&(s, u, o)| {
                u == t && s < seq && o.fu_class() == OpClass::Store && !issued_seqs.contains(&s)
            });
            if e.fu_class() == OpClass::Load && unresolved_older_store {
                continue;
            }
            if attempt(&e, &mut units, &case.conflicts) == Attempt::Issued {
                out.push(seq);
                issued_seqs.push(seq);
            }
        }
        (out, units)
    }

    /// The simulator's select walk over the same case, driven exactly as
    /// the issue stage drives it.
    fn masked(mut case: Case) -> (Vec<u64>, [u8; 9]) {
        let robs = &mut case.robs;
        let mut select = Select::new(robs.len());
        let mut units = case.units;
        let mut out = Vec::new();
        while out.len() < case.width {
            let Some((t, idx)) = select.next(|t| &robs[t]) else {
                break;
            };
            let e = robs[t][idx];
            assert!(
                !e.issued && e.pending_srcs == 0,
                "seq {} is not ready",
                e.seq
            );
            match attempt(&e, &mut units, &case.conflicts) {
                Attempt::Issued => {
                    robs[t].issue(idx);
                    out.push(e.seq);
                    select.issued(t);
                }
                Attempt::NoUnit(class) => select.refuse(class),
                Attempt::Conflict => {}
            }
        }
        (out, units)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn mask_select_matches_the_reference_walk(seed in any::<u64>()) {
            let want = reference(&build(seed));
            let got = masked(build(seed));
            prop_assert_eq!(got, want);
        }
    }
}
