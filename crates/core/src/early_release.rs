//! An early-register-release comparator scheme (related work, §VII).
//!
//! The paper positions physical-register sharing against the classic
//! early-release proposals of Moudgill et al. and Monreal et al.: keep
//! conventional one-register-per-destination renaming, but release the
//! *previous* register of a redefined logical register as soon as
//!
//! 1. the redefining instruction is **non-speculative** (every older
//!    branch has resolved, so it can no longer be squashed), and
//! 2. every reader of the previous value has **issued** (read the value),
//!
//! instead of waiting for the redefining instruction to *commit*. Pending
//! reads are tracked with per-register counters (Moudgill-style); the
//! non-speculative boundary comes from the pipeline
//! ([`Renamer::advance_nonspeculative`]).
//!
//! As the paper notes, these schemes **do not support precise
//! exceptions**: a released register may be reallocated and overwritten
//! while an older instruction can still fault, making the old value
//! unrecoverable. This implementation therefore must not be combined with
//! exception injection; branch-misprediction recovery *is* fully
//! supported (condition 1 guarantees a releasing redefiner cannot be
//! squashed by a branch).

use crate::renamer::{RenameStats, Renamer, RenamerConfig, SquashOutcome, Uop, UopKind, UopVec};
use crate::{BankConfig, FreeList, MapTable, PhysReg, TaggedReg};
use regshare_isa::{ArchReg, HartId, Inst, RegClass};
use regshare_stats::FastHashMap;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct DstChange {
    logical: ArchReg,
    old_map: TaggedReg,
    new_map: TaggedReg,
}

#[derive(Debug, Clone)]
struct Record {
    seq: u64,
    dst: Option<DstChange>,
    dst2: Option<DstChange>,
}

#[derive(Debug, Clone, Copy)]
struct PendingRelease {
    redefiner_seq: u64,
    class: RegClass,
    preg: PhysReg,
}

/// Conventional renaming with Moudgill/Monreal-style early release:
/// the baseline's release-on-commit replaced by
/// release-on-(non-speculative ∧ reads-done).
///
/// # Examples
///
/// ```
/// use regshare_core::{EarlyReleaseRenamer, Renamer, RenamerConfig};
/// use regshare_isa::{Inst, Opcode, reg};
///
/// let mut r = EarlyReleaseRenamer::new(RenamerConfig::baseline(48));
/// let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
/// let free_before = r.free_regs(regshare_isa::RegClass::Int);
/// r.rename(1, 0, &def).unwrap();
/// r.on_writeback(1); // the producer writes its value
/// // Redefine r1: the old register becomes releasable once this rename
/// // is non-speculative (no reads are pending on it).
/// r.rename(2, 4, &def).unwrap();
/// // Both replaced mappings release once the renames are non-speculative
/// // — no commit required.
/// r.advance_nonspeculative(10);
/// assert_eq!(r.free_regs(regshare_isa::RegClass::Int), free_before - 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct EarlyReleaseRenamer {
    config: RenamerConfig,
    map: MapTable,
    retire_map: MapTable,
    free: [FreeList; 2],
    records: VecDeque<Record>,
    /// Pending reads per physical register.
    pending_reads: [Vec<u32>; 2],
    /// Sources each in-flight micro-op has not read yet (inline — a
    /// micro-op has at most three sources — so the per-rename hot path
    /// never touches the allocator).
    unread: FastHashMap<u64, [Option<(RegClass, PhysReg)>; 3]>,
    /// Old registers whose redefiner is still speculative, in rename
    /// (sequence) order — the non-speculative boundary releases them
    /// from the front as it advances.
    spec_releases: VecDeque<PendingRelease>,
    /// Old registers past the boundary but still blocked on pending
    /// reads or an in-flight producer write. Usually near-empty: most
    /// registers release the moment they become non-speculative.
    blocked_releases: Vec<PendingRelease>,
    /// Whether each register's current producer has written back; a
    /// register must not be released (and reallocated) while its value is
    /// still in flight, or the late write would clobber the new owner.
    producer_written: [Vec<bool>; 2],
    /// Registers each in-flight micro-op will write at its writeback.
    pending_writes: FastHashMap<u64, [Option<(RegClass, PhysReg)>; 2]>,
    ns_boundary: u64,
    stats: RenameStats,
    /// Reused squash-outcome storage (`recovers` stays empty: without
    /// version sharing there are no shadow-cell recover commands).
    squash: SquashOutcome,
}

impl EarlyReleaseRenamer {
    /// Creates a renamer with every logical register mapped (conventional
    /// single-bank layouts; bank splits are ignored beyond totals).
    ///
    /// # Panics
    ///
    /// Panics if a register file is not larger than the logical register
    /// count.
    pub fn new(config: RenamerConfig) -> Self {
        let mut map = MapTable::new();
        let mut free = [
            FreeList::new(&config.int_banks),
            FreeList::new(&config.fp_banks),
        ];
        for class in RegClass::ALL {
            assert!(
                config.banks(class).total() > class.num_regs(),
                "{class} register file must exceed the {} logical registers",
                class.num_regs()
            );
            for i in 0..class.num_regs() {
                let preg = free[class.index()]
                    .alloc(0)
                    .expect("initial mapping fits by the assertion above");
                map.set(ArchReg::new(class, i as u8), TaggedReg::new(class, preg, 0));
            }
        }
        let retire_map = map.clone();
        let pending_reads = [
            vec![0u32; config.int_banks.total()],
            vec![0u32; config.fp_banks.total()],
        ];
        // Initial architectural state counts as written.
        let producer_written = [
            vec![true; config.int_banks.total()],
            vec![true; config.fp_banks.total()],
        ];
        EarlyReleaseRenamer {
            config,
            map,
            retire_map,
            free,
            records: VecDeque::new(),
            pending_reads,
            unread: FastHashMap::default(),
            spec_releases: VecDeque::new(),
            blocked_releases: Vec::new(),
            producer_written,
            pending_writes: FastHashMap::default(),
            ns_boundary: 0,
            stats: RenameStats::new(),
            squash: SquashOutcome::default(),
        }
    }

    /// The current (speculative) rename map.
    pub fn map(&self) -> &MapTable {
        &self.map
    }

    /// Registers currently awaiting their early-release conditions.
    pub fn pending_release_count(&self) -> usize {
        self.spec_releases.len() + self.blocked_releases.len()
    }

    fn releasable(&self, p: PendingRelease) -> bool {
        self.pending_reads[p.class.index()][p.preg.0 as usize] == 0
            && self.producer_written[p.class.index()][p.preg.0 as usize]
    }

    fn free_released(&mut self, p: PendingRelease) {
        self.free[p.class.index()].free(p.preg, self.config.banks(p.class));
        self.stats.releases += 1;
        self.stats.chain_lengths.record(0);
    }

    /// Releases every blocked entry whose conditions now hold. Called
    /// after a pending-read counter drops or a producer writes back —
    /// the only events that can unblock an entry, which keeps the
    /// release check off the every-cycle path the old full scan sat on.
    fn release_unblocked(&mut self) {
        let mut i = 0;
        while i < self.blocked_releases.len() {
            let p = self.blocked_releases[i];
            if self.releasable(p) {
                self.free_released(p);
                self.blocked_releases.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn force_release(&mut self, redefiner_seq: u64) {
        // At commit the redefiner is trivially non-speculative and all
        // older readers have committed (in-order commit), so any entry it
        // queued can be released unconditionally. In-order commit also
        // means no older redefiner can still be queued, so its entries
        // sit at the front of the speculative queue (when the boundary
        // has not overtaken it yet) or in the blocked set.
        while let Some(&p) = self.spec_releases.front() {
            if p.redefiner_seq != redefiner_seq {
                debug_assert!(
                    p.redefiner_seq > redefiner_seq,
                    "an older redefiner outlived a younger commit"
                );
                break;
            }
            self.check_commit_released(p);
            self.free_released(p);
            self.spec_releases.pop_front();
        }
        let mut i = 0;
        while i < self.blocked_releases.len() {
            let p = self.blocked_releases[i];
            if p.redefiner_seq == redefiner_seq {
                self.check_commit_released(p);
                self.free_released(p);
                self.blocked_releases.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn check_commit_released(&self, p: PendingRelease) {
        debug_assert_eq!(
            self.pending_reads[p.class.index()][p.preg.0 as usize],
            0,
            "older readers must have issued before the redefiner commits"
        );
        debug_assert!(
            self.producer_written[p.class.index()][p.preg.0 as usize],
            "the old producer must have written before the redefiner commits"
        );
    }
}

impl Renamer for EarlyReleaseRenamer {
    fn rename_on(&mut self, hart: HartId, seq: u64, _pc: u64, inst: &Inst) -> Option<UopVec> {
        debug_assert_eq!(
            hart,
            HartId::ZERO,
            "the early-release oracle renamer is single-threaded"
        );
        let mut srcs = [None; 3];
        let mut read_list = [None; 3];
        let mut n_reads = 0;
        for (slot, src) in srcs.iter_mut().zip(inst.raw_sources()) {
            if let Some(r) = src.filter(|r| !r.is_zero()) {
                let tag = self.map.get(r);
                *slot = Some(tag);
                if !read_list.contains(&Some((tag.class, tag.preg))) {
                    read_list[n_reads] = Some((tag.class, tag.preg));
                    n_reads += 1;
                }
            }
        }

        let allocate = |this: &mut Self, logical: ArchReg| -> Option<DstChange> {
            let class = logical.class();
            let preg = this.free[class.index()].alloc(0)?;
            let new_map = TaggedReg::new(class, preg, 0);
            let old_map = this.map.set(logical, new_map);
            this.stats.allocations += 1;
            Some(DstChange {
                logical,
                old_map,
                new_map,
            })
        };
        let rollback = |this: &mut Self, d: DstChange| {
            this.map.set(d.logical, d.old_map);
            let class = d.new_map.class;
            this.free[class.index()].free(d.new_map.preg, this.config.banks(class));
            this.stats.allocations -= 1;
        };

        let dst_change = match inst.dst() {
            Some(logical) => match allocate(self, logical) {
                Some(c) => Some(c),
                None => {
                    self.stats.stalls += 1;
                    return None;
                }
            },
            None => None,
        };
        let dst2_change = match inst.dst2() {
            Some(logical) => match allocate(self, logical) {
                Some(c) => Some(c),
                None => {
                    if let Some(d) = dst_change {
                        rollback(self, d);
                    }
                    self.stats.stalls += 1;
                    return None;
                }
            },
            None => None,
        };

        // Commit to this rename: count the pending reads, mark the new
        // registers as not-yet-written, and queue the early releases of
        // the replaced mappings.
        for (class, preg) in read_list.iter().flatten() {
            self.pending_reads[class.index()][preg.0 as usize] += 1;
        }
        if n_reads > 0 {
            self.unread.insert(seq, read_list);
        }
        let mut writes = [None; 2];
        for (w, d) in writes
            .iter_mut()
            .zip([dst_change, dst2_change].into_iter().flatten())
        {
            self.producer_written[d.new_map.class.index()][d.new_map.preg.0 as usize] = false;
            *w = Some((d.new_map.class, d.new_map.preg));
            self.spec_releases.push_back(PendingRelease {
                redefiner_seq: seq,
                class: d.old_map.class,
                preg: d.old_map.preg,
            });
        }
        if writes[0].is_some() {
            self.pending_writes.insert(seq, writes);
        }

        let dst_tag = dst_change.map(|d| d.new_map);
        let dst2_tag = dst2_change.map(|d| d.new_map);
        self.records.push_back(Record {
            seq,
            dst: dst_change,
            dst2: dst2_change,
        });
        self.stats.renamed += 1;
        let mut uops = UopVec::new();
        uops.push(Uop {
            seq,
            kind: UopKind::Main,
            srcs,
            dst: dst_tag,
            dst2: dst2_tag,
        });
        Some(uops)
    }

    fn commit_on(&mut self, _hart: HartId, seq: u64) {
        let record = self
            .records
            .pop_front()
            .expect("commit without an in-flight rename record");
        assert_eq!(record.seq, seq, "commits must arrive in rename order");
        // A committed reader always issued first, but drain any leftover
        // bookkeeping properly so a counter can never leak and pin a
        // register forever.
        if let Some(reads) = self.unread.remove(&seq) {
            for (class, preg) in reads.into_iter().flatten() {
                let c = &mut self.pending_reads[class.index()][preg.0 as usize];
                *c = c.saturating_sub(1);
            }
        }
        for d in [record.dst, record.dst2].into_iter().flatten() {
            self.retire_map.set(d.logical, d.new_map);
        }
        self.force_release(seq);
    }

    fn squash_after_on(&mut self, _hart: HartId, seq: u64) -> &SquashOutcome {
        self.squash.undone = 0;
        while let Some(record) = self.records.back() {
            if record.seq <= seq {
                break;
            }
            let record = self.records.pop_back().expect("just checked non-empty");
            // Give back the reads this micro-op never performed.
            if let Some(reads) = self.unread.remove(&record.seq) {
                for (class, preg) in reads.into_iter().flatten() {
                    let c = &mut self.pending_reads[class.index()][preg.0 as usize];
                    debug_assert!(*c > 0, "pending-read underflow on squash");
                    *c -= 1;
                }
            }
            // Its own registers will never be written now; they return to
            // the free list below and the flag resets at reallocation.
            self.pending_writes.remove(&record.seq);
            for d in [record.dst2, record.dst].into_iter().flatten() {
                self.map.set(d.logical, d.old_map);
                let class = d.new_map.class;
                self.free[class.index()].free(d.new_map.preg, self.config.banks(class));
            }
            self.squash.undone += 1;
            self.stats.squashed += 1;
        }
        // Cancel the squashed micro-ops' queued releases (condition 1
        // guarantees none was released yet: a releasing redefiner is
        // non-speculative and cannot be squashed, so every casualty is
        // still in the speculative suffix).
        while self
            .spec_releases
            .back()
            .is_some_and(|p| p.redefiner_seq > seq)
        {
            self.spec_releases.pop_back();
        }
        debug_assert!(
            self.blocked_releases.iter().all(|p| p.redefiner_seq <= seq),
            "a non-speculative release entry was squashed"
        );
        // The restored read counters may have unblocked an older entry.
        self.release_unblocked();
        &self.squash
    }

    fn on_writeback(&mut self, seq: u64) {
        if let Some(writes) = self.pending_writes.remove(&seq) {
            for (class, preg) in writes.into_iter().flatten() {
                self.producer_written[class.index()][preg.0 as usize] = true;
            }
            self.release_unblocked();
        }
    }

    fn on_operands_read(&mut self, seq: u64) {
        if let Some(reads) = self.unread.remove(&seq) {
            for (class, preg) in reads.into_iter().flatten() {
                let c = &mut self.pending_reads[class.index()][preg.0 as usize];
                debug_assert!(*c > 0, "pending-read underflow on issue");
                *c -= 1;
            }
            self.release_unblocked();
        }
    }

    fn advance_nonspeculative_on(&mut self, _hart: HartId, boundary: u64) {
        if boundary <= self.ns_boundary {
            return;
        }
        self.ns_boundary = boundary;
        while self
            .spec_releases
            .front()
            .is_some_and(|p| p.redefiner_seq < boundary)
        {
            let p = self.spec_releases.pop_front().expect("front checked above");
            if self.releasable(p) {
                self.free_released(p);
            } else {
                self.blocked_releases.push(p);
            }
        }
    }

    fn stats(&self) -> &RenameStats {
        &self.stats
    }

    fn free_regs(&self, class: RegClass) -> usize {
        self.free[class.index()].free_total()
    }

    fn in_use_per_bank(&self, class: RegClass) -> Vec<usize> {
        let mut out = Vec::new();
        self.in_use_per_bank_into(class, &mut out);
        out
    }

    fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        let banks = self.config.banks(class);
        let free = &self.free[class.index()];
        out.clear();
        out.extend((0..banks.num_banks()).map(|k| banks.sizes()[k] - free.free_in_bank(k)));
    }

    fn banks(&self, class: RegClass) -> &BankConfig {
        self.config.banks(class)
    }

    fn max_version(&self) -> u8 {
        self.config.max_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Opcode};

    fn renamer() -> EarlyReleaseRenamer {
        EarlyReleaseRenamer::new(RenamerConfig::baseline(40))
    }

    #[test]
    fn releases_before_commit_once_nonspeculative_and_read() {
        let mut r = renamer();
        let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        r.rename(1, 0, &def).unwrap();
        r.on_writeback(1);
        r.rename(2, 4, &def).unwrap(); // redefines x1: old preg queued
        r.on_writeback(2);
        assert_eq!(r.free_regs(RegClass::Int), 6);
        assert_eq!(r.pending_release_count(), 2);
        // Nothing released while both renames are still speculative.
        r.advance_nonspeculative(1);
        assert_eq!(r.free_regs(RegClass::Int), 6);
        // Seq 1 non-speculative: its replaced mapping (x1's initial
        // register, never read) is released.
        r.advance_nonspeculative(2);
        assert_eq!(r.free_regs(RegClass::Int), 7);
        // Past both renames: both old mappings (x1-initial, seq1's reg)
        // are free long before any commit.
        r.advance_nonspeculative(5);
        assert_eq!(r.free_regs(RegClass::Int), 8);
        assert_eq!(r.stats().releases, 2);
        // Commit must not double-release.
        r.commit(1);
        r.commit(2);
        assert_eq!(r.free_regs(RegClass::Int), 8);
    }

    #[test]
    fn pending_reads_block_early_release() {
        let mut r = renamer();
        let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        let use_x1 = Inst::store(Opcode::St, reg::x(1), reg::x(4), 0);
        r.rename(1, 0, &def).unwrap();
        r.on_writeback(1);
        r.rename(2, 4, &use_x1).unwrap(); // reads seq-1's register
        r.rename(3, 8, &def).unwrap(); // redefines x1
        r.on_writeback(3);
        r.advance_nonspeculative(10);
        // seq-1's register has a pending read from seq 2: not released.
        // (The initial mapping of x1 was released by seq 1's queue entry.)
        assert_eq!(r.free_regs(RegClass::Int), 7);
        r.on_operands_read(2);
        assert_eq!(r.free_regs(RegClass::Int), 8);
    }

    #[test]
    fn squash_cancels_queued_releases_and_restores_reads() {
        let mut r = renamer();
        let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        let use_x1 = Inst::store(Opcode::St, reg::x(1), reg::x(4), 0);
        r.rename(1, 0, &def).unwrap();
        let free_after_one = r.free_regs(RegClass::Int);
        r.rename(2, 4, &use_x1).unwrap();
        r.rename(3, 8, &def).unwrap();
        r.squash_after(1); // kill the reader and the redefiner
        assert_eq!(r.free_regs(RegClass::Int), free_after_one);
        assert_eq!(r.pending_release_count(), 1); // only seq 1's entry
                                                  // The reader's pending count was restored; advancing the boundary
                                                  // releases seq 1's old mapping only.
        r.advance_nonspeculative(10);
        assert_eq!(r.free_regs(RegClass::Int), free_after_one + 1);
    }

    #[test]
    fn early_release_frees_sooner_than_baseline() {
        use crate::BaselineRenamer;
        // A chain of redefinitions with no commits and resolved branches:
        // early release keeps the free list full, the baseline drains it.
        let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        let mut early = renamer();
        let mut base = BaselineRenamer::new(RenamerConfig::baseline(40));
        for seq in 1..=6 {
            early.rename(seq, seq * 4, &def).unwrap();
            early.on_writeback(seq);
            early.advance_nonspeculative(seq + 1);
            base.rename(seq, seq * 4, &def).unwrap();
        }
        assert!(early.free_regs(RegClass::Int) > base.free_regs(RegClass::Int));
    }
}
