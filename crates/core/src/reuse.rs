//! The proposed renaming scheme: physical register sharing (§IV).

use crate::rename_common::{CheckpointStack, ReadMarks, RenameTables};
use crate::renamer::{
    HintPolicy, HintStats, RenameStats, Renamer, RenamerConfig, SquashOutcome, Uop, UopKind, UopVec,
};
use crate::{BankConfig, MapTable, PhysReg, Prt, RegTypePredictor, SingleUsePredictor, TaggedReg};
use regshare_isa::{ArchReg, DefSlot, HartId, Inst, RegClass, ShareHint, ShareHintTable};

mod audit;
mod types;

use types::{DstAction, PregMeta, Record, SpecDecision, SpecSource};

pub use audit::CorruptKind;

/// Register renaming with physical register sharing — the paper's proposed
/// scheme.
///
/// On every rename the scheme:
///
/// 1. Maps sources through the versioned map table; a source whose version
///    is no longer the register's current version reveals a **single-use
///    misprediction** and triggers the repair of §IV-D1 (a fresh register
///    plus an injected [`UopKind::RepairMove`] micro-op).
/// 2. Sets the PRT read bit of every source (the first-consumer detector).
/// 3. For the destination, searches the sources for a register that can be
///    **reused**: read bit previously clear (first consumer), same class,
///    a free shadow cell, and an unsaturated version counter. A source
///    that the instruction also redefines is a guaranteed-safe reuse; any
///    other qualifying source is a speculative reuse (the bank a register
///    was allocated in *is* the single-use prediction).
/// 4. Otherwise allocates from the bank chosen by the register type
///    predictor, falling back to the closest bank, or stalls when the
///    file is exhausted.
///
/// Physical registers are released when no rename-map entry references
/// them any more (tracked with a per-register mapping count, evaluated at
/// commit) — which reproduces conventional release-on-commit when no
/// sharing happens and release-on-rename semantics when it does (§IV-A3).
///
/// # Examples
///
/// See the crate-level example for the Fig. 4 chain.
#[derive(Debug, Clone)]
pub struct ReuseRenamer {
    t: RenameTables,
    prt: [Prt; 2],
    meta: [Vec<PregMeta>; 2],
    predictor: RegTypePredictor,
    single_use: SingleUsePredictor,
    /// One in-flight record stack per hardware thread: commits are in
    /// sequence order per thread, and a squash walks only the squashing
    /// thread's records. The PRT, free lists and predictors above are
    /// shared — reuse candidates are always the renaming thread's own
    /// sources, so a physical register never becomes reachable from two
    /// threads.
    records: Vec<CheckpointStack<Record>>,
    /// The program's static hint table (`None` until installed; an
    /// absent table behaves as all-`Unknown`).
    hints: Option<ShareHintTable>,
    hint_stats: HintStats,
    /// Reused squash-outcome storage: cleared and refilled by every
    /// `squash_after`, so steady-state squashes never allocate.
    squash: SquashOutcome,
}

impl ReuseRenamer {
    /// Creates a renamer with every logical register mapped to an initial
    /// physical register (allocated from the conventional bank first).
    ///
    /// # Panics
    ///
    /// Panics if a register file is not larger than the logical register
    /// count.
    pub fn new(config: RenamerConfig) -> Self {
        let max_version = config.max_version();
        let mut prt = [
            Prt::new(config.int_banks.total(), max_version),
            Prt::new(config.fp_banks.total(), max_version),
        ];
        let meta = [
            vec![PregMeta::default(); config.int_banks.total()],
            vec![PregMeta::default(); config.fp_banks.total()],
        ];
        let predictor = RegTypePredictor::new(config.predictor_entries, config.predictor_bits);
        let single_use = SingleUsePredictor::new(config.predictor_entries);
        let threads = config.threads;
        let t = RenameTables::new(config, |class, preg| {
            prt[class.index()].map_inc(preg);
        });
        ReuseRenamer {
            t,
            prt,
            meta,
            predictor,
            single_use,
            records: (0..threads).map(|_| CheckpointStack::new()).collect(),
            hints: None,
            hint_stats: HintStats::default(),
            squash: SquashOutcome::default(),
        }
    }

    /// The compiler's hint for the definition slot `(pc, slot)`;
    /// `Unknown` without an installed table.
    fn hint_at(&self, pc: u64, slot: DefSlot) -> ShareHint {
        self.hints
            .as_ref()
            .map_or(ShareHint::Unknown, |h| h.get(pc as usize, slot))
    }

    /// The current (speculative) rename map.
    pub fn map(&self) -> &MapTable {
        self.t.map()
    }

    /// The retirement (architectural) rename map.
    pub fn retire_map(&self) -> &MapTable {
        self.t.retire_map()
    }

    /// The Physical Register Table of one class.
    pub fn prt(&self, class: RegClass) -> &Prt {
        &self.prt[class.index()]
    }

    /// The register type predictor.
    pub fn predictor(&self) -> &RegTypePredictor {
        &self.predictor
    }

    fn shadow_cells(&self, class: RegClass, preg: PhysReg) -> u8 {
        self.t.config.banks(class).shadow_cells_of(preg)
    }

    fn alloc_preg(&mut self, class: RegClass, pc: u64, hint: ShareHint) -> Option<(PhysReg, u8)> {
        // Bank choice: the hint supplies the expected reuse count where
        // the policy lets it; otherwise the type predictor does. A
        // statically-banked register neither trains the predictor nor
        // counts in its Fig. 12 accounting — its release feedback goes
        // to `HintStats` instead.
        let static_bank = match self.t.config.hint_policy {
            HintPolicy::DynamicOnly => false,
            HintPolicy::StaticOnly => true,
            HintPolicy::Hybrid => hint.is_exact(),
        };
        let predicted = if static_bank {
            match hint {
                ShareHint::SingleUse => 1,
                _ => 0,
            }
        } else {
            self.predictor.predict(pc)
        };
        let preg = self.t.free[class.index()].alloc(predicted)?;
        let ci = class.index();
        self.prt[ci].reset_on_alloc(preg);
        self.prt[ci].map_inc(preg);
        let mut version_hints = [ShareHint::Unknown; 8];
        version_hints[0] = hint;
        self.meta[ci][preg.0 as usize] = PregMeta {
            entry: self.predictor.entry_index(pc),
            predicted,
            reuses: 0,
            multi_use: false,
            blocked: false,
            has_entry: !static_bank,
            static_bank,
            spec_entries: [None; 8],
            spec_static: [false; 8],
            version_hints,
        };
        if static_bank {
            self.hint_stats.static_allocs += 1;
        } else {
            self.hint_stats.dynamic_allocs += 1;
        }
        Some((preg, predicted))
    }

    fn release(&mut self, class: RegClass, preg: PhysReg) {
        let ci = class.index();
        self.t.free[ci].free(preg, self.t.config.banks(class));
        let meta = self.meta[ci][preg.0 as usize];
        self.t.stats.releases += 1;
        self.t.stats.chain_lengths.record(meta.reuses as u64);
        if meta.has_entry {
            self.predictor.on_release(
                meta.entry,
                meta.predicted,
                meta.reuses,
                meta.multi_use,
                meta.blocked,
            );
        } else if meta.static_bank {
            // Fig. 12 classification for a statically-banked register,
            // judged by the same rules the predictor applies to its own.
            let correct = if meta.predicted == 0 {
                !meta.blocked
            } else {
                meta.reuses == meta.predicted && !meta.multi_use
            };
            if correct {
                self.hint_stats.static_bank_correct += 1;
            } else {
                self.hint_stats.static_bank_incorrect += 1;
            }
        }
        // Speculative reuses that survived to release were correct:
        // reinforce dynamically-predicted consumers, and credit each
        // grant to its source.
        if !meta.multi_use {
            for (v, entry) in meta.spec_entries.iter().enumerate() {
                if let Some(e) = entry {
                    self.single_use.on_correct(*e as usize);
                    self.hint_stats.dynamic_correct += 1;
                } else if meta.spec_static[v] {
                    self.hint_stats.static_correct += 1;
                }
            }
        }
    }

    /// Undoes one record's rename effects (shared by squash and the
    /// stall rollback path). Appends recover candidates.
    fn undo_record(&mut self, h: usize, record: Record, recovers: &mut Vec<TaggedReg>) {
        self.undo_dst_action(h, record.dst2, recovers);
        self.undo_dst_action(h, record.dst, recovers);
        for &(class, preg, prev) in record.read_marks.iter().rev() {
            self.prt[class.index()].set_read(preg, prev);
        }
    }

    /// Whether a *non-redefining* first consumer may take a speculative
    /// reuse of `src`, and on whose authority. Pure decision logic: the
    /// caller records any statistics once the rename is known to succeed.
    fn speculation_decision(&self, pc: u64, src: TaggedReg) -> SpecDecision {
        if !self.t.config.speculative_reuse {
            return SpecDecision::Deny;
        }
        let hint =
            self.meta[src.class.index()][src.preg.0 as usize].version_hints[src.version as usize];
        let dynamic = || {
            if self.single_use.predict(pc) {
                SpecDecision::Grant(SpecSource::Dynamic)
            } else {
                SpecDecision::Deny
            }
        };
        match self.t.config.hint_policy {
            HintPolicy::DynamicOnly => dynamic(),
            HintPolicy::StaticOnly => match hint {
                ShareHint::SingleUse => SpecDecision::Grant(SpecSource::Static),
                ShareHint::NoReuse | ShareHint::Multi => SpecDecision::DenyStatic,
                ShareHint::Unknown => SpecDecision::Deny,
            },
            HintPolicy::Hybrid => match hint {
                ShareHint::SingleUse => SpecDecision::Grant(SpecSource::Static),
                ShareHint::NoReuse | ShareHint::Multi => SpecDecision::DenyStatic,
                ShareHint::Unknown => dynamic(),
            },
        }
    }

    fn undo_dst_action(&mut self, h: usize, action: DstAction, recovers: &mut Vec<TaggedReg>) {
        match action {
            DstAction::None => {}
            DstAction::Alloc {
                logical,
                old_map,
                new_map,
            } => {
                self.t.maps[h].set(logical, old_map);
                let ci = new_map.class.index();
                let remaining = self.prt[ci].map_dec(new_map.preg);
                debug_assert_eq!(remaining, 0, "squashed fresh allocation still referenced");
                self.t.free[ci].free(new_map.preg, self.t.config.banks(new_map.class));
            }
            DstAction::Reuse {
                logical,
                old_map,
                new_map,
                prev_version,
            } => {
                self.t.maps[h].set(logical, old_map);
                let ci = new_map.class.index();
                // The read bit was true immediately before the bump (this
                // micro-op was the first consumer and marked it); the
                // read-mark undo below restores the pre-rename value.
                self.prt[ci].rollback(new_map.preg, prev_version, true);
                self.prt[ci].map_dec(new_map.preg);
                let m = &mut self.meta[ci][new_map.preg.0 as usize];
                m.reuses = m.reuses.saturating_sub(1);
                m.spec_entries[new_map.version as usize] = None;
                m.spec_static[new_map.version as usize] = false;
                m.version_hints[new_map.version as usize] = ShareHint::Unknown;
                // One recover command per register; walking youngest to
                // oldest, the last write leaves the oldest (final)
                // restored version in place.
                match recovers
                    .iter_mut()
                    .find(|t| t.class == new_map.class && t.preg == new_map.preg)
                {
                    Some(t) => t.version = prev_version,
                    None => {
                        recovers.push(TaggedReg::new(new_map.class, new_map.preg, prev_version))
                    }
                }
            }
        }
    }
}

impl Renamer for ReuseRenamer {
    fn threads(&self) -> usize {
        self.t.threads()
    }

    fn rename_on(&mut self, hart: HartId, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        let h = hart.index();
        let mut uops = UopVec::new();
        // Repair records staged in Phase A (one per repaired source); the
        // main record is built at the end. Inline — renaming must never
        // allocate.
        let mut staged: [Option<Record>; 3] = [None; 3];
        let mut n_staged = 0;
        let mut next_seq = seq;
        let mut src_tags: [Option<TaggedReg>; 3] = [None; 3];
        // Logical registers repaired in this rename (handles a register
        // appearing in several operand slots). At most one entry per
        // source slot, so a linear scan beats any map.
        let mut repaired: [Option<(ArchReg, TaggedReg)>; 3] = [None; 3];
        let mut n_repaired = 0;
        let mut stall = false;
        // Predictor learning is deferred until the rename is known to
        // succeed: a stalled rename retries every cycle and must not pump
        // the predictors with duplicate events.
        #[derive(Clone, Copy)]
        enum Learn {
            MultiUse {
                class: RegClass,
                preg: PhysReg,
                stale_version: u8,
            },
            Blocked {
                class: RegClass,
                preg: PhysReg,
            },
        }
        // At most one MultiUse per source slot (3), one Blocked per
        // Phase-C candidate (3), one Blocked from Phase D.
        let mut learn: [Option<Learn>; 7] = [None; 7];
        let mut n_learn = 0;

        // Phase A: map sources; repair stale (mispredicted single-use)
        // mappings with injected move micro-ops (§IV-D1).
        for (slot, raw) in src_tags.iter_mut().zip(inst.raw_sources()) {
            let Some(r) = raw.filter(|r| !r.is_zero()) else {
                continue;
            };
            if let Some((_, t)) = repaired.iter().flatten().find(|(a, _)| *a == r) {
                *slot = Some(*t);
                continue;
            }
            let t = self.t.maps[h].get(r);
            let ci = t.class.index();
            if self.prt[ci].entry(t.preg).counter == t.version {
                *slot = Some(t);
                continue;
            }
            // Stale mapping: the register was reused by another logical
            // register, yet the value is being read again. Repair moves
            // have no compiler-visible definition site, so no hint.
            let Some((pn, _)) = self.alloc_preg(t.class, pc, ShareHint::Unknown) else {
                stall = true;
                break;
            };
            let new_tag = TaggedReg::new(t.class, pn, 0);
            let old = self.t.maps[h].set(r, new_tag);
            debug_assert_eq!(old, t);
            // The register was not single-use after all: predictor rule 2,
            // and the consumer whose speculative reuse overwrote version
            // `t.version` mispredicted (learning applied on success).
            learn[n_learn] = Some(Learn::MultiUse {
                class: t.class,
                preg: t.preg,
                stale_version: t.version,
            });
            n_learn += 1;
            staged[n_staged] = Some(Record {
                seq: next_seq,
                read_marks: ReadMarks::EMPTY,
                dst: DstAction::Alloc {
                    logical: r,
                    old_map: t,
                    new_map: new_tag,
                },
                dst2: DstAction::None,
            });
            n_staged += 1;
            uops.push(Uop {
                seq: next_seq,
                kind: UopKind::RepairMove,
                srcs: [Some(t), None, None],
                dst: Some(new_tag),
                dst2: None,
            });
            next_seq += 1;
            repaired[n_repaired] = Some((r, new_tag));
            n_repaired += 1;
            *slot = Some(new_tag);
        }

        // Phase B: set read bits for the main micro-op's sources.
        // `read_marks` doubles as this rename's previous-read-bit lookup
        // (at most one entry per source slot).
        let mut read_marks = ReadMarks::EMPTY;
        if !stall {
            for t in src_tags.iter().flatten() {
                if read_marks.prev_read(t.class, t.preg).is_some() {
                    continue;
                }
                let prev = self.prt[t.class.index()].mark_read(t.preg);
                read_marks.push(t.class, t.preg, prev);
            }
        }

        // The rename tag of a logical source register (all operand slots
        // carrying the same register hold the same tag after Phase A).
        let src_tag_of = |tags: &[Option<TaggedReg>; 3], r: ArchReg| -> Option<TaggedReg> {
            inst.raw_sources()
                .iter()
                .position(|s| *s == Some(r))
                .and_then(|i| tags[i])
        };

        // Phase C: destination — reuse or allocate.
        let mut dst_action = DstAction::None;
        if !stall {
            if let Some(dl) = inst.dst() {
                let class = dl.class();
                let mut chosen: Option<(TaggedReg, bool, Option<SpecSource>)> = None;
                // Registers already weighed as reuse candidates: two
                // logical sources may share a physical register, and the
                // decision must be taken once per physical register.
                let mut considered: [Option<PhysReg>; 3] = [None; 3];
                let mut n_considered = 0;
                for r in inst.uses() {
                    let Some(t) = src_tag_of(&src_tags, r) else {
                        continue;
                    };
                    if t.class != class {
                        continue;
                    }
                    if inst.dst2() == Some(r) {
                        // The written-back base register belongs to the
                        // second destination's reuse decision.
                        continue;
                    }
                    if considered.iter().flatten().any(|p| *p == t.preg) {
                        continue;
                    }
                    considered[n_considered] = Some(t.preg);
                    n_considered += 1;
                    let first_use = !read_marks.prev_read(t.class, t.preg).unwrap_or(true);
                    if !first_use {
                        continue;
                    }
                    let redefining = r == dl;
                    // A redefining first consumer is also the provably
                    // last one; any other first consumer needs a grant —
                    // a static `SingleUse` proof or the single-use
                    // predictor, per the hint policy (§IV-A2) — and is
                    // excluded entirely in the safe-only ablation.
                    let mut spec_source = None;
                    if !redefining {
                        match self.speculation_decision(pc, t) {
                            SpecDecision::Grant(s) => spec_source = Some(s),
                            SpecDecision::DenyStatic => {
                                self.hint_stats.static_denials += 1;
                                continue;
                            }
                            SpecDecision::Deny => continue,
                        }
                    }
                    let cells = self.shadow_cells(class, t.preg);
                    let capacity = t.version < cells && self.prt[class.index()].can_bump(t.preg);
                    if capacity {
                        match chosen {
                            // A redefining source is preferred: it is a
                            // guaranteed-safe reuse.
                            Some((_, true, _)) => {}
                            Some(_) if !redefining => {}
                            _ => chosen = Some((t, redefining, spec_source)),
                        }
                    } else {
                        // A reuse we wanted but could not take: predictor
                        // rule 3, and the "lost opportunity" class of
                        // Fig. 12 (learning applied on success).
                        learn[n_learn] = Some(Learn::Blocked {
                            class,
                            preg: t.preg,
                        });
                        n_learn += 1;
                    }
                }
                if let Some((t, redefining, spec_source)) = chosen {
                    let ci = class.index();
                    let newv = self.prt[ci].bump(t.preg);
                    self.prt[ci].map_inc(t.preg);
                    let new_map = TaggedReg::new(class, t.preg, newv);
                    let old_map = self.t.maps[h].set(dl, new_map);
                    let dst_hint = self.hint_at(pc, DefSlot::Primary);
                    let su_entry = self.single_use.entry_index(pc) as u32;
                    let m = &mut self.meta[ci][t.preg.0 as usize];
                    m.reuses += 1;
                    m.version_hints[newv as usize] = dst_hint;
                    match spec_source {
                        None => {}
                        Some(SpecSource::Dynamic) => {
                            m.spec_entries[newv as usize] = Some(su_entry);
                            self.hint_stats.dynamic_speculations += 1;
                        }
                        Some(SpecSource::Static) => {
                            m.spec_static[newv as usize] = true;
                            self.hint_stats.static_speculations += 1;
                        }
                    }
                    self.t.stats.reuses += 1;
                    if redefining {
                        self.t.stats.safe_reuses += 1;
                    } else {
                        self.t.stats.speculative_reuses += 1;
                    }
                    dst_action = DstAction::Reuse {
                        logical: dl,
                        old_map,
                        new_map,
                        prev_version: t.version,
                    };
                } else {
                    match self.alloc_preg(class, pc, self.hint_at(pc, DefSlot::Primary)) {
                        Some((preg, _)) => {
                            let new_map = TaggedReg::new(class, preg, 0);
                            let old_map = self.t.maps[h].set(dl, new_map);
                            self.t.stats.allocations += 1;
                            dst_action = DstAction::Alloc {
                                logical: dl,
                                old_map,
                                new_map,
                            };
                        }
                        None => stall = true,
                    }
                }
            }
        }

        // Phase D: the written-back base register of post-increment
        // memory operations. By construction the instruction is the
        // *redefining* consumer of the base, so this is a guaranteed-safe
        // reuse whenever the base value had no earlier consumer and the
        // register has shadow capacity.
        let mut dst2_action = DstAction::None;
        if !stall {
            if let Some(d2) = inst.dst2() {
                let class = d2.class();
                let base_tag =
                    src_tag_of(&src_tags, d2).expect("post-increment base is always a source");
                let first_use = !read_marks
                    .prev_read(base_tag.class, base_tag.preg)
                    .unwrap_or(true);
                let cells = self.shadow_cells(class, base_tag.preg);
                let capacity =
                    base_tag.version < cells && self.prt[class.index()].can_bump(base_tag.preg);
                if first_use && capacity {
                    let ci = class.index();
                    let newv = self.prt[ci].bump(base_tag.preg);
                    self.prt[ci].map_inc(base_tag.preg);
                    let new_map = TaggedReg::new(class, base_tag.preg, newv);
                    let old_map = self.t.maps[h].set(d2, new_map);
                    let wb_hint = self.hint_at(pc, DefSlot::Writeback);
                    let m = &mut self.meta[ci][base_tag.preg.0 as usize];
                    m.reuses += 1;
                    m.version_hints[newv as usize] = wb_hint;
                    self.t.stats.reuses += 1;
                    self.t.stats.safe_reuses += 1;
                    dst2_action = DstAction::Reuse {
                        logical: d2,
                        old_map,
                        new_map,
                        prev_version: base_tag.version,
                    };
                } else {
                    if first_use {
                        learn[n_learn] = Some(Learn::Blocked {
                            class,
                            preg: base_tag.preg,
                        });
                        n_learn += 1;
                    }
                    // The salted pc separates the writeback slot in the
                    // predictor tables; the hint table addresses slots
                    // directly, so the lookup uses the real pc.
                    match self.alloc_preg(
                        class,
                        pc ^ 0x8000_0000,
                        self.hint_at(pc, DefSlot::Writeback),
                    ) {
                        Some((preg, _)) => {
                            let new_map = TaggedReg::new(class, preg, 0);
                            let old_map = self.t.maps[h].set(d2, new_map);
                            self.t.stats.allocations += 1;
                            dst2_action = DstAction::Alloc {
                                logical: d2,
                                old_map,
                                new_map,
                            };
                        }
                        None => stall = true,
                    }
                }
            }
        }

        if stall {
            // Roll back everything staged in this rename, youngest first.
            // The recover candidates are discarded (nothing issued yet),
            // so borrow the persistent buffer as scratch.
            let mut scratch = std::mem::take(&mut self.squash.recovers);
            scratch.clear();
            self.undo_record(
                h,
                Record {
                    seq: next_seq,
                    read_marks,
                    dst: dst_action,
                    dst2: dst2_action,
                },
                &mut scratch,
            );
            for record in staged.into_iter().rev().flatten() {
                self.undo_record(h, record, &mut scratch);
            }
            scratch.clear();
            self.squash.recovers = scratch;
            self.t.stats.stalls += 1;
            return None;
        }

        // The rename succeeded: apply the deferred learning events.
        for event in learn.into_iter().take(n_learn).flatten() {
            match event {
                Learn::MultiUse {
                    class,
                    preg,
                    stale_version,
                } => {
                    let ci = class.index();
                    let victim = self.meta[ci][preg.0 as usize];
                    if victim.has_entry {
                        self.predictor.on_multi_use(victim.entry);
                    }
                    // The overwriting version reveals who granted the bad
                    // speculation: a static proof (the repair is charged
                    // to the compiler, nothing to train) or the dynamic
                    // predictor (corrected).
                    let vi = stale_version as usize + 1;
                    if victim.spec_static.get(vi).copied().unwrap_or(false) {
                        self.hint_stats.static_repaired += 1;
                    } else if let Some(Some(e)) = victim.spec_entries.get(vi) {
                        self.single_use.on_wrong(*e as usize);
                        self.hint_stats.dynamic_repaired += 1;
                    }
                    self.meta[ci][preg.0 as usize].multi_use = true;
                    self.t.stats.repairs += 1;
                }
                Learn::Blocked { class, preg } => {
                    let ci = class.index();
                    let m = self.meta[ci][preg.0 as usize];
                    if m.has_entry {
                        self.predictor.on_blocked_reuse(m.entry);
                    }
                    self.meta[ci][preg.0 as usize].blocked = true;
                    self.t.stats.blocked_reuses += 1;
                }
            }
        }
        let tag_of = |a: &DstAction| match a {
            DstAction::None => None,
            DstAction::Alloc { new_map, .. } | DstAction::Reuse { new_map, .. } => Some(*new_map),
        };
        let dst_tag = tag_of(&dst_action);
        let dst2_tag = tag_of(&dst2_action);
        uops.push(Uop {
            seq: next_seq,
            kind: UopKind::Main,
            srcs: src_tags,
            dst: dst_tag,
            dst2: dst2_tag,
        });
        self.t.stats.renamed += uops.len() as u64;
        self.records[h].extend(staged.into_iter().flatten());
        self.records[h].push(Record {
            seq: next_seq,
            read_marks,
            dst: dst_action,
            dst2: dst2_action,
        });
        Some(uops)
    }

    fn commit_on(&mut self, hart: HartId, seq: u64) {
        let h = hart.index();
        let record = self.records[h].commit_front(seq);
        for action in [record.dst, record.dst2] {
            match action {
                DstAction::None => {}
                DstAction::Alloc {
                    logical,
                    old_map,
                    new_map,
                }
                | DstAction::Reuse {
                    logical,
                    old_map,
                    new_map,
                    ..
                } => {
                    let ci = old_map.class.index();
                    if self.prt[ci].map_dec(old_map.preg) == 0 {
                        self.release(old_map.class, old_map.preg);
                    }
                    self.t.retire_maps[h].set(logical, new_map);
                }
            }
        }
    }

    fn squash_after_on(&mut self, hart: HartId, seq: u64) -> &SquashOutcome {
        let h = hart.index();
        let mut recovers = std::mem::take(&mut self.squash.recovers);
        recovers.clear();
        let mut undone = 0;
        while let Some(record) = self.records[h].pop_younger(seq) {
            self.undo_record(h, record, &mut recovers);
            undone += 1;
            self.t.stats.squashed += 1;
        }
        self.squash = SquashOutcome { undone, recovers };
        &self.squash
    }

    fn stats(&self) -> &RenameStats {
        &self.t.stats
    }

    fn free_regs(&self, class: RegClass) -> usize {
        self.t.free_regs(class)
    }

    fn in_use_per_bank(&self, class: RegClass) -> Vec<usize> {
        self.t.in_use_per_bank(class)
    }

    fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        self.t.in_use_per_bank_into(class, out);
    }

    fn allocated_total(&self, class: RegClass) -> usize {
        self.t.allocated_total(class)
    }

    fn banks(&self, class: RegClass) -> &BankConfig {
        self.t.banks(class)
    }

    fn max_version(&self) -> u8 {
        self.t.max_version()
    }

    fn predictor_stats(&self) -> crate::PredictorStats {
        *self.predictor.stats()
    }

    fn audit(&self) -> Result<(), String> {
        self.audit_invariants()
    }

    fn arch_map_on(&self, hart: HartId) -> Option<&MapTable> {
        Some(&self.t.retire_maps[hart.index()])
    }

    fn install_predictors(
        &mut self,
        predictor: &RegTypePredictor,
        single_use: &SingleUsePredictor,
    ) {
        self.predictor = predictor.clone();
        self.predictor.reset_stats();
        self.single_use = single_use.clone();
        self.hint_stats = HintStats::default();
    }

    fn install_hints(&mut self, hints: &ShareHintTable) {
        self.hints = Some(hints.clone());
    }

    fn hint_stats(&self) -> HintStats {
        self.hint_stats
    }
}
