//! Worklist dataflow framework plus the concrete analyses the classifier
//! and linter consume: liveness, reaching definitions (def-use chains),
//! maybe-uninitialized registers, and the per-register consumer-count
//! analysis behind the static sharing bounds.

use crate::cfg::Cfg;
use crate::regset::{reg_bit, RegSet, NUM_REGS};
use regshare_isa::{ArchReg, DefSlot, Inst};

/// A distributive analysis over basic blocks.
///
/// The solvers ([`solve_forward`], [`solve_backward`]) run the classic
/// worklist iteration: facts start at the analysis' most optimistic value
/// ([`Analysis::top`]), block inputs join facts flowing along CFG edges,
/// and blocks are re-evaluated until nothing changes. Termination follows
/// from finite fact lattices and monotone transfer functions — every
/// analysis in this module saturates its counters.
pub trait Analysis {
    /// The fact attached to each program point.
    type Fact: Clone + PartialEq;

    /// The most optimistic fact (identity of [`Analysis::join`]); every
    /// block boundary starts here.
    fn top(&self) -> Self::Fact;

    /// The fact at the program boundary: entry (forward analyses) or
    /// exit, i.e. `halt` / fall-off (backward analyses).
    fn boundary(&self) -> Self::Fact;

    /// Combines facts arriving over multiple CFG edges.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact);

    /// Transfers a fact across one instruction, in the analysis
    /// direction (the solver feeds instructions in the right order).
    fn transfer(&self, pc: usize, inst: &Inst, fact: &mut Self::Fact);

    /// Backward analyses only: treat block `b` as flowing the boundary
    /// fact in addition to its successors. The default covers blocks
    /// from which execution can leave the program directly; *must*
    /// analyses (like the minimum consumer count) override this to also
    /// pin blocks that can never reach an exit, which would otherwise
    /// keep the unsound optimistic `top`.
    fn is_virtual_exit(&self, cfg: &Cfg, b: usize) -> bool {
        let block = &cfg.blocks()[b];
        block.halts || block.falls_off
    }
}

/// Per-block input/output facts produced by a solver. For a forward
/// analysis `input` holds the fact before `start` and `output` after
/// `end`; for a backward analysis `input` is the fact *after* the block's
/// last instruction and `output` the fact before `start`.
#[derive(Debug, Clone)]
pub struct BlockFacts<F> {
    /// Fact flowing into each block (in analysis direction).
    pub input: Vec<F>,
    /// Fact flowing out of each block (in analysis direction).
    pub output: Vec<F>,
}

/// Solves a forward analysis to fixpoint.
pub fn solve_forward<A: Analysis>(cfg: &Cfg, insts: &[Inst], a: &A) -> BlockFacts<A::Fact> {
    let n = cfg.blocks().len();
    let mut input = vec![a.top(); n];
    let mut output = vec![a.top(); n];
    input[cfg.entry_block()] = a.boundary();
    let mut work: Vec<usize> = cfg.reverse_postorder();
    let mut queued = vec![false; n];
    for &b in &work {
        queued[b] = true;
    }
    work.reverse(); // treat as a stack: pop from the back in RPO order
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut fact = if b == cfg.entry_block() {
            a.boundary()
        } else {
            a.top()
        };
        for &p in &cfg.blocks()[b].preds {
            a.join(&mut fact, &output[p]);
        }
        input[b] = fact.clone();
        let block = &cfg.blocks()[b];
        for (off, inst) in insts[block.start..block.end].iter().enumerate() {
            a.transfer(block.start + off, inst, &mut fact);
        }
        if fact != output[b] {
            output[b] = fact;
            for &s in &cfg.blocks()[b].succs {
                if !queued[s] {
                    queued[s] = true;
                    work.push(s);
                }
            }
        }
    }
    BlockFacts { input, output }
}

/// Solves a backward analysis to fixpoint.
pub fn solve_backward<A: Analysis>(cfg: &Cfg, insts: &[Inst], a: &A) -> BlockFacts<A::Fact> {
    let n = cfg.blocks().len();
    let mut input = vec![a.top(); n];
    let mut output = vec![a.top(); n];
    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut fact = a.top();
        if a.is_virtual_exit(cfg, b) {
            a.join(&mut fact, &a.boundary());
        }
        for &s in &cfg.blocks()[b].succs {
            a.join(&mut fact, &output[s]);
        }
        input[b] = fact.clone();
        for pc in (cfg.blocks()[b].start..cfg.blocks()[b].end).rev() {
            a.transfer(pc, &insts[pc], &mut fact);
        }
        if fact != output[b] {
            output[b] = fact;
            for &p in &cfg.blocks()[b].preds {
                if !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
        }
    }
    BlockFacts { input, output }
}

// ------------------------------------------------------------- liveness

/// Classic backward liveness: which registers may be read before being
/// redefined.
pub struct Liveness;

impl Analysis for Liveness {
    type Fact = RegSet;

    fn top(&self) -> RegSet {
        RegSet::EMPTY
    }

    fn boundary(&self) -> RegSet {
        RegSet::EMPTY
    }

    fn join(&self, into: &mut RegSet, other: &RegSet) {
        *into = into.union(*other);
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut RegSet) {
        for (_, d) in inst.defs() {
            fact.remove(d);
        }
        for u in inst.uses() {
            fact.insert(u);
        }
    }
}

/// Computes live-in / live-out per block.
pub fn liveness(cfg: &Cfg, insts: &[Inst]) -> BlockFacts<RegSet> {
    solve_backward(cfg, insts, &Liveness)
}

// ------------------------------------------------- maybe-uninitialized

/// Forward may-analysis of registers possibly read before any write on
/// some path from the entry. The machine zero-initializes its register
/// files, so a hit is a lint finding rather than undefined behavior.
pub struct MaybeUninit;

impl Analysis for MaybeUninit {
    type Fact = RegSet;

    fn top(&self) -> RegSet {
        RegSet::EMPTY
    }

    fn boundary(&self) -> RegSet {
        // Every register starts unwritten at the entry. The zero
        // register's bit is included but harmless: no `uses()` ever
        // yields it.
        RegSet::ALL
    }

    fn join(&self, into: &mut RegSet, other: &RegSet) {
        *into = into.union(*other);
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut RegSet) {
        // Uses are observed by the linter separately; the transfer only
        // kills definedness.
        for (_, d) in inst.defs() {
            fact.remove(d);
        }
    }
}

/// For every reachable instruction, the registers it reads that may
/// still be unwritten, as `(pc, reg)` pairs in program order.
pub fn uninit_reads(cfg: &Cfg, insts: &[Inst]) -> Vec<(usize, ArchReg)> {
    let facts = solve_forward(cfg, insts, &MaybeUninit);
    let mut hits = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut fact = facts.input[b];
        for (off, inst) in insts[block.start..block.end].iter().enumerate() {
            let pc = block.start + off;
            for u in inst.uses() {
                if fact.contains(u) {
                    hits.push((pc, u));
                }
            }
            MaybeUninit.transfer(pc, inst, &mut fact);
        }
    }
    hits.sort_unstable();
    hits
}

// ------------------------------------------------ reaching definitions

/// A static definition site: an instruction and the destination slot it
/// writes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Instruction index of the defining instruction.
    pub pc: usize,
    /// Which destination slot produces the value.
    pub slot: DefSlot,
    /// The defined architectural register.
    pub reg: ArchReg,
}

/// A set of definition sites, one bit per site id.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSet(Vec<u64>);

impl SiteSet {
    fn empty(n: usize) -> Self {
        SiteSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, id: usize) {
        self.0[id / 64] |= 1 << (id % 64);
    }

    fn remove_all(&mut self, ids: &[usize]) {
        for &id in ids {
            self.0[id / 64] &= !(1 << (id % 64));
        }
    }

    fn union(&mut self, other: &SiteSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    /// Iterates the member ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Reaching definitions and the static def-use chains they induce.
pub struct DefUse {
    /// Every definition site in the program, in `(pc, slot)` order.
    pub sites: Vec<DefSite>,
    /// For each site id: the instruction indices (reachable ones only)
    /// that may consume the value, in program order.
    pub consumers: Vec<Vec<usize>>,
    /// For each reachable use `(pc, reg)`, the site ids that may reach
    /// it, in site order.
    pub reaching: Vec<((usize, ArchReg), Vec<usize>)>,
}

struct ReachingDefs<'a> {
    num_sites: usize,
    /// Site ids defined by each instruction.
    sites_at: &'a [Vec<usize>],
    /// For each register bit: the ids of all sites defining it (the kill
    /// set of a definition).
    sites_of_reg: &'a [Vec<usize>; NUM_REGS],
    insts_len: usize,
}

impl Analysis for ReachingDefs<'_> {
    type Fact = SiteSet;

    fn top(&self) -> SiteSet {
        SiteSet::empty(self.num_sites)
    }

    fn boundary(&self) -> SiteSet {
        SiteSet::empty(self.num_sites)
    }

    fn join(&self, into: &mut SiteSet, other: &SiteSet) {
        into.union(other);
    }

    fn transfer(&self, pc: usize, inst: &Inst, fact: &mut SiteSet) {
        debug_assert!(pc < self.insts_len);
        for (_, d) in inst.defs() {
            fact.remove_all(&self.sites_of_reg[reg_bit(d)]);
        }
        for &id in &self.sites_at[pc] {
            fact.insert(id);
        }
    }
}

/// Computes reaching definitions and derives static def-use chains over
/// the reachable part of the program.
pub fn def_use(cfg: &Cfg, insts: &[Inst]) -> DefUse {
    let mut sites: Vec<DefSite> = Vec::new();
    let mut sites_at: Vec<Vec<usize>> = vec![Vec::new(); insts.len()];
    let mut sites_of_reg: [Vec<usize>; NUM_REGS] = std::array::from_fn(|_| Vec::new());
    for (pc, inst) in insts.iter().enumerate() {
        for (slot, reg) in inst.defs() {
            let id = sites.len();
            sites.push(DefSite { pc, slot, reg });
            sites_at[pc].push(id);
            sites_of_reg[reg_bit(reg)].push(id);
        }
    }
    let analysis = ReachingDefs {
        num_sites: sites.len(),
        sites_at: &sites_at,
        sites_of_reg: &sites_of_reg,
        insts_len: insts.len(),
    };
    let facts = solve_forward(cfg, insts, &analysis);
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); sites.len()];
    let mut reaching: Vec<((usize, ArchReg), Vec<usize>)> = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut fact = facts.input[b].clone();
        for (off, inst) in insts[block.start..block.end].iter().enumerate() {
            let pc = block.start + off;
            for u in inst.uses() {
                let ids: Vec<usize> = fact.iter().filter(|&id| sites[id].reg == u).collect();
                for &id in &ids {
                    consumers[id].push(pc);
                }
                reaching.push(((pc, u), ids));
            }
            analysis.transfer(pc, inst, &mut fact);
        }
    }
    for c in &mut consumers {
        c.sort_unstable();
        c.dedup();
    }
    reaching.sort_unstable_by_key(|(k, _)| *k);
    DefUse {
        sites,
        consumers,
        reaching,
    }
}

// ------------------------------------------- consumer-count analysis

/// Minimum consumer count saturation: 2 proves "never exactly one".
pub const MIN_SAT: u8 = 2;
/// Maximum consumer count saturation, matching the paper's Fig. 2 "6+"
/// histogram bucket.
pub const MAX_SAT: u8 = 7;
/// Optimistic (`top`) value of the minimum component before any path
/// has been observed.
pub const MIN_UNKNOWN: u8 = u8::MAX;

/// Per-register consumer-count bounds at a program point: how many times
/// the register's *current value* will be read before being overwritten,
/// over all paths to program exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCount {
    /// Fewest future reads over any path (saturating at [`MIN_SAT`];
    /// [`MIN_UNKNOWN`] until a path is observed).
    pub min: u8,
    /// Most future reads over any path (saturating at [`MAX_SAT`]).
    pub max: u8,
    /// Every first future read of the value is by an instruction that
    /// also redefines the register (the guaranteed-safe reuse shape).
    pub redefining: bool,
}

/// The consumer-count fact: one [`RegCount`] per register bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountFact(pub [RegCount; NUM_REGS]);

/// Backward analysis computing [`CountFact`]s. Must/may components are
/// solved simultaneously: `min` descends from [`MIN_UNKNOWN`] (a must
/// analysis), `max` ascends from 0 (a may analysis), `redefining`
/// descends from `true`. Blocks that cannot reach the program exit are
/// treated as virtual exits so the must components stay sound (a value
/// consumed once before entering an endless loop must not be classified
/// as multi-consumer).
pub struct UseCounts;

impl Analysis for UseCounts {
    type Fact = CountFact;

    fn top(&self) -> CountFact {
        CountFact(
            [RegCount {
                min: MIN_UNKNOWN,
                max: 0,
                redefining: true,
            }; NUM_REGS],
        )
    }

    fn boundary(&self) -> CountFact {
        CountFact(
            [RegCount {
                min: 0,
                max: 0,
                redefining: true,
            }; NUM_REGS],
        )
    }

    fn join(&self, into: &mut CountFact, other: &CountFact) {
        for (a, b) in into.0.iter_mut().zip(&other.0) {
            a.min = a.min.min(b.min);
            a.max = a.max.max(b.max);
            a.redefining &= b.redefining;
        }
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut CountFact) {
        let mut defines = RegSet::EMPTY;
        for (_, d) in inst.defs() {
            defines.insert(d);
        }
        for u in inst.uses() {
            let c = &mut fact.0[reg_bit(u)];
            let redefined = defines.contains(u);
            // This instruction reads the current value; counts restart
            // behind a redefinition, otherwise accumulate saturating.
            if redefined {
                *c = RegCount {
                    min: 1,
                    max: 1,
                    redefining: true,
                };
            } else {
                c.min = if c.min == MIN_UNKNOWN {
                    MIN_UNKNOWN
                } else {
                    (c.min + 1).min(MIN_SAT)
                };
                c.max = (c.max + 1).min(MAX_SAT);
                c.redefining = false;
            }
        }
        for d in defines.iter() {
            if inst.uses().any(|u| u == d) {
                continue; // handled above: read then redefined
            }
            fact.0[reg_bit(d)] = RegCount {
                min: 0,
                max: 0,
                redefining: true,
            };
        }
    }
}

impl Analysis for UseCountsWithPin<'_> {
    type Fact = CountFact;

    fn top(&self) -> CountFact {
        UseCounts.top()
    }

    fn boundary(&self) -> CountFact {
        UseCounts.boundary()
    }

    fn join(&self, into: &mut CountFact, other: &CountFact) {
        UseCounts.join(into, other)
    }

    fn transfer(&self, pc: usize, inst: &Inst, fact: &mut CountFact) {
        UseCounts.transfer(pc, inst, fact)
    }

    fn is_virtual_exit(&self, cfg: &Cfg, b: usize) -> bool {
        let block = &cfg.blocks()[b];
        block.halts || block.falls_off || !cfg.can_reach_exit(b)
    }
}

/// [`UseCounts`] with the no-exit pinning described on the type; used by
/// the classifier.
pub struct UseCountsWithPin<'a> {
    /// The CFG the pinning consults (kept for clarity; the solver passes
    /// the same one).
    pub cfg: &'a Cfg,
}

/// Solves the pinned consumer-count analysis the classifier uses.
pub fn use_counts_pinned(cfg: &Cfg, insts: &[Inst]) -> BlockFacts<CountFact> {
    solve_backward(cfg, insts, &UseCountsWithPin { cfg })
}

// ------------------------------------ loop-split consumer counts

/// The `top` (vacuous, join-identity) per-register count.
pub const TOP_COUNT: RegCount = RegCount {
    min: MIN_UNKNOWN,
    max: 0,
    redefining: true,
};

/// [`CountFact`] split by loop context. `exit` bounds the consumer
/// count over futures in which the value dies (is redefined, or the
/// program exits) without ever crossing a loop back edge — the
/// final-iteration context. `carried` bounds futures whose value stays
/// live across at least one back edge — the loop-carried context. The
/// two components partition every real future exactly, which is what
/// lets the classifier prove facts like "never exactly one consumer"
/// (`exit` shows zero, `carried` shows at least two) that the joined
/// [`UseCounts`] analysis saturates to `Unknown`. This is the backward
/// mirror of first-iteration peeling: instead of peeling the entry into
/// the loop, it peels the exit out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitFact {
    /// Bounds over futures that never cross a back edge.
    pub exit: CountFact,
    /// Bounds over futures that cross at least one back edge while the
    /// value is live.
    pub carried: CountFact,
}

impl SplitFact {
    fn top() -> SplitFact {
        SplitFact {
            exit: UseCounts.top(),
            carried: UseCounts.top(),
        }
    }
}

/// Transfers one instruction backward across a [`SplitFact`]. Reads
/// accumulate into both components (the instruction crosses no edge, so
/// a future's class is unchanged); a redefinition ends the value's
/// lifetime on the spot, so the whole count lands in the no-back-edge
/// `exit` component and `carried` resets to vacuous.
pub fn split_transfer(inst: &Inst, fact: &mut SplitFact) {
    fn bump(c: &mut RegCount) {
        c.min = if c.min == MIN_UNKNOWN {
            MIN_UNKNOWN
        } else {
            (c.min + 1).min(MIN_SAT)
        };
        c.max = (c.max + 1).min(MAX_SAT);
        c.redefining = false;
    }
    let mut defines = RegSet::EMPTY;
    for (_, d) in inst.defs() {
        defines.insert(d);
    }
    for u in inst.uses() {
        let bit = reg_bit(u);
        if defines.contains(u) {
            fact.exit.0[bit] = RegCount {
                min: 1,
                max: 1,
                redefining: true,
            };
            fact.carried.0[bit] = TOP_COUNT;
        } else {
            bump(&mut fact.exit.0[bit]);
            bump(&mut fact.carried.0[bit]);
        }
    }
    for d in defines.iter() {
        if inst.uses().any(|u| u == d) {
            continue; // read-then-redefine, handled above
        }
        fact.exit.0[reg_bit(d)] = RegCount {
            min: 0,
            max: 0,
            redefining: true,
        };
        fact.carried.0[reg_bit(d)] = TOP_COUNT;
    }
}

/// Solves the loop-split consumer-count analysis. The solver is the
/// standard backward worklist with one edge-aware twist: a fact flowing
/// backward over a detected back edge moves wholesale into the
/// `carried` component (whatever happens beyond that edge, the value
/// was live across it), while normal edges join componentwise. Exit
/// boundaries — real and the same no-exit pinning as
/// [`UseCountsWithPin`] — feed only the `exit` component: a dead value
/// crossed no further edges. Vacuous components are the join identity
/// (`min` stays [`MIN_UNKNOWN`], `max` stays 0), so an undetected back
/// edge or an unreachable context can only blur bounds toward
/// `Unknown`, never sharpen them.
pub fn use_counts_split(cfg: &Cfg, insts: &[Inst]) -> BlockFacts<SplitFact> {
    let n = cfg.blocks().len();
    let mut input = vec![SplitFact::top(); n];
    let mut output = vec![SplitFact::top(); n];
    let pin = UseCountsWithPin { cfg };
    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut fact = SplitFact::top();
        if pin.is_virtual_exit(cfg, b) {
            UseCounts.join(&mut fact.exit, &UseCounts.boundary());
        }
        for &s in &cfg.blocks()[b].succs {
            if cfg.is_back_edge(b, s) {
                let mut over = output[s].exit.clone();
                UseCounts.join(&mut over, &output[s].carried);
                UseCounts.join(&mut fact.carried, &over);
            } else {
                UseCounts.join(&mut fact.exit, &output[s].exit);
                UseCounts.join(&mut fact.carried, &output[s].carried);
            }
        }
        input[b] = fact.clone();
        for pc in (cfg.blocks()[b].start..cfg.blocks()[b].end).rev() {
            split_transfer(&insts[pc], &mut fact);
        }
        if fact != output[b] {
            output[b] = fact;
            for &p in &cfg.blocks()[b].preds {
                if !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
        }
    }
    BlockFacts { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Inst, Opcode};

    fn cfg_of(insts: &[Inst]) -> Cfg {
        Cfg::build(insts, 0)
    }

    #[test]
    fn liveness_across_a_branch() {
        // 0: li x1, 1
        // 1: beq x2, xzr, @3   (x2 live-in of the program)
        // 2: add x3, x1, x1
        // 3: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::branch(Opcode::Beq, reg::x(2), reg::zero(), 3),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::x(1)),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let live = liveness(&cfg, &insts);
        let entry = cfg.block_of(0);
        // x2 is read before any write: live into the entry block. x1 is
        // defined first, so not live-in.
        assert!(live.output[entry].contains(reg::x(2)));
        assert!(!live.output[entry].contains(reg::x(1)));
    }

    #[test]
    fn uninit_reads_found_and_ordered() {
        let insts = vec![
            Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3)),
            Inst::rri(Opcode::Addi, reg::x(4), reg::x(1), 1),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let hits = uninit_reads(&cfg, &insts);
        assert_eq!(hits, vec![(0, reg::x(2)), (0, reg::x(3))]);
    }

    #[test]
    fn uninit_read_on_one_path_only_is_still_flagged() {
        // 0: beq xzr, xzr, @2 ; 1: li x1, 5 ; 2: add x2, x1, xzr ; 3: halt
        // On the branch-taken path x1 is never written.
        let insts = vec![
            Inst::branch(Opcode::Beq, reg::zero(), reg::zero(), 2),
            Inst::ri(Opcode::Li, reg::x(1), 5),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let hits = uninit_reads(&cfg, &insts);
        assert_eq!(hits, vec![(2, reg::x(1))]);
    }

    #[test]
    fn def_use_chains_straight_line() {
        // 0: li x1, 1 ; 1: add x2, x1, x1 ; 2: add x3, x1, x2 ; 3: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::x(1)),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::x(2)),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let du = def_use(&cfg, &insts);
        assert_eq!(du.sites.len(), 3);
        let li = du.sites.iter().position(|s| s.pc == 0).unwrap();
        // x1's value is consumed by instructions 1 and 2 (once each,
        // duplicates deduplicated).
        assert_eq!(du.consumers[li], vec![1, 2]);
        let add2 = du.sites.iter().position(|s| s.pc == 1).unwrap();
        assert_eq!(du.consumers[add2], vec![2]);
    }

    #[test]
    fn reaching_defs_merge_at_join_points() {
        // 0: beq xzr, xzr, @2 ; 1: li x1, 1 ; 2: li x1, 2 — wait, make
        // two defs on distinct paths converging on one use.
        // 0: li x1, 1
        // 1: beq xzr, xzr, @3
        // 2: li x1, 2
        // 3: add x2, x1, xzr
        // 4: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::branch(Opcode::Beq, reg::zero(), reg::zero(), 3),
            Inst::ri(Opcode::Li, reg::x(1), 2),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let du = def_use(&cfg, &insts);
        let use_entry = du
            .reaching
            .iter()
            .find(|((pc, r), _)| *pc == 3 && *r == reg::x(1))
            .expect("use recorded");
        assert_eq!(use_entry.1.len(), 2, "both definitions reach the join");
    }

    #[test]
    fn use_counts_classify_straight_line() {
        // 0: li x1 ; 1: add x2, x1, xzr ; 2: add x3, x1, xzr ; 3: halt
        // After inst 0, x1 has exactly two future consumers.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_pinned(&cfg, &insts);
        // Single block: output = fact before inst 0; recompute the state
        // after inst 0 by transferring inst 1..end backward from the
        // block input.
        let b = cfg.block_of(0);
        let mut after0 = facts.input[b].clone();
        for pc in (1..insts.len()).rev() {
            UseCounts.transfer(pc, &insts[pc], &mut after0);
        }
        let c = after0.0[reg_bit(reg::x(1))];
        assert_eq!(c.min, 2);
        assert_eq!(c.max, 2);
        assert!(!c.redefining);
    }

    #[test]
    fn use_counts_pin_no_exit_loops() {
        // 0: li x1 ; 1: add x2, x1, xzr ; 2: jal @2  (endless loop)
        // x1 is consumed exactly once before the loop; without pinning
        // the must-min would stay unknown and claim multi-consumer.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::jal(None, 2),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_pinned(&cfg, &insts);
        let b = cfg.block_of(0);
        let c = facts.input[b].0[reg_bit(reg::x(1))];
        // Before the loop is entered the value has 1 known consumer and
        // the pinned exit keeps min at a sound value.
        let mut after0 = facts.input[b].clone();
        let _ = c;
        for pc in (1..2).rev() {
            UseCounts.transfer(pc, &insts[pc], &mut after0);
        }
        let c0 = after0.0[reg_bit(reg::x(1))];
        assert!(
            c0.min <= 1,
            "min must not claim multi-consumer, got {}",
            c0.min
        );
        assert_eq!(c0.max, 1);
    }

    #[test]
    fn split_counts_separate_exit_from_carried_context() {
        // Pointer-bump shape: x1 is bumped each iteration, read only by
        // the *next* iteration's load, never on the exit path.
        // 0: li x1, 0
        // 1: li x2, 4
        // 2: ld x3, [x1]        <- loop top
        // 3: addi x1, x1, 8     <- the bump: def under test
        // 4: subi x2, x2, 1
        // 5: bne x2, xzr, @2
        // 6: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load(Opcode::Ld, reg::x(3), reg::x(1), 0),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        // Replay the loop block backward to the point just after pc 3.
        let body = cfg.block_of(3);
        let mut f = facts.input[body].clone();
        for pc in (4..6).rev() {
            split_transfer(&insts[pc], &mut f);
        }
        let a = f.exit.0[reg_bit(reg::x(1))];
        let b = f.carried.0[reg_bit(reg::x(1))];
        // Exit context: the bumped pointer is never read again.
        assert_eq!((a.min, a.max), (0, 0));
        // Carried context: read by the next iteration's load, then by
        // the redefining bump — at least two consumers.
        assert!(b.min >= 2, "carried min {} should prove >=2", b.min);
    }

    #[test]
    fn split_counts_bound_post_increment_writeback() {
        // FldPost-style writeback consumed zero times on exit, once per
        // carried iteration (by the redefining next post-increment).
        // 0: li x1, 0 ; 1: li x2, 4
        // 2: ld.post x3, [x1], 8   <- writeback def under test
        // 3: subi x2, x2, 1
        // 4: bne x2, xzr, @2
        // 5: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load_post(Opcode::LdPost, reg::x(3), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        let body = cfg.block_of(2);
        let mut f = facts.input[body].clone();
        for pc in (3..5).rev() {
            split_transfer(&insts[pc], &mut f);
        }
        let a = f.exit.0[reg_bit(reg::x(1))];
        let b = f.carried.0[reg_bit(reg::x(1))];
        assert_eq!((a.min, a.max), (0, 0), "never read on the exit path");
        // Carried: exactly one read, and the reader (the next ld.post)
        // redefines the base — the overall bound is 0 or 1, never more.
        assert_eq!((b.min, b.max), (1, 1));
        assert!(b.redefining);
    }
}
