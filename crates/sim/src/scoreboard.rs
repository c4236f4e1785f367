//! Readiness tracking for versioned physical register tags, with the
//! issue queue's wakeup network built in.
//!
//! The scoreboard is the single source of truth for operand readiness
//! *and* the broadcast fabric of the event-driven scheduler: a dispatched
//! consumer whose source tag is busy registers its [`RobSlot`] handle as
//! a waiter on that tag ([`Scoreboard::watch`]), and the producer's
//! writeback ([`Scoreboard::set_ready`]) hands every waiting handle back
//! to the pipeline instead of forcing a per-cycle scan of the whole issue
//! queue. A squash unwatches exactly its own consumers
//! ([`Scoreboard::unwatch`]), so a flush costs O(squashed) rather than a
//! walk of every tag's list.

use crate::rob::RobSlot;
use regshare_core::TaggedReg;
use regshare_isa::RegClass;

/// Tracks which `(physical register, version)` tags have produced their
/// value — the wakeup state of the issue queue.
///
/// All tags start ready (architectural state exists at reset); a tag goes
/// busy when a producer is dispatched for it and ready again at the
/// producer's writeback.
///
/// Readiness is a flat bitset with one bit per `(register, version)`
/// slot, sized to the renaming scheme's actual version-counter width (a
/// 2-bit counter needs 4 slots per register, not a hardcoded maximum).
/// Out-of-range versions are rejected with a debug assertion.
///
/// # Examples
///
/// ```
/// use regshare_sim::{RobSlot, Scoreboard};
/// use regshare_core::{PhysReg, TaggedReg};
/// use regshare_isa::RegClass;
///
/// let mut sb = Scoreboard::new(16, 16, 4);
/// let t = TaggedReg::new(RegClass::Int, PhysReg(3), 1);
/// assert!(sb.is_ready(t));
/// sb.set_busy(t);
/// assert!(!sb.is_ready(t));
///
/// // A consumer waits on the busy tag; the producer's writeback
/// // broadcasts its handle back.
/// let consumer = RobSlot::new(0, 42);
/// sb.watch(t, consumer);
/// let mut woken = Vec::new();
/// sb.set_ready(t, &mut woken);
/// assert!(sb.is_ready(t));
/// assert_eq!(woken, [consumer]);
/// ```
#[derive(Debug, Clone)]
pub struct Scoreboard {
    /// One readiness bit per slot; slot = `preg * max_versions + version`.
    ready: [Vec<u64>; 2],
    /// Waiting consumer handles per slot. A consumer appears once per
    /// busy source occurrence (twice if both sources are the same busy
    /// tag), matching its not-ready counter in the pipeline.
    waiters: [Vec<Vec<RobSlot>>; 2],
    regs: [usize; 2],
    max_versions: usize,
}

impl Scoreboard {
    /// Creates a scoreboard for `int_regs`/`fp_regs` physical registers
    /// with `max_versions` version slots each, all ready.
    pub fn new(int_regs: usize, fp_regs: usize, max_versions: usize) -> Self {
        let max_versions = max_versions.max(1);
        let words = |regs: usize| vec![u64::MAX; (regs * max_versions).div_ceil(64)];
        Scoreboard {
            ready: [words(int_regs), words(fp_regs)],
            waiters: [
                vec![Vec::new(); int_regs * max_versions],
                vec![Vec::new(); fp_regs * max_versions],
            ],
            regs: [int_regs, fp_regs],
            max_versions,
        }
    }

    fn slot(&self, tag: TaggedReg) -> usize {
        debug_assert!(
            (tag.version as usize) < self.max_versions,
            "version {} of {:?} exceeds the configured counter width ({} versions)",
            tag.version,
            tag,
            self.max_versions,
        );
        tag.preg.0 as usize * self.max_versions + tag.version as usize
    }

    /// Marks a tag busy (producer dispatched, value not yet available).
    pub fn set_busy(&mut self, tag: TaggedReg) {
        let slot = self.slot(tag);
        debug_assert!(
            self.waiters[tag.class.index()][slot].is_empty(),
            "{tag:?} re-busied while consumers wait on it — the renamer \
             reallocated a tag with outstanding readers",
        );
        self.ready[tag.class.index()][slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Marks a tag ready (the producer wrote back) and appends every
    /// waiting consumer's handle to `woken`, in registration order.
    pub fn set_ready(&mut self, tag: TaggedReg, woken: &mut Vec<RobSlot>) {
        let slot = self.slot(tag);
        self.ready[tag.class.index()][slot / 64] |= 1u64 << (slot % 64);
        woken.append(&mut self.waiters[tag.class.index()][slot]);
    }

    /// Whether the tag's value is available.
    pub fn is_ready(&self, tag: TaggedReg) -> bool {
        let slot = self.slot(tag);
        self.ready[tag.class.index()][slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Registers consumer `h` to be woken when `tag` becomes ready.
    /// Must only be called for busy tags.
    pub fn watch(&mut self, tag: TaggedReg, h: RobSlot) {
        debug_assert!(!self.is_ready(tag), "watching an already-ready tag {tag:?}");
        let slot = self.slot(tag);
        self.waiters[tag.class.index()][slot].push(h);
    }

    /// Removes every registration of consumer `h` on `tag` (a squashed
    /// consumer parked twice on one tag drops both).
    pub fn unwatch(&mut self, tag: TaggedReg, h: RobSlot) {
        let slot = self.slot(tag);
        self.waiters[tag.class.index()][slot].retain(|w| *w != h);
    }

    /// Whether consumer `h` is waiting on at least one tag (deadlock
    /// diagnostics).
    pub fn has_waiter(&self, h: RobSlot) -> bool {
        self.waiters.iter().flatten().any(|slot| slot.contains(&h))
    }

    /// Every registration as `(tag, consumer)`, for the invariant audit.
    pub fn waiters(&self) -> impl Iterator<Item = (TaggedReg, RobSlot)> + '_ {
        let versions = self.max_versions;
        [RegClass::Int, RegClass::Fp]
            .into_iter()
            .flat_map(move |class| {
                self.waiters[class.index()]
                    .iter()
                    .enumerate()
                    .flat_map(move |(slot, hs)| {
                        let tag = TaggedReg::new(
                            class,
                            regshare_core::PhysReg((slot / versions) as _),
                            (slot % versions) as u8,
                        );
                        hs.iter().map(move |&h| (tag, h))
                    })
            })
    }

    /// Number of physical registers tracked for a class.
    pub fn len(&self, class: RegClass) -> usize {
        self.regs[class.index()]
    }

    /// True when a class tracks no registers.
    pub fn is_empty(&self, class: RegClass) -> bool {
        self.regs[class.index()] == 0
    }

    /// Version slots per register (the configured `2^counter_bits`).
    pub fn max_versions(&self) -> usize {
        self.max_versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_core::PhysReg;

    #[test]
    fn versions_are_independent() {
        let mut sb = Scoreboard::new(4, 4, 4);
        let v0 = TaggedReg::new(RegClass::Int, PhysReg(1), 0);
        let v1 = v0.bump();
        sb.set_busy(v1);
        assert!(sb.is_ready(v0));
        assert!(!sb.is_ready(v1));
    }

    #[test]
    fn classes_are_independent() {
        let mut sb = Scoreboard::new(4, 4, 4);
        let xi = TaggedReg::new(RegClass::Int, PhysReg(2), 0);
        let xf = TaggedReg::new(RegClass::Fp, PhysReg(2), 0);
        sb.set_busy(xi);
        assert!(!sb.is_ready(xi));
        assert!(sb.is_ready(xf));
    }

    #[test]
    fn busy_then_ready_round_trip() {
        let mut sb = Scoreboard::new(1, 1, 8);
        let t = TaggedReg::new(RegClass::Fp, PhysReg(0), 7);
        sb.set_busy(t);
        let mut woken = Vec::new();
        sb.set_ready(t, &mut woken);
        assert!(sb.is_ready(t));
        assert!(woken.is_empty());
        assert_eq!(sb.len(RegClass::Fp), 1);
        assert!(!sb.is_empty(RegClass::Fp));
        assert_eq!(sb.max_versions(), 8);
    }

    fn h(idx: usize) -> RobSlot {
        RobSlot::new(0, idx)
    }

    #[test]
    fn broadcast_wakes_all_waiters_in_registration_order() {
        let mut sb = Scoreboard::new(8, 0, 4);
        let t = TaggedReg::new(RegClass::Int, PhysReg(5), 2);
        sb.set_busy(t);
        sb.watch(t, h(10));
        sb.watch(t, h(11));
        sb.watch(t, h(10)); // same consumer, both sources on this tag
        assert!(sb.has_waiter(h(10)));
        assert_eq!(sb.waiters().count(), 3);
        assert!(sb.waiters().all(|(tag, _)| tag == t));
        let mut woken = Vec::new();
        sb.set_ready(t, &mut woken);
        assert_eq!(woken, [h(10), h(11), h(10)]);
        assert!(!sb.has_waiter(h(10)));
        // The broadcast drains the slot: re-busying is legal again.
        sb.set_busy(t);
    }

    #[test]
    fn unwatch_drops_every_registration_of_one_consumer() {
        let mut sb = Scoreboard::new(8, 0, 4);
        let a = TaggedReg::new(RegClass::Int, PhysReg(1), 0);
        sb.set_busy(a);
        // Thread 0's consumer in slot 5 is parked twice and dies in a
        // squash; thread 1's consumer in the same slot must survive.
        sb.watch(a, h(5));
        sb.watch(a, RobSlot::new(1, 5));
        sb.watch(a, h(5));
        sb.unwatch(a, h(5));
        let mut woken = Vec::new();
        sb.set_ready(a, &mut woken);
        assert_eq!(woken, [RobSlot::new(1, 5)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the configured counter width")]
    fn out_of_range_version_is_rejected() {
        let sb = Scoreboard::new(4, 4, 4);
        sb.is_ready(TaggedReg::new(RegClass::Int, PhysReg(0), 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-busied while consumers wait")]
    fn rebusying_a_watched_tag_is_rejected() {
        let mut sb = Scoreboard::new(4, 4, 4);
        let t = TaggedReg::new(RegClass::Int, PhysReg(1), 1);
        sb.set_busy(t);
        sb.watch(t, RobSlot::new(0, 3));
        sb.set_busy(t);
    }
}
