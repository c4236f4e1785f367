//! Fixed-capacity SoA re-order buffer ring, and the issue-queue masks
//! over its slots.
//!
//! Every in-flight micro-op is addressed by a stable handle, its
//! [`RobSlot`]: the thread id and the physical ring index its entry
//! occupies from dispatch to retirement. Wakeup lists, the completion
//! wheel and the select walk carry handles, so nothing on the per-cycle
//! path resolves a sequence number to an entry. The ring keeps the
//! 144-byte [`RobEntry`] payloads in one power-of-two array and mirrors
//! the 8-byte sequence keys in a parallel `seqs` array, so the staleness
//! check on a completion and the seq comparison of an SMT select merge
//! touch one cache line of keys per eight entries.
//!
//! The issue queue is a view over the same slots: one `u64`-word
//! bitmask of operand-ready, unissued entries (`ready`) and one of
//! unissued entries per functional-unit class (`waiting`). Ring position
//! is age, so oldest-first select is a bit-scan from the head
//! ([`Rob::next_ready`]) and needs no age matrix.
//!
//! Capacity is fixed at construction (the config's `rob_entries`,
//! rounded up to a power of two) and never reallocates: push/pop are
//! mask-indexed ring operations, so the steady-state tick stays
//! allocation-free.
//!
//! Invariants: `seqs[i] == entries[i].seq` for every live slot; a slot's
//! `waiting` bit (of its entry's [`RobEntry::fu_class`]) is set iff the
//! slot is live and unissued, and its `ready` bit iff additionally
//! `pending_srcs == 0`; `ready_len` counts the `ready` bits. The ring
//! operations keep all three for push and pop; [`Rob::mark_ready`] and
//! [`Rob::issue`] are the only other writers.

use crate::core_state::RobEntry;
use regshare_isa::OpClass;

/// Functional-unit classes, the rows of the `waiting` masks.
const FU_CLASSES: usize = OpClass::Branch as usize + 1;

/// A set of [`OpClass`]es, one bit per class.
pub(crate) type ClassSet = u16;

/// The [`ClassSet`] holding just `class`.
pub(crate) fn class_bit(class: OpClass) -> ClassSet {
    1 << class as u32
}

/// Stable handle of an in-flight micro-op: its hardware thread and the
/// physical slot of its entry in that thread's ROB ring. A handle stays
/// valid from dispatch until the entry retires or is squashed; the slot
/// is then reused, so holders that can outlive the entry (the completion
/// wheel) keep the sequence number alongside and check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RobSlot(u32);

impl RobSlot {
    const IDX_BITS: u32 = 24;

    /// The handle of slot `idx` in thread `tid`'s ring.
    pub fn new(tid: usize, idx: usize) -> Self {
        debug_assert!(idx < 1 << Self::IDX_BITS && tid < 1 << (32 - Self::IDX_BITS));
        RobSlot(((tid as u32) << Self::IDX_BITS) | idx as u32)
    }

    /// The hardware thread.
    pub fn tid(self) -> usize {
        (self.0 >> Self::IDX_BITS) as usize
    }

    /// The physical ring index.
    pub fn idx(self) -> usize {
        (self.0 & ((1 << Self::IDX_BITS) - 1)) as usize
    }
}

impl std::fmt::Display for RobSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}:{}", self.tid(), self.idx())
    }
}

pub(crate) struct Rob {
    /// Dense per-entry payloads, ring-indexed by `(head + pos) & mask`.
    entries: Box<[RobEntry]>,
    /// Parallel sequence-number key array.
    seqs: Box<[u64]>,
    /// The issue-queue masks, `words` words per row, in one allocation:
    /// row 0 holds the operand-ready, unissued slots (`ready`), row
    /// `1 + class` the unissued slots of each functional-unit class
    /// (`waiting`).
    masks: Box<[u64]>,
    words: usize,
    /// Number of `ready` bits set, so an empty ready set is seen without
    /// touching the masks.
    ready_len: usize,
    head: usize,
    len: usize,
    mask: usize,
}

impl Rob {
    /// A ring holding at least `capacity` entries (rounded up to a
    /// power of two). `filler` initializes the dead slots; it is never
    /// observable through the API.
    pub(crate) fn new(capacity: usize, filler: RobEntry) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        let words = cap.div_ceil(64);
        Rob {
            entries: vec![filler; cap].into_boxed_slice(),
            seqs: vec![0; cap].into_boxed_slice(),
            masks: vec![0; words * (1 + FU_CLASSES)].into_boxed_slice(),
            words,
            ready_len: 0,
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the ring (the power of two at or above the partition).
    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The physical slot of logical position `pos` (0 = oldest).
    #[inline]
    pub(crate) fn slot_of(&self, pos: usize) -> usize {
        (self.head + pos) & self.mask
    }

    /// Whether physical slot `idx` holds a live entry.
    #[inline]
    pub(crate) fn is_live(&self, idx: usize) -> bool {
        idx <= self.mask && (idx.wrapping_sub(self.head) & self.mask) < self.len
    }

    /// Whether physical slot `idx` holds the live entry `seq` (and not a
    /// squashed one's successor).
    #[inline]
    pub(crate) fn holds(&self, idx: usize, seq: u64) -> bool {
        self.is_live(idx) && self.seqs[idx] == seq
    }

    /// The sequence number at logical position `pos`.
    #[inline]
    pub(crate) fn seq_at(&self, pos: usize) -> u64 {
        self.seqs[self.slot_of(pos)]
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.entries[self.head])
    }

    #[inline]
    pub(crate) fn back(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.entries[self.slot_of(self.len - 1)])
    }

    /// Appends `e` and returns its slot, entering it in the issue-queue
    /// masks unless it has already issued.
    pub(crate) fn push_back(&mut self, e: RobEntry) -> usize {
        assert!(self.len <= self.mask, "ROB ring overflow");
        let idx = self.slot_of(self.len);
        self.seqs[idx] = e.seq;
        if !e.issued {
            let (row, bit) = (self.row(e.fu_class()) + idx / 64, 1u64 << (idx % 64));
            self.masks[row] |= bit;
            if e.pending_srcs == 0 {
                self.mark_ready(idx);
            }
        }
        self.entries[idx] = e;
        self.len += 1;
        idx
    }

    /// Removes the oldest entry (in the pipeline it has issued, and so
    /// holds no mask bits).
    pub(crate) fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let idx = self.head;
        if !self.entries[idx].issued {
            self.clear_masks(idx);
        }
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(self.entries[idx])
    }

    /// Removes the youngest entry, dropping it from the issue-queue
    /// masks, and returns it with its slot.
    pub(crate) fn pop_back(&mut self) -> Option<(usize, RobEntry)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let idx = self.slot_of(self.len);
        if !self.entries[idx].issued {
            self.clear_masks(idx);
        }
        Some((idx, self.entries[idx]))
    }

    /// Drops the unissued entry at `idx` from the issue-queue masks.
    fn clear_masks(&mut self, idx: usize) {
        let (w, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.masks[w] & bit != 0 {
            self.masks[w] &= !bit;
            self.ready_len -= 1;
        }
        let row = self.row(self.entries[idx].fu_class());
        self.masks[row + w] &= !bit;
    }

    /// The first word of `class`'s waiting row.
    #[inline]
    fn row(&self, class: OpClass) -> usize {
        (1 + class as usize) * self.words
    }

    /// Ring contents as (older, younger) contiguous slices.
    pub(crate) fn as_slices(&self) -> (&[RobEntry], &[RobEntry]) {
        let cap = self.mask + 1;
        let first = self.len.min(cap - self.head);
        (
            &self.entries[self.head..self.head + first],
            &self.entries[..self.len - first],
        )
    }

    pub(crate) fn iter(
        &self,
    ) -> std::iter::Chain<std::slice::Iter<'_, RobEntry>, std::slice::Iter<'_, RobEntry>> {
        let (a, b) = self.as_slices();
        a.iter().chain(b.iter())
    }

    // ---- issue-queue view ----

    /// The last source of the unissued entry at `idx` became ready.
    #[inline]
    pub(crate) fn mark_ready(&mut self, idx: usize) {
        let (w, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.masks[w] & bit == 0 {
            self.masks[w] |= bit;
            self.ready_len += 1;
        }
    }

    /// Marks the entry at `idx` issued and drops it from the issue queue.
    #[inline]
    pub(crate) fn issue(&mut self, idx: usize) {
        self.entries[idx].issued = true;
        self.clear_masks(idx);
    }

    /// Whether any slot carries a ready bit.
    #[inline]
    pub(crate) fn any_ready(&self) -> bool {
        self.ready_len > 0
    }

    /// Whether slot `idx` carries a waiting bit of `class`.
    #[inline]
    pub(crate) fn is_waiting_as(&self, idx: usize, class: OpClass) -> bool {
        self.masks[self.row(class) + idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Whether slot `idx` carries a ready bit.
    pub(crate) fn is_ready(&self, idx: usize) -> bool {
        self.masks[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of ready bits, as counted on the way in and out.
    pub(crate) fn ready_count(&self) -> usize {
        self.ready_len
    }

    /// Number of waiting bits, over every class.
    pub(crate) fn waiting_count(&self) -> usize {
        self.masks[self.words..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The waiting bits of every class in `classes`, for word `w`.
    #[inline]
    fn waiting_in(&self, classes: ClassSet, w: usize) -> u64 {
        let mut set = classes;
        let mut bits = 0;
        while set != 0 {
            bits |= self.masks[(1 + set.trailing_zeros() as usize) * self.words + w];
            set &= set - 1;
        }
        bits
    }

    /// The first logical position in `from..to` whose bit is set in
    /// `bits(word)`, scanning the ring from the head a word at a time.
    #[inline]
    fn first_in(&self, from: usize, to: usize, bits: impl Fn(usize) -> u64) -> Option<usize> {
        let cap = self.mask + 1;
        let mut pos = from;
        while pos < to {
            let phys = self.slot_of(pos);
            let (w, b) = (phys / 64, phys % 64);
            let span = (64 - b).min(cap - phys).min(to - pos);
            let mut word = bits(w) >> b;
            if span < 64 {
                word &= (1u64 << span) - 1;
            }
            if word != 0 {
                return Some(pos + word.trailing_zeros() as usize);
            }
            pos += span;
        }
        None
    }

    /// The oldest ready entry at logical position `from` or younger,
    /// skipping entries of the `refused` classes.
    #[inline]
    pub(crate) fn next_ready(&self, from: usize, refused: ClassSet) -> Option<usize> {
        if refused == 0 {
            self.first_in(from, self.len, |w| self.masks[w])
        } else {
            self.first_in(from, self.len, |w| {
                self.masks[w] & !self.waiting_in(refused, w)
            })
        }
    }

    /// Logical position of the oldest unissued entry of `class`, or the
    /// length when there is none.
    pub(crate) fn oldest_waiting(&self, class: OpClass) -> usize {
        let row = self.row(class);
        self.first_in(0, self.len, |w| self.masks[row + w])
            .unwrap_or(self.len)
    }
}

impl std::ops::Index<usize> for Rob {
    type Output = RobEntry;
    /// The entry in physical slot `idx`.
    #[inline]
    fn index(&self, idx: usize) -> &RobEntry {
        debug_assert!(self.is_live(idx), "slot {idx} is not live");
        &self.entries[idx]
    }
}

impl std::ops::IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, idx: usize) -> &mut RobEntry {
        debug_assert!(self.is_live(idx), "slot {idx} is not live");
        &mut self.entries[idx]
    }
}

impl std::fmt::Debug for Rob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rob")
            .field("len", &self.len)
            .field("capacity", &(self.mask + 1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_state::RobEntry;
    use regshare_isa::{DecodedOp, Inst, Opcode};

    fn entry(seq: u64) -> RobEntry {
        entry_of(seq, Opcode::Nop, false)
    }

    /// An entry of `op`, operand-ready unless `waits`.
    fn entry_of(seq: u64, op: Opcode, waits: bool) -> RobEntry {
        let inst = Inst::bare(op);
        RobEntry {
            seq,
            pc: seq * 4,
            d: DecodedOp::decode(&inst, 0),
            inst,
            pending_srcs: waits as u8,
            ..RobEntry::filler()
        }
    }

    fn ring(cap: usize) -> Rob {
        Rob::new(cap, entry(0))
    }

    #[test]
    fn push_pop_wraps_around() {
        let mut r = ring(4);
        for round in 0..5u64 {
            for i in 0..3 {
                r.push_back(entry(round * 10 + i));
            }
            assert_eq!(r.len(), 3);
            assert_eq!(r.front().unwrap().seq, round * 10);
            assert_eq!(r.back().unwrap().seq, round * 10 + 2);
            for i in 0..3 {
                assert_eq!(r.pop_front().unwrap().seq, round * 10 + i);
            }
            assert!(r.is_empty());
        }
    }

    #[test]
    fn handles_detect_a_refilled_slot() {
        let mut r = ring(4);
        let a = r.push_back(entry(10));
        let b = r.push_back(entry(11));
        assert!(r.holds(a, 10) && r.holds(b, 11));
        assert!(!r.holds(b, 10));
        // Squash the younger entry and refill its slot.
        assert_eq!(r.pop_back().map(|(idx, e)| (idx, e.seq)), Some((b, 11)));
        assert!(!r.is_live(b) && !r.holds(b, 11));
        let c = r.push_back(entry(14));
        assert_eq!(c, b, "the freed slot is reused");
        assert!(r.holds(c, 14) && !r.holds(c, 11));
        r.pop_front();
        assert!(!r.is_live(a));
    }

    #[test]
    fn iter_spans_the_wrap_in_order() {
        let mut r = ring(4);
        for seq in 0..3 {
            r.push_back(entry(seq));
        }
        r.pop_front();
        r.pop_front();
        for seq in 3..6 {
            r.push_back(entry(seq));
        }
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        let (a, b) = r.as_slices();
        assert_eq!(a.len() + b.len(), r.len());
    }

    #[test]
    fn index_is_by_slot() {
        let mut r = ring(4);
        r.push_back(entry(0));
        r.pop_front();
        let slots: Vec<usize> = (1..4).map(|seq| r.push_back(entry(seq))).collect();
        assert_eq!(slots, [1, 2, 3]);
        r[2].done = true;
        assert!(r[2].done && r[2].seq == 2);
        assert_eq!(r.slot_of(1), 2);
    }

    #[test]
    fn masks_follow_dispatch_wakeup_issue_and_squash() {
        let mut r = ring(8);
        let st = r.push_back(entry_of(1, Opcode::St, true));
        let ld = r.push_back(entry_of(2, Opcode::Ld, false));
        let add = r.push_back(entry_of(3, Opcode::Add, false));
        // The store waits on an operand: it is not ready, but it is the
        // oldest unissued store, fencing the younger load.
        assert!(!r.is_ready(st) && r.is_waiting_as(st, OpClass::Store));
        assert!(r.is_waiting_as(ld, OpClass::Load) && !r.is_waiting_as(add, OpClass::Load));
        assert_eq!(r.oldest_waiting(OpClass::Store), 0);
        assert_eq!(r.next_ready(0, 0), Some(1));
        assert_eq!(r.next_ready(0, class_bit(OpClass::Load)), Some(2));
        assert_eq!(r.next_ready(2, 0), Some(2));
        r[st].pending_srcs = 0;
        r.mark_ready(st);
        r.issue(st);
        assert!(!r.is_ready(st) && !r.is_waiting_as(st, OpClass::Store));
        assert_eq!(r.waiting_count(), 2);
        assert_eq!(r.oldest_waiting(OpClass::Store), r.len());
        assert_eq!(r.next_ready(0, 0), Some(1));
        assert_eq!(r.ready_count(), 2);
        // A squash drops the popped slots' bits.
        r.pop_back();
        assert!(!r.is_ready(add) && r.waiting_count() == 1);
        assert!(r.is_ready(ld));
    }

    #[test]
    fn scans_wrap_around_the_ring_in_age_order() {
        // 128 slots span two words; start the window near the end.
        let mut r = ring(128);
        for seq in 0..120 {
            r.push_back(entry_of(seq, Opcode::Add, true));
            r.pop_front();
        }
        let slots: Vec<usize> = (120..140)
            .map(|seq| r.push_back(entry_of(seq, Opcode::Add, seq % 3 != 0)))
            .collect();
        assert_eq!(slots[0], 120);
        assert_eq!(slots[10], 2, "the window wraps");
        let mut got = Vec::new();
        let mut from = 0;
        while let Some(pos) = r.next_ready(from, 0) {
            got.push(r.seq_at(pos));
            from = pos + 1;
        }
        let want: Vec<u64> = (120..140).filter(|s| s % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "ROB ring overflow")]
    fn overflow_panics() {
        let mut r = ring(2);
        for seq in 0..3 {
            r.push_back(entry(seq));
        }
    }

    mod schedules {
        //! Random dispatch/commit/squash schedules (the shapes the
        //! inject harness produces: stall bursts, deep squashes, empty
        //! drains) against a mirror `VecDeque` of sequence numbers. The
        //! ring must track the mirror exactly and never overflow its
        //! fixed capacity or underflow on pops, and its issue-queue
        //! masks must match the live entries.

        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        enum Op {
            /// Dispatch up to `n` new entries (capacity-gated, like
            /// rename's ROB-free check; seqs stay monotonic).
            Dispatch(u8),
            /// Issue the oldest ready entry, then retire up to `n` from
            /// the front.
            Commit(u8),
            /// Squash everything younger than the `k`-th oldest
            /// survivor (pop_back loop, like recovery).
            Squash(u8),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1..8u8).prop_map(Op::Dispatch),
                (1..8u8).prop_map(Op::Commit),
                (0..16u8).prop_map(Op::Squash),
            ]
        }

        proptest! {
            #[test]
            fn ring_matches_mirror_under_random_schedules(
                cap in 1..80usize,
                ops in proptest::collection::vec(op(), 1..120),
            ) {
                let mut r = Rob::new(cap, entry(0));
                let mut mirror: VecDeque<u64> = VecDeque::new();
                let mut next_seq = 0u64;
                for op in ops {
                    match op {
                        Op::Dispatch(n) => {
                            for _ in 0..n {
                                if mirror.len() >= cap {
                                    break; // rename-stage capacity stall
                                }
                                let kind = [Opcode::Add, Opcode::Ld, Opcode::St];
                                r.push_back(entry_of(
                                    next_seq,
                                    kind[next_seq as usize % 3],
                                    next_seq.is_multiple_of(4),
                                ));
                                mirror.push_back(next_seq);
                                // Squash gaps: seqs are monotonic, not
                                // contiguous.
                                next_seq += 1 + next_seq.is_multiple_of(3) as u64;
                            }
                        }
                        Op::Commit(n) => {
                            if let Some(pos) = r.next_ready(0, 0) {
                                let idx = r.slot_of(pos);
                                r.issue(idx);
                            }
                            for _ in 0..n {
                                prop_assert_eq!(
                                    r.pop_front().map(|e| e.seq),
                                    mirror.pop_front()
                                );
                            }
                        }
                        Op::Squash(k) => {
                            let target = mirror
                                .get(k as usize)
                                .copied()
                                .unwrap_or(0);
                            while matches!(r.back(), Some(e) if e.seq > target) {
                                prop_assert_eq!(
                                    r.pop_back().map(|(_, e)| e.seq),
                                    mirror.pop_back()
                                );
                            }
                        }
                    }
                    // Structural invariants after every step.
                    prop_assert!(r.len() <= cap.next_power_of_two());
                    prop_assert_eq!(r.len(), mirror.len());
                    prop_assert_eq!(r.front().map(|e| e.seq), mirror.front().copied());
                    prop_assert_eq!(r.back().map(|e| e.seq), mirror.back().copied());
                    let ring_seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
                    let mirror_seqs: Vec<u64> = mirror.iter().copied().collect();
                    prop_assert_eq!(&ring_seqs, &mirror_seqs);
                    // Handles resolve to their entries; the masks hold
                    // exactly the live unissued (ready) entries.
                    let (mut ready, mut waiting) = (0, 0);
                    for (pos, &seq) in mirror_seqs.iter().enumerate() {
                        let idx = r.slot_of(pos);
                        prop_assert!(r.holds(idx, seq));
                        let e = r[idx];
                        prop_assert_eq!(r.is_waiting_as(idx, e.fu_class()), !e.issued);
                        prop_assert_eq!(r.is_ready(idx), !e.issued && e.pending_srcs == 0);
                        ready += r.is_ready(idx) as usize;
                        waiting += !e.issued as usize;
                    }
                    prop_assert_eq!(r.ready_count(), ready);
                    prop_assert_eq!(r.waiting_count(), waiting);
                }
            }
        }
    }
}
