//! A timing wheel for in-flight completions.
//!
//! Replaces the `BTreeMap<cycle, Vec<seq>>` the writeback stage used to
//! carry scheduled completions: every issue did an O(log n) ordered-map
//! insert and every cycle paid a lookup/remove even when nothing
//! completed. The wheel is a power-of-two ring of buckets indexed by
//! `cycle & mask` — O(1) schedule and O(1) drain — and grows itself when
//! an operation's latency exceeds the current horizon (DRAM round trips
//! on a cold TLB can reach hundreds of cycles).

/// Ring buffer of `(completion cycle, payload)` buckets. The payload is
/// whatever identifies a completing operation — a sequence number by
/// default; the pipeline uses `(seq, ROB slot handle)`.
///
/// # Examples
///
/// ```
/// use regshare_sim::CompletionWheel;
///
/// let mut wheel = CompletionWheel::new();
/// wheel.schedule(10, 3);
/// wheel.schedule(12, 4);
/// assert_eq!(wheel.take(10), [3]);
/// assert!(wheel.take(11).is_empty());
/// assert_eq!(wheel.take(12), [4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompletionWheel<T = u64> {
    /// `slots[cycle & mask]` holds everything completing at `cycle`; the
    /// cycle is stored alongside each entry so the ring can re-bucket
    /// itself on growth.
    slots: Vec<Vec<(u64, T)>>,
    mask: u64,
    /// Drained output vectors recycled across cycles so the steady state
    /// allocates nothing (buckets themselves are cleared in place and
    /// keep their capacity).
    spare: Vec<Vec<T>>,
    len: usize,
}

/// Covers every pipelined FU latency and a cold DRAM + TLB-walk round
/// trip; only pathological memory configurations force growth.
const INITIAL_SLOTS: usize = 512;

impl<T: Copy> CompletionWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        CompletionWheel {
            slots: vec![Vec::new(); INITIAL_SLOTS],
            mask: INITIAL_SLOTS as u64 - 1,
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Buckets start with room for a typical completion burst. Sizing
    /// every bucket for the worst case (ROB capacity) would spread the
    /// ring over megabytes and turn each schedule into a cache miss;
    /// instead the rare oversized burst grows its bucket once — during
    /// warmup in practice — and the capacity sticks from then on.
    const BUCKET_BURST: usize = 8;

    /// A wheel whose drain vector is pre-sized for `bound` simultaneous
    /// completions (no single cycle can complete more micro-ops than the
    /// machine holds in flight, so `bound` = ROB capacity suffices) and
    /// whose buckets hold [`CompletionWheel::BUCKET_BURST`] entries
    /// before their one-time growth.
    pub fn with_in_flight_bound(bound: usize) -> Self {
        let mut slots = Vec::with_capacity(INITIAL_SLOTS);
        slots.resize_with(INITIAL_SLOTS, || Vec::with_capacity(Self::BUCKET_BURST));
        CompletionWheel {
            slots,
            mask: INITIAL_SLOTS as u64 - 1,
            spare: vec![Vec::with_capacity(bound)],
            len: 0,
        }
    }

    /// Number of scheduled completions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` to complete at `cycle`. Entries may land further
    /// out than the ring is long — [`CompletionWheel::take`] matches on
    /// the stored cycle, so a shared bucket is a slow path, never a
    /// correctness hazard — but an occupied bucket from a different
    /// cycle triggers growth to keep buckets homogeneous.
    pub fn schedule(&mut self, cycle: u64, item: T) {
        let bucket = &mut self.slots[(cycle & self.mask) as usize];
        if let Some(&(resident, _)) = bucket.first() {
            if resident != cycle {
                self.grow(cycle);
                return self.schedule(cycle, item);
            }
        }
        bucket.push((cycle, item));
        self.len += 1;
    }

    /// Removes and returns every item completing at exactly
    /// `cycle`, in schedule order. Entries for a later lap of the ring
    /// stay put. Return the vector via [`CompletionWheel::recycle`] to
    /// avoid reallocating a bucket next cycle.
    pub fn take(&mut self, cycle: u64) -> Vec<T> {
        let bucket = &mut self.slots[(cycle & self.mask) as usize];
        let mut out = self.spare.pop().unwrap_or_default();
        if bucket.is_empty() {
            return out;
        }
        if bucket.iter().all(|&(c, _)| c == cycle) {
            self.len -= bucket.len();
            out.extend(bucket.iter().map(|&(_, item)| item));
            bucket.clear();
        } else {
            let before = bucket.len();
            bucket.retain(|&(c, item)| {
                if c == cycle {
                    out.push(item);
                    false
                } else {
                    true
                }
            });
            self.len -= before - bucket.len();
        }
        out
    }

    /// Returns a drained vector's storage to the wheel for reuse.
    pub fn recycle(&mut self, mut v: Vec<T>) {
        if self.spare.len() < 4 {
            v.clear();
            self.spare.push(v);
        }
    }

    /// Doubles the ring until `cycle` no longer collides with any
    /// resident bucket, re-bucketing everything in flight.
    fn grow(&mut self, cycle: u64) {
        let mut entries: Vec<(u64, T)> = Vec::with_capacity(self.len + 1);
        for bucket in &mut self.slots {
            entries.append(bucket);
        }
        let mut size = self.slots.len();
        loop {
            size *= 2;
            let mask = size as u64 - 1;
            let collides = |c: u64| entries.iter().any(|&(e, _)| e != c && e & mask == c & mask);
            if !collides(cycle) && entries.iter().all(|&(e, _)| !collides(e)) {
                break;
            }
        }
        self.slots = vec![Vec::new(); size];
        self.mask = size as u64 - 1;
        self.len = 0;
        for (c, s) in entries {
            self.schedule(c, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_and_drains_in_order() {
        let mut w = CompletionWheel::new();
        w.schedule(5, 1);
        w.schedule(5, 9);
        w.schedule(5, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.take(5), [1, 9, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn distant_cycles_force_growth_without_losing_entries() {
        let mut w = CompletionWheel::new();
        w.schedule(1, 10);
        // Same bucket index modulo the initial size, different cycle.
        w.schedule(1 + INITIAL_SLOTS as u64, 11);
        w.schedule(1 + 5 * INITIAL_SLOTS as u64, 12);
        assert_eq!(w.take(1), [10]);
        assert_eq!(w.take(1 + INITIAL_SLOTS as u64), [11]);
        assert_eq!(w.take(1 + 5 * INITIAL_SLOTS as u64), [12]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_entries_do_not_complete_a_lap_early() {
        let mut w = CompletionWheel::new();
        // Lands in the bucket take(3) will inspect, but a full lap out.
        w.schedule(3 + INITIAL_SLOTS as u64, 20);
        assert!(w.take(3).is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w.take(3 + INITIAL_SLOTS as u64), [20]);
    }

    #[test]
    fn shared_bucket_is_split_by_cycle() {
        let mut w = CompletionWheel::new();
        w.schedule(7 + INITIAL_SLOTS as u64, 31);
        // Same bucket, earlier cycle: schedule grows to keep buckets
        // homogeneous, but both entries must still drain correctly.
        w.schedule(7, 30);
        assert_eq!(w.take(7), [30]);
        assert_eq!(w.take(7 + INITIAL_SLOTS as u64), [31]);
        assert!(w.is_empty());
    }

    #[test]
    fn recycle_feeds_take() {
        let mut w = CompletionWheel::new();
        let v = w.take(0);
        assert!(v.is_empty());
        w.recycle(v);
        w.schedule(3, 7);
        assert_eq!(w.take(3), [7]);
    }
}
