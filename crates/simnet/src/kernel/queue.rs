//! The kernel's pending-event structure: one [`EventQueue`] holding the
//! one representation its [`DrainMode`] selects.
//!
//! - **Heap** — a `(time, seq)`-ordered binary heap: the reference order
//!   every other drain is checked against.
//! - **Buckets** — a min-heap of *distinct* pending timestamps plus a FIFO
//!   bucket per timestamp, under an [`ExplorePlan`]. The identity plan
//!   pops in exactly the heap's order; any other plan skews timer fires
//!   on push and permutes each bucket when it is opened.

use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use super::{DrainMode, Ev, ExplorePlan};
use crate::det::SplitMix64;
use crate::time::SimTime;

struct HeapEntry {
    t: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// How many drained buckets to keep for reuse. Matches the number of
/// distinct timestamps typically live at once (current batch spillover
/// plus the next few timer grids).
const SPARE_BUCKETS: usize = 4;

/// Multiply-shift hasher for the bucket map. Bucket keys are `SimTime`
/// (one `u64`), hashed on every event push, so the default SipHash would
/// dominate the per-event cost; a single multiply + xor-shift mixes the 64
/// timestamp bits well enough for a table whose keys are distinct pending
/// timestamps (typically a handful).
#[derive(Debug, Clone, Copy, Default)]
struct TimeHasherBuilder;

#[derive(Debug, Default)]
struct TimeHasher(u64);

impl std::hash::BuildHasher for TimeHasherBuilder {
    type Hasher = TimeHasher;
    fn build_hasher(&self) -> TimeHasher {
        TimeHasher(0)
    }
}

impl std::hash::Hasher for TimeHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

struct Buckets {
    /// Min-heap of distinct pending timestamps …
    times: BinaryHeap<Reverse<SimTime>>,
    /// … and the FIFO bucket of events at each of them. A timestamp is in
    /// `times` iff it has a bucket; a bucket is removed exactly when its
    /// `times` entry is popped, so neither duplicates nor stale entries
    /// can accumulate.
    buckets: HashMap<SimTime, VecDeque<Ev>, TimeHasherBuilder>,
    /// Drained, empty buckets kept for reuse (capacity recycling).
    spare: Vec<VecDeque<Ev>>,
    /// The bucket being popped, already removed from `buckets`: an event
    /// pushed at `batch_t` meanwhile opens a fresh bucket, drained after
    /// this one — exactly the heap order, where newly pushed events always
    /// carry a higher sequence number. Empty whenever a pop has returned
    /// `None`, i.e. between drains.
    batch: VecDeque<Ev>,
    batch_t: SimTime,
    plan: ExplorePlan,
    /// Timer-skew stream (advanced once per skewed timer push).
    skew_rng: SplitMix64,
    /// Buckets permuted so far (salts the per-bucket permutation).
    batches: u64,
}

impl Buckets {
    fn new(plan: ExplorePlan) -> Self {
        Buckets {
            times: BinaryHeap::new(),
            buckets: HashMap::default(),
            spare: Vec::new(),
            batch: VecDeque::new(),
            batch_t: SimTime::ZERO,
            plan,
            skew_rng: SplitMix64::new(plan.seed ^ 0xC1A0_57A7_E5EE_D000),
            batches: 0,
        }
    }

    /// The bucket at `t`, opened (from a recycled one, so a storm of
    /// same-time events pays its deque growth only once) if `t` is new.
    fn bucket_at(&mut self, t: SimTime) -> &mut VecDeque<Ev> {
        match self.buckets.entry(t) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.times.push(Reverse(t));
                e.insert(self.spare.pop().unwrap_or_default())
            }
        }
    }

    /// Next event at or before `bound`: the front of the open batch, or of
    /// the next bucket once that is exhausted.
    #[inline]
    fn pop(&mut self, bound: SimTime) -> Option<(SimTime, Ev)> {
        if self.batch.is_empty() && !self.open_next(bound) {
            return None;
        }
        self.batch.pop_front().map(|ev| (self.batch_t, ev))
    }

    /// Recycle the exhausted batch and open the earliest bucket, if its
    /// time is at or before `bound`. Once per distinct timestamp, so kept
    /// out of the per-event path.
    #[cold]
    fn open_next(&mut self, bound: SimTime) -> bool {
        let Some(&Reverse(t)) = self.times.peek() else { return false };
        if t > bound {
            return false;
        }
        self.times.pop();
        let next = self.buckets.remove(&t).expect("times entry without bucket");
        let drained = std::mem::replace(&mut self.batch, next);
        if self.spare.len() < SPARE_BUCKETS {
            self.spare.push(drained);
        }
        self.batch_t = t;
        if !self.plan.is_identity() && self.batch.len() > 1 {
            self.batches += 1;
            // Per-bucket stream: keyed by (plan seed, timestamp, bucket
            // ordinal) so the permutation of one bucket is independent
            // of how many events earlier buckets held.
            let mut rng = SplitMix64::new(
                self.plan.seed ^ t.as_us().rotate_left(17) ^ self.batches.rotate_left(41),
            );
            let slice = self.batch.make_contiguous();
            for i in (1..slice.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                slice.swap(i, j);
            }
        }
        true
    }
}

enum Repr {
    Heap { heap: BinaryHeap<HeapEntry>, seq: u64 },
    Buckets(Buckets),
}

impl Repr {
    /// The one place a [`DrainMode`] picks a representation: `Batched`
    /// *is* the bucket queue under the identity plan.
    fn for_mode(mode: DrainMode) -> Self {
        match mode {
            DrainMode::Heap => Repr::Heap { heap: BinaryHeap::new(), seq: 0 },
            DrainMode::Batched => Repr::Buckets(Buckets::new(ExplorePlan::default())),
            DrainMode::Explore(plan) => Repr::Buckets(Buckets::new(plan)),
        }
    }
}

/// Pending events in `(time, insertion)` order (perturbed only by a
/// non-identity [`ExplorePlan`]).
pub(super) struct EventQueue {
    repr: Repr,
    len: usize,
    /// Deepest `len` has ever been.
    peak: usize,
}

impl EventQueue {
    pub(super) fn new(mode: DrainMode) -> Self {
        EventQueue { repr: Repr::for_mode(mode), len: 0, peak: 0 }
    }

    /// Switch representation. Only while empty, so events never migrate;
    /// the peak is a property of the simulation and survives the switch.
    pub(super) fn set_mode(&mut self, mode: DrainMode) {
        assert_eq!(self.len, 0, "set_drain_mode requires an empty event queue");
        self.repr = Repr::for_mode(mode);
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn peak(&self) -> usize {
        self.peak
    }

    /// Queue `ev` for time `t`, after everything already queued at `t`.
    pub(super) fn push(&mut self, t: SimTime, ev: Ev) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        match &mut self.repr {
            Repr::Heap { heap, seq } => {
                heap.push(HeapEntry { t, seq: *seq, ev });
                *seq += 1;
            }
            Repr::Buckets(b) => {
                // Non-identity plan: skew timer fires by a bounded, seeded
                // extra delay (clock skew / timer coalescing). Skew is only
                // ever added, so a skewed timer never lands in the past.
                let t = if !b.plan.is_identity()
                    && b.plan.timer_skew_us != 0
                    && matches!(ev, Ev::Timer { .. })
                {
                    t + b.skew_rng.below(b.plan.timer_skew_us + 1)
                } else {
                    t
                };
                b.bucket_at(t).push_back(ev);
            }
        }
    }

    /// Remove the next event if its time is at or before `bound`.
    #[inline]
    pub(super) fn pop(&mut self, bound: SimTime) -> Option<(SimTime, Ev)> {
        let popped = match &mut self.repr {
            Repr::Heap { heap, .. } => {
                if heap.peek()?.t > bound {
                    return None;
                }
                let e = heap.pop()?;
                (e.t, e.ev)
            }
            Repr::Buckets(b) => b.pop(bound)?,
        };
        self.len -= 1;
        Some(popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorId;
    use proptest::prelude::*;

    /// One round of a script: push an event at `now + delay` for each
    /// delay (0 = at the current time), then pop up to `pops` events no
    /// later than `now + bound`.
    type Round = (Vec<u64>, usize, u64);

    /// What a script observed: the `(time, id)` pop sequence, and
    /// `(len, peak)` after every operation.
    type Observed = (Vec<(SimTime, usize)>, Vec<(usize, usize)>);

    fn run(mode: DrainMode, script: &[Round]) -> Observed {
        let mut q = EventQueue::new(mode);
        let mut now = SimTime::ZERO;
        let mut next_id = 0;
        let (mut popped, mut depth) = (Vec::new(), Vec::new());
        let mut pop = |q: &mut EventQueue, now: &mut SimTime, bound: SimTime| {
            let got = q.pop(bound);
            if let Some((t, Ev::Wake { actor })) = got {
                assert!(t >= *now && t <= bound);
                *now = t;
                popped.push((t, actor.0));
            }
            got.is_some()
        };
        for (delays, pops, bound) in script {
            for &d in delays {
                q.push(now + d, Ev::Wake { actor: ActorId(next_id) });
                next_id += 1;
                depth.push((q.len(), q.peak()));
            }
            for _ in 0..*pops {
                let bound = now + *bound;
                pop(&mut q, &mut now, bound);
                depth.push((q.len(), q.peak()));
            }
        }
        while pop(&mut q, &mut now, SimTime::MAX) {}
        assert_eq!(q.len(), 0);
        assert_eq!(popped.len(), next_id);
        (popped, depth)
    }

    proptest! {
        #[test]
        fn representations_agree_on_any_script(
            script in proptest::collection::vec(
                (proptest::collection::vec(0u64..4, 0..12), 0usize..10, 0u64..3),
                1..24,
            ),
            seed in 1u64..u64::MAX,
        ) {
            let heap = run(DrainMode::Heap, &script);
            prop_assert_eq!(&heap, &run(DrainMode::Batched, &script));
            prop_assert_eq!(&heap, &run(DrainMode::Explore(ExplorePlan::new(0)), &script));

            // A seeded plan reorders events only among those sharing a
            // timestamp, and does so reproducibly.
            let seeded = run(DrainMode::Explore(ExplorePlan::new(seed)), &script);
            prop_assert_eq!(&seeded, &run(DrainMode::Explore(ExplorePlan::new(seed)), &script));
            prop_assert_eq!(&seeded.1, &heap.1);
            let times = |o: &Observed| o.0.iter().map(|&(t, _)| t).collect::<Vec<_>>();
            prop_assert_eq!(times(&seeded), times(&heap));
            let (mut a, mut b) = (seeded.0, heap.0);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
