//! The kernel's pending-event structure: one [`EventQueue`], a min-heap of
//! *distinct* pending timestamps plus a FIFO bucket per timestamp, under an
//! [`ExplorePlan`]. The identity plan pops in `(time, insertion)` order; any
//! other plan skews timer fires on push and permutes each bucket when it is
//! opened.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use obs::det::SplitMix64;

use super::{Ev, ExplorePlan};
use crate::time::SimTime;

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

/// Pending events in `(time, insertion)` order (perturbed only by a
/// non-identity [`ExplorePlan`]).
pub(super) struct EventQueue {
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
    /// this one — exactly insertion order, since a newly pushed event
    /// always comes after everything already queued. Empty whenever a pop
    /// has returned `None`, i.e. between drains.
    batch: VecDeque<Ev>,
    batch_t: SimTime,
    plan: ExplorePlan,
    /// Timer-skew stream (advanced once per skewed timer push).
    skew_rng: SplitMix64,
    /// Buckets permuted so far (salts the per-bucket permutation).
    batches: u64,
    len: usize,
    /// Deepest `len` has ever been.
    peak: usize,
}

impl EventQueue {
    pub(super) fn new(plan: ExplorePlan) -> Self {
        EventQueue {
            times: BinaryHeap::new(),
            buckets: HashMap::default(),
            spare: Vec::new(),
            batch: VecDeque::new(),
            batch_t: SimTime::ZERO,
            plan,
            skew_rng: SplitMix64::new(plan.seed ^ 0xC1A0_57A7_E5EE_D000),
            batches: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Switch plans. Only while empty, so no queued event was skewed or
    /// permuted under another plan; the peak is a property of the
    /// simulation and survives the switch.
    pub(super) fn set_plan(&mut self, plan: ExplorePlan) {
        assert_eq!(self.len, 0, "set_drain_mode requires an empty event queue");
        let peak = self.peak;
        *self = EventQueue { peak, ..EventQueue::new(plan) };
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
        // Non-identity plan: skew timer fires by a bounded, seeded extra
        // delay (clock skew / timer coalescing). Skew is only ever added,
        // so a skewed timer never lands in the past.
        let t = if !self.plan.is_identity()
            && self.plan.timer_skew_us != 0
            && matches!(ev, Ev::Timer { .. })
        {
            t + self.skew_rng.below(self.plan.timer_skew_us + 1)
        } else {
            t
        };
        self.bucket_at(t).push_back(ev);
    }

    /// Remove the next event if its time is at or before `bound`: the
    /// front of the open batch, or of the next bucket once that is
    /// exhausted.
    #[inline]
    pub(super) fn pop(&mut self, bound: SimTime) -> Option<(SimTime, Ev)> {
        if self.batch.is_empty() && !self.open_next(bound) {
            return None;
        }
        let ev = self.batch.pop_front()?;
        self.len -= 1;
        Some((self.batch_t, ev))
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

    /// The two operations a script drives, on the queue or on the
    /// reference.
    trait Queue {
        fn push(&mut self, t: SimTime, id: usize);
        fn pop(&mut self, bound: SimTime) -> Option<(SimTime, usize)>;
        fn len(&self) -> usize;
        fn peak(&self) -> usize;
    }

    impl Queue for EventQueue {
        fn push(&mut self, t: SimTime, id: usize) {
            EventQueue::push(self, t, Ev::Wake { actor: ActorId(id) });
        }
        fn pop(&mut self, bound: SimTime) -> Option<(SimTime, usize)> {
            match EventQueue::pop(self, bound)? {
                (t, Ev::Wake { actor }) => Some((t, actor.0)),
                _ => unreachable!("scripts push only wakes"),
            }
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
        fn peak(&self) -> usize {
            EventQueue::peak(self)
        }
    }

    /// The reference order: a binary heap of `(time, insertion number)`,
    /// one entry per event.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        pushed: u64,
        peak: usize,
    }

    impl Queue for Reference {
        fn push(&mut self, t: SimTime, id: usize) {
            self.heap.push(Reverse((t, self.pushed, id)));
            self.pushed += 1;
            self.peak = self.peak.max(self.heap.len());
        }
        fn pop(&mut self, bound: SimTime) -> Option<(SimTime, usize)> {
            if self.heap.peek()?.0 .0 > bound {
                return None;
            }
            self.heap.pop().map(|Reverse((t, _, id))| (t, id))
        }
        fn len(&self) -> usize {
            self.heap.len()
        }
        fn peak(&self) -> usize {
            self.peak
        }
    }

    fn run(mut q: impl Queue, script: &[Round]) -> Observed {
        let mut now = SimTime::ZERO;
        let mut next_id = 0;
        let (mut popped, mut depth) = (Vec::new(), Vec::new());
        let mut pop = |q: &mut dyn Queue, now: &mut SimTime, bound: SimTime| {
            let got = q.pop(bound);
            if let Some((t, id)) = got {
                assert!(t >= *now && t <= bound);
                *now = t;
                popped.push((t, id));
            }
            got.is_some()
        };
        for (delays, pops, bound) in script {
            for &d in delays {
                q.push(now + d, next_id);
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
            // The identity plan pops exactly the reference heap's order.
            let reference = run(Reference::default(), &script);
            prop_assert_eq!(&reference, &run(EventQueue::new(ExplorePlan::new(0)), &script));

            // A seeded plan reorders events only among those sharing a
            // timestamp, and does so reproducibly.
            let seeded = run(EventQueue::new(ExplorePlan::new(seed)), &script);
            prop_assert_eq!(&seeded, &run(EventQueue::new(ExplorePlan::new(seed)), &script));
            prop_assert_eq!(&seeded.1, &reference.1);
            let times = |o: &Observed| o.0.iter().map(|&(t, _)| t).collect::<Vec<_>>();
            prop_assert_eq!(times(&seeded), times(&reference));
            let (mut a, mut b) = (seeded.0, reference.0);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
