//! Ring-buffered event bus with filtered subscriptions.
//!
//! A slot holds either an event its publisher built or a packed record
//! (`at_us`, a [`Shape`], [`PACKED_SLOTS`] values) that is built into an
//! [`Event`] only when a snapshot or a drain reads it. Filters match on
//! source and kind, so a packed slot that no reader takes is never built.

use crate::event::{Event, EventFilter, Shape, PACKED_SLOTS};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default number of events retained in the ring before the oldest are
/// evicted. Eviction only affects snapshots; subscriber queues are
/// independent and never drop matched events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Handle to an open subscription on the bus.
#[derive(Debug)]
pub struct Subscription {
    pub(crate) id: u64,
}

/// One retained event: built by its publisher, or packed until read.
#[derive(Clone)]
enum Slot {
    Built(Arc<Event>),
    Packed { at_us: u64, shape: &'static Shape, vals: [u64; PACKED_SLOTS] },
}

impl Slot {
    fn matches(&self, filter: &EventFilter) -> bool {
        match self {
            Slot::Built(ev) => filter.matches(ev),
            Slot::Packed { shape, .. } => filter.admits(shape.source, shape.kind),
        }
    }

    /// The event this slot holds, built now if it is packed.
    fn event(&self) -> Arc<Event> {
        match self {
            Slot::Built(ev) => Arc::clone(ev),
            Slot::Packed { at_us, shape, vals } => Arc::new(shape.build(*at_us, vals)),
        }
    }
}

struct SubState {
    id: u64,
    filter: EventFilter,
    queue: VecDeque<Slot>,
}

/// The bus itself. Not public API; use the `Obs` methods.
pub struct EventBus {
    ring: VecDeque<Slot>,
    capacity: usize,
    published: u64,
    dropped: u64,
    subs: Vec<SubState>,
    next_sub: u64,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus {
            ring: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            published: 0,
            dropped: 0,
            subs: Vec::new(),
            next_sub: 0,
        }
    }
}

impl EventBus {
    pub(crate) fn publish(&mut self, ev: Event) {
        self.push(Slot::Built(Arc::new(ev)));
    }

    pub(crate) fn publish_packed(
        &mut self,
        at_us: u64,
        shape: &'static Shape,
        vals: [u64; PACKED_SLOTS],
    ) {
        self.push(Slot::Packed { at_us, shape, vals });
    }

    fn push(&mut self, slot: Slot) {
        self.published += 1;
        for sub in &mut self.subs {
            if slot.matches(&sub.filter) {
                sub.queue.push_back(slot.clone());
            }
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(slot);
    }

    pub(crate) fn subscribe(&mut self, filter: EventFilter) -> Subscription {
        let id = self.next_sub;
        self.next_sub += 1;
        self.subs.push(SubState { id, filter, queue: VecDeque::new() });
        Subscription { id }
    }

    pub(crate) fn drain(&mut self, sub: &Subscription) -> Vec<Arc<Event>> {
        match self.subs.iter_mut().find(|s| s.id == sub.id) {
            Some(s) => s.queue.drain(..).map(|slot| slot.event()).collect(),
            None => Vec::new(),
        }
    }

    pub(crate) fn unsubscribe(&mut self, sub: Subscription) {
        self.subs.retain(|s| s.id != sub.id);
    }

    pub(crate) fn snapshot(&self) -> Vec<Arc<Event>> {
        self.ring.iter().map(Slot::event).collect()
    }

    pub(crate) fn snapshot_filtered(&self, filter: &EventFilter) -> Vec<Arc<Event>> {
        self.ring.iter().filter(|slot| slot.matches(filter)).map(Slot::event).collect()
    }

    pub(crate) fn published(&self) -> u64 {
        self.published
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FieldType, Source};

    fn ev(at: u64, source: Source, kind: &'static str) -> Event {
        Event::new(at, source, kind)
    }

    #[test]
    fn subscribers_see_only_matching_events_in_order() {
        let mut bus = EventBus::default();
        let sub = bus.subscribe(EventFilter::any().source(Source::Monitor));
        bus.publish(ev(1, Source::Monitor, "trigger"));
        bus.publish(ev(2, Source::App, "image"));
        bus.publish(ev(3, Source::Monitor, "trigger"));
        let got = bus.drain(&sub);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].at_us, 1);
        assert_eq!(got[1].at_us, 3);
        assert!(bus.drain(&sub).is_empty());
    }

    #[test]
    fn subscription_opened_late_misses_earlier_events() {
        let mut bus = EventBus::default();
        bus.publish(ev(1, Source::App, "image"));
        let sub = bus.subscribe(EventFilter::any());
        bus.publish(ev(2, Source::App, "image"));
        assert_eq!(bus.drain(&sub).len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut bus = EventBus { capacity: 2, ..EventBus::default() };
        bus.publish(ev(1, Source::App, "a"));
        bus.publish(ev(2, Source::App, "b"));
        bus.publish(ev(3, Source::App, "c"));
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].at_us, 2);
        assert_eq!(bus.published(), 3);
        assert_eq!(bus.dropped(), 1);
    }

    #[test]
    fn packed_and_built_slots_are_evicted_and_counted_alike() {
        static SHAPE: Shape =
            Shape::new(Source::Simnet, "timer_fired", &[("actor", FieldType::U64)]);
        let mut bus = EventBus { capacity: 2, ..EventBus::default() };
        bus.publish_packed(1, &SHAPE, [7, 0, 0]);
        bus.publish(ev(2, Source::App, "b"));
        bus.publish_packed(3, &SHAPE, [8, 0, 0]);
        assert_eq!((bus.published(), bus.dropped()), (3, 1));
        bus.publish(ev(4, Source::App, "d"));
        assert_eq!((bus.published(), bus.dropped()), (4, 2));
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(*snap[0], ev(3, Source::Simnet, "timer_fired").with("actor", 8u64));
        assert_eq!(*snap[1], ev(4, Source::App, "d"));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut bus = EventBus::default();
        let sub = bus.subscribe(EventFilter::any());
        bus.publish(ev(1, Source::App, "a"));
        let sub_id = Subscription { id: sub.id };
        bus.unsubscribe(sub);
        bus.publish(ev(2, Source::App, "b"));
        assert!(bus.drain(&sub_id).is_empty());
    }
}
