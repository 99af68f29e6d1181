//! Kernel event tracing onto the unified observability bus.
//!
//! The kernel keeps no event log of its own: [`Trace::attach_obs`] (or
//! `Sim::attach_obs`) routes every kernel event onto the shared
//! ring-buffered bus of an [`obs::Obs`] context as a structured
//! `Source::Simnet` event, where it can be filtered, subscribed to,
//! rendered, and exported alongside the monitor/scheduler/steering/
//! application telemetry. With nothing attached, events are discarded.

use crate::actor::{ActorId, HostId};
use crate::fault::DropReason;
use crate::time::SimTime;
use obs::{Event, Obs, Source};

/// One traced kernel event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    ComputeStart {
        actor: ActorId,
        work: f64,
    },
    ComputeEnd {
        actor: ActorId,
    },
    MsgSent {
        src: ActorId,
        dst: ActorId,
        bytes: u64,
    },
    MsgDelivered {
        src: ActorId,
        dst: ActorId,
        bytes: u64,
    },
    /// An injected fault discarded a message (see [`DropReason`]).
    MsgDropped {
        src: ActorId,
        dst: ActorId,
        bytes: u64,
        reason: DropReason,
    },
    /// A scheduled down window started on the directed link.
    LinkDown {
        src: HostId,
        dst: HostId,
    },
    /// The down window ended.
    LinkUp {
        src: HostId,
        dst: HostId,
    },
    /// Every actor on the host died (revivable, unlike `Sim::kill`).
    HostCrash {
        host: HostId,
    },
    /// Crashed actors on the host came back and re-ran `on_restart`.
    HostRestart {
        host: HostId,
    },
    TimerFired {
        actor: ActorId,
        tag: u64,
    },
    CapChange {
        actor: ActorId,
        cap: Option<f64>,
    },
}

impl DropReason {
    /// Stable string used in obs event fields.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::LinkDown => "link_down",
            DropReason::ReceiverDead => "receiver_dead",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "loss" => Some(DropReason::Loss),
            "link_down" => Some(DropReason::LinkDown),
            "receiver_dead" => Some(DropReason::ReceiverDead),
            _ => None,
        }
    }
}

impl TraceEvent {
    /// Convert to a structured bus event stamped with sim time `t`.
    pub fn to_obs(&self, t: SimTime) -> Event {
        let at = t.as_us();
        match self {
            TraceEvent::ComputeStart { actor, work } => {
                Event::new(at, Source::Simnet, "compute_start")
                    .with("actor", actor.0)
                    .with("work", *work)
            }
            TraceEvent::ComputeEnd { actor } => {
                Event::new(at, Source::Simnet, "compute_end").with("actor", actor.0)
            }
            TraceEvent::MsgSent { src, dst, bytes } => Event::new(at, Source::Simnet, "msg_sent")
                .with("src", src.0)
                .with("dst", dst.0)
                .with("bytes", *bytes),
            TraceEvent::MsgDelivered { src, dst, bytes } => {
                Event::new(at, Source::Simnet, "msg_delivered")
                    .with("src", src.0)
                    .with("dst", dst.0)
                    .with("bytes", *bytes)
            }
            TraceEvent::MsgDropped { src, dst, bytes, reason } => {
                Event::new(at, Source::Simnet, "msg_dropped")
                    .with("src", src.0)
                    .with("dst", dst.0)
                    .with("bytes", *bytes)
                    .with("reason", reason.name())
            }
            TraceEvent::LinkDown { src, dst } => {
                Event::new(at, Source::Simnet, "link_down").with("src", src.0).with("dst", dst.0)
            }
            TraceEvent::LinkUp { src, dst } => {
                Event::new(at, Source::Simnet, "link_up").with("src", src.0).with("dst", dst.0)
            }
            TraceEvent::HostCrash { host } => {
                Event::new(at, Source::Simnet, "host_crash").with("host", host.0)
            }
            TraceEvent::HostRestart { host } => {
                Event::new(at, Source::Simnet, "host_restart").with("host", host.0)
            }
            TraceEvent::TimerFired { actor, tag } => Event::new(at, Source::Simnet, "timer_fired")
                .with("actor", actor.0)
                .with("tag", *tag),
            TraceEvent::CapChange { actor, cap } => {
                let ev = Event::new(at, Source::Simnet, "cap_change").with("actor", actor.0);
                match cap {
                    Some(c) => ev.with("cap", *c),
                    None => ev,
                }
            }
        }
    }

    /// Reconstruct a kernel event from a `Source::Simnet` bus event.
    /// Returns `None` for non-simnet events or unknown kinds.
    pub fn from_obs(ev: &Event) -> Option<(SimTime, TraceEvent)> {
        if ev.source != Source::Simnet {
            return None;
        }
        let t = SimTime::from_us(ev.at_us);
        let actor = || ev.u64_field("actor").map(|v| ActorId(v as usize));
        let src_actor = || ev.u64_field("src").map(|v| ActorId(v as usize));
        let dst_actor = || ev.u64_field("dst").map(|v| ActorId(v as usize));
        let src_host = || ev.u64_field("src").map(|v| HostId(v as usize));
        let dst_host = || ev.u64_field("dst").map(|v| HostId(v as usize));
        let tev = match ev.kind {
            "compute_start" => {
                TraceEvent::ComputeStart { actor: actor()?, work: ev.f64_field("work")? }
            }
            "compute_end" => TraceEvent::ComputeEnd { actor: actor()? },
            "msg_sent" => TraceEvent::MsgSent {
                src: src_actor()?,
                dst: dst_actor()?,
                bytes: ev.u64_field("bytes")?,
            },
            "msg_delivered" => TraceEvent::MsgDelivered {
                src: src_actor()?,
                dst: dst_actor()?,
                bytes: ev.u64_field("bytes")?,
            },
            "msg_dropped" => TraceEvent::MsgDropped {
                src: src_actor()?,
                dst: dst_actor()?,
                bytes: ev.u64_field("bytes")?,
                reason: DropReason::parse(ev.str_field("reason")?)?,
            },
            "link_down" => TraceEvent::LinkDown { src: src_host()?, dst: dst_host()? },
            "link_up" => TraceEvent::LinkUp { src: src_host()?, dst: dst_host()? },
            "host_crash" => {
                TraceEvent::HostCrash { host: ev.u64_field("host").map(|v| HostId(v as usize))? }
            }
            "host_restart" => {
                TraceEvent::HostRestart { host: ev.u64_field("host").map(|v| HostId(v as usize))? }
            }
            "timer_fired" => TraceEvent::TimerFired { actor: actor()?, tag: ev.u64_field("tag")? },
            "cap_change" => TraceEvent::CapChange { actor: actor()?, cap: ev.f64_field("cap") },
            _ => return None,
        };
        Some((t, tev))
    }
}

/// The kernel's trace sink: an optional attached obs context.
#[derive(Debug, Default)]
pub struct Trace {
    obs: Option<Obs>,
}

impl Trace {
    /// Route every kernel event onto `obs`'s event bus.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = Some(obs.clone());
    }

    /// The attached obs context, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    pub(crate) fn emit(&mut self, t: SimTime, ev: TraceEvent) {
        if let Some(obs) = &self.obs {
            obs.publish(ev.to_obs(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventFilter;

    #[test]
    fn bus_render_is_line_per_event() {
        let obs = Obs::new();
        let mut tr = Trace::default();
        tr.attach_obs(&obs);
        tr.emit(
            SimTime::from_us(1),
            TraceEvent::MsgSent { src: ActorId(0), dst: ActorId(1), bytes: 5 },
        );
        tr.emit(SimTime::from_us(2), TraceEvent::ComputeEnd { actor: ActorId(0) });
        assert_eq!(obs.render().lines().count(), 2);
    }

    #[test]
    fn attached_obs_receives_events_even_when_log_disabled() {
        let obs = Obs::new();
        let mut tr = Trace::default();
        tr.attach_obs(&obs);
        tr.emit(SimTime::from_us(3), TraceEvent::HostCrash { host: HostId(1) });
        let evs = obs.events_filtered(&EventFilter::any().source(Source::Simnet));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "host_crash");
        assert_eq!(evs[0].u64_field("host"), Some(1));
    }

    #[test]
    fn every_variant_round_trips_through_obs() {
        let t = SimTime::from_ms(7);
        let all = vec![
            TraceEvent::ComputeStart { actor: ActorId(1), work: 2.5 },
            TraceEvent::ComputeEnd { actor: ActorId(1) },
            TraceEvent::MsgSent { src: ActorId(0), dst: ActorId(1), bytes: 99 },
            TraceEvent::MsgDelivered { src: ActorId(0), dst: ActorId(1), bytes: 99 },
            TraceEvent::MsgDropped {
                src: ActorId(0),
                dst: ActorId(1),
                bytes: 99,
                reason: DropReason::LinkDown,
            },
            TraceEvent::LinkDown { src: HostId(0), dst: HostId(1) },
            TraceEvent::LinkUp { src: HostId(0), dst: HostId(1) },
            TraceEvent::HostCrash { host: HostId(0) },
            TraceEvent::HostRestart { host: HostId(0) },
            TraceEvent::TimerFired { actor: ActorId(2), tag: 77 },
            TraceEvent::CapChange { actor: ActorId(2), cap: Some(0.5) },
            TraceEvent::CapChange { actor: ActorId(2), cap: None },
        ];
        for ev in all {
            let bus_ev = ev.to_obs(t);
            assert_eq!(TraceEvent::from_obs(&bus_ev), Some((t, ev)));
        }
    }

    #[test]
    fn from_obs_rejects_foreign_events() {
        let ev = Event::new(1, Source::App, "image");
        assert_eq!(TraceEvent::from_obs(&ev), None);
        let ev = Event::new(1, Source::Simnet, "not_a_kind");
        assert_eq!(TraceEvent::from_obs(&ev), None);
    }
}
