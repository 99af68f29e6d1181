//! # simnet — deterministic discrete-event simulation of distributed systems
//!
//! `simnet` is the hardware substrate for the adaptive-framework
//! reproduction of *Chang & Karamcheti, "Automatic Configuration and
//! Run-time Adaptation of Distributed Applications" (HPDC 2000)*. The
//! original system ran on Windows NT machines connected by 100 Mbps
//! Ethernet; this crate provides the equivalent controllable platform as a
//! simulation:
//!
//! - **hosts** with a configurable speed, a fluid proportional-share CPU
//!   scheduler (with hard share caps — an idealized fair-share OS), and a
//!   simple memory model with paging penalties;
//! - **links** with bandwidth and latency, FIFO store-and-forward;
//! - **actors** — event-driven simulated processes that compute, exchange
//!   messages, sleep, and set timers;
//! - exact **per-actor accounting** (CPU time received, wall time, bytes
//!   moved, transfer log) from which higher layers *infer* resource
//!   availability, exactly as the paper's monitoring agent must;
//! - an **interposition hook** ([`Ctx::drain_actions`]) that lets a wrapper
//!   actor capture and rewrite the actions of a wrapped application — the
//!   simulation analog of the paper's Win32 API interception, used by the
//!   `sandbox` crate to build the virtual execution environment.
//!
//! Everything is deterministic: events are ordered by
//! `(time, sequence-number)` and no wall-clock or OS randomness is
//! consulted. The drain is single-threaded: [`DrainMode`] only picks the
//! queue's data structure (`Heap` is the reference order, `Batched` the
//! default) or a seeded perturbation of it (`Explore`); `DESIGN.md` §14
//! records why there is no parallel drain.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Sim, Actor, Ctx, Message, ActorId, SimTime};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
//!         ctx.send(from, Message::signal(msg.tag + 1, msg.wire_bytes));
//!     }
//! }
//!
//! struct Client { server: ActorId }
//! impl Actor for Client {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.compute(1000.0);                       // 1ms of work
//!         ctx.send(self.server, Message::signal(0, 1500));
//!     }
//! }
//!
//! let mut sim = Sim::new();
//! let h1 = sim.add_host("client", 1.0, 1 << 30);
//! let h2 = sim.add_host("server", 1.0, 1 << 30);
//! sim.set_link(h1, h2, 12_500_000.0, 100); // 100 Mbps, 100us
//! let server = sim.spawn(h2, Box::new(Echo));
//! sim.spawn(h1, Box::new(Client { server }));
//! sim.run_until_idle();
//! assert!(sim.now() > SimTime::ZERO);
//! ```

pub mod accounting;
pub mod actor;
pub mod cpu;
pub mod det;
pub mod fault;
pub mod kernel;
pub mod link;
pub mod message;
pub mod time;
pub mod trace;

pub use accounting::{Accounting, Dir, Snapshot, Transfer};
pub use actor::{Action, Actor, ActorId, HostId};
pub use fault::{DropReason, FaultError, FaultPlan};
pub use kernel::{Ctx, DrainMode, ExplorePlan, Sim, WireHook};
pub use link::{FlowSched, Link, LinkMode};
pub use message::{DecodeError, Message};
pub use time::{dur, SimTime};
pub use trace::{Trace, TraceEvent};

/// The types almost every simnet user needs.
pub mod prelude {
    pub use crate::actor::{Action, Actor, ActorId, HostId};
    pub use crate::fault::{DropReason, FaultError, FaultPlan};
    pub use crate::kernel::{Ctx, DrainMode, ExplorePlan, Sim};
    pub use crate::link::LinkMode;
    pub use crate::message::Message;
    pub use crate::time::{dur, SimTime};
    pub use crate::trace::TraceEvent;
}
