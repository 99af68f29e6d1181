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
//!   scheduler (weights only: capping an actor's share is the sandbox's
//!   job) and a per-actor count of allocated memory (the sandbox turns it
//!   into a paging penalty);
//! - **links** with bandwidth and latency, FIFO store-and-forward, one
//!   record per directed host pair holding the link and its injected
//!   faults (loss, jitter, down windows);
//! - **actors** — event-driven simulated processes that compute, exchange
//!   messages, sleep, and set timers;
//! - exact **per-actor accounting** of what a reader reads — CPU time
//!   received, memory in use, the queued time of the latest inbound
//!   message — from which higher layers *infer* resource availability,
//!   exactly as the paper's monitoring agent must;
//! - every kernel event (compute, messages, timers, faults) published as
//!   a `Source::Simnet` event on an attached [`obs::Obs`] bus
//!   ([`Sim::attach_obs`]), and built only when one is attached;
//! - an **interposition hook** ([`Ctx::intercept`]) that lets a wrapper
//!   actor capture and rewrite the actions of a wrapped application — the
//!   simulation analog of the paper's Win32 API interception, used by the
//!   `sandbox` crate to build the virtual execution environment.
//!
//! Everything is deterministic: events are ordered by
//! `(time, sequence-number)` and no wall-clock or OS randomness is
//! consulted. The drain is single-threaded over one event queue:
//! [`DrainMode`] picks its `(time, insertion)` order (`Batched`, the
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

#![forbid(unsafe_code)]

pub mod actor;
pub mod cpu;
pub mod fault;
pub mod kernel;
pub mod link;
pub mod message;
pub mod time;

pub use actor::{Action, Actor, ActorId, HostId};
pub use fault::{DropReason, FaultError, FaultPlan};
pub use kernel::{Ctx, DrainMode, ExplorePlan, Sim, WireHook};
pub use link::Link;
pub use message::{DecodeError, Message};
pub use time::{dur, SimTime};

/// The types almost every simnet user needs.
pub mod prelude {
    pub use crate::actor::{Action, Actor, ActorId, HostId};
    pub use crate::fault::{DropReason, FaultError, FaultPlan};
    pub use crate::kernel::{Ctx, DrainMode, ExplorePlan, Sim};
    pub use crate::message::Message;
    pub use crate::time::{dur, SimTime};
}
