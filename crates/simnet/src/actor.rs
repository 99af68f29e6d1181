//! The actor model: simulated processes are event-driven actors.
//!
//! An [`Actor`] reacts to events (start, message arrival, timer expiry,
//! continuation) by enqueuing *actions* — compute requests, message sends,
//! sleeps — onto its private action queue via [`Ctx`].
//! The kernel executes each actor's actions strictly in order, charging
//! compute time through the host's proportional-share CPU scheduler and
//! send time through the link model. While the action queue is non-empty
//! the actor is *busy*; inbound messages queue up and are delivered one at
//! a time once it drains. Timers, in contrast, fire immediately (they model
//! a concurrent monitoring thread, as used by the paper's monitoring agent).

use crate::kernel::Ctx;
use crate::message::Message;

/// Identifies an actor within a simulation. Stable for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Identifies a host within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// A simulated process. All methods have empty default bodies so actors
/// implement only the events they care about.
///
/// Actors are `Send`, which is what makes a whole
/// [`Sim`](crate::kernel::Sim) `Send`. The kernel itself is
/// single-threaded and never moves an actor between threads; the bound is
/// kept because relaxing a public bound is a decision of its own, and it
/// means actor state holds no thread-bound types (`Rc`, `RefCell`, raw
/// pointers) — share handles through `Arc<Mutex<..>>`.
pub trait Actor: Send {
    /// Invoked once when the simulation starts (time zero) or, for actors
    /// spawned later, at spawn time.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Invoked when the actor's crashed host restarts (the end of a
    /// [`FaultPlan::with_crash`](crate::FaultPlan::with_crash)). The
    /// default re-runs [`Actor::on_start`]; implementors with in-memory
    /// session state should reset it here, since a restarted process
    /// would come back empty.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }

    /// A message has been delivered. Called only when the actor's action
    /// queue is empty (messages wait for the actor to go idle).
    fn on_message(&mut self, _from: ActorId, _msg: Message, _ctx: &mut Ctx<'_>) {}

    /// A timer set through [`Ctx::set_timer`] has fired. Fires even while
    /// the actor is busy (interrupt/monitoring-thread semantics); handlers
    /// should restrict themselves to bookkeeping and `send_now`.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}

    /// A `continue_with` action enqueued earlier has been reached in the
    /// action queue: all actions before it have completed.
    fn on_continue(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
}

/// An entry in an actor's serial action queue.
///
/// Public so interposition layers (the sandbox) can intercept, inspect,
/// rewrite and re-emit an application's actions — see
/// [`Ctx::intercept`](crate::kernel::Ctx::intercept).
#[derive(Debug)]
pub enum Action {
    /// Consume `work` work-units on the actor's host CPU.
    Compute { work: f64 },
    /// Transmit a message to `dst` (possibly on another host).
    Send { dst: ActorId, msg: Message },
    /// Do nothing for `us` microseconds (wall-clock idle).
    Sleep { us: u64 },
    /// Invoke `on_continue(tag)` once reached.
    Continue { tag: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(ActorId(1) < ActorId(2));
        assert_eq!(ActorId(3).to_string(), "actor#3");
        assert_eq!(HostId(0).to_string(), "host#0");
    }
}
