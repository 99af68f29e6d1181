//! Live control plane: runtime-tunable configuration.
//!
//! The paper's dynamic-preference negotiation (§4) needs user preferences
//! and policy knobs to change *mid-run*; everything in this module exists
//! to make that cheap, typed, and auditable:
//!
//! * [`Adaptive<T>`] — a shared, runtime-tunable value. A `u64` sits in
//!   one `AtomicU64`, so `get()` is a single atomic load and hot loops can
//!   re-read a knob every iteration. A structured payload is an `Arc<U>`
//!   behind a `Mutex`, and `get()` returns an `Arc` snapshot that stays
//!   valid (and goes stale) across later `set()`s. `set()` frees the value
//!   it replaces as soon as no snapshot holds it, so a knob can be turned
//!   forever in constant memory.
//! * [`Knob`] / [`ConfigValue`] — the dynamic typing layer. A `u64`
//!   handle (or a closure-projected facet of a payload, see [`FnKnob`])
//!   registers under a stable dotted name on a [`CommandRouter`].
//! * [`CommandRouter`] — dispatches a typed [`Command`] (`Set` or
//!   `ResetBreaker`) to the registered knobs and reset signals, and
//!   publishes an audit [`Event`] on the obs bus for every mutation *and*
//!   every refused one: who asked, which key, old value, new value, at
//!   what simulation time.
//! * [`ResetSignal`] — a monotonic counter for commands that are not
//!   value writes (breaker resets). The owner of the breaker polls it at
//!   its next deterministic decision point, so a reset issued from
//!   outside the simulation still takes effect at a legal instant.
//!
//! # Memory ordering
//!
//! `Adaptive::set` stores the new value, then bumps the version counter
//! with `Release`; `Adaptive::version` reads it with `Acquire`. A reader
//! that observes version `n` therefore observes the value of the `n`-th
//! `set` or a later one. A `u64` is one atomic word and a payload `Arc`
//! is replaced under the lock, so a racing `get` returns the old value or
//! the new one, never a torn mix.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{Event, Obs, Source};

// ---------------------------------------------------------------------------
// Adaptive<T>
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// What an [`Adaptive`] can hold: a `u64`, stored in one `AtomicU64`, or
/// an `Arc<U>`, stored behind a `Mutex` and read as a snapshot. Sealed.
pub trait Tunable: sealed::Sealed + Sized {
    #[doc(hidden)]
    type Slot;
    #[doc(hidden)]
    fn into_slot(self) -> Self::Slot;
    #[doc(hidden)]
    fn load(slot: &Self::Slot) -> Self;
    #[doc(hidden)]
    fn swap(slot: &Self::Slot, value: Self) -> Self;
}

impl sealed::Sealed for u64 {}
/// Inlined across crates: a knob read in another crate's hot loop must
/// compile to the one atomic load, not a call.
impl Tunable for u64 {
    type Slot = AtomicU64;
    #[inline]
    fn into_slot(self) -> AtomicU64 {
        AtomicU64::new(self)
    }
    #[inline]
    fn load(slot: &AtomicU64) -> Self {
        slot.load(Ordering::Acquire)
    }
    #[inline]
    fn swap(slot: &AtomicU64, value: Self) -> Self {
        slot.swap(value, Ordering::AcqRel)
    }
}
impl<U> sealed::Sealed for Arc<U> {}
/// The lock is held for one `Arc` clone or one replace, neither of which
/// can leave the slot half-written, so a poisoned lock is recovered.
impl<U> Tunable for Arc<U> {
    type Slot = Mutex<Arc<U>>;
    fn into_slot(self) -> Self::Slot {
        Mutex::new(self)
    }
    fn load(slot: &Self::Slot) -> Self {
        slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
    fn swap(slot: &Self::Slot, value: Self) -> Self {
        std::mem::replace(&mut *slot.lock().unwrap_or_else(|e| e.into_inner()), value)
    }
}

struct Inner<T: Tunable> {
    slot: T::Slot,
    /// Mutation count; 0 means "never mutated since construction".
    version: AtomicU64,
}

/// A shareable, runtime-tunable value: a `u64` or an `Arc<U>`
/// payload (see [`Tunable`]).
///
/// Clones share the same cell: a `set` through any clone is visible to
/// every other clone's next `get`.
///
/// ```
/// use obs::Adaptive;
/// use std::sync::Arc;
///
/// let knob = Adaptive::new(250_000u64);
/// let reader = knob.clone();
/// assert_eq!(reader.get(), 250_000);
/// knob.set(400_000);
/// assert_eq!(reader.get(), 400_000);
/// assert_eq!(reader.version(), 1);
///
/// let policy = Adaptive::new(Arc::new(String::from("old")));
/// let snapshot = policy.get();
/// policy.set(Arc::new(String::from("new")));
/// assert_eq!((snapshot.as_str(), policy.get().as_str()), ("old", "new"));
/// ```
pub struct Adaptive<T: Tunable> {
    inner: Arc<Inner<T>>,
}

impl<T: Tunable> Clone for Adaptive<T> {
    fn clone(&self) -> Self {
        Adaptive { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Tunable + fmt::Debug> fmt::Debug for Adaptive<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adaptive")
            .field("value", &self.get())
            .field("version", &self.version())
            .finish()
    }
}

impl<T: Tunable> Adaptive<T> {
    /// Wrap `value` in a fresh handle at version 0.
    pub fn new(value: T) -> Self {
        Adaptive { inner: Arc::new(Inner { slot: value.into_slot(), version: AtomicU64::new(0) }) }
    }

    /// The live value: one `Acquire` load for a scalar; for a payload, an
    /// `Arc` snapshot that later `set`s leave untouched.
    pub fn get(&self) -> T {
        T::load(&self.inner.slot)
    }

    /// Publish `value` as the new live value and bump the version.
    /// Returns the version the write landed as. The replaced value is
    /// freed here unless a snapshot still holds it.
    pub fn set(&self, value: T) -> u64 {
        let replaced = T::swap(&self.inner.slot, value);
        let version = self.inner.version.fetch_add(1, Ordering::Release) + 1;
        drop(replaced);
        version
    }

    /// How many times this cell has been mutated (0 = pristine).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Dynamic typing layer
// ---------------------------------------------------------------------------

/// A dynamically-typed knob value, the wire currency of [`Command`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl ConfigValue {
    /// Stable lowercase name of the payload type.
    pub fn type_name(&self) -> &'static str {
        match self {
            ConfigValue::U64(_) => "u64",
            ConfigValue::F64(_) => "f64",
            ConfigValue::Str(_) => "str",
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ConfigValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ConfigValue::F64(v) => Some(*v),
            ConfigValue::U64(v) => Some(*v as f64),
            ConfigValue::Str(_) => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigValue::U64(v) => write!(f, "{v}"),
            ConfigValue::F64(v) => write!(f, "{v}"),
            ConfigValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for ConfigValue {
    fn from(v: u64) -> Self {
        ConfigValue::U64(v)
    }
}
impl From<f64> for ConfigValue {
    fn from(v: f64) -> Self {
        ConfigValue::F64(v)
    }
}
impl From<&str> for ConfigValue {
    fn from(v: &str) -> Self {
        ConfigValue::Str(v.to_string())
    }
}
impl From<String> for ConfigValue {
    fn from(v: String) -> Self {
        ConfigValue::Str(v)
    }
}

/// Why a [`Knob`] write failed (key-agnostic; the router attaches the key
/// and converts to [`ControlError`]).
#[derive(Debug, Clone, PartialEq)]
pub enum KnobError {
    /// The supplied value's type does not match the knob's.
    TypeMismatch { expected: &'static str, got: &'static str },
    /// Right type, unacceptable value (e.g. an unparseable directive).
    BadValue(String),
}

/// A control-plane operation error, as surfaced to command issuers.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// No knob registered under this key.
    UnknownKey(String),
    /// The value's type does not match the knob's.
    TypeMismatch { key: String, expected: &'static str, got: &'static str },
    /// Right type, unacceptable value.
    BadValue { key: String, reason: String },
    /// `ResetBreaker` on a key with no registered reset signal.
    NoResetTarget(String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::UnknownKey(k) => write!(f, "unknown config key `{k}`"),
            ControlError::TypeMismatch { key, expected, got } => {
                write!(f, "config key `{key}` holds {expected}, got {got}")
            }
            ControlError::BadValue { key, reason } => {
                write!(f, "bad value for config key `{key}`: {reason}")
            }
            ControlError::NoResetTarget(k) => {
                write!(f, "no breaker reset signal registered under `{k}`")
            }
        }
    }
}

impl std::error::Error for ControlError {}

impl ControlError {
    fn from_knob(key: &str, e: KnobError) -> Self {
        match e {
            KnobError::TypeMismatch { expected, got } => {
                ControlError::TypeMismatch { key: key.to_string(), expected, got }
            }
            KnobError::BadValue(reason) => ControlError::BadValue { key: key.to_string(), reason },
        }
    }

    /// Stable machine-readable reason, used in `config_reject` audit
    /// events.
    pub fn reason(&self) -> &'static str {
        match self {
            ControlError::UnknownKey(_) => "unknown_key",
            ControlError::TypeMismatch { .. } => "type_mismatch",
            ControlError::BadValue { .. } => "bad_value",
            ControlError::NoResetTarget(_) => "no_reset_target",
        }
    }
}

/// A named, dynamically-typed view over an [`Adaptive`] cell.
///
/// The router holds its lock across a write, so writes to one knob never
/// race each other.
pub trait Knob: Send + Sync {
    /// Replace the value. Returns the old value and the cell's mutation
    /// count after the write.
    fn write(&self, value: ConfigValue) -> Result<(ConfigValue, u64), KnobError>;
}

impl Knob for Adaptive<u64> {
    fn write(&self, value: ConfigValue) -> Result<(ConfigValue, u64), KnobError> {
        let v = value
            .as_u64()
            .ok_or(KnobError::TypeMismatch { expected: "u64", got: value.type_name() })?;
        let old = self.get();
        Ok((ConfigValue::U64(old), self.set(v)))
    }
}

/// Closure-projected knob over an `Arc<U>` payload: exposes one
/// dynamically-typed facet of it (e.g. the `multiplier` field of a retry
/// policy, or a preference list as its directive string) under its own
/// router key.
///
/// A write clones the current payload, applies the projection, and
/// republishes the whole value — readers still see old-or-new atomically.
pub struct FnKnob<U> {
    handle: Adaptive<Arc<U>>,
    read: Box<dyn Fn(&U) -> ConfigValue + Send + Sync>,
    #[allow(clippy::type_complexity)]
    write: Box<dyn Fn(&mut U, ConfigValue) -> Result<(), KnobError> + Send + Sync>,
}

impl<U> FnKnob<U> {
    pub fn new(
        handle: Adaptive<Arc<U>>,
        read: impl Fn(&U) -> ConfigValue + Send + Sync + 'static,
        write: impl Fn(&mut U, ConfigValue) -> Result<(), KnobError> + Send + Sync + 'static,
    ) -> Self {
        FnKnob { handle, read: Box::new(read), write: Box::new(write) }
    }
}

impl<U: Clone + Send + Sync> Knob for FnKnob<U> {
    fn write(&self, value: ConfigValue) -> Result<(ConfigValue, u64), KnobError> {
        let old = self.handle.get();
        let mut next = U::clone(&old);
        (self.write)(&mut next, value)?;
        Ok(((self.read)(&old), self.handle.set(Arc::new(next))))
    }
}

// ---------------------------------------------------------------------------
// Reset signals
// ---------------------------------------------------------------------------

/// A monotonic request counter for commands that are *actions*, not
/// value writes (today: forcing a circuit breaker to probe/close).
///
/// The issuer calls [`request`](Self::request); the owning component
/// polls [`take`](Self::take) with its own last-seen cursor at its next
/// deterministic decision point, so the action lands at a legal instant
/// of the simulation rather than asynchronously.
#[derive(Clone, Debug, Default)]
pub struct ResetSignal {
    requests: Arc<AtomicU64>,
}

impl ResetSignal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue one reset request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Release);
    }

    /// Total requests ever issued.
    pub fn pending(&self) -> u64 {
        self.requests.load(Ordering::Acquire)
    }

    /// Poll for new requests since `*seen`; advances the cursor and
    /// returns true when at least one arrived.
    pub fn take(&self, seen: &mut u64) -> bool {
        let n = self.pending();
        if n > *seen {
            *seen = n;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Commands and the router
// ---------------------------------------------------------------------------

/// A typed control-plane command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Write `value` to the knob registered under `key`.
    Set { key: String, value: ConfigValue },
    /// Ask the breaker registered under `key` to probe/close at its next
    /// legal instant.
    ResetBreaker { key: String },
}

impl Command {
    /// Convenience constructor for the common case.
    pub fn set(key: impl Into<String>, value: impl Into<ConfigValue>) -> Self {
        Command::Set { key: key.into(), value: value.into() }
    }
}

/// What a successfully dispatched [`Command`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// `Set`: the knob was updated from `old` to `new`; `version` is the
    /// cell's mutation count after the write.
    Updated { key: String, old: ConfigValue, new: ConfigValue, version: u64 },
    /// `ResetBreaker`: the request was recorded for the owner to poll.
    ResetIssued { key: String },
}

/// What a router dispatches to, each map keyed by its stable dotted name.
#[derive(Default)]
struct Targets {
    knobs: BTreeMap<String, Box<dyn Knob>>,
    resets: BTreeMap<String, ResetSignal>,
}

/// Dispatches [`Command`]s to the knobs and [`ResetSignal`]s registered on
/// it, publishing an audit event on the obs bus for every mutation and
/// every refused one. Clones share the registrations.
///
/// Audit kinds (all `Source::Control`):
/// * `config_set` — who, key, old, new, version
/// * `config_reject` — who, key, attempted (a refused `Set`), reason
/// * `breaker_reset` — who, key
#[derive(Clone)]
pub struct CommandRouter {
    targets: Arc<Mutex<Targets>>,
    obs: Obs,
}

/// Lists the registered keys, key-sorted.
impl fmt::Debug for CommandRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let targets = self.lock();
        f.debug_struct("CommandRouter")
            .field("knobs", &targets.knobs.keys().collect::<Vec<_>>())
            .field("resets", &targets.resets.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CommandRouter {
    /// A router with nothing registered that audits onto `obs`.
    pub fn new(obs: &Obs) -> Self {
        CommandRouter { targets: Arc::default(), obs: obs.clone() }
    }

    fn lock(&self) -> MutexGuard<'_, Targets> {
        self.targets.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register `knob` under `key`, replacing any previous registration.
    pub fn register_knob(&self, key: impl Into<String>, knob: impl Knob + 'static) {
        self.lock().knobs.insert(key.into(), Box::new(knob));
    }

    /// Register the reset signal owned by the breaker at `key`.
    pub fn register_reset(&self, key: impl Into<String>, signal: ResetSignal) {
        self.lock().resets.insert(key.into(), signal);
    }

    /// Dispatch one command at simulation time `at_us` on behalf of
    /// `who`, and audit it.
    pub fn dispatch(
        &self,
        at_us: u64,
        who: &str,
        cmd: Command,
    ) -> Result<CommandOutcome, ControlError> {
        let audit = |kind: &'static str, key: &str| {
            Event::new(at_us, Source::Control, kind).with("who", who).with("key", key)
        };
        match cmd {
            Command::Set { key, value } => {
                let written = match self.lock().knobs.get(&key) {
                    Some(knob) => {
                        knob.write(value.clone()).map_err(|e| ControlError::from_knob(&key, e))
                    }
                    None => Err(ControlError::UnknownKey(key.clone())),
                };
                match written {
                    Ok((old, version)) => {
                        self.obs.publish(
                            audit("config_set", &key)
                                .with("old", old.to_string())
                                .with("new", value.to_string())
                                .with("version", version),
                        );
                        Ok(CommandOutcome::Updated { key, old, new: value, version })
                    }
                    Err(e) => {
                        self.obs.publish(
                            audit("config_reject", &key)
                                .with("attempted", value.to_string())
                                .with("reason", e.reason()),
                        );
                        Err(e)
                    }
                }
            }
            Command::ResetBreaker { key } => {
                if self.lock().resets.get(&key).map(ResetSignal::request).is_some() {
                    self.obs.publish(audit("breaker_reset", &key));
                    return Ok(CommandOutcome::ResetIssued { key });
                }
                let e = ControlError::NoResetTarget(key.clone());
                self.obs.publish(audit("config_reject", &key).with("reason", e.reason()));
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventFilter;

    #[test]
    fn adaptive_get_set_version() {
        let a = Adaptive::new(7u64);
        let b = a.clone();
        assert_eq!(a.get(), 7);
        assert_eq!(a.version(), 0);
        assert_eq!(b.set(9), 1);
        assert_eq!(a.get(), 9);
        assert_eq!(a.version(), 1);
    }

    #[test]
    fn adaptive_set_frees_what_it_replaces() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Counted(u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        const N: u64 = 1_000_000;
        let a = Adaptive::new(Arc::new(Counted(0)));
        for k in 1..=N {
            a.set(Arc::new(Counted(k)));
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), N, "every replaced value is freed");
        assert_eq!(a.get().0, N, "the live one is not");
        drop(a);
        assert_eq!(DROPS.load(Ordering::Relaxed), N + 1, "the handle frees the live value");

        // A snapshot outlives the set that replaces its value, reads the
        // old value, and is that value's last owner.
        let b = Adaptive::new(Arc::new(Counted(0)));
        let snapshot = b.get();
        b.set(Arc::new(Counted(1)));
        assert_eq!((snapshot.0, b.get().0), (0, 1));
        assert_eq!(DROPS.load(Ordering::Relaxed), N + 1);
        assert_eq!(Arc::strong_count(&snapshot), 1);
        drop(snapshot);
        assert_eq!(DROPS.load(Ordering::Relaxed), N + 2);
    }

    #[test]
    fn adaptive_non_copy_values() {
        let a = Adaptive::new(Arc::new(vec![1, 2, 3]));
        a.set(Arc::new(vec![4]));
        assert_eq!(a.get().as_slice(), &[4]);
        assert_eq!(a.version(), 1);
    }

    #[test]
    fn registry_set_get_and_errors() {
        let router = CommandRouter::new(&Obs::new());
        let knob = Adaptive::new(5u64);
        router.register_knob("a.u", knob.clone());
        assert_eq!(
            router.dispatch(0, "user", Command::set("a.u", 6u64)),
            Ok(CommandOutcome::Updated {
                key: "a.u".into(),
                old: ConfigValue::U64(5),
                new: ConfigValue::U64(6),
                version: 1,
            })
        );
        assert_eq!(knob.get(), 6);
        assert_eq!(
            router.dispatch(0, "user", Command::set("missing", 1u64)),
            Err(ControlError::UnknownKey("missing".into()))
        );
        for (value, got) in [(ConfigValue::from("nope"), "str"), (ConfigValue::F64(3.0), "f64")] {
            assert_eq!(
                router.dispatch(0, "user", Command::Set { key: "a.u".into(), value }),
                Err(ControlError::TypeMismatch { key: "a.u".into(), expected: "u64", got })
            );
        }
        assert_eq!((knob.get(), knob.version()), (6, 1), "refused writes leave the cell");
    }

    #[test]
    fn fn_knob_projects_a_field() {
        #[derive(Clone, Debug, PartialEq)]
        struct Policy {
            factor: f64,
            cap_us: u64,
        }
        let handle = Adaptive::new(Arc::new(Policy { factor: 2.0, cap_us: 100 }));
        let knob = FnKnob::new(
            handle.clone(),
            |p: &Policy| ConfigValue::U64(p.cap_us),
            |p: &mut Policy, v: ConfigValue| {
                p.cap_us = v
                    .as_u64()
                    .ok_or(KnobError::TypeMismatch { expected: "u64", got: v.type_name() })?;
                Ok(())
            },
        );
        assert_eq!(knob.write(ConfigValue::U64(250)), Ok((ConfigValue::U64(100), 1)));
        assert_eq!(*handle.get(), Policy { factor: 2.0, cap_us: 250 });
        assert_eq!(handle.version(), 1);
    }

    #[test]
    fn router_audits_sets_rejects_and_resets() {
        let obs = Obs::new();
        let router = CommandRouter::new(&obs);
        router.register_knob("breaker.recovery_us", Adaptive::new(500_000u64));
        let signal = ResetSignal::new();
        router.register_reset("client.breaker", signal.clone());

        router.dispatch(10, "user", Command::set("breaker.recovery_us", 250_000u64)).unwrap();
        let err =
            router.dispatch(20, "user", Command::set("breaker.recovery_us", "soon")).unwrap_err();
        assert_eq!(err.reason(), "type_mismatch");
        router.dispatch(30, "op", Command::ResetBreaker { key: "client.breaker".into() }).unwrap();
        assert_eq!(signal.pending(), 1);
        let err = router
            .dispatch(40, "op", Command::ResetBreaker { key: "server.breaker".into() })
            .unwrap_err();
        assert_eq!(err, ControlError::NoResetTarget("server.breaker".into()));

        let audit = obs.events_filtered(&EventFilter::control_audit());
        let kinds: Vec<&str> = audit.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["config_set", "config_reject", "breaker_reset", "config_reject"]);
        let set = &audit[0];
        assert_eq!(set.at_us, 10);
        assert_eq!(set.str_field("who"), Some("user"));
        assert_eq!(set.str_field("key"), Some("breaker.recovery_us"));
        assert_eq!(set.str_field("old"), Some("500000"));
        assert_eq!(set.str_field("new"), Some("250000"));
        assert_eq!(set.u64_field("version"), Some(1));
        assert_eq!(audit[1].str_field("attempted"), Some("soon"));
        assert_eq!(audit[1].str_field("reason"), Some("type_mismatch"));
        assert_eq!(audit[2].str_field("key"), Some("client.breaker"));
        assert_eq!(audit[3].str_field("reason"), Some("no_reset_target"));
    }

    #[test]
    fn unknown_key_set_is_rejected_and_audited() {
        let obs = Obs::new();
        let router = CommandRouter::new(&obs);
        let err = router.dispatch(5, "user", Command::set("nope", 1u64)).unwrap_err();
        assert_eq!(err, ControlError::UnknownKey("nope".into()));
        let audit = obs.events();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].kind, "config_reject");
        assert_eq!(audit[0].str_field("reason"), Some("unknown_key"));
    }

    #[test]
    fn reset_signal_take_is_edge_triggered() {
        let s = ResetSignal::new();
        let mut seen = 0;
        assert!(!s.take(&mut seen));
        s.request();
        s.request();
        assert!(s.take(&mut seen));
        assert!(!s.take(&mut seen), "cursor advanced past both requests");
        s.request();
        assert!(s.take(&mut seen));
    }

    #[test]
    fn concurrent_get_under_racing_set_is_old_or_new() {
        // Four readers race one writer whose k-th `set` publishes payload
        // k. Each reader's versions and payloads never go backwards, a
        // payload read right after version v is at least v, and the wide
        // payload's two halves always agree.
        const SETS: u64 = 1_000_000;
        fn hammer<T: Tunable>(
            cell: &Adaptive<T>,
            publish: impl Fn(u64) -> T,
            read: impl Fn(T) -> u64 + Sync,
        ) where
            Adaptive<T>: Sync,
        {
            let started = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        started.fetch_add(1, Ordering::Release);
                        let (mut last_v, mut last_p) = (0, 0);
                        while last_v < SETS {
                            let v = cell.version();
                            let p = read(cell.get());
                            assert!(v >= last_v && p >= last_p, "a read went backwards");
                            assert!(p >= v, "payload {p} read after version {v}");
                            (last_v, last_p) = (v, p);
                        }
                    });
                }
                // On a one- or two-core host the sets could all finish
                // before a reader is first scheduled: start writing only
                // once every reader is running.
                while started.load(Ordering::Acquire) < 4 {
                    std::thread::yield_now();
                }
                for k in 1..=SETS {
                    cell.set(publish(k));
                }
            });
            assert_eq!(cell.version(), SETS);
        }
        hammer(&Adaptive::new(0u64), |k| k, |p| p);
        hammer(
            &Adaptive::new(Arc::new((0u64, 0u64))),
            |k| Arc::new((k, k)),
            |p| {
                assert_eq!(p.0, p.1, "torn read: halves diverged");
                p.0
            },
        );
    }
}
