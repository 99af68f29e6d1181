//! Live control plane: runtime-tunable configuration.
//!
//! The paper's dynamic-preference negotiation (§4) needs user preferences
//! and policy knobs to change *mid-run*; everything in this module exists
//! to make that cheap, typed, and auditable:
//!
//! * [`Adaptive<T>`] — a shared, runtime-tunable value. A [`Scalar`]
//!   (`u64`, `f64`, `bool`) is stored as bits in one `AtomicU64`, so
//!   `get()` is a single atomic load and hot loops can re-read a knob
//!   every iteration. A structured payload is an `Arc<U>` behind a
//!   `Mutex`, and `get()` returns an `Arc` snapshot that stays valid
//!   (and goes stale) across later `set()`s. `set()` frees the value it
//!   replaces as soon as no snapshot holds it, so a knob can be turned
//!   forever in constant memory.
//! * [`Knob`] / [`ConfigValue`] — the dynamic typing layer. Each scalar
//!   handle (or a closure-projected field of a payload, see [`FnKnob`])
//!   registers under a stable dotted name in a [`ConfigRegistry`].
//! * [`CommandRouter`] — dispatches a typed [`Command`]
//!   (`Set`/`Get`/`ListConfig`/`ResetBreaker`/`PinConfig`/`Unpin`) to the
//!   registered knobs and publishes an audit [`Event`] on the obs bus for
//!   every mutation *and* every rejected mutation: who asked, which key,
//!   old value, new value, at what simulation time.
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
//! `set` or a later one. A scalar is one atomic word and a payload `Arc`
//! is replaced under the lock, so a racing `get` returns the old value or
//! the new one, never a torn mix.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Event, Obs, Source};

// ---------------------------------------------------------------------------
// Adaptive<T>
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// What an [`Adaptive`] can hold: a [`Scalar`], stored as bits in one
/// `AtomicU64`, or an `Arc<U>`, stored behind a `Mutex` and read as a
/// snapshot. Sealed.
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

/// The scalar knob types: `u64`, `f64` and `bool`. Sealed.
pub trait Scalar: sealed::Sealed + Copy + Into<ConfigValue> {
    #[doc(hidden)]
    fn to_bits(self) -> u64;
    #[doc(hidden)]
    fn from_bits(bits: u64) -> Self;
    #[doc(hidden)]
    fn from_config(value: &ConfigValue) -> Option<Self>;
}

macro_rules! scalar {
    ($($t:ty: $as:ident, $to:path, |$bits:ident| $from:expr;)*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            fn to_bits(self) -> u64 {
                $to(self)
            }
            fn from_bits($bits: u64) -> Self {
                $from
            }
            fn from_config(value: &ConfigValue) -> Option<Self> {
                value.$as()
            }
        }
    )*};
}

scalar! {
    u64: as_u64, u64::from, |bits| bits;
    f64: as_f64, f64::to_bits, |bits| f64::from_bits(bits);
    bool: as_bool, u64::from, |bits| bits != 0;
}

impl<S: Scalar> Tunable for S {
    type Slot = AtomicU64;
    fn into_slot(self) -> AtomicU64 {
        AtomicU64::new(self.to_bits())
    }
    fn load(slot: &AtomicU64) -> Self {
        S::from_bits(slot.load(Ordering::Acquire))
    }
    fn swap(slot: &AtomicU64, value: Self) -> Self {
        S::from_bits(slot.swap(value.to_bits(), Ordering::AcqRel))
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

/// A shareable, runtime-tunable value: a [`Scalar`] or an `Arc<U>`
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
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl ConfigValue {
    /// Stable lowercase name of the payload type.
    pub fn type_name(&self) -> &'static str {
        match self {
            ConfigValue::U64(_) => "u64",
            ConfigValue::I64(_) => "i64",
            ConfigValue::F64(_) => "f64",
            ConfigValue::Bool(_) => "bool",
            ConfigValue::Str(_) => "str",
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ConfigValue::U64(v) => Some(*v),
            ConfigValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ConfigValue::F64(v) => Some(*v),
            ConfigValue::U64(v) => Some(*v as f64),
            ConfigValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            ConfigValue::Bool(v) => Some(*v),
            _ => None,
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
            ConfigValue::I64(v) => write!(f, "{v}"),
            ConfigValue::F64(v) => write!(f, "{v}"),
            ConfigValue::Bool(v) => write!(f, "{v}"),
            ConfigValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for ConfigValue {
    fn from(v: u64) -> Self {
        ConfigValue::U64(v)
    }
}
impl From<i64> for ConfigValue {
    fn from(v: i64) -> Self {
        ConfigValue::I64(v)
    }
}
impl From<f64> for ConfigValue {
    fn from(v: f64) -> Self {
        ConfigValue::F64(v)
    }
}
impl From<bool> for ConfigValue {
    fn from(v: bool) -> Self {
        ConfigValue::Bool(v)
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

/// Why a [`Knob`] write failed (key-agnostic; the registry attaches the
/// key and converts to [`ControlError`]).
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
    /// The key is pinned by an operator; `Set` is refused until `Unpin`.
    Pinned { key: String, by: String },
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
            ControlError::Pinned { key, by } => {
                write!(f, "config key `{key}` is pinned by `{by}`")
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
            ControlError::Pinned { .. } => "pinned",
            ControlError::BadValue { .. } => "bad_value",
            ControlError::NoResetTarget(_) => "no_reset_target",
        }
    }
}

/// A named, dynamically-typed view over an [`Adaptive`] cell.
///
/// Implementations must make `write` serialize against itself (the
/// registry guarantees this by holding its lock across dispatch).
pub trait Knob: Send + Sync {
    /// Current value, rendered dynamically.
    fn read(&self) -> ConfigValue;
    /// Replace the value; returns the old value on success.
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError>;
    /// Stable name of the underlying type ("u64", "f64", ...).
    fn type_name(&self) -> &'static str;
    /// Mutation count of the underlying cell.
    fn version(&self) -> u64;
}

/// Every scalar handle is a knob of its own type. A non-finite `f64` is
/// refused as a bad value: no threshold or margin means anything at NaN.
impl<S: Scalar> Knob for Adaptive<S> {
    fn read(&self) -> ConfigValue {
        self.get().into()
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let old = self.read();
        let v = S::from_config(&value)
            .ok_or(KnobError::TypeMismatch { expected: old.type_name(), got: value.type_name() })?;
        if matches!(value, ConfigValue::F64(x) if !x.is_finite()) {
            return Err(KnobError::BadValue(format!("{value} is not finite")));
        }
        self.set(v);
        Ok(old)
    }
    fn type_name(&self) -> &'static str {
        self.read().type_name()
    }
    fn version(&self) -> u64 {
        Adaptive::version(self)
    }
}

/// Closure-projected knob over an `Arc<U>` payload: exposes one
/// dynamically-typed facet of it (e.g. the `max_timeout_us` field of a
/// retry policy, or a preference list as its directive string) under its
/// own registry key.
///
/// A write clones the current payload, applies the projection, and
/// republishes the whole value — readers still see old-or-new atomically.
pub struct FnKnob<U> {
    handle: Adaptive<Arc<U>>,
    type_name: &'static str,
    read: Box<dyn Fn(&U) -> ConfigValue + Send + Sync>,
    #[allow(clippy::type_complexity)]
    write: Box<dyn Fn(&mut U, ConfigValue) -> Result<(), KnobError> + Send + Sync>,
}

impl<U> FnKnob<U> {
    pub fn new(
        handle: Adaptive<Arc<U>>,
        type_name: &'static str,
        read: impl Fn(&U) -> ConfigValue + Send + Sync + 'static,
        write: impl Fn(&mut U, ConfigValue) -> Result<(), KnobError> + Send + Sync + 'static,
    ) -> Self {
        FnKnob { handle, type_name, read: Box::new(read), write: Box::new(write) }
    }
}

impl<U: Clone + Send + Sync> Knob for FnKnob<U> {
    fn read(&self) -> ConfigValue {
        (self.read)(&self.handle.get())
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let old = self.handle.get();
        let mut next = U::clone(&old);
        (self.write)(&mut next, value)?;
        self.handle.set(Arc::new(next));
        Ok((self.read)(&old))
    }
    fn type_name(&self) -> &'static str {
        self.type_name
    }
    fn version(&self) -> u64 {
        self.handle.version()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct RegEntry {
    knob: Arc<dyn Knob>,
    pinned_by: Option<String>,
}

/// One row of a `ListConfig` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEntry {
    pub key: String,
    pub value: ConfigValue,
    pub type_name: &'static str,
    pub version: u64,
    /// `Some(operator)` while the key is pinned.
    pub pinned_by: Option<String>,
}

/// A registry of named typed knobs. Clones share state; iteration order
/// is the keys' lexicographic order (BTreeMap), so `ListConfig` output is
/// deterministic.
#[derive(Clone, Default)]
pub struct ConfigRegistry {
    inner: Arc<Mutex<BTreeMap<String, RegEntry>>>,
}

impl fmt::Debug for ConfigRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keys: Vec<String> = self.lock().keys().cloned().collect();
        f.debug_struct("ConfigRegistry").field("keys", &keys).finish()
    }
}

impl ConfigRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, RegEntry>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register `knob` under `key`, replacing any previous registration.
    pub fn register(&self, key: impl Into<String>, knob: Arc<dyn Knob>) {
        self.lock().insert(key.into(), RegEntry { knob, pinned_by: None });
    }

    /// Convenience: register an owned knob value.
    pub fn register_knob(&self, key: impl Into<String>, knob: impl Knob + 'static) {
        self.register(key, Arc::new(knob));
    }

    /// Is `key` registered?
    pub fn contains(&self, key: &str) -> bool {
        self.lock().contains_key(key)
    }

    /// Current value of `key`.
    pub fn get(&self, key: &str) -> Result<ConfigValue, ControlError> {
        self.lock()
            .get(key)
            .map(|e| e.knob.read())
            .ok_or_else(|| ControlError::UnknownKey(key.to_string()))
    }

    /// Write `value` to `key`. Refused while the key is pinned. Returns
    /// `(old_value, new_version)`.
    pub fn set(&self, key: &str, value: ConfigValue) -> Result<(ConfigValue, u64), ControlError> {
        let map = self.lock();
        let entry = map.get(key).ok_or_else(|| ControlError::UnknownKey(key.to_string()))?;
        if let Some(by) = &entry.pinned_by {
            return Err(ControlError::Pinned { key: key.to_string(), by: by.clone() });
        }
        let old = entry.knob.write(value).map_err(|e| ControlError::from_knob(key, e))?;
        Ok((old, entry.knob.version()))
    }

    /// Pin `key`: subsequent `Set`s are refused until a `Command::Unpin`.
    /// Re-pinning overwrites the pin owner.
    pub fn pin(&self, key: &str, who: &str) -> Result<(), ControlError> {
        let mut map = self.lock();
        let entry = map.get_mut(key).ok_or_else(|| ControlError::UnknownKey(key.to_string()))?;
        entry.pinned_by = Some(who.to_string());
        Ok(())
    }

    /// Remove the pin on `key` (idempotent on an unpinned key).
    pub(crate) fn unpin(&self, key: &str) -> Result<(), ControlError> {
        let mut map = self.lock();
        let entry = map.get_mut(key).ok_or_else(|| ControlError::UnknownKey(key.to_string()))?;
        entry.pinned_by = None;
        Ok(())
    }

    /// Deterministic snapshot of every registered knob, key-sorted.
    pub fn list(&self) -> Vec<ConfigEntry> {
        self.lock()
            .iter()
            .map(|(key, e)| ConfigEntry {
                key: key.clone(),
                value: e.knob.read(),
                type_name: e.knob.type_name(),
                version: e.knob.version(),
                pinned_by: e.pinned_by.clone(),
            })
            .collect()
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
    /// Read the knob registered under `key`.
    Get { key: String },
    /// Copy out every registered knob, key-sorted.
    ListConfig,
    /// Ask the breaker registered under `key` to probe/close at its next
    /// legal instant.
    ResetBreaker { key: String },
    /// Operator pin: refuse `Set`s on `key` until `Unpin`.
    PinConfig { key: String },
    /// Remove an operator pin.
    Unpin { key: String },
}

impl Command {
    /// Convenience constructor for the common case.
    pub fn set(key: impl Into<String>, value: impl Into<ConfigValue>) -> Self {
        Command::Set { key: key.into(), value: value.into() }
    }

    /// The key this command targets (`None` for `ListConfig`).
    pub fn key(&self) -> Option<&str> {
        match self {
            Command::Set { key, .. }
            | Command::Get { key }
            | Command::ResetBreaker { key }
            | Command::PinConfig { key }
            | Command::Unpin { key } => Some(key),
            Command::ListConfig => None,
        }
    }
}

/// What a successfully dispatched [`Command`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// `Set`: the knob was updated from `old` to `new`; `version` is the
    /// cell's mutation count after the write.
    Updated { key: String, old: ConfigValue, new: ConfigValue, version: u64 },
    /// `Get`: the current value.
    Value { key: String, value: ConfigValue },
    /// `ListConfig`: the deterministic snapshot.
    Listing(Vec<ConfigEntry>),
    /// `ResetBreaker`: the request was recorded for the owner to poll.
    ResetIssued { key: String },
    /// `PinConfig` succeeded.
    Pinned { key: String },
    /// `Unpin` succeeded.
    Unpinned { key: String },
}

/// Dispatches [`Command`]s to a [`ConfigRegistry`] (and registered
/// [`ResetSignal`]s), publishing an audit event on the obs bus for every
/// mutation and every rejected mutation.
///
/// Audit kinds (all `Source::Control`):
/// * `config_set` — who, key, old, new, version
/// * `config_reject` — who, key, reason
/// * `config_pin` / `config_unpin` — who, key
/// * `breaker_reset` — who, key
#[derive(Clone, Default)]
pub struct CommandRouter {
    registry: ConfigRegistry,
    resets: Arc<Mutex<BTreeMap<String, ResetSignal>>>,
    obs: Option<Obs>,
}

impl fmt::Debug for CommandRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommandRouter")
            .field("registry", &self.registry)
            .field("audited", &self.obs.is_some())
            .finish()
    }
}

impl CommandRouter {
    pub fn new(registry: ConfigRegistry) -> Self {
        CommandRouter { registry, resets: Arc::default(), obs: None }
    }

    /// Attach the obs bus that receives audit events (builder-style).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = Some(obs.clone());
        self
    }

    /// The registry this router dispatches into.
    pub fn registry(&self) -> &ConfigRegistry {
        &self.registry
    }

    /// Register the reset signal owned by the breaker at `key`.
    pub fn register_reset(&self, key: impl Into<String>, signal: ResetSignal) {
        self.resets.lock().unwrap_or_else(|e| e.into_inner()).insert(key.into(), signal);
    }

    fn audit(&self, ev: Event) {
        if let Some(obs) = &self.obs {
            obs.publish(ev);
        }
    }

    /// Dispatch one command at simulation time `at_us` on behalf of
    /// `who`. Mutations (and refused mutations) are audited; pure reads
    /// (`Get`, `ListConfig`) are not.
    pub fn dispatch(
        &self,
        at_us: u64,
        who: &str,
        cmd: Command,
    ) -> Result<CommandOutcome, ControlError> {
        match cmd {
            Command::Set { key, value } => match self.registry.set(&key, value.clone()) {
                Ok((old, version)) => {
                    self.audit(
                        Event::new(at_us, Source::Control, "config_set")
                            .with("who", who)
                            .with("key", key.as_str())
                            .with("old", old.to_string())
                            .with("new", value.to_string())
                            .with("version", version),
                    );
                    Ok(CommandOutcome::Updated { key, old, new: value, version })
                }
                Err(e) => {
                    self.audit(
                        Event::new(at_us, Source::Control, "config_reject")
                            .with("who", who)
                            .with("key", key.as_str())
                            .with("attempted", value.to_string())
                            .with("reason", e.reason()),
                    );
                    Err(e)
                }
            },
            Command::Get { key } => {
                let value = self.registry.get(&key)?;
                Ok(CommandOutcome::Value { key, value })
            }
            Command::ListConfig => Ok(CommandOutcome::Listing(self.registry.list())),
            Command::ResetBreaker { key } => {
                let resets = self.resets.lock().unwrap_or_else(|e| e.into_inner());
                let Some(signal) = resets.get(&key) else {
                    self.audit(
                        Event::new(at_us, Source::Control, "config_reject")
                            .with("who", who)
                            .with("key", key.as_str())
                            .with("reason", ControlError::NoResetTarget(key.clone()).reason()),
                    );
                    return Err(ControlError::NoResetTarget(key));
                };
                signal.request();
                self.audit(
                    Event::new(at_us, Source::Control, "breaker_reset")
                        .with("who", who)
                        .with("key", key.as_str()),
                );
                Ok(CommandOutcome::ResetIssued { key })
            }
            Command::PinConfig { key } => {
                self.registry.pin(&key, who)?;
                self.audit(
                    Event::new(at_us, Source::Control, "config_pin")
                        .with("who", who)
                        .with("key", key.as_str()),
                );
                Ok(CommandOutcome::Pinned { key })
            }
            Command::Unpin { key } => {
                self.registry.unpin(&key)?;
                self.audit(
                    Event::new(at_us, Source::Control, "config_unpin")
                        .with("who", who)
                        .with("key", key.as_str()),
                );
                Ok(CommandOutcome::Unpinned { key })
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
    fn adaptive_scalars_round_trip_their_bits() {
        let f = Adaptive::new(-0.0f64);
        assert!(f.get().is_sign_negative());
        f.set(f64::MIN_POSITIVE);
        assert_eq!(f.get(), f64::MIN_POSITIVE);
        let b = Adaptive::new(true);
        b.set(false);
        assert!(!b.get());
        let u = Adaptive::new(u64::MAX);
        assert_eq!(u.get(), u64::MAX);
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
        let reg = ConfigRegistry::new();
        reg.register_knob("a.u", Adaptive::new(5u64));
        reg.register_knob("a.f", Adaptive::new(0.5f64));
        assert_eq!(reg.get("a.u"), Ok(ConfigValue::U64(5)));
        let (old, v) = reg.set("a.u", ConfigValue::U64(6)).unwrap();
        assert_eq!(old, ConfigValue::U64(5));
        assert_eq!(v, 1);
        assert_eq!(reg.get("missing"), Err(ControlError::UnknownKey("missing".into())));
        assert_eq!(
            reg.set("a.u", ConfigValue::Str("nope".into())),
            Err(ControlError::TypeMismatch { key: "a.u".into(), expected: "u64", got: "str" })
        );
        // u64 knobs accept non-negative i64 (the common literal type).
        assert!(reg.set("a.u", ConfigValue::I64(3)).is_ok());
        assert_eq!(reg.get("a.u"), Ok(ConfigValue::U64(3)));
    }

    #[test]
    fn listing_is_key_sorted_and_reports_pins() {
        let reg = ConfigRegistry::new();
        reg.register_knob("z.last", Adaptive::new(1u64));
        reg.register_knob("a.first", Adaptive::new(true));
        reg.pin("z.last", "op").unwrap();
        let rows = reg.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "a.first");
        assert_eq!(rows[0].pinned_by, None);
        assert_eq!(rows[1].key, "z.last");
        assert_eq!(rows[1].pinned_by.as_deref(), Some("op"));
    }

    #[test]
    fn pins_block_set_until_unpinned() {
        let reg = ConfigRegistry::new();
        reg.register_knob("k", Adaptive::new(1u64));
        reg.pin("k", "operator").unwrap();
        assert_eq!(
            reg.set("k", ConfigValue::U64(2)),
            Err(ControlError::Pinned { key: "k".into(), by: "operator".into() })
        );
        reg.unpin("k").unwrap();
        assert!(reg.set("k", ConfigValue::U64(2)).is_ok());
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
            "u64",
            |p: &Policy| ConfigValue::U64(p.cap_us),
            |p: &mut Policy, v: ConfigValue| {
                p.cap_us = v
                    .as_u64()
                    .ok_or(KnobError::TypeMismatch { expected: "u64", got: v.type_name() })?;
                Ok(())
            },
        );
        assert_eq!(knob.read(), ConfigValue::U64(100));
        assert_eq!(knob.write(ConfigValue::U64(250)).unwrap(), ConfigValue::U64(100));
        assert_eq!(*handle.get(), Policy { factor: 2.0, cap_us: 250 });
        assert_eq!(handle.version(), 1);
    }

    #[test]
    fn router_audits_sets_rejects_pins_and_resets() {
        let obs = Obs::new();
        let reg = ConfigRegistry::new();
        reg.register_knob("breaker.recovery_us", Adaptive::new(500_000u64));
        let router = CommandRouter::new(reg).with_obs(&obs);
        let signal = ResetSignal::new();
        router.register_reset("client.breaker", signal.clone());

        router.dispatch(10, "user", Command::set("breaker.recovery_us", 250_000u64)).unwrap();
        router
            .dispatch(20, "op", Command::PinConfig { key: "breaker.recovery_us".into() })
            .unwrap();
        let err = router
            .dispatch(30, "user", Command::set("breaker.recovery_us", 100_000u64))
            .unwrap_err();
        assert_eq!(err.reason(), "pinned");
        router.dispatch(40, "op", Command::Unpin { key: "breaker.recovery_us".into() }).unwrap();
        router.dispatch(50, "op", Command::ResetBreaker { key: "client.breaker".into() }).unwrap();
        assert_eq!(signal.pending(), 1);

        let audit = obs.events_filtered(&EventFilter::control_audit());
        let kinds: Vec<&str> = audit.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec!["config_set", "config_pin", "config_reject", "config_unpin", "breaker_reset"]
        );
        let set = &audit[0];
        assert_eq!(set.at_us, 10);
        assert_eq!(set.str_field("who"), Some("user"));
        assert_eq!(set.str_field("key"), Some("breaker.recovery_us"));
        assert_eq!(set.str_field("old"), Some("500000"));
        assert_eq!(set.str_field("new"), Some("250000"));
        assert_eq!(set.u64_field("version"), Some(1));
        assert_eq!(audit[2].str_field("reason"), Some("pinned"));
    }

    #[test]
    fn gets_and_listings_do_not_audit() {
        let obs = Obs::new();
        let reg = ConfigRegistry::new();
        reg.register_knob("k", Adaptive::new(1u64));
        let router = CommandRouter::new(reg).with_obs(&obs);
        let got = router.dispatch(0, "user", Command::Get { key: "k".into() }).unwrap();
        assert_eq!(got, CommandOutcome::Value { key: "k".into(), value: ConfigValue::U64(1) });
        let CommandOutcome::Listing(rows) =
            router.dispatch(0, "user", Command::ListConfig).unwrap()
        else {
            panic!("ListConfig returns a listing");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(obs.events_published(), 0);
    }

    #[test]
    fn unknown_key_set_is_rejected_and_audited() {
        let obs = Obs::new();
        let router = CommandRouter::new(ConfigRegistry::new()).with_obs(&obs);
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
