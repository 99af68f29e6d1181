//! Live control plane: lock-free runtime-tunable configuration.
//!
//! The paper's dynamic-preference negotiation (§4) needs user preferences
//! and policy knobs to change *mid-run*; everything in this module exists
//! to make that cheap, typed, and auditable:
//!
//! * [`Adaptive<T>`] — an arc-swap-style shared handle. `get()` is a
//!   single atomic load (wait-free, no lock, no reference counting on the
//!   read path), so hot loops can re-read a knob every iteration.
//!   Mutation goes through `set()`, which is serialized and retains every
//!   superseded value until the last handle drops, keeping outstanding
//!   `&T` borrows valid.
//! * [`Knob`] / [`ConfigValue`] — the dynamic typing layer. Each handle
//!   (or a closure-projected field of one, see [`FnKnob`]) registers
//!   under a stable dotted name in a [`ConfigRegistry`].
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
//! `Adaptive::set` publishes the new boxed value with a `Release` swap
//! and bumps the version counter with `Release`; `Adaptive::get` reads
//! the pointer with `Acquire`. A reader that observes the new pointer
//! therefore observes the fully-initialized value behind it — values are
//! immutable once published, so old-or-new is the only possible outcome
//! of a racing `get`, never a torn mix.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Event, Obs, Source};

// ---------------------------------------------------------------------------
// Adaptive<T>
// ---------------------------------------------------------------------------

struct AdaptiveInner<T> {
    /// The live value. Always points at a leaked `Box<T>` owned by this
    /// inner (either still current or parked in `retired`).
    current: AtomicPtr<T>,
    /// Mutation count; 0 means "never mutated since construction".
    version: AtomicU64,
    /// Every superseded value, kept alive until the handle drops so that
    /// `get()` can hand out `&T` without any read-side bookkeeping.
    /// Control-plane mutation rates are human-scale; the retained list is
    /// bounded by the number of `set` calls, not by reads.
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: the raw pointers inside are only ever created from `Box<T>` and
// only freed in `Drop`; sharing the container across threads shares `&T`
// reads (needs `T: Sync`) and moves boxed `T`s (needs `T: Send`).
unsafe impl<T: Send> Send for AdaptiveInner<T> {}
unsafe impl<T: Send + Sync> Sync for AdaptiveInner<T> {}

impl<T> Drop for AdaptiveInner<T> {
    fn drop(&mut self) {
        // SAFETY: every pointer here came from `Box::into_raw` and is
        // dropped exactly once — `current` and the `retired` list are
        // disjoint by construction.
        unsafe {
            drop(Box::from_raw(self.current.load(Ordering::Acquire)));
            for p in self.retired.get_mut().unwrap_or_else(|e| e.into_inner()).drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// A lock-free, shareable, runtime-tunable value.
///
/// Clones share the same cell: a `set` through any clone is visible to
/// every other clone's next `get`. Reads are a single `Acquire` load.
///
/// ```
/// use obs::Adaptive;
///
/// let knob = Adaptive::new(250_000u64);
/// let reader = knob.clone();
/// assert_eq!(*reader.get(), 250_000);
/// knob.set(400_000);
/// assert_eq!(*reader.get(), 400_000);
/// assert_eq!(reader.version(), 1);
/// ```
pub struct Adaptive<T> {
    inner: Arc<AdaptiveInner<T>>,
}

impl<T> Clone for Adaptive<T> {
    fn clone(&self) -> Self {
        Adaptive { inner: Arc::clone(&self.inner) }
    }
}

impl<T: fmt::Debug> fmt::Debug for Adaptive<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adaptive")
            .field("value", self.get())
            .field("version", &self.version())
            .finish()
    }
}

impl<T: Default> Default for Adaptive<T> {
    fn default() -> Self {
        Adaptive::new(T::default())
    }
}

impl<T: PartialEq> PartialEq for Adaptive<T> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl<T> Adaptive<T> {
    /// Wrap `value` in a fresh handle at version 0.
    pub fn new(value: T) -> Self {
        Adaptive {
            inner: Arc::new(AdaptiveInner {
                current: AtomicPtr::new(Box::into_raw(Box::new(value))),
                version: AtomicU64::new(0),
                retired: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Read the live value. One `Acquire` atomic load; wait-free.
    ///
    /// The borrow is tied to this handle, and superseded values are
    /// retained until the last clone drops, so the reference stays valid
    /// across concurrent `set` calls (it just goes stale).
    pub fn get(&self) -> &T {
        // SAFETY: `current` always points at a live leaked Box owned by
        // `inner`; superseded boxes are retired, not freed, until Drop.
        unsafe { &*self.inner.current.load(Ordering::Acquire) }
    }

    /// Copy the live value out (convenience for `Copy` knobs).
    pub fn load(&self) -> T
    where
        T: Copy,
    {
        *self.get()
    }

    /// Publish `value` as the new live value and bump the version.
    /// Returns the version the write landed as.
    pub fn set(&self, value: T) -> u64 {
        let fresh = Box::into_raw(Box::new(value));
        let old = self.inner.current.swap(fresh, Ordering::AcqRel);
        self.inner.retired.lock().unwrap_or_else(|e| e.into_inner()).push(old);
        self.inner.version.fetch_add(1, Ordering::Release) + 1
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

    pub fn as_bool(&self) -> Option<bool> {
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

impl Knob for Adaptive<u64> {
    fn read(&self) -> ConfigValue {
        ConfigValue::U64(self.load())
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let v = value
            .as_u64()
            .ok_or(KnobError::TypeMismatch { expected: "u64", got: value.type_name() })?;
        let old = self.load();
        self.set(v);
        Ok(ConfigValue::U64(old))
    }
    fn type_name(&self) -> &'static str {
        "u64"
    }
    fn version(&self) -> u64 {
        Adaptive::version(self)
    }
}

impl Knob for Adaptive<f64> {
    fn read(&self) -> ConfigValue {
        ConfigValue::F64(self.load())
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let v = value
            .as_f64()
            .ok_or(KnobError::TypeMismatch { expected: "f64", got: value.type_name() })?;
        let old = self.load();
        self.set(v);
        Ok(ConfigValue::F64(old))
    }
    fn type_name(&self) -> &'static str {
        "f64"
    }
    fn version(&self) -> u64 {
        Adaptive::version(self)
    }
}

impl Knob for Adaptive<bool> {
    fn read(&self) -> ConfigValue {
        ConfigValue::Bool(self.load())
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let v = value
            .as_bool()
            .ok_or(KnobError::TypeMismatch { expected: "bool", got: value.type_name() })?;
        let old = self.load();
        self.set(v);
        Ok(ConfigValue::Bool(old))
    }
    fn type_name(&self) -> &'static str {
        "bool"
    }
    fn version(&self) -> u64 {
        Adaptive::version(self)
    }
}

/// Closure-projected knob: exposes one dynamically-typed facet of a
/// structured [`Adaptive`] value (e.g. the `max_timeout_us` field of a
/// retry policy) under its own registry key.
///
/// A write clones the current structure, applies the projection, and
/// republishes the whole value — readers still see old-or-new atomically.
pub struct FnKnob<T: Clone> {
    handle: Adaptive<T>,
    type_name: &'static str,
    read: Box<dyn Fn(&T) -> ConfigValue + Send + Sync>,
    #[allow(clippy::type_complexity)]
    write: Box<dyn Fn(&mut T, ConfigValue) -> Result<(), KnobError> + Send + Sync>,
}

impl<T: Clone> FnKnob<T> {
    pub fn new(
        handle: Adaptive<T>,
        type_name: &'static str,
        read: impl Fn(&T) -> ConfigValue + Send + Sync + 'static,
        write: impl Fn(&mut T, ConfigValue) -> Result<(), KnobError> + Send + Sync + 'static,
    ) -> Self {
        FnKnob { handle, type_name, read: Box::new(read), write: Box::new(write) }
    }
}

impl<T: Clone + Send + Sync> Knob for FnKnob<T> {
    fn read(&self) -> ConfigValue {
        (self.read)(self.handle.get())
    }
    fn write(&self, value: ConfigValue) -> Result<ConfigValue, KnobError> {
        let old = self.read();
        let mut next = self.handle.get().clone();
        (self.write)(&mut next, value)?;
        self.handle.set(next);
        Ok(old)
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

    /// Pin `key`: subsequent `Set`s are refused until [`unpin`](Self::unpin).
    /// Re-pinning overwrites the pin owner.
    pub fn pin(&self, key: &str, who: &str) -> Result<(), ControlError> {
        let mut map = self.lock();
        let entry = map.get_mut(key).ok_or_else(|| ControlError::UnknownKey(key.to_string()))?;
        entry.pinned_by = Some(who.to_string());
        Ok(())
    }

    /// Remove the pin on `key` (idempotent on an unpinned key).
    pub fn unpin(&self, key: &str) -> Result<(), ControlError> {
        let mut map = self.lock();
        let entry = map.get_mut(key).ok_or_else(|| ControlError::UnknownKey(key.to_string()))?;
        entry.pinned_by = None;
        Ok(())
    }

    /// Who pinned `key`, if anyone.
    pub fn pinned_by(&self, key: &str) -> Option<String> {
        self.lock().get(key).and_then(|e| e.pinned_by.clone())
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
    /// Snapshot every registered knob, key-sorted.
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
        assert_eq!(*a.get(), 7);
        assert_eq!(a.version(), 0);
        assert_eq!(b.set(9), 1);
        assert_eq!(*a.get(), 9);
        assert_eq!(a.version(), 1);
    }

    #[test]
    fn adaptive_borrow_survives_set() {
        let a = Adaptive::new(String::from("old"));
        let borrowed = a.get();
        a.set(String::from("new"));
        // The pre-set borrow still reads the retained old value; a fresh
        // read sees the new one.
        assert_eq!(borrowed, "old");
        assert_eq!(a.get(), "new");
    }

    #[test]
    fn adaptive_non_copy_values() {
        let a = Adaptive::new(vec![1, 2, 3]);
        a.set(vec![4]);
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
        let handle = Adaptive::new(Policy { factor: 2.0, cap_us: 100 });
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
        assert_eq!(handle.get(), &Policy { factor: 2.0, cap_us: 250 });
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
        // Threaded smoke for the tear-freedom claim: a wide value whose
        // two halves must always agree.
        let cell = Adaptive::new((0u64, 0u64));
        let writer = cell.clone();
        let (stop, torn, reads) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        // The sets must race the reads for the check to mean anything, and
        // on a one- or two-core host 10 000 sets can finish before the
        // reader is first scheduled: start writing only once it has read,
        // and keep writing until it has read a thousand times.
        let sets = std::thread::scope(|s| {
            s.spawn(|| {
                while stop.load(Ordering::Acquire) == 0 {
                    let (a, b) = *cell.get();
                    if a != b {
                        torn.store(1, Ordering::Release);
                        break;
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
            while reads.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let mut sets = 0u64;
            while torn.load(Ordering::Acquire) == 0
                && (sets < 10_000 || reads.load(Ordering::Relaxed) < 1_000)
            {
                sets += 1;
                writer.set((sets, sets));
            }
            stop.store(1, Ordering::Release);
            sets
        });
        assert_eq!(torn.into_inner(), 0, "torn read: halves diverged");
        assert!(reads.into_inner() >= 1_000);
        assert_eq!(writer.version(), sets);
    }
}
