//! Messages exchanged between simulated actors.
//!
//! A [`Message`] separates the *simulated* wire size (which determines link
//! transmission time) from the actual Rust payload carried for the benefit of
//! the receiving actor. The payload is an `Arc<dyn Any + Send + Sync>` so the
//! simulator core stays application-agnostic (the `Send + Sync` keeps
//! `Message`, and so a whole `Sim`, `Send`); applications downcast with
//! [`Message::body`].

use std::any::Any;
use std::sync::Arc;

/// A message in flight between two actors.
#[derive(Clone)]
pub struct Message {
    /// Application-defined discriminant, useful for quick dispatch and traces.
    pub tag: u64,
    /// Number of bytes this message occupies on the (simulated) wire.
    pub wire_bytes: u64,
    /// The payload, if any.
    pub payload: Option<Arc<dyn Any + Send + Sync>>,
}

impl Message {
    /// A message with a tag and wire size but no payload (e.g. a pure control
    /// or acknowledgement message).
    pub fn signal(tag: u64, wire_bytes: u64) -> Self {
        Message { tag, wire_bytes, payload: None }
    }

    /// A message carrying `body` and occupying `wire_bytes` on the wire.
    pub fn new<T: Any + Send + Sync>(tag: u64, wire_bytes: u64, body: T) -> Self {
        Message { tag, wire_bytes, payload: Some(Arc::new(body)) }
    }

    /// Downcast the payload to `T`. Returns `None` when there is no payload
    /// or the payload has a different type.
    pub fn body<T: Any>(&self) -> Option<&T> {
        self.payload.as_deref().and_then(|p| p.downcast_ref::<T>())
    }

    /// Downcast the payload to `T`, panicking with a diagnostic when the
    /// message does not carry a `T`. Use in actors where the protocol
    /// guarantees the type.
    pub fn expect_body<T: Any>(&self) -> &T {
        self.body::<T>().unwrap_or_else(|| {
            panic!(
                "message tag {} does not carry expected payload type {}",
                self.tag,
                std::any::type_name::<T>()
            )
        })
    }

    /// Downcast the payload to `T`, returning a typed [`DecodeError`]
    /// instead of panicking. Use on hot paths where a malformed or
    /// unexpected message should be handled, not crash the actor.
    pub fn decode<T: Any>(&self) -> Result<&T, DecodeError> {
        self.body::<T>().ok_or_else(|| DecodeError {
            tag: self.tag,
            expected: std::any::type_name::<T>(),
            had_payload: self.payload.is_some(),
        })
    }
}

/// A message payload failed to downcast to the expected protocol type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Tag of the offending message.
    pub tag: u64,
    /// The type the receiver expected.
    pub expected: &'static str,
    /// Whether the message carried any payload at all.
    pub had_payload: bool,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "message tag {} does not carry expected payload type {} (payload present: {})",
            self.tag, self.expected, self.had_payload
        )
    }
}

impl std::error::Error for DecodeError {}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Message")
            .field("tag", &self.tag)
            .field("wire_bytes", &self.wire_bytes)
            .field("has_payload", &self.payload.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_has_no_payload() {
        let m = Message::signal(7, 64);
        assert_eq!(m.tag, 7);
        assert_eq!(m.wire_bytes, 64);
        assert!(m.body::<u32>().is_none());
    }

    #[test]
    fn payload_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Req {
            x: i32,
        }
        let m = Message::new(1, 128, Req { x: 42 });
        assert_eq!(m.body::<Req>().unwrap().x, 42);
        assert!(m.body::<String>().is_none());
        assert_eq!(m.expect_body::<Req>(), &Req { x: 42 });
    }

    #[test]
    #[should_panic(expected = "does not carry expected payload")]
    fn expect_body_panics_on_mismatch() {
        let m = Message::signal(1, 0);
        let _ = m.expect_body::<u32>();
    }

    #[test]
    fn clone_shares_payload() {
        let m = Message::new(1, 8, vec![1u8, 2, 3]);
        let m2 = m.clone();
        assert_eq!(m2.body::<Vec<u8>>().unwrap(), &vec![1, 2, 3]);
    }
}
