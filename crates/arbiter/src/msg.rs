//! The arbiter control-plane wire protocol.
//!
//! Control traffic rides the same simulated network as application data:
//! every app host has an explicit link to the arbiter host, so control
//! messages are ordered by the kernel like any other traffic.
//!
//! Tags live far above the visapp protocol tags (1..=6) and the client's
//! timer tags, and far below the sandbox's reserved continuation range,
//! so a wrapper can route on the tag alone.

use sandbox::Limits;

use crate::app::AppId;

/// Base of the arbiter control tag range ("ARB\0").
pub const CTRL_BASE: u64 = 0x4152_4200;

// App -> arbiter.
/// Request admission (body: [`ReqBody`]).
pub const MSG_REQ: u64 = CTRL_BASE + 1;
/// Periodic usage report (body: [`UsageBody`]).
pub const MSG_USAGE: u64 = CTRL_BASE + 2;
/// The app finished its workload (body: [`ReqBody`]).
pub const MSG_DONE: u64 = CTRL_BASE + 3;

// Arbiter -> app.
/// Admission granted (body: [`GrantBody`]).
pub const MSG_ADMIT: u64 = CTRL_BASE + 16;
/// Admission refused; the app never starts.
pub const MSG_REJECT: u64 = CTRL_BASE + 17;
/// Policing strike: clamp to the envelope (body: [`ClampBody`]).
pub const MSG_THROTTLE: u64 = CTRL_BASE + 18;
/// Throttle dwell over: the wrapper restores the app's requested limits.
pub const MSG_RELAX: u64 = CTRL_BASE + 19;
/// Policing strike: tier demotion with a tighter envelope (body:
/// [`GrantBody`]).
pub const MSG_DEMOTE: u64 = CTRL_BASE + 20;
/// Policing strike three: the app is terminated.
pub const MSG_EVICT: u64 = CTRL_BASE + 21;
/// Overload shedding: suspend (bulk) or floor (session) the app (body:
/// [`ClampBody`]).
pub const MSG_SHED: u64 = CTRL_BASE + 22;
/// Recovery from shedding: resume under the given envelope (body:
/// [`GrantBody`]).
pub const MSG_RECOVER: u64 = CTRL_BASE + 23;
/// Overload degradation of a survivor: tighter envelope (body:
/// [`GrantBody`]).
pub const MSG_DEGRADE: u64 = CTRL_BASE + 24;
/// Overload fully cleared: restore the original envelope (body:
/// [`GrantBody`]).
pub const MSG_RESTORE: u64 = CTRL_BASE + 25;

/// Wrapper -> bulk worker wake-up after a pause (never crosses the
/// kernel; delivered straight through the sandbox).
pub const MSG_KICK: u64 = CTRL_BASE + 32;

/// Wire size charged for a control message.
pub const CTRL_BYTES: u64 = 64;

/// True when `tag` belongs to the arbiter control plane (and must not be
/// forwarded into the wrapped application).
pub fn is_ctrl(tag: u64) -> bool {
    (CTRL_BASE..CTRL_BASE + 64).contains(&tag)
}

/// Identifies the sending app (admission requests, completion notices).
#[derive(Debug, Clone, Copy)]
pub struct ReqBody {
    pub id: AppId,
}

/// One usage sample from an app's sandbox progress estimator.
#[derive(Debug, Clone, Copy)]
pub struct UsageBody {
    pub id: AppId,
    /// Measured CPU share over the report window; `None` until the
    /// estimator has samples.
    pub cpu: Option<f64>,
}

/// An envelope the wrapper should treat as the app's new contract: the
/// wrapper re-derives its *requested* limits from it (rogues ignore it
/// between clamps — that is what makes them rogues).
#[derive(Debug, Clone, Copy)]
pub struct GrantBody {
    pub limits: Limits,
}

/// A clamp the wrapper must apply verbatim, without changing what the
/// app's requested limits are (throttle dwell, shed floor).
#[derive(Debug, Clone, Copy)]
pub struct ClampBody {
    pub limits: Limits,
    /// Bulk workloads: park the worker instead of merely flooring it.
    pub pause: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctrl_range_excludes_app_tags() {
        assert!(is_ctrl(MSG_REQ));
        assert!(is_ctrl(MSG_KICK));
        assert!(!is_ctrl(visapp::protocol::TAG_REPLY));
        assert!(!is_ctrl(0));
        assert!(!is_ctrl(sandbox::TAG_BASE));
    }
}
