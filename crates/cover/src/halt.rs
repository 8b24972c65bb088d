//! Cooperative halting: deadlines and cancellation for long reductions.
//!
//! A [`Halt`] bundles an optional wall-clock deadline with an optional
//! shared [`CancelFlag`]. Long-running phases poll it at their
//! operation boundaries — in particular between the passes of
//! [`Reducer::reduce_to_fixpoint`](crate::Reducer::reduce_to_fixpoint)
//! — so a deadline or a cancellation lands *mid-phase*, within one
//! pass, not just between phases.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation handle shared between a solve and its
/// controller.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same
/// flag. The solver polls the flag at its operation/round boundaries —
/// the same points where it polls the deadline — so cancellation lands
/// within one reduction pass or constructive round.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-tripped flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Trips the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelFlag::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a halted computation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// The wall-clock deadline passed.
    Expired,
    /// The [`CancelFlag`] tripped.
    Cancelled,
}

impl std::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaltReason::Expired => write!(f, "deadline expired"),
            HaltReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The halting sources threaded through a solve: an optional absolute
/// deadline and an optional shared cancel flag.
///
/// `Halt::default()` never halts. The struct is `Clone` (not `Copy`:
/// it owns a flag handle) and `Sync`, so partitioned solves can poll
/// one `Halt` from every block thread by reference.
#[derive(Clone, Debug, Default)]
pub struct Halt {
    /// Absolute point in time after which the computation should stop.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag.
    pub cancel: Option<CancelFlag>,
}

impl Halt {
    /// A halt that never fires.
    pub fn none() -> Self {
        Halt::default()
    }

    /// Checks both sources; cancellation wins if both fired.
    pub fn check(&self) -> Option<HaltReason> {
        if self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
            return Some(HaltReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            return Some(HaltReason::Expired);
        }
        None
    }

    /// `true` if either source has fired.
    pub fn reached(&self) -> bool {
        self.check().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_never_halts() {
        assert_eq!(Halt::none().check(), None);
        assert!(!Halt::default().reached());
    }

    #[test]
    fn deadline_fires_after_passing() {
        let h = Halt {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
        };
        assert_eq!(h.check(), Some(HaltReason::Expired));
        let future = Halt {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            cancel: None,
        };
        assert_eq!(future.check(), None);
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let flag = CancelFlag::new();
        let h = Halt {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: Some(flag.clone()),
        };
        assert_eq!(h.check(), Some(HaltReason::Expired));
        flag.cancel();
        assert_eq!(h.check(), Some(HaltReason::Cancelled));
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelFlag::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }
}
