//! Cooperative cancellation for pipeline runs.
//!
//! A [`CancelToken`] carries an explicit cancel flag (shared across
//! clones) and an optional wall-clock deadline. The pipeline checks it
//! at block-step boundaries ([`crate::Gothic::run_cancellable`]) — the
//! natural preemption points of a code built around block time steps:
//! every phase inside a step is bounded work, so a boundary check gives
//! prompt cancellation without sprinkling atomics through the kernels.
//!
//! The serving layer (`gothicd`) builds per-request deadlines on this:
//! a request's budget becomes a token deadline, and a run that exceeds
//! it stops at the next step boundary with
//! [`CancelReason::DeadlineExceeded`], returning whatever steps did
//! complete.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cancellable run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Requested,
    /// The token's deadline passed.
    DeadlineExceeded,
}

/// The error produced when a cancellation check fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            CancelReason::Requested => f.write_str("cancelled by request"),
            CancelReason::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// A cloneable cancellation handle: an explicit flag plus an optional
/// deadline. Cloning shares the flag (cancelling any clone cancels
/// all); the deadline is fixed at construction.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (cancel explicitly).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token whose checks fail once `budget` has elapsed from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Request cancellation (visible to every clone).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The cooperative check: cheap enough for every step boundary.
    /// An explicit cancel wins over a simultaneously-expired deadline.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            return Err(Cancelled {
                reason: CancelReason::Requested,
            });
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Cancelled {
                    reason: CancelReason::DeadlineExceeded,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(
            t.check().unwrap_err().reason,
            CancelReason::Requested,
            "cancelling a clone must cancel the original"
        );
    }

    #[test]
    fn expired_deadline_fails_with_deadline_reason() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(
            t.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
    }

    #[test]
    fn future_deadline_passes_until_it_arrives() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        let past = CancelToken::with_deadline(Duration::ZERO);
        assert!(past.check().is_err());
    }

    #[test]
    fn explicit_cancel_wins_over_expired_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        t.cancel();
        assert_eq!(t.check().unwrap_err().reason, CancelReason::Requested);
    }
}
