//! Cooperative cancellation for long-running evaluations.
//!
//! A [`CancelToken`] carries an explicit cancellation flag and an optional
//! wall-clock deadline. Evaluators built with
//! [`Evaluator::with_cancellation`](crate::Evaluator::with_cancellation)
//! check the token at every composite-service resolution, every blocked
//! point, and every fixed-point sweep — on the recursive path and in
//! compiled assembly programs alike — so a caller that owns the token — the
//! `archrel serve` daemon enforcing per-request deadlines, a UI with a
//! cancel button — can abort an in-flight evaluation with a typed error
//! ([`CoreError::DeadlineExceeded`](crate::CoreError::DeadlineExceeded) /
//! [`CoreError::Cancelled`](crate::CoreError::Cancelled)) instead of
//! waiting it out or killing the thread.
//!
//! Checks are cooperative: a single absorbing-chain solve runs to
//! completion, so the reaction latency is bounded by the largest single
//! solve, not by the whole request.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{CoreError, Result};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Wall-clock instant past which [`CancelToken::check`] fails with
    /// [`CoreError::DeadlineExceeded`]; `None` means no time limit.
    deadline: Option<Instant>,
    /// The budget the deadline was derived from, kept for error messages.
    budget: Option<Duration>,
}

/// Shared cancellation handle: clone it freely — all clones observe one
/// underlying flag and deadline.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<Inner>);

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; it only trips when [`CancelToken::cancel`]
    /// is called.
    pub fn new() -> CancelToken {
        CancelToken(Arc::new(Inner {
            cancelled: AtomicBool::new(false),
            deadline: None,
            budget: None,
        }))
    }

    /// A token that additionally trips once `budget` wall-clock time has
    /// elapsed from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken(Arc::new(Inner {
            cancelled: AtomicBool::new(false),
            deadline: Instant::now().checked_add(budget),
            budget: Some(budget),
        }))
    }

    /// Trips the token: every subsequent [`CancelToken::check`] fails with
    /// [`CoreError::Cancelled`].
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been explicitly cancelled (deadline expiry
    /// does not set this flag).
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// The deadline instant, if the token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.0.deadline
    }

    /// Whether the deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.0
            .deadline
            .is_some_and(|deadline| Instant::now() > deadline)
    }

    /// Fails with the matching typed error when the token has tripped:
    /// [`CoreError::Cancelled`] on an explicit cancel,
    /// [`CoreError::DeadlineExceeded`] once the deadline has passed.
    ///
    /// # Errors
    ///
    /// See above; returns `Ok(())` while the token is live.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.0.cancelled.load(Ordering::Relaxed) {
            return Err(CoreError::Cancelled);
        }
        if self.deadline_exceeded() {
            return Err(CoreError::DeadlineExceeded {
                budget_ms: self
                    .0
                    .budget
                    .map(|b| b.as_millis().min(u128::from(u64::MAX)) as u64)
                    .unwrap_or(0),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(matches!(clone.check(), Err(CoreError::Cancelled)));
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        match token.check() {
            Err(CoreError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Deadline expiry is not an explicit cancel.
        assert!(!token.is_cancelled());
    }

    #[test]
    fn generous_deadline_passes() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(token.check().is_ok());
        assert!(!token.deadline_exceeded());
    }
}
