//! Bounded retry with exponential backoff — the failure policy the unit
//! scheduler ([`crate::scheduler`]) applies in both execution modes.
//!
//! A *unit* (one shard of one cell) that fails — worker panic, golden-run
//! failure, lease expiry, worker disconnect — is retried up to
//! [`RetryPolicy::max_attempts`] total attempts, waiting
//! [`RetryPolicy::backoff`] between consecutive attempts (exponential,
//! capped). Retries never touch tallies: a unit's result is deterministic
//! in `(cell, shard index)`, so a retried success is bit-identical to a
//! first-try success, and reports stay byte-identical however many
//! attempts it took.

use std::time::Duration;

/// Retry configuration for failed work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per unit, including the first (`1` disables retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub backoff_ms: u64,
    /// Upper bound on any single backoff.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, backoff_ms: 25, max_backoff_ms: 2_000 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, backoff_ms: 0, max_backoff_ms: 0 }
    }

    /// Whether a unit that has already made `attempts` attempts gets
    /// another one.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.max_attempts.max(1)
    }

    /// The wait before attempt `attempts + 1`, given `attempts` completed
    /// attempts: `backoff_ms × 2^(attempts-1)`, capped at
    /// `max_backoff_ms`. The first attempt (`attempts == 0`) never waits.
    pub fn backoff(&self, attempts: u32) -> Duration {
        if attempts == 0 {
            return Duration::ZERO;
        }
        let exp = attempts.saturating_sub(1).min(16);
        let ms = self.backoff_ms.saturating_mul(1u64 << exp).min(self.max_backoff_ms);
        Duration::from_millis(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_are_bounded() {
        let p = RetryPolicy { max_attempts: 3, backoff_ms: 10, max_backoff_ms: 1_000 };
        assert!(p.allows(0));
        assert!(p.allows(2));
        assert!(!p.allows(3));
        assert!(!RetryPolicy::none().allows(1));
        // max_attempts 0 still permits the first attempt.
        let degenerate = RetryPolicy { max_attempts: 0, ..p };
        assert!(degenerate.allows(0));
        assert!(!degenerate.allows(1));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy { max_attempts: 10, backoff_ms: 25, max_backoff_ms: 100 };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(25));
        assert_eq!(p.backoff(2), Duration::from_millis(50));
        assert_eq!(p.backoff(3), Duration::from_millis(100));
        assert_eq!(p.backoff(9), Duration::from_millis(100), "capped");
        // Huge attempt counts must not overflow the shift.
        assert_eq!(p.backoff(200), Duration::from_millis(100));
    }
}
