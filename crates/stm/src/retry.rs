//! Retry policy for speculative transactions aborted by deadlock.

use std::time::Duration;

/// Controls how [`crate::Stm::run`] retries a speculative transaction that
/// was chosen as a deadlock victim.
///
/// Retries use bounded exponential backoff: attempt `k` sleeps
/// `2·base · 2^(k−1)` µs, capped at `max_backoff_us`, plus a deterministic
/// jitter below `base`. The jitter is a function of the attempt number
/// only, so it moves one transaction's successive sleeps off round
/// numbers, but two victims on the same attempt sleep identically — it
/// does not break lock-step between them.
///
/// # Example
///
/// ```
/// use cc_stm::RetryPolicy;
/// let policy = RetryPolicy::new(16, 50, 2_000);
/// assert_eq!(policy.max_attempts, 16);
/// assert!(policy.delay_for(3) <= std::time::Duration::from_micros(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts before giving up with
    /// [`crate::StmError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Base backoff in microseconds: the first retry sleeps twice this,
    /// each later one twice the one before, and the jitter stays below it.
    pub base_backoff_us: u64,
    /// Upper bound on the backoff in microseconds.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 64,
            base_backoff_us: 20,
            max_backoff_us: 5_000,
        }
    }
}

impl RetryPolicy {
    /// Creates a policy from explicit parameters.
    pub fn new(max_attempts: u32, base_backoff_us: u64, max_backoff_us: u64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff_us,
            max_backoff_us: max_backoff_us.max(base_backoff_us),
        }
    }

    /// A policy that never sleeps between retries (used in tests).
    pub fn no_backoff(max_attempts: u32) -> Self {
        RetryPolicy::new(max_attempts, 0, 0)
    }

    /// The backoff duration for the given (1-based) attempt number.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        if self.base_backoff_us == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.min(16);
        let raw = self.base_backoff_us.saturating_mul(1u64 << exp.min(10));
        // Deterministic jitter: spread attempts out without an RNG.
        let jitter = (u64::from(attempt).wrapping_mul(2654435761)) % self.base_backoff_us.max(1);
        Duration::from_micros(raw.min(self.max_backoff_us).saturating_add(jitter))
    }

    /// Sleeps for the backoff appropriate to `attempt`.
    pub fn backoff(&self, attempt: u32) {
        let d = self.delay_for(attempt);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts > 1);
        assert!(p.max_backoff_us >= p.base_backoff_us);
    }

    #[test]
    fn delay_grows_then_saturates() {
        let base = 10;
        let p = RetryPolicy::new(10, base, 500);
        for attempt in 1..=30u32 {
            let floor = ((2 * base) << (attempt - 1)).min(500);
            let delay = p.delay_for(attempt).as_micros() as u64;
            assert!(
                (floor..floor + base).contains(&delay),
                "attempt {attempt}: {delay} µs, want {floor} plus jitter below {base}"
            );
        }
        // The default schedule, jitter (< 20 µs) rounded away.
        let default = RetryPolicy::default();
        let floors: Vec<u64> = (1..=9)
            .map(|k| default.delay_for(k).as_micros() as u64 / 20 * 20)
            .collect();
        assert_eq!(floors, [40, 80, 160, 320, 640, 1_280, 2_560, 5_000, 5_000]);
    }

    #[test]
    fn no_backoff_is_zero() {
        let p = RetryPolicy::no_backoff(3);
        assert_eq!(p.delay_for(5), Duration::ZERO);
        p.backoff(2); // must not sleep noticeably; just exercise the path
    }

    #[test]
    fn max_attempts_floor_is_one() {
        assert_eq!(RetryPolicy::new(0, 1, 1).max_attempts, 1);
    }
}
