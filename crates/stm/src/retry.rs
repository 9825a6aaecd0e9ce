//! The back-off schedule for speculative transactions aborted by deadlock.
//!
//! Retries use bounded exponential back-off: attempt `k` sleeps
//! `2·20 · 2^(k−1)` µs — 40, 80, … 2 560 — capped at 5 000 µs, plus a
//! deterministic jitter below 20 µs. The jitter is a function of the
//! attempt number only, so it moves one transaction's successive sleeps
//! off round numbers, but two victims on the same attempt sleep
//! identically — it does not break lock-step between them.
//!
//! # Example
//!
//! ```
//! use cc_stm::retry::{delay_for, MAX_ATTEMPTS};
//! use std::time::Duration;
//! assert_eq!(delay_for(1).as_micros() / 20 * 20, 40);
//! assert!(delay_for(MAX_ATTEMPTS) < Duration::from_micros(5_020));
//! ```

use std::time::Duration;

/// Attempts a deadlock victim gets before it gives up with
/// [`crate::StmError::RetriesExhausted`].
pub const MAX_ATTEMPTS: u32 = 64;

/// Base back-off in microseconds: the first retry sleeps twice this, each
/// later one twice the one before, and the jitter stays below it.
const BASE_BACKOFF_US: u64 = 20;

/// Upper bound on the back-off in microseconds, jitter aside.
const MAX_BACKOFF_US: u64 = 5_000;

/// The back-off after the given (1-based) attempt failed.
pub fn delay_for(attempt: u32) -> Duration {
    let raw = BASE_BACKOFF_US << attempt.min(10);
    // Deterministic jitter: spread attempts out without an RNG.
    let jitter = u64::from(attempt).wrapping_mul(2654435761) % BASE_BACKOFF_US;
    Duration::from_micros(raw.min(MAX_BACKOFF_US) + jitter)
}

/// Sleeps for the back-off after the given (1-based) attempt.
pub fn backoff(attempt: u32) {
    std::thread::sleep(delay_for(attempt));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        // More than one attempt, and every sleep bounded by the cap.
        const { assert!(MAX_ATTEMPTS > 1) };
        let cap = Duration::from_micros(MAX_BACKOFF_US + BASE_BACKOFF_US);
        assert!((1..=MAX_ATTEMPTS).map(delay_for).all(|delay| delay < cap));
    }

    #[test]
    fn delay_grows_then_saturates() {
        for attempt in 1..=30u32 {
            let floor = ((2 * BASE_BACKOFF_US) << (attempt - 1)).min(MAX_BACKOFF_US);
            let delay = delay_for(attempt).as_micros() as u64;
            assert!(
                (floor..floor + BASE_BACKOFF_US).contains(&delay),
                "attempt {attempt}: {delay} µs, want {floor} plus jitter below {BASE_BACKOFF_US}"
            );
        }
        // The schedule, jitter (< 20 µs) rounded away.
        let floors: Vec<u64> = (1..=9)
            .map(|k| delay_for(k).as_micros() as u64 / 20 * 20)
            .collect();
        assert_eq!(floors, [40, 80, 160, 320, 640, 1_280, 2_560, 5_000, 5_000]);
    }
}
