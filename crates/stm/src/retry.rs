//! The retry budget for speculative transactions aborted by deadlock.
//!
//! A victim does not sleep between attempts: it waits on the lock it lost
//! ([`crate::manager::LockManager::await_release`]) and re-runs once that
//! lock's holder set changes.
//!
//! # Example
//!
//! ```
//! use cc_stm::retry::MAX_ATTEMPTS;
//! assert!(MAX_ATTEMPTS > 1);
//! ```

/// Attempts a deadlock victim gets before it gives up with
/// [`crate::StmError::RetriesExhausted`].
pub const MAX_ATTEMPTS: u32 = 64;
