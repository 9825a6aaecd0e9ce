//! Commit timestamps for multi-version concurrency control.
//!
//! A [`Timestamp`] is a monotonically increasing logical instant assigned
//! by the multi-version runtime (`cc_mvcc`) under its commit mutex. Timestamp `0` ([`Timestamp::BASE`]) denotes the
//! pre-block base state: every version installed during a block carries a
//! strictly positive timestamp, so a reader whose snapshot is `BASE` sees
//! only the backing store.

use std::fmt;

/// A logical commit instant. Ordered, copyable and cheap to compare; the
/// wrapped `u64` never wraps in practice (one increment per committed
/// update transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The pre-block base state: older than every installed version.
    pub const BASE: Timestamp = Timestamp(0);

    /// Wraps a raw counter value.
    pub const fn from_raw(raw: u64) -> Self {
        Timestamp(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The immediately following timestamp.
    #[must_use]
    pub const fn next(self) -> Self {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(raw: u64) -> Self {
        Timestamp(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_base() {
        assert_eq!(Timestamp::BASE.raw(), 0);
        assert!(Timestamp::BASE < Timestamp::from_raw(1));
        assert_eq!(Timestamp::from_raw(6).next(), Timestamp::from_raw(7));
        assert_eq!(Timestamp::from_raw(3).to_string(), "t3");
        assert_eq!(Timestamp::from(9u64), Timestamp::from_raw(9));
    }
}
