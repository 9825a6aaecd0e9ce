//! Lock profiles.
//!
//! When a speculative action commits, it increments the use counter of each
//! abstract lock it holds and registers a **lock profile** — the set of
//! `(lock, mode, counter)` triples — with the runtime (paper §4). The miner
//! publishes these profiles in the block; comparing counter values across
//! profiles reconstructs the happens-before order the miner actually
//! executed.
//!
//! During validation each transaction is replayed as a multi-version
//! transaction (`cc_mvcc`), and the footprint its commit reports — the
//! abstract locks it touched, strongest mode per lock — is its **trace**.
//! The validator compares each trace, sorted by lock, with the profile's
//! `(lock, mode)` pairs (counters are a miner-side artifact) and rejects
//! the block on any mismatch.

use crate::lock::{LockId, LockMode};
use crate::txn::TxnId;

/// One entry of a committed lock profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProfileEntry {
    /// The abstract lock that was held at commit time.
    pub lock: LockId,
    /// The strongest mode in which the lock was held.
    pub mode: LockMode,
    /// Value of the lock's use counter after this commit incremented it.
    /// Comparing counters across transactions for the same lock yields the
    /// commit order of conflicting transactions.
    pub counter: u64,
}

/// The lock profile registered by one committed speculative action.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockProfile {
    /// Profile entries, sorted by lock id for determinism.
    pub locks: Vec<ProfileEntry>,
}

impl LockProfile {
    /// Creates a profile from unsorted entries, normalizing the order.
    pub fn new(mut locks: Vec<ProfileEntry>) -> Self {
        locks.sort_by_key(|e| e.lock);
        LockProfile { locks }
    }

    /// Looks up the entry for a given lock, if the transaction held it.
    pub fn entry(&self, lock: LockId) -> Option<&ProfileEntry> {
        self.locks
            .binary_search_by_key(&lock, |e| e.lock)
            .ok()
            .map(|i| &self.locks[i])
    }

    /// Whether this profile conflicts with `other`: they share a lock and
    /// at least one of the two holds it in a non-commuting mode.
    pub fn conflicts_with(&self, other: &LockProfile) -> bool {
        // Both lists are sorted; walk them like a merge.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.locks.len() && j < other.locks.len() {
            match self.locks[i].lock.cmp(&other.locks[j].lock) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.locks[i].mode.conflicts(other.locks[j].mode) {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// Number of locks in the profile.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if the transaction held no locks (a pure computation).
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

/// The result of committing a speculative action: which transaction it was
/// and the profile it registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitProfile {
    /// Runtime identifier of the committed transaction attempt.
    pub txn: TxnId,
    /// The registered lock profile.
    pub profile: LockProfile,
    /// Position of this commit in the block's serial order: the value of
    /// the manager's atomic commit counter claimed by this commit (one
    /// `fetch_add`, reset at each `begin_block`). Replaces any
    /// mutex-guarded capture of the observed commit order — readers index
    /// preallocated slots by `sequence` instead of pushing to a shared
    /// `Vec`.
    pub sequence: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;

    fn entry(space: &str, key: u64, mode: LockMode, counter: u64) -> ProfileEntry {
        ProfileEntry {
            lock: LockSpace::new(space).lock_for(&key),
            mode,
            counter,
        }
    }

    #[test]
    fn profile_sorted_and_searchable() {
        let e1 = entry("a", 2, LockMode::Exclusive, 1);
        let e2 = entry("a", 1, LockMode::Additive, 3);
        let p = LockProfile::new(vec![e1, e2]);
        assert!(p.locks.windows(2).all(|w| w[0].lock <= w[1].lock));
        assert_eq!(p.entry(e1.lock), Some(&e1));
        assert_eq!(p.entry(LockSpace::new("zz").whole()), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn conflict_detection_respects_modes() {
        let shared_lock = entry("votes", 7, LockMode::Additive, 1);
        let a = LockProfile::new(vec![shared_lock]);
        let b = LockProfile::new(vec![entry("votes", 7, LockMode::Additive, 2)]);
        // Two additive holders of the same lock commute.
        assert!(!a.conflicts_with(&b));

        let c = LockProfile::new(vec![entry("votes", 7, LockMode::Exclusive, 3)]);
        assert!(a.conflicts_with(&c));
        assert!(c.conflicts_with(&a));
    }

    #[test]
    fn disjoint_profiles_do_not_conflict() {
        let a = LockProfile::new(vec![entry("voters", 1, LockMode::Exclusive, 1)]);
        let b = LockProfile::new(vec![entry("voters", 2, LockMode::Exclusive, 1)]);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn empty_profile() {
        let p = LockProfile::default();
        assert!(p.is_empty());
        assert!(!p.conflicts_with(&p));
    }
}
