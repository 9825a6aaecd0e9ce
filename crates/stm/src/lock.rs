//! Abstract-lock identifiers and lock modes.
//!
//! The rule from the paper (§3, *Storage Operations*): **if two storage
//! operations map to distinct abstract locks, then they must commute.** A
//! lock is therefore keyed semantically — by the collection it protects
//! (the [`LockSpace`]) and by the logical key being operated on — rather
//! than by memory location, which is what lets, say, binding Alice's vote
//! and binding Bob's vote proceed in parallel.

use cc_primitives::fnv::fnv1a_of;
use std::fmt;
use std::hash::Hash;

/// A namespace for abstract locks, one per boosted collection.
///
/// The space is derived from a human-readable name such as
/// `"Ballot.voters"` so that lock traces are debuggable, but only the
/// 64-bit hash is carried at run time.
///
/// # Example
///
/// ```
/// use cc_stm::LockSpace;
/// let a = LockSpace::new("Ballot.voters");
/// let b = LockSpace::new("Ballot.proposals");
/// assert_ne!(a, b);
/// assert_eq!(a, LockSpace::new("Ballot.voters"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockSpace(u64);

impl LockSpace {
    /// Derives a lock space from a stable name.
    pub fn new(name: &str) -> Self {
        LockSpace(fnv1a_of(name))
    }

    /// Creates a lock space directly from its raw 64-bit identifier.
    pub fn from_raw(raw: u64) -> Self {
        LockSpace(raw)
    }

    /// The raw 64-bit identifier of this space.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Builds the [`LockId`] for a specific key within this space.
    pub fn lock_for<K: Hash + ?Sized>(&self, key: &K) -> LockId {
        LockId::from_raw(self.0, fnv1a_of(key))
    }

    /// Builds the [`LockId`] for a key whose FNV-64 fingerprint the caller
    /// has already computed (via [`cc_primitives::fnv::fnv1a_of`]).
    ///
    /// This is the single-hash entry point of the boosted-storage hot
    /// path: a collection hashes its key **once**, derives the lock id
    /// here, and reuses the same fingerprint for the backing-store lookup.
    pub fn lock_for_hashed(&self, key_hash: u64) -> LockId {
        LockId::from_raw(self.0, key_hash)
    }

    /// Builds the [`LockId`] of the space as a whole (key `u64::MAX`). No
    /// collection takes it: tests and benchmarks use it to name a lock
    /// without declaring a key.
    pub fn whole(&self) -> LockId {
        LockId::from_raw(self.0, u64::MAX)
    }
}

/// Identifier of one abstract lock: a `(space, key)` pair.
///
/// Distinct keys of the same collection hash to distinct `key` values (up
/// to FNV collisions, which conservatively create extra conflicts and are
/// therefore safe).
///
/// Besides the two halves, a `LockId` carries their **mix** — one
/// multiply-mix of `space ^ key`, computed once at construction. Every
/// downstream table keyed by lock id reuses it: the transaction's held
/// set and the lock manager's stripe table hash a `LockId` by writing the
/// mix (a single word) and the manager's stripe index is the mix's high
/// bits, so a storage operation never re-mixes the same identifier twice.
#[derive(Clone, Copy)]
pub struct LockId {
    /// The lock space (collection) this lock belongs to.
    space: u64,
    /// The hashed logical key within the space.
    key: u64,
    /// Cached `mix64(space ^ key)`; derived, never compared.
    mix: u64,
}

/// The 64-bit Fibonacci multiplier (`2^64 / phi`) mixing the two halves.
const MIX_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl LockId {
    /// Constructs a lock id from its two halves (also used when decoding
    /// published schedule metadata), caching their mix.
    pub fn from_raw(space: u64, key: u64) -> Self {
        LockId {
            space,
            key,
            mix: (space ^ key).wrapping_mul(MIX_MULTIPLIER),
        }
    }

    /// The lock space (collection) this lock belongs to.
    pub fn space(&self) -> u64 {
        self.space
    }

    /// The hashed logical key within the space.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The cached multiply-mix of the two halves. Well distributed in its
    /// high bits; used for stripe selection and as the single-word hash of
    /// the id in lock-keyed tables.
    pub fn mix(&self) -> u64 {
        self.mix
    }
}

// `mix` is a pure function of `(space, key)`, so equality, ordering and
// hashing ignore it (hashing *writes* it, which is consistent: equal ids
// have equal mixes).
impl PartialEq for LockId {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space && self.key == other.key
    }
}

impl Eq for LockId {}

impl PartialOrd for LockId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LockId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.space, self.key).cmp(&(other.space, other.key))
    }
}

impl Hash for LockId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // One word instead of two: the id is already well mixed.
        state.write_u64(self.mix);
    }
}

impl fmt::Debug for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lock({:016x}:{:016x})", self.space, self.key)
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}:{:016x}", self.space, self.key)
    }
}

/// The mode in which an abstract lock is held.
///
/// The paper notes (§3, footnote 3) that abstract locks are described as
/// mutually exclusive for ease of exposition but that shared and other
/// modes are easy to accommodate. We provide three modes:
///
/// * [`LockMode::Shared`] — a pure read. Two reads of the same key return
///   the same result in either order, so shared holders commute with each
///   other; they conflict with every kind of writer (including additive
///   updates, whose running total a read would observe).
/// * [`LockMode::Additive`] — a commutative update (e.g. `voteCount += w`).
///   Additive holders commute with each other and therefore may hold the
///   lock simultaneously, but conflict with shared and exclusive holders.
/// * [`LockMode::Exclusive`] — arbitrary read/write access; conflicts with
///   every other holder.
///
/// The compatibility matrix (✓ = may hold simultaneously / operations
/// commute):
///
/// | ↓ held \ requested → | Shared | Additive | Exclusive |
/// |----------------------|--------|----------|-----------|
/// | **Shared**           | ✓      | ✗        | ✗         |
/// | **Additive**         | ✗      | ✓        | ✗         |
/// | **Exclusive**        | ✗      | ✗        | ✗         |
///
/// A mode is only compatible with itself (and `Exclusive` not even with
/// that): commutativity here is *pairwise within one kind of operation*.
/// Consequently the join of two **different** modes held by one
/// transaction is `Exclusive` — a transaction that both read and
/// additively updated a key conflicts with other readers (because of its
/// update) *and* with other adders (because of its read), which is
/// exactly `Exclusive`'s footprint. See [`LockMode::strongest`].
///
/// Shared mode is what lets read-heavy contract methods (balance queries,
/// `auction.ended` checks, existence probes) run fully in parallel, and
/// additive mode is what lets all Ballot `vote` transactions update the
/// same proposal's tally concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Pure read; compatible with other shared holders.
    Shared,
    /// Commutative accumulate; compatible with other additive holders.
    Additive,
    /// Full exclusive access; incompatible with every other holder.
    Exclusive,
}

impl LockMode {
    /// Whether two holders in modes `self` and `other` may hold the same
    /// lock simultaneously.
    pub fn compatible(self, other: LockMode) -> bool {
        self == other && self != LockMode::Exclusive
    }

    /// Whether operations performed in the two modes conflict (i.e. do not
    /// commute). Used when deriving happens-before edges from lock
    /// profiles.
    pub fn conflicts(self, other: LockMode) -> bool {
        !self.compatible(other)
    }

    /// The join of two modes: the weakest single mode whose conflict
    /// footprint covers both. Equal modes join to themselves; any two
    /// *different* modes join to `Exclusive` (see the type-level docs for
    /// why a read+add mix must exclude both readers and adders).
    pub fn strongest(self, other: LockMode) -> LockMode {
        if self == other {
            self
        } else {
            LockMode::Exclusive
        }
    }

    /// Stable single-byte encoding used in schedule metadata. (`Shared`
    /// was added after `Additive`/`Exclusive`, hence the non-ordinal
    /// value — the published byte values are a wire format.)
    pub fn to_byte(self) -> u8 {
        match self {
            LockMode::Additive => 0,
            LockMode::Exclusive => 1,
            LockMode::Shared => 2,
        }
    }

    /// Decodes a mode from [`LockMode::to_byte`]; any other byte is
    /// `None`, so each mode has exactly one byte.
    pub fn from_byte(b: u8) -> Option<LockMode> {
        match b {
            0 => Some(LockMode::Additive),
            1 => Some(LockMode::Exclusive),
            2 => Some(LockMode::Shared),
            _ => None,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => f.write_str("shared"),
            LockMode::Additive => f.write_str("additive"),
            LockMode::Exclusive => f.write_str("exclusive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_locks() {
        let space = LockSpace::new("voters");
        assert_ne!(space.lock_for(&"alice"), space.lock_for(&"bob"));
        assert_eq!(space.lock_for(&"alice"), space.lock_for(&"alice"));
    }

    #[test]
    fn distinct_spaces_distinct_locks() {
        let a = LockSpace::new("voters");
        let b = LockSpace::new("proposals");
        assert_ne!(a.lock_for(&1u64), b.lock_for(&1u64));
    }

    #[test]
    fn whole_lock_is_stable_and_disjoint_from_keys() {
        let space = LockSpace::new("highest_bid");
        assert_eq!(space.whole(), space.whole());
        assert_ne!(space.whole(), space.lock_for(&0u64));
    }

    #[test]
    fn mode_compatibility_matrix() {
        use LockMode::*;
        // Same-mode pairs commute, except Exclusive.
        assert!(Shared.compatible(Shared));
        assert!(Additive.compatible(Additive));
        assert!(!Exclusive.compatible(Exclusive));
        // Every cross-mode pair conflicts, in both directions.
        for (a, b) in [
            (Shared, Additive),
            (Shared, Exclusive),
            (Additive, Exclusive),
        ] {
            assert!(!a.compatible(b), "{a} must conflict with {b}");
            assert!(!b.compatible(a), "{b} must conflict with {a}");
        }
        assert!(Exclusive.conflicts(Exclusive));
        assert!(!Additive.conflicts(Additive));
        assert!(!Shared.conflicts(Shared));
    }

    #[test]
    fn mode_join_and_bytes() {
        use LockMode::*;
        // Equal modes join to themselves…
        assert_eq!(Shared.strongest(Shared), Shared);
        assert_eq!(Additive.strongest(Additive), Additive);
        assert_eq!(Exclusive.strongest(Exclusive), Exclusive);
        // …and any mixed pair joins to Exclusive (a read+add transaction
        // conflicts with both other readers and other adders).
        assert_eq!(Additive.strongest(Exclusive), Exclusive);
        assert_eq!(Shared.strongest(Additive), Exclusive);
        assert_eq!(Shared.strongest(Exclusive), Exclusive);
        for mode in [Shared, Additive, Exclusive] {
            assert_eq!(LockMode::from_byte(mode.to_byte()), Some(mode));
        }
        assert_eq!(LockMode::from_byte(3), None);
        assert_eq!(LockMode::from_byte(200), None);
    }

    #[test]
    fn join_footprint_covers_both_operands() {
        // The defining property of `strongest`: anything that conflicts
        // with either operand also conflicts with the join, so collapsing
        // a transaction's per-operation modes to one mode never hides a
        // conflict.
        use LockMode::*;
        for a in [Shared, Additive, Exclusive] {
            for b in [Shared, Additive, Exclusive] {
                let joined = a.strongest(b);
                for other in [Shared, Additive, Exclusive] {
                    if other.conflicts(a) || other.conflicts(b) {
                        assert!(
                            other.conflicts(joined),
                            "{other} conflicts with {a} or {b} but not with join {joined}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        let space = LockSpace::new("x");
        let id = space.lock_for(&7u32);
        assert!(format!("{id}").contains(':'));
        assert!(format!("{id:?}").starts_with("Lock("));
        assert_eq!(format!("{}", LockMode::Additive), "additive");
    }

    #[test]
    fn from_raw_roundtrip() {
        let id = LockId::from_raw(3, 9);
        assert_eq!(id.space(), 3);
        assert_eq!(id.key(), 9);
        assert_eq!(LockSpace::from_raw(5).raw(), 5);
    }

    #[test]
    fn hashed_constructor_matches_unhashed() {
        use cc_primitives::fnv::fnv1a_of;
        let space = LockSpace::new("hashed");
        for key in [0u64, 1, 7, u64::MAX] {
            let direct = space.lock_for(&key);
            let via_hash = space.lock_for_hashed(fnv1a_of(&key));
            assert_eq!(direct, via_hash);
            assert_eq!(direct.mix(), via_hash.mix());
        }
    }

    #[test]
    fn mix_is_cached_consistently() {
        let id = LockId::from_raw(3, 9);
        let same = LockId::from_raw(3, 9);
        let other = LockId::from_raw(3, 10);
        assert_eq!(id, same);
        assert_eq!(id.mix(), same.mix());
        assert_ne!(id, other);
        // Equal ids hash identically through the mix.
        use cc_primitives::fx::fx_hash_of;
        assert_eq!(fx_hash_of(&id), fx_hash_of(&same));
    }
}
