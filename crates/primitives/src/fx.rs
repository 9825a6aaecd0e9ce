//! FxHash — the fast, non-cryptographic hasher used for lock-keyed tables.
//!
//! Abstract-lock identifiers are already the output of FNV-1a (see
//! [`crate::fnv`]): both halves of a `LockId` are well-mixed 64-bit values.
//! Re-hashing them through SipHash (the `std` default) costs more than the
//! table lookup it guards. `FxHasher` — the multiply-xor hash used by the
//! Rust compiler itself — folds each written word into the state with one
//! xor, one rotate and one multiply, which is all a pre-hashed key needs.
//!
//! Like FNV, Fx is **not** DoS-resistant. That is fine for every table it
//! is used for in this workspace: the keys are themselves hashes of
//! attacker-visible data, so an attacker who could engineer collisions in
//! the table could only create extra (conservative) lock conflicts, never
//! an incorrect result.
//!
//! # Example
//!
//! ```
//! use cc_primitives::fx::FxHashMap;
//! let mut shards: FxHashMap<u64, &str> = FxHashMap::default();
//! shards.insert(42, "stripe");
//! assert_eq!(shards[&42], "stripe");
//! ```

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

/// 64-bit Fx seed: `2^64 / phi`, the same odd constant rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A [`Hasher`] implementing the FxHash algorithm (word-at-a-time
/// multiply-xor, as used by the Rust compiler's interner tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    /// Creates a hasher with the zero initial state.
    pub fn new() -> Self {
        FxHasher(0)
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`]. Use for tables whose keys are
/// already hashes (lock ids, transaction ids, shard indices).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes any `Hash` value with FxHash in one call, deterministically
/// across runs and processes (no random state).
pub fn fx_hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::new();
    value.hash(&mut h);
    h.finish()
}

// ---- RawFxMap: a map keyed by caller-supplied hashes ---------------------

/// One slot of a [`RawFxMap`].
#[derive(Debug, Clone)]
enum Slot<K, V> {
    /// Never occupied; terminates probe sequences.
    Empty,
    /// Previously occupied; probe sequences continue past it.
    Tombstone,
    /// A live entry, remembering the caller-supplied hash so rehashing
    /// never re-hashes a key.
    Full { hash: u64, key: K, value: V },
}

/// Fibonacci multiplier used to derive the low bits of a probe start from
/// a stored hash (`2^64 / phi`, the usual constant). The caller's hash is
/// used *as given* for equality; only the probe start is re-mixed.
const PROBE_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// A hash map whose **every** operation takes a caller-supplied 64-bit
/// hash — the raw-entry-style companion to [`FxHashMap`].
///
/// The boosted-storage hot path computes one FNV-64 fingerprint per
/// logical key and then needs that key in several tables (the abstract
/// lock's backing store above all). A `HashMap` re-hashes the key on
/// every lookup; `RawFxMap` instead trusts the caller's hash, stores it
/// alongside the entry, and compares keys only on hash equality. Supplying
/// inconsistent hashes for equal keys makes entries unfindable (a logic
/// error, like an inconsistent `Hash` impl — never memory unsafety).
///
/// Collisions are resolved by linear probing over a power-of-two table
/// with tombstone deletion; at most ⅞ of the table is ever occupied, so
/// probe chains stay short and every probe terminates.
///
/// # Bucket-major slot order
///
/// An entry's probe start is the top bits of a 64-bit probe key whose top
/// byte is the entry's leaf bucket ([`bucket_of`]: fingerprint bits 4–11)
/// and whose lower 56 bits are the mixed hash (`(hash ⊕ hash >> 32) ·
/// PROBE_MIX`, high bits first). In a table of `2^k ≥ 256` slots, bucket `b` therefore
/// starts every probe in its own range of `2^(k−8)` slots, `b · 2^(k−8)`
/// onwards; in a smaller table its probes all start at slot
/// `b >> (8 − k)`. Linear probing only moves an entry forwards past
/// non-empty slots, and a removal leaves a tombstone rather than an empty
/// slot, so every entry of bucket `b` sits in `b`'s range or in the run
/// of non-empty slots right after it. [`walk_bucket`](Self::walk_bucket)
/// reads exactly that much, which is how a state commitment re-hashes
/// one bucket without a pass over the whole table.
///
/// Probing stays as uniform as with a fully mixed start: the bucket bits
/// of an FNV or Fx fingerprint are themselves uniform, and the mixed
/// bits spread entries within the bucket's range. The entries of one
/// bucket of one shard share fingerprint bits 0–11, so the mix folds the
/// high half in before multiplying; without the fold, sequential keys
/// cluster inside their ranges. Simulated over the FNV fingerprints of
/// one shard's keys at 5 000 and 20 000 entries, a lookup takes 1.73–1.76
/// probes for random 20-byte keys (1.73–1.79 with the fully mixed start
/// `hash · PROBE_MIX`) and 1.62–1.71 for sequential `u64` keys — the
/// random-key level, where the fully mixed start spaced them luckily at
/// 1.38–1.49.
///
/// # Example
///
/// ```
/// use cc_primitives::fx::{fx_hash_of, RawFxMap};
/// let mut map: RawFxMap<String, u32> = RawFxMap::new();
/// let h = fx_hash_of("alice");
/// map.insert_hashed(h, "alice".to_string(), 7);
/// assert_eq!(map.get_hashed(h, "alice"), Some(&7));
/// assert_eq!(map.remove_hashed(h, "alice"), Some(7));
/// assert!(map.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RawFxMap<K, V> {
    /// Power-of-two slot table (empty until the first insert).
    slots: Vec<Slot<K, V>>,
    /// Number of `Full` slots.
    items: usize,
    /// Number of `Full` + `Tombstone` slots (bounds probe-chain length).
    used: usize,
}

impl<K, V> Default for RawFxMap<K, V> {
    fn default() -> Self {
        RawFxMap::new()
    }
}

impl<K, V> RawFxMap<K, V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        RawFxMap {
            slots: Vec::new(),
            items: 0,
            used: 0,
        }
    }

    /// Creates an empty map whose first table holds `entries` entries
    /// under the ⅞ load ceiling: the table doubling would reach after as
    /// many inserts, allocated once. No allocation when `entries` is 0;
    /// past `entries` the map grows as usual.
    pub fn with_capacity(entries: usize) -> Self {
        let mut map = RawFxMap::new();
        if entries > 0 {
            map.rehash((entries * 8).div_ceil(7).next_power_of_two().max(8));
        }
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Iterates over `(&key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.iter_hashed().map(|(_, key, value)| (key, value))
    }

    /// [`RawFxMap::iter`] plus the caller-supplied hash each entry is
    /// stored under, so a scan can filter on hash bits without touching
    /// (or re-hashing) the key.
    pub fn iter_hashed(&self) -> impl Iterator<Item = (u64, &K, &V)> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full { hash, key, value } => Some((*hash, key, value)),
            _ => None,
        })
    }

    /// Probe start index for `hash` in the current table: the bucket in
    /// the top byte, the mixed hash below it (see the type docs).
    fn probe_start(&self, hash: u64) -> usize {
        let mixed = (hash ^ hash >> 32).wrapping_mul(PROBE_MIX);
        let key = u64::from(bucket_of(hash)) << 56 | mixed >> 8;
        (key >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Calls `f(hash, key, value)` for every entry of leaf bucket
    /// `bucket` ([`bucket_of`]), in slot order, and returns how many
    /// slots it read: the bucket's home range (see the type docs), then
    /// the run after it up to and including the first empty slot —
    /// wrapping to slot 0 for the last bucket. At least ⅛ of the slots
    /// are empty, so the run stops at an empty slot before it could come
    /// back round to an entry it already visited.
    pub fn walk_bucket(&self, bucket: u8, mut f: impl FnMut(u64, &K, &V)) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let (bits, mask) = (self.slots.len().trailing_zeros(), self.slots.len() - 1);
        let start = usize::from(bucket) << bits >> 8;
        let home_end = (usize::from(bucket) + 1) << bits >> 8;
        let mut i = start;
        loop {
            match &self.slots[i & mask] {
                Slot::Full { hash, key, value } if bucket_of(*hash) == bucket => {
                    f(*hash, key, value)
                }
                Slot::Empty if i >= home_end => return i + 1 - start,
                _ => {}
            }
            i += 1;
        }
    }

    /// Index of the live entry for `(hash, key)`, if present.
    fn find<Q>(&self, hash: u64, key: &Q) -> Option<usize>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + ?Sized,
    {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(hash);
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Full {
                    hash: h, key: k, ..
                } if *h == hash && k.borrow() == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Grows (or compacts tombstones out of) the table so at least one
    /// more entry fits under the ⅞ load ceiling.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.rehash(8);
        } else if (self.used + 1) * 8 > cap * 7 {
            // Grow when genuinely full; rehash in place when the load is
            // mostly tombstones.
            let target = if (self.items + 1) * 2 > cap {
                cap * 2
            } else {
                cap
            };
            self.rehash(target);
        }
    }

    fn rehash(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| Slot::Empty).collect());
        self.used = self.items;
        let mask = new_cap - 1;
        for slot in old {
            if let Slot::Full { hash, key, value } = slot {
                // Keys are unique and the new table has no tombstones:
                // place at the first empty slot of the probe sequence.
                let mut i = self.probe_start(hash);
                while matches!(self.slots[i], Slot::Full { .. }) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full { hash, key, value };
            }
        }
    }
}

impl<K: Eq, V> RawFxMap<K, V> {
    /// Returns a reference to the value for `key`, using the caller's
    /// `hash` (which must match the hash the entry was inserted under).
    pub fn get_hashed<Q>(&self, hash: u64, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.find(hash, key).map(|i| match &self.slots[i] {
            Slot::Full { value, .. } => value,
            _ => unreachable!("find returns full slots"),
        })
    }

    /// Mutable-reference variant of [`RawFxMap::get_hashed`].
    pub fn get_hashed_mut<Q>(&mut self, hash: u64, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let i = self.find(hash, key)?;
        match &mut self.slots[i] {
            Slot::Full { value, .. } => Some(value),
            _ => unreachable!("find returns full slots"),
        }
    }

    /// Inserts `key → value` under `hash`, returning the previous value if
    /// the key was already bound.
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> Option<V> {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(hash);
        let mut first_tombstone: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Empty => {
                    let target = first_tombstone.unwrap_or(i);
                    if first_tombstone.is_none() {
                        self.used += 1;
                    }
                    self.items += 1;
                    self.slots[target] = Slot::Full { hash, key, value };
                    return None;
                }
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                Slot::Full {
                    hash: h,
                    key: k,
                    value: v,
                } => {
                    if *h == hash && *k == key {
                        return Some(std::mem::replace(v, value));
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Removes the entry for `(hash, key)`, returning its value.
    pub fn remove_hashed<Q>(&mut self, hash: u64, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let i = self.find(hash, key)?;
        self.items -= 1;
        match std::mem::replace(&mut self.slots[i], Slot::Tombstone) {
            Slot::Full { value, .. } => Some(value),
            _ => unreachable!("find returns full slots"),
        }
    }

    /// Raw-entry API: in-place access to the slot for `(hash, key)`,
    /// occupied or vacant. The key is consumed; on the occupied path the
    /// map keeps its existing key and the supplied one is dropped (like
    /// `std`'s entry API).
    pub fn entry_hashed(&mut self, hash: u64, key: K) -> RawEntry<'_, K, V> {
        self.reserve_one();
        match self.find(hash, &key) {
            Some(idx) => RawEntry::Occupied(RawOccupiedEntry { map: self, idx }),
            None => RawEntry::Vacant(RawVacantEntry {
                map: self,
                hash,
                key,
            }),
        }
    }
}

/// A view into one slot of a [`RawFxMap`], from [`RawFxMap::entry_hashed`].
pub enum RawEntry<'a, K, V> {
    /// The key is bound.
    Occupied(RawOccupiedEntry<'a, K, V>),
    /// The key is not bound.
    Vacant(RawVacantEntry<'a, K, V>),
}

impl<'a, K: Eq, V> RawEntry<'a, K, V> {
    /// Returns a mutable reference to the bound value, inserting `default`
    /// first if vacant.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Returns a mutable reference to the bound value, inserting the
    /// result of `default()` first if vacant.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        match self {
            RawEntry::Occupied(entry) => entry.into_mut(),
            RawEntry::Vacant(entry) => entry.insert(default()),
        }
    }
}

/// An occupied slot of a [`RawFxMap`].
pub struct RawOccupiedEntry<'a, K, V> {
    map: &'a mut RawFxMap<K, V>,
    idx: usize,
}

impl<'a, K, V> RawOccupiedEntry<'a, K, V> {
    /// The bound value.
    pub fn get(&self) -> &V {
        match &self.map.slots[self.idx] {
            Slot::Full { value, .. } => value,
            _ => unreachable!("occupied entries point at full slots"),
        }
    }

    /// The bound value, mutably.
    pub fn get_mut(&mut self) -> &mut V {
        match &mut self.map.slots[self.idx] {
            Slot::Full { value, .. } => value,
            _ => unreachable!("occupied entries point at full slots"),
        }
    }

    /// Consumes the entry, returning a reference tied to the map.
    pub fn into_mut(self) -> &'a mut V {
        match &mut self.map.slots[self.idx] {
            Slot::Full { value, .. } => value,
            _ => unreachable!("occupied entries point at full slots"),
        }
    }

    /// Removes the entry, returning its value.
    pub fn remove(self) -> V {
        self.map.items -= 1;
        match std::mem::replace(&mut self.map.slots[self.idx], Slot::Tombstone) {
            Slot::Full { value, .. } => value,
            _ => unreachable!("occupied entries point at full slots"),
        }
    }
}

/// A vacant slot of a [`RawFxMap`].
pub struct RawVacantEntry<'a, K, V> {
    map: &'a mut RawFxMap<K, V>,
    hash: u64,
    key: K,
}

impl<'a, K: Eq, V> RawVacantEntry<'a, K, V> {
    /// Inserts `value`, returning a reference tied to the map.
    pub fn insert(self, value: V) -> &'a mut V {
        // `entry_hashed` already reserved headroom and proved the key
        // absent; claim the first tombstone or empty slot of the probe
        // sequence.
        let mask = self.map.slots.len() - 1;
        let mut i = self.map.probe_start(self.hash);
        loop {
            match &self.map.slots[i] {
                Slot::Empty | Slot::Tombstone => break,
                _ => i = (i + 1) & mask,
            }
        }
        if matches!(self.map.slots[i], Slot::Empty) {
            self.map.used += 1;
        }
        self.map.items += 1;
        self.map.slots[i] = Slot::Full {
            hash: self.hash,
            key: self.key,
            value,
        };
        match &mut self.map.slots[i] {
            Slot::Full { value, .. } => value,
            _ => unreachable!("slot was just filled"),
        }
    }
}

// ---------------------------------------------------------------------------
// Raw shared stores under external (abstract) locking.
// ---------------------------------------------------------------------------

/// Number of shards in a [`ShardedRawTable`]. A power of two so shard
/// selection is a mask of the fingerprint's low bits. Low bits are
/// deliberate: [`RawFxMap`] derives its probe start from the bucket bits
/// just above them and from the mixed hash, never from the shard bits, so
/// every shard's probe distribution stays uniform instead of clustering
/// into `1/SHARDS` of the table.
pub const RAW_TABLE_SHARDS: usize = 16;

/// Number of dirty-tracking buckets per shard: the eight fingerprint bits
/// above the shard bits ([`bucket_of`]). A table therefore has
/// `RAW_TABLE_SHARDS * RAW_SHARD_BUCKETS` = 4 096 buckets, the leaves of
/// the state commitment built over it (see `cc_vm::commit`).
pub const RAW_SHARD_BUCKETS: usize = 256;

/// The shard a fingerprint lives in (its low four bits).
#[inline]
pub fn shard_of(hash: u64) -> usize {
    hash as usize & (RAW_TABLE_SHARDS - 1)
}

/// The bucket of its shard a fingerprint falls in (bits 4–11).
#[inline]
pub fn bucket_of(hash: u64) -> u8 {
    (hash >> RAW_TABLE_SHARDS.trailing_zeros()) as u8
}

/// A set of one shard's [`RAW_SHARD_BUCKETS`] buckets: which of them were
/// written since the marks were last drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketMask([u64; 4]);

impl BucketMask {
    /// Adds `bucket` to the set.
    #[inline]
    pub fn insert(&mut self, bucket: u8) {
        self.0[usize::from(bucket >> 6)] |= 1 << (bucket & 63);
    }

    /// Whether `bucket` is in the set.
    #[inline]
    pub fn contains(&self, bucket: u8) -> bool {
        self.0[usize::from(bucket >> 6)] & (1 << (bucket & 63)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of buckets in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The buckets of the set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX).filter(|&b| self.contains(b))
    }
}

/// A word-sized spin latch protecting the *structure* of a raw store.
///
/// This is not a reader-writer lock and it is not the concurrency-control
/// mechanism: transactional exclusion comes from the STM's abstract locks.
/// The latch exists only because distinct keys may share one
/// open-addressing table, so two transactions holding *different*
/// abstract locks can still race on table structure — rehashes, probe
/// walks, length counters. One
/// `compare_exchange` on entry and one store on exit is the entire cost;
/// there is no poisoning, no waiter bookkeeping and no syscall path.
#[derive(Debug, Default)]
struct Latch(AtomicBool);

/// Releases the latch on drop, so a panic inside a criticial section
/// (e.g. a user closure in `get_with`) cannot wedge the shard.
struct LatchGuard<'a>(&'a Latch);

impl Latch {
    #[inline]
    fn lock(&self) -> LatchGuard<'_> {
        // Uncontended path: one acquire CAS. Contended path (two txns
        // whose distinct keys share a shard): spin on a relaxed load so
        // the owning core keeps the line in shared state until release.
        while self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            while self.0.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        LatchGuard(self)
    }
}

impl Drop for LatchGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0 .0.store(false, Ordering::Release);
    }
}

/// One shard: a latch, an unsynchronized [`RawFxMap`] and the set of its
/// buckets written since the last drain. Aligned to a cache line so
/// contention on one shard's latch does not false-share with its
/// neighbours.
#[repr(align(64))]
#[derive(Debug, Default)]
struct RawShard<K, V> {
    latch: Latch,
    table: UnsafeCell<RawFxMap<K, V>>,
    dirty: UnsafeCell<BucketMask>,
}

/// A fingerprint-sharded hash table whose *semantic* safety argument is
/// an externally held abstract lock.
///
/// The caller supplies the key's 64-bit fingerprint (the same single hash
/// that already selected the abstract lock — PR 5's one-hash-per-op
/// discipline); the low bits select one of [`RAW_TABLE_SHARDS`] shards and
/// the full fingerprint drives the shard's [`RawFxMap`] probe sequence.
///
/// # Safety argument
///
/// Two layers, doing two different jobs:
///
/// * **Logical entries** are protected by the abstract locks: the STM
///   acquires a per-key lock before any operation, and two-phase locking
///   serializes conflicting transactions. The boosted collections assert
///   this in debug builds (`Transaction::debug_assert_held`) before every
///   raw access.
/// * **Physical structure** (probe chains, rehashes, item counters) is
///   shared between *distinct* keys that land in the same shard, which
///   abstract locks do not serialize. The per-shard `Latch` covers
///   exactly that window: every access runs its closure under the shard
///   latch. Disjoint-key transactions touching different shards never
///   interact at all.
///
/// [`read`](Self::read) hands its closure `&RawFxMap`,
/// [`write`](Self::write) hands it `&mut RawFxMap`, both from an
/// `UnsafeCell`; the latch guarantees the reference is the only live one
/// for the closure's lifetime. Closures must not re-enter the same table
/// (the latch is not reentrant) — the boosted collections only perform
/// straight-line map operations inside them.
///
/// # Dirty marks
///
/// `write` is the **only** way to reach `&mut RawFxMap`, and it records
/// the written key's bucket ([`bucket_of`]) in the shard's [`BucketMask`]
/// under the latch it already holds. Every mutation of base state —
/// transactional, undo replay, seeding, the multi-version flatten — is
/// therefore marked by construction, and
/// [`drain_dirty`](Self::drain_dirty) tells a state commitment exactly
/// which buckets to re-hash. Marks over-approximate
/// (a mutation later undone stays marked; a `remove` of an absent key
/// marks) and are never cleared except by draining: re-hashing an
/// unchanged bucket yields the digest it already had.
#[derive(Default)]
pub struct ShardedRawTable<K, V> {
    shards: [RawShard<K, V>; RAW_TABLE_SHARDS],
}

// SAFETY: all access to the `UnsafeCell` interiors (table and dirty mask)
// goes through `read` / `write` / `fold` / `is_dirty` / `drain_dirty`, which
// hold the shard latch for the duration of the reference.
#[allow(unsafe_code)]
unsafe impl<K: Send, V: Send> Sync for ShardedRawTable<K, V> {}

impl<K, V> ShardedRawTable<K, V> {
    /// Creates an empty table (no allocation until the first insert).
    pub fn new() -> Self {
        ShardedRawTable::with_capacity(0)
    }

    /// Creates an empty table sized for `entries` entries, so seeding
    /// that many allocates each shard once instead of doubling it from 8
    /// slots. Each shard holds an even share plus an eighth: FNV
    /// fingerprints spread keys over the shards to within a few √share,
    /// which an eighth covers from a few hundred entries a shard up. A
    /// shard that gets more still grows as before, and a share that fits
    /// the smallest table is left to its first insert, so a sparse table
    /// allocates no empty shard.
    pub fn with_capacity(entries: usize) -> Self {
        let share = entries.div_ceil(RAW_TABLE_SHARDS);
        let per_shard = match share + share / 8 {
            small if small < 8 => 0,
            sized => sized,
        };
        ShardedRawTable {
            shards: std::array::from_fn(|_| RawShard {
                latch: Latch::default(),
                table: UnsafeCell::new(RawFxMap::with_capacity(per_shard)),
                dirty: UnsafeCell::new(BucketMask::default()),
            }),
        }
    }

    /// Runs `f` with shared access to the shard owning `hash`. Leaves no
    /// dirty mark.
    ///
    /// The caller must hold the abstract lock for the key being read (or
    /// be a non-transactional setup/diagnostic read); the shard latch
    /// taken here only protects table structure shared with other keys.
    #[inline]
    #[allow(unsafe_code)]
    pub fn read<R>(&self, hash: u64, f: impl FnOnce(&RawFxMap<K, V>) -> R) -> R {
        let shard = &self.shards[shard_of(hash)];
        let _guard = shard.latch.lock();
        // SAFETY: the shard latch is held (and released on drop, even on
        // panic), so no `&mut` into the cell is live.
        f(unsafe { &*shard.table.get() })
    }

    /// Runs `f` with exclusive access to the shard owning `hash`, and
    /// marks `hash`'s bucket dirty. `f` must only mutate entries whose
    /// fingerprint is `hash`.
    ///
    /// The caller must hold the abstract lock for the key being written;
    /// the shard latch taken here only protects table structure shared
    /// with other keys.
    #[inline]
    #[allow(unsafe_code)]
    pub fn write<R>(&self, hash: u64, f: impl FnOnce(&mut RawFxMap<K, V>) -> R) -> R {
        let shard = &self.shards[shard_of(hash)];
        let _guard = shard.latch.lock();
        // SAFETY: the shard latch is held (and released on drop, even on
        // panic), so these are the only live references into the cells.
        unsafe {
            (*shard.dirty.get()).insert(bucket_of(hash));
            f(&mut *shard.table.get())
        }
    }

    /// Folds `f` over every shard's table in shard order, latching each
    /// shard in turn. Used for whole-table reads (snapshots, length) —
    /// not a consistent point-in-time cut unless the caller quiesces
    /// writers, which is exactly the contract the non-transactional
    /// `snapshot` collection APIs already carry.
    #[allow(unsafe_code)]
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &RawFxMap<K, V>) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            let _guard = shard.latch.lock();
            // SAFETY: as in `read` — the latch serializes this reference.
            acc = f(acc, unsafe { &*shard.table.get() });
        }
        acc
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.fold(0usize, |acc, table| acc + table.len())
    }

    /// True if no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any bucket was written since the previous drain. Leaves
    /// the marks as they are.
    #[allow(unsafe_code)]
    pub fn is_dirty(&self) -> bool {
        self.shards.iter().any(|shard| {
            let _guard = shard.latch.lock();
            // SAFETY: as in `read` — the latch serializes this reference.
            unsafe { !(*shard.dirty.get()).is_empty() }
        })
    }

    /// Takes every shard's dirty marks: for each shard with at least one
    /// bucket written since the previous drain, clears its marks and
    /// calls `f(shard index, drained marks, shard table)` under the shard
    /// latch. Like [`fold`](Self::fold), the result is a consistent cut
    /// only when the caller quiesces writers.
    #[allow(unsafe_code)]
    pub fn drain_dirty(&self, mut f: impl FnMut(usize, BucketMask, &RawFxMap<K, V>)) {
        for (index, shard) in self.shards.iter().enumerate() {
            let _guard = shard.latch.lock();
            // SAFETY: as in `write` — the latch serializes these references.
            let (mask, table) =
                unsafe { (std::mem::take(&mut *shard.dirty.get()), &*shard.table.get()) };
            if !mask.is_empty() {
                f(index, mask, table);
            }
        }
    }
}

impl<K, V> std::fmt::Debug for ShardedRawTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRawTable")
            .field("shards", &RAW_TABLE_SHARDS)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(fx_hash_of(&42u64), fx_hash_of(&42u64));
        assert_ne!(fx_hash_of(&42u64), fx_hash_of(&43u64));
        assert_ne!(fx_hash_of("alice"), fx_hash_of("bob"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        for i in 0..100 {
            map.insert((i, i * 2), i as u32);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map[&(7, 14)], 7);

        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(1);
        assert!(set.contains(&1));
        assert!(!set.contains(&2));
    }

    #[test]
    fn spreads_sequential_words() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fx_hash_of(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn raw_map_insert_get_remove_roundtrip() {
        let mut map: RawFxMap<u64, String> = RawFxMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get_hashed(fx_hash_of(&1u64), &1), None);
        for i in 0..100u64 {
            assert_eq!(map.insert_hashed(fx_hash_of(&i), i, format!("v{i}")), None);
        }
        assert_eq!(map.len(), 100);
        for i in 0..100u64 {
            assert_eq!(
                map.get_hashed(fx_hash_of(&i), &i).map(String::as_str),
                Some(format!("v{i}")).as_deref()
            );
        }
        // Overwrite returns the prior value.
        assert_eq!(
            map.insert_hashed(fx_hash_of(&7u64), 7, "new".into()),
            Some("v7".into())
        );
        assert_eq!(map.len(), 100);
        // Removals tombstone; survivors stay findable.
        for i in (0..100u64).step_by(2) {
            assert_eq!(map.remove_hashed(fx_hash_of(&i), &i), Some(format!("v{i}")));
            assert_eq!(map.remove_hashed(fx_hash_of(&i), &i), None);
        }
        assert_eq!(map.len(), 50);
        assert!(map.get_hashed(fx_hash_of(&1u64), &1).is_some());
        assert!(map.get_hashed(fx_hash_of(&2u64), &2).is_none());
        assert_eq!(map.iter().count(), 50);
        for i in (1..100u64).step_by(2) {
            assert!(map.remove_hashed(fx_hash_of(&i), &i).is_some());
        }
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn raw_map_entry_api() {
        let mut map: RawFxMap<&'static str, u32> = RawFxMap::new();
        let h = fx_hash_of("x");
        *map.entry_hashed(h, "x").or_insert(0) += 3;
        *map.entry_hashed(h, "x").or_insert(0) += 4;
        assert_eq!(map.get_hashed(h, "x"), Some(&7));
        match map.entry_hashed(h, "x") {
            RawEntry::Occupied(mut e) => {
                assert_eq!(*e.get(), 7);
                *e.get_mut() = 9;
                assert_eq!(e.remove(), 9);
            }
            RawEntry::Vacant(_) => panic!("entry must be occupied"),
        }
        assert!(map.is_empty());
        match map.entry_hashed(h, "x") {
            RawEntry::Vacant(e) => {
                *e.insert(1) += 1;
            }
            RawEntry::Occupied(_) => panic!("entry must be vacant after remove"),
        }
        assert_eq!(map.get_hashed(h, "x"), Some(&2));
        assert_eq!(
            *map.entry_hashed(fx_hash_of("y"), "y").or_insert_with(|| 5),
            5
        );
    }

    #[test]
    fn raw_map_survives_tombstone_heavy_churn() {
        // Insert/remove cycles that would wedge a probe loop if tombstones
        // were never compacted: the load ceiling must count tombstones and
        // rehashing must drop them.
        let mut map: RawFxMap<u64, u64> = RawFxMap::new();
        for round in 0..50u64 {
            for i in 0..64u64 {
                map.insert_hashed(fx_hash_of(&i), i, round);
            }
            for i in 0..64u64 {
                assert_eq!(map.remove_hashed(fx_hash_of(&i), &i), Some(round));
            }
        }
        assert!(map.is_empty());
        map.insert_hashed(fx_hash_of(&1u64), 1, 1);
        assert_eq!(map.get_hashed(fx_hash_of(&1u64), &1), Some(&1));
    }

    proptest::proptest! {
        /// Every `*_hashed` API agrees with a plain `HashMap` driven by the
        /// same operation sequence — same lookups, same prior values, same
        /// final contents — across random key sets including deletions.
        #[test]
        fn prop_raw_map_agrees_with_std_map(
            ops in proptest::collection::vec((0u8..4, 0u8..24, 0u32..1000), 0..200),
        ) {
            let mut raw: RawFxMap<u8, u32> = RawFxMap::new();
            let mut reference: HashMap<u8, u32> = HashMap::new();
            for &(op, key, value) in &ops {
                let h = fx_hash_of(&key);
                match op % 4 {
                    0 => {
                        proptest::prop_assert_eq!(
                            raw.insert_hashed(h, key, value),
                            reference.insert(key, value)
                        );
                    }
                    1 => {
                        proptest::prop_assert_eq!(
                            raw.remove_hashed(h, &key),
                            reference.remove(&key)
                        );
                    }
                    2 => {
                        proptest::prop_assert_eq!(
                            raw.get_hashed(h, &key).copied(),
                            reference.get(&key).copied()
                        );
                    }
                    _ => {
                        *raw.entry_hashed(h, key).or_insert(0) += u32::from(key);
                        *reference.entry(key).or_insert(0) += u32::from(key);
                    }
                }
                proptest::prop_assert_eq!(raw.len(), reference.len());
            }
            let mut raw_entries: Vec<(u8, u32)> = raw.iter().map(|(k, v)| (*k, *v)).collect();
            let mut ref_entries: Vec<(u8, u32)> = reference.into_iter().collect();
            raw_entries.sort_unstable();
            ref_entries.sort_unstable();
            proptest::prop_assert_eq!(raw_entries, ref_entries);
        }
    }

    /// Walking all 256 buckets partitions the table: every entry of
    /// `iter_hashed` is found exactly once, and only under its own
    /// bucket — through tombstones, growth from 8 slots to several
    /// thousand, a mass removal, and a bucket-255 overflow run that wraps to
    /// slot 0 (a fifth of the keys are forced into bucket 255).
    #[test]
    fn bucket_walks_partition_the_table() {
        let mut wrapped = false;
        let mut check = |map: &RawFxMap<u64, u64>| {
            let mut walked = Vec::new();
            for bucket in 0..=u8::MAX {
                let slots = map.walk_bucket(bucket, |hash, key, value| {
                    assert_eq!(bucket_of(hash), bucket, "found under a foreign bucket");
                    assert_eq!(*value, *key * 3);
                    walked.push((hash, *key));
                });
                let start = bucket as usize * map.slots.len() / 256;
                wrapped |= bucket == u8::MAX && start + slots > map.slots.len();
            }
            let mut all: Vec<(u64, u64)> = map.iter_hashed().map(|(h, k, _)| (h, *k)).collect();
            walked.sort_unstable();
            all.sort_unstable();
            assert_eq!(walked, all);
        };
        let hash_of = |key: u64| match key % 5 {
            0 => fx_hash_of(&key) | 0xFF0,
            _ => fx_hash_of(&key),
        };
        let mut max_slots = 0;
        for seed in 0..6u64 {
            let mut map: RawFxMap<u64, u64> = RawFxMap::new();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for step in 0..6_000u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let key = (x >> 33) % (step / 2 + 16);
                match (x >> 20) % 10 {
                    0..=5 => drop(map.insert_hashed(hash_of(key), key, key * 3)),
                    _ => drop(map.remove_hashed(hash_of(key), &key)),
                }
                if step == 4_000 && seed % 2 == 0 {
                    let all: Vec<(u64, u64)> = map.iter_hashed().map(|(h, k, _)| (h, *k)).collect();
                    for (hash, key) in all {
                        map.remove_hashed(hash, &key);
                    }
                }
                max_slots = max_slots.max(map.slots.len());
                if step < 400 || step % 97 == 0 {
                    check(&map);
                }
            }
            check(&map);
        }
        assert!(max_slots >= 2_048, "grew to {max_slots} slots");
        assert!(wrapped, "bucket 255's run never wrapped to slot 0");
    }

    #[test]
    fn bucket_mask_set_operations() {
        let mut mask = BucketMask::default();
        assert!(mask.is_empty());
        for b in [0u8, 63, 64, 255] {
            assert!(!mask.contains(b));
            mask.insert(b);
            assert!(mask.contains(b));
        }
        mask.insert(63);
        assert_eq!(mask.len(), 4);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 63, 64, 255]);
        // Shard and bucket are disjoint bit fields of the fingerprint.
        assert_eq!(shard_of(0xABC), 0xC);
        assert_eq!(bucket_of(0xABC), 0xAB);
    }

    /// Collects `(shard, bucket)` for every mark a drain returns.
    fn drained<K, V>(table: &ShardedRawTable<K, V>) -> Vec<(usize, u8)> {
        let mut marks = Vec::new();
        table.drain_dirty(|shard, mask, _| marks.extend(mask.iter().map(|b| (shard, b))));
        marks
    }

    /// Every shard's slot count, in shard order.
    fn shard_slots<K, V>(table: &ShardedRawTable<K, V>) -> Vec<usize> {
        let mut slots = Vec::new();
        table.fold((), |(), map| slots.push(map.slots.len()));
        slots
    }

    #[test]
    fn a_sized_table_seeds_without_growing() {
        for entries in [1_000u64, 20_000] {
            let sized = ShardedRawTable::with_capacity(entries as usize);
            let grown = ShardedRawTable::new();
            let before = shard_slots(&sized);
            for i in 0..entries {
                let h = crate::fnv::fnv1a_of(&i);
                sized.write(h, |map| map.insert_hashed(h, i, i));
                grown.write(h, |map| map.insert_hashed(h, i, i));
            }
            assert_eq!(shard_slots(&sized), before, "{entries}: no shard grew");
            let pairs = before.iter().zip(shard_slots(&grown));
            assert!(
                pairs.into_iter().all(|(&sized, grown)| sized >= grown),
                "{entries}: every shard is at least the table doubling reaches"
            );
            for i in 0..entries {
                let h = crate::fnv::fnv1a_of(&i);
                assert_eq!(sized.read(h, |map| map.get_hashed(h, &i).copied()), Some(i));
            }
        }

        // A share that fits the smallest table allocates on first insert.
        let sparse: ShardedRawTable<u64, u64> = ShardedRawTable::with_capacity(40);
        assert!(shard_slots(&sparse).iter().all(|&slots| slots == 0));

        // Past its hint, a shard grows as an unsized one does.
        let table = ShardedRawTable::with_capacity(1_000);
        for i in 0..4_000u64 {
            let h = crate::fnv::fnv1a_of(&i);
            table.write(h, |map| map.insert_hashed(h, i, i));
        }
        assert_eq!(table.len(), 4_000);
        assert!(shard_slots(&table).iter().all(|&slots| slots >= 256));
        let mut map = RawFxMap::with_capacity(7);
        assert_eq!(map.slots.len(), 8);
        for i in 0..100u64 {
            map.insert_hashed(fx_hash_of(&i), i, ());
        }
        assert!(map.slots.len() >= 128 && map.len() == 100);
    }

    #[test]
    fn table_writes_mark_their_bucket_and_reads_do_not() {
        let table: ShardedRawTable<u64, u64> = ShardedRawTable::new();
        assert!(drained(&table).is_empty(), "a new table is clean");

        let h = 0x0123_4567_89ab_cdefu64;
        table.write(h, |map| map.insert_hashed(h, 1, 10));
        assert_eq!(drained(&table), vec![(shard_of(h), bucket_of(h))]);
        assert!(drained(&table).is_empty(), "draining clears the marks");

        assert_eq!(
            table.read(h, |map| map.get_hashed(h, &1).copied()),
            Some(10)
        );
        assert_eq!(table.len(), 1);
        assert_eq!(table.fold(0, |n, map| n + map.iter_hashed().count()), 1);
        assert!(
            drained(&table).is_empty(),
            "read, len and fold leave no mark"
        );

        // A write marks even when it changes nothing, and a drain hands
        // over the table it marked.
        table.write(h, |map| map.remove_hashed(h, &99));
        let mut seen = Vec::new();
        table.drain_dirty(|shard, mask, map| {
            seen.push((shard, mask.len(), map.iter_hashed().next().map(|e| e.0)))
        });
        assert_eq!(seen, vec![(shard_of(h), 1, Some(h))]);
    }

    #[test]
    fn byte_stream_matches_word_writes_only_for_same_input() {
        // write() over a 16-byte slice folds two words; different slices
        // must (overwhelmingly) produce different states.
        let mut a = FxHasher::new();
        a.write(&[1u8; 16]);
        let mut b = FxHasher::new();
        b.write(&[2u8; 16]);
        assert_ne!(a.finish(), b.finish());

        // Trailing partial chunks are folded too.
        let mut c = FxHasher::new();
        c.write(&[1u8; 9]);
        let mut d = FxHasher::new();
        d.write(&[1u8; 10]);
        assert_ne!(c.finish(), d.finish());
    }
}
