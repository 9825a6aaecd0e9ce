//! The incremental state commitment behind [`crate::World::state_root`].
//!
//! A block header commits to the post-state of its transactions through a
//! *state root*, and the paper's contract — a validator replaying the
//! published schedule reaches exactly the miner's state — is checked by
//! comparing roots. The root is therefore computed after every mine,
//! every validate and every pending-chain commit, and must cost what the
//! block *wrote*, not what the world *holds*.
//!
//! # Definition
//!
//! `H` is SHA-256, `‖` concatenation, integers little-endian unless noted,
//! and `bytes(x)` the `u64` length of `x` followed by `x`.
//!
//! * **Map fields** commit to a fixed-shape 16-ary Merkle tree
//!   over 4 096 leaf buckets. An entry with key fingerprint
//!   `h = fnv1a_of(key)` — the value the key's abstract lock is published
//!   under, stored in every backing-table slot — lives in leaf
//!   `(h mod 16) · 256 + (h / 16) mod 256`: its backing-store shard, then
//!   its bucket within the shard.
//!   * A leaf with entries is
//!     `H(0x00 ‖ bytes(k₁) ‖ bytes(v₁) ‖ bytes(k₂) ‖ …)` over its
//!     `(encoded key, encoded value)` pairs in ascending key order. Every
//!     binding is an entry; a tally an `add` brings to 0 is unbound, so
//!     an add of 0 binds nothing (`cc_stm::BoostedMap::add`).
//!   * An interior node over 16 children is
//!     `H(0x01 ‖ mask: u16 ‖ digest of every non-empty child, in order)`,
//!     bit `i` of `mask` saying child `i` is non-empty. A leaf is empty
//!     when it has no entry, a node when its mask is zero; empty children
//!     contribute no bytes, so a sparse map costs a few compressions.
//!   * The field digest is the root node's (`H(0x01 ‖ 0 ‖ 0)` for an
//!     empty map).
//! * A **cell** field (a scalar) is a map with one entry under the key
//!   `()`, which encodes to no bytes: its digest is its one-leaf tree's
//!   root.
//! * A **contract** is `H(bytes(kind) ‖ address ‖ fields: u64 ‖ bytes(name₀)
//!   ‖ digest₀ ‖ …)` over [`crate::Contract::storage_fields`] in
//!   declaration order, and the **world root**
//!   `H(contracts: u64 big-endian ‖ contract digests in address order)`.
//!
//! # Maintenance
//!
//! Every field caches its digest and its tree behind the dirty marks its
//! backing table keeps (`cc_primitives::fx`): the raw table's write
//! accessor is the only way to mutate base state and marks the written
//! bucket under the shard latch it already holds. A root drains the
//! marks and re-hashes only marked leaves and their three ancestors; a
//! field with no marks answers from its cache. A shard's leaves and low
//! nodes are allocated when one of its buckets is first hashed, so a
//! one-entry map holds one shard's worth of tree.
//! Marks are never cleared by anything but a drain — re-hashing a bucket
//! that was written and then rolled back reproduces the digest it had.
//! The from-scratch root of a freshly built world is the same code on an
//! empty cache: seeding marked every bucket it touched.
//!
//! A marked leaf is read with one bucket walk
//! (`RawFxMap::walk_bucket`), not a pass over its shard: the backing
//! tables place entries in bucket-major slot order, so a bucket's entries
//! sit in its own slot range or in the run right after it. A root
//! therefore reads slots in proportion to the buckets it re-hashes
//! ([`StateRootStats::slots_visited`]), whatever the world holds.
//!
//! [`crate::World::state_root_on`] spreads the dirty fields over a
//! worker pool — each worker claims the next field and refreshes it under
//! that field's own lock — and then folds the contract digests in
//! address order on the caller, every field answering from its cache by
//! then. Fields are independent, so the digests do not depend on which
//! worker hashed what; a root with nothing dirty stays on the caller.

use crate::contract::Contract;
use crate::snapshot::ToBytes;
use cc_primitives::fx::{BucketMask, RawFxMap, RAW_SHARD_BUCKETS, RAW_TABLE_SHARDS};
use cc_primitives::hash::Hash256;
use std::sync::atomic::{AtomicU64, Ordering};

const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// Children per interior node.
const FANOUT: usize = 16;
/// Low nodes under one high node; each high node spans one shard.
const LOW_PER_SHARD: usize = RAW_SHARD_BUCKETS / FANOUT;

/// Counts of the work state roots did over a world's lifetime: where the
/// root's cost goes now that it is proportional to what was written. Read
/// through [`crate::World::root_stats`]; compare two readings with
/// [`StateRootStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateRootStats {
    /// Map-field leaf buckets re-hashed because a write had marked them.
    pub dirty_leaves: u64,
    /// Map-field entries re-encoded while re-hashing those leaves.
    pub entries_rehashed: u64,
    /// Bytes fed to SHA-256 for field digests (leaves and interior
    /// nodes).
    pub bytes_hashed: u64,
    /// Map fields whose tree was built for the first time (a root over
    /// state no earlier root had cached).
    pub cold_builds: u64,
    /// Backing-table slots the bucket walks read to find the entries of
    /// those leaves.
    pub slots_visited: u64,
}

impl StateRootStats {
    /// The work done between an earlier reading and this one (counters
    /// are monotone; saturates rather than underflows if swapped).
    pub fn since(&self, earlier: &StateRootStats) -> StateRootStats {
        StateRootStats {
            dirty_leaves: self.dirty_leaves.saturating_sub(earlier.dirty_leaves),
            entries_rehashed: self
                .entries_rehashed
                .saturating_sub(earlier.entries_rehashed),
            bytes_hashed: self.bytes_hashed.saturating_sub(earlier.bytes_hashed),
            cold_builds: self.cold_builds.saturating_sub(earlier.cold_builds),
            slots_visited: self.slots_visited.saturating_sub(earlier.slots_visited),
        }
    }
}

/// The live counters behind [`StateRootStats`], on relaxed atomics (they
/// publish no other data). Opaque: a world owns one and hands it to the
/// fields it asks for digests.
#[derive(Debug, Default)]
pub struct RootCounters {
    dirty_leaves: AtomicU64,
    entries_rehashed: AtomicU64,
    bytes_hashed: AtomicU64,
    cold_builds: AtomicU64,
    slots_visited: AtomicU64,
}

impl RootCounters {
    pub(crate) fn stats(&self) -> StateRootStats {
        StateRootStats {
            dirty_leaves: self.dirty_leaves.load(Ordering::Relaxed),
            entries_rehashed: self.entries_rehashed.load(Ordering::Relaxed),
            bytes_hashed: self.bytes_hashed.load(Ordering::Relaxed),
            cold_builds: self.cold_builds.load(Ordering::Relaxed),
            slots_visited: self.slots_visited.load(Ordering::Relaxed),
        }
    }

    fn hashed(&self, bytes: usize) {
        self.bytes_hashed.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// One interior node: which children are non-empty, and its digest (only
/// meaningful while `occupied != 0`, or for the root).
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    occupied: u16,
    digest: Hash256,
}

/// The occupancy mask of a node over `children`: bit `i` set when child
/// `i` is itself non-empty.
fn occupancy(children: &[Node]) -> u16 {
    (children.iter().enumerate())
        .filter(|(_, child)| child.occupied != 0)
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// `H(0x01 ‖ mask ‖ non-empty children)`.
fn node_digest<'a>(
    occupied: u16,
    children: impl Iterator<Item = &'a Hash256>,
    counters: &RootCounters,
) -> Hash256 {
    // Laid out first and hashed in one call: the SHA kernel then keeps
    // its state in registers across the node's blocks.
    let mut bytes = [0; 3 + 32 * FANOUT];
    let [lo, hi] = occupied.to_le_bytes();
    bytes[..3].copy_from_slice(&[NODE_TAG, lo, hi]);
    let mut len = 3;
    for (i, child) in children.enumerate() {
        if occupied & (1 << i) != 0 {
            bytes[len..len + 32].copy_from_slice(child.as_bytes());
            len += 32;
        }
    }
    counters.hashed(len);
    cc_primitives::sha256(&bytes[..len])
}

/// The cached tree of one shard: its leaf digests and the low nodes over
/// them.
struct ShardTree {
    leaves: [Hash256; RAW_SHARD_BUCKETS],
    low: [Node; LOW_PER_SHARD],
}

/// The cached tree of one map field: the shards hashed so far and the
/// high nodes, one per shard, below the root.
struct Tree {
    shards: [Option<Box<ShardTree>>; RAW_TABLE_SHARDS],
    high: [Node; RAW_TABLE_SHARDS],
}

/// One entry of a dirty leaf encoded into the scratch arena as
/// `bytes(key) ‖ bytes(value)` — exactly what its leaf hashes.
#[derive(Debug, Clone, Copy)]
struct EncodedEntry {
    start: usize,
    /// End of the key encoding (the key starts 8 bytes after `start`).
    key_end: usize,
    end: usize,
}

/// Appends `bytes(value)` to `out`.
fn put_prefixed<T: ToBytes + ?Sized>(out: &mut Vec<u8>, value: &T) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    value.encode_into(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// The cached commitment of one map field. Allocates nothing until a
/// bucket of the field is first written, then one shard's tree per shard
/// written.
#[derive(Default)]
pub(crate) struct MapCommitment {
    tree: Option<Box<Tree>>,
    /// The field digest, while no shard was refreshed since it was taken.
    root: Option<Hash256>,
    /// Encodings of one dirty leaf's entries, then the leaf's bytes;
    /// kept for its capacity.
    scratch: Vec<u8>,
    /// The same entries, sorted into hashing order; kept for its capacity.
    order: Vec<EncodedEntry>,
}

impl std::fmt::Debug for MapCommitment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Not the leaf digests a derive would print.
        f.debug_struct("MapCommitment")
            .field("shards", &self.shards_built())
            .field("root", &self.root)
            .finish()
    }
}

impl MapCommitment {
    /// How many shards' leaves are allocated.
    fn shards_built(&self) -> usize {
        (self.tree.as_ref()).map_or(0, |tree| tree.shards.iter().flatten().count())
    }

    /// Re-hashes the `dirty` buckets of shard `shard` from its backing
    /// `table` — one bucket walk each, in ascending bucket order — and the
    /// interior nodes above them, short of the root.
    pub(crate) fn refresh_shard<K: ToBytes, V: ToBytes>(
        &mut self,
        shard: usize,
        dirty: BucketMask,
        table: &RawFxMap<K, V>,
        counters: &RootCounters,
    ) {
        let tree = self.tree.get_or_insert_with(|| {
            counters.cold_builds.fetch_add(1, Ordering::Relaxed);
            Box::new(Tree {
                shards: Default::default(),
                high: [Node::default(); RAW_TABLE_SHARDS],
            })
        });
        let ShardTree { leaves, low } = &mut **tree.shards[shard].get_or_insert_with(|| {
            Box::new(ShardTree {
                leaves: [Hash256::ZERO; RAW_SHARD_BUCKETS],
                low: [Node::default(); LOW_PER_SHARD],
            })
        });
        self.root = None;

        let (scratch, order) = (&mut self.scratch, &mut self.order);
        let (mut slots, mut entries, mut touched_low) = (0, 0, 0u16);
        for bucket in dirty.iter() {
            scratch.clear();
            order.clear();
            slots += table.walk_bucket(bucket, |_, key, value| {
                let start = scratch.len();
                put_prefixed(scratch, key);
                let key_end = scratch.len();
                put_prefixed(scratch, value);
                order.push(EncodedEntry {
                    start,
                    key_end,
                    end: scratch.len(),
                });
            });
            entries += order.len();
            let leaf = usize::from(bucket);
            let parent = &mut low[leaf / FANOUT];
            let bit = 1u16 << (leaf % FANOUT);
            if order.is_empty() {
                parent.occupied &= !bit;
            } else {
                order.sort_unstable_by(|a, b| {
                    (scratch[a.start + 8..a.key_end].cmp(&scratch[b.start + 8..b.key_end]))
                        .then_with(|| scratch[a.key_end..a.end].cmp(&scratch[b.key_end..b.end]))
                });
                // The leaf's bytes, laid out in key order after the
                // encodings, go to SHA-256 in one call.
                let at = scratch.len();
                scratch.push(LEAF_TAG);
                for e in order.iter() {
                    scratch.extend_from_within(e.start..e.end);
                }
                counters.hashed(scratch.len() - at);
                leaves[leaf] = cc_primitives::sha256(&scratch[at..]);
                parent.occupied |= bit;
            }
            touched_low |= 1 << (leaf / FANOUT);
        }
        counters
            .slots_visited
            .fetch_add(slots as u64, Ordering::Relaxed);
        counters
            .dirty_leaves
            .fetch_add(dirty.len() as u64, Ordering::Relaxed);
        counters
            .entries_rehashed
            .fetch_add(entries as u64, Ordering::Relaxed);

        for i in (0..LOW_PER_SHARD).filter(|i| touched_low & (1 << i) != 0) {
            let node = &mut low[i];
            let children = &leaves[i * FANOUT..(i + 1) * FANOUT];
            node.digest = node_digest(node.occupied, children.iter(), counters);
        }
        let occupied = occupancy(low);
        tree.high[shard] = Node {
            occupied,
            digest: node_digest(occupied, low.iter().map(|n| &n.digest), counters),
        };
    }

    /// The field digest: the root node over the (already refreshed) high
    /// nodes, cached until the next refresh.
    pub(crate) fn root(&mut self, counters: &RootCounters) -> Hash256 {
        let tree = &self.tree;
        *self.root.get_or_insert_with(|| match tree {
            None => node_digest(0, std::iter::empty(), counters),
            Some(tree) => node_digest(
                occupancy(&tree.high),
                tree.high.iter().map(|n| &n.digest),
                counters,
            ),
        })
    }
}

/// The digest of one contract: its identity plus the (cached or freshly
/// refreshed) digest of every storage field, in declaration order.
pub(crate) fn contract_digest(contract: &dyn Contract, counters: &RootCounters) -> Hash256 {
    let fields = contract.storage_fields();
    let mut bytes = Vec::new();
    put_prefixed(&mut bytes, contract.kind().0.as_bytes());
    bytes.extend_from_slice(contract.address().as_bytes());
    bytes.extend_from_slice(&(fields.len() as u64).to_le_bytes());
    for field in fields {
        put_prefixed(&mut bytes, field.name().as_bytes());
        bytes.extend_from_slice(field.digest(counters).as_bytes());
    }
    cc_primitives::sha256(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::storage::{StorageCell, StorageField, StorageMap};
    use cc_primitives::fnv::fnv1a_of;
    use cc_primitives::sha256;

    fn node(mask: u16, children: &[Hash256]) -> Hash256 {
        let mut bytes = vec![0x01];
        bytes.extend_from_slice(&mask.to_le_bytes());
        for child in children {
            bytes.extend_from_slice(child.as_bytes());
        }
        sha256(&bytes)
    }

    /// Pins the digest definition: a one-entry map's tree, computed by
    /// hand from the module docs, byte for byte.
    #[test]
    fn one_entry_tree_matches_the_hand_computed_digest() {
        let counters = RootCounters::default();
        let map: StorageMap<u64, u64> = StorageMap::new("pin.map");
        assert_eq!(map.digest(&counters), node(0, &[]), "empty map");
        assert_eq!(counters.stats().cold_builds, 0, "no tree for an empty map");

        map.seed(7, 9);
        let h = fnv1a_of(&7u64);
        let (shard, bucket) = ((h % 16) as usize, ((h / 16) % 256) as usize);

        // leaf = H(0x00 ‖ bytes(key) ‖ bytes(value)), u64 little-endian.
        let mut leaf = vec![0x00];
        leaf.extend_from_slice(&8u64.to_le_bytes());
        leaf.extend_from_slice(&7u64.to_le_bytes());
        leaf.extend_from_slice(&8u64.to_le_bytes());
        leaf.extend_from_slice(&9u64.to_le_bytes());
        // Three ancestors, each with exactly one non-empty child.
        let low = node(1 << (bucket % 16), &[sha256(&leaf)]);
        let high = node(1 << (bucket / 16), &[low]);
        let root = node(1 << shard, &[high]);
        assert_eq!(map.digest(&counters), root);

        let stats = counters.stats();
        assert_eq!(stats.cold_builds, 1);
        assert_eq!(stats.dirty_leaves, 1);
        assert_eq!(stats.entries_rehashed, 1);
        // Empty root + leaf + three one-child nodes.
        assert_eq!(stats.bytes_hashed, 3 + 33 + 3 * 35);

        // A clean field answers from its cache.
        assert_eq!(map.digest(&counters), root);
        assert_eq!(counters.stats(), stats);

        // Clones share the table, its marks and the cache.
        map.clone().seed(7, 9);
        assert_eq!(map.digest(&counters), root, "same content, same digest");
        assert_eq!(counters.stats().dirty_leaves, 2, "re-marked, re-hashed");
    }

    #[test]
    fn cell_vec_and_tally_digests_follow_the_definition() {
        let counters = RootCounters::default();
        // A cell is a one-entry map under `()`, whose key is no bytes.
        let cell: StorageCell<u64> = StorageCell::new("pin.cell", 5);
        let mut leaf = vec![0x00];
        leaf.extend_from_slice(&0u64.to_le_bytes());
        leaf.extend_from_slice(&8u64.to_le_bytes());
        leaf.extend_from_slice(&5u64.to_le_bytes());
        let h = fnv1a_of(&());
        let (shard, bucket) = ((h % 16) as usize, ((h / 16) % 256) as usize);
        let low = node(1 << (bucket % 16), &[sha256(&leaf)]);
        let high = node(1 << (bucket / 16), &[low]);
        assert_eq!(cell.digest(&counters), node(1 << shard, &[high]));
        assert_eq!(counters.stats().cold_builds, 1);

        // An add of 0 binds nothing: the field digest stays the empty
        // map's. A binding to 0 is an entry like any other.
        let tally: StorageMap<u64, u64> = StorageMap::new("pin.tally");
        let stm = cc_stm::Stm::new();
        stm.run(|txn| tally.inner.add(txn, 3, 0)).unwrap();
        assert_eq!(tally.digest(&counters), node(0, &[]));
        stm.run(|txn| tally.inner.add(txn, 3, 2)).unwrap();
        let two = tally.digest(&counters);
        assert_ne!(two, node(0, &[]));
        stm.run(|txn| tally.inner.add(txn, 3, 2u64.wrapping_neg()))
            .unwrap();
        assert_eq!(tally.digest(&counters), node(0, &[]), "back to 0");
        tally.seed(3, 0);
        assert_ne!(tally.digest(&counters), node(0, &[]));
        assert_eq!(counters.stats().cold_builds, 2);
    }

    fn shards_built<K, V>(map: &StorageMap<K, V>) -> usize {
        map.commitment.lock().shards_built()
    }

    /// A tree allocates leaves per shard written: a cell's cold root
    /// costs one shard, a map spread over every shard builds them all.
    #[test]
    fn a_one_entry_map_builds_one_shard() {
        let counters = RootCounters::default();
        let cell: StorageCell<u64> = StorageCell::new("one.cell", 5);
        assert_eq!(shards_built(&cell.map), 0, "nothing before the first root");
        cell.digest(&counters);
        assert_eq!(shards_built(&cell.map), 1);
        cell.seed(6);
        cell.digest(&counters);
        assert_eq!(shards_built(&cell.map), 1, "the same shard again");

        let map: StorageMap<u64, u64> = StorageMap::new("one.map");
        map.seed(7, 9);
        map.digest(&counters);
        assert_eq!(shards_built(&map), 1);
        for key in 0..256 {
            map.seed(key, key);
        }
        map.digest(&counters);
        assert_eq!(shards_built(&map), RAW_TABLE_SHARDS);
    }

    /// A stale cache would be a consensus bug: every non-transactional
    /// write after a root must move the next root.
    #[test]
    fn seed_after_a_root_changes_the_next_root() {
        let counters = RootCounters::default();
        let map: StorageMap<Address, u64> = StorageMap::new("stale.map");
        for i in 0..100 {
            map.seed(Address::from_index(i), i);
        }
        let before = map.digest(&counters);
        map.seed(Address::from_index(5), 1_000);
        let after = map.digest(&counters);
        assert_ne!(before, after);
        map.seed(Address::from_index(5), 5);
        assert_eq!(
            map.digest(&counters),
            before,
            "content-addressed, not history"
        );

        let cell: StorageCell<u64> = StorageCell::new("stale.cell", 1);
        let before = cell.digest(&counters);
        cell.seed(2);
        assert_ne!(cell.digest(&counters), before);
    }

    /// The definition, written the slow way: bucket every entry by the
    /// low 12 bits of its key fingerprint, hash non-empty leaves in key
    /// order, then fold 16 children at a time with occupancy masks.
    fn reference_map_digest(entries: &std::collections::BTreeMap<u64, u64>) -> Hash256 {
        let mut leaves = vec![Vec::new(); RAW_TABLE_SHARDS * RAW_SHARD_BUCKETS];
        for (key, value) in entries {
            let h = fnv1a_of(key);
            let leaf = (h % 16) as usize * 256 + ((h / 16) % 256) as usize;
            leaves[leaf].push((key.to_le_bytes(), value.to_le_bytes()));
        }
        let mut level: Vec<Option<Hash256>> = leaves
            .into_iter()
            .map(|mut entries| {
                entries.sort();
                let mut bytes = vec![0x00];
                for (k, v) in &entries {
                    bytes.extend_from_slice(&8u64.to_le_bytes());
                    bytes.extend_from_slice(k);
                    bytes.extend_from_slice(&8u64.to_le_bytes());
                    bytes.extend_from_slice(v);
                }
                (!entries.is_empty()).then(|| sha256(&bytes))
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(16)
                .map(|children| {
                    let mask = (children.iter().enumerate())
                        .filter(|(_, c)| c.is_some())
                        .fold(0u16, |m, (i, _)| m | 1 << i);
                    let present: Vec<Hash256> = children.iter().flatten().copied().collect();
                    // Only the root is hashed when empty.
                    (mask != 0 || level.len() == 16).then(|| node(mask, &present))
                })
                .collect();
        }
        level[0].expect("the root always has a digest")
    }

    /// The incremental digest of a map equals both the cold digest of a
    /// twin holding the same final contents and the definition computed
    /// from scratch, whatever the history — including buckets that hold
    /// several entries, and ones that fill up and drain again.
    #[test]
    fn incremental_digest_equals_cold_twin_and_reference_digests() {
        let counters = RootCounters::default();
        let map: StorageMap<u64, u64> = StorageMap::new("twin.map");
        let mut reference = std::collections::BTreeMap::new();
        assert_eq!(map.digest(&counters), reference_map_digest(&reference));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 1..=6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 9_000;
            map.seed(key, step);
            reference.insert(key, step);
            if step % 1_000 == 0 || step < 4 {
                let twin: StorageMap<u64, u64> = StorageMap::new("twin.cold");
                for (k, v) in &reference {
                    twin.seed(*k, *v);
                }
                let digest = map.digest(&counters);
                assert_eq!(digest, twin.digest(&RootCounters::default()));
                assert_eq!(digest, reference_map_digest(&reference));
            }
        }
    }
}
