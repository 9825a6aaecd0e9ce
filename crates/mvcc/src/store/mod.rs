//! The timestamped multi-version collections.
//!
//! Every collection overlays its boosted twin (the pessimistic
//! collection of `cc_stm`, which holds the committed single-version
//! state) with `Versions`: per-key lists of `(commit_ts, value)`
//! entries in ascending timestamp order, appended to only inside the
//! first-committer-wins critical section. Readers take the newest version
//! at or below their snapshot and fall through to the boosted twin when a
//! key has none — the twin plays the role of timestamp
//! [`Timestamp::BASE`].
//!
//! Between blocks the runtime slices the lists by timestamp:
//! `finalize_below` flattens the newest version at or below a boundary
//! into the twin and drops what it flattened, `discard_above` drops
//! everything newer than a boundary. Snapshots, state roots and
//! pessimistic blocks then observe ordinary single-version state.

use cc_primitives::fx::FxHashMap;
use cc_primitives::ts::Timestamp;
use parking_lot::RwLock;
use std::hash::Hash;

mod cell;
mod counter;
mod map;

pub use cell::VersionedCell;
pub use map::VersionedMap;

/// One committed version of a value.
struct Version<T> {
    /// Commit timestamp (strictly positive; the boosted twin is `BASE`).
    ts: Timestamp,
    /// Whether the installing write was commutative (a `u64` map's `add`).
    /// Additive versions do not invalidate concurrent additive writers.
    additive: bool,
    value: T,
}

/// The block-lifecycle face of a versioned collection, held type-erased
/// by the runtime registry. Commit-time validation and installation
/// belong to each transaction's buffered state instead.
pub(crate) trait MvccCollection: Send + Sync {
    /// Flattens the newest version **at or below `boundary`** of every key
    /// into the boosted twin and drops the flattened versions, keeping
    /// everything newer. With `boundary` at the newest installed
    /// timestamp this flattens everything; with an older boundary it
    /// commits one *pending overlay* (the versions a speculatively
    /// validated block installed) while later overlays stay stacked above
    /// the twin. Reads at snapshots newer than `boundary` observe the same
    /// values before and after: a flattened version's value moves into
    /// the twin it would have fallen through to.
    fn finalize_below(&self, boundary: Timestamp);
    /// Drops every version **newer than `boundary`**, discarding pending
    /// overlays without touching the boosted twin. The inverse exit to
    /// [`MvccCollection::finalize_below`]: a speculated block whose
    /// predecessor failed (or whose own replay diverged) is rolled away by
    /// cutting the version lists back to its predecessor's boundary.
    fn discard_above(&self, boundary: Timestamp);
    /// Drops versions no snapshot at or after `horizon` can read.
    fn collect(&self, horizon: Timestamp);
}

/// Per-key version lists behind one reader-writer lock. A scalar (the
/// cell) is keyed by `()`.
struct Versions<K, T>(RwLock<FxHashMap<K, Vec<Version<T>>>>);

impl<K, T> Default for Versions<K, T> {
    fn default() -> Self {
        Versions(RwLock::new(FxHashMap::default()))
    }
}

impl<K, T> Versions<K, T> {
    /// Number of keys with versions (diagnostics).
    fn len(&self) -> usize {
        self.0.read().len()
    }
}

impl<K: Hash + Eq, T> Versions<K, T> {
    /// Hands `f` the newest value of `key` at or below `ts` by reference,
    /// scanning backwards (lists are short and recent versions are the
    /// common hit); `None` when the read falls through to the boosted
    /// twin. `f` runs under the lists' read lock.
    fn read_at<R>(&self, key: &K, ts: Timestamp, f: impl FnOnce(Option<&T>) -> R) -> R {
        let lists = self.0.read();
        let version = lists
            .get(key)
            .and_then(|list| list.iter().rev().find(|v| v.ts <= ts));
        f(version.map(|v| &v.value))
    }

    /// The first of `keys` that gained a version newer than `begin_ts` —
    /// the first-committer-wins conflict. A key paired with `true` is a
    /// purely additive write: it commutes with other additive versions and
    /// conflicts only with a newer non-additive one.
    fn first_conflict<'k>(
        &self,
        begin_ts: Timestamp,
        keys: impl IntoIterator<Item = (&'k K, bool)>,
    ) -> Option<&'k K>
    where
        K: 'k,
    {
        let lists = self.0.read();
        keys.into_iter()
            .find(|&(key, additive)| {
                lists.get(key).is_some_and(|list| {
                    list.iter()
                        .rev()
                        .take_while(|v| v.ts > begin_ts)
                        .any(|v| !(additive && v.additive))
                })
            })
            .map(|(key, _)| key)
    }

    /// Appends one version per write at `ts`. `version` turns a write,
    /// given its key and the key's newest installed value, into the
    /// version's value and additive flag.
    fn install<W>(
        &self,
        ts: Timestamp,
        writes: impl IntoIterator<Item = (K, W)>,
        version: impl Fn(&K, Option<&T>, W) -> (T, bool),
    ) {
        let mut lists = self.0.write();
        for (key, write) in writes {
            let newest = lists.get(&key).and_then(|list| list.last());
            let (value, additive) = version(&key, newest.map(|v| &v.value), write);
            lists.entry(key).or_default().push(Version {
                ts,
                additive,
                value,
            });
        }
    }

    /// Removes every version at or below `boundary` and hands the newest
    /// removed value of each key to `store` (see
    /// [`MvccCollection::finalize_below`]). Lists are ascending, so the
    /// split is a partition point.
    fn finalize_below(&self, boundary: Timestamp, mut store: impl FnMut(&K, T)) {
        self.0.write().retain(|key, list| {
            let split = list.partition_point(|v| v.ts <= boundary);
            if let Some(newest) = list.drain(..split).next_back() {
                store(key, newest.value);
            }
            !list.is_empty()
        });
    }

    /// Drops every version newer than `boundary` (see
    /// [`MvccCollection::discard_above`]).
    fn discard_above(&self, boundary: Timestamp) {
        self.0.write().retain(|_, list| {
            list.truncate(list.partition_point(|v| v.ts <= boundary));
            !list.is_empty()
        });
    }

    /// Trims every list to the suffix still reachable from `horizon`: the
    /// newest version at or below it (the one every current and future
    /// snapshot resolves to) plus everything newer. Only prunes: nothing
    /// moves into the boosted twin.
    fn collect(&self, horizon: Timestamp) {
        for list in self.0.write().values_mut() {
            if let Some(keep_from) = list.iter().rposition(|v| v.ts <= horizon) {
                list.drain(..keep_from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(raw: u64) -> Timestamp {
        Timestamp::from_raw(raw)
    }

    /// One key's list, `(ts, additive)` per version, valued by its ts.
    fn versions(list: &[(u64, bool)]) -> Versions<(), u64> {
        let versions = Versions::default();
        for &(raw, additive) in list {
            versions.install(ts(raw), [((), additive)], |_, _, additive| (raw, additive));
        }
        versions
    }

    #[test]
    fn prune_keeps_newest_reachable_version() {
        let list = versions(&[(1, false), (3, false), (7, false)]);
        list.collect(ts(5));
        assert_eq!(
            list.read_at(&(), ts(5), |v| v.cloned()),
            Some(3),
            "t3 resolves the horizon"
        );
        assert_eq!(list.read_at(&(), ts(2), |v| v.cloned()), None, "t1 is gone");
        assert_eq!(list.read_at(&(), ts(7), |v| v.cloned()), Some(7));

        let all_old = versions(&[(1, false), (2, false)]);
        all_old.collect(ts(9));
        assert_eq!(all_old.read_at(&(), ts(1), |v| v.cloned()), None);
        assert_eq!(all_old.read_at(&(), ts(9), |v| v.cloned()), Some(2));

        let all_new = versions(&[(8, false)]);
        all_new.collect(ts(5));
        assert_eq!(
            all_new.read_at(&(), ts(8), |v| v.cloned()),
            Some(8),
            "nothing at or below"
        );
    }

    #[test]
    fn conflict_predicates() {
        let list = versions(&[(2, false), (6, true)]);
        let newer = |begin: u64, additive: bool| {
            list.first_conflict(ts(begin), [(&(), additive)]).is_some()
        };
        assert!(newer(4, false));
        assert!(!newer(6, false));
        assert!(!newer(4, true), "only an additive version is newer");
        assert!(newer(1, true));
        assert_eq!(list.first_conflict(ts(1), []), None, "no keys, no conflict");
        assert_eq!(list.read_at(&(), ts(5), |v| v.cloned()), Some(2));
        assert_eq!(list.read_at(&(), Timestamp::BASE, |v| v.cloned()), None);
    }

    #[test]
    fn finalize_below_and_discard_above_slice_at_the_boundary() {
        let list = versions(&[(1, false), (3, false), (7, false)]);
        let mut flattened = Vec::new();
        list.finalize_below(ts(4), |_, value| flattened.push(value));
        assert_eq!(flattened, vec![3], "only the newest at or below");
        assert_eq!(
            list.read_at(&(), ts(6), |v| v.cloned()),
            None,
            "t1 and t3 are gone"
        );
        list.discard_above(ts(6));
        assert_eq!(list.len(), 0, "an emptied list drops its key");
    }
}
