//! The commuting `add` of a `u64`-valued [`VersionedMap`].
//!
//! A key's buffered write is a binding or a delta. Adds to a key with no
//! buffered binding accumulate one delta; a purely additive write
//! validates only against newer *non-additive* versions and installs on
//! top of the newest total, so concurrent adders all commit, exactly like
//! the pessimistic `Additive` lock mode. An add after a buffered binding
//! folds into that binding. Versions hold totals, not deltas.

use super::map::{VersionedMap, Write};
use crate::txn::MvccTxn;
use cc_stm::LockMode;
use std::hash::Hash;

/// The total an add of `delta` leaves over `total` (0 when unbound):
/// the boosted twin's rule, a wrapping sum that is unbound at 0.
fn plus(total: Option<&u64>, delta: u64) -> Option<u64> {
    Some(total.map_or(delta, |total| total.wrapping_add(delta))).filter(|&sum| sum != 0)
}

impl<K> VersionedMap<K, u64>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Adds `delta` to the tally bound to `key` (pessimistic twin:
    /// additive key lock, see `cc_stm::BoostedMap::add` for the sum's
    /// rules); commutes with concurrent adds to the same key. An add of 0
    /// joins the footprint and buffers nothing.
    pub fn add(&self, txn: &MvccTxn<'_>, key: K, delta: u64) {
        self.footprint(txn, &key, LockMode::Additive);
        if delta == 0 {
            return;
        }
        self.buffer(txn, key, |prior| match prior {
            None => Write::Add(delta, plus),
            Some(Write::Add(pending, _)) => Write::Add(pending.wrapping_add(delta), plus),
            Some(Write::Bind(binding)) => Write::Bind(plus(binding.as_ref(), delta)),
        });
    }
}
