//! The per-world optimistic runtime: oracle, commit mutex, hot-lock write
//! intents and the registry of versioned collections.
//!
//! # Hot-lock write intents
//!
//! First-committer-wins alone lets a loser chase a hot key forever: its
//! re-run fixes a fresh snapshot, and a neighbour commits the key again
//! before it gets there. Intents turn that chase into a queue. A lock is
//! **hot** once some commit lost validation on it (the failed commit marks
//! it), and stays hot until the block's overlay is flattened or discarded
//! ([`MvccRuntime::finalize_below`], [`MvccRuntime::discard_above`]), so
//! every block starts cold. An intent is an owner slot in one of 64
//! stripes, picked by the `LockId` the footprint already computes;
//! hotness and ownership are per stripe. Three rules:
//!
//! 1. **Park at first touch.** Every storage op records its footprint;
//!    when the lock's stripe is hot and the transaction does not hold it,
//!    it takes the intent: it parks for it if it holds no intent yet, and
//!    otherwise only tries, going on without the intent if that fails. A
//!    retry ([`MvccRuntime::begin_holding`]) parks for the intent of the
//!    lock its previous attempt lost on before it fixes its snapshot.
//! 2. **Extend.** Having taken an intent mid-run, the transaction
//!    registers a new snapshot with the oracle, then re-validates what it
//!    read and wrote against the old one. If nothing changed, it moves to
//!    the new snapshot (so it sees whatever the previous holder published)
//!    and ends the old one; otherwise it keeps the old snapshot and will
//!    lose at commit, as it would have anyway.
//! 3. **Writers respect intents.** Under the commit mutex, every
//!    non-`Shared` footprint lock on a hot stripe must be held by the
//!    committer or try-acquired; a failed try is a conflict on that lock.
//!    Intents are released when the transaction is dropped, after its
//!    commit published, so a woken waiter's extension sees the holder's
//!    versions.
//!
//! The holder of a hot lock's intent therefore cannot lose on that lock,
//! and nobody sleeps or takes the commit mutex early. Intents decide who
//! waits and who loses, never what commits: correctness still rests on
//! validation alone.
//!
//! **No deadlock.** A transaction parks only while it holds no intent, and
//! under the commit mutex it only tries. Every wait is therefore by a
//! transaction holding nothing on one holding something, and a holder
//! never waits for an intent, so no cycle can form.
//!
//! **No cost when cold.** With nothing hot, a footprint call costs one
//! relaxed load; nothing is counted or allocated per transaction.
//! Validators never mark anything hot, because their replays do not lose.

use crate::oracle::TimestampOracle;
use crate::store::MvccCollection;
use crate::txn::MvccTxn;
use cc_primitives::ts::Timestamp;
use cc_stm::LockId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

/// The intent-stripe bit of `lock`: the top six bits of the mix the
/// `LockId` computed once at construction pick one of 64 stripes, one bit
/// each of a `u64`, so the hot stripes, the intents taken and a
/// transaction's intents are one word each.
pub(crate) fn intent_bit(lock: LockId) -> u64 {
    1 << (lock.mix() >> 58)
}

/// The intents' owner slots.
struct Intents {
    /// Bit `s` set: stripe `s`'s intent is held.
    taken: u64,
    /// The thread that took stripe `s`'s intent, meaningful while bit `s`
    /// of `taken` is set: what [`MvccRuntime::begin`]'s rule is checked
    /// against.
    takers: [Option<ThreadId>; 64],
    /// Transactions parked for an intent; a release with none wakes nobody.
    parked: usize,
}

impl Default for Intents {
    fn default() -> Self {
        Intents {
            taken: 0,
            takers: [None; 64],
            parked: 0,
        }
    }
}

/// Shared state for one world's optimistic execution: the timestamp
/// oracle, the first-committer-wins commit mutex, the hot-lock write
/// intents (see the module docs), and every versioned collection that has
/// been touched (so block finalization and garbage collection can reach
/// them all).
#[derive(Default)]
pub struct MvccRuntime {
    oracle: TimestampOracle,
    commit: Mutex<()>,
    /// Bit `s` set: stripe `s` is hot.
    hot: AtomicU64,
    intents: Mutex<Intents>,
    released: Condvar,
    collections: Mutex<Vec<Arc<dyn MvccCollection>>>,
}

impl MvccRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        MvccRuntime::default()
    }

    /// Starts an optimistic transaction at the current snapshot.
    ///
    /// # One intent holder per thread
    ///
    /// A thread must not begin a transaction that touches a hot lock
    /// while another of its own live transactions holds that lock's
    /// intent (its stripe's: any lock of the stripe counts). The new
    /// transaction holds no intent, so it parks for that one (rule 1 of
    /// the module docs), and an intent has no timer: only dropping the
    /// other transaction releases it, which the parked thread never
    /// does. The no-deadlock argument counts transactions and assumes
    /// each thread runs one at a time, so a thread about to park for an
    /// intent it took itself panics, naming this rule, instead of parking
    /// forever. The check runs only on the way to parking, so it costs
    /// nothing while no lock is hot.
    ///
    /// The miner keeps the rule: each worker runs one transaction at a
    /// time and drops a losing attempt before its retry begins. Replays
    /// keep it because they never heat a lock: they do not lose.
    pub fn begin(&self) -> MvccTxn<'_> {
        self.begin_holding(None)
    }

    /// Starts a transaction that first parks for the intent of `lost` —
    /// the lock the caller's previous attempt lost on — and only then
    /// fixes its snapshot, so it sees the intent's previous holder's
    /// commit and cannot lose on that lock (rule 1 of the module docs).
    /// The caller must hold no other intent: its previous attempt has to
    /// be dropped first, or the thread would park on its own intent and
    /// panics instead (see [`begin`](Self::begin)'s rule).
    pub fn begin_holding(&self, lost: Option<LockId>) -> MvccTxn<'_> {
        let held = lost.map_or(0, intent_bit);
        if held != 0 {
            self.take_intent(held, true);
        }
        MvccTxn::new(self, self.oracle.begin(), held)
    }

    /// The runtime's timestamp oracle.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Registers a versioned collection (each registers itself when
    /// built) so the block lifecycle and [`MvccRuntime::collect`] reach it.
    pub(crate) fn register(&self, collection: Arc<dyn MvccCollection>) {
        self.collections.lock().push(collection);
    }

    /// Flattens every committed version into the boosted twins, leaving
    /// the version lists empty: [`MvccRuntime::finalize_below`] at the
    /// newest published timestamp. Called by the miner after the last
    /// transaction of a block committed, before the state root is
    /// computed; must not run concurrently with active transactions.
    pub fn finalize_block(&self) {
        self.finalize_below(self.oracle.latest());
    }

    /// Flattens every version at or below `boundary` into the boosted
    /// twins, keeping newer versions stacked above them — the
    /// **pending-overlay commit**. A speculatively validated block's
    /// versions all carry timestamps at or below the oracle instant
    /// recorded when its replay finished; flattening up to that boundary
    /// commits exactly that block while later speculated blocks stay
    /// pending. Clears every hot stripe. Like
    /// [`MvccRuntime::finalize_block`], this must not run concurrently
    /// with active transactions.
    pub fn finalize_below(&self, boundary: Timestamp) {
        self.hot.store(0, Ordering::Relaxed);
        for collection in self.collections.lock().iter() {
            collection.finalize_below(boundary);
        }
    }

    /// Drops every version newer than `boundary` without touching the
    /// boosted twins — the **pending-overlay discard**. Rolls the
    /// versioned state back to the boundary of the last trusted block
    /// when a speculated block (or its predecessor) fails validation.
    /// Clears every hot stripe. Must not run concurrently with active
    /// transactions.
    pub fn discard_above(&self, boundary: Timestamp) {
        self.hot.store(0, Ordering::Relaxed);
        for collection in self.collections.lock().iter() {
            collection.discard_above(boundary);
        }
    }

    /// Garbage-collects versions that no active or future snapshot can
    /// read: in every version list, versions older than the newest one at
    /// or below the oldest active begin timestamp are dropped. It only
    /// prunes (nothing reaches the boosted twins), so it must not run
    /// while a pending overlay's boundary lies below the horizon: it would
    /// drop versions that overlay's `finalize_below` flattens. Safe to run
    /// concurrently with transactions.
    pub fn collect(&self) {
        let horizon = self.oracle.horizon();
        for collection in self.collections.lock().iter() {
            collection.collect(horizon);
        }
    }

    /// The first-committer-wins critical section.
    pub(crate) fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit.lock()
    }

    /// The hot stripes' bits. One relaxed load: a stale answer only
    /// changes who waits, never what commits.
    pub(crate) fn hot(&self) -> u64 {
        self.hot.load(Ordering::Relaxed)
    }

    /// Marks `lock`'s stripe hot; called by a commit that lost on it.
    pub(crate) fn mark_hot(&self, lock: LockId) {
        self.hot.fetch_or(intent_bit(lock), Ordering::Relaxed);
    }

    /// Takes the intent of stripe `bit`, parking until it is free if
    /// `park`; without `park`, fails when another transaction holds it.
    ///
    /// # Panics
    ///
    /// When it would park for an intent a transaction of this thread
    /// took: the one-holder-per-thread rule of [`MvccRuntime::begin`].
    pub(crate) fn take_intent(&self, bit: u64, park: bool) -> bool {
        let stripe = bit.trailing_zeros() as usize;
        let mut intents = self.intents.lock();
        while park && intents.taken & bit != 0 {
            assert_ne!(
                intents.takers[stripe],
                Some(thread::current().id()),
                "one intent holder per thread (see `MvccRuntime::begin`): this thread's own \
                 live transaction holds the write intent it would park for"
            );
            intents.parked += 1;
            self.released.wait(&mut intents);
            intents.parked -= 1;
        }
        let free = intents.taken & bit == 0;
        if free {
            intents.taken |= bit;
            intents.takers[stripe] = Some(thread::current().id());
        }
        free
    }

    /// Releases the intents of every stripe in `held` and wakes the parked.
    pub(crate) fn release_intents(&self, held: u64) {
        if held != 0 {
            let mut intents = self.intents.lock();
            intents.taken &= !held;
            if intents.parked > 0 {
                self.released.notify_all();
            }
        }
    }
}

impl fmt::Debug for MvccRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MvccRuntime")
            .field("latest", &self.oracle.latest())
            .field("active", &self.oracle.active_count())
            .field("hot", &format_args!("{:#x}", self.hot()))
            .field("collections", &self.collections.lock().len())
            .finish()
    }
}

#[cfg(test)]
impl MvccRuntime {
    /// How many transactions are parked for an intent.
    pub(crate) fn parked(&self) -> usize {
        self.intents.lock().parked
    }
}
