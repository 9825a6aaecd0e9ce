//! A bounded, sharded pending-transaction pool with fee-priority block
//! assembly.
//!
//! The mempool is the node's traffic-serving front door: clients [`submit`]
//! transactions as they arrive, and the block pipeline periodically calls
//! [`build_block`] to drain the highest-priority *ready* transactions into a
//! gas-budgeted batch for the mining engine. Between those two calls the pool
//! enforces three policies:
//!
//! * **Per-sender nonce ordering.** Each sender's transactions execute in
//!   nonce order. A sender's pending transactions split into a *ready* run
//!   (contiguous nonces starting at the sender's next expected nonce) and a
//!   *gapped* set (nonces past a hole). Only ready transactions are eligible
//!   for block assembly; filling a hole promotes the gapped run behind it.
//! * **Fee-priority admission.** The pool is bounded. When a shard is full,
//!   an incoming transaction must outbid the lowest-priority *evictable*
//!   transaction (each sender's highest pending nonce — evicting a middle
//!   nonce would create an artificial hole) or be rejected.
//! * **Replace-by-nonce.** Re-submitting a `(sender, nonce)` that is already
//!   pending replaces the old transaction iff the new one bids a strictly
//!   higher [`priority_fee`](Transaction::priority_fee); equal-or-lower bids
//!   are rejected so replacement races are monotone.
//!
//! Priority is `(priority_fee desc, arrival seq asc)` everywhere — ties go
//! to the transaction that arrived first, and arrival sequence numbers are
//! unique, so admission, eviction and assembly are fully deterministic: two
//! pools fed the same submissions in the same order produce byte-identical
//! batches. The block pipeline's "pipelined equals sequential" guarantee
//! rests on this.
//!
//! Internally the pool is split into [`MempoolConfig::shards`] shards, each
//! behind its own mutex, with senders assigned to shards by an FNV-1a hash
//! of their address, so concurrent submitters on different senders rarely
//! contend. All sharding is invisible in the API except capacity, which is
//! enforced per shard ([`submit`] documents the rounding).
//!
//! [`submit`]: Mempool::submit
//! [`build_block`]: Mempool::build_block

use cc_ledger::Transaction;
use cc_primitives::fnv::fnv1a;
use cc_vm::Address;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Sizing knobs for a [`Mempool`].
#[derive(Debug, Clone, Copy)]
pub struct MempoolConfig {
    /// Total number of pending transactions the pool holds before fee
    /// eviction kicks in. Rounded up to a multiple of `shards`.
    pub capacity: usize,
    /// Number of independently locked shards. Senders are hashed onto
    /// shards, so this bounds submit-path contention, not correctness.
    pub shards: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            capacity: 8192,
            shards: 8,
        }
    }
}

impl MempoolConfig {
    /// A single-shard pool, handy for tests and reference models where the
    /// global eviction order must be exact rather than per-shard.
    pub fn single_shard(capacity: usize) -> Self {
        MempoolConfig {
            capacity,
            shards: 1,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// The transaction's nonce is below the sender's next expected nonce:
    /// a transaction with this nonce was already drained into a block (or
    /// the slot was consumed). It can never become ready.
    NonceTooLow {
        /// Nonce carried by the rejected transaction.
        got: u64,
        /// The sender's next expected nonce.
        expected: u64,
    },
    /// A transaction with this `(sender, nonce)` is already pending and the
    /// replacement does not bid a strictly higher priority fee.
    ReplacementUnderpriced {
        /// Fee bid by the transaction already in the pool.
        existing_fee: u64,
    },
    /// The shard is full and the transaction does not outbid the cheapest
    /// evictable transaction.
    Underpriced {
        /// Fee the submission needed to strictly exceed.
        fee_floor: u64,
    },
}

impl fmt::Display for MempoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MempoolError::NonceTooLow { got, expected } => {
                write!(f, "nonce {got} too low: sender's next nonce is {expected}")
            }
            MempoolError::ReplacementUnderpriced { existing_fee } => write!(
                f,
                "replacement must bid more than the pending fee {existing_fee}"
            ),
            MempoolError::Underpriced { fee_floor } => {
                write!(f, "pool full: must bid more than fee {fee_floor}")
            }
        }
    }
}

impl std::error::Error for MempoolError {}

/// What happened to an accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The transaction is ready for block assembly. `promoted` counts the
    /// previously gapped transactions this submission pulled into the ready
    /// run by filling a nonce hole (0 for an ordinary in-order arrival).
    Ready {
        /// Gapped transactions promoted to ready behind this one.
        promoted: usize,
    },
    /// The transaction parked behind a nonce gap; a prior nonce from this
    /// sender is still missing.
    Queued,
    /// The transaction replaced a pending one with the same `(sender,
    /// nonce)` at a higher fee.
    Replaced,
}

/// Aggregate occupancy counters, summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MempoolStats {
    /// Transactions eligible for block assembly right now.
    pub ready: usize,
    /// Transactions parked behind a nonce gap.
    pub gapped: usize,
    /// Transactions evicted by fee pressure since the pool was created.
    pub evicted: u64,
}

impl MempoolStats {
    /// Total pending transactions (`ready + gapped`).
    pub fn pending(&self) -> usize {
        self.ready + self.gapped
    }
}

/// A pending transaction plus its arrival sequence number (the priority
/// tie-breaker).
#[derive(Debug, Clone)]
struct PendingTx {
    tx: Transaction,
    seq: u64,
}

impl PendingTx {
    /// Priority key: higher compares greater. `seq` is inverted so earlier
    /// arrivals win ties, and since seqs are unique the order is total.
    fn priority(&self) -> (u64, std::cmp::Reverse<u64>) {
        (self.tx.priority_fee, std::cmp::Reverse(self.seq))
    }
}

/// One sender's pending transactions.
///
/// Invariant: `ready` holds contiguous nonces `next, next+1, ..,
/// next+ready.len()-1`; every key in `gapped` is `> next + ready.len()`
/// (if one equaled it, insertion would have promoted it). Draining the
/// ready front advances `next` and shrinks `ready` together, so the
/// boundary `next + ready.len()` — and with it the invariant — is
/// untouched by [`Mempool::build_block`]; promotion only ever happens at
/// submit time.
#[derive(Debug, Default)]
struct SenderQueue {
    /// The sender's next expected nonce (first unconsumed, unpending slot).
    next: u64,
    /// Contiguous ready run starting at `next`.
    ready: VecDeque<PendingTx>,
    /// Transactions past a nonce hole, keyed by nonce.
    gapped: BTreeMap<u64, PendingTx>,
}

impl SenderQueue {
    /// The sender's evictable transaction: the highest pending nonce.
    /// Evicting any other would punch a hole in the ready run.
    fn evictable(&self) -> Option<&PendingTx> {
        self.gapped
            .last_key_value()
            .map(|(_, p)| p)
            .or_else(|| self.ready.back())
    }

    /// Removes the highest pending nonce (the transaction [`Self::evictable`]
    /// returned), if any.
    fn evict_tail(&mut self) {
        if self.gapped.pop_last().is_none() {
            self.ready.pop_back();
        }
    }
}

/// One lock's worth of the pool.
#[derive(Debug, Default)]
struct Shard {
    senders: HashMap<Address, SenderQueue>,
    /// Pending transactions in this shard (ready + gapped over all senders).
    len: usize,
    ready: usize,
}

impl Shard {
    /// Makes room in a full shard for a transaction bidding `fee`: evicts
    /// the cheapest evictable transaction (the minimum-priority sender
    /// tail) if `fee` outbids it.
    fn evict_for(&mut self, fee: u64) -> Result<(), MempoolError> {
        let cheapest = self
            .senders
            .values_mut()
            .filter_map(|queue| Some((queue.evictable()?.priority(), queue)))
            .min_by_key(|&(priority, _)| priority);
        // Unreachable: a full shard holds a transaction, so some sender
        // has a tail. Were it reached, the shard would overshoot by one.
        let Some(((fee_floor, _), victim)) = cheapest else {
            return Ok(());
        };
        if fee <= fee_floor {
            return Err(MempoolError::Underpriced { fee_floor });
        }
        // evict_tail takes the last gapped entry first, so the evicted
        // transaction was ready iff the victim had no gapped entries.
        self.ready -= usize::from(victim.gapped.is_empty());
        victim.evict_tail();
        self.len -= 1;
        Ok(())
    }
}

/// Locks one shard.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // Poisoned only if a holder panicked part-way through an update, so
    // the shard's counters can no longer be trusted: propagate the panic.
    shard.lock().expect("a mempool shard holder panicked")
}

/// The pool. See the [crate docs](crate) for the policies it enforces.
#[derive(Debug)]
pub struct Mempool {
    shards: Vec<Mutex<Shard>>,
    /// Max pending transactions per shard.
    shard_capacity: usize,
    /// Arrival counter; every accepted submission gets a unique, increasing
    /// sequence number used as the priority tie-breaker.
    seq: AtomicU64,
    evicted: AtomicU64,
}

impl Default for Mempool {
    fn default() -> Self {
        Mempool::new(MempoolConfig::default())
    }
}

impl Mempool {
    /// Creates an empty pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.capacity` is zero.
    pub fn new(config: MempoolConfig) -> Self {
        assert!(config.shards > 0, "mempool needs at least one shard");
        assert!(config.capacity > 0, "mempool needs nonzero capacity");
        Mempool {
            shards: (0..config.shards).map(|_| Mutex::default()).collect(),
            shard_capacity: config.capacity.div_ceil(config.shards),
            seq: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, sender: &Address) -> usize {
        (fnv1a(sender.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Submits a transaction, applying the admission, replacement and
    /// eviction policies described in the [crate docs](crate).
    ///
    /// Capacity is enforced per shard (`capacity / shards` each, rounded
    /// up), so a pool never holds more than ~`capacity + shards` pending
    /// transactions and fee pressure on one hot shard cannot starve others.
    ///
    /// # Errors
    ///
    /// Returns a [`MempoolError`] when the nonce was already consumed, a
    /// replacement does not raise the fee, or a full shard's fee floor is
    /// not outbid. The pool is unchanged on error.
    pub fn submit(&self, tx: Transaction) -> Result<SubmitOutcome, MempoolError> {
        let mut shard = lock(&self.shards[self.shard_of(&tx.sender)]);
        let queue = shard.senders.entry(tx.sender).or_default();

        if tx.nonce < queue.next {
            return Err(MempoolError::NonceTooLow {
                got: tx.nonce,
                expected: queue.next,
            });
        }

        let ready_end = queue.next + queue.ready.len() as u64;
        // Replacement: the (sender, nonce) slot is already pending.
        if tx.nonce < ready_end {
            let slot = (tx.nonce - queue.next) as usize;
            let existing = &queue.ready[slot];
            if tx.priority_fee <= existing.tx.priority_fee {
                return Err(MempoolError::ReplacementUnderpriced {
                    existing_fee: existing.tx.priority_fee,
                });
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            queue.ready[slot] = PendingTx { tx, seq };
            return Ok(SubmitOutcome::Replaced);
        }
        if let Some(existing) = queue.gapped.get(&tx.nonce) {
            if tx.priority_fee <= existing.tx.priority_fee {
                return Err(MempoolError::ReplacementUnderpriced {
                    existing_fee: existing.tx.priority_fee,
                });
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            queue.gapped.insert(tx.nonce, PendingTx { tx, seq });
            return Ok(SubmitOutcome::Replaced);
        }

        // Fresh insertion: make room first so the shard never overshoots.
        if shard.len >= self.shard_capacity {
            shard.evict_for(tx.priority_fee)?;
            self.evicted.fetch_add(1, Ordering::Relaxed);
            // The victim may be this very sender; `queue` is re-fetched
            // below either way.
        }

        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let queue = shard.senders.entry(tx.sender).or_default();
        let outcome = if tx.nonce == queue.next + queue.ready.len() as u64 {
            queue.ready.push_back(PendingTx { tx, seq });
            // Filling the hole may promote a contiguous gapped run.
            let mut promoted = 0;
            while let Some(entry) = queue
                .gapped
                .first_entry()
                .filter(|e| *e.key() == queue.next + queue.ready.len() as u64)
            {
                queue.ready.push_back(entry.remove());
                promoted += 1;
            }
            Ok(SubmitOutcome::Ready { promoted })
        } else {
            queue.gapped.insert(tx.nonce, PendingTx { tx, seq });
            Ok(SubmitOutcome::Queued)
        };
        shard.len += 1;
        if let Ok(SubmitOutcome::Ready { promoted }) = outcome {
            shard.ready += promoted + 1;
        }
        outcome
    }

    /// Records that the chain has consumed `sender`'s nonces below
    /// `next` — e.g. when a recovered node seeds a fresh pool from its
    /// rebuilt chain. Advances the sender's expected nonce (never
    /// backwards), drops pending transactions the boundary overran, and
    /// promotes gapped transactions the new boundary reaches.
    pub fn observe_consumed(&self, sender: Address, next: u64) {
        let mut shard = lock(&self.shards[self.shard_of(&sender)]);
        let queue = shard.senders.entry(sender).or_default();
        if next <= queue.next {
            return;
        }
        let mut removed = 0usize;
        let mut removed_ready = 0usize;
        while queue.ready.front().is_some_and(|p| p.tx.nonce < next) {
            queue.ready.pop_front();
            removed += 1;
            removed_ready += 1;
        }
        // Contiguity means the surviving front (if any) is exactly `next`.
        queue.next = next;
        let mut promoted = 0usize;
        if queue.ready.is_empty() {
            while queue
                .gapped
                .first_key_value()
                .is_some_and(|(&nonce, _)| nonce < next)
            {
                queue.gapped.pop_first();
                removed += 1;
            }
            while let Some(entry) = queue
                .gapped
                .first_entry()
                .filter(|e| *e.key() == queue.next + queue.ready.len() as u64)
            {
                queue.ready.push_back(entry.remove());
                promoted += 1;
            }
        }
        shard.len -= removed;
        shard.ready = shard.ready + promoted - removed_ready;
    }

    /// Drains the highest-priority ready transactions into a batch whose
    /// total [`gas_limit`](Transaction::gas_limit) fits `gas_limit`.
    ///
    /// Transactions are taken strictly in `(priority_fee desc, arrival
    /// asc)` order across all senders, never skipping a sender's nonce: if
    /// a sender's next ready transaction does not fit the remaining gas,
    /// that sender contributes nothing further to this block (its later
    /// nonces cannot jump the queue). Drained transactions leave the pool
    /// permanently; the caller owns getting them into a durable block.
    ///
    /// Locks every shard for the duration, so assembly is a consistent
    /// snapshot and the result is deterministic for a given submission
    /// history.
    pub fn build_block(&self, gas_limit: u64) -> Vec<Transaction> {
        let mut guards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(lock).collect();

        // Max-heap of each sender's ready head, keyed by priority.
        #[derive(PartialEq, Eq)]
        struct Head {
            fee: u64,
            seq_rev: std::cmp::Reverse<u64>,
            shard: usize,
            sender: Address,
        }
        impl Ord for Head {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.fee, self.seq_rev).cmp(&(other.fee, other.seq_rev))
            }
        }
        impl PartialOrd for Head {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut heap: BinaryHeap<Head> = BinaryHeap::new();
        for (shard_idx, guard) in guards.iter().enumerate() {
            for (sender, queue) in &guard.senders {
                if let Some(head) = queue.ready.front() {
                    heap.push(Head {
                        fee: head.tx.priority_fee,
                        seq_rev: std::cmp::Reverse(head.seq),
                        shard: shard_idx,
                        sender: *sender,
                    });
                }
            }
        }

        let mut batch = Vec::new();
        let mut remaining = gas_limit;
        while let Some(head) = heap.pop() {
            let shard = &mut *guards[head.shard];
            // Every heap entry names a sender of its shard, and no sender
            // leaves a shard while its guard is held.
            let queue = shard
                .senders
                .get_mut(&head.sender)
                .expect("heap sender exists");
            let Some(taken) = queue.ready.pop_front_if(|p| p.tx.gas_limit <= remaining) else {
                // Can't take this sender's next nonce ⇒ none of its later
                // nonces either. Drop the sender for this block.
                continue;
            };
            let cost = taken.tx.gas_limit;
            queue.next = taken.tx.nonce + 1;
            remaining -= cost;
            shard.len -= 1;
            shard.ready -= 1;
            batch.push(taken.tx);
            if let Some(next_head) = queue.ready.front() {
                heap.push(Head {
                    fee: next_head.tx.priority_fee,
                    seq_rev: std::cmp::Reverse(next_head.seq),
                    shard: head.shard,
                    sender: head.sender,
                });
            }
            if remaining == 0 {
                break;
            }
        }
        batch
    }

    /// Total pending transactions (ready + gapped).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).len).sum()
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy counters, summed across shards.
    pub fn stats(&self) -> MempoolStats {
        let mut stats = MempoolStats {
            evicted: self.evicted.load(Ordering::Relaxed),
            ..MempoolStats::default()
        };
        for shard in &self.shards {
            let guard = lock(shard);
            stats.ready += guard.ready;
            stats.gapped += guard.len - guard.ready;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::{ArgValue, CallData};

    fn tx(sender: u64, nonce: u64, fee: u64) -> Transaction {
        Transaction::new(
            nonce,
            Address::from_index(sender),
            Address::from_name("Ballot"),
            CallData::new("vote", vec![ArgValue::Uint(0)]),
            21_000,
        )
        .priority_fee(fee)
    }

    #[test]
    fn observe_consumed_seeds_the_nonce_boundary() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        // A recovered node: the chain already consumed nonces 0 and 1.
        pool.observe_consumed(Address::from_index(1), 2);
        assert_eq!(
            pool.submit(tx(1, 0, 5)),
            Err(MempoolError::NonceTooLow {
                got: 0,
                expected: 2
            })
        );
        assert_eq!(pool.submit(tx(1, 3, 5)), Ok(SubmitOutcome::Queued));
        assert_eq!(
            pool.submit(tx(1, 2, 5)),
            Ok(SubmitOutcome::Ready { promoted: 1 })
        );
        let stats = pool.stats();
        assert_eq!((stats.ready, stats.gapped), (2, 0));
    }

    #[test]
    fn observe_consumed_drops_overrun_and_promotes_reached() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        assert_eq!(
            pool.submit(tx(1, 0, 5)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        assert_eq!(
            pool.submit(tx(1, 1, 5)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        assert_eq!(pool.submit(tx(1, 3, 5)), Ok(SubmitOutcome::Queued));
        assert_eq!(pool.submit(tx(1, 4, 5)), Ok(SubmitOutcome::Queued));
        // The chain consumed 0..=2 elsewhere: 0 and 1 are stale, the gap
        // at 2 is filled from the outside, so 3 and 4 promote.
        pool.observe_consumed(Address::from_index(1), 3);
        let stats = pool.stats();
        assert_eq!((stats.ready, stats.gapped), (2, 0));
        assert_eq!(pool.len(), 2);
        let nonces: Vec<u64> = pool.build_block(u64::MAX).iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![3, 4]);
        // Never moves backwards.
        pool.observe_consumed(Address::from_index(1), 1);
        assert_eq!(
            pool.submit(tx(1, 4, 5)),
            Err(MempoolError::NonceTooLow {
                got: 4,
                expected: 5
            })
        );
    }

    #[test]
    fn in_order_arrivals_are_ready() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        assert_eq!(
            pool.submit(tx(1, 0, 5)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        assert_eq!(
            pool.submit(tx(1, 1, 5)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        let stats = pool.stats();
        assert_eq!((stats.ready, stats.gapped), (2, 0));
    }

    #[test]
    fn gap_parks_and_fill_promotes() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        assert_eq!(pool.submit(tx(1, 2, 5)), Ok(SubmitOutcome::Queued));
        assert_eq!(pool.submit(tx(1, 1, 5)), Ok(SubmitOutcome::Queued));
        let stats = pool.stats();
        assert_eq!((stats.ready, stats.gapped), (0, 2));
        // Nonce 0 fills the hole and promotes 1 and 2.
        assert_eq!(
            pool.submit(tx(1, 0, 5)),
            Ok(SubmitOutcome::Ready { promoted: 2 })
        );
        let stats = pool.stats();
        assert_eq!((stats.ready, stats.gapped), (3, 0));
    }

    #[test]
    fn build_block_takes_priority_order_within_gas() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        pool.submit(tx(1, 0, 1)).unwrap();
        pool.submit(tx(2, 0, 9)).unwrap();
        pool.submit(tx(3, 0, 5)).unwrap();
        let batch = pool.build_block(2 * 21_000);
        let fees: Vec<u64> = batch.iter().map(|t| t.priority_fee).collect();
        assert_eq!(fees, vec![9, 5]);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn build_block_never_skips_a_nonce() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        // Sender 1: cheap nonce 0, expensive nonce 1. The expensive one
        // cannot jump its cheap predecessor.
        pool.submit(tx(1, 0, 1)).unwrap();
        pool.submit(tx(1, 1, 99)).unwrap();
        pool.submit(tx(2, 0, 5)).unwrap();
        let batch = pool.build_block(3 * 21_000);
        let order: Vec<(u64, u64)> = batch.iter().map(|t| (t.nonce, t.priority_fee)).collect();
        assert_eq!(order, vec![(0, 5), (0, 1), (1, 99)]);
    }

    #[test]
    fn drained_nonces_cannot_return() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        pool.submit(tx(1, 0, 5)).unwrap();
        assert_eq!(pool.build_block(u64::MAX).len(), 1);
        assert_eq!(
            pool.submit(tx(1, 0, 50)),
            Err(MempoolError::NonceTooLow {
                got: 0,
                expected: 1
            })
        );
        // The next nonce is ready immediately.
        assert_eq!(
            pool.submit(tx(1, 1, 5)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
    }

    #[test]
    fn replacement_requires_a_strictly_higher_fee() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        pool.submit(tx(1, 0, 5)).unwrap();
        assert_eq!(
            pool.submit(tx(1, 0, 5)),
            Err(MempoolError::ReplacementUnderpriced { existing_fee: 5 })
        );
        assert_eq!(pool.submit(tx(1, 0, 6)), Ok(SubmitOutcome::Replaced));
        assert_eq!(pool.len(), 1);
        // Gapped slots follow the same rule.
        pool.submit(tx(1, 5, 3)).unwrap();
        assert_eq!(
            pool.submit(tx(1, 5, 2)),
            Err(MempoolError::ReplacementUnderpriced { existing_fee: 3 })
        );
        assert_eq!(pool.submit(tx(1, 5, 4)), Ok(SubmitOutcome::Replaced));
    }

    #[test]
    fn full_pool_evicts_cheapest_tail_or_rejects() {
        let pool = Mempool::new(MempoolConfig::single_shard(2));
        pool.submit(tx(1, 0, 5)).unwrap();
        pool.submit(tx(2, 0, 3)).unwrap();
        // Equal bid loses to the incumbent.
        assert_eq!(
            pool.submit(tx(3, 0, 3)),
            Err(MempoolError::Underpriced { fee_floor: 3 })
        );
        // Higher bid evicts sender 2's tail.
        assert_eq!(
            pool.submit(tx(3, 0, 4)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().evicted, 1);
        let batch = pool.build_block(u64::MAX);
        let senders: Vec<Address> = batch.iter().map(|t| t.sender).collect();
        assert_eq!(
            senders,
            vec![Address::from_index(1), Address::from_index(3)]
        );
    }

    #[test]
    fn eviction_takes_the_highest_nonce_not_a_middle_one() {
        let pool = Mempool::new(MempoolConfig::single_shard(3));
        pool.submit(tx(1, 0, 2)).unwrap();
        pool.submit(tx(1, 1, 9)).unwrap();
        pool.submit(tx(1, 2, 1)).unwrap();
        // Sender 1's evictable tx is nonce 2 (fee 1), not nonce 0 (fee 2):
        // evicting nonce 0 would orphan the rest.
        assert_eq!(
            pool.submit(tx(2, 0, 2)),
            Ok(SubmitOutcome::Ready { promoted: 0 })
        );
        let batch = pool.build_block(u64::MAX);
        let kept: Vec<(u64, u64)> = batch.iter().map(|t| (t.nonce, t.priority_fee)).collect();
        assert!(kept.contains(&(0, 2)) && kept.contains(&(1, 9)));
        assert!(!kept.contains(&(2, 1)));
    }

    #[test]
    fn replacement_never_trips_capacity() {
        let pool = Mempool::new(MempoolConfig::single_shard(1));
        pool.submit(tx(1, 0, 5)).unwrap();
        // A replacement at full capacity is in-place, not an insert+evict.
        assert_eq!(pool.submit(tx(1, 0, 6)), Ok(SubmitOutcome::Replaced));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().evicted, 0);
    }

    #[test]
    fn ties_go_to_the_earlier_arrival() {
        let pool = Mempool::new(MempoolConfig::single_shard(16));
        pool.submit(tx(7, 0, 5)).unwrap();
        pool.submit(tx(3, 0, 5)).unwrap();
        let batch = pool.build_block(u64::MAX);
        let senders: Vec<Address> = batch.iter().map(|t| t.sender).collect();
        assert_eq!(
            senders,
            vec![Address::from_index(7), Address::from_index(3)]
        );
    }

    #[test]
    fn sharded_pool_agrees_with_itself() {
        // Two identically fed pools produce identical batches, shards or not.
        let a = Mempool::new(MempoolConfig {
            capacity: 64,
            shards: 4,
        });
        let b = Mempool::new(MempoolConfig {
            capacity: 64,
            shards: 4,
        });
        for sender in 0..10u64 {
            for nonce in 0..3u64 {
                let t = tx(sender, nonce, (sender * 7 + nonce) % 11);
                let _ = a.submit(t.clone());
                let _ = b.submit(t);
            }
        }
        assert_eq!(a.build_block(7 * 21_000), b.build_block(7 * 21_000));
        assert_eq!(a.len(), b.len());
    }
}
