//! A transactional-boosting runtime for speculative smart-contract execution.
//!
//! This crate is the concurrency substrate of the reproduction of
//! *Adding Concurrency to Smart Contracts* (Dickerson, Gazzillo, Herlihy,
//! Koskinen — PODC 2017). The paper executes contract invocations as
//! *speculative atomic actions* synchronized by **transactional boosting**
//! rather than read/write-set STM:
//!
//! * every storage operation maps to an **abstract lock** ([`LockId`]); two
//!   operations that map to *distinct* locks are guaranteed to commute, and
//!   locks are held in a **mode** ([`LockMode`]) — shared for reads,
//!   additive for commutative accumulates, exclusive for everything else —
//!   so same-key operations that commute (read/read, add/add) also run in
//!   parallel,
//! * before performing an operation a transaction acquires the lock
//!   ([`Transaction::acquire`]) and records an **inverse operation** in its
//!   undo log — a typed `(key, prior value)` entry moved into the owning
//!   collection's [`UndoSink`], not a boxed closure,
//! * on commit the locks are released and the undo log discarded; on abort
//!   the inverse log is replayed (most recent first) and the locks released,
//! * a contract calling another contract runs as a **nested speculative
//!   action** ([`Transaction::nested`]) that can abort without aborting its
//!   parent,
//! * deadlocks are detected on the wait-for graph and resolved by aborting
//!   the requester, which then waits on the lock it lost on before its
//!   retry; after an upgrade deadlock the lock is granted exclusively to
//!   new holders for the rest of the block,
//! * the lock table is sharded into independently-locked stripes with
//!   targeted per-lock wakeups, so transactions over disjoint locks never
//!   serialize in the runtime itself (see `README.md` and the [`manager`]
//!   module docs for the architecture),
//! * every abstract lock carries a **use counter**; a committing transaction
//!   increments the counter of each lock it holds and registers a
//!   [`LockProfile`], from which the miner derives the happens-before graph
//!   that validators replay deterministically.
//!
//! On top of the raw transaction machinery the [`boosted`] module provides
//! the one collection type contracts use: [`BoostedMap`], whose `u64`
//! form adds commutatively ([`BoostedMap::add`]). A scalar state variable
//! is a map's entry under the empty key `()`.
//!
//! # Example
//!
//! ```
//! use cc_stm::{Stm, boosted::BoostedMap};
//!
//! let stm = Stm::new();
//! let balances: BoostedMap<String, u64> = BoostedMap::new("balances");
//!
//! let (_, commit) = stm.run(|txn| {
//!     balances.insert(txn, "alice".to_string(), 100)?;
//!     balances.insert(txn, "bob".to_string(), 50)?;
//!     Ok(())
//! }).expect("transaction commits");
//!
//! assert_eq!(commit.profile.locks.len(), 2);
//! assert_eq!(balances.snapshot().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boosted;
pub mod error;
pub mod lock;
pub mod manager;
pub mod profile;
pub mod retry;
pub mod txn;

pub use boosted::BoostedMap;
pub use error::StmError;
pub use lock::{LockId, LockMode, LockSpace};
pub use manager::LockManager;
pub use profile::{CommitProfile, LockProfile, ProfileEntry};
pub use txn::{PooledTxn, Savepoint, Stm, Transaction, TxnId, TxnScope, UndoSink};
