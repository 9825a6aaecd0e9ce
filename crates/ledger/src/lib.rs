//! Blockchain substrate: transactions, blocks, schedule metadata and chain
//! validation.
//!
//! The paper's proposal changes what a block *contains*: in addition to the
//! usual transaction list and final-state commitment, a mining node that
//! executed the block speculatively in parallel publishes the **schedule it
//! discovered** — the happens-before graph over the block's transactions
//! plus each transaction's lock profile — so that validators can re-execute
//! the block concurrently and deterministically. This crate defines those
//! data structures:
//!
//! * [`Transaction`] — a signed call descriptor (sender, target contract,
//!   function, arguments, gas limit),
//! * [`ScheduleMetadata`] — the lock profiles published by the miner, with
//!   the happens-before edges and serial order they derive,
//! * [`Block`] / [`BlockHeader`] — the chain element, committing to its
//!   parent, its transactions, its receipts, its final state and its
//!   schedule,
//! * [`WellFormedBlock`] — a block whose commitments were computed or
//!   checked once, which the chain appends without hashing it again,
//! * [`Blockchain`] — an append-only chain with structural validation,
//! * the durable ledger: the [`wal`], [`snapshot`] checkpoints and
//!   [`recovery`], in the on-disk [`mod@format`] version 2.
//!
//! # Example
//!
//! ```
//! use cc_ledger::{Blockchain, Block, Transaction};
//! use cc_vm::{Address, CallData, ArgValue};
//! use cc_primitives::Hash256;
//!
//! let mut chain = Blockchain::new();
//! let tx = Transaction::new(
//!     0,
//!     Address::from_index(1),
//!     Address::from_name("Ballot"),
//!     CallData::new("vote", vec![ArgValue::Uint(0)]),
//!     100_000,
//! );
//! let block = Block::build(chain.head_hash(), 1, vec![tx], Vec::new(), Hash256::ZERO, None);
//! chain.append(block).unwrap();
//! assert_eq!(chain.len(), 2); // genesis + our block
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod faultsim;
pub mod format;
pub mod recovery;
pub mod schedule_meta;
pub mod snapshot;
pub mod tx;
pub mod wal;

pub use block::{Block, BlockHeader, WellFormedBlock};
pub use chain::{Blockchain, ChainError};
pub use format::{VersionError, FORMAT_VERSION};
pub use recovery::{recover, RecoveredLedger, RecoveryError};
pub use schedule_meta::{ProfileRecord, ScheduleMetadata};
pub use snapshot::{load_latest, prune, write_checkpoint, SnapshotError, SnapshotFile};
pub use tx::{Transaction, TxId};
pub use wal::{DurabilityMode, Wal, WalScan, WAL_FILE};
