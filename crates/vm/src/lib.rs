//! Smart-contract execution substrate.
//!
//! The paper evaluates its concurrency scheme on Solidity contracts running
//! on the Ethereum virtual machine (translated to Scala/JVM in the
//! authors' prototype). This crate provides the equivalent substrate for
//! the Rust reproduction:
//!
//! * [`Address`] and [`Wei`] — account identifiers and currency amounts,
//! * [`Msg`] — the implicit `msg` call context (`msg.sender`, `msg.value`),
//! * [`GasMeter`] / [`GasSchedule`] — a transaction's gas limit and
//!   counter, and the per-operation prices [`CallContext`] charges from;
//!   one meter per transaction, borrowed by every nested call, with the
//!   Solidity `throw`-style out-of-gas abort,
//! * [`VmError`] — contract-level failure (throw/revert, out of gas, bad
//!   call), distinct from STM-level conflicts,
//! * [`storage`] — `StorageMap` / `StorageCell`, thin gas-charging
//!   wrappers over the boosted collections of [`cc_stm`] (a tally is a
//!   `StorageMap<K, u64>` written with its commuting `add`),
//! * [`Contract`] + [`World`] — the contract trait, registry and the entry
//!   point used by miners and validators to execute one call descriptor
//!   inside a speculative (or replay) transaction,
//! * [`commit`] — the incremental Merkle state commitment behind
//!   [`World::state_root`]; [`snapshot`] — canonical full-state bytes for
//!   durable snapshots.
//!
//! # Example
//!
//! ```
//! use cc_vm::{Address, CallData, ArgValue, World, Msg, Wei};
//! use cc_vm::testing::CounterContract;
//! use std::sync::Arc;
//!
//! let world = World::new();
//! let counter_addr = Address::from_index(1);
//! world.deploy(Arc::new(CounterContract::new(counter_addr)));
//!
//! let stm = world.stm().clone();
//! let txn = stm.begin();
//! let receipt = world.call(
//!     &txn,
//!     Msg { sender: Address::from_index(9), value: Wei::ZERO },
//!     counter_addr,
//!     &CallData::new("increment", vec![ArgValue::Uint(5)]),
//!     1_000_000,
//! );
//! txn.commit().unwrap();
//! assert!(receipt.succeeded());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod address;
pub mod commit;
pub mod context;
pub mod contract;
pub mod error;
pub mod event;
pub mod gas;
pub mod load;
pub mod msg;
pub mod receipt;
pub mod snapshot;
pub mod storage;
pub mod testing;
pub mod value;
pub mod world;

pub use abi::{ArgValue, CallData, ReturnValue};
pub use address::Address;
pub use commit::StateRootStats;
pub use context::{CallContext, TxnRef, TxnSavepoint};
pub use contract::{Contract, ContractKind};
pub use error::VmError;
pub use event::Event;
pub use gas::{GasMeter, GasSchedule};
pub use msg::Msg;
pub use receipt::{ExecutionStatus, Receipt};
pub use snapshot::{ContractSnapshot, FieldSnapshot, WorldSnapshot};
pub use storage::{StorageCell, StorageField, StorageMap};
pub use value::Wei;
pub use world::World;
