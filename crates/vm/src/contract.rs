//! The contract trait and contract kinds.

use crate::abi::{CallData, ReturnValue};
use crate::address::Address;
use crate::context::CallContext;
use crate::error::VmError;
use crate::snapshot::ContractSnapshot;
use crate::storage::StorageField;
use std::fmt;

/// A human-readable contract kind (e.g. `"Ballot"`), used in snapshots and
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContractKind(pub &'static str);

impl fmt::Display for ContractKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A deployed smart contract.
///
/// Contracts are ordinary Rust structs whose persistent state lives in the
/// [`crate::storage`] wrappers; `call` dispatches a [`CallData`] descriptor
/// to the corresponding function. The paper's prototype translated the
/// Solidity sources into Scala by hand; here they are translated into
/// Rust, with the same function-per-function structure.
///
/// Implementations must be `Send + Sync`: the same contract object is
/// invoked concurrently by the miner's speculative worker threads, with
/// all synchronization provided by the boosted storage underneath. One
/// transaction's calls, nested ones included, all run on one thread: `call`
/// gets the transaction's [`CallContext`] by `&mut`, and a nested call
/// ([`CallContext::call_contract`]) hands the callee a child context that
/// reborrows the same gas meter.
pub trait Contract: Send + Sync {
    /// The contract kind (used in snapshots and diagnostics).
    fn kind(&self) -> ContractKind;

    /// The address this contract is deployed at.
    fn address(&self) -> Address;

    /// Dispatches one function call.
    ///
    /// # Errors
    ///
    /// * [`VmError::Revert`] for contract-level `throw`;
    /// * [`VmError::UnknownFunction`] / [`VmError::BadArguments`] for
    ///   malformed calls;
    /// * [`VmError::OutOfGas`] when the meter is exhausted;
    /// * [`VmError::Stm`] when the enclosing speculative transaction must
    ///   retry.
    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError>;

    /// Every persistent state variable of the contract, in declaration
    /// order — the one list both the state commitment
    /// ([`crate::World::state_root`]) and [`Contract::snapshot`] derive
    /// from. A field left out is invisible to validators: two worlds
    /// differing only in it would share a root.
    fn storage_fields(&self) -> Vec<&dyn StorageField>;

    /// A canonical snapshot of the contract's entire persistent state,
    /// used for durable world snapshots and cross-execution equality
    /// checks.
    fn snapshot(&self) -> ContractSnapshot {
        ContractSnapshot::new(
            self.kind().0,
            self.address(),
            self.storage_fields()
                .iter()
                .map(|field| field.snapshot_field())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(ContractKind("Ballot").to_string(), "Ballot");
    }
}
