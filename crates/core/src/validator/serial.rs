//! The serial validator: today's behaviour — re-execute the block's
//! transactions one at a time on the calling thread.

use crate::error::CoreError;
use crate::stats::ValidationReport;
use crate::validator::replay::{Order, Target};
use crate::validator::Validator;
use cc_ledger::Block;
use cc_vm::World;

/// Re-executes the block sequentially and checks the state root, receipts
/// and gas usage.
///
/// If the block publishes a schedule, the transactions are replayed in the
/// published *serial order* (the topological sort of the happens-before
/// graph); otherwise in plain block order. Either way execution is
/// single-threaded — this is the baseline the paper's validator speedups
/// are measured against.
#[derive(Debug, Clone, Default)]
pub struct SerialValidator;

impl SerialValidator {
    /// Creates a serial validator.
    pub fn new() -> Self {
        SerialValidator
    }
}

impl Validator for SerialValidator {
    fn validate(&self, world: &World, block: &Block) -> Result<ValidationReport, CoreError> {
        Order::Published.validate(Target::Base, world, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{Miner, SerialMiner};
    use cc_ledger::Transaction;
    use cc_primitives::hash::Hash256;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::Arc;

    fn setup() -> (World, World, Address) {
        let build = || {
            let world = World::new();
            let addr = Address::from_name("counter-sv");
            world.deploy(Arc::new(CounterContract::new(addr)));
            (world, addr)
        };
        let (miner_world, addr) = build();
        let (validator_world, _) = build();
        (miner_world, validator_world, addr)
    }

    fn txs(addr: Address, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    addr,
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn honest_block_is_accepted() {
        let (miner_world, validator_world, addr) = setup();
        let mined = SerialMiner::new().mine(&miner_world, txs(addr, 8)).unwrap();
        let report = SerialValidator::new()
            .validate(&validator_world, &mined.block)
            .unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
        assert_eq!(report.transactions, 8);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn tampered_state_root_is_rejected() {
        let (miner_world, validator_world, addr) = setup();
        let mut mined = SerialMiner::new().mine(&miner_world, txs(addr, 4)).unwrap();
        mined.block.header.state_root = Hash256::ZERO;
        // Keep the block structurally well-formed: rebuild commitments that
        // depend only on the body.
        let err = SerialValidator::new()
            .validate(&validator_world, &mined.block)
            .unwrap_err();
        assert!(err.to_string().contains("state root"));
    }

    #[test]
    fn tampered_receipts_are_rejected() {
        let (miner_world, validator_world, addr) = setup();
        let mined = SerialMiner::new().mine(&miner_world, txs(addr, 4)).unwrap();
        let mut block = mined.block.clone();
        block.receipts[2].gas_used += 1;
        // receipts_root no longer matches -> malformed.
        let err = SerialValidator::new()
            .validate(&validator_world, &block)
            .unwrap_err();
        assert!(err.to_string().contains("commitments"));
    }
}
