//! Validation by the serial preset: the same replay as every engine's, the
//! fork-join program of the derived graph, on a one-worker pool — a walk
//! on the calling thread that checks every commitment and lock trace.

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::error::CoreError;
    use cc_ledger::Transaction;
    use cc_primitives::hash::Hash256;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData, World};
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
        let engine = Engine::serial();
        let mined = engine.mine(&miner_world, txs(addr, 8)).unwrap();
        let report = engine.validate(&validator_world, &mined.block).unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
        assert_eq!(report.transactions, 8);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn tampered_state_root_is_rejected() {
        let (miner_world, validator_world, addr) = setup();
        let engine = Engine::serial();
        let mut mined = engine.mine(&miner_world, txs(addr, 4)).unwrap();
        mined.block.header.state_root = Hash256::ZERO;
        // Keep the block structurally well-formed: rebuild commitments that
        // depend only on the body.
        let err = engine.validate(&validator_world, &mined.block).unwrap_err();
        assert!(err.to_string().contains("state root"));
    }

    #[test]
    fn tampered_receipts_are_rejected() {
        let (miner_world, validator_world, addr) = setup();
        let engine = Engine::serial();
        let mined = engine.mine(&miner_world, txs(addr, 4)).unwrap();
        let mut block = mined.block.clone();
        block.receipts[2].gas_used += 1;
        // receipts_root no longer matches -> malformed.
        let err = engine.validate(&validator_world, &block).unwrap_err();
        assert!(err.to_string().contains("commitments"));
    }

    #[test]
    fn wrong_initial_state_is_rejected() {
        // Replayed on the miner's post-state, the block diverges.
        let (miner_world, _, addr) = setup();
        let engine = Engine::serial();
        let mined = engine.mine(&miner_world, txs(addr, 4)).unwrap();
        let err = engine.validate(&miner_world, &mined.block).unwrap_err();
        assert!(matches!(err, CoreError::BlockRejected { .. }), "{err:?}");
    }
}
