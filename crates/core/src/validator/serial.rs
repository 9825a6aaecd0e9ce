//! Validation by the serial engine: `replay::Order::Published` replays a
//! block's transactions one at a time in block order and checks every
//! commitment, with no schedule to follow and no lock traces to check.

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
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

    #[test]
    fn schedule_and_trace_checks_do_not_change_the_verdict() {
        // Block order is the order: a schedule stripped of its edges, or
        // no schedule at all, replays the same, with trace checks on or
        // off; a forged root is rejected either way.
        let (miner_world, _, addr) = setup();
        let mined = Engine::serial().mine(&miner_world, txs(addr, 6)).unwrap();
        let mut no_edges = mined.block.clone();
        let schedule = no_edges.schedule.as_mut().unwrap();
        assert!(!schedule.edges.is_empty());
        schedule.edges.clear();
        no_edges.header.schedule_digest = schedule.digest();
        let mut no_schedule = mined.block.clone();
        no_schedule.schedule = None;
        no_schedule.header.schedule_digest = Hash256::ZERO;
        let mut forged = mined.block.clone();
        forged.header.state_root = cc_primitives::sha256(b"forged");

        let lenient = EngineConfig::serial().check_traces(false).build().unwrap();
        for engine in [Engine::serial(), lenient] {
            for block in [&mined.block, &no_edges, &no_schedule] {
                let (_, world, _) = setup();
                let report = engine.validate(&world, block).unwrap();
                assert_eq!(report.state_root, block.header.state_root);
            }
            let (_, world, _) = setup();
            assert!(engine.validate(&world, &forged).is_err());
        }
    }
}
