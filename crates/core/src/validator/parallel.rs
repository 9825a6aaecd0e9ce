//! Validation by the fork-join engines: the speculative and the optimistic
//! engine both replay a block as the fork-join program of its published
//! happens-before graph (`replay::Order::ForkJoin`), checking each
//! replayed lock trace against the published profile unless trace checks
//! are off. Every case here runs on both.

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::error::CoreError;
    use cc_contracts::Ballot;
    use cc_ledger::Transaction;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData, World};
    use std::sync::Arc;

    fn counter_world() -> World {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-pv",
        ))));
        world
    }

    fn counter_txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i % 4),
                    Address::from_name("counter-pv"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    fn ballot_world(voters: u64) -> World {
        let world = World::new();
        let ballot = Ballot::with_numbered_proposals(
            Address::from_name("Ballot-pv"),
            Address::from_index(0),
            2,
        );
        for v in 1..=voters {
            ballot.seed_registered_voter(Address::from_index(v));
        }
        world.deploy(Arc::new(ballot));
        world
    }

    fn ballot_txs(voters: u64) -> Vec<Transaction> {
        (1..=voters)
            .map(|v| {
                Transaction::new(
                    v,
                    Address::from_index(v),
                    Address::from_name("Ballot-pv"),
                    CallData::new("vote", vec![ArgValue::Uint(0)]),
                    1_000_000,
                )
            })
            .collect()
    }

    /// The speculative and the optimistic engine, on `threads` workers.
    fn fork_join_engines(threads: usize) -> [Engine; 2] {
        [
            Engine::speculative(threads).unwrap(),
            Engine::optimistic(threads).unwrap(),
        ]
    }

    /// `engine` with its validator's trace checks off.
    fn lenient(engine: &Engine) -> Engine {
        engine.config().clone().check_traces(false).build().unwrap()
    }

    #[test]
    fn honest_parallel_block_is_accepted() {
        for engine in fork_join_engines(3) {
            let strategy = engine.strategy();
            let mined = engine.mine(&counter_world(), counter_txs(30)).unwrap();
            let report = engine.validate(&counter_world(), &mined.block).unwrap();
            assert_eq!(
                report.state_root, mined.block.header.state_root,
                "{strategy}"
            );
            assert_eq!(report.transactions, 30, "{strategy}");
            assert_eq!(report.threads, 3, "{strategy}");
            assert!(report.critical_path >= 1, "{strategy}");
        }
    }

    #[test]
    fn missing_schedule_is_rejected() {
        for engine in fork_join_engines(2) {
            let strategy = engine.strategy();
            let mined = engine.mine(&counter_world(), counter_txs(4)).unwrap();
            let mut block = mined.block.clone();
            block.schedule = None;
            block.header.schedule_digest = cc_primitives::Hash256::ZERO;
            let err = engine.validate(&counter_world(), &block).unwrap_err();
            assert!(
                matches!(err, CoreError::MissingSchedule),
                "{strategy}: {err:?}"
            );
        }
    }

    #[test]
    fn dropping_a_dependency_edge_is_detected_as_a_race() {
        // Transactions from the same sender conflict on the sender's
        // counts entry; removing the edge between two of them while
        // keeping the header consistent must be caught by the race check.
        for engine in fork_join_engines(3) {
            let strategy = engine.strategy();
            let mined = engine.mine(&counter_world(), counter_txs(12)).unwrap();
            let mut block = mined.block.clone();
            let schedule = block.schedule.as_mut().unwrap();
            assert!(!schedule.edges.is_empty(), "{strategy}");
            schedule.edges.clear();
            // Re-commit the tampered schedule so the block stays well-formed
            // (a dishonest miner would do exactly this).
            block.header.schedule_digest = schedule.digest();
            let err = engine.validate(&counter_world(), &block).unwrap_err();
            match err {
                CoreError::BlockRejected { reasons } => {
                    assert!(
                        reasons.iter().any(|r| r.contains("data race")),
                        "{strategy}: expected a data-race rejection, got: {reasons:?}"
                    );
                }
                other => panic!("{strategy}: expected rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn forged_state_root_is_rejected() {
        for engine in fork_join_engines(3) {
            let strategy = engine.strategy();
            let mined = engine.mine(&counter_world(), counter_txs(8)).unwrap();
            let mut block = mined.block.clone();
            block.header.state_root = cc_primitives::sha256(b"forged");
            let err = engine.validate(&counter_world(), &block).unwrap_err();
            assert!(err.to_string().contains("state root"), "{strategy}: {err}");
        }
    }

    #[test]
    fn wrong_initial_state_is_rejected() {
        for engine in fork_join_engines(3) {
            let strategy = engine.strategy();
            let mined = engine.mine(&ballot_world(8), ballot_txs(8)).unwrap();
            // Validate against a world with a different set of registered
            // voters: replay diverges (receipts and state differ).
            let err = engine.validate(&ballot_world(4), &mined.block).unwrap_err();
            assert!(
                matches!(err, CoreError::BlockRejected { .. }),
                "{strategy}: {err:?}"
            );
        }
    }

    #[test]
    fn ablation_mode_skips_trace_checks_but_still_checks_state() {
        for engine in fork_join_engines(3) {
            let strategy = engine.strategy();
            let mined = engine.mine(&counter_world(), counter_txs(8)).unwrap();
            let lenient = lenient(&engine);
            let report = lenient.validate(&counter_world(), &mined.block).unwrap();
            assert_eq!(
                report.state_root, mined.block.header.state_root,
                "{strategy}"
            );
            let mut block = mined.block.clone();
            block.header.state_root = cc_primitives::sha256(b"forged");
            assert!(
                lenient.validate(&counter_world(), &block).is_err(),
                "{strategy}"
            );
        }
    }

    #[test]
    fn serial_blocks_are_also_validatable_in_parallel() {
        let mined = Engine::serial()
            .mine(&counter_world(), counter_txs(6))
            .unwrap();
        // A sequential schedule has no profiles; the trace check would
        // reject it, which is the correct behaviour for a fork-join
        // validator — but the ablation mode can still replay it.
        for engine in fork_join_engines(2) {
            let strategy = engine.strategy();
            let report = lenient(&engine)
                .validate(&counter_world(), &mined.block)
                .unwrap();
            assert_eq!(
                report.state_root, mined.block.header.state_root,
                "{strategy}"
            );
        }
    }
}
