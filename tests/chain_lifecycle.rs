//! Multi-block chain lifecycle: a mining node and a validating node stay
//! in lock-step over many blocks of every benchmark, and structural chain
//! rules are enforced.

use cc_core::node::Node;
use cc_integration_tests::{engine, serial_engine, workload};
use cc_workload::{Benchmark, WorkloadSpec};

#[test]
fn five_block_chain_of_each_benchmark_stays_consistent() {
    for benchmark in Benchmark::ALL {
        let spec = WorkloadSpec::new(benchmark, 50, 0.2);
        let template = spec.generate();
        let shared_engine = engine(3);
        let mut miner_node = Node::builder()
            .world(template.build_world())
            .engine(shared_engine.clone())
            .build()
            .unwrap();
        let mut validator_node = Node::builder()
            .world(template.build_world())
            .engine(shared_engine)
            .build()
            .unwrap();

        for block_number in 1..=5u64 {
            let block_workload = spec.with_seed(block_number).generate();
            let mined = miner_node
                .mine_and_append(block_workload.transactions())
                .unwrap_or_else(|e| panic!("{benchmark}: mining block {block_number} failed: {e}"));
            validator_node
                .validate_and_append(&mined.block)
                .unwrap_or_else(|e| {
                    panic!("{benchmark}: validating block {block_number} failed: {e}")
                });
        }

        assert_eq!(miner_node.chain().len(), 6, "{benchmark}");
        assert!(miner_node.chain().verify_structure(), "{benchmark}");
        assert_eq!(
            miner_node.world().state_root(),
            validator_node.world().state_root(),
            "{benchmark}: miner and validator diverged"
        );
        assert_eq!(miner_node.chain().total_transactions(), 250, "{benchmark}");
    }
}

#[test]
fn serial_and_parallel_nodes_interoperate() {
    // A serial node and a speculative node take turns producing a chain
    // and following it, demonstrating the paper's "miner-only"
    // compatibility story: every miner publishes its lock profiles, and
    // each validator accepts the other kind's blocks, traces checked.
    let spec = WorkloadSpec::new(Benchmark::Ballot, 40, 0.1);
    let template = spec.generate();
    let mut serial_node = Node::builder()
        .world(template.build_world())
        .engine(serial_engine())
        .build()
        .unwrap();
    let mut speculative_node = Node::builder()
        .world(template.build_world())
        .engine(engine(3))
        .build()
        .unwrap();

    for block_number in 1..=4u64 {
        let block_workload = spec.with_seed(100 + block_number).generate();
        let (producer, follower) = if block_number % 2 == 0 {
            (&mut serial_node, &mut speculative_node)
        } else {
            (&mut speculative_node, &mut serial_node)
        };
        let mined = producer
            .mine_and_append(block_workload.transactions())
            .expect("mining succeeds");
        assert_eq!(
            mined.block.schedule.as_ref().unwrap().profiles.len(),
            mined.block.len(),
            "every miner publishes one lock profile per transaction"
        );
        follower
            .validate_and_append(&mined.block)
            .expect("the other kind of node accepts the block");
    }

    assert_eq!(
        serial_node.chain().head_hash(),
        speculative_node.chain().head_hash()
    );
    assert_eq!(
        serial_node.world().state_root(),
        speculative_node.world().state_root()
    );
    assert!(serial_node.chain().verify_structure());
    assert_eq!(serial_node.chain().len(), 5);
}

#[test]
fn blocks_cannot_be_appended_out_of_order() {
    let w = workload(Benchmark::EtherDoc, 30, 0.1, 9);
    let shared_engine = engine(2);
    let mut miner_node = Node::builder()
        .world(w.build_world())
        .engine(shared_engine.clone())
        .build()
        .unwrap();
    let mut lagging_node = Node::builder()
        .world(w.build_world())
        .engine(shared_engine)
        .build()
        .unwrap();

    let first = miner_node.mine_and_append(w.transactions()).unwrap();
    let second_workload = workload(Benchmark::EtherDoc, 30, 0.1, 10);
    let second = miner_node
        .mine_and_append(second_workload.transactions())
        .unwrap();

    let err = lagging_node.validate_and_append(&second.block).unwrap_err();
    assert!(err.to_string().contains("does not extend"));
    lagging_node.validate_and_append(&first.block).unwrap();
    lagging_node.validate_and_append(&second.block).unwrap();
    assert_eq!(lagging_node.chain().len(), 3);
}
