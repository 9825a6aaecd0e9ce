//! A miniature network: one mining node extends a chain with the paper's
//! Mixed workload; one validating node checks and re-applies every block
//! with the deterministic fork-join validator; a third, legacy node
//! re-validates serially for comparison. Each node owns an `Engine`:
//! a strategy and a thread count, one thread for the legacy node.
//!
//! ```text
//! cargo run -p cc-examples --release --example full_node
//! ```

use cc_core::engine::Engine;
use cc_core::node::Node;
use cc_examples::speedup;
use cc_workload::{Benchmark, WorkloadSpec};
use std::time::Duration;

fn main() {
    println!("== full node example: mixed workload over a 5-block chain ==");
    let blocks = 5u64;
    let block_size = 150;
    let conflict = 0.15;

    // All nodes start from the same genesis state (the Mixed benchmark's
    // three deployed contracts).
    let spec = WorkloadSpec::new(Benchmark::Mixed, block_size, conflict);
    let template = spec.generate();

    // The mining node and the validating node run the paper's speculative
    // engine; the legacy node re-executes everything serially.
    let engine = Engine::default();
    let mut miner_node = Node::builder()
        .world(template.build_world())
        .engine(engine.clone())
        .build()
        .expect("valid config");
    let mut validator_node = Node::builder()
        .world(template.build_world())
        .engine(engine)
        .build()
        .expect("valid config");
    let legacy_engine = Engine::serial();
    let legacy_world = template.build_world();

    let mut total_mining = Duration::ZERO;
    let mut total_validation = Duration::ZERO;
    let mut total_serial_validation = Duration::ZERO;

    for number in 1..=blocks {
        // Each block gets a different shuffle of the workload.
        let workload = spec.with_seed(number).generate();
        let mined = miner_node
            .mine_and_append(workload.transactions())
            .expect("mining succeeds");
        total_mining += mined.stats.elapsed;
        println!(
            "mined block #{number}: {} txns, {} retries, critical path {}, state root {}",
            mined.block.len(),
            mined.stats.retries,
            mined.stats.critical_path,
            mined.block.header.state_root
        );

        // The validating node checks the block before appending it.
        let report = validator_node
            .validate_and_append(&mined.block)
            .expect("honest block accepted");
        total_validation += report.elapsed;

        // A legacy node re-executes the block serially against its own
        // copy of the state (ignoring the published schedule's graph).
        let serial_report = legacy_engine
            .validate(&legacy_world, &mined.block)
            .expect("serial validation accepts the block");
        total_serial_validation += serial_report.elapsed;
    }

    println!(
        "\nchain length (including genesis): {}",
        miner_node.chain().len()
    );
    println!(
        "total transactions on chain: {}",
        miner_node.chain().total_transactions()
    );
    println!(
        "chain structure verified: {}",
        miner_node.chain().verify_structure()
    );
    assert_eq!(
        miner_node.world().state_root(),
        validator_node.world().state_root(),
        "mining node and validating node agree on the final state"
    );
    assert_eq!(miner_node.world().state_root(), legacy_world.state_root());

    println!("\nwall-clock totals over {blocks} blocks of {block_size} transactions:");
    println!("  parallel mining:            {total_mining:?}");
    println!("  fork-join validation:       {total_validation:?}");
    println!("  serial (legacy) validation: {total_serial_validation:?}");
    println!(
        "  validator speedup over serial re-execution: {}",
        speedup(total_serial_validation, total_validation)
    );
}
