//! Quickstart: deploy a contract, then let one `Engine` per strategy
//! mine a block and validate it deterministically.
//!
//! ```text
//! cargo run -p cc-examples --release --example quickstart
//! ```

use cc_contracts::Ballot;
use cc_core::engine::{Engine, EngineConfig, ExecutionStrategy};
use cc_examples::{print_mined, print_validated, speedup};
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use std::sync::Arc;

/// Builds a world with one Ballot contract and `voters` registered voters.
fn build_world(voters: u64) -> World {
    let world = World::new();
    let chairperson = Address::from_index(0);
    let ballot = Ballot::with_numbered_proposals(Address::from_name("Ballot"), chairperson, 3);
    for v in 1..=voters {
        ballot.seed_registered_voter(Address::from_index(v));
    }
    world.deploy(Arc::new(ballot));
    world
}

fn vote_transactions(voters: u64) -> Vec<Transaction> {
    (1..=voters)
        .map(|v| {
            Transaction::new(
                v,
                Address::from_index(v),
                Address::from_name("Ballot"),
                CallData::new("vote", vec![ArgValue::Uint(u128::from(v % 3))]),
                1_000_000,
            )
        })
        .collect()
}

fn main() {
    let voters = 200;
    println!("== concurrent-contracts quickstart ==");
    println!("Block: {voters} voters each casting one vote\n");

    // 1. Baseline: a serial engine (how Ethereum executes blocks today).
    let serial_engine = Engine::serial();
    let serial = serial_engine
        .mine(&build_world(voters), vote_transactions(voters))
        .expect("serial mining succeeds");
    print_mined("serial engine", &serial.block, &serial.stats);

    // 2. The paper's configuration is the default: speculative mining on
    //    a fixed pool of three threads. The same `EngineConfig` builder
    //    also selects thread counts, strategies and trace checks — one
    //    entry point for every consumer.
    let engine = EngineConfig::new()
        .strategy(ExecutionStrategy::SpeculativeStm)
        .threads(EngineConfig::DEFAULT_THREADS)
        .build()
        .expect("valid config");
    let mined = engine
        .mine(&build_world(voters), vote_transactions(voters))
        .expect("parallel mining succeeds");
    print_mined("speculative engine", &mined.block, &mined.stats);
    println!(
        "parallel mining speedup over serial: {}",
        speedup(serial.stats.elapsed, mined.stats.elapsed)
    );
    assert_eq!(
        serial.block.header.state_root, mined.block.header.state_root,
        "speculative execution is serializable: same final state"
    );

    // 3. The engine's validator replays the published fork-join schedule
    //    deterministically (no locks, no rollback) and checks every
    //    commitment before accepting the block.
    let report = engine
        .validate(&build_world(voters), &mined.block)
        .expect("honest block is accepted");
    print_validated("fork-join validator", &report);
    println!(
        "validation speedup over serial re-execution: {}",
        speedup(serial.stats.elapsed, report.elapsed)
    );

    // 4. Tampering with the block is detected.
    let mut forged = mined.block.clone();
    forged.header.state_root = cc_primitives::sha256(b"forged state");
    let rejection = engine
        .validate(&build_world(voters), &forged)
        .expect_err("forged block must be rejected");
    println!("\nforged block rejected as expected: {rejection}");
}
