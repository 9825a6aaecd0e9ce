//! Shared fixtures for the cross-crate integration tests.
//!
//! The actual tests live in the sibling `*.rs` files (declared as `[[test]]`
//! targets); this small library only provides helpers they share.

use cc_core::engine::{Engine, EngineConfig};
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use cc_workload::{Benchmark, Workload, WorkloadSpec};

/// A speculative engine with `threads` workers (the strategy under test
/// in most integration tests).
pub fn engine(threads: usize) -> Engine {
    EngineConfig::new()
        .threads(threads)
        .build()
        .expect("test engine config is valid")
}

/// The serial-baseline engine.
pub fn serial_engine() -> Engine {
    Engine::serial()
}

/// An optimistic multi-version engine with `threads` workers.
pub fn optimistic_engine(threads: usize) -> Engine {
    EngineConfig::optimistic()
        .threads(threads)
        .build()
        .expect("test engine config is valid")
}

/// Generates a workload for the given benchmark with a fixed seed.
pub fn workload(benchmark: Benchmark, block_size: usize, conflict: f64, seed: u64) -> Workload {
    WorkloadSpec::new(benchmark, block_size, conflict)
        .with_seed(seed)
        .generate()
}

/// A world with a single testing `CounterContract` deployed at a fixed
/// address, plus transactions targeting it.
pub fn counter_world() -> World {
    let world = World::new();
    world.deploy(std::sync::Arc::new(cc_vm::testing::CounterContract::new(
        counter_address(),
    )));
    world
}

/// Address of the shared testing counter contract.
pub fn counter_address() -> Address {
    Address::from_name("integration.counter")
}

/// An `increment` transaction from account `sender_index`.
pub fn increment_tx(nonce: u64, sender_index: u64, delta: u64) -> Transaction {
    Transaction::new(
        nonce,
        Address::from_index(sender_index),
        counter_address(),
        CallData::new("increment", vec![ArgValue::Uint(u128::from(delta))]),
        1_000_000,
    )
}
