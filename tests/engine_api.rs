//! The unified `Engine` API: configuration defaults and validation,
//! strategy equivalence across all workloads, and the `Node` builder
//! round trip.

use cc_core::engine::{Engine, EngineConfig, ExecutionStrategy};
use cc_core::error::CoreError;
use cc_core::node::Node;
use cc_integration_tests::{counter_world, increment_tx, optimistic_engine, workload};
use cc_ledger::Transaction;
use cc_vm::{Receipt, World};
use cc_workload::Benchmark;

/// The five workloads the API contract is exercised on: the paper's four
/// benchmarks plus the counter fixture the unit tests use.
fn five_workloads() -> Vec<(String, Vec<Transaction>)> {
    let mut workloads: Vec<(String, Vec<Transaction>)> = Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let w = workload(benchmark, 60, 0.25, 19);
            (benchmark.to_string(), w.transactions())
        })
        .collect();
    workloads.push((
        "Counter".to_string(),
        (0..60).map(|i| increment_tx(i, i % 7, 1)).collect(),
    ));
    workloads
}

/// Builds the initial world for a workload entry (worlds are single-use:
/// mining mutates them).
fn rebuild(label: &str) -> World {
    if label == "Counter" {
        counter_world()
    } else {
        let benchmark = Benchmark::ALL
            .into_iter()
            .find(|b| b.to_string() == label)
            .expect("known benchmark");
        workload(benchmark, 60, 0.25, 19).build_world()
    }
}

#[test]
fn config_defaults_match_the_paper() {
    let config = EngineConfig::default();
    assert_eq!(config.strategy, ExecutionStrategy::SpeculativeStm);
    assert_eq!(config.threads, EngineConfig::DEFAULT_THREADS);
    assert_eq!(config.threads, 3, "the paper's fixed pool of three threads");
    assert!(config.check_traces);
    assert_eq!(EngineConfig::new(), EngineConfig::default());

    // Fluent setters override one knob at a time.
    let custom = EngineConfig::new()
        .strategy(ExecutionStrategy::Serial)
        .threads(7)
        .check_traces(false);
    assert_eq!(custom.strategy, ExecutionStrategy::Serial);
    assert_eq!(custom.threads, 7);
    assert!(!custom.check_traces);
}

#[test]
fn invalid_configs_are_rejected_at_build_time() {
    let err = EngineConfig::new().threads(0).build().unwrap_err();
    assert!(matches!(err, CoreError::InvalidConfig { .. }));
    assert!(err.to_string().contains("thread"));

    assert!(Engine::speculative(0).is_err());
    // The serial strategy still rejects a zero thread count rather than
    // silently ignoring it.
    assert!(EngineConfig::serial().threads(0).build().is_err());
}

/// The serializability contract (paper §5) for one block: `engine` mines
/// `txs` concurrently and publishes the serial order it is equivalent to;
/// executing that order with the serial engine must reproduce state root,
/// gas and every receipt exactly, and both engines' validators must accept
/// the block. `rebuild` yields the initial world (worlds are single-use).
fn assert_agrees_with_serial(
    label: &str,
    engine: &Engine,
    rebuild: &dyn Fn() -> World,
    txs: &[Transaction],
) {
    let serial = Engine::serial();
    let mined = engine
        .mine(&rebuild(), txs.to_vec())
        .unwrap_or_else(|e| panic!("{label}: concurrent mining failed: {e}"));
    let schedule = mined.block.schedule.as_ref().expect("schedule published");
    let reordered: Vec<Transaction> = schedule
        .serial_order
        .iter()
        .map(|&i| txs[i].clone())
        .collect();
    let baseline = serial
        .mine(&rebuild(), reordered)
        .unwrap_or_else(|e| panic!("{label}: serial mining failed: {e}"));

    assert_eq!(
        mined.block.header.state_root, baseline.block.header.state_root,
        "{label}: concurrent and serial engines must land on the same state"
    );
    assert_eq!(
        mined.block.header.gas_used, baseline.block.header.gas_used,
        "{label}: total gas must match"
    );

    // Receipts are identical transaction-by-transaction once matched up
    // by identity (the serial block stores them in schedule order, so
    // compare ignoring position).
    assert_eq!(
        mined.block.receipts.len(),
        baseline.block.receipts.len(),
        "{label}"
    );
    for (serial_pos, &original_index) in schedule.serial_order.iter().enumerate() {
        let concurrent: &Receipt = &mined.block.receipts[original_index];
        let serial: &Receipt = &baseline.block.receipts[serial_pos];
        assert_eq!(
            concurrent.status, serial.status,
            "{label}: tx {original_index} status"
        );
        assert_eq!(
            concurrent.gas_used, serial.gas_used,
            "{label}: tx {original_index} gas"
        );
        assert_eq!(
            concurrent.output, serial.output,
            "{label}: tx {original_index} output"
        );
        assert_eq!(
            concurrent.events, serial.events,
            "{label}: tx {original_index} events"
        );
    }

    // The schedule metadata is strategy-agnostic: the engine's own
    // fork-join validator and the serial one both accept the block.
    engine
        .validate(&rebuild(), &mined.block)
        .unwrap_or_else(|e| panic!("{label}: fork-join validation failed: {e}"));
    serial
        .validate(&rebuild(), &mined.block)
        .unwrap_or_else(|e| panic!("{label}: serial validation failed: {e}"));
}

#[test]
fn serial_and_speculative_engines_agree_on_all_five_workloads() {
    let speculative = Engine::speculative(4).expect("valid thread count");
    for (label, txs) in five_workloads() {
        assert_agrees_with_serial(&label, &speculative, &|| rebuild(&label), &txs);
    }
}

#[test]
fn optimistic_and_serial_engines_agree_on_all_five_workloads() {
    let optimistic = optimistic_engine(4);
    for (label, txs) in five_workloads() {
        assert_agrees_with_serial(&label, &optimistic, &|| rebuild(&label), &txs);
    }
}

#[test]
fn block_sizes_around_the_worker_count_agree_with_serial() {
    // The execution pool's edges: no work at all, a block that runs
    // inline (one transaction wakes no helper), fewer transactions than
    // workers, exactly as many, and one more. Two senders, so neighbours
    // conflict and the schedule is not trivially empty.
    for threads in [1usize, 2, 3, 8] {
        let engines = [
            Engine::speculative(threads).expect("valid thread count"),
            optimistic_engine(threads),
        ];
        for engine in &engines {
            // One engine — one pool — mines and validates every size.
            for size in [0, 1, 2, threads.saturating_sub(1), threads, threads + 1] {
                let txs: Vec<Transaction> = (0..size as u64)
                    .map(|i| increment_tx(i, i % 2, i + 1))
                    .collect();
                let label = format!("{} x{threads}, {size} txs", engine.strategy());
                assert_agrees_with_serial(&label, engine, &counter_world, &txs);
            }
        }
    }
}

#[test]
fn clones_of_one_engine_mine_two_worlds_from_two_threads() {
    const ROUNDS: u64 = 25;
    let txs: Vec<Transaction> = (0..24).map(|i| increment_tx(i, i % 5, 1)).collect();
    // Increments commute, so the final state is order-independent.
    let expected = Engine::serial()
        .mine(&counter_world(), txs.clone())
        .expect("serial mining succeeds")
        .block
        .header
        .state_root;

    for engine in [
        Engine::speculative(3).expect("valid thread count"),
        optimistic_engine(3),
    ] {
        // Both threads drive the one pool the clones share; whichever
        // finds it busy executes its block on its own thread alone.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let engine = engine.clone();
                let txs = &txs;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        let mined = engine
                            .mine(&counter_world(), txs.clone())
                            .expect("concurrent mining succeeds");
                        assert_eq!(mined.block.header.state_root, expected);
                        engine
                            .validate(&counter_world(), &mined.block)
                            .expect("honest block");
                    }
                });
            }
        });
        assert_eq!(
            engine.pool_stats().runs,
            2 * 2 * ROUNDS,
            "every block mined or validated by either clone ran on the shared pool"
        );
    }
}

#[test]
fn node_builder_round_trips_three_blocks() {
    let engine = EngineConfig::new()
        .threads(3)
        .build()
        .expect("valid config");
    let mut miner_node = Node::builder()
        .world(counter_world())
        .engine(engine.clone())
        .build()
        .expect("miner node builds");
    let mut validator_node = Node::builder()
        .world(counter_world())
        .engine(engine)
        .build()
        .expect("validator node builds");

    for block_number in 1..=3u64 {
        let txs: Vec<Transaction> = (0..20)
            .map(|i| increment_tx(block_number * 100 + i, i % 5, 1))
            .collect();
        let mined = miner_node
            .mine_and_append(txs)
            .unwrap_or_else(|e| panic!("mining block {block_number} failed: {e}"));
        assert_eq!(mined.block.header.number, block_number);
        let report = validator_node
            .validate_and_append(&mined.block)
            .unwrap_or_else(|e| panic!("validating block {block_number} failed: {e}"));
        assert_eq!(report.state_root, mined.block.header.state_root);
    }

    assert_eq!(miner_node.chain().len(), 4, "genesis + 3 blocks");
    assert_eq!(validator_node.chain().len(), 4);
    assert_eq!(
        miner_node.world().state_root(),
        validator_node.world().state_root(),
        "mining and validating nodes agree after 3 blocks"
    );
    assert!(miner_node.chain().verify_structure());
    assert_eq!(miner_node.chain().total_transactions(), 60);
}

#[test]
fn node_builder_defaults_and_config_path() {
    // config() is an alternative to a prebuilt engine.
    let node = Node::builder()
        .world(counter_world())
        .config(EngineConfig::serial())
        .build()
        .expect("valid config");
    assert_eq!(node.engine().strategy(), ExecutionStrategy::Serial);

    // An invalid config surfaces as a build error, not a panic.
    assert!(matches!(
        Node::builder()
            .config(EngineConfig::new().threads(0))
            .build(),
        Err(CoreError::InvalidConfig { .. })
    ));

    // Omitting everything yields a default engine over an empty world.
    let node = Node::builder().build().expect("defaults are valid");
    assert_eq!(node.engine().strategy(), ExecutionStrategy::SpeculativeStm);
    assert_eq!(node.engine().threads(), EngineConfig::DEFAULT_THREADS);
}
