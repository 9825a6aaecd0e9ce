#![cfg(test)]

use super::*;
use cc_ledger::SnapshotFile;
use cc_vm::testing::CounterContract;
use cc_vm::{Address, ArgValue, CallData};
use std::sync::Arc;

fn fresh_world() -> World {
    let world = World::new();
    world.deploy(Arc::new(CounterContract::new(Address::from_name(
        "counter-node",
    ))));
    world
}

fn engine_node(threads: usize) -> Node {
    Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(threads))
        .build()
        .expect("valid config")
}

fn block_txs(base: u64, n: u64) -> Vec<Transaction> {
    (0..n)
        .map(|i| {
            Transaction::new(
                base + i,
                Address::from_index(i),
                Address::from_name("counter-node"),
                CallData::new("increment", vec![ArgValue::Uint(1)]),
                1_000_000,
            )
        })
        .collect()
}

#[test]
fn miner_node_and_validator_node_stay_in_sync() {
    let mut miner_node = engine_node(3);
    let mut validator_node = engine_node(3);

    for block_number in 0..3u64 {
        let mined = miner_node
            .mine_and_append(block_txs(block_number * 100, 12))
            .unwrap();
        let report = validator_node.validate_and_append(&mined.block).unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
    }
    assert_eq!(miner_node.chain().len(), 4);
    assert_eq!(validator_node.chain().len(), 4);
    assert_eq!(
        miner_node.world().state_root(),
        validator_node.world().state_root()
    );
    assert!(miner_node.chain().verify_structure());
}

#[test]
fn validator_node_rejects_blocks_that_do_not_extend_its_head() {
    let mut miner_node = engine_node(2);
    let mut validator_node = engine_node(2);

    let first = miner_node.mine_and_append(block_txs(0, 4)).unwrap();
    let second = miner_node.mine_and_append(block_txs(100, 4)).unwrap();
    // Skipping the first block: the second does not extend genesis.
    let err = validator_node
        .validate_and_append(&second.block)
        .unwrap_err();
    assert!(err.to_string().contains("does not extend"));
    validator_node.validate_and_append(&first.block).unwrap();
    validator_node.validate_and_append(&second.block).unwrap();
}

#[test]
fn rejected_validation_stales_the_node() {
    let mut miner_node = engine_node(2);
    let mut validator_node = engine_node(2);

    let mined = miner_node.mine_and_append(block_txs(0, 6)).unwrap();
    let mut forged = mined.block.clone();
    forged.header.state_root = cc_primitives::sha256(b"forged");
    assert!(validator_node.validate_and_append(&forged).is_err());
    assert!(validator_node.is_stale());

    // The replay mutated the validator's world; the node now refuses
    // all further work instead of silently diverging.
    let err = validator_node
        .validate_and_append(&mined.block)
        .unwrap_err();
    assert!(err.to_string().contains("stale"), "got: {err}");
    let err = validator_node
        .mine_and_append(block_txs(100, 2))
        .unwrap_err();
    assert!(err.to_string().contains("stale"), "got: {err}");

    // A wrong-parent rejection happens before the validator runs and
    // does not stale the node.
    let mut fresh = engine_node(2);
    let second = miner_node.mine_and_append(block_txs(100, 2)).unwrap();
    assert!(fresh.validate_and_append(&second.block).is_err());
    assert!(!fresh.is_stale());
    fresh.validate_and_append(&mined.block).unwrap();
    fresh.validate_and_append(&second.block).unwrap();
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cc-node-test-{}-{tag}", std::process::id()));
    p
}

#[test]
fn durable_node_recovers_to_identical_state() {
    let dir = temp_dir("recover");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(2);
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();
    for block_number in 0..3u64 {
        node.mine_and_append(block_txs(block_number * 100, 8))
            .unwrap();
    }
    let head_hash = node.chain().head_hash();
    let world_bytes = node.world().snapshot().to_bytes();
    drop(node);

    let engine = EngineConfig::new().threads(2).build().unwrap();
    let recovered = Node::recover(config, fresh_world(), engine).unwrap();
    assert_eq!(recovered.chain().head_hash(), head_hash);
    assert_eq!(recovered.chain().len(), 4);
    assert_eq!(recovered.world().snapshot().to_bytes(), world_bytes);

    // The recovered node keeps working durably.
    let mut recovered = recovered;
    recovered.mine_and_append(block_txs(1000, 4)).unwrap();
    assert_eq!(recovered.chain().len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_is_the_exit_from_a_staled_node() {
    let dir = temp_dir("stale-recover");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
    let mut miner_node = engine_node(2);
    let mut validator_node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();

    let first = miner_node.mine_and_append(block_txs(0, 6)).unwrap();
    validator_node.validate_and_append(&first.block).unwrap();

    let second = miner_node.mine_and_append(block_txs(100, 6)).unwrap();
    let mut forged = second.block.clone();
    forged.header.state_root = cc_primitives::sha256(b"forged");
    assert!(validator_node.validate_and_append(&forged).is_err());
    assert!(validator_node.is_stale());
    let err = validator_node
        .mine_and_append(block_txs(200, 2))
        .unwrap_err();
    assert!(err.to_string().contains("Node::recover"), "got: {err}");
    drop(validator_node);

    // Recovery rebuilds the pre-forgery state; the honest block then
    // validates cleanly.
    let engine = EngineConfig::new().threads(2).build().unwrap();
    let mut recovered = Node::recover(config, fresh_world(), engine).unwrap();
    assert_eq!(recovered.chain().head_hash(), first.block.hash());
    recovered.validate_and_append(&second.block).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_resumes_from_snapshot_when_wal_is_missing() {
    let dir = temp_dir("missing-wal");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync);
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();
    node.mine_and_append(block_txs(0, 4)).unwrap();
    drop(node);

    // A snapshot without a wal.log is a legal directory state (the
    // log was reset and the file later removed); recovery resumes
    // from the snapshot alone and recreates the log.
    std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
    let engine = EngineConfig::new().threads(2).build().unwrap();
    let mut recovered = Node::recover(config, fresh_world(), engine).unwrap();
    assert_eq!(
        recovered.chain().len(),
        1,
        "only the genesis snapshot survived"
    );
    recovered.mine_and_append(block_txs(0, 4)).unwrap();
    assert_eq!(recovered.chain().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The names in `dir`, sorted.
fn dir_listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_checkpoint_costs_its_chain_prefix_not_the_world() {
    let dir = temp_dir("checkpoint-size");
    std::fs::remove_dir_all(&dir).ok();
    // A world far larger than the chain: any O(world) term in a
    // checkpoint dwarfs the 1 KiB of slack below.
    let world = fresh_world();
    let token = cc_contracts::Token::new(Address::from_name("token"), Address::from_index(0));
    for account in 0..5_000u64 {
        token.seed_balance(Address::from_index(account), 1 + u128::from(account));
    }
    world.deploy(Arc::new(token));
    assert!(world.snapshot().to_bytes().len() > 100 * 1024);

    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2);
    let mut node = Node::builder()
        .world(world)
        .config(EngineConfig::new().threads(2))
        .durability(config)
        .build()
        .unwrap();
    let assert_chain_sized = |node: &Node, height: u64| {
        let file = std::fs::metadata(dir.join(SnapshotFile::file_name(height))).unwrap();
        let blocks = node.chain().iter().take(height as usize + 1);
        let prefix: usize = blocks.map(|block| block.to_checked_bytes().len()).sum();
        assert!(
            file.len() <= prefix as u64 + 1024,
            "checkpoint {height} is {} bytes over a {prefix}-byte chain prefix",
            file.len()
        );
    };
    assert_chain_sized(&node, 0);
    for block_number in 0..3u64 {
        node.mine_and_append(block_txs(block_number * 100, 8))
            .unwrap();
    }
    assert_chain_sized(&node, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn barriers_keep_the_two_newest_checkpoints_and_either_one_recovers() {
    let dir = temp_dir("checkpoint-prune");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(1);
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();
    // What a checkpoint write that died before its rename leaves.
    std::fs::write(dir.join(".snapshot-9.snap.tmp"), b"torn").unwrap();
    for block_number in 0..5u64 {
        node.mine_and_append(block_txs(block_number * 100, 4))
            .unwrap();
    }
    assert_eq!(
        dir_listing(&dir),
        ["snapshot-4.snap", "snapshot-5.snap", WAL_FILE],
        "five barriers: the two newest checkpoints, no temporary file"
    );
    let fourth = node.chain().block(4).unwrap().clone();
    drop(node);

    // The newest checkpoint and the log are lost: the other one is
    // the anchor, and replaying its chain reaches its root.
    std::fs::remove_file(dir.join("snapshot-5.snap")).unwrap();
    std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
    let fallback = cc_ledger::load_latest(&dir).unwrap().expect("fallback");
    assert_eq!(fallback.height, 4);
    assert_eq!(fallback.state_root, fourth.header.state_root);
    let engine = EngineConfig::new().threads(2).build().unwrap();
    let recovered = Node::recover(config, fresh_world(), engine).unwrap();
    assert_eq!(recovered.chain().head_hash(), fourth.hash());
    assert_eq!(recovered.world().state_root(), fourth.header.state_root);
    std::fs::remove_dir_all(&dir).ok();
}

/// What the WAL must hold after `node`'s head, with a checkpoint
/// every `interval` blocks: the 16-byte file header once a block sealed
/// since the last checkpoint, and one seal frame — 12 bytes of frame
/// header, a tag byte and the encoded block — per such block, and
/// nothing else.
fn seal_bytes(node: &Node, interval: u64) -> u64 {
    let head = node.chain().head().header.number;
    let checkpoint = head - head % interval;
    let blocks = node.chain().iter().skip(checkpoint as usize + 1);
    let encoded = |block: &Block| {
        let mut enc = cc_primitives::codec::Encoder::new();
        block.encode(&mut enc);
        enc.len() as u64
    };
    let frames: u64 = blocks.map(|b| 13 + encoded(b)).sum();
    if frames == 0 {
        0
    } else {
        16 + frames
    }
}

#[test]
fn the_wal_holds_exactly_its_seals() {
    use cc_workload::{Benchmark, WorkloadSpec};
    const INTERVAL: u64 = 3;
    // 100 % conflict: miners retry and abort, followers replay.
    for benchmark in [Benchmark::SimpleAuction, Benchmark::EtherDoc] {
        for (name, config) in [
            ("stm", EngineConfig::new()),
            ("mvcc", EngineConfig::optimistic()),
        ] {
            let workload = WorkloadSpec::new(benchmark, 24, 1.0).generate();
            let dir = |role: &str| temp_dir(&format!("seals-{benchmark}-{name}-{role}"));
            let durable = |role: &str| {
                let dir = dir(role);
                std::fs::remove_dir_all(&dir).ok();
                Node::builder()
                    .world(workload.build_world())
                    .config(config.clone().threads(2))
                    .durability(
                        DurabilityConfig::new(dir, DurabilityMode::Buffered)
                            .snapshot_interval(INTERVAL),
                    )
                    .build()
                    .unwrap()
            };
            let holds_only_seals = |node: &Node| {
                let written = node.wal().unwrap().written_len();
                assert_eq!(written, seal_bytes(node, INTERVAL), "{benchmark} {name}");
            };
            let mut miner = durable("miner");
            for _ in 0..4 {
                miner.mine_and_append(workload.transactions()).unwrap();
                holds_only_seals(&miner);
            }
            let mut follower = durable("follower");
            for block in miner.chain().iter().skip(1) {
                let one = std::iter::once(block.clone());
                follower
                    .run_follower_pipeline(one, &FollowerConfig::new())
                    .unwrap();
                holds_only_seals(&follower);
            }
            for role in ["miner", "follower"] {
                std::fs::remove_dir_all(dir(role)).ok();
            }
        }
    }
}

#[test]
fn a_node_built_over_a_used_directory_recovers_its_own_chain() {
    let dir = temp_dir("used-dir");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
    // Another history over the same genesis world leaves a
    // checkpoint at height 8 behind.
    let mut other = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone().snapshot_interval(8))
        .build()
        .unwrap();
    for block_number in 0..8u64 {
        other
            .mine_and_append(block_txs(5_000 + block_number * 100, 2))
            .unwrap();
    }
    drop(other);
    assert!(dir.join(SnapshotFile::file_name(8)).exists());

    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();
    for block_number in 0..2u64 {
        node.mine_and_append(block_txs(block_number * 100, 4))
            .unwrap();
    }
    let head = node.chain().head().clone();
    drop(node);

    let engine = EngineConfig::new().threads(2).build().unwrap();
    let recovered = Node::recover(config, fresh_world(), engine).unwrap();
    assert_eq!(recovered.chain().head_hash(), head.hash());
    assert_eq!(recovered.world().state_root(), head.header.state_root);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_persistence_stales_the_node() {
    let dir = temp_dir("persist-fail");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(1);
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config)
        .build()
        .unwrap();
    // Yank the durability directory out from under the node: the
    // WAL seal still reaches the (unlinked) open file, but the
    // snapshot due at interval 1 cannot be written.
    std::fs::remove_dir_all(&dir).unwrap();
    let err = node.mine_and_append(block_txs(0, 4)).unwrap_err();
    assert!(err.to_string().contains("durability"), "got: {err}");
    assert!(node.is_stale(), "failed persistence must stale the node");

    // The in-memory chain is ahead of durable state; the node fails
    // fast instead of serving blocks a crash would forget.
    let err = node.mine_and_append(block_txs(100, 2)).unwrap_err();
    assert!(err.to_string().contains("stale"), "got: {err}");
}

#[test]
fn a_failed_inline_seal_rolls_back_to_the_durable_prefix() {
    let dir = temp_dir("seal-fail");
    std::fs::remove_dir_all(&dir).ok();
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(DurabilityConfig::new(&dir, DurabilityMode::Fsync))
        .build()
        .unwrap();
    node.mine_and_append(block_txs(0, 4)).unwrap();
    // The one-block calls take the same epilogue as the pipelines.
    node.wal().unwrap().inject_seal_failures(0);
    let err = node.mine_and_append(block_txs(100, 4)).unwrap_err();
    assert!(err.to_string().contains("sealing block 2"), "got: {err}");
    assert!(node.is_stale());
    assert_eq!(node.chain().len(), 2, "block 2 was never durable");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durability_off_creates_nothing() {
    let dir = temp_dir("off");
    std::fs::remove_dir_all(&dir).ok();
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(DurabilityConfig::new(&dir, DurabilityMode::Off))
        .build()
        .unwrap();
    node.mine_and_append(block_txs(0, 4)).unwrap();
    assert!(!dir.exists(), "Off mode must not touch the filesystem");
}

#[test]
fn recover_from_a_broken_directory_is_a_typed_error() {
    // A directory that never existed.
    let dir = temp_dir("no-such-dir");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
    let err = Node::recover(config, fresh_world(), Engine::default()).unwrap_err();
    assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");

    // A directory whose snapshot is garbage: still a typed error,
    // never a panic.
    let dir = temp_dir("garbage-snapshot");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot-0.snap"), b"not a snapshot").unwrap();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
    let err = Node::recover(config, fresh_world(), Engine::default()).unwrap_err();
    assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_rejects_mismatched_initial_world() {
    let dir = temp_dir("wrong-world");
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
    let mut node = Node::builder()
        .world(fresh_world())
        .config(EngineConfig::new().threads(2))
        .durability(config.clone())
        .build()
        .unwrap();
    node.mine_and_append(block_txs(0, 4)).unwrap();
    drop(node);

    let err = Node::recover(config, World::new(), Engine::default()).unwrap_err();
    assert!(err.to_string().contains("genesis"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn builder_defaults_and_shared_engines() {
    // No world, no config: an empty world and the default engine.
    let node = Node::builder().build().unwrap();
    assert_eq!(node.engine().threads(), EngineConfig::DEFAULT_THREADS);
    assert_eq!(node.chain().len(), 1);

    // A bad config is rejected at build time.
    assert!(Node::builder()
        .config(EngineConfig::new().threads(0))
        .build()
        .is_err());

    // Two nodes can share one engine.
    let engine = Engine::serial();
    let mut a = Node::builder()
        .world(fresh_world())
        .engine(engine.clone())
        .build()
        .unwrap();
    let mut b = Node::builder()
        .world(fresh_world())
        .engine(engine)
        .build()
        .unwrap();
    assert_eq!(a.engine().threads(), 1);
    let mined = a.mine_and_append(block_txs(0, 5)).unwrap();
    b.validate_and_append(&mined.block).unwrap();
    assert_eq!(a.world().state_root(), b.world().state_root());
}

/// A block's commitments are computed once on a producer (by
/// construction) and checked once on a follower (the replay prologue):
/// appending, sealing and checkpointing never hash its body again.
/// Recovery checks each block twice — as the ledger's chain appends it
/// and in the replay prologue — and builds the genesis block twice.
#[cfg(debug_assertions)]
#[test]
fn every_node_path_hashes_a_blocks_commitments_once() {
    use cc_ledger::block::commitment_count;
    let dir = |role: &str| temp_dir(&format!("commitments-once-{role}"));
    let durable = |role: &str| DurabilityConfig::new(dir(role), DurabilityMode::Fsync);
    let durable = |role: &str| durable(role).snapshot_interval(3);
    let node = |config: DurabilityConfig| {
        Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config)
            .build()
            .unwrap()
    };
    for role in ["miner", "follower"] {
        std::fs::remove_dir_all(dir(role)).ok();
    }
    let (mut miner, mut follower) = (node(durable("miner")), node(durable("follower")));
    for block_number in 0..4u64 {
        let before = commitment_count();
        let mined = miner.mine_and_append(block_txs(block_number * 100, 4));
        let mined = mined.unwrap();
        assert_eq!(commitment_count() - before, 1, "mine_and_append");
        let before = commitment_count();
        follower.validate_and_append(&mined.block).unwrap();
        assert_eq!(commitment_count() - before, 1, "validate_and_append");
    }
    drop(follower);
    let before = commitment_count();
    let engine = EngineConfig::new().threads(2).build().unwrap();
    let recovered = Node::recover(durable("follower"), fresh_world(), engine);
    assert_eq!(recovered.unwrap().chain().len(), 5);
    assert_eq!(commitment_count() - before, 2 * 4 + 2, "Node::recover");
    for role in ["miner", "follower"] {
        std::fs::remove_dir_all(dir(role)).ok();
    }
}
