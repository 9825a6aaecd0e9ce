//! Dishonest-miner scenarios: every way a published block can lie must be
//! caught either by structural well-formedness checks or by the
//! validator's replay checks (paper §4–5: "A miner who publishes an
//! incorrect schedule will be detected and its block rejected").
//!
//! Two distinct integrity layers are exercised here, and they defend
//! against different things. **Adversarial** integrity — a miner lying
//! about schedules, receipts or state — rests entirely on the SHA-256
//! commitments in the header and on deterministic replay; an adversary
//! cannot recompute those without doing the honest work. The FNV-64
//! checksums on the wire forms (framed WAL records, snapshot files,
//! `Block::to_checked_bytes`) are **corruption detection** only: they
//! catch torn writes and bit rot, but anyone who can rewrite the bytes
//! can trivially recompute them.

use cc_core::error::CoreError;
use cc_core::miner::MinedBlock;
use cc_core::node::{DurabilityConfig, Node};
use cc_core::FollowerConfig;
use cc_integration_tests::{counter_world, engine, increment_tx, serial_engine, workload};
use cc_ledger::wal::DurabilityMode;
use cc_ledger::{Block, SnapshotError, SnapshotFile};
use cc_stm::{LockMode, LockProfile, ProfileEntry};
use cc_vm::{World, WorldSnapshot};
use cc_workload::{Benchmark, Workload};
use std::path::PathBuf;

fn mined_reference(benchmark: Benchmark, conflict: f64) -> (Workload, MinedBlock) {
    let w = workload(benchmark, 80, conflict, 23);
    let mined = engine(3)
        .mine(&w.build_world(), w.transactions())
        .expect("mining succeeds");
    (w, mined)
}

/// Validates `block` on a fresh world and returns the rejection. Every
/// lie but a forged state root is caught before the replay's overlay
/// reaches the base, so the world must not have moved.
fn expect_rejection(w: &Workload, block: &Block) -> CoreError {
    let world = w.build_world();
    let root = world.state_root();
    let err = engine(3)
        .validate(&world, block)
        .expect_err("tampered block must be rejected");
    assert_eq!(
        world.state_root(),
        root,
        "the rejection moved the world: {err}"
    );
    err
}

/// Recomputes the header commitments a dishonest miner would recompute so
/// the tampering is not caught by mere structural checks.
fn recommit(block: &mut Block) {
    let rebuilt = Block::build(
        block.header.parent_hash,
        block.header.number,
        block.transactions.clone(),
        block.receipts.clone(),
        block.header.state_root,
        block.schedule.clone(),
    );
    block.header = rebuilt.header;
}

#[test]
fn forged_state_root_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::Ballot, 0.2);
    let mut block = mined.block.clone();
    block.header.state_root = cc_primitives::sha256(b"i promise this is fine");
    // Found only once the block's effects are in the world.
    let err = engine(3)
        .validate(&w.build_world(), &block)
        .expect_err("tampered block must be rejected");
    assert!(err.to_string().contains("state root"));
}

#[test]
fn forged_receipt_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::SimpleAuction, 0.3);
    let mut block = mined.block.clone();
    block.receipts[0].gas_used = block.receipts[0].gas_used.saturating_sub(1);
    recommit(&mut block);
    let err = expect_rejection(&w, &block);
    assert!(err.to_string().contains("receipt"));
}

#[test]
fn dropped_happens_before_edges_are_rejected_as_a_race() {
    let (w, mined) = mined_reference(Benchmark::EtherDoc, 0.5);
    let mut block = mined.block.clone();
    let schedule = block.schedule.as_mut().unwrap();
    assert!(
        !schedule.edges.is_empty(),
        "conflicting workload must have edges"
    );
    schedule.edges.clear();
    recommit(&mut block);
    let err = expect_rejection(&w, &block);
    assert!(err.to_string().contains("data race"), "got: {err}");
}

#[test]
fn reordering_the_serial_order_across_a_dependency_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::SimpleAuction, 0.4);
    let mut block = mined.block.clone();
    let schedule = block.schedule.as_mut().unwrap();
    // Find a published edge and flip the two endpoints in the serial order.
    let (a, b) = schedule.edges[0];
    let pos_a = schedule.serial_order.iter().position(|&x| x == a).unwrap();
    let pos_b = schedule.serial_order.iter().position(|&x| x == b).unwrap();
    schedule.serial_order.swap(pos_a, pos_b);
    recommit(&mut block);
    let err = expect_rejection(&w, &block);
    assert!(
        matches!(err, CoreError::MalformedSchedule { .. }),
        "got: {err}"
    );
}

#[test]
fn lying_about_lock_profiles_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::Ballot, 0.3);
    let mut block = mined.block.clone();
    {
        let schedule = block.schedule.as_mut().unwrap();
        // Pretend transaction 0 touched nothing at all.
        schedule.profiles[0].profile = LockProfile::default();
        recommit(&mut block);
    }
    let err = expect_rejection(&w, &block);
    assert!(err.to_string().contains("lock trace"), "got: {err}");

    // Claiming extra locks is caught the same way.
    let mut block = mined.block.clone();
    {
        let schedule = block.schedule.as_mut().unwrap();
        let bogus = ProfileEntry {
            lock: cc_stm::LockSpace::new("made-up-space").lock_for(&42u64),
            mode: LockMode::Exclusive,
            counter: 1,
        };
        let mut locks = schedule.profiles[0].profile.locks.clone();
        locks.push(bogus);
        schedule.profiles[0].profile = LockProfile::new(locks);
        recommit(&mut block);
    }
    let err = expect_rejection(&w, &block);
    assert!(err.to_string().contains("lock trace"), "got: {err}");
}

#[test]
fn cyclic_schedule_is_rejected_as_malformed() {
    let (w, mined) = mined_reference(Benchmark::Ballot, 0.2);
    let mut block = mined.block.clone();
    {
        let schedule = block.schedule.as_mut().unwrap();
        schedule.edges.push((0, 1));
        schedule.edges.push((1, 0));
        recommit(&mut block);
    }
    let err = expect_rejection(&w, &block);
    assert!(matches!(err, CoreError::MalformedSchedule { .. }));
}

#[test]
fn truncated_schedule_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::Mixed, 0.2);
    let mut block = mined.block.clone();
    {
        let schedule = block.schedule.as_mut().unwrap();
        schedule.serial_order.pop();
        recommit(&mut block);
    }
    let err = expect_rejection(&w, &block);
    // Depending on which check fires first this is either caught by the
    // structural length check (the schedule no longer covers every
    // transaction) or by schedule reconstruction.
    assert!(matches!(
        err,
        CoreError::MalformedSchedule { .. } | CoreError::BlockRejected { .. }
    ));
}

#[test]
fn dropping_a_transaction_breaks_structural_checks() {
    let (w, mined) = mined_reference(Benchmark::Ballot, 0.1);
    let mut block = mined.block.clone();
    block.transactions.pop();
    // Without recommitting, the tx root no longer matches.
    assert!(!block.is_well_formed());
    let err = expect_rejection(&w, &block);
    assert!(err.to_string().contains("commitments"));
}

#[test]
fn corrupted_serialized_block_is_rejected_with_a_typed_error() {
    use cc_ledger::BlockCodecError;

    let (_, mined) = mined_reference(Benchmark::Ballot, 0.3);
    let bytes = mined.block.to_checked_bytes();

    // The honest bytes round-trip.
    let decoded = Block::from_checked_bytes(&bytes).expect("honest bytes decode");
    assert_eq!(decoded.hash(), mined.block.hash());

    // Every single-byte corruption of the wire form is caught by the
    // FNV-64 checksum (typed error, no panic) — this is what protects a
    // block read back from the WAL or a snapshot file against *disk
    // corruption*. It is not a tamper-proofing mechanism: an adversary
    // rewriting the file recomputes the checksum for free, and is
    // instead caught by the SHA-256 commitment checks below.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x20;
        let err =
            Block::from_checked_bytes(&corrupt).expect_err("corrupted wire bytes must be rejected");
        if i >= 8 {
            // Payload flips must specifically fail the checksum.
            assert!(
                matches!(err, BlockCodecError::ChecksumMismatch { .. }),
                "byte {i}: got {err}"
            );
        }
    }

    // A forged-but-rechecksummed block that violates its own commitments
    // is still rejected, by the structural check behind the checksum.
    let mut forged = mined.block.clone();
    forged.header.gas_used += 1;
    let err = Block::from_checked_bytes(&forged.to_checked_bytes())
        .expect_err("inconsistent block must be rejected");
    assert!(matches!(err, BlockCodecError::Inconsistent), "got: {err}");
}

#[test]
fn smuggling_in_an_extra_transaction_is_rejected() {
    let (w, mined) = mined_reference(Benchmark::Ballot, 0.1);
    let mut block = mined.block.clone();
    // Duplicate the last transaction and its receipt, extend the schedule
    // naively, and recommit everything — the replayed state diverges.
    let extra_tx = block.transactions.last().unwrap().clone();
    let mut extra_receipt = block.receipts.last().unwrap().clone();
    extra_receipt.tx_index = block.transactions.len();
    block.transactions.push(extra_tx);
    block.receipts.push(extra_receipt);
    {
        let schedule = block.schedule.as_mut().unwrap();
        let new_index = schedule.serial_order.len();
        schedule.serial_order.push(new_index);
        if let Some(last) = schedule.profiles.last().cloned() {
            let mut copy = last;
            copy.tx_index = new_index;
            schedule.profiles.push(copy);
        }
    }
    recommit(&mut block);
    let _err = expect_rejection(&w, &block);
}

/// A block whose only lie is `header.number` is well-formed and replays
/// cleanly, so nothing but the node's own prologue stands between it and
/// the world: every follower entry point must turn it away *before* any
/// replay — node fresh, world and chain where they were — and then accept
/// the honest block.
#[test]
fn forged_block_number_is_rejected_before_it_moves_the_world() {
    let mut producer = Node::builder()
        .world(counter_world())
        .engine(engine(2))
        .build()
        .unwrap();
    let txs = (0..6).map(|i| increment_tx(i, i, 1)).collect();
    let honest = producer.mine_and_append(txs).unwrap().block;
    let mut forged = honest.clone();
    forged.header.number += 1;
    assert!(
        forged.is_well_formed(),
        "the number is the block's only lie"
    );

    let dir = std::env::temp_dir().join(format!("cc-tamper-number-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    type Feed = fn(&mut Node, &Block) -> Result<(), CoreError>;
    let one_block: Feed = |node, block| node.validate_and_append(block).map(drop);
    let stream: Feed = |node, block| {
        node.run_follower_pipeline(vec![block.clone()], &FollowerConfig::new())
            .map(drop)
    };
    let cases = [
        ("validate_and_append", DurabilityMode::Off, one_block),
        ("follower, durability off", DurabilityMode::Off, stream),
        ("follower, fsync", DurabilityMode::Fsync, stream),
    ];
    for (case, mode, feed) in cases {
        let mut follower = Node::builder()
            .world(counter_world())
            .engine(engine(2))
            .durability(DurabilityConfig::new(&dir, mode))
            .build()
            .unwrap();
        let root = follower.world().state_root();

        let err = feed(&mut follower, &forged).expect_err(case);
        assert!(
            err.to_string().contains("wrong block number"),
            "{case}: {err}"
        );
        assert!(!follower.is_stale(), "{case}: a clean rejection stales");
        assert_eq!(follower.world().state_root(), root, "{case}: world moved");
        assert_eq!(follower.chain().len(), 1, "{case}");

        feed(&mut follower, &honest).unwrap_or_else(|e| panic!("{case}: honest block: {e}"));
        assert_eq!(follower.chain().head_hash(), honest.hash(), "{case}");
        assert_eq!(
            follower.world().state_root(),
            producer.world().state_root(),
            "{case}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `serial_order` that is not a permutation — one entry out of range,
/// or one entry repeated — in an otherwise honest, re-committed block.
/// Whatever order a follower's engine replays in, the order is checked
/// before the first transaction runs: a typed error (never an
/// out-of-bounds panic, never a transaction run twice), world and chain
/// where they were, and every follower still fresh for the honest block.
#[test]
fn forged_serial_order_is_rejected_before_it_moves_the_world() {
    let mut producer = Node::builder()
        .world(counter_world())
        .engine(engine(2))
        .build()
        .unwrap();
    let txs = (0..4).map(|i| increment_tx(i, i, 1)).collect();
    let honest = producer.mine_and_append(txs).unwrap().block;
    let forge = |entry: usize, value: usize| {
        let mut block = honest.clone();
        let schedule = block.schedule.as_mut().unwrap();
        schedule.serial_order[entry] = value;
        block.header.schedule_digest = schedule.digest();
        assert!(block.is_well_formed(), "the order is the block's only lie");
        block
    };
    let repeated = honest.schedule.as_ref().unwrap().serial_order[0];
    let forgeries = [
        ("out of range", forge(3, 999)),
        ("duplicate", forge(3, repeated)),
    ];

    type Feed = fn(&mut Node, &Block) -> Result<(), CoreError>;
    let one_block: Feed = |node, block| node.validate_and_append(block).map(drop);
    let stream: Feed = |node, block| {
        node.run_follower_pipeline(vec![block.clone()], &FollowerConfig::new())
            .map(drop)
    };
    let cases = [
        ("serial, validate_and_append", serial_engine(), one_block),
        ("serial, follower", serial_engine(), stream),
        ("speculative, validate_and_append", engine(2), one_block),
        ("speculative, follower", engine(2), stream),
    ];
    for (case, engine, feed) in cases {
        for (forgery, forged) in &forgeries {
            let case = format!("{case}, {forgery}");
            let mut follower = Node::builder()
                .world(counter_world())
                .engine(engine.clone())
                .build()
                .unwrap();
            let root = follower.world().state_root();

            let err = feed(&mut follower, forged).expect_err(&case);
            assert!(
                matches!(err, CoreError::MalformedSchedule { .. }),
                "{case}: {err}"
            );
            assert_eq!(follower.world().state_root(), root, "{case}: world moved");
            assert_eq!(follower.chain().len(), 1, "{case}");
            assert!(!follower.is_stale(), "{case}: a clean rejection stales");
            feed(&mut follower, &honest).unwrap_or_else(|e| panic!("{case}: honest block: {e}"));
            assert_eq!(follower.chain().head_hash(), honest.hash(), "{case}");
            assert_eq!(
                follower.world().state_root(),
                producer.world().state_root(),
                "{case}"
            );
        }
    }
}

/// Lies only the replay can catch — a forged receipt, a dropped
/// happens-before edge, a lying lock profile, each re-committed so the
/// block is well-formed — are rejected by every follower entry point
/// before the block's overlay reaches the base: world and chain where
/// they were, the node fresh, and the honest block accepted next.
#[test]
fn replay_time_rejections_leave_the_follower_fresh() {
    let mut producer = Node::builder()
        .world(counter_world())
        .engine(engine(2))
        .build()
        .unwrap();
    // Two senders: same-sender increments conflict, so the schedule has
    // edges to drop.
    let txs = (0..6).map(|i| increment_tx(i, i % 2, 1)).collect();
    let honest = producer.mine_and_append(txs).unwrap().block;
    let forge = |lie: fn(&mut Block)| {
        let mut block = honest.clone();
        lie(&mut block);
        recommit(&mut block);
        assert!(block.is_well_formed(), "the recommitted lie is well-formed");
        block
    };
    let forgeries = [
        (
            "forged receipt",
            forge(|block| block.receipts[0].gas_used += 1),
            "receipt",
        ),
        (
            "dropped edge",
            forge(|block| block.schedule.as_mut().unwrap().edges.clear()),
            "data race",
        ),
        (
            "lying lock profile",
            forge(|block| {
                block.schedule.as_mut().unwrap().profiles[0].profile = LockProfile::default()
            }),
            "lock trace",
        ),
    ];
    assert!(!honest.schedule.as_ref().unwrap().edges.is_empty());

    let dir = std::env::temp_dir().join(format!("cc-tamper-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    type Feed = fn(&mut Node, &Block) -> Result<(), CoreError>;
    let one_block: Feed = |node, block| node.validate_and_append(block).map(drop);
    let stream: Feed = |node, block| {
        node.run_follower_pipeline(vec![block.clone()], &FollowerConfig::new())
            .map(drop)
    };
    let cases = [
        ("validate_and_append", DurabilityMode::Off, one_block),
        ("follower, durability off", DurabilityMode::Off, stream),
        ("follower, fsync", DurabilityMode::Fsync, stream),
    ];
    for (case, mode, feed) in cases {
        for (forgery, forged, reason) in &forgeries {
            let case = format!("{case}, {forgery}");
            let mut follower = Node::builder()
                .world(counter_world())
                .engine(engine(2))
                .durability(DurabilityConfig::new(&dir, mode))
                .build()
                .unwrap();
            let root = follower.world().state_root();

            let err = feed(&mut follower, forged).expect_err(&case);
            assert!(err.to_string().contains(reason), "{case}: {err}");
            assert_eq!(follower.world().state_root(), root, "{case}: world moved");
            assert_eq!(follower.chain().len(), 1, "{case}");
            assert!(!follower.is_stale(), "{case}: a clean rejection stales");

            feed(&mut follower, &honest).unwrap_or_else(|e| panic!("{case}: honest block: {e}"));
            assert_eq!(follower.chain().head_hash(), honest.hash(), "{case}");
            assert_eq!(
                follower.world().state_root(),
                producer.world().state_root(),
                "{case}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- checkpoints: what recovery trusts, and why --------------------------
//
// A checkpoint file is rewritable by anyone who can recompute an FNV-64,
// so none of its fields is trusted on its own. Recovery rests on three
// facts instead: a file loads only if its `state_root` is its anchor
// block's header root; the replay holds the world to every block's
// header root before committing it; and the root is a SHA-256 commitment
// over everything a world image would hold. The rows below lie to each
// of the first two in turn (`state_root_incremental.rs` pins the third).

/// Two counters, so a world image has an order to get wrong.
fn checkpointed_world() -> World {
    let world = counter_world();
    world.deploy(std::sync::Arc::new(cc_vm::testing::CounterContract::new(
        cc_vm::Address::from_name("integration.counter.2"),
    )));
    world
}

/// A durable producer checkpointing every two blocks mines four and is
/// dropped, leaving `snapshot-2.snap`, `snapshot-4.snap` and an empty
/// log. Returns its directory and config, its chain (indexed by height)
/// and its final world image.
fn checkpointed_dir(tag: &str) -> (PathBuf, DurabilityConfig, Vec<Block>, WorldSnapshot) {
    let dir = std::env::temp_dir().join(format!("cc-tamper-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2);
    let mut producer = Node::builder()
        .world(checkpointed_world())
        .engine(engine(2))
        .durability(config.clone())
        .build()
        .unwrap();
    for block in 0..4 {
        let txs = (0..5).map(|i| increment_tx(block, i, 1 + block)).collect();
        producer.mine_and_append(txs).unwrap();
    }
    let chain = producer.chain().iter().cloned().collect();
    let image = producer.world().snapshot();
    (dir, config, chain, image)
}

#[test]
fn a_checkpoint_lying_about_its_state_root_is_skipped_for_the_previous_one() {
    let (dir, config, chain, _) = checkpointed_dir("root-field");
    let path = dir.join(SnapshotFile::file_name(4));
    let mut file = SnapshotFile::load(&path).unwrap();
    file.state_root = cc_primitives::sha256(b"a root no block vouches for");
    file.write_to(&dir).unwrap(); // checksummed again over the lie
    assert!(matches!(
        SnapshotFile::load(&path),
        Err(SnapshotError::Inconsistent)
    ));

    let ledger = cc_ledger::recover(&dir).unwrap();
    assert_eq!(ledger.snapshot_height, 2);
    assert_eq!(ledger.snapshot_state_root, chain[2].header.state_root);
    let recovered = Node::recover(config, checkpointed_world(), engine(2)).unwrap();
    assert_eq!(recovered.chain().head_hash(), chain[2].hash());
    assert_eq!(recovered.world().state_root(), chain[2].header.state_root);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_whose_chain_forges_a_header_root_fails_recovery_at_that_block() {
    // The anchor block itself, and one below it.
    for forged_height in [4usize, 3] {
        let (dir, config, _, _) = checkpointed_dir(&format!("header-root-{forged_height}"));
        let path = dir.join(SnapshotFile::file_name(4));
        let mut file = SnapshotFile::load(&path).unwrap();
        file.blocks[forged_height].header.state_root = cc_primitives::sha256(b"forged");
        // Re-hash the chain above the forgery and the file's own fields,
        // so every structural check still holds.
        for height in forged_height + 1..file.blocks.len() {
            file.blocks[height].header.parent_hash = file.blocks[height - 1].hash();
        }
        let anchor = file.blocks.last().unwrap();
        (file.block_hash, file.state_root) = (anchor.hash(), anchor.header.state_root);
        file.write_to(&dir).unwrap();
        SnapshotFile::load(&path).expect("the forged checkpoint is self-consistent");

        // Never a node on the wrong state: the replay reaches the honest
        // world, which the forged header does not commit to.
        let err = Node::recover(config, checkpointed_world(), engine(2))
            .expect_err("a forged header root must fail recovery");
        assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");
        let named = format!("recovered block {forged_height}");
        assert!(err.to_string().contains(&named), "got: {err}");
        assert!(err.to_string().contains("state root"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Files written before checkpoints dropped the world image carry one.
/// It is no longer compared with anything, but a file whose image is not
/// a canonical world is still damaged goods.
#[test]
fn an_older_checkpoint_with_a_world_image_loads_only_if_the_image_is_canonical() {
    let (dir, config, chain, image) = checkpointed_dir("image");
    let path = dir.join(SnapshotFile::file_name(4));
    let mut file = SnapshotFile::load(&path).unwrap();
    assert!(file.world_bytes.is_empty(), "the node writes no image");

    file.world_bytes = image.to_bytes();
    file.write_to(&dir).unwrap();
    assert_eq!(SnapshotFile::load(&path).unwrap(), file);
    let recovered = Node::recover(config, checkpointed_world(), engine(2)).unwrap();
    assert_eq!(recovered.chain().head_hash(), chain[4].hash());
    assert_eq!(recovered.world().snapshot(), image);
    drop(recovered);

    // The same logical world, contracts listed in descending order.
    let mut reordered = image;
    reordered.contracts.reverse();
    file.world_bytes = reordered.to_bytes();
    file.write_to(&dir).unwrap();
    assert!(matches!(
        SnapshotFile::load(&path),
        Err(SnapshotError::Decode(_))
    ));
    let fallback = cc_ledger::load_latest(&dir).unwrap().expect("fallback");
    assert_eq!(fallback.height, 2);
    std::fs::remove_dir_all(&dir).ok();
}
