//! Dishonest-miner scenarios: every way a published block can lie must be
//! caught either by structural well-formedness checks or by the
//! validator's replay checks (paper §4–5: "A miner who publishes an
//! incorrect schedule will be detected and its block rejected").
//!
//! Two distinct integrity layers are exercised here, and they defend
//! against different things. **Adversarial** integrity — a miner lying
//! about schedules, receipts or state — rests entirely on the SHA-256
//! commitments in the header and on deterministic replay; an adversary
//! cannot recompute those without doing the honest work. The
//! `cc_primitives::checksum::checksum64` on each wire form (framed WAL
//! records, checkpoint files, `Block::to_checked_bytes`) is **corruption
//! detection** only: it catches torn writes and bit rot, but anyone who can
//! rewrite the bytes can trivially recompute it.

use cc_contracts::SimpleAuction;
use cc_core::error::CoreError;
use cc_core::miner::MinedBlock;
use cc_core::node::{DurabilityConfig, Node};
use cc_core::{Engine, FollowerConfig, HappensBeforeGraph};
use cc_integration_tests::{
    counter_world, engine, increment_tx, optimistic_engine, serial_engine, workload,
};
use cc_ledger::wal::DurabilityMode;
use cc_ledger::{
    Block, ProfileRecord, ScheduleMetadata, SnapshotError, SnapshotFile, Transaction, Wal, WAL_FILE,
};
use cc_stm::{LockMode, LockProfile, ProfileEntry};
use cc_vm::{Address, CallData, World, WorldSnapshot};
use cc_workload::{Benchmark, Workload};
use std::collections::BTreeMap;
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
    rejection(&engine(3), &w.build_world(), block)
}

/// [`expect_rejection`] by `engine` on `world`.
fn rejection(engine: &Engine, world: &World, block: &Block) -> CoreError {
    let root = world.state_root();
    let err = engine
        .validate(world, block)
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
fn dropped_happens_before_edges_are_malformed() {
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
    assert!(
        matches!(err, CoreError::MalformedSchedule { .. }),
        "got: {err}"
    );
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
    // Pretend a transaction that is ordered against another touched
    // nothing at all: the profiles no longer derive the published edges.
    let mut block = mined.block.clone();
    {
        let schedule = block.schedule.as_mut().unwrap();
        let (liar, _) = schedule.edges[0];
        schedule.profiles[liar].profile = LockProfile::default();
        recommit(&mut block);
    }
    let err = expect_rejection(&w, &block);
    assert!(
        matches!(err, CoreError::MalformedSchedule { .. }),
        "got: {err}"
    );

    // Claiming an extra lock nobody else holds derives the same graph;
    // the replayed trace catches it.
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

    // Every single-byte corruption of the wire form is caught by its
    // `checksum64` (typed error, no panic) — this is what protects a
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

type Feed = fn(&mut Node, &Block) -> Result<(), CoreError>;

/// `validate_and_append`: one block, inline.
const ONE_BLOCK: Feed = |node, block| node.validate_and_append(block).map(drop);

/// The follower pipeline, over a stream of one block.
const STREAM: Feed = |node, block| {
    node.run_follower_pipeline(vec![block.clone()], &FollowerConfig::new())
        .map(drop)
};

/// Feeds every forgery to a fresh node on `engine` over `world()`, through
/// each entry point a received block takes — `validate_and_append`, and the
/// follower pipeline with durability off and with fsync. Each forgery must
/// be rejected with an error naming its `reason`, leave world and chain
/// where they were and the node fresh; the honest block must then be
/// accepted and reach its root.
fn assert_followers_turn_away(
    tag: &str,
    world: fn() -> World,
    engine: &Engine,
    honest: &Block,
    forgeries: &[(&str, Block, &str)],
) {
    let dir = std::env::temp_dir().join(format!("cc-tamper-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cases = [
        ("validate_and_append", DurabilityMode::Off, ONE_BLOCK),
        ("follower, durability off", DurabilityMode::Off, STREAM),
        ("follower, fsync", DurabilityMode::Fsync, STREAM),
    ];
    for (case, mode, feed) in cases {
        for (forgery, forged, reason) in forgeries {
            let case = format!("{}, {case}, {forgery}", engine.strategy());
            let mut follower = Node::builder()
                .world(world())
                .engine(engine.clone())
                .durability(DurabilityConfig::new(&dir, mode))
                .build()
                .unwrap();
            let root = follower.world().state_root();

            let err = feed(&mut follower, forged).expect_err(&case);
            assert!(err.to_string().contains(reason), "{case}: {err}");
            assert_eq!(follower.world().state_root(), root, "{case}: world moved");
            assert_eq!(follower.chain().len(), 1, "{case}");
            assert!(!follower.is_stale(), "{case}: a clean rejection stales");

            feed(&mut follower, honest).unwrap_or_else(|e| panic!("{case}: honest block: {e}"));
            assert_eq!(follower.chain().head_hash(), honest.hash(), "{case}");
            let reached = follower.world().state_root();
            assert_eq!(reached, honest.header.state_root, "{case}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Block 1 of a counter chain: six increments from `senders` senders,
/// mined by the serial engine, so its schedule does not depend on timing.
fn honest_counter_block(senders: u64) -> Block {
    let mut producer = Node::new(counter_world(), serial_engine());
    let txs = (0..6).map(|i| increment_tx(i, i % senders, 1)).collect();
    producer.mine_and_append(txs).unwrap().block
}

/// `honest` with `lie` told and its header re-committed to it, as a
/// dishonest miner would send it: well-formed.
fn forge(honest: &Block, lie: impl FnOnce(&mut Block)) -> Block {
    let mut block = honest.clone();
    lie(&mut block);
    recommit(&mut block);
    assert!(block.is_well_formed(), "the recommitted lie is well-formed");
    block
}

/// The schedule of a block a test is about to forge.
fn schedule(block: &mut Block) -> &mut ScheduleMetadata {
    block.schedule.as_mut().unwrap()
}

/// A block whose only lie is `header.number` is well-formed and replays
/// cleanly, so nothing but the node's own prologue stands between it and
/// the world: every follower entry point must turn it away *before* any
/// replay — node fresh, world and chain where they were — and then accept
/// the honest block.
#[test]
fn forged_block_number_is_rejected_before_it_moves_the_world() {
    let honest = honest_counter_block(6);
    let mut forged = honest.clone();
    forged.header.number += 1;
    assert!(
        forged.is_well_formed(),
        "the number is the block's only lie"
    );
    let forgeries = [("forged number", forged, "wrong block number")];
    assert_followers_turn_away("number", counter_world, &engine(2), &honest, &forgeries);
}

/// A `serial_order` that is not a permutation — one entry out of range,
/// or one entry repeated — in an otherwise honest, re-committed block.
/// Whatever engine a follower runs, the order is checked before the first
/// transaction runs: a typed error (never an out-of-bounds panic, never a
/// transaction run twice), world and chain where they were, and every
/// follower still fresh for the honest block.
#[test]
fn forged_serial_order_is_rejected_before_it_moves_the_world() {
    let honest = honest_counter_block(4);
    let repeated = honest.schedule.as_ref().unwrap().serial_order[0];
    let forged = |entry: usize, value: usize| {
        forge(&honest, |block| schedule(block).serial_order[entry] = value)
    };
    let forgeries = [
        ("out of range", forged(3, 999), "malformed schedule"),
        ("duplicate", forged(3, repeated), "malformed schedule"),
    ];
    for engine in [serial_engine(), engine(2)] {
        assert_followers_turn_away("order", counter_world, &engine, &honest, &forgeries);
    }
}

/// Lies only the replay can catch — a forged receipt, a lock profile
/// claiming a lock nobody else holds (it derives the same graph) — are
/// rejected by every follower entry point before the block's overlay
/// reaches the base: world and chain where they were, the node fresh, and
/// the honest block accepted next.
#[test]
fn replay_time_rejections_leave_the_follower_fresh() {
    let honest = honest_counter_block(2);
    let phantom = ProfileEntry {
        lock: cc_stm::LockSpace::new("tamper.phantom").whole(),
        mode: LockMode::Exclusive,
        counter: 1,
    };
    let forgeries = [
        (
            "forged receipt",
            forge(&honest, |block| block.receipts[0].gas_used += 1),
            "receipt",
        ),
        (
            "lying lock profile",
            forge(&honest, |block| {
                let record = &mut schedule(block).profiles[0];
                let mut locks = record.profile.locks.clone();
                locks.push(phantom);
                record.profile = LockProfile::new(locks);
            }),
            "lock trace",
        ),
    ];
    assert_followers_turn_away("replay", counter_world, &engine(2), &honest, &forgeries);
}

/// A block re-committed to a schedule its lock profiles do not derive is
/// malformed, whatever else in it is honest: the published edges, order
/// and lock sets cannot vary on their own. Each of these used to be
/// accepted with its content unchanged — a different block hash for the
/// same block — or, for the last two, to be caught only by replaying it.
#[test]
fn schedules_the_profiles_do_not_derive_are_malformed() {
    // Two senders: 0 → 2 → 4 and 1 → 3 → 5, serial order 0, 1, …, 5.
    let honest = honest_counter_block(2);
    assert_eq!(
        honest.schedule.as_ref().unwrap().edges,
        vec![(0, 2), (1, 3), (2, 4), (3, 5)]
    );
    let forgeries = [
        (
            "a profile record for a transaction the block lacks",
            forge(&honest, |block| {
                let profiles = &mut schedule(block).profiles;
                let profile = profiles[0].profile.clone();
                profiles.push(ProfileRecord {
                    tx_index: 6,
                    profile,
                });
            }),
        ),
        (
            "a second, contradictory record for transaction 0",
            forge(&honest, |block| {
                let profile = LockProfile::default();
                schedule(block).profiles.push(ProfileRecord {
                    tx_index: 0,
                    profile,
                });
            }),
        ),
        (
            "an extra edge the serial order agrees with",
            forge(&honest, |block| schedule(block).edges.insert(0, (0, 1))),
        ),
        (
            "another topological order",
            forge(&honest, |block| schedule(block).serial_order.swap(0, 1)),
        ),
        (
            "a profile entry listed twice",
            forge(&honest, |block| {
                let record = &mut schedule(block).profiles[0];
                let mut locks = record.profile.locks.clone();
                locks.push(locks[0]);
                record.profile = LockProfile::new(locks);
            }),
        ),
        (
            "a dropped edge",
            forge(&honest, |block| {
                schedule(block).edges.remove(0);
            }),
        ),
        (
            "a profile emptied of its locks",
            forge(&honest, |block| {
                schedule(block).profiles[0].profile = LockProfile::default()
            }),
        ),
    ];
    for (forgery, forged) in &forgeries {
        let err = rejection(&engine(2), &counter_world(), forged);
        assert!(
            matches!(err, CoreError::MalformedSchedule { .. }),
            "{forgery}: {err}"
        );
    }
    let forgeries = forgeries.map(|(forgery, forged)| (forgery, forged, "malformed schedule"));
    assert_followers_turn_away("derive", counter_world, &engine(2), &honest, &forgeries);
}

fn auction_world() -> World {
    let world = World::new();
    let auction = SimpleAuction::new(Address::from_name("tamper.auction"), Address::from_index(0));
    world.deploy(std::sync::Arc::new(auction));
    world
}

/// A miner that lies about the commit order with consistent counters
/// passes every shape check: its profiles derive the published schedule.
/// Two consecutive SimpleAuction bidders swap their counters on every
/// lock they share, and the schedule is derived again from the lie. The
/// replay then runs them the other way round, and their receipts (the
/// amounts they bid) give the lie away — before the world moves.
#[test]
fn lying_counters_are_rejected_on_receipts() {
    let mut producer = Node::builder()
        .world(auction_world())
        .engine(engine(2))
        .build()
        .unwrap();
    let bid = |i: u64| {
        let to = Address::from_name("tamper.auction");
        let call = CallData::nullary("bidPlusOne");
        Transaction::new(i, Address::from_index(i), to, call, 1_000_000)
    };
    let honest = producer
        .mine_and_append((1..=6).map(bid).collect())
        .unwrap()
        .block;

    let schedule = honest.schedule.as_ref().unwrap();
    let (first, second) = (schedule.serial_order[0], schedule.serial_order[1]);
    let mut profiles: Vec<LockProfile> = schedule
        .profiles
        .iter()
        .map(|record| record.profile.clone())
        .collect();
    let counters = |profile: &LockProfile| -> BTreeMap<_, _> {
        profile.locks.iter().map(|e| (e.lock, e.counter)).collect()
    };
    let (of_first, of_second) = (counters(&profiles[first]), counters(&profiles[second]));
    let take = |profile: &LockProfile, theirs: &BTreeMap<_, u64>| {
        let entries = profile.locks.iter().map(|&entry| ProfileEntry {
            counter: theirs.get(&entry.lock).copied().unwrap_or(entry.counter),
            ..entry
        });
        LockProfile::new(entries.collect())
    };
    profiles[first] = take(&profiles[first], &of_second);
    profiles[second] = take(&profiles[second], &of_first);
    let lied = HappensBeforeGraph::from_profiles(&profiles)
        .to_metadata(&profiles)
        .unwrap();
    assert_eq!(lied.serial_order[..2], [second, first]);
    HappensBeforeGraph::from_metadata(&lied, honest.len()).expect("the lie is well-shaped");
    let forged = forge(&honest, |block| block.schedule = Some(lied));

    let err = rejection(&engine(2), &auction_world(), &forged);
    assert!(err.to_string().contains("receipt"), "got: {err}");
    let forgeries = [("lying counters", forged, "receipt")];
    assert_followers_turn_away("counters", auction_world, &engine(2), &honest, &forgeries);
}

/// Before every miner published its lock profiles, a serial engine
/// published a profile-less chain `0 → 1 → … → n−1`. No engine derives a
/// schedule from that, and a log an old serial
/// node wrote is refused with a typed error, never replayed some other way.
#[test]
fn an_old_serial_block_is_malformed_and_its_log_is_refused() {
    let dir = std::env::temp_dir().join(format!("cc-tamper-old-serial-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync);
    let genesis = Node::builder()
        .world(counter_world())
        .engine(serial_engine())
        .durability(config.clone())
        .build()
        .unwrap()
        .chain()
        .head_hash();
    let txs = (0..5).map(|i| increment_tx(i, i % 2, 1)).collect();
    let mined = serial_engine().mine_on(&counter_world(), txs, genesis, 1);
    let old = forge(&mined.unwrap().block, |block| {
        let n = block.len();
        block.schedule = Some(ScheduleMetadata {
            serial_order: (0..n).collect(),
            edges: (1..n).map(|i| (i - 1, i)).collect(),
            profiles: Vec::new(),
        });
    });

    let engines = [serial_engine(), engine(2), optimistic_engine(2)];
    for engine in engines {
        let err = rejection(&engine, &counter_world(), &old);
        assert!(
            matches!(err, CoreError::MalformedSchedule { .. }),
            "{}: {err}",
            engine.strategy()
        );
    }

    let wal = Wal::open_append(dir.join(WAL_FILE), DurabilityMode::Fsync).unwrap();
    wal.seal_block(&old).unwrap();
    drop(wal);
    let err = Node::recover(config, counter_world(), serial_engine())
        .expect_err("an old serial log must not recover");
    assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");
    assert!(err.to_string().contains("malformed schedule"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- checkpoints: what recovery trusts, and why --------------------------
//
// A checkpoint file is rewritable by anyone who can recompute a checksum64,
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
