//! Crash-recovery fault injection: kill a durable node at arbitrary WAL
//! offsets (and flip arbitrary bits) and assert the recovered node is
//! **bit-identical** to the committed prefix — chain tip, world bytes
//! and all — under both execution strategies.
//!
//! The invariant under test: for a crash leaving `cut` intact bytes of
//! the WAL, recovery lands exactly on the highest block whose seal
//! record lies within those bytes. Nothing of later blocks survives
//! (prefix semantics), and nothing of aborted or unsealed transactions
//! survives (only sealed blocks are replayed) — both facts are implied
//! by the recovered world bytes matching the recorded per-height world
//! bytes exactly.

use cc_core::engine::Engine;
use cc_core::node::{DurabilityConfig, Node};
use cc_integration_tests::{counter_world, engine, increment_tx, optimistic_engine};
use cc_ledger::faultsim::{corrupt_at, file_len, kill_at};
use cc_ledger::wal::{DurabilityMode, WAL_FILE};
use cc_primitives::Hash256;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

const BLOCKS: u64 = 5;
const TXS_PER_BLOCK: u64 = 8;

/// Everything recorded while a healthy durable node mined: the full WAL
/// bytes plus, for every height `h`, the head hash, canonical world
/// bytes and WAL length observed right after block `h` sealed.
struct History {
    dir: PathBuf,
    wal: Vec<u8>,
    heads: Vec<Hash256>,
    worlds: Vec<Vec<u8>>,
    wal_lens: Vec<u64>,
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cc-crash-recovery-{}-{tag}", std::process::id()));
    p
}

fn build_history(tag: &str, engine: &Engine) -> History {
    let dir = temp_dir(tag);
    fs::remove_dir_all(&dir).ok();
    // A huge snapshot interval keeps every block in the WAL, so kill
    // offsets exercise log replay rather than snapshot loading.
    let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(1_000_000);
    let mut node = Node::builder()
        .world(counter_world())
        .engine(engine.clone())
        .durability(config)
        .build()
        .expect("durable node");
    let wal_path = dir.join(WAL_FILE);
    let mut heads = vec![node.chain().head_hash()];
    let mut worlds = vec![node.world().snapshot().to_bytes()];
    let mut wal_lens = vec![file_len(&wal_path).expect("wal length")];
    for b in 0..BLOCKS {
        let txs = (0..TXS_PER_BLOCK)
            .map(|i| increment_tx(b * 1000 + i, i, 1))
            .collect();
        node.mine_and_append(txs).expect("mining succeeds");
        heads.push(node.chain().head_hash());
        worlds.push(node.world().snapshot().to_bytes());
        wal_lens.push(file_len(&wal_path).expect("wal length"));
    }
    drop(node); // the "crash": nothing beyond the WAL survives
    let wal = fs::read(&wal_path).expect("healthy wal");
    History {
        dir,
        wal,
        heads,
        worlds,
        wal_lens,
    }
}

impl History {
    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Restores the healthy WAL file (undoing the previous injection).
    fn restore(&self) {
        fs::write(self.wal_path(), &self.wal).expect("restore wal");
    }

    /// The height recovery must land on when only `intact` bytes of the
    /// WAL survive uncorrupted: the highest block sealed within them.
    fn expected_height(&self, intact: u64) -> usize {
        self.wal_lens
            .iter()
            .rposition(|&len| len <= intact)
            .expect("genesis is always recoverable")
    }

    /// Recovers a node from the (injected) directory and asserts it is
    /// bit-identical to the recorded state at `height`.
    fn assert_recovers_to(&self, engine: &Engine, height: usize, what: &str) {
        let config = DurabilityConfig::new(&self.dir, DurabilityMode::Fsync);
        let node = Node::recover(config, counter_world(), engine.clone())
            .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        assert_eq!(
            node.chain().head().header.number,
            height as u64,
            "{what}: wrong recovered height"
        );
        assert_eq!(
            node.chain().head_hash(),
            self.heads[height],
            "{what}: recovered chain tip differs"
        );
        assert_eq!(
            node.world().snapshot().to_bytes(),
            self.worlds[height],
            "{what}: recovered world is not bit-identical"
        );
    }
}

/// ≥ 50 randomized kill offsets per strategy, plus every exact block
/// boundary (clean-shutdown points).
fn kill_sweep(tag: &str, engine: &Engine) {
    let history = build_history(tag, engine);
    let total = history.wal.len() as u64;
    assert!(total > 0);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let offsets: Vec<u64> = (0..55)
        .map(|_| rng.gen_range(0..total))
        .chain(history.wal_lens.iter().copied())
        .collect();
    for cut in offsets {
        history.restore();
        kill_at(&history.wal_path(), cut).expect("inject kill");
        let height = history.expected_height(cut);
        history.assert_recovers_to(engine, height, &format!("kill at {cut}/{total}"));
    }
}

/// Randomized single-bit corruption: the frame containing the flipped
/// bit (and everything after it) is dropped; the prefix before it
/// survives intact.
fn corruption_sweep(tag: &str, engine: &Engine) {
    let history = build_history(tag, engine);
    let total = history.wal.len() as u64;
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for _ in 0..25 {
        let offset = rng.gen_range(0..total);
        history.restore();
        corrupt_at(&history.wal_path(), offset).expect("inject corruption");
        let height = history.expected_height(offset);
        history.assert_recovers_to(engine, height, &format!("bit flip at {offset}/{total}"));
    }
}

#[test]
fn speculative_stm_survives_randomized_kills() {
    kill_sweep("kill-stm", &engine(3));
}

#[test]
fn optimistic_mvcc_survives_randomized_kills() {
    kill_sweep("kill-mvcc", &optimistic_engine(3));
}

#[test]
fn speculative_stm_survives_bit_corruption() {
    corruption_sweep("flip-stm", &engine(3));
}

#[test]
fn optimistic_mvcc_survives_bit_corruption() {
    corruption_sweep("flip-mvcc", &optimistic_engine(3));
}

/// Periodic snapshots garbage-collect the WAL; recovery never falls
/// below the latest snapshot even when the entire log is destroyed.
#[test]
fn snapshots_floor_recovery_when_the_wal_is_lost() {
    let dir = temp_dir("snapshot-floor");
    fs::remove_dir_all(&dir).ok();
    let eng = engine(3);
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2);
    let mut node = Node::builder()
        .world(counter_world())
        .engine(eng.clone())
        .durability(config.clone())
        .build()
        .unwrap();
    let mut worlds = vec![node.world().snapshot().to_bytes()];
    for b in 0..5u64 {
        let txs = (0..4).map(|i| increment_tx(b * 1000 + i, i, 1)).collect();
        node.mine_and_append(txs).unwrap();
        worlds.push(node.world().snapshot().to_bytes());
    }
    drop(node);
    // Snapshots exist at the configured cadence and the WAL only holds
    // the blocks since the last one (height 4), i.e. block 5.
    assert!(dir.join("snapshot-4.snap").exists());
    let recovered = Node::recover(config.clone(), counter_world(), eng.clone()).unwrap();
    assert_eq!(recovered.chain().head().header.number, 5);
    assert_eq!(recovered.world().snapshot().to_bytes(), worlds[5]);
    drop(recovered);

    // Destroy the WAL outright: recovery falls back to the snapshot.
    fs::write(dir.join(WAL_FILE), []).unwrap();
    let recovered = Node::recover(config, counter_world(), eng).unwrap();
    assert_eq!(recovered.chain().head().header.number, 4);
    assert_eq!(recovered.world().snapshot().to_bytes(), worlds[4]);
    fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kills at an arbitrary *record boundary* under a strategy picked
    /// per case, and asserts exact prefix recovery. The log holds one
    /// seal frame per block and nothing else, so every frame edge is a
    /// block edge and each cut recovers exactly the blocks before it.
    #[test]
    fn prop_kill_at_any_record_boundary_recovers_exact_prefix(
        boundary_seed in 0u64..10_000,
        strategy in 0u64..2,
    ) {
        let (tag, eng) = if strategy == 1 {
            ("prop-mvcc", optimistic_engine(3))
        } else {
            ("prop-stm", engine(3))
        };
        let history = build_history(tag, &eng);
        // Walk the healthy log's frames to enumerate record boundaries.
        let mut boundaries = vec![0u64];
        let mut offset = 0usize;
        while offset + 12 <= history.wal.len() {
            let len = u32::from_le_bytes(history.wal[offset..offset + 4].try_into().unwrap());
            offset += 12 + len as usize;
            boundaries.push(offset as u64);
        }
        prop_assert!(boundaries.len() > BLOCKS as usize);
        let cut = boundaries[(boundary_seed as usize) % boundaries.len()];
        history.restore();
        kill_at(&history.wal_path(), cut).unwrap();
        let height = history.expected_height(cut);
        history.assert_recovers_to(&eng, height, &format!("boundary kill at {cut}"));
    }
}
