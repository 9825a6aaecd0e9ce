//! Crash recovery: latest valid checkpoint + WAL replay.
//!
//! [`recover`] is the pure ledger half of recovery — it rebuilds the
//! *chain* (and hands back the checkpoint's height and state root)
//! without executing anything. The execution half — replaying the
//! recovered blocks through an engine to rebuild the world, each block
//! checked against the `state_root` in its header — lives in `cc_core`,
//! which owns engines; keeping the split here means recovery works for
//! any execution strategy. No world image is read: the checkpoint's
//! `state_root` is its anchor block's header root
//! (`SnapshotFile::from_bytes` rejects a file where they differ), so the
//! replay's per-block root check is the check against the checkpoint.
//!
//! Invariants (see `crates/ledger/README.md` for the full contract):
//!
//! * The WAL holds sealed blocks only, so what is replayed is exactly the
//!   blocks of its valid prefix.
//! * The WAL's torn or corrupt tail is dropped wholesale — recovery can
//!   lose at most the blocks sealed after the last intact seal record,
//!   never a prefix block and never part of a block.
//! * Sealed blocks at or below the snapshot height are skipped, which
//!   makes a crash between snapshot-write and WAL-reset harmless.
//! * Every block's commitments are checked once here, as the chain
//!   appends it (`Blockchain::append`); replaying it checks them once more.
//! * A checkpoint or log in another on-disk format is refused
//!   ([`RecoveryError::Version`]), never misread and never truncated.

use crate::chain::{Blockchain, ChainError};
use crate::format::VersionError;
use crate::snapshot::{load_latest, SnapshotFile};
use crate::wal::{self, WAL_FILE};
use cc_primitives::hash::Hash256;
use std::io;
use std::path::Path;

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The directory holds no valid snapshot — there is nothing to
    /// anchor recovery to. (Nodes write a genesis snapshot when
    /// durability is enabled precisely so this only happens for a
    /// directory that never belonged to a node.)
    NoSnapshot,
    /// The snapshot's embedded chain does not validate structurally.
    BadSnapshotChain(ChainError),
    /// A sealed block from the WAL does not extend the recovered chain.
    BadWalBlock(ChainError),
    /// A checkpoint or the WAL is in another on-disk format.
    Version(VersionError),
    /// The directory or a file could not be read.
    Io(io::Error),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoSnapshot => {
                f.write_str("no valid snapshot found in durability directory")
            }
            RecoveryError::BadSnapshotChain(e) => {
                write!(f, "snapshot chain fails validation: {e}")
            }
            RecoveryError::BadWalBlock(e) => {
                write!(f, "sealed WAL block does not extend recovered chain: {e}")
            }
            RecoveryError::Version(e) => e.fmt(f),
            RecoveryError::Io(e) => write!(f, "recovery io error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Version(e) => Some(e),
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        let version = VersionError::in_io(&e).cloned();
        version.map_or(RecoveryError::Io(e), RecoveryError::Version)
    }
}

/// The outcome of [`recover`]: the rebuilt chain, which the execution
/// layer replays to rebuild the world, plus where it came from.
#[derive(Debug)]
pub struct RecoveredLedger {
    /// The chain through the last sealed block.
    pub chain: Blockchain,
    /// Height the anchoring snapshot was taken at.
    pub snapshot_height: u64,
    /// The checkpoint's state root: the `state_root` in the header of
    /// `chain`'s block at `snapshot_height`, which a replayed world must
    /// reach at that height.
    pub snapshot_state_root: Hash256,
    /// Bytes of the WAL's valid prefix.
    pub wal_valid_len: u64,
    /// Bytes dropped from the WAL's torn or corrupt tail (0 for a clean
    /// shutdown).
    pub wal_dropped: u64,
}

impl RecoveredLedger {
    /// The recovered chain tip height.
    pub fn height(&self) -> u64 {
        self.chain.head().header.number
    }
}

/// Recovers the chain from a durability directory: loads the latest
/// valid snapshot, rebuilds its chain, then replays every sealed block
/// from the WAL's valid prefix that extends it. The WAL file itself is
/// not modified — reopening it for writing (`Wal::open_append`) is what
/// truncates the torn tail.
///
/// # Errors
///
/// [`RecoveryError`] if no valid snapshot exists, the recovered chain
/// fails validation, a file is in another format, or the directory
/// cannot be read.
pub fn recover(dir: &Path) -> Result<RecoveredLedger, RecoveryError> {
    let snapshot: SnapshotFile = load_latest(dir)?.ok_or(RecoveryError::NoSnapshot)?;

    // Rebuild the chain from the snapshot's embedded blocks. The genesis
    // must reconstruct identically from its state root alone — that is
    // how live nodes build it — so a mismatch means the snapshot lied.
    let mut blocks = snapshot.blocks.into_iter();
    let genesis = blocks.next().expect("validated snapshot has a genesis");
    let mut chain = Blockchain::with_genesis_state(genesis.header.state_root);
    if chain.head_hash() != genesis.hash() {
        return Err(RecoveryError::BadSnapshotChain(ChainError::Malformed));
    }
    for block in blocks {
        chain
            .append(block)
            .map_err(RecoveryError::BadSnapshotChain)?;
    }

    // Replay sealed blocks from the WAL's valid prefix. Blocks at or
    // below the snapshot height are already in the chain (crash between
    // snapshot-write and WAL-reset); anything newer must extend the tip.
    let scanned = wal::scan(&dir.join(WAL_FILE))?;
    for block in scanned.blocks {
        if block.header.number > chain.head().header.number {
            chain.append(block).map_err(RecoveryError::BadWalBlock)?;
        }
    }

    Ok(RecoveredLedger {
        chain,
        snapshot_height: snapshot.height,
        snapshot_state_root: snapshot.state_root,
        wal_valid_len: scanned.valid_len,
        wal_dropped: scanned.total_len - scanned.valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::snapshot::SnapshotFile;
    use crate::tx::Transaction;
    use crate::wal::{DurabilityMode, Wal};
    use cc_vm::{Address, ArgValue, CallData};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cc-recovery-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn next_block(chain: &Blockchain) -> Block {
        let number = chain.head().header.number + 1;
        let tx = Transaction::new(
            number,
            Address::from_index(number),
            Address::from_name("Ballot"),
            CallData::new("vote", vec![ArgValue::Uint(0)]),
            100_000,
        );
        Block::build(
            chain.head_hash(),
            number,
            vec![tx],
            Vec::new(),
            Hash256::ZERO,
            None,
        )
    }

    fn write_genesis_snapshot(dir: &Path, chain: &Blockchain) {
        let genesis = chain.block(0).unwrap().clone();
        SnapshotFile {
            height: 0,
            block_hash: genesis.hash(),
            state_root: genesis.header.state_root,
            blocks: vec![genesis],
            world_bytes: Vec::new(),
        }
        .write_to(dir)
        .unwrap();
    }

    #[test]
    fn recovers_snapshot_plus_sealed_wal_blocks() {
        let dir = temp_dir("happy");
        let mut chain = Blockchain::with_genesis_state(Hash256::ZERO);
        write_genesis_snapshot(&dir, &chain);
        let wal = Wal::create(dir.join(WAL_FILE), DurabilityMode::Buffered).unwrap();
        for _ in 0..3 {
            let block = next_block(&chain);
            wal.seal_block(&block).unwrap();
            chain.append(block).unwrap();
        }
        drop(wal);

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.height(), 3);
        assert_eq!(recovered.snapshot_height, 0);
        assert_eq!(recovered.wal_dropped, 0);
        assert!(recovered.chain.iter().eq(chain.iter()), "the sealed chain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_last_seal() {
        let dir = temp_dir("torn");
        let mut chain = Blockchain::with_genesis_state(Hash256::ZERO);
        write_genesis_snapshot(&dir, &chain);
        let wal_path = dir.join(WAL_FILE);
        let wal = Wal::create(&wal_path, DurabilityMode::Buffered).unwrap();
        let b1 = next_block(&chain);
        wal.seal_block(&b1).unwrap();
        chain.append(b1).unwrap();
        let cut = wal.written_len();
        let b2 = next_block(&chain);
        wal.seal_block(&b2).unwrap();
        chain.append(b2).unwrap();
        drop(wal);

        // Crash mid-write of block 2's frame.
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..cut as usize + 7]).unwrap();

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.height(), 1, "block 2's torn seal is dropped");
        assert!(recovered.wal_dropped > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_blocks_at_or_below_snapshot_height_are_skipped() {
        // Simulates a crash after the height-2 snapshot renamed into
        // place but before the WAL was reset.
        let dir = temp_dir("overlap");
        let mut chain = Blockchain::with_genesis_state(Hash256::ZERO);
        let wal = Wal::create(dir.join(WAL_FILE), DurabilityMode::Buffered).unwrap();
        for _ in 0..2 {
            let block = next_block(&chain);
            wal.seal_block(&block).unwrap();
            chain.append(block).unwrap();
        }
        drop(wal);
        let head = chain.head().clone();
        SnapshotFile {
            height: 2,
            block_hash: head.hash(),
            state_root: head.header.state_root,
            blocks: chain.iter().cloned().collect(),
            world_bytes: Vec::new(),
        }
        .write_to(&dir)
        .unwrap();

        let recovered = recover(&dir).unwrap();
        assert_eq!(recovered.snapshot_height, 2);
        assert_eq!(recovered.height(), 2, "all seals were ≤ snapshot");
        assert!(recovered.chain.iter().eq(chain.iter()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_typed_error() {
        let dir = temp_dir("no-snap");
        assert!(matches!(recover(&dir), Err(RecoveryError::NoSnapshot)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
