#![cfg(test)]
//! Every on-disk record is checked by exactly one checksum, and nothing
//! a disk can do to it is misread: over a three-frame log and a
//! three-block checkpoint, every single-byte change and every truncation
//! is either detected or (for a log's tail) dropped, never decoded into
//! something else. Files in the previous format (format 1: no header,
//! FNV-1a inside FNV-1a) are refused by version and left as they are,
//! and a crash inside `Wal::reset` or the first seal after it leaves an
//! empty log.

use cc_ledger::faultsim::{file_len, kill_at};
use cc_ledger::snapshot::SnapshotError;
use cc_ledger::wal::{self, DurabilityMode, Wal, WAL_FILE};
use cc_ledger::{recover, Block, Blockchain, RecoveryError, SnapshotFile, Transaction};
use cc_ledger::{VersionError, FORMAT_VERSION};
use cc_primitives::codec::Encoder;
use cc_primitives::fnv::fnv1a;
use cc_vm::{Address, ArgValue, CallData, ExecutionStatus, Receipt, ReturnValue};
use std::io;
use std::path::PathBuf;

/// The format-2 WAL header: a frame of length 4 whose checksum slot holds
/// the magic and whose payload is the version.
const WAL_HEADER: usize = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc-records-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A splitmix64 stream: the test's one seed picks every byte change.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A non-zero mask: XOR-ing it in always changes the byte.
    fn mask(&mut self) -> u8 {
        (self.next() % 255 + 1) as u8
    }
}

/// Genesis and three blocks of a few votes each, with receipts.
fn chain() -> Blockchain {
    let mut chain = Blockchain::new();
    for number in 1..=3u64 {
        let txs: Vec<Transaction> = (0..number + 1)
            .map(|i| {
                let call = CallData::new("vote", vec![ArgValue::Uint(i.into())]);
                let to = Address::from_name("Ballot");
                Transaction::new(i, Address::from_index(10 * number + i), to, call, 90_000)
            })
            .collect();
        let receipts = (0..txs.len())
            .map(|tx_index| Receipt {
                tx_index,
                status: ExecutionStatus::Succeeded,
                gas_used: 21_000 + tx_index as u64,
                output: ReturnValue::Unit,
                events: Vec::new(),
            })
            .collect();
        let root = cc_primitives::sha256(&number.to_le_bytes());
        let block = Block::build(chain.head_hash(), number, txs, receipts, root, None);
        chain.append(block).unwrap();
    }
    chain
}

fn version_error(e: &io::Error) -> &VersionError {
    VersionError::in_io(e).unwrap_or_else(|| panic!("not a version error: {e}"))
}

/// Format 1's checked bytes: an FNV-1a over the plain encoding, in front.
fn v1_checked(block: &Block) -> Vec<u8> {
    let mut plain = Encoder::new();
    block.encode(&mut plain);
    let mut out = fnv1a(plain.as_slice()).to_le_bytes().to_vec();
    out.extend_from_slice(plain.as_slice());
    out
}

/// A format-1 log: no header; each frame `[len][fnv1a][5, len, checked]`.
fn v1_wal(blocks: &[Block]) -> Vec<u8> {
    let mut log = Vec::new();
    for block in blocks {
        let checked = v1_checked(block);
        let mut payload = vec![5u8];
        payload.extend_from_slice(&(checked.len() as u64).to_le_bytes());
        payload.extend_from_slice(&checked);
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
    }
    log
}

/// A format-1 checkpoint: `[fnv1a][payload]`, each block's checked bytes
/// length-prefixed, an empty image.
fn v1_checkpoint(blocks: &[Block]) -> Vec<u8> {
    let head = blocks.last().unwrap();
    let mut payload = Encoder::new();
    payload.put_u64(head.header.number);
    payload.put_raw(head.hash().as_bytes());
    payload.put_raw(head.header.state_root.as_bytes());
    payload.put_u64(blocks.len() as u64);
    for block in blocks {
        payload.put_bytes(&v1_checked(block));
    }
    payload.put_bytes(&[]);
    let mut out = fnv1a(payload.as_slice()).to_le_bytes().to_vec();
    out.extend_from_slice(payload.as_slice());
    out
}

#[test]
fn every_record_is_checked_once_and_nothing_is_misread() {
    let mut rng = Rng(0x5EED_0033);
    let chain = chain();
    let blocks: Vec<Block> = chain.iter().cloned().collect();
    let dir = temp_dir("integrity");
    let path = dir.join(WAL_FILE);

    // A three-frame log, and where each frame ends.
    let wal = Wal::create(&path, DurabilityMode::Buffered).unwrap();
    let mut ends = vec![0u64];
    for block in &blocks[1..] {
        wal.seal_block(block).unwrap();
        ends.push(wal.written_len());
    }
    drop(wal);
    let log = std::fs::read(&path).unwrap();
    assert_eq!(log.len() as u64, ends[3]);
    // The frames the first `len` bytes hold whole.
    let whole = |len: u64| ends.iter().rposition(|&end| end <= len).unwrap();
    let scan = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        wal::scan(&path)
    };

    for i in 0..log.len() {
        let mut bad = log.clone();
        bad[i] ^= rng.mask();
        match scan(&bad) {
            // A changed header is a file in another format.
            Err(e) => assert!(i < WAL_HEADER, "byte {i}: {e}"),
            Ok(scanned) => {
                assert!(i >= WAL_HEADER, "byte {i}: a changed header was read");
                let intact = whole(i as u64);
                assert_eq!(scanned.blocks, blocks[1..=intact], "byte {i}");
                assert_eq!(scanned.valid_len, ends[intact].max(WAL_HEADER as u64));
            }
        }
    }
    for len in 0..=log.len() {
        let scanned = scan(&log[..len]).unwrap();
        let intact = whole(len as u64);
        assert_eq!(scanned.blocks, blocks[1..=intact], "cut at {len}");
        assert_eq!(
            scanned.torn(),
            !ends.contains(&(len as u64)) && len != WAL_HEADER
        );
    }

    // A crash inside `reset` (the truncation to zero) or inside the first
    // seal after it (a prefix of the header): an empty log, which opens
    // for appending, is cut back to zero, and writes its header again.
    for cut in 0..=WAL_HEADER as u64 {
        std::fs::write(&path, &log).unwrap();
        kill_at(&path, cut).unwrap();
        assert!(wal::scan(&path).unwrap().blocks.is_empty(), "cut at {cut}");
        let wal = Wal::open_append(&path, DurabilityMode::Buffered).unwrap();
        let kept = if cut < WAL_HEADER as u64 { 0 } else { cut };
        assert_eq!(file_len(&path).unwrap(), kept, "cut at {cut}");
        wal.seal_block(&blocks[1]).unwrap();
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), log[..ends[1] as usize]);
    }

    // A three-block checkpoint (genesis, 1, 2).
    let head = &blocks[2];
    let checkpoint = SnapshotFile {
        height: 2,
        block_hash: head.hash(),
        state_root: head.header.state_root,
        blocks: blocks[..3].to_vec(),
        world_bytes: Vec::new(),
    };
    let bytes = checkpoint.to_bytes();
    assert_eq!(SnapshotFile::from_bytes(&bytes).unwrap(), checkpoint);
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= rng.mask();
        match SnapshotFile::from_bytes(&bad) {
            Err(SnapshotError::Version(_)) => assert!(i < 12, "byte {i}"),
            Err(SnapshotError::ChecksumMismatch { .. }) => assert!(i >= 12, "byte {i}"),
            other => panic!("byte {i}: {other:?}"),
        }
    }
    for len in 0..bytes.len() {
        assert!(
            SnapshotFile::from_bytes(&bytes[..len]).is_err(),
            "cut at {len}"
        );
    }

    // Format 1 is refused by version, and the log is left at full length.
    let v1 = v1_checkpoint(&blocks[..3]);
    let e = SnapshotFile::from_bytes(&v1).unwrap_err();
    assert!(
        matches!(e, SnapshotError::Version(VersionError { found: None, .. })),
        "{e}"
    );
    let old_log = v1_wal(&blocks[1..]);
    std::fs::write(&path, &old_log).unwrap();
    assert_eq!(version_error(&wal::scan(&path).unwrap_err()).found, None);
    let e = Wal::open_append(&path, DurabilityMode::Buffered).unwrap_err();
    assert_eq!(version_error(&e).file, "write-ahead log");
    assert_eq!(std::fs::read(&path).unwrap(), old_log, "never truncated");

    // A directory of format-1 files recovers to a version error, not to
    // "no snapshot" and not to a misread chain; a newer version is named.
    std::fs::write(dir.join(SnapshotFile::file_name(2)), &v1).unwrap();
    let e = recover(&dir).unwrap_err();
    assert!(matches!(e, RecoveryError::Version(_)), "{e}");
    let mut newer = bytes.clone();
    newer[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let e = SnapshotFile::from_bytes(&newer).unwrap_err();
    assert!(matches!(
        e,
        SnapshotError::Version(VersionError { found: Some(3), .. })
    ));
    assert_eq!(std::fs::read(&path).unwrap(), old_log, "never truncated");
    std::fs::remove_dir_all(&dir).ok();
}
