//! The checksummed, length-prefixed write-ahead log of sealed blocks.
//!
//! Every record is framed as `[len: u32][checksum: u64][payload]` (all
//! little-endian), where `checksum = fnv1a(payload)`. The log holds one
//! record kind, the **block seal**: one frame per appended block, written
//! in a single `write` (plus one `fdatasync` in [`DurabilityMode::Fsync`])
//! when the block seals. The block — its transactions plus the published
//! schedule — is the unit recovery re-executes, so nothing finer is
//! logged: a transaction's effects exist durably only inside a sealed
//! block.
//!
//! Recovery semantics are *prefix* semantics: [`scan`] walks frames from
//! the start and stops at the first torn, truncated or corrupt frame.
//! Everything before that point is the valid prefix; everything after —
//! even well-formed frames beyond a corrupt one — is dropped. A crash
//! mid-block loses at most the unsealed block being built.
//!
//! Logs written by earlier versions also carry transaction begin, op,
//! commit and abort frames (tags 1–4) between their seals. Nothing ever
//! replayed them, and [`scan`] skips them, so such a log still recovers
//! and [`Wal::open_append`] keeps every seal in it.

use crate::block::{Block, BlockCodecError};
use cc_primitives::codec::{DecodeError, Decoder};
use cc_primitives::fnv::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Default file name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// How aggressively committed state is pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No write-ahead log at all: the world lives only in RAM (the
    /// pre-durability behaviour, and the zero-cost baseline the strict
    /// stm_micro CI gate protects).
    #[default]
    Off,
    /// Each seal is written to the OS but not fsynced; a process crash
    /// loses nothing, a machine crash may lose the tail.
    Buffered,
    /// Every block seal ends with `fdatasync`: a machine crash loses at
    /// most the block being built.
    Fsync,
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DurabilityMode::Off => "off",
            DurabilityMode::Buffered => "buffered",
            DurabilityMode::Fsync => "fsync",
        })
    }
}

/// Record tag (first payload byte) of a block seal.
const TAG_BLOCK_SEAL: u8 = 5;

/// Decodes one checksummed payload: `Some(block)` for a seal, `None` for
/// a legacy transaction record.
fn decode_record(payload: &[u8]) -> Result<Option<Block>, DecodeError> {
    let mut dec = Decoder::new(payload);
    match dec.get_u8()? {
        TAG_BLOCK_SEAL => {}
        // Legacy transaction record (begin, op, commit, abort) from a log
        // written before the WAL held seals only: skipped, never state.
        1..=4 => return Ok(None),
        _ => {
            return Err(DecodeError {
                context: "unknown WAL record tag",
            })
        }
    }
    let bytes = dec.get_bytes()?;
    let block = Block::from_checked_bytes(&bytes).map_err(|e| match e {
        BlockCodecError::Decode(inner) => inner,
        _ => DecodeError {
            context: "sealed block rejected",
        },
    })?;
    if !dec.is_empty() {
        return Err(DecodeError {
            context: "trailing bytes in WAL record",
        });
    }
    Ok(Some(block))
}

/// Appends one framed record to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// The framed seal record of `block`.
fn seal_frame(block: &Block) -> Vec<u8> {
    let bytes = block.to_checked_bytes();
    let mut payload = Vec::with_capacity(9 + bytes.len());
    payload.push(TAG_BLOCK_SEAL);
    payload.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    payload.extend_from_slice(&bytes);
    let mut frame = Vec::with_capacity(12 + payload.len());
    push_frame(&mut frame, &payload);
    frame
}

/// Fsyncs the directory holding `path`, making its directory entries
/// (file creations and renames) durable. A path with no parent component
/// (a bare file name in the working directory) is a no-op.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

#[derive(Debug)]
struct WalIo {
    file: File,
    /// Bytes handed to the OS so far (the file length, absent a crash
    /// mid-write).
    written: u64,
    /// Fault injection (see [`Wal::inject_seal_failures`]): `Some(n)`
    /// means the next `n` seals succeed and every seal after that fails
    /// with an injected I/O error, as if the disk went away.
    seals_until_failure: Option<u64>,
}

/// The write-ahead log: one frame per sealed block.
///
/// One mutex covers the file, its length and the fault-injection count;
/// it is held across a seal's `write` + `fdatasync`, so concurrent sealers
/// write whole frames in lock order.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    mode: DurabilityMode,
    io: Mutex<WalIo>,
}

impl Wal {
    fn with_file(path: PathBuf, mode: DurabilityMode, file: File, written: u64) -> Wal {
        Wal {
            path,
            mode,
            io: Mutex::new(WalIo {
                file,
                written,
                seals_until_failure: None,
            }),
        }
    }

    /// The file and its bookkeeping. Nothing that runs under this lock can
    /// panic (it is I/O calls that return their errors, and additions to a
    /// byte count), so the mutex is never poisoned.
    fn io(&self) -> MutexGuard<'_, WalIo> {
        self.io.lock().expect("wal io mutex is never poisoned")
    }

    /// Creates (or truncates) a log at `path`.
    ///
    /// In [`DurabilityMode::Fsync`] the parent directory is fsynced so
    /// the log's directory entry is durable before any record is — a
    /// machine crash must not surface a directory where a snapshot
    /// rename is visible but the log it licensed truncating is not.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file or syncing the directory.
    pub fn create(path: impl Into<PathBuf>, mode: DurabilityMode) -> io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        if mode == DurabilityMode::Fsync {
            sync_parent_dir(&path)?;
        }
        Ok(Wal::with_file(path, mode, file, 0))
    }

    /// Opens an existing log for appending: scans it, truncates any torn
    /// or corrupt tail, and positions writes after the valid prefix. A
    /// missing file starts as an empty log — the same semantics as
    /// [`scan`] — so a node can resume from a directory whose WAL was
    /// reset or never created.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, scanning or truncating the file.
    pub fn open_append(path: impl Into<PathBuf>, mode: DurabilityMode) -> io::Result<Wal> {
        let path = path.into();
        let scanned = scan(&path)?;
        // `truncate(false)`: the valid prefix must survive the open —
        // only the torn tail is cut, by the `set_len` below.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        file.set_len(scanned.valid_len)?;
        file.seek(SeekFrom::Start(scanned.valid_len))?;
        Ok(Wal::with_file(path, mode, file, scanned.valid_len))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Bytes written to the OS so far (diagnostics/tests).
    pub fn written_len(&self) -> u64 {
        self.io().written
    }

    /// Fault injection (the [`crate::faultsim`] companion for *live* I/O
    /// failures): the next `after` calls to [`Wal::seal_block`] succeed,
    /// and every call after that fails with an injected I/O error —
    /// deterministically simulating a disk that goes away mid-run, where
    /// [`crate::faultsim::kill_at`] simulates the on-disk aftermath of a
    /// crash. A failed seal leaves the file at its last good length,
    /// exactly like a real one.
    pub fn inject_seal_failures(&self, after: u64) {
        self.io().seals_until_failure = Some(after);
    }

    /// Seals a block: writes its frame in one write (plus one
    /// `fdatasync` in [`DurabilityMode::Fsync`]).
    ///
    /// On an I/O error the file is rolled back to the last known-good
    /// length, so a partial write never sits inside the valid prefix. The
    /// frame is not kept for a retry: no caller seals again on a log that
    /// failed (the seal worker stops, the inline path stales the node, and
    /// recovery opens a fresh `Wal`).
    ///
    /// # Errors
    ///
    /// Any I/O error writing or syncing the file.
    pub fn seal_block(&self, block: &Block) -> io::Result<()> {
        let frame = seal_frame(block);
        let io = &mut *self.io();
        if let Some(remaining) = &mut io.seals_until_failure {
            if *remaining == 0 {
                return Err(io::Error::other("injected seal failure (faultsim)"));
            }
            *remaining -= 1;
        }
        if let Err(e) = io.file.write_all(&frame) {
            let _ = io.file.set_len(io.written);
            let _ = io.file.seek(SeekFrom::Start(io.written));
            return Err(e);
        }
        io.written += frame.len() as u64;
        if self.mode == DurabilityMode::Fsync {
            io.file.sync_data()?;
        }
        Ok(())
    }

    /// Discards all log contents (called right after a snapshot is
    /// durably written: everything up to the snapshot height is now
    /// recoverable from the snapshot alone — the WAL's GC policy).
    ///
    /// # Errors
    ///
    /// Any I/O error truncating the file.
    pub fn reset(&self) -> io::Result<()> {
        let mut io = self.io();
        io.file.set_len(0)?;
        io.file.seek(SeekFrom::Start(0))?;
        io.written = 0;
        if self.mode == DurabilityMode::Fsync {
            io.file.sync_data()?;
        }
        Ok(())
    }
}

/// The result of scanning a log file: the sealed blocks of the valid
/// prefix and where that prefix ends.
#[derive(Debug)]
pub struct WalScan {
    /// Sealed blocks of the valid prefix, in log order.
    pub blocks: Vec<Block>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Total file length as read.
    pub total_len: u64,
}

impl WalScan {
    /// Whether the file carried a torn or corrupt tail past the valid
    /// prefix.
    pub fn torn(&self) -> bool {
        self.valid_len < self.total_len
    }
}

/// Scans the log at `path`, decoding seals until the first torn,
/// truncated or corrupt frame. A missing file is an empty (not an
/// errored) log, so a node can recover from a directory whose WAL was
/// never created.
///
/// # Errors
///
/// Any I/O error reading the file.
pub fn scan(path: &Path) -> io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let total_len = bytes.len() as u64;
    let mut blocks = Vec::new();
    let mut offset = 0usize;
    // A torn frame header (or clean EOF at an empty rest) ends the scan.
    while let Some((len, rest)) = bytes[offset..].split_first_chunk::<4>() {
        let Some((stored, rest)) = rest.split_first_chunk::<8>() else {
            break;
        };
        let (len, stored) = (
            u32::from_le_bytes(*len) as usize,
            u64::from_le_bytes(*stored),
        );
        let Some(payload) = rest.get(..len) else {
            break; // torn payload
        };
        if fnv1a(payload) != stored {
            break; // corrupt payload
        }
        let Ok(record) = decode_record(payload) else {
            break; // checksummed garbage (e.g. written by a newer version)
        };
        blocks.extend(record);
        offset += 12 + len;
    }
    Ok(WalScan {
        blocks,
        valid_len: offset as u64,
        total_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use cc_primitives::hash::Hash256;
    use cc_vm::{Address, ArgValue, CallData};

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cc-wal-test-{}-{tag}.log", std::process::id()));
        p
    }

    fn sample_block(number: u64, parent: Hash256) -> Block {
        let tx = Transaction::new(
            number,
            Address::from_index(number),
            Address::from_name("Ballot"),
            CallData::new("vote", vec![ArgValue::Uint(0)]),
            100_000,
        );
        Block::build(parent, number, vec![tx], Vec::new(), Hash256::ZERO, None)
    }

    /// Frames a record in the legacy transaction-record layout: the tag,
    /// the `u64` fields (`txn_id` first), then `tail`.
    fn push_legacy(buf: &mut Vec<u8>, tag: u8, fields: &[u64], tail: &[u8]) {
        let mut payload = vec![tag];
        for field in fields {
            payload.extend_from_slice(&field.to_le_bytes());
        }
        payload.extend_from_slice(tail);
        push_frame(buf, &payload);
    }

    #[test]
    fn legacy_transaction_records_are_skipped() {
        // What an earlier version wrote for one block: a begin, one op
        // (txn, space, key, mode) and a commit record, the seal, then an
        // abort of the next block's first attempt.
        let path = temp_path("legacy");
        let b1 = sample_block(1, Hash256::ZERO);
        let mut log = Vec::new();
        push_legacy(&mut log, 1, &[7], &[]);
        push_legacy(&mut log, 2, &[7, 3, 9], &[2]);
        push_legacy(&mut log, 3, &[7], &[]);
        log.extend_from_slice(&seal_frame(&b1));
        push_legacy(&mut log, 4, &[8], &[]);
        std::fs::write(&path, &log).unwrap();

        let wal = Wal::open_append(&path, DurabilityMode::Buffered).unwrap();
        assert_eq!(wal.written_len(), log.len() as u64, "nothing truncated");
        let b2 = sample_block(2, b1.hash());
        wal.seal_block(&b2).unwrap();
        drop(wal);

        let scanned = scan(&path).unwrap();
        assert!(!scanned.torn());
        assert_eq!(scanned.blocks, vec![b1, b2]);

        // Any other tag is still the end of the valid prefix.
        let valid = std::fs::read(&path).unwrap();
        let mut unknown = valid.clone();
        push_legacy(&mut unknown, 9, &[1], &[]);
        std::fs::write(&path, &unknown).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.valid_len, valid.len() as u64);
        assert_eq!(scanned.blocks.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let path = temp_path("torn");
        let wal = Wal::create(&path, DurabilityMode::Fsync).unwrap();
        let b1 = sample_block(1, Hash256::ZERO);
        wal.seal_block(&b1).unwrap();
        let cut = wal.written_len();
        let b2 = sample_block(2, b1.hash());
        wal.seal_block(&b2).unwrap();
        drop(wal);

        let full = std::fs::read(&path).unwrap();

        // Truncate mid-second-frame: only block 1 survives.
        for offset in [cut + 1, cut + 11, full.len() as u64 - 1] {
            std::fs::write(&path, &full[..offset as usize]).unwrap();
            let scanned = scan(&path).unwrap();
            assert!(scanned.torn());
            assert_eq!(scanned.valid_len, cut);
            assert_eq!(scanned.blocks.len(), 1);
        }

        // Corrupt a payload byte of the second frame: same outcome.
        let mut corrupt = full.clone();
        let idx = cut as usize + 13;
        corrupt[idx] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.valid_len, cut);

        // Corruption in the *first* frame drops everything, including the
        // still-intact second frame: prefix semantics.
        let mut corrupt = full.clone();
        corrupt[13] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.valid_len, 0);
        assert!(scanned.blocks.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_torn_tail_and_continues() {
        let path = temp_path("append");
        let wal = Wal::create(&path, DurabilityMode::Buffered).unwrap();
        let b1 = sample_block(1, Hash256::ZERO);
        wal.seal_block(&b1).unwrap();
        let cut = wal.written_len();
        let b2 = sample_block(2, b1.hash());
        wal.seal_block(&b2).unwrap();
        drop(wal);

        // Simulate a crash mid-write of block 2's frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..cut as usize + 5]).unwrap();

        let wal = Wal::open_append(&path, DurabilityMode::Buffered).unwrap();
        assert_eq!(wal.written_len(), cut, "torn tail truncated");
        wal.seal_block(&b2).unwrap();
        drop(wal);

        let scanned = scan(&path).unwrap();
        assert!(!scanned.torn());
        let sealed: Vec<u64> = scanned.blocks.iter().map(|b| b.header.number).collect();
        assert_eq!(sealed, vec![1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_starts_empty_on_missing_file() {
        // A directory can hold a valid snapshot but no wal.log (the WAL
        // was reset and the file later removed, or never created);
        // reopening must start an empty log, matching scan()'s semantics.
        let path = temp_path("open-append-missing");
        std::fs::remove_file(&path).ok();
        let wal = Wal::open_append(&path, DurabilityMode::Buffered).unwrap();
        assert_eq!(wal.written_len(), 0);
        let block = sample_block(1, Hash256::ZERO);
        wal.seal_block(&block).unwrap();
        drop(wal);

        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.blocks.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_empty() {
        let path = temp_path("missing-never-created");
        std::fs::remove_file(&path).ok();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.total_len, 0);
        assert!(!scanned.torn());
        assert!(scanned.blocks.is_empty());
    }

    #[test]
    fn reset_discards_everything() {
        let path = temp_path("reset");
        let wal = Wal::create(&path, DurabilityMode::Buffered).unwrap();
        wal.seal_block(&sample_block(1, Hash256::ZERO)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.written_len(), 0);
        let scanned = scan(&path).unwrap();
        assert!(scanned.blocks.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
