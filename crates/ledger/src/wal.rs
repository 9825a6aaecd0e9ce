//! The checksummed, length-prefixed write-ahead log of sealed blocks.
//!
//! The log holds one record kind, the **block seal**: one frame per
//! appended block, written in a single `write` (plus one `fdatasync` in
//! [`DurabilityMode::Fsync`]) when the block seals. The block — its
//! transactions plus the published schedule — is the unit recovery
//! re-executes, so nothing finer is logged: a transaction's effects exist
//! durably only inside a sealed block.
//!
//! # Layout (format 2)
//!
//! All integers are little-endian.
//!
//! ```text
//!   header:  [4: u32][magic "cc-wal\0\0": 8 bytes][version = 2: u32]      16 bytes
//!   frame:   [len: u32][checksum: u64][tag = 5: u8][Block::encode bytes]
//! ```
//!
//! `checksum` is [`checksum64`] over the `len` payload bytes (the tag and
//! the block), the only checksum a seal carries. The header is shaped
//! like a frame — length 4, the magic in the checksum slot, the version
//! as its payload — so the file is a sequence of frames from its first
//! byte. It goes out in the same write as the first seal after
//! [`Wal::create`] or [`Wal::reset`], so a log that holds no seal is zero
//! bytes long.
//!
//! # Reading
//!
//! Recovery semantics are *prefix* semantics: [`scan`] walks frames from
//! the header and stops at the first torn, truncated or corrupt frame.
//! Everything before that point is the valid prefix; everything after —
//! even well-formed frames beyond a corrupt one — is dropped. A crash
//! mid-block loses at most the unsealed block being built. A frame whose
//! checksum matches but whose payload does not decode is no crash's
//! work: it is an error, and the log is left as it is. A zero-length
//! file, or one holding only a prefix of the header (a crash inside the
//! first write after `create` or `reset`), is an empty log. A file that
//! opens with anything else — a format-1 log among them — is refused with
//! a [`VersionError`]: it is never scanned as torn and never truncated.

use crate::block::Block;
use crate::format::VersionError;
use cc_primitives::checksum::checksum64;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
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

/// The magic in the header's checksum slot.
const MAGIC: [u8; 8] = *b"cc-wal\0\0";

/// Bytes of a frame before its payload: the length and the checksum.
const FRAME_HEAD: usize = 12;

/// The file header (see the [module docs](self)): length 4, [`MAGIC`],
/// [`FORMAT_VERSION`].
const HEADER: [u8; 16] = *b"\x04\0\0\0cc-wal\0\0\x02\0\0\0";

/// Record tag (first payload byte) of a block seal.
const TAG_BLOCK_SEAL: u8 = 5;

/// Decodes one checksummed payload into its sealed block.
fn decode_record(payload: &[u8]) -> Result<Block, DecodeError> {
    let mut dec = Decoder::new(payload);
    if dec.get_u8()? != TAG_BLOCK_SEAL {
        return Err(DecodeError {
            context: "unknown WAL record tag",
        });
    }
    let block = Block::decode(&mut dec)?;
    if !dec.is_empty() {
        return Err(DecodeError {
            context: "trailing bytes in WAL record",
        });
    }
    Ok(block)
}

/// Encodes `block`'s seal frame into `frame` (cleared first), after the
/// file header when the frame `opens_file`.
fn encode_seal(frame: &mut Encoder, block: &Block, opens_file: bool) {
    frame.clear();
    if opens_file {
        frame.put_raw(&HEADER);
    }
    let at = frame.len();
    frame.put_raw(&[0; FRAME_HEAD]);
    frame.put_u8(TAG_BLOCK_SEAL);
    block.encode(frame);
    let (head, payload) = frame.as_mut_slice()[at..].split_at_mut(FRAME_HEAD);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
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
    /// mid-write). Zero means the next seal writes the header first.
    written: u64,
    /// The seal frame being written, kept so every seal reuses one
    /// allocation.
    frame: Encoder,
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
                frame: Encoder::new(),
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
    /// Any I/O error opening, scanning or truncating the file, and
    /// [`scan`]'s refusals (a file in another format, a checksummed frame
    /// that does not decode), which leave the file as it is.
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
        let io = &mut *self.io();
        if let Some(remaining) = &mut io.seals_until_failure {
            if *remaining == 0 {
                return Err(io::Error::other("injected seal failure (faultsim)"));
            }
            *remaining -= 1;
        }
        encode_seal(&mut io.frame, block, io.written == 0);
        if let Err(e) = io.file.write_all(io.frame.as_slice()) {
            let _ = io.file.set_len(io.written);
            let _ = io.file.seek(SeekFrom::Start(io.written));
            return Err(e);
        }
        io.written += io.frame.len() as u64;
        if self.mode == DurabilityMode::Fsync {
            io.file.sync_data()?;
        }
        Ok(())
    }

    /// Discards all log contents, header included (called right after a
    /// snapshot is durably written: everything up to the snapshot height
    /// is now recoverable from the snapshot alone — the WAL's GC policy).
    /// The next seal writes the header again.
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
    /// Sealed blocks of the valid prefix, in log order. Their
    /// commitments are checked where they are appended
    /// (`Blockchain::append`, in [`crate::recover`]).
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
/// Any I/O error reading the file; a [`VersionError`] (see
/// [`VersionError::in_io`]) for a file that is neither empty, nor a prefix
/// of the format-2 header, nor opened by it; and an
/// [`io::ErrorKind::InvalidData`] error naming the offset of a frame whose
/// checksum matches but whose payload does not decode.
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
    let mut offset = if bytes.len() < HEADER.len() && HEADER.starts_with(&bytes) {
        0 // nothing, or a torn first write after `create` or `reset`
    } else {
        let rest = bytes.strip_prefix(&HEADER[..4]).unwrap_or_default();
        VersionError::strip("write-ahead log", &MAGIC, rest)?;
        HEADER.len()
    };
    let mut blocks = Vec::new();
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
        if checksum64(payload) != stored {
            break; // corrupt payload
        }
        // A crash cannot checksum a frame it did not finish: one that
        // does not decode was written that way, and what follows it is
        // not a torn tail to cut.
        let block = decode_record(payload).map_err(|e| {
            let frame = format!("write-ahead log frame at offset {offset}");
            let why = format!("{frame} is checksummed but does not decode: {e}");
            io::Error::new(io::ErrorKind::InvalidData, why)
        })?;
        blocks.push(block);
        offset += FRAME_HEAD + len;
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

    #[test]
    fn the_header_is_a_frame_naming_the_format() {
        assert_eq!(HEADER[..4], 4u32.to_le_bytes());
        assert_eq!(HEADER[4..12], MAGIC);
        assert_eq!(HEADER[12..], crate::FORMAT_VERSION.to_le_bytes());
    }

    #[test]
    fn the_header_goes_out_with_the_first_seal() {
        let path = temp_path("header");
        let wal = Wal::create(&path, DurabilityMode::Buffered).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"", "no seal, no bytes");
        let b1 = sample_block(1, Hash256::ZERO);
        wal.seal_block(&b1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..16], HEADER);
        let mut plain = Encoder::new();
        b1.encode(&mut plain);
        assert_eq!(bytes.len(), 16 + FRAME_HEAD + 1 + plain.len());
        assert_eq!(bytes[FRAME_HEAD + 17..], *plain.as_slice());
        wal.reset().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        wal.seal_block(&b1).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "reset writes it again"
        );
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
            assert_eq!(scanned.blocks, std::slice::from_ref(&b1));
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
        corrupt[HEADER.len() + 13] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.valid_len, HEADER.len() as u64);
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
        assert_eq!(scanned.blocks, [b1, b2]);
        std::fs::remove_file(&path).ok();
    }

    /// A crash tears or cuts a frame; it cannot write one whose checksum
    /// matches but whose payload does not decode. Such a frame is an
    /// error, not a torn tail: `open_append` refuses the log and cuts
    /// none of the honest frames after it.
    #[test]
    fn a_checksummed_frame_that_does_not_decode_is_an_error() {
        let path = temp_path("undecodable");
        let wal = Wal::create(&path, DurabilityMode::Buffered).unwrap();
        let b1 = sample_block(1, Hash256::ZERO);
        wal.seal_block(&b1).unwrap();
        let at = wal.written_len();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let unknown = [TAG_BLOCK_SEAL + 1, 0, 0];
        bytes.extend_from_slice(&(unknown.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum64(&unknown).to_le_bytes());
        bytes.extend_from_slice(&unknown);
        let mut honest = Encoder::new();
        encode_seal(&mut honest, &sample_block(2, b1.hash()), false);
        bytes.extend_from_slice(honest.as_slice());
        std::fs::write(&path, &bytes).unwrap();

        let err = scan(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("offset {at}")), "{err}");
        assert!(Wal::open_append(&path, DurabilityMode::Buffered).is_err());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            bytes.len() as u64,
            "a refused log is left as it was"
        );
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
