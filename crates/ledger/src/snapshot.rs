//! Durable checkpoints: the chain anchor recovery starts from.
//!
//! A checkpoint file freezes what recovery consumes at one block height:
//! the height, the head hash, the head's `state_root`, and the chain up
//! to and including that block. It holds **no world image**: contracts
//! are native code, so recovery rebuilds the world by replaying the chain
//! from the caller's genesis world, and every replayed block is checked
//! against the SHA-256 `state_root` in its header — a commitment over
//! exactly the field list a world image would be built from. The node
//! therefore writes the image slot of the file empty, and a checkpoint
//! costs O(chain prefix), never O(world). [`write_checkpoint`] writes one
//! straight from the node's chain, copying no block.
//!
//! # Layout (format 2)
//!
//! All integers are little-endian.
//!
//! ```text
//!   [magic "cc-ckpt\0": 8 bytes][version = 2: u32][checksum: u64]
//!   [height: u64][head hash: 32][state root: 32][block count: u64]
//!   [Block::encode bytes] × block count
//!   [image length: u64][image bytes]
//! ```
//!
//! `checksum` is one [`checksum64`] over everything after it; the blocks
//! carry no checksum of their own, and their commitments are checked
//! where recovery appends them (`Blockchain::append`). A file that does
//! not open with the format-2 magic and version — a format-1 file among
//! them — is refused with [`SnapshotError::Version`]. The image slot
//! stays in the layout, but a file whose image is not empty is refused
//! with [`SnapshotError::WorldImage`]: nothing decodes an image, and the
//! node has written none since it began checkpointing the root.
//!
//! Files are named `snapshot-<height>.snap`, written to a temporary
//! name, atomically renamed into place (with a directory fsync so the
//! rename itself is durable). [`load_latest`] skips any file that fails
//! its checksum, its decode or its consistency check, and falls back to
//! the next-highest height.
//!
//! Writing a checkpoint is the WAL's garbage-collection point: once
//! `snapshot-<h>.snap` is durable, every WAL record at height ≤ `h` is
//! redundant and the log is reset. A crash between the rename and the
//! reset is benign — recovery skips sealed blocks at or below the
//! checkpoint height. After the reset [`prune`] removes every checkpoint
//! above the new one, every one below the [`KEPT_CHECKPOINTS`] highest
//! and every stale temporary file, so the directory holds a constant
//! number of files, all of them from the node's own chain.

use crate::block::Block;
use crate::chain::Blockchain;
use crate::format::{VersionError, FORMAT_VERSION};
use cc_primitives::checksum::checksum64;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::hash::Hash256;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The magic a checkpoint file opens with.
const MAGIC: [u8; 8] = *b"cc-ckpt\0";

/// Bytes before the checksummed payload: the magic, the version and the
/// checksum.
const HEAD: usize = 20;

/// A decoded checkpoint: the chain anchor at `height`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Block number of the chain head this snapshot captures.
    pub height: u64,
    /// Hash of that head block.
    pub block_hash: Hash256,
    /// State root after executing the chain through `height`.
    pub state_root: Hash256,
    /// The full chain, genesis first, through `height`.
    pub blocks: Vec<Block>,
    /// The world-image slot of the file format. The node writes it
    /// empty, and [`SnapshotFile::from_bytes`] refuses a file where it is
    /// not: `state_root` is the commitment a replayed world is held to.
    /// Only the node benchmark's write probe still fills it.
    pub world_bytes: Vec<u8>,
}

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not open with the format-2 header.
    Version(VersionError),
    /// The whole-file checksum did not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The payload failed structural decoding.
    Decode(DecodeError),
    /// The decoded fields disagree with each other (e.g. the recorded
    /// head hash is not the hash of the last block).
    Inconsistent,
    /// The file carries a world image, which no reader decodes.
    WorldImage,
    /// The file could not be read or written.
    Io(io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Version(e) => e.fmt(f),
            SnapshotError::ChecksumMismatch { stored, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, actual {actual:#018x}"
            ),
            SnapshotError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
            SnapshotError::Inconsistent => f.write_str("snapshot fields are mutually inconsistent"),
            SnapshotError::WorldImage => f.write_str("checkpoint carries a world image"),
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Version(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The checkpoint bytes of the chain prefix `blocks` anchored at
/// `(height, head hash, state root)` (see the [module docs](self) for
/// the layout).
fn encode<'a>(
    (height, block_hash, state_root): (u64, Hash256, Hash256),
    blocks: impl ExactSizeIterator<Item = &'a Block>,
    world_bytes: &[u8],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(&MAGIC);
    enc.put_u32(FORMAT_VERSION);
    enc.put_u64(0);
    enc.put_u64(height);
    enc.put_raw(block_hash.as_bytes());
    enc.put_raw(state_root.as_bytes());
    enc.put_u64(blocks.len() as u64);
    for block in blocks {
        block.encode(&mut enc);
    }
    enc.put_bytes(world_bytes);
    let (head, payload) = enc.as_mut_slice().split_at_mut(HEAD);
    head[HEAD - 8..].copy_from_slice(&checksum64(payload).to_le_bytes());
    enc.into_bytes()
}

/// Writes the bytes of the checkpoint at `height` into `dir` as
/// `snapshot-<height>.snap`, atomically (temporary file + rename),
/// fsyncing the file before the rename and the directory after it.
///
/// The directory fsync is what makes the rename itself durable: the
/// caller's next step is to truncate the WAL (the snapshot is the log's
/// GC point), and without it a machine crash could persist the
/// truncation while the rename's directory entry is lost — recovery
/// would then anchor on an older snapshot with an empty log, losing
/// sealed blocks.
fn write_file(dir: &Path, height: u64, bytes: &[u8]) -> Result<PathBuf, SnapshotError> {
    let final_path = dir.join(SnapshotFile::file_name(height));
    let tmp_path = dir.join(format!(".{}.tmp", SnapshotFile::file_name(height)));
    {
        let mut file = fs::File::create(&tmp_path)?;
        use std::io::Write;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    fs::File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Writes the checkpoint at `chain`'s head into `dir` — the whole chain
/// and the head's state root, no world image — encoding each block
/// straight from the chain. Returns once the file is durably visible
/// under its final name (see [`SnapshotFile::write_to`]).
///
/// # Errors
///
/// Any I/O error writing, syncing or renaming.
pub fn write_checkpoint(dir: &Path, chain: &Blockchain) -> Result<PathBuf, SnapshotError> {
    let head = chain.head();
    let anchor = (head.header.number, head.hash(), head.header.state_root);
    write_file(dir, anchor.0, &encode(anchor, chain.iter(), &[]))
}

impl SnapshotFile {
    /// File name for a snapshot at `height`.
    pub fn file_name(height: u64) -> String {
        format!("snapshot-{height}.snap")
    }

    /// The height named by a checkpoint file name (the inverse of
    /// [`SnapshotFile::file_name`]); `None` for any other name.
    fn height_of(name: &str) -> Option<u64> {
        name.strip_prefix("snapshot-")?
            .strip_suffix(".snap")?
            .parse()
            .ok()
    }

    /// Serializes the snapshot in the format-2 layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let anchor = (self.height, self.block_hash, self.state_root);
        encode(anchor, self.blocks.iter(), &self.world_bytes)
    }

    /// Parses and validates bytes written by [`SnapshotFile::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a header other than format 2's, checksum
    /// mismatch, decode failure, a non-empty world image, or mutually
    /// inconsistent fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
        let rest =
            VersionError::strip("checkpoint", &MAGIC, bytes).map_err(SnapshotError::Version)?;
        let (stored, payload) = rest.split_first_chunk().ok_or(DecodeError {
            context: "checkpoint checksum",
        })?;
        let (stored, actual) = (u64::from_le_bytes(*stored), checksum64(payload));
        if stored != actual {
            return Err(SnapshotError::ChecksumMismatch { stored, actual });
        }
        let mut dec = Decoder::new(payload);
        let snapshot = SnapshotFile {
            height: dec.get_u64()?,
            block_hash: Hash256(dec.get_array()?),
            state_root: Hash256(dec.get_array()?),
            blocks: dec.get_vec(Block::decode)?,
            world_bytes: dec.get_bytes()?,
        };
        if !dec.is_empty() {
            return Err(SnapshotError::Decode(DecodeError {
                context: "trailing bytes after snapshot",
            }));
        }
        // Refused here, where the loader can still fall back to an older
        // file, as it does for any damage.
        if !snapshot.world_bytes.is_empty() {
            return Err(SnapshotError::WorldImage);
        }
        if !snapshot.is_consistent() {
            return Err(SnapshotError::Inconsistent);
        }
        Ok(snapshot)
    }

    /// Whether the recorded height, head hash and state root agree with
    /// the embedded chain.
    fn is_consistent(&self) -> bool {
        let Some(head) = self.blocks.last() else {
            return false;
        };
        head.header.number == self.height
            && head.hash() == self.block_hash
            && head.header.state_root == self.state_root
            && self.blocks.first().map(|g| g.header.number) == Some(0)
    }

    /// Writes the snapshot into `dir` as `snapshot-<height>.snap`,
    /// atomically (temporary file + rename), fsyncing the file before
    /// the rename and the directory after it. Returning from this method
    /// guarantees the snapshot is durably visible under its final name.
    ///
    /// # Errors
    ///
    /// Any I/O error writing, syncing or renaming.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        write_file(dir, self.height, &self.to_bytes())
    }

    /// Loads and validates one snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on I/O failure or any validation failure from
    /// [`SnapshotFile::from_bytes`].
    pub fn load(path: &Path) -> Result<SnapshotFile, SnapshotError> {
        SnapshotFile::from_bytes(&fs::read(path)?)
    }
}

/// Heights of the checkpoint files in `dir`, ascending, and the names of
/// the temporary files (`.snapshot-*.snap.tmp`) left by writes that never
/// reached their rename.
fn list(dir: &Path) -> io::Result<(Vec<u64>, Vec<String>)> {
    let mut heights = Vec::new();
    let mut temporaries = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(height) = SnapshotFile::height_of(name) {
            heights.push(height);
        } else if name.starts_with(".snapshot-") && name.ends_with(".snap.tmp") {
            temporaries.push(name.to_owned());
        }
    }
    heights.sort_unstable();
    Ok((heights, temporaries))
}

/// Finds and loads the highest-height **valid** snapshot in `dir`.
/// Corrupt or undecodable snapshot files are skipped, not fatal — the
/// next-highest valid snapshot wins. Returns `Ok(None)` when the
/// directory holds no checkpoint file, or none that loads.
///
/// # Errors
///
/// Directory-listing I/O errors, and — when no file loads and one of
/// them was refused by its header — that file's [`VersionError`] (see
/// [`VersionError::in_io`]), so a directory written in another format
/// says so rather than looking empty.
pub fn load_latest(dir: &Path) -> io::Result<Option<SnapshotFile>> {
    let (heights, _) = list(dir)?;
    let mut refused = None;
    for height in heights.into_iter().rev() {
        match SnapshotFile::load(&dir.join(SnapshotFile::file_name(height))) {
            Ok(snapshot) => return Ok(Some(snapshot)),
            Err(SnapshotError::Version(e)) => {
                refused.get_or_insert(e);
            }
            Err(_) => {}
        }
    }
    refused.map_or(Ok(None), |e| Err(e.into()))
}

/// How many checkpoint files [`prune`] keeps: the newest, plus the one
/// [`load_latest`] falls back to should the newest rot on disk.
pub const KEPT_CHECKPOINTS: usize = 2;

/// Prunes `dir` after a checkpoint at `height`: deletes every checkpoint
/// file above `height`, every one below the [`KEPT_CHECKPOINTS`] highest
/// at or below it, and every temporary file a write that died between
/// create and rename left behind. Call it once the checkpoint at `height`
/// is durably renamed and the WAL reset: each checkpoint embeds the whole
/// chain prefix, so nothing below it is ever read again — and nothing
/// above it belongs to this chain (a node built over a used directory
/// must not leave another history's higher checkpoint in charge of
/// recovery). At a barrier of a node that owns its directory there is
/// nothing above `height`.
///
/// # Errors
///
/// The directory-listing error, or the first failed unlink (every other
/// file is still attempted). Neither costs durability — the files are
/// redundant — so a caller may ignore the error; the next call retries.
pub fn prune(dir: &Path, height: u64) -> io::Result<()> {
    let (heights, temporaries) = list(dir)?;
    let (at_or_below, above) = heights.split_at(heights.partition_point(|&h| h <= height));
    let doomed = at_or_below[..at_or_below.len().saturating_sub(KEPT_CHECKPOINTS)]
        .iter()
        .chain(above)
        .map(|&h| SnapshotFile::file_name(h))
        .chain(temporaries);
    let mut outcome = Ok(());
    for name in doomed {
        if let Err(e) = fs::remove_file(dir.join(name)) {
            outcome = outcome.and(Err(e));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use cc_vm::{Address, ArgValue, CallData, ContractSnapshot, FieldSnapshot, WorldSnapshot};

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cc-snap-test-{}-{tag}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn chain_of(len: u64) -> Vec<Block> {
        let mut blocks = vec![Block::build(
            Hash256::ZERO,
            0,
            Vec::new(),
            Vec::new(),
            Hash256::ZERO,
            None,
        )];
        for n in 1..len {
            let tx = Transaction::new(
                n,
                Address::from_index(n),
                Address::from_name("Ballot"),
                CallData::new("vote", vec![ArgValue::Uint(0)]),
                100_000,
            );
            let parent = blocks.last().unwrap().hash();
            blocks.push(Block::build(
                parent,
                n,
                vec![tx],
                Vec::new(),
                Hash256::ZERO,
                None,
            ));
        }
        blocks
    }

    fn sample(len: u64) -> SnapshotFile {
        let blocks = chain_of(len);
        let head = blocks.last().unwrap();
        SnapshotFile {
            height: head.header.number,
            block_hash: head.hash(),
            state_root: head.header.state_root,
            blocks,
            world_bytes: Vec::new(),
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample(3);
        let decoded = SnapshotFile::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn corruption_is_rejected_not_fatal() {
        let snap = sample(2);
        let bytes = snap.to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                SnapshotFile::from_bytes(&corrupt).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn inconsistent_fields_are_rejected() {
        let mut snap = sample(2);
        snap.height += 1; // no longer the head's number
        let bytes = snap.to_bytes(); // checksum over the *lying* payload
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Inconsistent)
        ));
    }

    #[test]
    fn load_latest_picks_highest_valid_and_skips_corrupt() {
        let dir = temp_dir("latest");
        sample(2).write_to(&dir).unwrap();
        let high = sample(4);
        let path = high.write_to(&dir).unwrap();
        // Corrupt the highest snapshot: loader must fall back to height 1.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let loaded = load_latest(&dir).unwrap().expect("fallback snapshot");
        assert_eq!(loaded.height, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_skips_a_snapshot_with_non_canonical_world_bytes() {
        let dir = temp_dir("noncanonical");
        sample(2).write_to(&dir).unwrap();
        // A well-checksummed, well-formed file whose world bytes list the
        // same field entries in descending key order: a second byte
        // string for the same logical world.
        let mut high = sample(4);
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_str("Ballot");
        enc.put_raw(Address::from_name("Ballot").as_bytes());
        enc.put_u64(1);
        enc.put_str("Ballot.votes");
        enc.put_u64(2);
        for (key, value) in [(2u64, 7u64), (1, 4)] {
            enc.put_bytes(&key.to_le_bytes());
            enc.put_bytes(&value.to_le_bytes());
        }
        high.world_bytes = enc.into_bytes();
        assert!(matches!(
            SnapshotFile::from_bytes(&high.to_bytes()),
            Err(SnapshotError::WorldImage)
        ));
        high.write_to(&dir).unwrap();

        let loaded = load_latest(&dir).unwrap().expect("fallback snapshot");
        assert_eq!(loaded.height, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_with_a_canonical_image_is_refused_and_skipped() {
        let dir = temp_dir("image");
        sample(2).write_to(&dir).unwrap();
        let mut high = sample(4);
        high.world_bytes = WorldSnapshot::new(vec![ContractSnapshot::new(
            "Ballot",
            Address::from_name("Ballot"),
            vec![FieldSnapshot::from_typed(
                "Ballot.votes",
                vec![(1u64, 4u64)],
            )],
        )])
        .to_bytes();
        let path = high.write_to(&dir).unwrap();
        assert!(matches!(
            SnapshotFile::load(&path),
            Err(SnapshotError::WorldImage)
        ));
        assert_eq!(load_latest(&dir).unwrap().expect("fallback").height, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_without_an_image_roundtrips() {
        let mut snap = sample(3);
        snap.world_bytes.clear();
        let decoded = SnapshotFile::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn prune_keeps_the_two_highest_and_sweeps_temporaries() {
        let dir = temp_dir("prune");
        for len in [1, 3, 10, 11] {
            sample(len).write_to(&dir).unwrap();
        }
        fs::write(dir.join(".snapshot-7.snap.tmp"), b"torn").unwrap();
        fs::write(dir.join("wal.log"), b"not ours").unwrap();
        fs::write(dir.join("snapshot-7.snap.bak"), b"not ours either").unwrap();
        prune(&dir, 10).unwrap();
        // Highest by height, not by name: 9 and 10, not 2 and 9.
        assert_eq!(
            names_in(&dir),
            [
                "snapshot-10.snap",
                "snapshot-7.snap.bak",
                "snapshot-9.snap",
                "wal.log"
            ]
        );
        assert_eq!(load_latest(&dir).unwrap().unwrap().height, 10);
        // Nothing left to do: pruning again is a no-op.
        prune(&dir, 10).unwrap();
        assert_eq!(names_in(&dir).len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_deletes_every_checkpoint_above_the_one_just_written() {
        // Another history's checkpoints at 2 and 9 outrank a fresh
        // genesis checkpoint; pruning after it deletes both.
        let dir = temp_dir("prune-above");
        for len in [3, 10, 1] {
            sample(len).write_to(&dir).unwrap();
        }
        prune(&dir, 0).unwrap();
        assert_eq!(names_in(&dir), ["snapshot-0.snap"]);
        assert_eq!(load_latest(&dir).unwrap().unwrap().height, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_reports_a_failed_unlink_and_still_removes_the_rest() {
        let dir = temp_dir("prune-fail");
        // A directory under a checkpoint's name cannot be unlinked.
        fs::create_dir_all(dir.join(SnapshotFile::file_name(0))).unwrap();
        for len in [2, 3, 4] {
            sample(len).write_to(&dir).unwrap();
        }
        assert!(prune(&dir, 3).is_err());
        assert_eq!(
            names_in(&dir),
            ["snapshot-0.snap", "snapshot-2.snap", "snapshot-3.snap"]
        );
        assert_eq!(load_latest(&dir).unwrap().unwrap().height, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_empty_dir_is_none() {
        let dir = temp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
