//! Blocks and block headers.

use crate::schedule_meta::ScheduleMetadata;
use crate::tx::{transactions_root, Transaction};
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::fnv::fnv1a;
use cc_primitives::hash::{sha256, Hash256};
use cc_vm::Receipt;
use std::fmt;

/// Why a serialized block was rejected on deserialization.
///
/// Corruption on disk or on the wire must surface as a typed error, never
/// a panic: the WAL recovery path feeds arbitrary (possibly torn) bytes
/// through [`Block::from_checked_bytes`] and decides what to do from the
/// variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockCodecError {
    /// The FNV-64 checksum over the payload did not match: the bytes were
    /// corrupted after serialization.
    ChecksumMismatch {
        /// Checksum stored alongside the payload.
        stored: u64,
        /// Checksum recomputed over the payload actually read.
        actual: u64,
    },
    /// The payload was truncated or structurally malformed.
    Decode(DecodeError),
    /// The bytes decoded cleanly but the header commitments do not match
    /// the body (`Block::is_well_formed` failed) — a forged or internally
    /// inconsistent block.
    Inconsistent,
}

impl fmt::Display for BlockCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockCodecError::ChecksumMismatch { stored, actual } => write!(
                f,
                "block checksum mismatch: stored {stored:#018x}, actual {actual:#018x}"
            ),
            BlockCodecError::Decode(e) => write!(f, "block decode failed: {e}"),
            BlockCodecError::Inconsistent => {
                f.write_str("decoded block fails structural well-formedness checks")
            }
        }
    }
}

impl std::error::Error for BlockCodecError {}

impl From<DecodeError> for BlockCodecError {
    fn from(e: DecodeError) -> Self {
        BlockCodecError::Decode(e)
    }
}

fn get_hash(dec: &mut Decoder<'_>) -> Result<Hash256, DecodeError> {
    let raw = dec.get_raw(32)?;
    let mut bytes = [0u8; 32];
    bytes.copy_from_slice(raw);
    Ok(Hash256(bytes))
}

/// The header of a block: everything another node needs to decide whether
/// to accept the block, given the transactions and receipts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the parent block (all-zero for genesis).
    pub parent_hash: Hash256,
    /// Height of this block (genesis is 0).
    pub number: u64,
    /// Commitment to the ordered transaction list.
    pub tx_root: Hash256,
    /// Commitment to the post-state of executing the block.
    pub state_root: Hash256,
    /// Commitment to the receipts.
    pub receipts_root: Hash256,
    /// Commitment to the published schedule (zero when the block carries
    /// none, which no validator accepts).
    pub schedule_digest: Hash256,
    /// Total gas consumed by the block's transactions.
    pub gas_used: u64,
}

impl BlockHeader {
    /// The hash of this header (which is "the block hash").
    pub fn hash(&self) -> Hash256 {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        sha256(enc.as_slice())
    }

    /// Canonical encoding (the same bytes [`BlockHeader::hash`] hashes).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.parent_hash.as_bytes());
        enc.put_u64(self.number);
        enc.put_raw(self.tx_root.as_bytes());
        enc.put_raw(self.state_root.as_bytes());
        enc.put_raw(self.receipts_root.as_bytes());
        enc.put_raw(self.schedule_digest.as_bytes());
        enc.put_u64(self.gas_used);
    }

    /// Decodes a header written by [`BlockHeader::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<BlockHeader, DecodeError> {
        Ok(BlockHeader {
            parent_hash: get_hash(dec)?,
            number: dec.get_u64()?,
            tx_root: get_hash(dec)?,
            state_root: get_hash(dec)?,
            receipts_root: get_hash(dec)?,
            schedule_digest: get_hash(dec)?,
            gas_used: dec.get_u64()?,
        })
    }
}

/// A block: header, transactions, receipts and (optionally) the parallel
/// schedule the miner discovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The transactions, in block order.
    pub transactions: Vec<Transaction>,
    /// Receipts, indexed like the transactions.
    pub receipts: Vec<Receipt>,
    /// The schedule metadata published by a parallel miner (`None` for a
    /// block mined serially by a legacy miner).
    pub schedule: Option<ScheduleMetadata>,
}

impl Block {
    /// Assembles a block, computing all header commitments.
    pub fn build(
        parent_hash: Hash256,
        number: u64,
        transactions: Vec<Transaction>,
        receipts: Vec<Receipt>,
        state_root: Hash256,
        schedule: Option<ScheduleMetadata>,
    ) -> Self {
        let gas_used = receipts.iter().map(|r| r.gas_used).sum();
        let header = BlockHeader {
            parent_hash,
            number,
            tx_root: transactions_root(&transactions),
            state_root,
            receipts_root: receipts_root(&receipts),
            schedule_digest: schedule
                .as_ref()
                .map(ScheduleMetadata::digest)
                .unwrap_or(Hash256::ZERO),
            gas_used,
        };
        Block {
            header,
            transactions,
            receipts,
            schedule,
        }
    }

    /// The block hash (hash of the header).
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the block contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Structural self-consistency: do the header's commitments match the
    /// body? (Semantic validation — re-executing the transactions — is the
    /// validator's job in `cc-core`.)
    pub fn is_well_formed(&self) -> bool {
        self.header.tx_root == transactions_root(&self.transactions)
            && self.header.receipts_root == receipts_root(&self.receipts)
            && self.header.schedule_digest
                == self
                    .schedule
                    .as_ref()
                    .map(ScheduleMetadata::digest)
                    .unwrap_or(Hash256::ZERO)
            && self.header.gas_used == self.receipts.iter().map(|r| r.gas_used).sum::<u64>()
            && self
                .schedule
                .as_ref()
                .map(|s| s.len() == self.transactions.len())
                .unwrap_or(true)
    }

    /// Canonical encoding of the full block (header + body).
    pub fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        enc.put_u64(self.transactions.len() as u64);
        for tx in &self.transactions {
            tx.encode(enc);
        }
        enc.put_u64(self.receipts.len() as u64);
        for receipt in &self.receipts {
            receipt.encode(enc);
        }
        match &self.schedule {
            None => enc.put_u8(0),
            Some(schedule) => {
                enc.put_u8(1);
                schedule.encode(enc);
            }
        }
    }

    /// Decodes a block written by [`Block::encode`]. Performs no
    /// consistency checks — see [`Block::from_checked_bytes`] for the
    /// checksummed, validated path.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Block, DecodeError> {
        let header = BlockHeader::decode(dec)?;
        let n = dec.get_u64()? as usize;
        let mut transactions = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            transactions.push(Transaction::decode(dec)?);
        }
        let n = dec.get_u64()? as usize;
        let mut receipts = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            receipts.push(Receipt::decode(dec)?);
        }
        let schedule = match dec.get_u8()? {
            0 => None,
            1 => Some(ScheduleMetadata::decode(dec)?),
            _ => {
                return Err(DecodeError {
                    context: "unknown schedule-presence tag",
                })
            }
        };
        Ok(Block {
            header,
            transactions,
            receipts,
            schedule,
        })
    }

    /// Serializes the block with a leading FNV-64 checksum over the
    /// payload, the form used in the write-ahead log and snapshot files.
    pub fn to_checked_bytes(&self) -> Vec<u8> {
        let mut payload = Encoder::new();
        self.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut enc = Encoder::with_capacity(payload.len() + 8);
        enc.put_u64(fnv1a(&payload));
        enc.put_raw(&payload);
        enc.into_bytes()
    }

    /// Deserializes a block written by [`Block::to_checked_bytes`],
    /// rejecting corruption with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BlockCodecError::ChecksumMismatch`] when the payload bytes were
    /// altered, [`BlockCodecError::Decode`] on truncation or garbage, and
    /// [`BlockCodecError::Inconsistent`] when the block decodes but its
    /// header commitments do not match its body.
    pub fn from_checked_bytes(bytes: &[u8]) -> Result<Block, BlockCodecError> {
        let mut dec = Decoder::new(bytes);
        let stored = dec.get_u64()?;
        let payload = dec.get_raw(dec.remaining())?;
        let actual = fnv1a(payload);
        if stored != actual {
            return Err(BlockCodecError::ChecksumMismatch { stored, actual });
        }
        let mut dec = Decoder::new(payload);
        let block = Block::decode(&mut dec)?;
        if !dec.is_empty() {
            return Err(BlockCodecError::Decode(DecodeError {
                context: "trailing bytes after block",
            }));
        }
        if !block.is_well_formed() {
            return Err(BlockCodecError::Inconsistent);
        }
        Ok(block)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block #{} ({} txns, gas {})",
            self.header.number,
            self.transactions.len(),
            self.header.gas_used
        )
    }
}

/// Hashes the receipts into a single commitment.
pub fn receipts_root(receipts: &[Receipt]) -> Hash256 {
    let mut enc = Encoder::new();
    enc.put_u64(receipts.len() as u64);
    for receipt in receipts {
        receipt.encode(&mut enc);
    }
    sha256(enc.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::{Address, ArgValue, CallData, ExecutionStatus, ReturnValue};

    fn tx(nonce: u64) -> Transaction {
        Transaction::new(
            nonce,
            Address::from_index(nonce),
            Address::from_name("Ballot"),
            CallData::new("vote", vec![ArgValue::Uint(0)]),
            100_000,
        )
    }

    fn receipt(i: usize) -> Receipt {
        Receipt {
            tx_index: i,
            status: ExecutionStatus::Succeeded,
            gas_used: 21_000,
            output: ReturnValue::Unit,
            events: Vec::new(),
        }
    }

    #[test]
    fn build_and_well_formed() {
        let block = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(0), tx(1)],
            vec![receipt(0), receipt(1)],
            Hash256::ZERO,
            Some(ScheduleMetadata::chain(2)),
        );
        assert!(block.is_well_formed());
        assert_eq!(block.header.gas_used, 42_000);
        assert_eq!(block.len(), 2);
        assert!(!block.is_empty());
    }

    #[test]
    fn tampering_with_body_breaks_well_formedness() {
        let mut block = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(0), tx(1)],
            vec![receipt(0), receipt(1)],
            Hash256::ZERO,
            Some(ScheduleMetadata::chain(2)),
        );
        block.transactions.pop();
        assert!(!block.is_well_formed());
    }

    #[test]
    fn tampering_with_schedule_breaks_well_formedness() {
        let mut block = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(0), tx(1)],
            vec![receipt(0), receipt(1)],
            Hash256::ZERO,
            Some(ScheduleMetadata::chain(2)),
        );
        block.schedule.as_mut().unwrap().edges.clear();
        assert!(!block.is_well_formed());
    }

    #[test]
    fn hash_is_stable_and_content_dependent() {
        let a = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(0)],
            vec![receipt(0)],
            Hash256::ZERO,
            None,
        );
        let b = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(1)],
            vec![receipt(0)],
            Hash256::ZERO,
            None,
        );
        assert_eq!(a.hash(), a.hash());
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn checked_bytes_roundtrip() {
        for schedule in [None, Some(ScheduleMetadata::chain(2))] {
            let block = Block::build(
                Hash256::ZERO,
                1,
                vec![tx(0), tx(1)],
                vec![receipt(0), receipt(1)],
                Hash256::ZERO,
                schedule,
            );
            let bytes = block.to_checked_bytes();
            let decoded = Block::from_checked_bytes(&bytes).unwrap();
            assert_eq!(decoded, block);
            assert_eq!(decoded.hash(), block.hash());
        }
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_panicking() {
        let block = Block::build(
            Hash256::ZERO,
            1,
            vec![tx(0)],
            vec![receipt(0)],
            Hash256::ZERO,
            None,
        );
        let good = block.to_checked_bytes();

        // Flip one byte anywhere in the payload: checksum must catch it.
        for i in 8..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(matches!(
                Block::from_checked_bytes(&bad),
                Err(BlockCodecError::ChecksumMismatch { .. })
            ));
        }

        // Truncation anywhere is a decode error (or checksum mismatch once
        // the payload shrank), never a panic.
        for len in 0..good.len() {
            assert!(Block::from_checked_bytes(&good[..len]).is_err());
        }

        // A well-checksummed but internally inconsistent block is rejected
        // by the structural check.
        let mut forged = block.clone();
        forged.header.gas_used += 1;
        assert_eq!(
            Block::from_checked_bytes(&forged.to_checked_bytes()),
            Err(BlockCodecError::Inconsistent)
        );
    }

    #[test]
    fn display() {
        let block = Block::build(
            Hash256::ZERO,
            3,
            vec![tx(0)],
            vec![receipt(0)],
            Hash256::ZERO,
            None,
        );
        assert!(block.to_string().contains("block #3"));
    }
}
