//! Blocks and block headers.

use crate::chain::ChainError;
use crate::schedule_meta::ScheduleMetadata;
use crate::tx::{transactions_root, Transaction};
use cc_primitives::checksum::checksum64;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::hash::{sha256, Hash256};
use cc_vm::Receipt;
use std::fmt;
use std::ops::Deref;

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
            parent_hash: Hash256(dec.get_array()?),
            number: dec.get_u64()?,
            tx_root: Hash256(dec.get_array()?),
            state_root: Hash256(dec.get_array()?),
            receipts_root: Hash256(dec.get_array()?),
            schedule_digest: Hash256(dec.get_array()?),
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
    /// Assembles a block, computing all header commitments (see
    /// [`WellFormedBlock::build`], which keeps the proof that it did).
    pub fn build(
        parent_hash: Hash256,
        number: u64,
        transactions: Vec<Transaction>,
        receipts: Vec<Receipt>,
        state_root: Hash256,
        schedule: Option<ScheduleMetadata>,
    ) -> Self {
        WellFormedBlock::build(
            parent_hash,
            number,
            transactions,
            receipts,
            state_root,
            schedule,
        )
        .into_block()
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
    /// validator's job in `cc-core`.) [`WellFormedBlock::check`] keeps the
    /// answer, so a path that holds one never asks again.
    pub fn is_well_formed(&self) -> bool {
        let schedule = self.schedule.as_ref();
        self.committed_header() == self.header
            && schedule.is_none_or(|s| s.len() == self.transactions.len())
    }

    /// The header the body commits to, with the block's own linkage and
    /// state root: three hashes over the body and its gas, the per-block
    /// work [`commitment_count`] tallies.
    fn committed_header(&self) -> BlockHeader {
        #[cfg(debug_assertions)]
        COMMITMENT_COUNT.with(|c| c.set(c.get() + 1));
        let schedule = self.schedule.as_ref();
        BlockHeader {
            tx_root: transactions_root(&self.transactions),
            receipts_root: receipts_root(&self.receipts),
            schedule_digest: schedule.map_or(Hash256::ZERO, ScheduleMetadata::digest),
            gas_used: self.receipts.iter().map(|r| r.gas_used).sum(),
            ..self.header.clone()
        }
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
    /// consistency checks: the WAL and checkpoint readers check their
    /// record's checksum first, and a chain checks the commitments where
    /// it appends the block ([`WellFormedBlock::check`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Block, DecodeError> {
        let header = BlockHeader::decode(dec)?;
        let transactions = dec.get_vec(Transaction::decode)?;
        let receipts = dec.get_vec(Receipt::decode)?;
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

    /// Serializes the block with a leading [`checksum64`] over the
    /// payload. Nothing in the workspace reads this form: the WAL and
    /// checkpoint files carry one checksum per record over plain
    /// [`Block::encode`] bytes. It stays only because the node
    /// benchmark's `ledger.encode` probe times it.
    pub fn to_checked_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(0);
        self.encode(&mut enc);
        let (sum, payload) = enc.as_mut_slice().split_at_mut(8);
        sum.copy_from_slice(&checksum64(payload).to_le_bytes());
        enc.into_bytes()
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
    // Pre-sized for a plain receipt (index, status, gas, a small output,
    // no events); a receipt with events grows the buffer once or twice.
    let mut enc = Encoder::with_capacity(8 + 48 * receipts.len());
    enc.put_u64(receipts.len() as u64);
    for receipt in receipts {
        receipt.encode(&mut enc);
    }
    sha256(enc.as_slice())
}

#[cfg(debug_assertions)]
thread_local! {
    /// Debug-only tally of block-commitment computations on this thread.
    static COMMITMENT_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug-only: how many times this thread has computed a block body's
/// commitments (in [`WellFormedBlock::build`], [`WellFormedBlock::check`]
/// or [`Block::is_well_formed`]) since it started. Tests snapshot it
/// around a node call to pin that every path computes or checks a block's
/// commitments once. Compiled out of release builds.
#[cfg(debug_assertions)]
pub fn commitment_count() -> u64 {
    COMMITMENT_COUNT.with(|c| c.get())
}

/// A block whose header commitments are known to match its body.
///
/// Its field is private, and only two constructors make one:
/// [`WellFormedBlock::build`], which computes the commitments from the
/// body, and [`WellFormedBlock::check`], which runs
/// [`Block::is_well_formed`]. A path that holds one — a mined block on its
/// way to the chain, a replayed block on its way to its seal — never
/// hashes the body again:
/// [`crate::Blockchain::append_well_formed`] takes it as it is. It reads
/// as a [`Block`]; [`WellFormedBlock::into_block`] gives the block up.
#[derive(Debug)]
pub struct WellFormedBlock(Block);

impl WellFormedBlock {
    /// Assembles a block, computing all header commitments.
    pub fn build(
        parent_hash: Hash256,
        number: u64,
        transactions: Vec<Transaction>,
        receipts: Vec<Receipt>,
        state_root: Hash256,
        schedule: Option<ScheduleMetadata>,
    ) -> Self {
        let header = BlockHeader {
            parent_hash,
            number,
            tx_root: Hash256::ZERO,
            state_root,
            receipts_root: Hash256::ZERO,
            schedule_digest: Hash256::ZERO,
            gas_used: 0,
        };
        let mut block = Block {
            header,
            transactions,
            receipts,
            schedule,
        };
        block.header = block.committed_header();
        WellFormedBlock(block)
    }

    /// Checks `block`'s commitments against its body
    /// ([`Block::is_well_formed`]).
    ///
    /// # Errors
    ///
    /// [`ChainError::Malformed`] when they do not match.
    pub fn check(block: Block) -> Result<Self, ChainError> {
        if block.is_well_formed() {
            Ok(WellFormedBlock(block))
        } else {
            Err(ChainError::Malformed)
        }
    }

    /// The block, giving up the proof.
    pub fn into_block(self) -> Block {
        self.0
    }
}

impl Deref for WellFormedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.0
    }
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
            let (sum, payload) = bytes.split_at(8);
            assert_eq!(sum, checksum64(payload).to_le_bytes());
            let mut dec = Decoder::new(payload);
            let decoded = Block::decode(&mut dec).unwrap();
            assert!(dec.is_empty());
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
            Some(ScheduleMetadata::chain(1)),
        );
        let mut enc = Encoder::new();
        block.encode(&mut enc);
        let good = enc.into_bytes();

        // Truncation anywhere is a decode error, never a panic.
        for len in 0..good.len() {
            assert!(Block::decode(&mut Decoder::new(&good[..len])).is_err());
        }

        // A transaction count no input can hold is refused by the count
        // rule, before anything is read for it.
        let mut header = Encoder::new();
        block.header.encode(&mut header);
        let count_at = header.len();
        let mut forged_count = good.clone();
        forged_count[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Block::decode(&mut Decoder::new(&forged_count))
                .unwrap_err()
                .context,
            "element count exceeds the input left"
        );

        // A block that decodes but lies about its own commitments is
        // rejected by the structural check every chain append runs.
        let mut forged = block.clone();
        forged.header.gas_used += 1;
        let mut enc = Encoder::new();
        forged.encode(&mut enc);
        let decoded = Block::decode(&mut Decoder::new(enc.as_slice())).unwrap();
        assert!(matches!(
            WellFormedBlock::check(decoded),
            Err(ChainError::Malformed)
        ));
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
