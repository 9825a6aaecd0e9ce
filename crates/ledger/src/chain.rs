//! The append-only blockchain.

use crate::block::{Block, WellFormedBlock};
use cc_primitives::hash::Hash256;
use std::fmt;

/// Error appending a block to the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block's parent hash does not match the current head.
    WrongParent {
        /// Hash the block claims as parent.
        claimed: Hash256,
        /// Hash of the actual chain head.
        head: Hash256,
    },
    /// The block number is not head number + 1.
    WrongNumber {
        /// Number in the block header.
        claimed: u64,
        /// Expected next number.
        expected: u64,
    },
    /// The block's internal commitments do not match its body.
    Malformed,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::WrongParent { claimed, head } => {
                write!(
                    f,
                    "wrong parent hash: block claims {claimed}, head is {head}"
                )
            }
            ChainError::WrongNumber { claimed, expected } => {
                write!(f, "wrong block number: got {claimed}, expected {expected}")
            }
            ChainError::Malformed => f.write_str("block commitments do not match its body"),
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only chain of blocks starting from a genesis block.
///
/// The chain enforces *structural* validity (hash linkage, numbering,
/// internal commitments). Semantic validity — that the state root really is
/// the result of executing the transactions under the published schedule —
/// is checked by the validators in `cc-core` before they append.
#[derive(Debug, Clone)]
pub struct Blockchain {
    blocks: Vec<Block>,
}

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl Blockchain {
    /// Creates a chain containing only the genesis block (block 0, no
    /// transactions, zero state root).
    pub fn new() -> Self {
        Self::with_genesis_state(Hash256::ZERO)
    }

    /// Creates a chain whose genesis commits to the given initial state
    /// root (the hash of the deployed contracts' initial storage).
    pub fn with_genesis_state(state_root: Hash256) -> Self {
        Blockchain {
            blocks: vec![Block::build(
                Hash256::ZERO,
                0,
                Vec::new(),
                Vec::new(),
                state_root,
                None,
            )],
        }
    }

    /// The number of blocks, including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Always false: a chain has at least its genesis block.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current head block.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("chain always has genesis")
    }

    /// Hash of the current head block.
    pub fn head_hash(&self) -> Hash256 {
        self.head().hash()
    }

    /// The block at `number`, if present.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.get(number as usize)
    }

    /// Iterates over all blocks from genesis to head.
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// Appends a block after structural validation: the linkage, then
    /// [`WellFormedBlock::check`].
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] if the parent hash, block number or
    /// internal commitments are wrong. The chain is unchanged on error.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        self.links(&block)?;
        let block = WellFormedBlock::check(block)?;
        self.blocks.push(block.into_block());
        Ok(())
    }

    /// Appends a block whose commitments are already known to match its
    /// body: only the linkage is checked, nothing is re-hashed but the
    /// head's header.
    ///
    /// # Errors
    ///
    /// [`ChainError::WrongParent`] or [`ChainError::WrongNumber`]. The
    /// chain is unchanged on error.
    pub fn append_well_formed(&mut self, block: WellFormedBlock) -> Result<(), ChainError> {
        self.links(&block)?;
        self.blocks.push(block.into_block());
        Ok(())
    }

    /// Whether `block` sits on the head: its parent hash and number.
    fn links(&self, block: &Block) -> Result<(), ChainError> {
        let head = self.head();
        let head_hash = head.hash();
        if block.header.parent_hash != head_hash {
            return Err(ChainError::WrongParent {
                claimed: block.header.parent_hash,
                head: head_hash,
            });
        }
        let expected = head.header.number + 1;
        if block.header.number != expected {
            return Err(ChainError::WrongNumber {
                claimed: block.header.number,
                expected,
            });
        }
        Ok(())
    }

    /// Verifies the hash linkage and well-formedness of the entire chain.
    pub fn verify_structure(&self) -> bool {
        let links = |pair: &[Block]| {
            let (parent, child) = (&pair[0], &pair[1]);
            child.header.parent_hash == parent.hash()
                && child.header.number == parent.header.number + 1
                && child.is_well_formed()
        };
        self.blocks[0].header.number == 0 && self.blocks.windows(2).all(links)
    }

    /// Total number of transactions across all blocks.
    pub fn total_transactions(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Discards every block above height `number`, making `number` the
    /// new head. A no-op when `number` is at or past the current head.
    /// Genesis can never be discarded.
    ///
    /// This is the pipelined node's failure path: when persisting block
    /// N fails after blocks N.. were already appended in memory, the
    /// chain is rolled back to the durable prefix so the node never
    /// advertises blocks a crash would forget.
    pub fn truncate_to(&mut self, number: u64) {
        let keep = (number as usize).saturating_add(1).max(1);
        self.blocks.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_meta::ScheduleMetadata;
    use crate::tx::Transaction;
    use cc_vm::{Address, ArgValue, CallData, ExecutionStatus, Receipt, ReturnValue};

    fn next_block(chain: &Blockchain, ntx: u64) -> Block {
        let txs: Vec<Transaction> = (0..ntx)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    Address::from_name("Ballot"),
                    CallData::new("vote", vec![ArgValue::Uint(0)]),
                    100_000,
                )
            })
            .collect();
        let receipts: Vec<Receipt> = (0..ntx as usize)
            .map(|i| Receipt {
                tx_index: i,
                status: ExecutionStatus::Succeeded,
                gas_used: 21_000,
                output: ReturnValue::Unit,
                events: Vec::new(),
            })
            .collect();
        Block::build(
            chain.head_hash(),
            chain.head().header.number + 1,
            txs,
            receipts,
            Hash256::ZERO,
            Some(ScheduleMetadata::chain(ntx as usize)),
        )
    }

    #[test]
    fn genesis_only_chain() {
        let chain = Blockchain::new();
        assert_eq!(chain.len(), 1);
        assert!(!chain.is_empty());
        assert_eq!(chain.head().header.number, 0);
        assert!(chain.verify_structure());
        assert_eq!(chain.total_transactions(), 0);
    }

    #[test]
    fn append_valid_blocks() {
        let mut chain = Blockchain::new();
        for _ in 0..3 {
            let block = next_block(&chain, 2);
            chain.append(block).unwrap();
        }
        assert_eq!(chain.len(), 4);
        assert_eq!(chain.total_transactions(), 6);
        assert!(chain.verify_structure());
        assert!(chain.block(2).is_some());
        assert!(chain.block(9).is_none());
        assert_eq!(chain.iter().count(), 4);
    }

    #[test]
    fn rejects_wrong_parent() {
        let mut chain = Blockchain::new();
        let mut block = next_block(&chain, 1);
        block.header.parent_hash = Hash256::ZERO;
        // Hash256::ZERO is not the genesis hash (genesis hashes its own header).
        assert!(matches!(
            chain.append(block),
            Err(ChainError::WrongParent { .. })
        ));
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn rejects_wrong_number() {
        let mut chain = Blockchain::new();
        let good = next_block(&chain, 1);
        let mut bad = good.clone();
        bad.header.number = 7;
        assert!(matches!(
            chain.append(bad),
            Err(ChainError::WrongNumber { .. })
        ));
        chain.append(good).unwrap();
    }

    #[test]
    fn rejects_malformed_block() {
        let mut chain = Blockchain::new();
        let mut block = next_block(&chain, 2);
        block.receipts.pop();
        assert_eq!(chain.append(block), Err(ChainError::Malformed));
    }

    #[test]
    fn genesis_state_root_is_committed() {
        let root = cc_primitives::sha256(b"initial state");
        let chain = Blockchain::with_genesis_state(root);
        assert_eq!(chain.head().header.state_root, root);
    }

    #[test]
    fn truncate_to_rolls_back_to_a_prefix() {
        let mut chain = Blockchain::new();
        for _ in 0..4 {
            let block = next_block(&chain, 1);
            chain.append(block).unwrap();
        }
        assert_eq!(chain.len(), 5);
        chain.truncate_to(9); // past the head: no-op
        assert_eq!(chain.len(), 5);
        chain.truncate_to(2);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.head().header.number, 2);
        assert!(chain.verify_structure());
        chain.truncate_to(0); // genesis survives
        assert_eq!(chain.len(), 1);
        assert!(chain.verify_structure());
    }

    #[test]
    fn chain_error_display() {
        let e = ChainError::WrongNumber {
            claimed: 2,
            expected: 1,
        };
        assert!(e.to_string().contains("expected 1"));
        assert!(ChainError::Malformed.to_string().contains("commitments"));
    }
}
