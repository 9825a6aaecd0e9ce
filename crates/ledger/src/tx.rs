//! Transactions: client-submitted contract call descriptors.

use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::hash::{sha256, Hash256, Sha256};
use cc_vm::{Address, CallData, Msg, Wei};
use std::fmt;

/// Identifier of a transaction within its block (its index).
pub type TxId = usize;

/// A client request: "call this function of this contract with these
/// arguments, paying for at most `gas_limit` gas".
///
/// Following the paper's terminology, a *transaction* is the unit a miner
/// packages into blocks and executes as one speculative atomic action — not
/// a database-style transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Client-assigned nonce (unique per sender; used only for hashing).
    pub nonce: u64,
    /// The account submitting the request.
    pub sender: Address,
    /// The contract being called.
    pub to: Address,
    /// Currency attached to the call.
    pub value: Wei,
    /// The function and arguments.
    pub call: CallData,
    /// Maximum gas the sender is willing to pay for.
    pub gas_limit: u64,
    /// Fee the sender bids for inclusion priority. The mempool orders
    /// admission, replacement and block assembly by this field (higher
    /// wins); it is part of the canonical encoding and the transaction
    /// hash, so it cannot be altered in flight.
    pub priority_fee: u64,
}

impl Transaction {
    /// Creates a transaction carrying no currency and bidding no priority
    /// fee (use [`Transaction::priority_fee`] to set one).
    pub fn new(nonce: u64, sender: Address, to: Address, call: CallData, gas_limit: u64) -> Self {
        Transaction {
            nonce,
            sender,
            to,
            value: Wei::ZERO,
            call,
            gas_limit,
            priority_fee: 0,
        }
    }

    /// Creates a transaction carrying `value`.
    pub fn with_value(
        nonce: u64,
        sender: Address,
        to: Address,
        value: Wei,
        call: CallData,
        gas_limit: u64,
    ) -> Self {
        Transaction {
            nonce,
            sender,
            to,
            value,
            call,
            gas_limit,
            priority_fee: 0,
        }
    }

    /// Sets the inclusion-priority fee (builder style).
    pub fn priority_fee(mut self, fee: u64) -> Self {
        self.priority_fee = fee;
        self
    }

    /// The `msg` context this transaction executes under.
    pub fn msg(&self) -> Msg {
        Msg {
            sender: self.sender,
            value: self.value,
        }
    }

    /// Canonical encoding (used for the block's transaction-root hash).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.nonce);
        enc.put_raw(self.sender.as_bytes());
        enc.put_raw(self.to.as_bytes());
        enc.put_u128(self.value.amount());
        self.call.encode(enc);
        enc.put_u64(self.gas_limit);
        enc.put_u64(self.priority_fee);
    }

    /// Decodes a transaction written by [`Transaction::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Transaction, DecodeError> {
        Ok(Transaction {
            nonce: dec.get_u64()?,
            sender: Address(dec.get_array()?),
            to: Address(dec.get_array()?),
            value: Wei::new(dec.get_u128()?),
            call: CallData::decode(dec)?,
            gas_limit: dec.get_u64()?,
            priority_fee: dec.get_u64()?,
        })
    }

    /// The transaction's hash.
    pub fn hash(&self) -> Hash256 {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        sha256(enc.as_slice())
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}::{}", self.sender, self.to, self.call)
    }
}

/// Hashes a list of transactions into a single commitment (the block's
/// transaction root): SHA-256 over the count and every transaction's
/// [`Transaction::hash`], each transaction encoded into one reused buffer.
pub fn transactions_root(transactions: &[Transaction]) -> Hash256 {
    let mut root = Sha256::new();
    root.update(&(transactions.len() as u64).to_le_bytes());
    let mut buf = Encoder::with_capacity(256);
    for tx in transactions {
        buf.clear();
        tx.encode(&mut buf);
        root.update(sha256(buf.as_slice()).as_bytes());
    }
    root.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::ArgValue;

    fn sample(nonce: u64) -> Transaction {
        Transaction::with_value(
            nonce,
            Address::from_index(1),
            Address::from_name("Ballot"),
            Wei::new(5),
            CallData::new("vote", vec![ArgValue::Uint(2)]),
            100_000,
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tx = sample(7).priority_fee(42);
        let mut enc = Encoder::new();
        tx.encode(&mut enc);
        let bytes = enc.into_bytes();
        let decoded = Transaction::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.priority_fee, 42);
    }

    #[test]
    fn hash_depends_on_contents() {
        assert_ne!(sample(1).hash(), sample(2).hash());
        assert_eq!(sample(1).hash(), sample(1).hash());
    }

    #[test]
    fn hash_depends_on_priority_fee() {
        // The fee is part of the commitment: a relayer bumping (or
        // stripping) it yields a different transaction.
        assert_ne!(sample(1).hash(), sample(1).priority_fee(1).hash());
        assert_eq!(
            sample(1).priority_fee(9).hash(),
            sample(1).priority_fee(9).hash()
        );
    }

    #[test]
    fn msg_reflects_sender_and_value() {
        let tx = sample(1);
        assert_eq!(tx.msg().sender, tx.sender);
        assert_eq!(tx.msg().value, Wei::new(5));
    }

    #[test]
    fn transactions_root_is_order_sensitive() {
        let a = sample(1);
        let b = sample(2);
        assert_ne!(
            transactions_root(&[a.clone(), b.clone()]),
            transactions_root(&[b, a])
        );
        assert_ne!(transactions_root(&[]), Hash256::ZERO);
    }

    #[test]
    fn display() {
        assert!(sample(1).to_string().contains("vote"));
    }
}
