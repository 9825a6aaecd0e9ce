//! Account and contract addresses.

use cc_primitives::{hex, sha256_concat, Hash256};
use std::fmt;

/// `Encoder::put_str("account")`: the `u64` little-endian length, then
/// the bytes.
const ACCOUNT_TAG: &[u8; 15] = b"\x07\0\0\0\0\0\0\0account";
/// `Encoder::put_str("contract")`.
const CONTRACT_TAG: &[u8; 16] = b"\x08\0\0\0\0\0\0\0contract";

/// A 20-byte account identifier, analogous to an Ethereum address.
///
/// Addresses identify both externally-owned accounts (clients submitting
/// transactions) and deployed contracts.
///
/// # Example
///
/// ```
/// use cc_vm::Address;
/// let alice = Address::from_index(1);
/// let bob = Address::from_index(2);
/// assert_ne!(alice, bob);
/// assert_eq!(alice, Address::from_index(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (Solidity `address(0)`), used as "no delegate" /
    /// "no owner" sentinel.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Derives a deterministic address from a small index. Convenient for
    /// workload generation and tests ("account #7").
    ///
    /// The address is the first 20 bytes of the SHA-256 of a 23-byte
    /// preimage, the bytes `Encoder::put_str("account")` then
    /// `Encoder::put_u64(index)` write:
    ///
    /// | bytes | content |
    /// |-------|---------|
    /// | 0..8 | `7`, the tag's length, `u64` little-endian |
    /// | 8..15 | `account` |
    /// | 15..23 | `index`, `u64` little-endian |
    ///
    /// It is hashed as one SHA-256 block, with nothing allocated.
    pub fn from_index(index: u64) -> Self {
        Self::from_digest(sha256_concat(&[ACCOUNT_TAG, &index.to_le_bytes()]))
    }

    /// Derives a deterministic contract address from a human-readable name
    /// (e.g. `"Ballot"`).
    ///
    /// The address is the first 20 bytes of the SHA-256 of a
    /// `24 + name.len()`-byte preimage, the bytes
    /// `Encoder::put_str("contract")` then `Encoder::put_str(name)` write:
    ///
    /// | bytes | content |
    /// |-------|---------|
    /// | 0..8 | `8`, the tag's length, `u64` little-endian |
    /// | 8..16 | `contract` |
    /// | 16..24 | `name.len()`, `u64` little-endian |
    /// | 24.. | the name's UTF-8 bytes |
    ///
    /// A name of up to 31 bytes is hashed as one SHA-256 block; a longer
    /// one is fed to the incremental hasher part by part. Nothing is
    /// allocated either way.
    pub fn from_name(name: &str) -> Self {
        let len = (name.len() as u64).to_le_bytes();
        Self::from_digest(sha256_concat(&[CONTRACT_TAG, &len, name.as_bytes()]))
    }

    /// The first 20 bytes of `digest`.
    fn from_digest(digest: Hash256) -> Self {
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&digest.as_bytes()[..20]);
        Address(bytes)
    }

    /// Raw bytes of the address.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Whether this is the zero address.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }

    /// Hex rendering (40 characters, no `0x` prefix).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address(0x{}..)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<[u8; 20]> for Address {
    fn from(value: [u8; 20]) -> Self {
        Address(value)
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derived_addresses_are_deterministic_and_distinct() {
        assert_eq!(Address::from_index(3), Address::from_index(3));
        assert_ne!(Address::from_index(3), Address::from_index(4));
        assert_ne!(
            Address::from_name("Ballot"),
            Address::from_name("SimpleAuction")
        );
        assert_ne!(Address::from_index(1), Address::from_name("1"));
    }

    #[test]
    fn no_collisions_in_small_range() {
        let set: HashSet<Address> = (0..10_000).map(Address::from_index).collect();
        assert_eq!(set.len(), 10_000);
    }

    /// Digests taken before the preimages were laid out on the stack:
    /// every address derived anywhere must keep its bytes.
    #[test]
    fn derivations_keep_their_bytes() {
        let indexed = [
            (0, "ebe21cd0f5191564218115d72fb2db53b1d2d5a7"),
            (1, "068dff09304d70d29c867c764ad708bfd960103b"),
            (1 << 32, "7318b3e48e1095c25a5709509eb4fe16b19c820a"),
            (u64::MAX, "e40f6898291eca5d08b9558e33ef73e13e8d362e"),
        ];
        for (index, hex) in indexed {
            assert_eq!(Address::from_index(index).to_hex(), hex, "index {index}");
        }
        // 31 bytes is the longest name that fits one block; 100 takes two.
        let named = [
            (String::new(), "d8904a5812342a77e60c1d697ebf6b4a16f2b3c7"),
            (
                "bench.Ballot".into(),
                "616f4d20d62adc3f6635aa248b083641f163438e",
            ),
            ("n".repeat(31), "b4d1cd1840e832beb9db98899a21c3c3a7daabfc"),
            ("x".repeat(100), "f1fbeb6f36adefafef0fd4f6debc93a5c245b75a"),
        ];
        for (name, hex) in named {
            assert_eq!(Address::from_name(&name).to_hex(), hex, "{name:?}");
        }
    }

    #[test]
    fn preimages_are_the_encoder_bytes() {
        use cc_primitives::{codec::Encoder, sha256};
        for index in [0, 7, 1 << 40, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_str("account");
            enc.put_u64(index);
            let digest = sha256(enc.as_slice());
            assert_eq!(Address::from_index(index), Address::from_digest(digest));
        }
        for len in [0, 1, 31, 32, 33, 40, 64, 200] {
            let name = "c".repeat(len);
            let mut enc = Encoder::new();
            enc.put_str("contract");
            enc.put_str(&name);
            let digest = sha256(enc.as_slice());
            assert_eq!(
                Address::from_name(&name),
                Address::from_digest(digest),
                "{len}"
            );
        }
    }

    #[test]
    fn zero_address() {
        assert!(Address::ZERO.is_zero());
        assert!(!Address::from_index(0).is_zero());
        assert_eq!(Address::default(), Address::ZERO);
    }

    #[test]
    fn display_and_debug() {
        let a = Address::from_index(1);
        assert!(format!("{a}").starts_with("0x"));
        assert_eq!(format!("{a}").len(), 42);
        assert!(!format!("{a:?}").is_empty());
    }
}
