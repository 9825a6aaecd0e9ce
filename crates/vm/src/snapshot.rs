//! Deterministic state snapshots.
//!
//! A world snapshot is the full persistent state of every contract in a
//! canonical byte form: what the equivalence suites compare bit for bit.
//! The node does not store it — its checkpoints and its recovery rest on
//! the *state root* block headers commit to, a separate, incrementally
//! maintained Merkle commitment over the same storage fields (see
//! [`crate::commit`]); both are derived from one field list per contract
//! ([`crate::Contract::storage_fields`]), so the root moves exactly when
//! the image does (`tests/state_root_incremental.rs`).
//!
//! The module only encodes: no node path reads an image back, so there
//! is no decoder to trust, and a checkpoint carrying one is refused.

use crate::address::Address;
use crate::value::Wei;
use cc_primitives::codec::Encoder;

/// Conversion into canonical bytes for state commitment.
///
/// Implemented for the primitive field types contracts use; contract
/// crates implement it for their own structs (e.g. `Voter`). Encodings of
/// distinct keys of one map must be distinct.
pub trait ToBytes {
    /// Appends the canonical byte encoding of the value to `out` (the
    /// form the snapshot and state-root paths use: no allocation per
    /// value).
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Canonical byte encoding of the value.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

macro_rules! le_bytes_to_bytes {
    ($($ty:ty),*) => {$(
        impl ToBytes for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
le_bytes_to_bytes!(u8, u16, u32, u64, u128);

/// No bytes: the key of a scalar, a map's one entry under `()`.
impl ToBytes for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}
}

impl ToBytes for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
}

impl ToBytes for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl ToBytes for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl ToBytes for [u8] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl ToBytes for [u8; 32] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<T: ToBytes + ?Sized> ToBytes for &T {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out);
    }
}

impl ToBytes for Address {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl ToBytes for Wei {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.amount().encode_into(out);
    }
}

/// Where one entry of a [`FieldSnapshot`] lies in its byte arena: the key
/// encoding at `start`, the value encoding right behind it.
#[derive(Debug, Clone, Copy)]
struct EntrySpan {
    start: usize,
    key_len: usize,
    value_len: usize,
}

/// Snapshot of one storage field (one boosted map; a scalar is the entry
/// under the empty key): a list of `(encoded key, encoded value)` pairs
/// sorted by encoded key, held in one byte arena rather than two vectors
/// per entry.
#[derive(Debug, Clone)]
pub struct FieldSnapshot {
    /// The field's stable name (e.g. `"Ballot.voters"`).
    pub name: String,
    /// Key and value encodings of every entry, back to back.
    arena: Vec<u8>,
    /// One span per entry, in canonical (sorted) order once built.
    spans: Vec<EntrySpan>,
}

impl PartialEq for FieldSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.entries().eq(other.entries())
    }
}

impl Eq for FieldSnapshot {}

impl FieldSnapshot {
    /// An entry-less snapshot with room for `entries` entries.
    pub(crate) fn with_capacity(name: impl Into<String>, entries: usize) -> Self {
        FieldSnapshot {
            name: name.into(),
            arena: Vec::new(),
            spans: Vec::with_capacity(entries),
        }
    }

    /// Appends one entry, encoding it straight into the arena. Entries
    /// may arrive in any order; [`FieldSnapshot::sorted`] fixes it.
    pub(crate) fn push<K, V>(&mut self, key: &K, value: &V)
    where
        K: ToBytes + ?Sized,
        V: ToBytes + ?Sized,
    {
        let start = self.arena.len();
        key.encode_into(&mut self.arena);
        let key_len = self.arena.len() - start;
        value.encode_into(&mut self.arena);
        self.spans.push(EntrySpan {
            start,
            key_len,
            value_len: self.arena.len() - start - key_len,
        });
    }

    /// Puts the entries into canonical order: ascending by encoded key
    /// (then value, so the order is total even for a faulty encoder).
    pub(crate) fn sorted(mut self) -> Self {
        let arena = &self.arena;
        let key = |s: &EntrySpan| &arena[s.start..s.start + s.key_len];
        let value = |s: &EntrySpan| &arena[s.start + s.key_len..][..s.value_len];
        self.spans
            .sort_unstable_by(|a, b| key(a).cmp(key(b)).then_with(|| value(a).cmp(value(b))));
        self
    }

    /// Builds a snapshot from typed entries in any order.
    pub fn from_typed<K: ToBytes, V: ToBytes>(
        name: &str,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        let entries = entries.into_iter();
        let mut field = FieldSnapshot::with_capacity(name, entries.size_hint().0);
        for (key, value) in entries {
            field.push(&key, &value);
        }
        field.sorted()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the field holds no entry.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `(encoded key, encoded value)` pairs in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.spans.iter().map(|s| {
            let (key, value) =
                self.arena[s.start..s.start + s.key_len + s.value_len].split_at(s.key_len);
            (key, value)
        })
    }

    /// Canonical encoding: what [`WorldSnapshot::to_bytes`] writes per field.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_u64(self.len() as u64);
        for (k, v) in self.entries() {
            enc.put_bytes(k);
            enc.put_bytes(v);
        }
    }
}

/// Snapshot of one contract's entire persistent state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractSnapshot {
    /// The contract kind (e.g. `"Ballot"`).
    pub kind: String,
    /// The contract's address.
    pub address: Address,
    /// All storage fields, in declaration order.
    pub fields: Vec<FieldSnapshot>,
}

impl ContractSnapshot {
    /// Creates a snapshot.
    pub fn new(kind: impl Into<String>, address: Address, fields: Vec<FieldSnapshot>) -> Self {
        ContractSnapshot {
            kind: kind.into(),
            address,
            fields,
        }
    }

    /// Canonical encoding of the contract's state.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.kind);
        enc.put_raw(self.address.as_bytes());
        enc.put_u64(self.fields.len() as u64);
        for field in &self.fields {
            field.encode(enc);
        }
    }
}

/// Snapshot of every contract in a [`crate::World`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorldSnapshot {
    /// Per-contract snapshots sorted by address.
    pub contracts: Vec<ContractSnapshot>,
}

impl WorldSnapshot {
    /// Builds a world snapshot, sorting contracts by address.
    pub fn new(mut contracts: Vec<ContractSnapshot>) -> Self {
        contracts.sort_by_key(|c| c.address);
        WorldSnapshot { contracts }
    }

    /// Serializes the full snapshot to canonical bytes. Two worlds are
    /// compared by comparing these bytes, so the encoding must stay
    /// deterministic.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Canonical encoding of the snapshot.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.contracts.len() as u64);
        for contract in &self.contracts {
            contract.encode(enc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(field: &FieldSnapshot) -> Vec<(Vec<u8>, Vec<u8>)> {
        field
            .entries()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    #[test]
    fn field_snapshot_sorts_entries_by_encoded_key() {
        let f = FieldSnapshot::from_typed("m", vec![(2u8, 20u8), (1u8, 10u8)]);
        assert_eq!(pairs(&f), vec![(vec![1], vec![10]), (vec![2], vec![20])]);
        // Equality is logical: arena layout (insertion order) is invisible.
        assert_eq!(
            f,
            FieldSnapshot::from_typed("m", vec![(1u8, 10u8), (2u8, 20u8)])
        );
        assert_ne!(
            f,
            FieldSnapshot::from_typed("m", vec![(1u8, 10u8), (2u8, 21u8)])
        );
    }

    #[test]
    fn typed_and_scalar_snapshots() {
        let f = FieldSnapshot::from_typed("counts", vec![(2u64, 20u64), (1u64, 10u64)]);
        assert_eq!(f.len(), 2);
        // A scalar is the entry under `()`, whose key encodes to nothing.
        let s = FieldSnapshot::from_typed("highest", [((), 42u64)]);
        assert_eq!(s.len(), 1);
        assert!(s.entries().next().unwrap().0.is_empty());
        assert!(FieldSnapshot::from_typed::<u64, u64>("none", vec![]).is_empty());
    }

    fn sample_world() -> WorldSnapshot {
        WorldSnapshot::new(vec![
            ContractSnapshot::new(
                "Ballot",
                Address::from_index(2),
                vec![
                    FieldSnapshot::from_typed("votes", vec![(1u64, 5u64), (0u64, 9u64)]),
                    FieldSnapshot::from_typed("chair", [((), 7u64)]),
                ],
            ),
            ContractSnapshot::new("Auction", Address::from_index(1), vec![]),
        ])
    }

    #[test]
    fn world_snapshot_sorts_contracts_and_encodes_canonically() {
        let w = sample_world();
        assert_eq!(w.contracts[0].kind, "Auction", "sorted by address");
        let mut reversed = w.contracts.clone();
        reversed.reverse();
        assert_eq!(WorldSnapshot::new(reversed).to_bytes(), w.to_bytes());
        let mut enc = Encoder::new();
        enc.put_u64(2);
        for contract in &w.contracts {
            contract.encode(&mut enc);
        }
        assert_eq!(w.to_bytes(), enc.into_bytes());
    }

    #[test]
    fn to_bytes_primitives() {
        assert_eq!(7u64.to_bytes().len(), 8);
        assert_eq!(7u32.to_bytes().len(), 4);
        assert_eq!(7u128.to_bytes().len(), 16);
        assert_eq!(7usize.to_bytes().len(), 8);
        assert_eq!(7u16.to_bytes(), vec![7, 0]);
        assert_eq!(7u8.to_bytes(), vec![7]);
        assert_eq!(true.to_bytes(), vec![1]);
        assert_eq!(().to_bytes(), Vec::<u8>::new());
        assert_eq!("ab".to_string().to_bytes(), b"ab".to_vec());
        assert_eq!([1u8; 32].to_bytes().len(), 32);
        assert_eq!(Address::from_index(1).to_bytes().len(), 20);
        assert_eq!(Wei::new(9).to_bytes().len(), 16);
        // `encode_into` appends; `to_bytes` is exactly what it appends.
        let mut out = vec![0xff];
        7u32.encode_into(&mut out);
        assert_eq!(out, [&[0xff][..], &7u32.to_bytes()].concat());
    }
}
