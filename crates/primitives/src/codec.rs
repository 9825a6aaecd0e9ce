//! Deterministic byte-oriented encoding.
//!
//! Blocks, schedules and contract-state snapshots are committed to by hash,
//! so their byte encoding must be canonical: the same logical value always
//! produces the same bytes. This module provides a small length-prefixed
//! binary format (little-endian fixed-width integers, `u64` length prefixes
//! for variable-size data and `u64` element counts for sequences) plus the
//! matching [`Decoder`] the WAL and checkpoint readers run over bytes they
//! did not write.
//!
//! A decoder trusts no number it reads: a byte length is checked against
//! the input left before anything is copied, and every sequence goes
//! through [`Decoder::get_vec`], which refuses a count the input left
//! cannot hold (every element takes at least one byte). So no input makes
//! a decode allocate more than a bounded multiple of its own length.

use std::fmt;

/// Canonical encoder.
///
/// # Example
///
/// ```
/// use cc_primitives::codec::{Encoder, Decoder};
/// let mut e = Encoder::new();
/// e.put_u32(7);
/// e.put_str("vote");
/// let mut d = Decoder::new(e.as_slice());
/// assert_eq!(d.get_u32().unwrap(), 7);
/// assert_eq!(d.get_string().unwrap(), "vote");
/// assert!(d.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` in little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` in little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends raw bytes with no length prefix (fixed-size fields, read
    /// back with [`Decoder::get_array`]).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Returns the encoded bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes, writable: for patching a field reserved earlier
    /// (a length or checksum known only once what follows is written).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Forgets everything written, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Error produced by [`Decoder`] when the input is truncated or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what failed to decode.
    pub context: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Canonical decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        // `n` may come straight from a length prefix in the input.
        if n > self.data.len() - self.pos {
            return Err(DecodeError { context });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool: one byte, 0 or 1, as [`Encoder::put_bool`] writes
    /// it.
    ///
    /// # Errors
    ///
    /// Fails if the input is exhausted or the byte is neither 0 nor 1 (a
    /// second byte for the same value would make the encoding
    /// non-canonical).
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                context: "bool byte other than 0 or 1",
            }),
        }
    }

    /// Reads `N` raw bytes as an array (no length prefix): a hash, an
    /// address, a fixed-width integer.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `N` bytes remain.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, "fixed-width field")?);
        Ok(out)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 16 bytes remain.
    pub fn get_u128(&mut self) -> Result<u128, DecodeError> {
        self.get_array().map(u128::from_le_bytes)
    }

    /// Reads a sequence: a `u64` element count, then that many elements,
    /// each decoded by `element`. This is the one place a count from the
    /// input is trusted, and only as far as the input left can hold it:
    /// every element takes at least one byte, so a larger count is
    /// refused before any element is read. The vector grows with the
    /// elements decoded, never with the count.
    ///
    /// # Errors
    ///
    /// Fails on a count above [`Decoder::remaining`], and with the first
    /// error `element` returns.
    pub fn get_vec<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.get_u64()?;
        if count > self.remaining() as u64 {
            return Err(DecodeError {
                context: "element count exceeds the input left",
            });
        }
        (0..count).map(|_| element(self)).collect()
    }

    /// Reads a `u64`-length-prefixed byte vector.
    ///
    /// # Errors
    ///
    /// Fails if the prefix or payload is truncated.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len, "bytes payload")?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn get_string(&mut self) -> Result<String, DecodeError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| DecodeError { context: "utf-8" })
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut e = Encoder::new();
        e.put_u8(9);
        e.put_bool(true);
        e.put_u32(77);
        e.put_u64(u64::MAX);
        e.put_u128(u128::MAX - 5);
        e.put_bytes(b"payload");
        e.put_str("Ballot.vote");
        e.put_raw(&[1, 2, 3]);

        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_u8().unwrap(), 9);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u32().unwrap(), 77);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_u128().unwrap(), u128::MAX - 5);
        assert_eq!(d.get_bytes().unwrap(), b"payload");
        assert_eq!(d.get_string().unwrap(), "Ballot.vote");
        assert_eq!(d.get_array::<3>().unwrap(), [1, 2, 3]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(1234);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert!(d.get_u64().is_err());
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_string().is_err());
    }

    #[test]
    fn remaining_tracks_position() {
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u32(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.remaining(), 8);
        d.get_u32().unwrap();
        assert_eq!(d.remaining(), 4);
    }

    #[test]
    fn a_count_the_input_left_cannot_hold_is_refused() {
        // Three one-byte elements behind each count.
        for (count, ok) in [(0, true), (3, true), (4, false), (u64::MAX, false)] {
            let mut e = Encoder::new();
            e.put_u64(count);
            e.put_raw(&[7, 8, 9]);
            let bytes = e.into_bytes();
            let decoded = Decoder::new(&bytes).get_vec(Decoder::get_u8);
            match decoded {
                Ok(v) => assert!(ok && v.len() as u64 == count, "{count}"),
                Err(err) => {
                    assert!(!ok, "{count}: {err}");
                    assert_eq!(err.context, "element count exceeds the input left");
                }
            }
        }
    }

    #[test]
    fn get_array_reads_fixed_width_fields() {
        let mut d = Decoder::new(&[1, 2, 3, 4, 5]);
        assert_eq!(d.get_array::<2>().unwrap(), [1, 2]);
        assert!(d.get_array::<4>().is_err());
        assert_eq!(d.get_array::<3>().unwrap(), [3, 4, 5]);
        assert!(d.is_empty());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_sequences(values in proptest::collection::vec(any::<u64>(), 0..64),
                                    blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..16)) {
            let mut e = Encoder::new();
            e.put_u64(values.len() as u64);
            for v in &values {
                e.put_u64(*v);
            }
            e.put_u64(blobs.len() as u64);
            for b in &blobs {
                e.put_bytes(b);
            }
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            let n = d.get_u64().unwrap() as usize;
            let decoded: Vec<u64> = (0..n).map(|_| d.get_u64().unwrap()).collect();
            prop_assert_eq!(decoded, values);
            let m = d.get_u64().unwrap() as usize;
            let decoded_blobs: Vec<Vec<u8>> = (0..m).map(|_| d.get_bytes().unwrap()).collect();
            prop_assert_eq!(decoded_blobs, blobs);
            prop_assert!(d.is_empty());
        }
    }
}
