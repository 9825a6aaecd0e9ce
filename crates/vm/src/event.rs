//! Contract events (Solidity `event` / `emit`).

use crate::abi::ArgValue;
use crate::address::Address;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use std::fmt;

/// An event emitted during contract execution.
///
/// Events are collected in the [`crate::CallContext`] and surfaced in the
/// transaction [`crate::Receipt`]. Because they live in the call context
/// (not in shared storage) they are discarded automatically when a call
/// reverts, mirroring EVM semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The contract that emitted the event.
    pub contract: Address,
    /// Event name (e.g. `"HighestBidIncreased"`).
    pub name: String,
    /// Event payload.
    pub data: Vec<ArgValue>,
}

impl Event {
    /// Creates an event.
    pub fn new(contract: Address, name: impl Into<String>, data: Vec<ArgValue>) -> Self {
        Event {
            contract,
            name: name.into(),
            data,
        }
    }

    /// Canonical encoding. This is the exact byte layout receipts have
    /// always hashed inline, so receipt roots are unchanged by routing
    /// through this method.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.contract.as_bytes());
        enc.put_str(&self.name);
        enc.put_u64(self.data.len() as u64);
        for arg in &self.data {
            arg.encode(enc);
        }
    }

    /// Decodes an event written by [`Event::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Event, DecodeError> {
        Ok(Event {
            contract: Address(dec.get_array()?),
            name: dec.get_string()?,
            data: dec.get_vec(ArgValue::decode)?,
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}::{}({} args)",
            self.contract,
            self.name,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let e = Event::new(Address::from_index(1), "Voted", vec![ArgValue::Uint(2)]);
        assert_eq!(e.name, "Voted");
        assert_eq!(e.data.len(), 1);
        assert!(format!("{e}").contains("Voted"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = Event::new(
            Address::from_index(3),
            "HighestBidIncreased",
            vec![
                ArgValue::Addr(Address::from_index(4)),
                ArgValue::Uint(999),
                ArgValue::Str("note".into()),
            ],
        );
        let mut enc = Encoder::new();
        e.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Event::decode(&mut dec).unwrap(), e);
        assert!(dec.is_empty());
    }
}
