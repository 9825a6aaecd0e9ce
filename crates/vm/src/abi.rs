//! Call descriptors: function names, argument values and return values.
//!
//! Transactions in a block are *data* — they must be stored, hashed and
//! replayed by validators — so calls are described by a small dynamic
//! value type rather than native Rust method calls.

use crate::address::Address;
use crate::error::VmError;
use crate::value::Wei;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use std::fmt;

/// A dynamically-typed argument value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgValue {
    /// An unsigned integer (covers Solidity `uint`).
    Uint(u128),
    /// A boolean.
    Bool(bool),
    /// An account or contract address.
    Addr(Address),
    /// A 32-byte opaque value (Solidity `bytes32`), e.g. a document hash
    /// or proposal name.
    Bytes32([u8; 32]),
    /// A UTF-8 string.
    Str(String),
}

impl ArgValue {
    /// Interprets the value as `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the variant is not `Uint`.
    pub fn as_uint(&self) -> Result<u128, VmError> {
        match self {
            ArgValue::Uint(v) => Ok(*v),
            other => Err(VmError::BadArguments {
                expected: format!("uint, got {other:?}"),
            }),
        }
    }

    /// Interprets the value as an address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the variant is not `Addr`.
    pub fn as_address(&self) -> Result<Address, VmError> {
        match self {
            ArgValue::Addr(a) => Ok(*a),
            other => Err(VmError::BadArguments {
                expected: format!("address, got {other:?}"),
            }),
        }
    }

    /// Interprets the value as a bool.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the variant is not `Bool`.
    pub fn as_bool(&self) -> Result<bool, VmError> {
        match self {
            ArgValue::Bool(b) => Ok(*b),
            other => Err(VmError::BadArguments {
                expected: format!("bool, got {other:?}"),
            }),
        }
    }

    /// Interprets the value as 32 opaque bytes.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the variant is not `Bytes32`.
    pub fn as_bytes32(&self) -> Result<[u8; 32], VmError> {
        match self {
            ArgValue::Bytes32(b) => Ok(*b),
            other => Err(VmError::BadArguments {
                expected: format!("bytes32, got {other:?}"),
            }),
        }
    }

    /// Interprets the value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the variant is not `Str`.
    pub fn as_str(&self) -> Result<&str, VmError> {
        match self {
            ArgValue::Str(s) => Ok(s),
            other => Err(VmError::BadArguments {
                expected: format!("string, got {other:?}"),
            }),
        }
    }

    /// Canonical encoding (used when hashing transactions into blocks).
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            ArgValue::Uint(v) => {
                enc.put_u8(0);
                enc.put_u128(*v);
            }
            ArgValue::Bool(b) => {
                enc.put_u8(1);
                enc.put_bool(*b);
            }
            ArgValue::Addr(a) => {
                enc.put_u8(2);
                enc.put_raw(a.as_bytes());
            }
            ArgValue::Bytes32(b) => {
                enc.put_u8(3);
                enc.put_raw(b);
            }
            ArgValue::Str(s) => {
                enc.put_u8(4);
                enc.put_str(s);
            }
        }
    }

    /// Decodes a value previously written by [`ArgValue::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ArgValue, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(ArgValue::Uint(dec.get_u128()?)),
            1 => Ok(ArgValue::Bool(dec.get_bool()?)),
            2 => Ok(ArgValue::Addr(Address(dec.get_array()?))),
            3 => Ok(ArgValue::Bytes32(dec.get_array()?)),
            4 => Ok(ArgValue::Str(dec.get_string()?)),
            _ => Err(DecodeError {
                context: "unknown ArgValue tag",
            }),
        }
    }
}

impl From<u128> for ArgValue {
    fn from(value: u128) -> Self {
        ArgValue::Uint(value)
    }
}

impl From<u64> for ArgValue {
    fn from(value: u64) -> Self {
        ArgValue::Uint(u128::from(value))
    }
}

impl From<bool> for ArgValue {
    fn from(value: bool) -> Self {
        ArgValue::Bool(value)
    }
}

impl From<Address> for ArgValue {
    fn from(value: Address) -> Self {
        ArgValue::Addr(value)
    }
}

impl From<&str> for ArgValue {
    fn from(value: &str) -> Self {
        ArgValue::Str(value.to_string())
    }
}

/// The value returned by a contract function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ReturnValue {
    /// Function returned nothing.
    #[default]
    Unit,
    /// An unsigned integer.
    Uint(u128),
    /// A boolean.
    Bool(bool),
    /// An address.
    Addr(Address),
    /// 32 opaque bytes.
    Bytes32([u8; 32]),
    /// An amount of currency.
    Amount(Wei),
}

impl ReturnValue {
    /// Interprets the return value as `u128`, or 0 for `Unit`.
    pub fn as_uint(&self) -> Option<u128> {
        match self {
            ReturnValue::Uint(v) => Some(*v),
            ReturnValue::Amount(w) => Some(w.amount()),
            _ => None,
        }
    }

    /// Interprets the return value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ReturnValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Canonical encoding (used when hashing receipts).
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            ReturnValue::Unit => enc.put_u8(0),
            ReturnValue::Uint(v) => {
                enc.put_u8(1);
                enc.put_u128(*v);
            }
            ReturnValue::Bool(b) => {
                enc.put_u8(2);
                enc.put_bool(*b);
            }
            ReturnValue::Addr(a) => {
                enc.put_u8(3);
                enc.put_raw(a.as_bytes());
            }
            ReturnValue::Bytes32(b) => {
                enc.put_u8(4);
                enc.put_raw(b);
            }
            ReturnValue::Amount(w) => {
                enc.put_u8(5);
                enc.put_u128(w.amount());
            }
        }
    }

    /// Decodes a value previously written by [`ReturnValue::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ReturnValue, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(ReturnValue::Unit),
            1 => Ok(ReturnValue::Uint(dec.get_u128()?)),
            2 => Ok(ReturnValue::Bool(dec.get_bool()?)),
            3 => Ok(ReturnValue::Addr(Address(dec.get_array()?))),
            4 => Ok(ReturnValue::Bytes32(dec.get_array()?)),
            5 => Ok(ReturnValue::Amount(Wei::new(dec.get_u128()?))),
            _ => Err(DecodeError {
                context: "unknown ReturnValue tag",
            }),
        }
    }
}

/// A call descriptor: the function to invoke and its arguments.
///
/// # Example
///
/// ```
/// use cc_vm::{CallData, ArgValue};
/// let call = CallData::new("vote", vec![ArgValue::Uint(2)]);
/// assert_eq!(call.function, "vote");
/// assert_eq!(call.arg(0).unwrap().as_uint().unwrap(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallData {
    /// Name of the contract function.
    pub function: String,
    /// Positional arguments.
    pub args: Vec<ArgValue>,
}

impl CallData {
    /// Creates a call descriptor.
    pub fn new(function: impl Into<String>, args: Vec<ArgValue>) -> Self {
        CallData {
            function: function.into(),
            args,
        }
    }

    /// A call with no arguments.
    pub fn nullary(function: impl Into<String>) -> Self {
        CallData::new(function, Vec::new())
    }

    /// Returns the `i`-th argument.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadArguments`] if the argument is missing.
    pub fn arg(&self, i: usize) -> Result<&ArgValue, VmError> {
        self.args.get(i).ok_or_else(|| VmError::BadArguments {
            expected: format!("at least {} argument(s) to `{}`", i + 1, self.function),
        })
    }

    /// Canonical encoding used for transaction hashing.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.function);
        enc.put_u64(self.args.len() as u64);
        for a in &self.args {
            a.encode(enc);
        }
    }

    /// Decodes a call descriptor written by [`CallData::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<CallData, DecodeError> {
        let function = dec.get_string()?;
        let args = dec.get_vec(ArgValue::decode)?;
        Ok(CallData { function, args })
    }
}

impl fmt::Display for CallData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a:?}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_accessors() {
        assert_eq!(ArgValue::Uint(9).as_uint().unwrap(), 9);
        assert!(ArgValue::Bool(true).as_bool().unwrap());
        let a = Address::from_index(1);
        assert_eq!(ArgValue::Addr(a).as_address().unwrap(), a);
        assert_eq!(ArgValue::Bytes32([7; 32]).as_bytes32().unwrap(), [7; 32]);
        assert_eq!(ArgValue::Str("hi".into()).as_str().unwrap(), "hi");
        assert!(ArgValue::Uint(1).as_bool().is_err());
        assert!(ArgValue::Bool(false).as_uint().is_err());
        assert!(ArgValue::Uint(1).as_address().is_err());
        assert!(ArgValue::Uint(1).as_bytes32().is_err());
        assert!(ArgValue::Uint(1).as_str().is_err());
    }

    #[test]
    fn from_impls() {
        assert_eq!(ArgValue::from(5u64), ArgValue::Uint(5));
        assert_eq!(ArgValue::from(5u128), ArgValue::Uint(5));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".into()));
    }

    #[test]
    fn calldata_encode_decode_roundtrip() {
        let call = CallData::new(
            "delegate",
            vec![
                ArgValue::Addr(Address::from_index(7)),
                ArgValue::Uint(3),
                ArgValue::Bool(false),
                ArgValue::Bytes32([9; 32]),
                ArgValue::Str("memo".into()),
            ],
        );
        let mut enc = Encoder::new();
        call.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let decoded = CallData::decode(&mut dec).unwrap();
        assert_eq!(decoded, call);
        assert!(dec.is_empty());
    }

    #[test]
    fn missing_argument_is_reported() {
        let call = CallData::nullary("withdraw");
        assert!(matches!(call.arg(0), Err(VmError::BadArguments { .. })));
    }

    #[test]
    fn return_value_accessors() {
        assert_eq!(ReturnValue::Uint(4).as_uint(), Some(4));
        assert_eq!(ReturnValue::Amount(Wei::new(6)).as_uint(), Some(6));
        assert_eq!(ReturnValue::Unit.as_uint(), None);
        assert_eq!(ReturnValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ReturnValue::Uint(1).as_bool(), None);
        assert_eq!(ReturnValue::default(), ReturnValue::Unit);
    }

    #[test]
    fn return_value_encoding_is_disjoint() {
        let variants = [
            ReturnValue::Unit,
            ReturnValue::Uint(1),
            ReturnValue::Bool(true),
            ReturnValue::Addr(Address::from_index(1)),
            ReturnValue::Bytes32([1; 32]),
            ReturnValue::Amount(Wei::new(1)),
        ];
        let encodings: Vec<Vec<u8>> = variants
            .iter()
            .map(|v| {
                let mut e = Encoder::new();
                v.encode(&mut e);
                e.into_bytes()
            })
            .collect();
        for i in 0..encodings.len() {
            for j in (i + 1)..encodings.len() {
                assert_ne!(encodings[i], encodings[j]);
            }
        }
    }

    #[test]
    fn return_value_encode_decode_roundtrip() {
        let variants = [
            ReturnValue::Unit,
            ReturnValue::Uint(77),
            ReturnValue::Bool(false),
            ReturnValue::Addr(Address::from_index(9)),
            ReturnValue::Bytes32([3; 32]),
            ReturnValue::Amount(Wei::new(1_000)),
        ];
        for v in variants {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(ReturnValue::decode(&mut dec).unwrap(), v);
            assert!(dec.is_empty());
        }

        let mut enc = Encoder::new();
        enc.put_u8(99);
        let bytes = enc.into_bytes();
        assert!(ReturnValue::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn display_calldata() {
        let call = CallData::new("vote", vec![ArgValue::Uint(2)]);
        let s = format!("{call}");
        assert!(s.starts_with("vote("));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut enc = Encoder::new();
        enc.put_u8(250);
        let bytes = enc.into_bytes();
        assert!(ArgValue::decode(&mut Decoder::new(&bytes)).is_err());
    }
}
