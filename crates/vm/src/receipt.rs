//! Transaction receipts.

use crate::abi::ReturnValue;
use crate::error::VmError;
use crate::event::Event;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use std::fmt;

/// The outcome of executing one transaction's contract call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionStatus {
    /// The call completed and its effects are included in the block state.
    Succeeded,
    /// The call reverted (`throw`); its tentative effects were rolled back.
    Reverted {
        /// Reason recorded at the revert site.
        reason: String,
    },
    /// The call ran out of gas; effects rolled back.
    OutOfGas,
    /// The call was malformed (unknown contract/function, bad arguments).
    Invalid {
        /// Description of the problem.
        reason: String,
    },
}

impl ExecutionStatus {
    /// Classifies a contract-level error into a receipt status.
    pub fn from_error(err: &VmError) -> ExecutionStatus {
        match err {
            VmError::Revert { reason } => ExecutionStatus::Reverted {
                reason: reason.clone(),
            },
            VmError::OutOfGas { .. } => ExecutionStatus::OutOfGas,
            VmError::Stm(e) => ExecutionStatus::Invalid {
                reason: format!("stm: {e}"),
            },
            other => ExecutionStatus::Invalid {
                reason: other.to_string(),
            },
        }
    }

    /// Stable one-byte discriminant for hashing.
    pub fn discriminant(&self) -> u8 {
        match self {
            ExecutionStatus::Succeeded => 0,
            ExecutionStatus::Reverted { .. } => 1,
            ExecutionStatus::OutOfGas => 2,
            ExecutionStatus::Invalid { .. } => 3,
        }
    }
}

impl fmt::Display for ExecutionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionStatus::Succeeded => f.write_str("succeeded"),
            ExecutionStatus::Reverted { reason } => write!(f, "reverted: {reason}"),
            ExecutionStatus::OutOfGas => f.write_str("out of gas"),
            ExecutionStatus::Invalid { reason } => write!(f, "invalid: {reason}"),
        }
    }
}

/// The receipt of one executed transaction.
///
/// Validators re-derive receipts during replay and compare them against
/// the block's published receipts; any divergence rejects the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Index of the transaction within its block.
    pub tx_index: usize,
    /// Outcome of the call.
    pub status: ExecutionStatus,
    /// Gas consumed (also consumed when the call reverted).
    pub gas_used: u64,
    /// The function's return value (Unit for reverted calls).
    pub output: ReturnValue,
    /// Events emitted by the call (empty for reverted calls).
    pub events: Vec<Event>,
}

impl Receipt {
    /// Whether the call succeeded.
    pub fn succeeded(&self) -> bool {
        matches!(self.status, ExecutionStatus::Succeeded)
    }

    /// Canonical encoding for receipt-root hashing. Event payloads are
    /// included so a validator cannot silently drop them.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.tx_index as u64);
        enc.put_u8(self.status.discriminant());
        if let ExecutionStatus::Reverted { reason } | ExecutionStatus::Invalid { reason } =
            &self.status
        {
            enc.put_str(reason);
        }
        enc.put_u64(self.gas_used);
        self.output.encode(enc);
        enc.put_u64(self.events.len() as u64);
        for event in &self.events {
            event.encode(enc);
        }
    }

    /// Decodes a receipt written by [`Receipt::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Receipt, DecodeError> {
        let tx_index = dec.get_u64()? as usize;
        let status = match dec.get_u8()? {
            0 => ExecutionStatus::Succeeded,
            1 => ExecutionStatus::Reverted {
                reason: dec.get_string()?,
            },
            2 => ExecutionStatus::OutOfGas,
            3 => ExecutionStatus::Invalid {
                reason: dec.get_string()?,
            },
            _ => {
                return Err(DecodeError {
                    context: "unknown ExecutionStatus discriminant",
                })
            }
        };
        Ok(Receipt {
            tx_index,
            status,
            gas_used: dec.get_u64()?,
            output: ReturnValue::decode(dec)?,
            events: dec.get_vec(Event::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::ArgValue;
    use crate::address::Address;

    fn receipt(status: ExecutionStatus) -> Receipt {
        Receipt {
            tx_index: 3,
            status,
            gas_used: 21_000,
            output: ReturnValue::Uint(1),
            events: vec![Event::new(
                Address::from_index(1),
                "E",
                vec![ArgValue::Bool(true)],
            )],
        }
    }

    #[test]
    fn status_classification() {
        assert_eq!(
            ExecutionStatus::from_error(&VmError::revert("double vote")),
            ExecutionStatus::Reverted {
                reason: "double vote".into()
            }
        );
        assert_eq!(
            ExecutionStatus::from_error(&VmError::OutOfGas {
                limit: 1,
                needed: 2
            }),
            ExecutionStatus::OutOfGas
        );
        assert!(matches!(
            ExecutionStatus::from_error(&VmError::UnknownContract),
            ExecutionStatus::Invalid { .. }
        ));
    }

    #[test]
    fn succeeded_flag() {
        assert!(receipt(ExecutionStatus::Succeeded).succeeded());
        assert!(!receipt(ExecutionStatus::OutOfGas).succeeded());
    }

    #[test]
    fn encoding_distinguishes_statuses() {
        let variants = [
            ExecutionStatus::Succeeded,
            ExecutionStatus::Reverted { reason: "x".into() },
            ExecutionStatus::OutOfGas,
            ExecutionStatus::Invalid { reason: "y".into() },
        ];
        let mut encodings = Vec::new();
        for v in variants {
            let mut enc = Encoder::new();
            receipt(v).encode(&mut enc);
            encodings.push(enc.into_bytes());
        }
        for i in 0..encodings.len() {
            for j in (i + 1)..encodings.len() {
                assert_ne!(encodings[i], encodings[j]);
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_statuses() {
        let variants = [
            ExecutionStatus::Succeeded,
            ExecutionStatus::Reverted {
                reason: "double vote".into(),
            },
            ExecutionStatus::OutOfGas,
            ExecutionStatus::Invalid {
                reason: "unknown fn".into(),
            },
        ];
        for v in variants {
            let r = receipt(v);
            let mut enc = Encoder::new();
            r.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(Receipt::decode(&mut dec).unwrap(), r);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn decode_rejects_unknown_status() {
        let mut enc = Encoder::new();
        enc.put_u64(0);
        enc.put_u8(9);
        let bytes = enc.into_bytes();
        assert!(Receipt::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn discriminants_are_stable() {
        assert_eq!(ExecutionStatus::Succeeded.discriminant(), 0);
        assert_eq!(
            ExecutionStatus::Reverted {
                reason: String::new()
            }
            .discriminant(),
            1
        );
        assert_eq!(ExecutionStatus::OutOfGas.discriminant(), 2);
        assert_eq!(
            ExecutionStatus::Invalid {
                reason: String::new()
            }
            .discriminant(),
            3
        );
    }

    #[test]
    fn display() {
        assert_eq!(ExecutionStatus::Succeeded.to_string(), "succeeded");
        assert!(ExecutionStatus::Reverted { reason: "r".into() }
            .to_string()
            .contains('r'));
    }
}
