//! Gas metering.
//!
//! Smart-contract languages are Turing-complete; Ethereum bounds execution
//! by charging *gas* for every virtual-machine step and aborting the call
//! when the limit is exhausted. The paper relies on this bound in its
//! correctness argument (§5: "the Ethereum gas restriction ensures this
//! sequence is finite"), and the block-size sweep in the evaluation is
//! framed in terms of the per-block gas limit (~200 transactions). The
//! reproduction therefore meters gas for every storage operation and call.

use crate::error::VmError;
use std::fmt;

/// Per-operation gas prices, loosely modelled on the Ethereum fee schedule
/// (exact values are irrelevant to the concurrency results; what matters
/// is that execution cost is dominated by storage operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GasSchedule {
    /// Base charge for any transaction (Ethereum: 21 000).
    pub tx_base: u64,
    /// Reading a storage slot.
    pub sload: u64,
    /// Writing a storage slot.
    pub sstore: u64,
    /// Calling another contract.
    pub call: u64,
    /// Emitting an event.
    pub log: u64,
    /// A unit of plain computation (arithmetic, branching).
    pub step: u64,
    /// Synthetic interpretation work (mix-loop iterations) charged per unit
    /// of non-base gas, standing in for the cost of interpreting contract
    /// byte code on the paper's JVM substrate. See [`crate::load`].
    pub work_per_gas: u64,
}

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            tx_base: 21_000,
            sload: 200,
            sstore: 5_000,
            call: 700,
            log: 375,
            step: 3,
            work_per_gas: 2,
        }
    }
}

impl GasSchedule {
    /// A schedule where everything costs zero; useful in unit tests that
    /// are not about gas.
    pub fn free() -> Self {
        GasSchedule {
            tx_base: 0,
            sload: 0,
            sstore: 0,
            call: 0,
            log: 0,
            step: 0,
            work_per_gas: 0,
        }
    }

    /// The default fee schedule with the synthetic interpretation load
    /// disabled (micro-tests of pure bookkeeping).
    pub fn without_synthetic_load() -> Self {
        GasSchedule {
            work_per_gas: 0,
            ..GasSchedule::default()
        }
    }
}

/// Tracks gas consumption for one transaction and enforces the limit: a
/// limit and a counter. What an operation costs is priced from
/// [`GasMeter::schedule`] by the one caller that charges,
/// [`crate::CallContext`].
///
/// # Example
///
/// ```
/// use cc_vm::{GasMeter, GasSchedule};
/// let mut meter = GasMeter::new(30_000, GasSchedule::default());
/// meter.charge(meter.schedule().tx_base).unwrap();
/// meter.charge(meter.schedule().sload).unwrap();
/// assert_eq!(meter.used(), 21_200);
/// assert!(meter.remaining() < 9_000);
/// ```
#[derive(Debug, Clone)]
pub struct GasMeter {
    limit: u64,
    used: u64,
    schedule: GasSchedule,
}

impl GasMeter {
    /// Creates a meter with the given limit and schedule.
    pub fn new(limit: u64, schedule: GasSchedule) -> Self {
        GasMeter {
            limit,
            used: 0,
            schedule,
        }
    }

    /// The gas limit of this execution.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Gas still available.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Charges an arbitrary amount.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit would be exceeded; the
    /// caller must abort the contract call (the overdrawn amount remains
    /// recorded as used, mirroring Ethereum's "all gas consumed" rule for
    /// `throw`, so a transaction whose meter ends overdrawn fails even when
    /// a caller swallowed a nested call's error).
    pub fn charge(&mut self, amount: u64) -> Result<(), VmError> {
        self.used = self.used.saturating_add(amount);
        if self.used > self.limit {
            return Err(VmError::OutOfGas {
                limit: self.limit,
                needed: self.used,
            });
        }
        Ok(())
    }
}

impl fmt::Display for GasMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gas {}/{}", self.used, self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let s = GasSchedule::default();
        let mut m = GasMeter::new(100_000, s);
        for amount in [s.tx_base, s.sload, s.sstore, s.call, s.log, s.step * 10] {
            m.charge(amount).unwrap();
        }
        assert_eq!(m.used(), 21_000 + 200 + 5_000 + 700 + 375 + 30);
        assert_eq!(m.remaining(), 100_000 - m.used());
    }

    #[test]
    fn out_of_gas_is_detected() {
        let s = GasSchedule::default();
        let mut m = GasMeter::new(21_100, s);
        m.charge(s.tx_base).unwrap();
        let err = m.charge(s.sstore).unwrap_err();
        assert!(matches!(err, VmError::OutOfGas { .. }));
        assert_eq!(m.remaining(), 0);
    }

    #[test]
    fn free_schedule_never_runs_out() {
        let mut m = GasMeter::new(0, GasSchedule::free());
        for _ in 0..100 {
            m.charge(m.schedule().sstore).unwrap();
        }
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn display() {
        let m = GasMeter::new(10, GasSchedule::free());
        assert_eq!(format!("{m}"), "gas 0/10");
    }
}
