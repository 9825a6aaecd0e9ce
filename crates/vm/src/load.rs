//! Synthetic interpretation load.
//!
//! The paper's prototype executed hand-translated Scala contracts on the
//! JVM through ScalaSTM with JIT compilation disabled: one transaction
//! costs tens to hundreds of microseconds, so a 200-transaction block runs
//! for tens of milliseconds and the coordination cost of speculation (lock
//! manager, thread pool, schedule capture) is a small fraction of the
//! work. A native Rust hash-map operation costs tens of *nano*seconds; at
//! that scale no concurrency scheme can pay for its own bookkeeping and
//! every speedup would collapse to ~0.2×, which tells us nothing about the
//! paper's claims.
//!
//! To preserve the workload's cost model we therefore charge a small,
//! deterministic amount of CPU work per unit of *storage/computation gas*
//! ([`crate::GasSchedule::work_per_gas`], default 2 "mix" iterations per
//! gas). This stands in for EVM/JVM interpretation of the contract body.
//! It is applied for storage operations, calls, logs and explicit
//! computation steps — not for the fixed per-transaction base charge — so
//! conflicting transactions still serialize over the bulk of their work
//! exactly as they would on the paper's substrate.
//!
//! # Cost model
//!
//! A unit of non-base gas costs `work_per_gas` mix iterations, so one
//! `sstore` (5 000 gas) is 10 000 iterations at the default. That makes
//! the stand-in ≥ 97 % of a serial transaction: on a 2-vCPU x86-64 host a
//! serial 200-transaction Mixed block executes in 16.3–26.5 ms with the
//! load and in 0.33–0.56 ms without it. Every speedup measured on the
//! default schedule is therefore a speedup of the paper's cost model; the
//! engine's own coordination shows only on a schedule built with
//! [`crate::GasSchedule::without_synthetic_load`].

use std::hint::black_box;

/// Burns a deterministic amount of CPU proportional to `units`, using an
/// integer mixing loop the optimizer cannot elide.
///
/// One unit is roughly a nanosecond on contemporary hardware; callers pick
/// the scale via [`crate::GasSchedule::work_per_gas`].
#[inline]
pub fn synthetic_load(units: u64) {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..units {
        // SplitMix64-style mixing: cheap, branch-free, dependency-carried
        // so it cannot be vectorized away.
        acc = acc.wrapping_add(0x9e37_79b9_7f4a_7c15 ^ i);
        acc ^= acc >> 30;
        acc = acc.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        acc ^= acc >> 27;
    }
    black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_units_is_a_noop() {
        synthetic_load(0);
    }

    #[test]
    fn load_scales_roughly_linearly() {
        use std::time::Instant;
        let start = Instant::now();
        synthetic_load(200_000);
        let small = start.elapsed();
        let start = Instant::now();
        synthetic_load(2_000_000);
        let large = start.elapsed();
        // Very loose bound: 10x the work should take clearly more time.
        assert!(large > small);
    }
}
