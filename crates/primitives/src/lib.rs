//! Shared primitives for the concurrent-contracts workspace.
//!
//! This crate provides the low-level building blocks used by every other
//! crate in the reproduction of *Adding Concurrency to Smart Contracts*
//! (Dickerson, Gazzillo, Herlihy, Koskinen — PODC 2017):
//!
//! * [`hash`] — an in-repo SHA-256 implementation (on the CPU's SHA
//!   extensions where it has them) and the [`Hash256`] digest type used for
//!   block hashes and state roots.
//! * [`fnv`] — the FNV-1a 64-bit hash used to derive abstract-lock keys.
//!   It is deliberately *not* cryptographic: a collision merely produces a
//!   false conflict (extra serialization), never an incorrect result.
//! * [`fx`] — the FxHash multiply-xor hasher (and `FxHashMap`/`FxHashSet`
//!   aliases) for tables whose keys are already hashes, such as the lock
//!   manager's shard tables and per-transaction held-lock maps.
//! * [`codec`] — a deterministic, byte-oriented encoder/decoder used for
//!   state snapshots, schedule metadata and block serialization.
//! * [`hex`] — tiny hex formatting helpers.
//! * [`small`] — an inline small-vector ([`small::InlineVec`]) backing the
//!   short per-transaction lists of the STM hot path.
//! * [`pool`] — the persistent execution pool ([`pool::WorkerPool`]) the
//!   miners and the fork-join validator run their blocks on.
//!
//! # Example
//!
//! ```
//! use cc_primitives::hash::{sha256, Hash256};
//! use cc_primitives::codec::Encoder;
//!
//! let mut enc = Encoder::new();
//! enc.put_u64(42);
//! enc.put_bytes(b"ballot");
//! let digest: Hash256 = sha256(enc.as_slice());
//! assert_eq!(digest.to_hex().len(), 64);
//! ```

// `unsafe` is denied by default. The exemptions are the raw shared
// tables in [`fx`], whose accesses are serialized by the STM's abstract
// locks plus a word-sized per-shard latch (see `fx::ShardedRawTable`),
// the one lifetime erasure in [`pool`] that lends a borrowed job to parked
// threads (argued at the block), and the call in [`hash`] into the
// SHA-extension kernel, made right after the CPU was found to have every
// feature the kernel enables (the kernel's body is safe code).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fnv;
pub mod fx;
pub mod hash;
pub mod hex;
pub mod pool;
pub mod small;
pub mod ts;

pub use hash::{sha256, Hash256};
