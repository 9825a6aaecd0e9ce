//! The repo's one node benchmark (see `benchmark/README.md`).
//!
//! Every workload is rounds of one script on fresh nodes — *produce*
//! (`Node::submit` every transaction, then mine until the pool is
//! empty), *follow* (a second node replays the produced chain) and, on
//! durable workloads, *recover* (`Node::recover` of the producer's
//! directory) — driven through the public API only, with the outputs
//! checked after every round. The end-to-end run measures with tracing
//! off; the traced run adds spans around the `Node` calls and per-layer
//! probes after them.

pub mod openloop;
pub mod phases;
pub mod probes;
pub mod report;
pub mod round;
pub mod stats;
pub mod trace;
pub mod workloads;
