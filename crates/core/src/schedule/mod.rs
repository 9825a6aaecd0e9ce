//! Schedule capture: from lock profiles to a happens-before graph and an
//! equivalent serial order.

mod graph;

pub use graph::{HappensBeforeGraph, Reachability};
