//! Schedule capture: from lock profiles to a happens-before graph and an
//! equivalent serial order.

mod graph;

pub(crate) use graph::{check_serial_order, for_each_consecutive_run_pair};
pub use graph::{HappensBeforeGraph, Reachability};
