//! Block validation: one replay kernel (`replay`) in one order, the
//! fork-join program of the graph a block's lock profiles derive, onto one
//! target, the pending overlay — [`crate::Engine::validate`] is a
//! one-block pending chain, the node's followers a longer one — and the
//! verdict (`checks`).

pub(crate) mod checks;
pub(crate) mod replay;

// The kernel on the serial preset's one worker and on both strategies'
// pools, one test module each.
#[cfg(test)]
mod parallel;
#[cfg(test)]
mod serial;
