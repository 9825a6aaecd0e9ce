//! Block validation: one replay kernel (`replay`) onto one target, the
//! pending overlay — [`crate::Engine::validate`] is a one-block pending
//! chain, the node's followers a longer one — and the verdict
//! (`checks`).

pub(crate) mod checks;
pub(crate) mod replay;

// The kernel's two orders as the engines use them, one test module each.
#[cfg(test)]
mod parallel;
#[cfg(test)]
mod serial;
