//! Block validation: one replay kernel (`replay`), whose cells are every
//! way a block is validated — [`crate::Engine::validate`] on the base
//! world, the node's pending chain on an overlay — and the verdict
//! (`checks`).

pub(crate) mod checks;
pub(crate) mod replay;

// The kernel's two orders as the engines use them, one test module each.
#[cfg(test)]
mod parallel;
#[cfg(test)]
mod serial;
