//! The durability stage of both pipelines: one thread that seals blocks in
//! hand-off order and acknowledges each.

use crate::error::CoreError;
use cc_ledger::Block;
use cc_primitives::pool::panic_message;
use std::sync::mpsc;
use std::thread;

/// A seal acknowledgement from the durability worker: block number plus
/// the seal outcome (`io::Error` rendered, it is not `Clone`).
pub(super) type SealAck = (u64, Result<(), String>);

/// The channels to a running durability worker and the handle to join it.
pub(super) struct SealWorker {
    /// Bounded hand-off: a full channel is the pipeline's back-pressure.
    pub(super) work: mpsc::SyncSender<Block>,
    /// Acknowledgements, in hand-off order.
    pub(super) acks: mpsc::Receiver<SealAck>,
    pub(super) handle: thread::JoinHandle<()>,
}

impl SealWorker {
    /// Starts a worker that applies `seal` to every block handed to it,
    /// with room for `max_in_flight` blocks handed off but not yet
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] if the thread cannot be started.
    pub(super) fn start<S>(max_in_flight: usize, seal: S) -> Result<Self, CoreError>
    where
        S: Fn(&Block) -> Result<(), String> + Send + 'static,
    {
        let (work, work_rx) = mpsc::sync_channel::<Block>(max_in_flight.max(1) - 1);
        let (ack_tx, acks) = mpsc::channel::<SealAck>();
        let handle = thread::Builder::new()
            .name("cc-durability".into())
            .spawn(move || {
                // In-order commit: one worker, FIFO channel. Stop at the
                // first failure — later seals would lie about durability.
                for block in work_rx {
                    let sealed = seal(&block);
                    let failed = sealed.is_err();
                    if ack_tx.send((block.header.number, sealed)).is_err() || failed {
                        return;
                    }
                }
            })
            .map_err(|e| {
                CoreError::durability(format!("starting the durability worker failed: {e}"))
            })?;
        Ok(SealWorker { work, acks, handle })
    }
}

/// Joins the worker once its channels are drained. A worker that panicked
/// stopped acknowledging, so whatever it had in hand is not durable: the
/// caller treats the returned reason like a failed seal.
pub(super) fn join(handle: thread::JoinHandle<()>) -> Result<(), String> {
    handle.join().map_err(|payload| {
        format!(
            "the durability worker panicked: {}",
            panic_message(payload.as_ref())
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_primitives::hash::Hash256;

    fn block(number: u64) -> Block {
        Block::build(
            Hash256::ZERO,
            number,
            Vec::new(),
            Vec::new(),
            Hash256::ZERO,
            None,
        )
    }

    #[test]
    fn seals_in_order_and_stops_at_the_first_failure() {
        let worker = SealWorker::start(2, |block| {
            if block.header.number == 2 {
                Err("disk full".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap();
        for number in 1..=2 {
            worker.work.send(block(number)).unwrap();
        }
        // The worker is gone after the failed seal; a later hand-off is
        // refused or dropped unsealed, never acknowledged.
        let _ = worker.work.send(block(3));
        drop(worker.work);
        let acks: Vec<SealAck> = worker.acks.iter().collect();
        assert_eq!(acks, vec![(1, Ok(())), (2, Err("disk full".to_string()))]);
        join(worker.handle).unwrap();
    }

    #[test]
    fn a_panicking_worker_is_a_reason_not_a_panic() {
        let worker = SealWorker::start(1, |block| {
            assert_ne!(block.header.number, 2, "seal blew up");
            Ok(())
        })
        .unwrap();
        worker.work.send(block(1)).unwrap();
        let _ = worker.work.send(block(2));
        drop(worker.work);
        // The channel closes when the worker unwinds: block 2 is never
        // acknowledged, so the caller's durable prefix stops at 1.
        let acks: Vec<SealAck> = worker.acks.iter().collect();
        assert_eq!(acks, vec![(1, Ok(()))]);
        let reason = join(worker.handle).unwrap_err();
        assert!(reason.contains("durability worker panicked"), "{reason}");
        assert!(reason.contains("seal blew up"), "{reason}");
    }
}
