//! The open-loop arrival schedule and its latency accounting.
//!
//! Arrivals are due on a fixed schedule (`i / rate`) whatever the system
//! does, and each transaction's latency runs from the moment it was
//! **due** — not from when the generator got round to sending it — to
//! the moment it became durable. A stall therefore charges every
//! arrival it delayed, and how late the generator ran is reported
//! beside the latencies.

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Offered arrivals per second.
    pub rate_per_s: f64,
    /// Total arrivals.
    pub count: usize,
}

impl Schedule {
    /// When arrival `i` is due, in nanoseconds after the phase starts.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// How many arrivals are due at `now_ns`, given `admitted` already
    /// were: the generator admits every one of them before it lets the
    /// system work again.
    pub fn due_by(&self, now_ns: u64, admitted: usize) -> usize {
        let mut due = admitted;
        while due < self.count && self.due_ns(due) <= now_ns {
            due += 1;
        }
        due - admitted
    }
}

/// Per-arrival timestamps of one open-loop phase.
#[derive(Debug, Clone)]
pub struct LatencyLog {
    due_ns: Vec<u64>,
    admitted_ns: Vec<Option<u64>>,
    done_ns: Vec<Option<u64>>,
}

impl LatencyLog {
    /// An empty log for every arrival of `schedule`.
    pub fn new(schedule: &Schedule) -> Self {
        LatencyLog {
            due_ns: (0..schedule.count).map(|i| schedule.due_ns(i)).collect(),
            admitted_ns: vec![None; schedule.count],
            done_ns: vec![None; schedule.count],
        }
    }

    /// Arrival `i` was handed to the system at `now_ns`.
    pub fn admit(&mut self, i: usize, now_ns: u64) {
        self.admitted_ns[i] = Some(now_ns);
    }

    /// Arrival `i` became durable at `now_ns`.
    pub fn complete(&mut self, i: usize, now_ns: u64) {
        self.done_ns[i] = Some(now_ns);
    }

    /// Due-to-durable latency of every completed arrival, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.since_due_ms(&self.done_ns)
    }

    /// How long after its due time each admitted arrival was sent, ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.since_due_ms(&self.admitted_ns)
    }

    /// Arrivals that never became durable.
    pub fn unfinished(&self) -> usize {
        self.done_ns.iter().filter(|d| d.is_none()).count()
    }

    fn since_due_ms(&self, stamps: &[Option<u64>]) -> Vec<f64> {
        stamps
            .iter()
            .zip(&self.due_ns)
            .filter_map(|(stamp, due)| stamp.map(|at| at.saturating_sub(*due) as f64 / 1e6))
            .collect()
    }
}
