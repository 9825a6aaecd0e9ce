//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-name summary derived from them.
//!
//! A span is `{name, start_ns, end_ns, parent, round, block}`; spans of
//! one round share its round number. Nothing inside the program under
//! test is instrumented: every span starts and ends in the benchmark's
//! own files. A disabled tracer records nothing (one branch per call),
//! which is how the end-to-end run measures with tracing off.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// `block` value of a span that is not about one block.
pub const NO_BLOCK: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `node.mine_pending`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round the span belongs to.
    pub round: u32,
    /// The block the span is about, or [`NO_BLOCK`].
    pub block: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (see [`Tracer::enter`]).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the round number stamped on every span opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, block: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            block,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(Some(id))
    }

    /// Closes `span`, and with it any span opened inside it that is
    /// still open (an error path may return past its own `exit`).
    /// Returns the span's duration in nanoseconds (0 when disabled).
    pub fn exit(&mut self, span: SpanId) -> u64 {
        let Some(id) = span.0 else { return 0 };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = now;
            if open == id {
                break;
            }
        }
        self.spans[id as usize].duration_ns()
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// The span name.
    pub name: &'static str,
    /// How many spans carried it.
    pub count: u64,
    /// Total time inside those spans, µs.
    pub busy_us: f64,
    /// `busy_us / count`.
    pub us_per_op: f64,
    /// Busy time as a share of the parents' total duration (1.0 for
    /// root spans).
    pub share_of_parent: f64,
    /// Busy time minus the time covered by child spans, µs.
    pub self_us: f64,
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children of one parent never overlap (the tracer
/// is single-threaded and spans nest), so the covered part is the sum
/// of the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut self_ns[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

/// Groups spans by name (sorted) into [`LayerSummary`] rows.
pub fn summarize(spans: &[Span]) -> Vec<LayerSummary> {
    #[derive(Default)]
    struct Acc {
        count: u64,
        busy_ns: u64,
        self_ns: u64,
        parent_ns: u64,
        rooted: bool,
    }
    let self_ns = self_times_ns(spans);
    // A parent's duration is counted once per (child name, parent), not
    // once per child, so `share_of_parent` of 128 blocks under one
    // pipeline span is their sum over that one span.
    let mut seen: BTreeSet<(&'static str, u32)> = BTreeSet::new();
    let mut by_name: BTreeMap<&'static str, Acc> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&self_ns) {
        let acc = by_name.entry(span.name).or_default();
        acc.count += 1;
        acc.busy_ns += span.duration_ns();
        acc.self_ns += own;
        match span.parent {
            Some(parent) => {
                if seen.insert((span.name, parent)) {
                    acc.parent_ns += spans[parent as usize].duration_ns();
                }
            }
            None => acc.rooted = true,
        }
    }
    by_name
        .into_iter()
        .map(|(name, acc)| {
            let busy_us = acc.busy_ns as f64 / 1e3;
            LayerSummary {
                name,
                count: acc.count,
                busy_us,
                us_per_op: busy_us / acc.count as f64,
                share_of_parent: if acc.rooted || acc.parent_ns == 0 {
                    1.0
                } else {
                    acc.busy_ns as f64 / acc.parent_ns as f64
                },
                self_us: acc.self_ns as f64 / 1e3,
            }
        })
        .collect()
}
