//! The happens-before graph over a block's transactions.
//!
//! Paper §4: every abstract lock carries a use counter; a committing
//! speculative action increments the counters of the locks it holds and
//! publishes the resulting lock profile. "If an abstract lock has counter
//! value 1 in A's profile and 2 in C's profile, then C must be scheduled
//! after A." This module reconstructs that ordering — on the miner's side
//! from the profiles it just committed, on every validator's side from the
//! profiles the block publishes ([`from_metadata`]): "from this profile
//! information, validators can construct a fork-join program".
//!
//! Two representation choices keep the schedule pipeline cheap per
//! transaction (schedules ship inside blocks and are re-validated by every
//! node, so their size and build cost are consensus-wide per-op costs):
//!
//! * **Transitively-reduced construction.** [`from_profiles`] does *not*
//!   materialize every ordered conflicting pair per lock (O(h²) edges for
//!   h holders of a hot lock). Each lock's holders, sorted by counter, are
//!   grouped into maximal *runs* of mutually-commuting modes, and edges are
//!   added only between consecutive runs. This is the per-lock transitive
//!   reduction: an exclusive chain of h holders publishes h−1 edges
//!   instead of h(h−1)/2, and mixed modes produce writer→readers→writer
//!   fans. Reachability — and therefore the critical path — is exactly
//!   that of the all-pairs graph (the invariant is
//!   *reachability-preserving*, not edge-preserving; a property test in
//!   `tests/schedule_reduction.rs` checks it against an all-pairs
//!   reference).
//! * **CSR adjacency.** Successors and predecessors are flat sorted arrays
//!   plus per-vertex offsets (compressed sparse row) instead of one
//!   `BTreeSet` per vertex, with duplicate edges removed once at build
//!   time. The topological order is computed **once** per graph and reused
//!   by [`topological_sort`], [`critical_path`], [`reachability`] and
//!   [`into_metadata`] — a mined block used to run Kahn's algorithm three
//!   times and the validator a fourth.
//!
//! [`from_profiles`]: HappensBeforeGraph::from_profiles
//! [`from_metadata`]: HappensBeforeGraph::from_metadata
//! [`topological_sort`]: HappensBeforeGraph::topological_sort
//! [`critical_path`]: HappensBeforeGraph::critical_path
//! [`reachability`]: HappensBeforeGraph::reachability
//! [`into_metadata`]: HappensBeforeGraph::into_metadata

use crate::error::CoreError;
use cc_ledger::{ProfileRecord, ScheduleMetadata};
use cc_stm::{LockMode, LockProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A directed acyclic graph whose vertices are the block's transaction
/// indices and whose edges order conflicting transactions according to the
/// miner's commit order.
///
/// The graph is immutable once built: constructors take the full edge set
/// (or derive it from lock profiles), deduplicate it, lay both adjacency
/// directions out in CSR form and compute the canonical topological order
/// up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HappensBeforeGraph {
    n: usize,
    /// Successor targets, grouped by source vertex, sorted within a group.
    succs: Vec<u32>,
    /// `succs[succ_offsets[v]..succ_offsets[v+1]]` are `v`'s successors.
    succ_offsets: Vec<u32>,
    /// Predecessor sources, grouped by target vertex, sorted within a group.
    preds: Vec<u32>,
    /// `preds[pred_offsets[v]..pred_offsets[v+1]]` are `v`'s predecessors.
    pred_offsets: Vec<u32>,
    /// The canonical (smallest-ready-index-first) topological order, or
    /// `None` if the edge set is cyclic (possible only for corrupted
    /// input — profiles produced by an actual speculative execution are
    /// acyclic because counter order is commit order).
    topo: Option<Vec<usize>>,
}

impl HappensBeforeGraph {
    /// Creates a graph over `n` transactions with no edges.
    pub fn new(n: usize) -> Self {
        Self::build(n, Vec::new())
    }

    /// Builds a graph over `n` transactions from an explicit edge list.
    /// Self-edges and out-of-range endpoints are ignored; duplicates are
    /// removed.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let list: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b && a < n && b < n)
            .map(|(a, b)| (a as u32, b as u32))
            .collect();
        Self::build(n, list)
    }

    /// Drops self-edges, deduplicates, lays the edges out in CSR form and
    /// computes the canonical topological order once. (A profile carrying
    /// two entries for the same lock puts one transaction in two adjacent
    /// runs of `from_profiles`, which would otherwise order the
    /// transaction against itself.)
    fn build(n: usize, mut edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(n <= u32::MAX as usize, "blocks index transactions in u32");
        edges.retain(|&(a, b)| a != b);
        edges.sort_unstable();
        edges.dedup();

        let mut succ_offsets = vec![0u32; n + 1];
        for &(a, _) in &edges {
            succ_offsets[a as usize + 1] += 1;
        }
        for v in 0..n {
            succ_offsets[v + 1] += succ_offsets[v];
        }
        // `edges` is sorted by (source, target), so the targets are already
        // grouped by source and sorted within each group.
        let succs: Vec<u32> = edges.iter().map(|&(_, b)| b).collect();

        let mut pred_offsets = vec![0u32; n + 1];
        for &(_, b) in &edges {
            pred_offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            pred_offsets[v + 1] += pred_offsets[v];
        }
        let mut cursor: Vec<u32> = pred_offsets[..n].to_vec();
        let mut preds = vec![0u32; edges.len()];
        for &(a, b) in &edges {
            let slot = &mut cursor[b as usize];
            preds[*slot as usize] = a;
            *slot += 1;
        }
        // Sources arrive in ascending order (edges are sorted), so each
        // predecessor group is sorted as well.

        let mut graph = HappensBeforeGraph {
            n,
            succs,
            succ_offsets,
            preds,
            pred_offsets,
            topo: None,
        };
        graph.topo = graph.compute_topo();
        graph
    }

    /// Deterministic Kahn's algorithm: always pick the smallest ready
    /// index, so the published serial order is reproducible. Runs once at
    /// build time; every later consumer reuses the cached order.
    fn compute_topo(&self) -> Option<Vec<usize>> {
        let mut indegree: Vec<u32> = (0..self.n).map(|v| self.pred_count(v) as u32).collect();
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.n)
            .filter(|&v| indegree[v] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(Reverse(v)) = ready.pop() {
            order.push(v);
            for &succ in self.succ_slice(v) {
                indegree[succ as usize] -= 1;
                if indegree[succ as usize] == 0 {
                    ready.push(Reverse(succ as usize));
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Number of vertices (transactions).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn succ_slice(&self, v: usize) -> &[u32] {
        &self.succs[self.succ_offsets[v] as usize..self.succ_offsets[v + 1] as usize]
    }

    fn pred_slice(&self, v: usize) -> &[u32] {
        &self.preds[self.pred_offsets[v] as usize..self.pred_offsets[v + 1] as usize]
    }

    /// Whether the edge `before → after` is present.
    pub fn has_edge(&self, before: usize, after: usize) -> bool {
        before < self.n
            && after < self.n
            && self
                .succ_slice(before)
                .binary_search(&(after as u32))
                .is_ok()
    }

    /// Immediate predecessors of `i` (the transactions a fork-join task
    /// for `i` must join on — paper Algorithm 2's `B`).
    pub fn predecessors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.pred_slice(i).iter().map(|&v| v as usize)
    }

    /// Immediate successors of `i`.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ_slice(i).iter().map(|&v| v as usize)
    }

    /// Number of immediate predecessors of `i` (O(1) — used by the
    /// fork-join executor to size its join counters).
    pub fn pred_count(&self, i: usize) -> usize {
        (self.pred_offsets[i + 1] - self.pred_offsets[i]) as usize
    }

    /// All edges as `(before, after)` pairs, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.succs.len());
        out.extend(self.edge_pairs());
        out
    }

    fn edge_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |v| self.successors(v).map(move |succ| (v, succ)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// Builds the happens-before graph from the lock profiles of a block's
    /// committed transactions (`profiles[i]` is transaction `i`'s profile).
    ///
    /// For every abstract lock, the committing transactions that held it
    /// are sorted by counter value and grouped into maximal **runs** of
    /// mutually-commuting modes (a run of shared readers, a run of
    /// additive updaters, or a single exclusive holder — exclusive does
    /// not commute even with itself). Edges are added only between
    /// consecutive runs: every member of a run happens-before every member
    /// of the next. Transactions inside one run are left unordered,
    /// preserving the parallelism the miner actually exploited; members of
    /// non-adjacent runs either commute (same mode, nothing to order) or
    /// are ordered transitively through the runs between them. The result
    /// is the per-lock transitive reduction of the all-ordered-pairs
    /// graph: same reachability, same critical path, h−1 edges instead of
    /// h(h−1)/2 for an exclusive chain of h holders.
    ///
    /// The profiles are borrowed one by one (`&Vec<LockProfile>`, or the
    /// profiles of a block's published records), never collected.
    pub fn from_profiles<'a>(profiles: impl IntoIterator<Item = &'a LockProfile>) -> Self {
        // (lock space, lock key, counter, tx_index, mode)
        type Holder = (u64, u64, u64, u32, LockMode);
        // Every holder of every lock in one sorted list: each lock's holders
        // are contiguous and in counter order. A sort, not a hash map keyed
        // by lock: a block's profiles are outside input, and ids chosen to
        // collide would make a hash map quadratic.
        let mut n = 0;
        let mut held: Vec<Holder> = Vec::new();
        for profile in profiles {
            let tx = n as u32;
            held.extend(profile.locks.iter().map(|e| {
                let (space, key) = (e.lock.space(), e.lock.key());
                (space, key, e.counter, tx, e.mode)
            }));
            n += 1;
        }
        held.sort_unstable();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for holders in held.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            // Split the counter-ordered holders into maximal runs of
            // mutually-commuting modes. A holder extends the current run
            // iff its mode commutes with the run's mode, i.e. the modes
            // are equal and non-exclusive; every boundary is therefore a
            // conflicting pair, and so is every cross pair of two
            // consecutive runs.
            let mut prev_run: &[Holder] = &[];
            let mut run_start = 0;
            for i in 1..=holders.len() {
                if i < holders.len() && !holders[i].4.conflicts(holders[run_start].4) {
                    continue;
                }
                let run = &holders[run_start..i];
                for &(.., before, _) in prev_run {
                    edges.extend(run.iter().map(|&(.., after, _)| (before, after)));
                }
                (prev_run, run_start) = (run, i);
            }
        }
        Self::build(n, edges)
    }

    /// The canonical topological order of the vertices, or `None` if the
    /// graph has a cycle. The order is computed once when the graph is
    /// built; this returns a copy of it.
    pub fn topological_sort(&self) -> Option<Vec<usize>> {
        self.topo.clone()
    }

    /// Borrows the cached topological order without copying it, or `None`
    /// for a cyclic graph.
    pub fn serial_order(&self) -> Option<&[usize]> {
        self.topo.as_deref()
    }

    /// Length (in vertices) of the longest path — the critical path of the
    /// fork-join program a validator will execute. Zero for an empty
    /// graph.
    pub fn critical_path(&self) -> usize {
        let Some(order) = self.topo.as_deref() else {
            return self.n; // a cyclic (corrupt) graph is maximally serial
        };
        let mut depth = vec![1usize; self.n];
        for &v in order {
            for &succ in self.succ_slice(v) {
                depth[succ as usize] = depth[succ as usize].max(depth[v] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Computes reachability (the transitive closure): whether the graph
    /// orders two transactions, directly or through others.
    pub fn reachability(&self) -> Reachability {
        let words = self.n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; self.n];
        let fallback: Vec<usize>;
        let order: &[usize] = match self.topo.as_deref() {
            Some(order) => order,
            None => {
                fallback = (0..self.n).collect();
                &fallback
            }
        };
        // Process in reverse topological order so each vertex's set is
        // complete before its predecessors use it.
        for &v in order.iter().rev() {
            for &succ in self.succ_slice(v) {
                let succ = succ as usize;
                // reach[v] |= reach[succ]; reach[v] |= {succ}
                let (head, tail) = reach.split_at_mut(v.max(succ));
                let (a, b) = if v < succ {
                    (&mut head[v], &tail[0])
                } else {
                    (&mut tail[0], &head[succ])
                };
                for (av, bv) in a.iter_mut().zip(b.iter()) {
                    *av |= *bv;
                }
                a[succ / 64] |= 1u64 << (succ % 64);
            }
        }
        Reachability { n: self.n, reach }
    }

    /// Converts the graph plus the per-transaction profiles into the
    /// metadata a miner publishes in the block, **consuming both**: the
    /// cached topological order moves into `serial_order` and every
    /// profile moves into its [`ProfileRecord`] — nothing is cloned on the
    /// mining hot path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedSchedule`] if the graph is cyclic.
    pub fn into_metadata(self, profiles: Vec<LockProfile>) -> Result<ScheduleMetadata, CoreError> {
        let edges = self.edges();
        let serial_order = self.topo.ok_or_else(|| CoreError::MalformedSchedule {
            reason: "happens-before graph contains a cycle".into(),
        })?;
        Ok(ScheduleMetadata {
            serial_order,
            edges,
            profiles: profiles
                .into_iter()
                .enumerate()
                .map(|(tx_index, profile)| ProfileRecord { tx_index, profile })
                .collect(),
        })
    }

    /// Clone-based convenience wrapper around [`Self::into_metadata`] for
    /// callers that need to keep the graph and profiles (tests, tools).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedSchedule`] if the graph is cyclic.
    pub fn to_metadata(&self, profiles: &[LockProfile]) -> Result<ScheduleMetadata, CoreError> {
        self.clone().into_metadata(profiles.to_vec())
    }

    /// Derives the graph a block's published schedule stands for: the one
    /// [`Self::from_profiles`] builds from its lock profiles. The
    /// published `edges` and `serial_order` are not trusted, only
    /// compared: they must be exactly what the profiles derive, so they
    /// cannot vary on their own. (Counters still can: only their order per
    /// lock matters, so rescaling them derives the same graph.)
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedSchedule`] unless the schedule carries
    /// one profile record per transaction, in block order, each naming a
    /// lock at most once; if the derived
    /// graph is cyclic; or if the published edges or serial order differ
    /// from the derived ones.
    pub fn from_metadata(meta: &ScheduleMetadata, n: usize) -> Result<Self, CoreError> {
        let malformed = |reason: String| Err(CoreError::MalformedSchedule { reason });
        let records = &meta.profiles;
        if records.len() != n {
            let published = records.len();
            return malformed(format!(
                "{published} lock profiles published for {n} transactions"
            ));
        }
        for (i, record) in records.iter().enumerate() {
            let named = record.tx_index;
            if named != i {
                return malformed(format!("profile record {i} names transaction {named}"));
            }
            // A profile is sorted by lock, so one entry per lock is strictly
            // increasing ids. Checked before deriving: a lock repeated k
            // times in two modes would put one transaction in two adjacent
            // runs and make `from_profiles` push k² pairs.
            if !record.profile.locks.is_sorted_by(|a, b| a.lock < b.lock) {
                return malformed(format!("profile record {i} lists a lock more than once"));
            }
        }
        let graph = Self::from_profiles(records.iter().map(|record| &record.profile));
        let Some(order) = graph.serial_order() else {
            return malformed("the lock profiles derive a cyclic happens-before graph".into());
        };
        if meta.serial_order != order || !graph.edge_pairs().eq(meta.edges.iter().copied()) {
            return malformed(
                "published edges or serial order differ from what the lock profiles derive".into(),
            );
        }
        Ok(graph)
    }
}

/// Precomputed reachability over a [`HappensBeforeGraph`].
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    reach: Vec<Vec<u64>>,
}

impl Reachability {
    /// Whether there is a (possibly multi-edge) path `from → … → to`.
    pub fn can_reach(&self, from: usize, to: usize) -> bool {
        if from >= self.n || to >= self.n {
            return false;
        }
        self.reach[from][to / 64] & (1u64 << (to % 64)) != 0
    }

    /// Whether two transactions are ordered one way or the other.
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        self.can_reach(a, b) || self.can_reach(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::{LockId, LockSpace, ProfileEntry};

    fn profile(entries: &[(LockId, LockMode, u64)]) -> LockProfile {
        LockProfile::new(
            entries
                .iter()
                .map(|&(lock, mode, counter)| ProfileEntry {
                    lock,
                    mode,
                    counter,
                })
                .collect(),
        )
    }

    #[test]
    fn edges_from_conflicting_profiles_follow_counters() {
        let voters = LockSpace::new("voters");
        let alice = voters.lock_for(&"alice");
        let bob = voters.lock_for(&"bob");
        // tx0 and tx2 both touch alice (counters 1 then 2); tx1 touches bob.
        let profiles = vec![
            profile(&[(alice, LockMode::Exclusive, 1)]),
            profile(&[(bob, LockMode::Exclusive, 1)]),
            profile(&[(alice, LockMode::Exclusive, 2)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.critical_path(), 2);
    }

    #[test]
    fn exclusive_chain_publishes_exactly_h_minus_one_edges() {
        // The headline reduction: h exclusive holders of one hot lock used
        // to publish h(h−1)/2 ordered pairs; the segment-run construction
        // publishes the chain itself.
        let bid = LockSpace::new("highestBid").whole();
        let h = 40;
        let profiles: Vec<LockProfile> = (0..h)
            .map(|i| profile(&[(bid, LockMode::Exclusive, i as u64 + 1)]))
            .collect();
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert_eq!(g.edge_count(), h - 1);
        assert_eq!(g.critical_path(), h);
        for i in 0..h - 1 {
            assert!(g.has_edge(i, i + 1), "chain edge {i}->{} missing", i + 1);
        }
        // Reachability is still the full order.
        let r = g.reachability();
        assert!(r.can_reach(0, h - 1));
        assert!(!r.can_reach(h - 1, 0));
    }

    #[test]
    fn shared_readers_stay_unordered() {
        // Read-read pairs must create no happens-before edge: three
        // transactions read the same key (counters 1..3), a fourth writes
        // it. Only the write is ordered — after every reader.
        let accounts = LockSpace::new("accounts");
        let key = accounts.lock_for(&"alice");
        let profiles = vec![
            profile(&[(key, LockMode::Shared, 1)]),
            profile(&[(key, LockMode::Shared, 2)]),
            profile(&[(key, LockMode::Shared, 3)]),
            profile(&[(key, LockMode::Exclusive, 4)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        for a in 0..3 {
            for b in 0..3 {
                assert!(!g.has_edge(a, b), "read-read edge {a}->{b} must not exist");
            }
            assert!(g.has_edge(a, 3), "the write is ordered after reader {a}");
        }
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.critical_path(), 2, "all reads run in one parallel step");
    }

    #[test]
    fn writer_reader_writer_fans_skip_the_transitive_edge() {
        // W, R, R, W: the second writer is ordered after the readers, and
        // the W→W edge is implied (transitively) rather than published.
        let key = LockSpace::new("cell").whole();
        let profiles = vec![
            profile(&[(key, LockMode::Exclusive, 1)]),
            profile(&[(key, LockMode::Shared, 2)]),
            profile(&[(key, LockMode::Shared, 3)]),
            profile(&[(key, LockMode::Exclusive, 4)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2));
        assert!(g.has_edge(1, 3) && g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3), "W->W is implied, not published");
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.critical_path(), 3);
        let r = g.reachability();
        assert!(r.can_reach(0, 3), "the reduced graph still orders W->W");
    }

    #[test]
    fn additive_holders_stay_unordered() {
        let counts = LockSpace::new("voteCounts");
        let p0 = counts.lock_for(&0u64);
        let profiles = vec![
            profile(&[(p0, LockMode::Additive, 1)]),
            profile(&[(p0, LockMode::Additive, 2)]),
            profile(&[(p0, LockMode::Exclusive, 3)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert!(!g.has_edge(0, 1), "commutative increments are unordered");
        assert!(g.has_edge(0, 2), "the exclusive read is ordered after both");
        assert!(g.has_edge(1, 2));
        assert_eq!(g.critical_path(), 2);
    }

    #[test]
    fn duplicate_lock_entries_in_one_profile_do_not_self_order() {
        // `LockProfile::new` does not forbid two entries for the same
        // lock; the duplicate holder lands in two adjacent runs and must
        // not produce a self-edge (which would make the graph cyclic and
        // fail the whole block).
        let key = LockSpace::new("dup").whole();
        let profiles = vec![
            profile(&[(key, LockMode::Exclusive, 1), (key, LockMode::Exclusive, 2)]),
            profile(&[(key, LockMode::Exclusive, 3)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edges(), vec![(0, 1)]);
        assert!(g.topological_sort().is_some(), "graph must stay acyclic");
    }

    #[test]
    fn duplicate_edges_across_locks_collapse() {
        // Two locks held by the same two transactions in the same order
        // must publish the edge once.
        let a = LockSpace::new("a").whole();
        let b = LockSpace::new("b").whole();
        let profiles = vec![
            profile(&[(a, LockMode::Exclusive, 1), (b, LockMode::Exclusive, 1)]),
            profile(&[(a, LockMode::Exclusive, 2), (b, LockMode::Exclusive, 2)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges(), vec![(0, 1)]);
    }

    #[test]
    fn topological_sort_respects_edges_and_is_deterministic() {
        let g = HappensBeforeGraph::from_edges(4, [(2, 0), (0, 3)]);
        let order = g.topological_sort().unwrap();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(2) < pos(0));
        assert!(pos(0) < pos(3));
        assert_eq!(order, g.topological_sort().unwrap());
        assert_eq!(g.serial_order().unwrap(), order.as_slice());
    }

    #[test]
    fn cycle_is_detected() {
        let g = HappensBeforeGraph::from_edges(2, [(0, 1), (1, 0)]);
        assert!(g.topological_sort().is_none());
        assert!(g
            .to_metadata(&[LockProfile::default(), LockProfile::default()])
            .is_err());
        assert_eq!(g.critical_path(), 2, "cyclic graphs are maximally serial");
    }

    #[test]
    fn csr_accessors_are_consistent() {
        let g = HappensBeforeGraph::from_edges(5, [(0, 2), (0, 3), (1, 3), (3, 4), (0, 2)]);
        assert_eq!(g.edge_count(), 4, "duplicates are removed at build time");
        assert_eq!(g.successors(0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(g.predecessors(3).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(g.pred_count(3), 2);
        assert_eq!(g.pred_count(0), 0);
        assert_eq!(g.edges(), vec![(0, 2), (0, 3), (1, 3), (3, 4)]);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
        // Self-edges and out-of-range endpoints are dropped, not stored.
        let g = HappensBeforeGraph::from_edges(2, [(0, 0), (0, 9), (1, 0)]);
        assert_eq!(g.edges(), vec![(1, 0)]);
    }

    #[test]
    fn critical_path_of_chain_and_antichain() {
        let chain = HappensBeforeGraph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        assert_eq!(chain.critical_path(), 5);
        let antichain = HappensBeforeGraph::new(5);
        assert_eq!(antichain.critical_path(), 1);
        assert_eq!(HappensBeforeGraph::new(0).critical_path(), 0);
    }

    #[test]
    fn reachability_closure() {
        let g = HappensBeforeGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let r = g.reachability();
        assert!(r.can_reach(0, 2));
        assert!(!r.can_reach(2, 0));
        assert!(!r.can_reach(0, 4));
        assert!(r.ordered(0, 2));
        assert!(r.ordered(2, 0));
        assert!(!r.ordered(0, 3));
        assert!(!r.can_reach(0, 99));
    }

    #[test]
    fn metadata_roundtrip() {
        let voters = LockSpace::new("v");
        let a = voters.lock_for(&1u64);
        let profiles = vec![
            profile(&[(a, LockMode::Exclusive, 1)]),
            profile(&[(a, LockMode::Exclusive, 2)]),
        ];
        let g = HappensBeforeGraph::from_profiles(&profiles);
        let meta = g.to_metadata(&profiles).unwrap();
        assert_eq!(meta.serial_order, vec![0, 1]);
        assert_eq!(meta.profiles.len(), 2);
        let g2 = HappensBeforeGraph::from_metadata(&meta, 2).unwrap();
        assert_eq!(g, g2);

        // The consuming path publishes identical metadata without cloning.
        let meta2 = g.clone().into_metadata(profiles.clone()).unwrap();
        assert_eq!(meta, meta2);
    }

    #[test]
    fn malformed_metadata_is_rejected() {
        let (a, b) = (LockSpace::new("a").whole(), LockSpace::new("b").whole());
        // Transactions 0 and 2 conflict on `a`; 1 commutes with both.
        let profiles = vec![
            profile(&[(a, LockMode::Exclusive, 1)]),
            profile(&[(b, LockMode::Shared, 1)]),
            profile(&[(a, LockMode::Exclusive, 2)]),
        ];
        let honest = HappensBeforeGraph::from_profiles(&profiles)
            .to_metadata(&profiles)
            .unwrap();
        assert!(HappensBeforeGraph::from_metadata(&honest, 3).is_ok());
        type Lie = fn(&mut ScheduleMetadata);
        let forged = |lie: Lie| {
            let mut meta = honest.clone();
            lie(&mut meta);
            HappensBeforeGraph::from_metadata(&meta, 3).unwrap_err()
        };
        let lies: [(&str, Lie); 8] = [
            ("a profile-less chain", |m| m.profiles.clear()),
            ("a record too many", |m| {
                m.profiles.push(m.profiles[0].clone())
            }),
            ("records out of order", |m| m.profiles.swap(0, 1)),
            ("a repeated entry", |m| {
                let locks = &mut m.profiles[0].profile.locks;
                locks.push(locks[0]);
            }),
            ("a dropped edge", |m| m.edges.clear()),
            ("an edge the order agrees with", |m| m.edges.push((1, 2))),
            ("another topological order", |m| m.serial_order.swap(0, 1)),
            ("an order that is no permutation", |m| m.serial_order[2] = 0),
        ];
        for (case, lie) in lies {
            let err = forged(lie);
            assert!(
                matches!(err, CoreError::MalformedSchedule { .. }),
                "{case}: {err}"
            );
        }
        assert!(HappensBeforeGraph::from_metadata(&honest, 2).is_err());

        // Counters that order two transactions both ways on two locks.
        let cyclic = [
            profile(&[(a, LockMode::Exclusive, 1), (b, LockMode::Exclusive, 2)]),
            profile(&[(a, LockMode::Exclusive, 2), (b, LockMode::Exclusive, 1)]),
        ];
        let meta = ScheduleMetadata {
            serial_order: vec![0, 1],
            edges: vec![(0, 1), (1, 0)],
            profiles: cyclic
                .into_iter()
                .enumerate()
                .map(|(tx_index, profile)| ProfileRecord { tx_index, profile })
                .collect(),
        };
        let err = HappensBeforeGraph::from_metadata(&meta, 2).unwrap_err();
        assert!(err.to_string().contains("cyclic"), "{err}");
    }

    #[test]
    fn repeated_locks_are_rejected_before_any_graph_is_built() {
        // One transaction holds one lock k times shared, then k times
        // additive: two adjacent runs, k² self-pairs for `from_profiles`
        // to push and `build` to drop. The derived graph is the honest
        // single vertex, so only the up-front check can refuse it.
        let k = 2_000;
        let lock = LockSpace::new("hot").whole();
        let entry = |mode, counter| ProfileEntry {
            lock,
            mode,
            counter,
        };
        let mut locks = vec![entry(LockMode::Shared, 1); k];
        locks.extend(vec![entry(LockMode::Additive, 2); k]);
        let meta = ScheduleMetadata {
            serial_order: vec![0],
            edges: Vec::new(),
            profiles: vec![ProfileRecord {
                tx_index: 0,
                profile: LockProfile { locks },
            }],
        };
        let err = HappensBeforeGraph::from_metadata(&meta, 1).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = HappensBeforeGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.topological_sort().unwrap(), Vec::<usize>::new());
        assert_eq!(g.edge_count(), 0);
    }
}
