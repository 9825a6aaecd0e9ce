//! The scheduling metadata a miner publishes alongside a block.
//!
//! Paper §4: "A miner includes these profiles in the blockchain along with
//! usual information. From this profile information, validators can
//! construct a fork-join program that deterministically reproduces the
//! miner's original, speculative schedule."

use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::hash::{sha256, Hash256};
use cc_stm::{LockId, LockMode, LockProfile, ProfileEntry};
use std::fmt;

/// One transaction's published lock profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRecord {
    /// The transaction's index within the block.
    pub tx_index: usize,
    /// The lock profile it registered when it committed.
    pub profile: LockProfile,
}

/// The schedule a miner discovered while executing a block speculatively.
///
/// * `profiles` — one lock profile per transaction, in block order: the
///   schedule itself. Validators derive the happens-before graph from
///   them (`cc_core::HappensBeforeGraph::from_metadata`) and check every
///   replayed transaction's locks against its profile.
/// * `edges` — the happens-before graph the profiles derive, as
///   `(before, after)` pairs of transaction indices, sorted.
/// * `serial_order` — the derived graph's canonical topological sort (the
///   smallest ready index first).
///
/// The last two say nothing the profiles do not, and a validator rejects a
/// block whose copies differ from what it derives. They stay on the wire
/// only until the benchmark stops reading them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleMetadata {
    /// Equivalent serial order of transaction indices.
    pub serial_order: Vec<usize>,
    /// Happens-before edges between transaction indices.
    pub edges: Vec<(usize, usize)>,
    /// Published lock profiles.
    pub profiles: Vec<ProfileRecord>,
}

impl ScheduleMetadata {
    /// Number of transactions the schedule covers.
    pub fn len(&self) -> usize {
        self.serial_order.len()
    }

    /// Whether the schedule covers no transactions.
    pub fn is_empty(&self) -> bool {
        self.serial_order.is_empty()
    }

    /// The length of the longest chain of happens-before edges, plus one —
    /// the critical path of the fork-join program a validator will run.
    /// The paper proposes rewarding miners for publishing schedules with
    /// short critical paths.
    pub fn critical_path(&self) -> usize {
        let n = self.serial_order.len();
        if n == 0 {
            return 0;
        }
        // serial_order is a topological order, so one pass over the edges
        // bucketed by source position suffices. The buckets are built with
        // a counting sort (O(n + e)) instead of cloning and
        // comparison-sorting the edge list.
        let mut order_pos = vec![0usize; n];
        for (pos, &tx) in self.serial_order.iter().enumerate() {
            if tx < n {
                order_pos[tx] = pos;
            }
        }
        let in_range = |a: usize, b: usize| a < n && b < n;
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &self.edges {
            if in_range(a, b) {
                offsets[order_pos[a] + 1] += 1;
            }
        }
        for pos in 0..n {
            offsets[pos + 1] += offsets[pos];
        }
        let mut cursor = offsets.clone();
        // Each bucket keeps the full (source, target) pair: the source is
        // not recoverable from the bucket position unless the serial
        // order is a valid permutation, and this method is also called on
        // not-yet-validated metadata (e.g. by `Display`).
        let mut buckets = vec![(0usize, 0usize); offsets[n]];
        for &(a, b) in &self.edges {
            if in_range(a, b) {
                let slot = &mut cursor[order_pos[a]];
                buckets[*slot] = (a, b);
                *slot += 1;
            }
        }
        let mut depth = vec![1usize; n];
        for &(a, b) in &buckets {
            depth[b] = depth[b].max(depth[a] + 1);
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Canonical encoding of the schedule (hashed into the block header so
    /// a validator knows the schedule it replays is the one the miner
    /// committed to).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.serial_order.len() as u64);
        for &i in &self.serial_order {
            enc.put_u64(i as u64);
        }
        enc.put_u64(self.edges.len() as u64);
        for &(a, b) in &self.edges {
            enc.put_u64(a as u64);
            enc.put_u64(b as u64);
        }
        enc.put_u64(self.profiles.len() as u64);
        for record in &self.profiles {
            enc.put_u64(record.tx_index as u64);
            enc.put_u64(record.profile.locks.len() as u64);
            for entry in &record.profile.locks {
                enc.put_u64(entry.lock.space());
                enc.put_u64(entry.lock.key());
                enc.put_u8(entry.mode.to_byte());
                enc.put_u64(entry.counter);
            }
        }
    }

    /// Decodes a schedule written by [`ScheduleMetadata::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ScheduleMetadata, DecodeError> {
        let index = |dec: &mut Decoder<'_>| dec.get_u64().map(|v| v as usize);
        let lock = |dec: &mut Decoder<'_>| {
            Ok(ProfileEntry {
                lock: LockId::from_raw(dec.get_u64()?, dec.get_u64()?),
                mode: LockMode::from_byte(dec.get_u8()?),
                counter: dec.get_u64()?,
            })
        };
        Ok(ScheduleMetadata {
            serial_order: dec.get_vec(index)?,
            edges: dec.get_vec(|dec| Ok((index(dec)?, index(dec)?)))?,
            profiles: dec.get_vec(|dec| {
                Ok(ProfileRecord {
                    tx_index: index(dec)?,
                    profile: LockProfile::new(dec.get_vec(lock)?),
                })
            })?,
        })
    }

    /// Hash of the canonical encoding.
    pub fn digest(&self) -> Hash256 {
        let mut enc = Encoder::with_capacity(self.encoded_size());
        self.encode(&mut enc);
        sha256(enc.as_slice())
    }

    /// Size in bytes of the canonical encoding — the space this schedule
    /// occupies in a published block (tracked by the `schedule` section of
    /// the perf-trajectory files). Counted, not encoded: three `u64`
    /// lengths, a `u64` per serial position, two per edge, and per profile
    /// two `u64`s plus 25 bytes (space, key, mode, counter) per lock.
    pub fn encoded_size(&self) -> usize {
        let profiles: usize = self
            .profiles
            .iter()
            .map(|record| 16 + 25 * record.profile.locks.len())
            .sum();
        24 + 8 * self.serial_order.len() + 16 * self.edges.len() + profiles
    }
}

impl fmt::Display for ScheduleMetadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule: {} txns, {} edges, critical path {}",
            self.serial_order.len(),
            self.edges.len(),
            self.critical_path()
        )
    }
}

#[cfg(test)]
impl ScheduleMetadata {
    /// The profile-less chain `0 → 1 → … → n−1` in block order — the shape
    /// serial blocks published before every miner published its profiles.
    pub(crate) fn chain(n: usize) -> Self {
        ScheduleMetadata {
            serial_order: (0..n).collect(),
            edges: (1..n).map(|i| (i - 1, i)).collect(),
            profiles: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::LockSpace;

    fn sample() -> ScheduleMetadata {
        let lock = LockSpace::new("voters").lock_for(&"alice");
        ScheduleMetadata {
            serial_order: vec![0, 2, 1],
            edges: vec![(0, 1), (2, 1)],
            profiles: vec![ProfileRecord {
                tx_index: 0,
                profile: LockProfile::new(vec![ProfileEntry {
                    lock,
                    mode: LockMode::Exclusive,
                    counter: 1,
                }]),
            }],
        }
    }

    #[test]
    fn sequential_schedule_shape() {
        let s = ScheduleMetadata::chain(4);
        assert_eq!(s.serial_order, vec![0, 1, 2, 3]);
        assert_eq!(s.edges.len(), 3);
        assert_eq!(s.critical_path(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn unconstrained_critical_path_is_one() {
        let unconstrained = |n: usize| ScheduleMetadata {
            serial_order: (0..n).collect(),
            ..ScheduleMetadata::default()
        };
        assert_eq!(unconstrained(10).critical_path(), 1);
        assert_eq!(unconstrained(0).critical_path(), 0);
    }

    #[test]
    fn critical_path_with_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: path length 3.
        let s = ScheduleMetadata {
            serial_order: vec![0, 1, 2, 3],
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            profiles: Vec::new(),
        };
        assert_eq!(s.critical_path(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut enc = Encoder::new();
        s.encode(&mut enc);
        let bytes = enc.into_bytes();
        let decoded = ScheduleMetadata::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn critical_path_tolerates_malformed_metadata() {
        // Not-yet-validated metadata (e.g. straight out of `decode`) may
        // have a serial order that is not a permutation; critical_path is
        // advisory there but must use each edge's real source, not the
        // transaction the serial order claims sits at that position.
        let s = ScheduleMetadata {
            serial_order: vec![2, 2, 2],
            edges: vec![(0, 2), (1, 0)],
            profiles: Vec::new(),
        };
        // Real depths: 1 -> 0 -> 2 gives a path of 3 vertices, but the
        // edges are processed in the (degenerate) bucket order where both
        // sit at position 0, so only the direct hops count: depth 2.
        assert_eq!(s.critical_path(), 2);
        // Out-of-range edges are ignored, not a panic.
        let s = ScheduleMetadata {
            serial_order: vec![0, 1],
            edges: vec![(0, 9), (9, 1), (0, 1)],
            profiles: Vec::new(),
        };
        assert_eq!(s.critical_path(), 2);
    }

    #[test]
    fn encoded_size_matches_encoding() {
        let s = sample();
        let mut enc = Encoder::new();
        s.encode(&mut enc);
        assert_eq!(s.encoded_size(), enc.into_bytes().len());
    }

    #[test]
    fn digest_changes_with_edges() {
        let a = sample();
        let mut b = a.clone();
        b.edges.pop();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn display_mentions_critical_path() {
        assert!(sample().to_string().contains("critical path"));
    }
}
