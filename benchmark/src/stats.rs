//! The summary rules every reported number follows.
//!
//! * A timing is reported as its **median** with the first and third
//!   **quartiles** and the sample count. Quartiles follow Python's
//!   `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
//!   spread printed here is the spread the driver computes.
//! * A tail is reported at the **highest percentile that still has at
//!   least ten samples beyond it** ([`tail_percentile`]); with fewer
//!   than 100 samples no tail is reported at all.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub q1: f64,
    /// The 75th percentile.
    pub q3: f64,
    /// Number of samples.
    pub count: usize,
}

impl Summary {
    /// Summarizes `samples` (order irrelevant); all-zero when empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quartile_sorted(&sorted, 2),
            q1: quartile_sorted(&sorted, 1),
            q3: quartile_sorted(&sorted, 3),
            count: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `k`-th quartile (1–3) of ascending `sorted` by the exclusive
/// method: position `k (n + 1) / 4`, interpolated, clamped to the data.
/// 0 when empty; the single value when there is only one.
pub fn quartile_sorted(sorted: &[f64], k: usize) -> f64 {
    let len = sorted.len();
    if len < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let j = (k * (len + 1) / 4).clamp(1, len - 1);
    let delta = (k * (len + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = rank.ceil() as usize;
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// The tail percentiles a report may quote, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// The highest candidate percentile with at least ten of the `count`
/// samples beyond it, or `None` when even p90 has fewer.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| samples_beyond(count, *p) >= 10)
}

/// How many of `count` samples lie strictly beyond percentile `p`.
fn samples_beyond(count: usize, p: f64) -> usize {
    // Integer arithmetic in hundredths of a percent: 99.9 of 10 000 must
    // leave exactly 10, not 9.999….
    let beyond_e4 = 1_000_000 - (p * 10_000.0).round() as usize;
    count * beyond_e4 / 1_000_000
}
