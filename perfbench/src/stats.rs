//! The benchmark's own statistics: medians, the tail percentile under the
//! "at least ten samples beyond it" rule and throughput, both as medians
//! over blocks of the run, interval unions for self time and unattributed
//! time, and error accounting.

use std::ops::Range;

/// Candidate tail percentiles in per-mille, highest first.
pub const TAIL_PER_MILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the `per_mille` percentile among `n`
/// samples, computed in integers so p90 of 100 samples is exactly rank 90.
fn rank(n: usize, per_mille: u64) -> usize {
    let n = n as u64;
    (per_mille * n).div_ceil(1000).max(1) as usize
}

/// Ops per block of the blocked statistics: the fewest at which the tail
/// rule reaches p95.
pub const BLOCK_OPS: usize = 200;

/// `0..n` cut into consecutive blocks of at least [`BLOCK_OPS`] whose sizes
/// differ by at most one; a single block when `n < 2 * BLOCK_OPS`.
pub fn blocks(n: usize) -> Vec<Range<usize>> {
    let k = (n / BLOCK_OPS).max(1);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// The highest candidate percentile, in per-mille, with at least
/// [`MIN_BEYOND`] of `n` samples beyond its nearest rank; `None` when even
/// p50 leaves fewer.
fn tail_per_mille(n: usize) -> Option<u64> {
    TAIL_PER_MILLE.into_iter().find(|&per_mille| n - rank(n, per_mille) >= MIN_BEYOND)
}

/// The tail latency a run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, e.g. `95.0`; `100.0` when the run has too few
    /// samples for any candidate and the maximum stands in.
    pub percentile: f64,
    /// The median over the blocks of the sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank in the smallest block.
    pub beyond: usize,
    /// Blocks the run was cut into.
    pub blocks: usize,
}

/// The tail of a run, taken block by block over [`blocks`]: the highest
/// candidate percentile with at least [`MIN_BEYOND`] samples beyond its
/// nearest rank in the smallest block, read in every block, and the median
/// of those values. A host slowdown covering fewer than half of the blocks
/// leaves it unmoved, where a tail pooled over the run would be made of
/// that slowdown. Falls back to the maximum when even p50 leaves fewer than
/// ten beyond it. `None` for an empty sample.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let blocks = blocks(samples.len());
    let smallest = blocks.iter().map(ExactSizeIterator::len).min()?;
    let per_mille = tail_per_mille(smallest);
    let at = |n: usize| per_mille.map_or(n, |per_mille| rank(n, per_mille));
    let values: Vec<f64> = blocks
        .iter()
        .map(|block| {
            let mut sorted = samples[block.clone()].to_vec();
            sorted.sort_by(f64::total_cmp);
            sorted[at(sorted.len()) - 1]
        })
        .collect();
    Some(Tail {
        percentile: per_mille.map_or(100.0, |per_mille| per_mille as f64 / 10.0),
        value: median(&values),
        beyond: smallest - at(smallest),
        blocks: blocks.len(),
    })
}

/// Throughput of a closed loop taken block by block: ops per second in each
/// block of [`blocks`], and the median of those rates. `ends_s[i]` is when
/// op `i` ended, in seconds since the loop started; a block starts where the
/// op before it ended. `0` for an empty run.
pub fn throughput(ends_s: &[f64]) -> f64 {
    if ends_s.is_empty() {
        return 0.0;
    }
    let rates: Vec<f64> = blocks(ends_s.len())
        .into_iter()
        .map(|block| {
            let start = if block.start == 0 { 0.0 } else { ends_s[block.start - 1] };
            let wall = ends_s[block.end - 1] - start;
            block.len() as f64 / wall
        })
        .collect();
    median(&rates)
}

/// A closed time interval `[start, end]` in microseconds.
pub type Interval = (f64, f64);

/// `interval` clipped to `window`, or `None` when they do not overlap.
pub fn clip(interval: Interval, window: Interval) -> Option<Interval> {
    let start = interval.0.max(window.0);
    let end = interval.1.min(window.1);
    (end > start).then_some((start, end))
}

/// Total length covered by `intervals`, counting overlaps once.
pub fn union_len(intervals: &[Interval]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<Interval> = None;
    for (start, end) in sorted {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = cur_end.max(end),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Time in `window` covered by none of `spans`: the window's length minus
/// the union of the spans clipped to it. Spans may come from any thread and
/// overlap each other.
pub fn uncovered(window: Interval, spans: &[Interval]) -> f64 {
    let clipped: Vec<Interval> = spans.iter().filter_map(|&s| clip(s, window)).collect();
    ((window.1 - window.0) - union_len(&clipped)).max(0.0)
}

/// Attempted and failed operations, timed ops and output checks alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed divided by attempted; `0` when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
        let t = tail(&ramp(100)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond, t.blocks), (90.0, 90.0, 10, 1));
        // 99 samples: p90 is rank 90 with only 9 beyond, so p75 (rank 75).
        let t = tail(&ramp(99)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 75.0, 24));
        // 200 samples reach p95, 1 000 reach p99 and 10 000 reach p99.9.
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(9999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn tail_ignores_input_order_and_falls_back_to_the_maximum() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(tail(&shuffled).expect("non-empty").value, 190.0);
        // 15 samples: even p50 (rank 8) leaves only 7 beyond.
        let t = tail(&ramp(15)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 15.0, 0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn blocks_are_consecutive_and_at_least_block_ops_long() {
        assert_eq!(blocks(0), vec![0..0]);
        assert_eq!(blocks(188), vec![0..188]);
        assert_eq!(blocks(399), vec![0..399]);
        assert_eq!(blocks(401), vec![0..200, 200..401]);
        let cut = blocks(2875);
        assert_eq!(cut.len(), 14);
        assert_eq!((cut[0].start, cut[13].end), (0, 2875));
        assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
        assert!(cut.iter().all(|b| (205..=206).contains(&b.len())));
    }

    #[test]
    fn tail_is_the_median_of_per_block_tails() {
        // Three blocks of 200: p95 (rank 190, 10 beyond) in each, and a
        // slow spell filling the last block leaves the median unmoved.
        let mut run: Vec<f64> = (0..600).map(|i| (i % 200 + 1) as f64).collect();
        for v in &mut run[400..] {
            *v *= 10.0;
        }
        let t = tail(&run).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond, t.blocks), (95.0, 190.0, 10, 3));
        // Pooled, p95 of the 600 (rank 570) would be made of the spell.
        let mut pooled = run.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(pooled[569], 1700.0);
    }

    #[test]
    fn throughput_is_the_median_of_per_block_rates() {
        // 600 ops at 100 ops/s, then the middle block at 50 ops/s.
        let mut ends = Vec::new();
        let mut t = 0.0;
        for i in 0..600 {
            t += if (200..400).contains(&i) { 0.02 } else { 0.01 };
            ends.push(t);
        }
        assert!((throughput(&ends) - 100.0).abs() < 1e-9);
        // One block: ops over the whole wall time.
        assert!((throughput(&[0.5, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(throughput(&[]), 0.0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)]), 20.0);
        assert_eq!(union_len(&[(20.0, 25.0), (0.0, 10.0), (2.0, 3.0)]), 15.0);
        assert_eq!(union_len(&[]), 0.0);
    }

    #[test]
    fn self_time_with_overlapping_cross_thread_spans() {
        // A request span on thread 1 covers [0, 100]. Two pass spans ran
        // on worker threads with no parent link: [10, 60] and [40, 90]
        // overlap each other, and a third starts inside the request but
        // runs past its end. Self time is what none of them cover.
        let request = (0.0, 100.0);
        let children = [(10.0, 60.0), (40.0, 90.0), (95.0, 130.0)];
        assert_eq!(uncovered(request, &children), 100.0 - 80.0 - 5.0);
        // Spans outside the window do not count against it.
        assert_eq!(uncovered(request, &[(200.0, 300.0)]), 100.0);
        // Full cover leaves nothing, never a negative remainder.
        assert_eq!(uncovered(request, &[(-5.0, 50.0), (50.0, 105.0)]), 0.0);
    }

    #[test]
    fn error_rate_counts_failed_ops_and_failed_checks() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            tally.record(ok); // timed ops
        }
        tally.record(false); // a failed output check
        assert_eq!(tally, Tally { attempted: 5, failed: 2 });
        assert_eq!(tally.error_rate(), 0.4);
    }
}
