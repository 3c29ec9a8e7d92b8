//! Order statistics for the reported timings.

/// Percentiles a `.tail` may name, highest last. It stops at p90: on a
/// shared 2-vCPU host, stalls from outside the program reach more than 1 %
/// of millisecond operations in some runs and not in others: with the same
/// code and inputs, p99 of a 1 ms turn read 1.9 to 3.0 ms, and p99.9 up to
/// 18.5 ms.
pub const TAIL_LADDER: [f64; 2] = [75.0, 90.0];

/// Nearest-rank percentile `p` of `samples` (0 for none).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, or `None` below forty samples (no tail to speak of).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Fewest blocks a blocked `.tail` is the median of.
pub const TAIL_BLOCKS: usize = 5;

/// Samples in a block at percentile `p`: exactly ten lie beyond it.
fn block_len(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// `(percentile used, value)` of the tail of `samples`, taken in the order
/// they were recorded. The samples are cut into consecutive blocks, and the
/// percentile is the highest of [`TAIL_LADDER`] at which there are at least
/// [`TAIL_BLOCKS`] blocks with ten samples beyond it each; the value is the
/// median of the blocks' percentiles. A burst of interference from outside
/// the program then slows a few blocks and moves the tail little. With too
/// few samples for that, the tail of all samples together (see
/// [`tail_percentile`]), or their median when there is no tail.
#[must_use]
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let blocked = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n / block_len(*p) >= TAIL_BLOCKS);
    if let Some(p) = blocked {
        let k = n / block_len(p);
        let per_block: Vec<f64> = (0..k)
            .map(|i| percentile(&samples[i * n / k..(i + 1) * n / k], p))
            .collect();
        return (p, median(&per_block));
    }
    match tail_percentile(n) {
        Some(p) => (p, percentile(samples, p)),
        None => (50.0, median(samples)),
    }
}
