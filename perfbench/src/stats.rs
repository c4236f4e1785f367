//! Order statistics for host timings.

/// Percentiles tried for a tail figure, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail figure: the highest percentile of [`TAIL_LADDER`] that leaves
/// at least [`TAIL_BEYOND`] samples beyond it, its value, and the sample
/// count. With too few samples for any rung, the maximum (percentile
/// 100) stands in.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    for p in TAIL_LADDER {
        if n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND {
            return Tail {
                percentile: p,
                value: v[rank(p, n)],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: v.last().copied().unwrap_or(0.0),
        samples: n,
    }
}

/// Operations per block of [`blocked_tail`]; the tail ladder gives p95
/// on 200 samples.
pub const TAIL_BLOCK: usize = 200;

/// A tail figure that a burst of host noise in one part of a run cannot
/// carry: `values`, in the order they were taken, are cut into blocks of
/// [`TAIL_BLOCK`] (a short last block joins the one before it; fewer
/// samples make one block), and the median of the blocks' [`tail`]s is
/// reported. Returns that tail (its percentile is the blocks') and the
/// block count.
pub fn blocked_tail(values: &[f64]) -> (Tail, usize) {
    let mut blocks: Vec<&[f64]> = values.chunks(TAIL_BLOCK).collect();
    if blocks.len() > 1 && blocks[blocks.len() - 1].len() < TAIL_BLOCK {
        blocks.pop();
        let start = (blocks.len() - 1) * TAIL_BLOCK;
        *blocks.last_mut().expect("more than one block") = &values[start..];
    }
    let tails: Vec<Tail> = blocks.iter().map(|b| tail(b)).collect();
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    let tail = Tail {
        percentile: tails.first().map_or(100.0, |t| t.percentile),
        value,
        samples: values.len(),
    };
    (tail, blocks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        let t = tail(&v[..15]);
        assert_eq!((t.percentile, t.samples), (100.0, 15));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99.0);
    }

    #[test]
    fn blocked_tail_is_the_median_of_block_tails() {
        // Three blocks of 1..=200, the middle one slowed tenfold, plus a
        // short remainder that joins the last block.
        let block: Vec<f64> = (1..=200).map(f64::from).collect();
        let mut v = block.clone();
        v.extend(block.iter().map(|x| x * 10.0));
        v.extend(&block);
        v.extend([1.0; 50]);
        let (t, blocks) = blocked_tail(&v);
        assert_eq!((blocks, t.samples, t.percentile), (3, 650, 95.0));
        assert_eq!(t.value, 190.0);
        let (t, blocks) = blocked_tail(&block[..100]);
        assert_eq!((blocks, t.percentile, t.value), (1, 90.0, 90.0));
    }
}
