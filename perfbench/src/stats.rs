//! Order statistics over samples.

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`; `0.0` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of `values` that has at least ten samples
/// beyond it, capped at p90 and floored at the median: p90 from 100
/// samples on, the median below 20.
pub fn tail_percentile(values: &[f64]) -> f64 {
    let p = (1.0 - 10.0 / values.len().max(1) as f64).clamp(0.5, 0.9);
    percentile(values, p)
}

/// Median over consecutive chunks of `chunk` samples (a short last chunk
/// joins the one before it) of each chunk's percentile `p`. A burst of
/// host noise then moves one chunk's figure, not the reported one.
pub fn chunked_percentile(values: &[f64], chunk: usize, p: f64) -> f64 {
    let n_chunks = (values.len() / chunk.max(1)).max(1);
    let per_chunk: Vec<f64> = (0..n_chunks)
        .map(|i| {
            let end = if i + 1 == n_chunks {
                values.len()
            } else {
                (i + 1) * chunk
            };
            percentile(&values[i * chunk..end], p)
        })
        .collect();
    median(&per_chunk)
}

/// Median (mean of the two middle values for an even count); `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        // Chunks [0..3), [3..6), [6..10): maxima 2, 5, 9.
        assert_eq!(chunked_percentile(&v, 3, 1.0), 5.0);
        assert_eq!(chunked_percentile(&v, 20, 1.0), 9.0);
        // Ten samples: the tail is floored at the median.
        assert_eq!(tail_percentile(&v), 4.0);
        let w: Vec<f64> = (0..50).map(f64::from).collect();
        // p80: ten samples (40..=49) lie beyond 39.
        assert_eq!(tail_percentile(&w), 39.0);
        let x: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&x), 899.0);
    }
}
