//! Order statistics over measured samples.

pub use smb_stream::stats::{quantile, rms};

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interpolated quantile of merged power-of-two histogram buckets
/// given as `(upper_bound, cumulative_count)` series.
pub fn histogram_quantile(series: &[&[(u64, u64)]], q: f64) -> (f64, u64) {
    let mut counts: Vec<(u64, u64)> = Vec::new(); // (upper bound, count)
    for buckets in series {
        let mut prev = 0;
        for (i, &(bound, cum)) in buckets.iter().enumerate() {
            if counts.len() <= i {
                counts.push((bound, 0));
            }
            counts[i].1 += cum - prev;
            prev = cum;
        }
    }
    let total: u64 = counts.iter().map(|c| c.1).sum();
    if total == 0 {
        return (0.0, 0);
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0;
    for (i, &(bound, c)) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c >= rank {
            let lo = if i == 0 { 0.0 } else { counts[i - 1].0 as f64 };
            let frac = (rank - cum) as f64 / c as f64;
            return (lo + (bound as f64 - lo) * frac, total);
        }
        cum += c;
    }
    (counts.last().map_or(0.0, |c| c.0 as f64), total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantile_merges_series() {
        let a: &[(u64, u64)] = &[(1, 0), (2, 2), (4, 2)];
        let b: &[(u64, u64)] = &[(1, 0), (2, 0), (4, 2)];
        let (p50, n) = histogram_quantile(&[a, b], 0.5);
        assert_eq!(n, 4);
        assert_eq!(p50, 2.0);
    }
}
