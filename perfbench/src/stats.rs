//! Order statistics for the end-to-end figures.

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 when empty, so a workload with no failure runs
/// reports zero recovery time).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a mixture of `(entry, value)` samples: the median over
/// entries of each entry's median. A workload cycles through entries
/// whose walls differ; the plain sample median of such a mixture jumps
/// between entries as the cut-off changes the mix by one run.
pub fn median_of_medians(samples: &[(usize, f64)]) -> f64 {
    median(&entry_medians(samples).iter().map(|e| e.1).collect::<Vec<_>>())
}

/// Each entry's median of a mixture of `(entry, value)` samples, in
/// entry order.
pub fn entry_medians(samples: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut keys: Vec<usize> = samples.iter().map(|s| s.0).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.iter()
        .map(|&k| {
            (k, median(&samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect::<Vec<_>>()))
        })
        .collect()
}

/// Nearest-rank `pct` percentile of `xs`: `(value, runs beyond it)`.
pub fn percentile(xs: &[f64], pct: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (f64::NAN, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile)`; fewer than eleven samples give the maximum.
pub fn supported_tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_runs_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 75.0), (30.0, 10));
        assert_eq!(percentile(&xs, 100.0), (40.0, 0));
    }

    #[test]
    fn supported_tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_tail(&xs), (30.0, 75.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mixture_median_ignores_the_mix() {
        // Entry 0 runs fast, entry 1 slow; one extra fast run must not
        // drag the figure into the fast cluster.
        let a = [(0, 1.0), (0, 1.1), (1, 3.0), (1, 3.1)];
        let b = [(0, 1.0), (0, 1.1), (0, 1.05), (1, 3.0), (1, 3.1)];
        assert_eq!(median_of_medians(&a), median_of_medians(&b));
    }
}
