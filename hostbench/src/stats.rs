//! Summary statistics and failure accounting.

/// The fewest samples that must lie strictly beyond a reported tail
/// percentile for it to mean anything.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The percentile rule: a tail percentile is reported only when at
/// least [`MIN_TAIL`] samples lie beyond it (`n >= 1000` for p99).
pub fn tail_ok(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_TAIL
}

/// Median (mean of the middle two for even counts). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed operations of a run, and why each failure
/// happened (first few only).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: quarantined or mismatched cells, non-200
    /// replies, wrong reply bodies, digest mismatches.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Reasons kept for the report.
    const KEEP: usize = 8;

    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(why);
            }
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for r in o.reasons {
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(r);
            }
        }
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
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

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_p99() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_ok(1000, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!tail_ok(999, 0.99));
        assert!(!tail_ok(68, 0.99), "a small sweep's p99 is its maximum");
        assert_eq!(beyond(68, 0.99), 0);
        assert!(tail_ok(20, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
        // Exactly the samples beyond the reported value.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p).count(), beyond(1000, 0.99));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fail_frac_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        for i in 0..10 {
            t.record(if i % 5 == 0 {
                Err(format!("op {i}"))
            } else {
                Ok(())
            });
        }
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert_eq!(t.fail_frac(), 0.2);
        let mut u = Tally::default();
        u.record(Ok(()));
        u.record(Err("bad reply".into()));
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (12, 3));
        assert_eq!(t.fail_frac(), 0.25);
        assert_eq!(t.reasons, ["op 0", "op 5", "bad reply"]);
        for _ in 0..20 {
            t.record(Err("many".into()));
        }
        assert_eq!(t.reasons.len(), Tally::KEEP, "reasons are capped");
        assert_eq!(t.failed, 23, "counts are not");
    }
}
