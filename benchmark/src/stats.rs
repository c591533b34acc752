//! Order statistics, the tail-percentile rule, and ladder/SLO evaluation.

/// Percentiles the benchmark can report, lowest first.
pub const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0–100) of `values`, linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] of `n`
/// samples above it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so 90% of 100 samples leaves exactly 10.
    PERCENTILES
        .into_iter()
        .rev()
        .find(|p| (1000 - (p * 10.0).round() as usize) * n >= MIN_BEYOND * 1000)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method, which extrapolates for tiny samples), so spreads
/// printed here match the acceptance check's. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0], s[0])),
        _ => {
            let at = |i: usize| {
                let m = (n + 1) * i;
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((at(1), at(2), at(3)))
        }
    }
}

/// What one step of an open-loop rate ladder produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Slots the schedule held for this step.
    pub scheduled: usize,
    /// Requests answered `200`.
    pub ok: usize,
    /// Requests that failed: other statuses, resets, timeouts.
    pub errors: usize,
    /// Slots never sent because the generator fell too far behind.
    pub skipped: usize,
    /// Latencies of answered requests, measured from their due time, ms.
    pub latencies_ms: Vec<f64>,
}

impl StepResult {
    /// Share of scheduled slots that failed or were skipped: a request
    /// the generator could not send in time misses the SLO like a
    /// failed one.
    pub fn error_rate(&self) -> f64 {
        (self.errors + self.skipped) as f64 / self.scheduled.max(1) as f64
    }

    /// Whether the step met `slo_ms` on its p95 with an error rate of at
    /// most `max_error_rate`.
    pub fn meets(&self, slo_ms: f64, max_error_rate: f64) -> bool {
        !self.latencies_ms.is_empty()
            && percentile(&self.latencies_ms, 95.0) <= slo_ms
            && self.error_rate() <= max_error_rate
    }
}

/// Index of the highest step of the passing prefix of `steps`: the
/// ladder stops counting at its first failed step, since a backlog left
/// by that step would be charged to the next one.
pub fn highest_step_at_slo(
    steps: &[StepResult],
    slo_ms: f64,
    max_error_rate: f64,
) -> Option<usize> {
    steps
        .iter()
        .take_while(|s| s.meets(slo_ms, max_error_rate))
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 5.0, 8.0)));
        assert_eq!(quartiles(&[]), None);
    }

    fn step(rate: f64, latencies_ms: Vec<f64>, errors: usize, skipped: usize) -> StepResult {
        StepResult {
            rate,
            scheduled: latencies_ms.len() + errors + skipped,
            ok: latencies_ms.len(),
            errors,
            skipped,
            latencies_ms,
        }
    }

    #[test]
    fn slo_needs_p95_and_error_rate_and_no_skips() {
        let fast = step(40.0, vec![5.0; 200], 0, 0);
        assert!(fast.meets(100.0, 0.001));
        let mut slow_tail = vec![5.0; 180];
        slow_tail.extend(vec![150.0; 20]);
        assert!(!step(40.0, slow_tail, 0, 0).meets(100.0, 0.001));
        assert!(!step(40.0, vec![5.0; 200], 1, 0).meets(100.0, 0.001));
        assert!(step(40.0, vec![5.0; 2000], 1, 0).meets(100.0, 0.001));
        assert!(!step(40.0, vec![5.0; 200], 0, 3).meets(100.0, 0.001));
        assert!(!step(40.0, Vec::new(), 0, 0).meets(100.0, 0.001));
    }

    #[test]
    fn ladder_stops_at_first_failed_step() {
        let ok = |r| step(r, vec![5.0; 100], 0, 0);
        let bad = |r| step(r, vec![500.0; 100], 0, 0);
        assert_eq!(
            highest_step_at_slo(&[ok(40.0), ok(80.0), bad(160.0)], 100.0, 0.001),
            Some(1)
        );
        // A later passing step does not count past a failure.
        assert_eq!(
            highest_step_at_slo(&[ok(40.0), bad(80.0), ok(160.0)], 100.0, 0.001),
            Some(0)
        );
        assert_eq!(
            highest_step_at_slo(&[bad(40.0), ok(80.0)], 100.0, 0.001),
            None
        );
        assert_eq!(
            highest_step_at_slo(&[ok(40.0), ok(80.0)], 100.0, 0.001),
            Some(1)
        );
        assert_eq!(highest_step_at_slo(&[], 100.0, 0.001), None);
    }
}
