//! Small statistics helpers: medians, quartiles, the tail-percentile
//! rule, normalized hypervolume and open-loop lateness accounting.

/// Median of a sample (mean of the middle pair for even sizes); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// The best of repeated measurements (min-of-N for a time, max-of-N for
/// a rate). The host's CPU speed drifts by up to 2× over seconds under
/// load from other tenants; the best repetition tracks the program's own
/// cost where the median tracks that load.
pub fn best_of(values: &[f64], higher_is_better: bool) -> f64 {
    let best = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(best).unwrap_or(f64::NAN)
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median and quartile spread of repeated measurements, for the log.
pub fn spread_note(what: &str, values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!(
            "{what}: median {:.1}, quartiles {q1:.1}..{q3:.1} ({:.1}% of median), n={}",
            median(values),
            100.0 * (q3 - q1) / q2,
            values.len()
        ),
        None => format!("{what}: {values:?}"),
    }
}

/// The nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least ten of `n` samples beyond it (past its nearest rank); `None`
/// when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In basis points, so the rank is exact integer arithmetic.
    [5000usize, 9000, 9900, 9990, 9999]
        .into_iter()
        .rev()
        .find(|&bp| n - (bp * n).div_ceil(10_000) >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// Area dominated by a minimization front inside the box bounded by the
/// reference point `reference`, i.e. the union of the rectangles
/// `[x, rx] × [y, ry]` over the points. Points outside the box add
/// nothing; dominated points are harmless.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let (rx, ry) = reference;
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < rx && y < ry)
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_y = ry;
    for (i, &(x, y)) in pts.iter().enumerate() {
        best_y = best_y.min(y);
        let next_x = pts.get(i + 1).map_or(rx, |p| p.0);
        area += (next_x - x) * (ry - best_y);
    }
    area
}

/// Fixed-rate open-loop schedule: request `i` is due `i × interval`
/// after the start, whatever happened to earlier requests. Latency is
/// timed from the due time, so a stall of the generator or the server
/// is charged to every request it delays.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    interval_ns: f64,
}

impl OpenLoop {
    /// A schedule sending `rate` requests per second.
    pub fn at_rate(rate: f64) -> Self {
        OpenLoop {
            interval_ns: 1e9 / rate,
        }
    }

    /// When request `i` is due, in ns after the start.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// How late request `i` went out (0 when on time).
    pub fn lateness_ns(&self, i: usize, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }

    /// Latency of request `i`, answered at `done_ns`, from its due time.
    pub fn latency_ns(&self, i: usize, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn best_of_picks_the_better_end() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(best_of(&v, true), 3.0);
        assert_eq!(best_of(&v, false), 1.0);
        assert!(best_of(&[], true).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 50.0), 500.0);
    }

    #[test]
    fn hypervolume_of_a_hand_computed_staircase() {
        // Front (1, 1.8), (1.2, 1.5), (1.5, 1.1) against (2, 2):
        // [1, 1.2) × 0.2 + [1.2, 1.5) × 0.5 + [1.5, 2) × 0.9
        // = 0.04 + 0.15 + 0.45 = 0.64.
        let front = [(1.5, 1.1), (1.0, 1.8), (1.2, 1.5)];
        assert!((hypervolume(&front, (2.0, 2.0)) - 0.64).abs() < 1e-12);
        // A dominated point and a point outside the box change nothing.
        let noisy = [(1.5, 1.1), (1.0, 1.8), (1.2, 1.5), (1.6, 1.6), (2.5, 0.5)];
        assert!((hypervolume(&noisy, (2.0, 2.0)) - 0.64).abs() < 1e-12);
        // One ideal point dominates the unit square.
        assert!((hypervolume(&[(1.0, 1.0)], (2.0, 2.0)) - 1.0).abs() < 1e-12);
        assert_eq!(hypervolume(&[], (2.0, 2.0)), 0.0);
    }

    #[test]
    fn open_loop_charges_stalls_to_every_delayed_request() {
        // 1000 req/s: request i is due at i ms.
        let s = OpenLoop::at_rate(1000.0);
        assert_eq!(s.due_ns(3), 3_000_000);
        // The generator stalls 5 ms before request 0 goes out and then
        // catches up, sending requests 0..=5 at 5 ms.
        let sent = 5_000_000;
        let lateness: Vec<u64> = (0..6).map(|i| s.lateness_ns(i, sent)).collect();
        assert_eq!(
            lateness,
            vec![5_000_000, 4_000_000, 3_000_000, 2_000_000, 1_000_000, 0]
        );
        // Each is answered 100 µs after it went out; latency from the due
        // time includes the wait the stall imposed.
        let lat: Vec<u64> = (0..6).map(|i| s.latency_ns(i, sent + 100_000)).collect();
        assert_eq!(lat[0], 5_100_000);
        assert_eq!(lat[5], 100_000);
        // A request sent early (never happens, but must not underflow).
        assert_eq!(s.lateness_ns(9, 0), 0);
    }
}
