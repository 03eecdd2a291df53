//! Order statistics: the percentile picker and the quartiles `compare`
//! and CALIBRATION.md use.

/// A tail percentile is reported only with at least this many samples
/// beyond it; with fewer, one or two stragglers decide its value.
pub const BEYOND: usize = 10;

/// One picked order statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    pub value: f64,
    /// Samples strictly above the picked rank.
    pub beyond: usize,
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Empty input picks 0.
pub fn percentile(sorted: &[f64], q: f64) -> Pick {
    let n = sorted.len();
    if n == 0 {
        return Pick {
            value: 0.0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pick {
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// The tail to report: percentile `q` when [`BEYOND`] samples lie beyond
/// it, otherwise the highest rank that still leaves that many beyond,
/// never below the median.
pub fn tail(sorted: &[f64], q: f64) -> Pick {
    let wanted = percentile(sorted, q);
    let n = sorted.len();
    if wanted.beyond >= BEYOND || n == 0 {
        return wanted;
    }
    let rank = n.saturating_sub(BEYOND).max(n.div_ceil(2));
    Pick {
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), which is what the acceptance procedure computes.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Slices a closed-loop run is cut into; see [`quiet_half`].
pub const SLICES: usize = 50;

/// The latencies of the quieter half of a run in which every slice of time
/// does the same work (a closed loop over one size class, or the offline
/// rounds). `samples` are `(completion time in seconds since the phase
/// began, latency)`. The phase is cut into [`SLICES`] equal slices, the
/// slices that hold samples are ranked by their median latency, and the
/// samples of the faster half of them are returned (unordered).
///
/// Why: the host is shared, and for a fraction of a second to minutes at
/// a time it runs the same code a tenth to a half slower. A slower slice of
/// identical work is a slower host, not a slower program. Half the run
/// still holds hundreds of ops; a slice holds ten or more, so its median
/// ignores a straggler of the program's own making, which therefore stays
/// in the kept half as often as anywhere; and a slowdown of the program
/// slows every slice alike, so it shows in full. CALIBRATION.md has what
/// this buys.
pub fn quiet_half(samples: &[(f64, f64)], phase_s: f64) -> Vec<f64> {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(done_s, latency) in samples {
        // An op that began before the deadline may end just after it.
        let i = ((done_s / phase_s * SLICES as f64) as usize).min(SLICES - 1);
        slices[i].push(latency);
    }
    slices.retain(|s| !s.is_empty());
    slices.sort_by(|a, b| median(a).total_cmp(&median(b)));
    slices.truncate(slices.len().div_ceil(2));
    slices.concat()
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let s = ramp(20);
        assert_eq!(
            percentile(&s, 0.5),
            Pick {
                value: 10.0,
                beyond: 10
            }
        );
        assert_eq!(
            percentile(&s, 0.95),
            Pick {
                value: 19.0,
                beyond: 1
            }
        );
        assert_eq!(percentile(&s, 1.0).value, 20.0);
        assert_eq!(percentile(&s, 0.0).value, 1.0);
        assert_eq!(percentile(&[], 0.5).value, 0.0);
        // 400 samples: p95 is rank 380, twenty beyond.
        let s = ramp(400);
        assert_eq!(
            percentile(&s, 0.95),
            Pick {
                value: 380.0,
                beyond: 20
            }
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 is rank 190 with exactly ten beyond — kept.
        assert_eq!(
            tail(&ramp(200), 0.95),
            Pick {
                value: 190.0,
                beyond: 10
            }
        );
        // 100 samples: p95 would leave five beyond; fall back to rank 90.
        assert_eq!(
            tail(&ramp(100), 0.95),
            Pick {
                value: 90.0,
                beyond: 10
            }
        );
        // 12 samples: rank 2 would be below the median; the median it is.
        assert_eq!(
            tail(&ramp(12), 0.95),
            Pick {
                value: 6.0,
                beyond: 6
            }
        );
        assert_eq!(tail(&ramp(1), 0.95).value, 1.0);
        assert_eq!(tail(&[], 0.95).value, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quiet_half_keeps_the_faster_slices_whole() {
        // 500 ops over 10 s, one every 20 ms, so ten to each of the fifty
        // slices, the tenth a straggler; the ops of seconds 2–3 and 6–8
        // ran on a slower host. The 25 quiet slices are kept, with every
        // one of their samples, stragglers included.
        let slow = |t: f64| (2.0..4.0).contains(&t) || (6.0..9.0).contains(&t);
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = i as f64 * 0.02 + 0.01;
                let base = if i % 10 == 9 { 15.0 } else { 10.0 };
                (t, if slow(t) { base * 1.2 } else { base })
            })
            .collect();
        let kept = sorted(&quiet_half(&samples, 10.0));
        assert_eq!(kept.len(), 250);
        assert_eq!(kept.iter().filter(|v| **v == 10.0).count(), 225);
        assert_eq!(kept.iter().filter(|v| **v == 15.0).count(), 25);
        // Three slices with samples: the faster two; an op ending after
        // the deadline counts in the last slice.
        let short = [(0.5, 3.0), (4.2, 1.0), (10.3, 2.0)];
        assert_eq!(sorted(&quiet_half(&short, 10.0)), vec![1.0, 2.0]);
        assert!(quiet_half(&[], 10.0).is_empty());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
