//! Sample summaries and counter deltas.

use em_obs::metrics::{snapshot, MetricSnapshot};
use std::collections::BTreeMap;

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread is
/// judged, so the benchmark reports the same numbers. Panics on an empty
/// or non-finite sample: every metric is measured at least once.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let median = if ld % 2 == 1 {
        data[ld / 2]
    } else {
        (data[ld / 2 - 1] + data[ld / 2]) / 2.0
    };
    let quartile = |i: usize| {
        if ld == 1 {
            return data[0];
        }
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Summary {
        n: ld,
        q1: quartile(1),
        median,
        q3: quartile(3),
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, with its value; `None` below 20 samples, where
/// not even the median has ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    // Percentiles in per mille, so ranks are exact integers.
    [990, 950, 900, 750, 500]
        .into_iter()
        .map(|p| (p, (p * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(p, rank)| (p as f64 / 1000.0, data[rank - 1]))
}

/// Every registered counter's current value.
pub fn counters() -> BTreeMap<String, u64> {
    snapshot()
        .into_iter()
        .filter_map(|(name, m)| match m {
            MetricSnapshot::Counter(v) => Some((name, v)),
            _ => None,
        })
        .collect()
}

/// What the counters did between two [`counters`] snapshots. The registry
/// is never reset (a reset orphans handles that hot paths cache in
/// `OnceLock`s, after which their counts vanish), so a unit of work's
/// counts are the difference of the snapshots around it; a counter first
/// registered inside the unit counts from zero.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Counts {
    Counts(
        after
            .iter()
            .map(|(name, &v)| {
                let base = before.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(base))
            })
            .collect(),
    )
}

/// Counter deltas over one unit of work.
#[derive(Debug, Clone, Default)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    /// The delta of `name` (0 when the counter never moved or is unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Runs `f` and returns its result with the counter deltas around it.
    pub fn around<R>(f: impl FnOnce() -> R) -> (R, Counts) {
        let before = counters();
        let r = f();
        (r, delta(&before, &counters()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_samples_are_a_bug() {
        summarize(&[]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((0.5, 10.0)));
        assert_eq!(tail(&v(40)), Some((0.75, 30.0)));
        assert_eq!(tail(&v(100)), Some((0.9, 90.0)));
        assert_eq!(tail(&v(200)), Some((0.95, 190.0)));
        assert_eq!(tail(&v(1000)), Some((0.99, 990.0)));
    }

    #[test]
    fn deltas_count_only_the_unit_of_work() {
        let c = em_obs::metrics::counter("perfbench.test.delta");
        c.add(5);
        let ((), d) = Counts::around(|| {
            c.add(3);
            em_obs::metrics::counter("perfbench.test.fresh").add(2);
        });
        assert_eq!(d.get("perfbench.test.delta"), 3);
        assert_eq!(d.get("perfbench.test.fresh"), 2);
        assert_eq!(d.get("perfbench.test.absent"), 0);
        // The cached handle keeps counting: nothing was reset.
        assert_eq!(c.get(), 8);
    }
}
