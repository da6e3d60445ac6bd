//! Order statistics: the only summaries the scoreboard reports.
//!
//! A repeated timing is reported as its **fastest** sample (a rate as
//! its highest). The baseline host runs in two modes — a vCPU slows to
//! about two thirds of its speed for seconds to a minute at a time
//! while its SMT sibling is busy with another tenant — so the share of
//! a run spent in the slow mode, not the code, decides where a median or
//! any other fixed quantile lands, and it flips between the modes from
//! run to run. Disturbances only ever add time, and the samples of each
//! metric are spread over the whole run, so the fastest one is the run's
//! view of the undisturbed machine. Median and quartiles are printed
//! beside it.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), so a spread computed here and one computed by a
//! driver script over the same values agree to the last digit.

/// Five-number-ish summary of one metric's in-process samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `k/4` of an ascending slice by the exclusive method:
/// position `k(n+1)/4` (1-based), clamped into the sample and linearly
/// interpolated.
fn quartile_sorted(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = (k * (n + 1)) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    v[j - 1] + frac * (v[j] - v[j - 1])
}

/// Median of `values`.
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Quartiles and count of `values`.
///
/// # Panics
/// If `values` is empty — a metric with no samples is a harness bug.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let v = sorted(values);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quartile_sorted(&v, 1),
        median: quartile_sorted(&v, 2),
        q3: quartile_sorted(&v, 3),
        max: v[v.len() - 1],
    }
}

/// The percentile actually reported when `wanted` (in `0..100`) is
/// asked of `n` samples: the highest percentile not above `wanted` that
/// still leaves at least ten samples beyond it. With fewer than twenty
/// samples nothing above the median qualifies and the median is
/// reported.
pub fn reportable_percentile(n: usize, wanted: f64) -> f64 {
    if n < 20 {
        return 50.0;
    }
    let highest = 100.0 * (1.0 - 10.0 / n as f64);
    wanted.min(highest).max(50.0)
}

/// Nearest-rank percentile `p` (in `0..=100`) of `values`.
///
/// # Panics
/// If `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples for a percentile");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `wanted`-th percentile under the ten-samples-beyond rule; returns
/// `(percentile reported, value)`.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let p = reportable_percentile(values.len(), wanted);
    (p, percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        assert_eq!((s.min, s.max), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — Python
        // extrapolates; positions are clamped into the sample here only
        // when they leave it entirely.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_percentile() {
        // 3000 samples leave 30 beyond p99: p99 stands.
        assert_eq!(reportable_percentile(3000, 99.0), 99.0);
        // Exactly 1000 samples leave exactly ten beyond p99.
        assert_eq!(reportable_percentile(1000, 99.0), 99.0);
        // 500 samples: p99 would leave five; p98 leaves ten.
        assert_eq!(reportable_percentile(500, 99.0), 98.0);
        // 40 samples: p75 leaves ten.
        assert_eq!(reportable_percentile(40, 99.0), 75.0);
        // Too few for any tail: the median.
        assert_eq!(reportable_percentile(19, 99.0), 50.0);
        assert_eq!(reportable_percentile(3, 99.0), 50.0);
        // Never raises the request.
        assert_eq!(reportable_percentile(100_000, 50.0), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let (p, value) = tail(&v, 99.0);
        assert_eq!((p, value), (90.0, 90.0));
    }
}
