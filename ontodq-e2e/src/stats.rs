//! Percentile and sample-count math shared by every rung.

use std::time::Duration;

/// Microseconds with nanosecond resolution.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

/// Latency samples of one op class, in microseconds, in completion order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// The quiet-level estimators cut a sample set into at most this many
/// consecutive chunks of at least this many samples.
const CHUNKS_MAX: usize = 16;
const CHUNK_MIN_SAMPLES: usize = 5;

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; 0 for an empty set (a layer the workload never used).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile (`p` in `0..=1`): the smallest sample with at
    /// least `p` of the samples at or below it.  0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        nearest_rank(&sorted(&self.values), p)
    }

    #[cfg(test)]
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Percentile `p` at the machine's quiet level.
    ///
    /// The build machine is a shared virtual machine whose speed changes from
    /// second to second: a fixed pure-CPU loop takes 9.7 ms in one second and
    /// 18 ms in the next, and stretches where most seconds are slow last for
    /// minutes.  A 20 s run lies anywhere from wholly outside to mostly inside
    /// such a stretch.  Interference only ever adds time, and the fast state is
    /// the same every time.  So the samples are cut, in completion order, into
    /// up to sixteen consecutive chunks (about a second each), the percentile
    /// is taken in each, and the lowest chunk value is reported: the
    /// percentile during the quietest sixteenth of the run.  A real change to
    /// the server moves it like any other location statistic.  With too few
    /// samples for two chunks it is the plain percentile.
    pub fn quiet_percentile(&self, p: f64) -> f64 {
        let chunks = (self.values.len() / CHUNK_MIN_SAMPLES).min(CHUNKS_MAX);
        if chunks < 2 {
            return self.percentile(p);
        }
        self.values
            .chunks_exact(self.values.len() / chunks)
            .map(|chunk| nearest_rank(&sorted(chunk), p))
            .min_by(f64::total_cmp)
            .expect("at least two chunks")
    }
}

/// Completions per second, at the machine's quiet level, from the
/// completion times (seconds since the phase began) of a phase's ops.  The
/// stream repeats with `period` ops, so the time of each complete period is
/// taken — period-aligned slices hold the same mix of ops, fixed-time slices
/// would not — and the fastest tenth of the periods gives the rate.  Falls
/// back to count over time with fewer than four complete periods.
pub fn rate_per_second(ends: &[f64], period: usize) -> f64 {
    let Some(last) = ends.last() else {
        return 0.0;
    };
    let periods = ends.len() / period.max(1);
    if periods < 4 {
        return ends.len() as f64 / last.max(1e-9);
    }
    let mut durations = Samples::default();
    let mut began = 0.0;
    for k in 1..=periods {
        let ended = ends[k * period - 1];
        durations.push(ended - began);
        began = ended;
    }
    period as f64 / durations.percentile(0.1).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(*v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.2), 1.0);
        assert_eq!(s.percentile(0.21), 2.0);
        assert_eq!(s.percentile(0.95), 5.0);
        assert_eq!(s.percentile(1.0), 5.0);
        // 100 samples 1..=100: p95 is the 95th, p99 the 99th.
        let hundred = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(hundred.percentile(0.95), 95.0);
        assert_eq!(hundred.percentile(0.99), 99.0);
        assert_eq!(hundred.median(), 50.0);
    }

    #[test]
    fn empty_and_single_sample_sets() {
        let empty = Samples::default();
        assert!(empty.is_empty());
        assert_eq!(empty.median(), 0.0);
        assert_eq!(empty.mean(), 0.0);
        let one = samples(&[7.5]);
        assert_eq!(one.percentile(0.99), 7.5);
        assert_eq!(one.mean(), 7.5);
    }

    #[test]
    fn samples_pushed_after_a_percentile_are_counted() {
        let mut s = samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.median(), 2.0);
        s.push(0.5);
        s.push(0.25);
        assert_eq!(s.median(), 1.0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn quiet_percentiles_ignore_disturbed_stretches() {
        // 1,600 samples cycling 1..=100 us; all but the seventh sixteenth of
        // the run took 1.6x longer.
        let mut s = Samples::default();
        for i in 0..1_600 {
            let base = f64::from(i % 100 + 1);
            s.push(if (600..700).contains(&i) {
                base
            } else {
                base * 1.6
            });
        }
        assert_eq!(s.quiet_percentile(0.5), 50.0);
        assert_eq!(s.quiet_percentile(0.99), 99.0);
        assert!(s.median() > 75.0, "the plain median is the disturbed level");
        // 31 commits make 6 chunks of 5; the quietest chunk's median counts.
        let mut commits = Samples::default();
        for i in 0..31 {
            commits.push(if (10..15).contains(&i) { 24.0 } else { 39.0 });
        }
        assert_eq!(commits.quiet_percentile(0.5), 24.0);
        // Too few samples for two chunks: the plain percentile.
        let sparse = samples(&[3.0, 1.0, 2.0]);
        assert_eq!(sparse.quiet_percentile(0.5), 2.0);
        assert_eq!(Samples::default().quiet_percentile(0.5), 0.0);
    }

    #[test]
    fn rate_is_the_quiet_periods() {
        // 20 periods of 10 ops, one op every 10 ms, except that the ops of
        // periods 3 to 17 take 16 ms and one op stalls for a second.
        let mut ends = Vec::new();
        let mut t = 0.0;
        for i in 0..200 {
            t += match i {
                25 => 1.0,
                20..=169 => 0.016,
                _ => 0.01,
            };
            ends.push(t);
        }
        let rate = rate_per_second(&ends, 10);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        // Fewer than four periods: plain count over time.
        assert!((rate_per_second(&ends[..20], 10) - 100.0).abs() < 1e-6);
        assert_eq!(rate_per_second(&[], 10), 0.0);
    }

    #[test]
    fn micros_keeps_nanoseconds() {
        assert_eq!(micros(Duration::from_nanos(1_234_567)), 1_234.567);
    }
}
