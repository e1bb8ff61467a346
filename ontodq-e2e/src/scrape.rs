//! One `!stats` + `!metrics` + `!health` scrape of the live server: the
//! counters behind the per-layer metrics.  With one client and the window
//! over, the counts are exact.

use crate::wire::{field, Conn};
use std::io;

#[derive(Debug, Clone, Default)]
pub struct Scrape {
    stats: String,
    health: String,
    metrics: Vec<String>,
}

impl Scrape {
    pub fn take(conn: &mut Conn) -> io::Result<Scrape> {
        Ok(Scrape {
            stats: conn.expect_ok("!stats")?.status,
            health: conn.expect_ok("!health")?.status,
            metrics: conn.expect_ok("!metrics")?.data,
        })
    }

    #[cfg(test)]
    pub fn from_parts(stats: &str, health: &str, metrics: &str) -> Scrape {
        Scrape {
            stats: stats.to_string(),
            health: health.to_string(),
            metrics: metrics.lines().map(str::to_string).collect(),
        }
    }

    /// A numeric `key=` of the `!stats` line (0 when absent).
    pub fn stat(&self, key: &str) -> f64 {
        field(&self.stats, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// A numeric `key=` of the `!health` line (0 when absent).
    pub fn health(&self, key: &str) -> f64 {
        field(&self.health, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// The value of one exposition series, e.g.
    /// `ontodq_request_micros_sum{verb="save"}` (0 when absent).
    pub fn series(&self, series: &str) -> f64 {
        self.metrics
            .iter()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Mean of a histogram family: `_sum / _count` (0 when never observed).
    pub fn histogram_mean(&self, family: &str, labels: &str) -> f64 {
        let count = self.series(&format!("{family}_count{labels}"));
        if count == 0.0 {
            return 0.0;
        }
        self.series(&format!("{family}_sum{labels}")) / count
    }

    /// Upper bound of the bucket holding quantile `q` of an unlabelled
    /// histogram family (0 when never observed).
    pub fn histogram_quantile(&self, family: &str, q: f64) -> f64 {
        let total = self.series(&format!("{family}_count"));
        if total == 0.0 {
            return 0.0;
        }
        let prefix = format!("{family}_bucket{{le=\"");
        self.metrics
            .iter()
            .filter_map(|line| {
                let (bound, count) = line.strip_prefix(&prefix)?.split_once("\"} ")?;
                Some((
                    bound.parse::<f64>().ok()?,
                    count.trim().parse::<f64>().ok()?,
                ))
            })
            .find(|(_, cumulative)| *cumulative >= q * total)
            .map_or(f64::INFINITY, |(bound, _)| bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_three_surfaces() {
        let scrape = Scrape::from_parts(
            "ok context=scaled version=3 tuples=10 cache_hits=7 cache_misses=2 cache_invalidations=1",
            "ok health=healthy store=none queued=0 queue_peak=2 queue_wait_p95=25",
            "# HELP ontodq_wal_fsync_micros WAL fsync latency per acked append.\n\
             ontodq_wal_fsync_micros_bucket{le=\"100\"} 0\n\
             ontodq_wal_fsync_micros_bucket{le=\"250\"} 90\n\
             ontodq_wal_fsync_micros_bucket{le=\"500\"} 99\n\
             ontodq_wal_fsync_micros_bucket{le=\"+Inf\"} 100\n\
             ontodq_wal_fsync_micros_sum 30000\n\
             ontodq_wal_fsync_micros_count 100\n\
             ontodq_request_micros_sum{verb=\"save\"} 900\n\
             ontodq_request_micros_count{verb=\"save\"} 3\n",
        );
        assert_eq!(scrape.stat("cache_hits"), 7.0);
        assert_eq!(scrape.stat("absent"), 0.0);
        assert_eq!(scrape.health("queue_wait_p95"), 25.0);
        assert_eq!(scrape.series("ontodq_wal_fsync_micros_count"), 100.0);
        assert_eq!(scrape.histogram_mean("ontodq_wal_fsync_micros", ""), 300.0);
        assert_eq!(
            scrape.histogram_mean("ontodq_request_micros", "{verb=\"save\"}"),
            300.0
        );
        assert_eq!(
            scrape.histogram_mean("ontodq_request_micros", "{verb=\"use\"}"),
            0.0
        );
        assert_eq!(
            scrape.histogram_quantile("ontodq_wal_fsync_micros", 0.5),
            250.0
        );
        assert_eq!(
            scrape.histogram_quantile("ontodq_wal_fsync_micros", 0.95),
            500.0
        );
        assert_eq!(
            scrape.histogram_quantile("ontodq_queue_wait_micros", 0.95),
            0.0
        );
    }
}
