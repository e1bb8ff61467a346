//! The benchmark's metric names, as `BENCHMARK.json` lists them.  A test
//! keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the server sees.  Every workload issues every op class,
/// so every workload reports every one of these.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("q_p50_us", "us"),
    m("d_p50_us", "us"),
    m("scan_p50_us", "us"),
    m("commit_p50_us", "us"),
    m("retract_p50_us", "us"),
    m("peak_rss_mb", "MiB"),
];

/// Single layers, `<module>.<metric>`; 0 where a workload does not use the
/// layer (every `store.*` on the in-memory workloads).
pub const PER_LAYER: &[Metric] = &[
    m("tcp.q_us", "us"),
    m("tcp.scan_us", "us"),
    m("tcp.commit_us", "us"),
    m("protocol.q_us", "us"),
    m("protocol.scan_us", "us"),
    m("protocol.commit_us", "us"),
    m("protocol.parse_us", "us"),
    m("protocol.bytes_out_per_op", "B"),
    m("pool.wait_p95_us", "us"),
    m("pool.queue_peak", "count"),
    m("cache.hit_us", "us"),
    m("cache.miss_us", "us"),
    m("cache.hit_ratio", "ratio"),
    m("cache.evictions", "count"),
    m("cache.invalidations", "count"),
    m("qa.q_eval_us", "us"),
    m("qa.scan_eval_us", "us"),
    m("chase.demand_us", "us"),
    m("chase.derived_per_commit", "count"),
    m("chase.cascaded_per_retract", "count"),
    m("chase.rederived_per_retract", "count"),
    m("core.insert_batch_us", "us"),
    m("core.retract_batch_us", "us"),
    m("core.extract_us", "us"),
    m("core.register_us", "us"),
    m("service.q_self_us", "us"),
    m("service.commit_self_us", "us"),
    m("service.retract_self_us", "us"),
    m("store.append_us", "us"),
    m("store.fsync_p95_us", "us"),
    m("store.fsyncs_per_commit", "count"),
    m("store.wal_bytes_per_commit", "B"),
    m("store.wal_bytes_per_fact", "B"),
    m("store.save_us", "us"),
    m("store.recover_us", "us"),
    m("store.replayed_batches", "count"),
    m("store.restart_s", "s"),
    m("workload.generate_us", "us"),
    m("relational.probes_per_op", "count"),
    m("relational.materializations_per_op", "count"),
    m("relational.arena_bytes", "B"),
    m("relational.tombstone_ratio", "ratio"),
    m("feed.lag_p95_us", "us"),
    m("feed.utilisation", "ratio"),
    m("client.q_p99_us", "us"),
    m("client.d_p95_us", "us"),
    m("client.commit_p95_us", "us"),
    m("client.retract_p95_us", "us"),
    m("client.fail_ratio", "ratio"),
    m("trace.overhead_ratio", "ratio"),
    m("trace.ladder_inversions", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stream::Workload;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|entry| {
                    (
                        entry
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap()
                            .to_string(),
                        entry.get("unit").and_then(Json::as_str).map(str::to_string),
                    )
                })
                .collect()
        };
        let of = |metrics: &[Metric]| -> Vec<(String, Option<String>)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), of(END_TO_END));
        assert_eq!(names("per_layer"), of(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, expected);
        for entry in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
