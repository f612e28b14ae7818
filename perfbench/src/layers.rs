//! The per-layer metrics of the traced run, and the folds that derive
//! them from PROFILE trees and resource reports.

use gsql_core::{ProfileNode, ResourceReport};
use std::collections::BTreeMap;

/// Operation classes with a per-query execution and governor breakdown.
pub const CLASSES: [&str; 6] = ["qacc", "qgs", "ic", "qn30", "pagerank", "wcc"];

/// PROFILE operator tags folded into `exec.<name>_ms`; every other
/// operator's self time is `exec.unattributed_ms`.
const EXEC_OPS: [(&str, &str); 7] = [
    ("scan", "scan"),
    ("hop", "hop"),
    ("filter", "filter"),
    ("accum", "accum"),
    ("post-accum", "post_accum"),
    ("group-by", "group_by"),
    ("output", "output"),
];

/// Per-class metric suffixes with their units.
const CLASS_SUFFIXES: [(&str, &str); 14] = [
    ("exec.scan_ms", "ms"),
    ("exec.hop_ms", "ms"),
    ("exec.filter_ms", "ms"),
    ("exec.accum_ms", "ms"),
    ("exec.post_accum_ms", "ms"),
    ("exec.group_by_ms", "ms"),
    ("exec.output_ms", "ms"),
    ("exec.unattributed_ms", "ms"),
    ("governor.edges_scanned", "count"),
    ("governor.vertices_touched", "count"),
    ("governor.rows_materialized", "count"),
    ("governor.morsels_dispatched", "count"),
    ("governor.peak_accum_bytes", "bytes"),
    ("governor.while_iterations", "count"),
];

const GLOBAL_METRICS: [(&str, &str); 22] = [
    ("ldbc.generate_s", "s"),
    ("parser.parse_us", "us"),
    ("lint.facts_us", "us"),
    ("lint.check_us", "us"),
    ("plan.lower_us", "us"),
    ("plan.lowerings", "count"),
    ("hop.rows_per_edge", "ratio"),
    ("semantics.kernel_calls", "count"),
    ("morsel.worker_skew", "ratio"),
    ("server.read_overhead_us", "us"),
    ("server.adhoc_overhead_us", "us"),
    ("server.write_overhead_us", "us"),
    ("admission.rejected_busy", "count"),
    ("admission.rejected_queue", "count"),
    ("plan_cache.hits", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.duplicate_parses", "count"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("pgraph.publish_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
];

/// Every per-layer metric with its unit, in report order: the global
/// ones, `<class>.<suffix>` for every class, then `trace.overhead_pct`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = GLOBAL_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for c in CLASSES {
        out.extend(CLASS_SUFFIXES.iter().map(|&(s, u)| (format!("{c}.{s}"), u)));
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out
}

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Sums of PROFILE self times (ms) by `exec.*` bucket, plus the hop and
/// worker counts the global ratios are built from.
#[derive(Default, Clone)]
pub struct ExecFold {
    pub self_ms: BTreeMap<&'static str, f64>,
    pub hop_rows: u64,
    pub hop_edges: u64,
    /// Morsel-worker distributions of parallel operators.
    pub workers: Vec<Vec<u64>>,
}

impl ExecFold {
    pub fn add(&mut self, root: &ProfileNode) {
        root.visit(&mut |n| {
            let bucket = EXEC_OPS
                .iter()
                .find(|(op, _)| *op == n.op)
                .map_or("unattributed", |(_, b)| b);
            *self.self_ms.entry(bucket).or_default() += n.self_wall().as_secs_f64() * 1e3;
            if n.op == "hop" {
                self.hop_rows += n.rows;
                self.hop_edges += n.edges_scanned;
            }
            // Hop nodes report kernel calls per worker; the others report
            // morsels per worker.
            if n.op != "hop" && n.workers.len() > 1 {
                self.workers.push(n.workers.clone());
            }
        });
    }

    /// The hop and worker tallies of several folds together.
    pub fn merged(folds: &[ExecFold]) -> ExecFold {
        let mut all = ExecFold::default();
        for f in folds {
            all.hop_rows += f.hop_rows;
            all.hop_edges += f.hop_edges;
            all.workers.extend(f.workers.iter().cloned());
        }
        all
    }

    /// Writes `class.exec.*_ms` as averages over `calls` profiled runs.
    pub fn write(&self, class: &str, calls: usize, layers: &mut Layers) {
        for (_, bucket) in EXEC_OPS.iter().chain([&("", "unattributed")]) {
            let v = self.self_ms.get(bucket).copied().unwrap_or(0.0) / calls.max(1) as f64;
            layers.insert(format!("{class}.exec.{bucket}_ms"), v);
        }
    }
}

/// Max over mean work per worker, over every parallel operator (1 when
/// the work was balanced or nothing ran in parallel).
pub fn worker_skew(dists: &[Vec<u64>]) -> f64 {
    let mut totals: Vec<u64> = Vec::new();
    for d in dists {
        if totals.len() < d.len() {
            totals.resize(d.len(), 0);
        }
        for (t, x) in totals.iter_mut().zip(d) {
            *t += x;
        }
    }
    let sum: u64 = totals.iter().sum();
    if totals.is_empty() || sum == 0 {
        return 1.0;
    }
    let mean = sum as f64 / totals.len() as f64;
    *totals.iter().max().expect("non-empty") as f64 / mean
}

/// Adds the deterministic counters of `r` to `class`'s `governor.*`
/// metrics.
pub fn add_governor(class: &str, r: &ResourceReport, layers: &mut Layers) {
    for (suffix, v) in [
        ("governor.edges_scanned", r.edges_scanned),
        ("governor.vertices_touched", r.vertices_touched),
        ("governor.rows_materialized", r.rows_materialized),
        ("governor.morsels_dispatched", r.morsels_dispatched),
        ("governor.peak_accum_bytes", r.peak_accum_bytes),
        ("governor.while_iterations", r.while_iterations),
    ] {
        *layers.entry(format!("{class}.{suffix}")).or_default() += v as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = per_layer();
        for (name, unit) in &all {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(all.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let j = gsql_serve::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|a| match a {
                    gsql_serve::json::Json::Arr(xs) => Some(xs.clone()),
                    _ => None,
                })
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), want);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "rss_mb",
                "median_ms",
                "p90_ms",
                "throughput_per_s"
            ]
        );
    }

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(worker_skew(&[]), 1.0);
        assert_eq!(worker_skew(&[vec![5, 5]]), 1.0);
        // Totals 6 and 2: mean 4, max 6.
        assert_eq!(worker_skew(&[vec![4, 1], vec![2, 1]]), 1.5);
    }
}
