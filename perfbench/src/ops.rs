//! Engine calls shared by the workloads, each timed as one operation
//! and, in a traced run, wrapped in spans.

use crate::layers::Layers;
use crate::stats::{gmean, median};
use crate::trace::Tracer;
use gsql_core::{Engine, PathSemantics, PreparedQuery, Profile, QueryOutput};
use pgraph::value::Value;
use std::collections::BTreeMap;

/// Generator seed of every SNB graph the benchmark builds; `--seed`
/// draws the query parameters, never the graph.
pub const GRAPH_SEED: u64 = 2024;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs a prepared statement. Untraced: `Engine::run_prepared`. Traced:
/// the same call with profiling, inside an `engine.run` span.
pub fn run_op(
    eng: &Engine,
    pq: &PreparedQuery,
    args: &[(&str, Value)],
    tr: &mut Tracer,
    op: u64,
    parent: Option<u32>,
) -> (Result<QueryOutput, String>, Option<Profile>) {
    if !tr.on() {
        return (eng.run_prepared(pq, args).map_err(|e| e.to_string()), None);
    }
    let s = tr.start("engine.run", op, parent);
    let r = eng.run_prepared_with(pq, args, true);
    tr.end(s);
    match r {
        Ok((out, prof)) => (Ok(out), prof),
        Err(e) => (Err(e.to_string()), None),
    }
}

/// `Engine::run_text` split into its layers — parse, lower, execute —
/// each in its own span.
pub fn run_text_traced(
    eng: &Engine,
    text: &str,
    args: &[(&str, Value)],
    tr: &mut Tracer,
    op: u64,
    parent: Option<u32>,
) -> (Result<QueryOutput, String>, Option<Profile>) {
    let s = tr.start("parser.parse", op, parent);
    let pq = PreparedQuery::prepare(text);
    tr.end(s);
    let pq = match pq {
        Ok(pq) => pq,
        Err(e) => return (Err(e.to_string()), None),
    };
    let s = tr.start("plan.lower", op, parent);
    pq.plan_for(eng.graph().stats().epoch(), eng.semantics(), || {
        eng.plan(pq.query())
    });
    tr.end(s);
    run_op(eng, &pq, args, tr, op, parent)
}

/// Times the analyzer servers run at prepare time over each statement
/// (`lint.check_us`); traced runs only.
pub fn trace_lint_check(stmts: &[&PreparedQuery], tr: &mut Tracer, layers: &mut Layers) {
    if !tr.on() {
        return;
    }
    for pq in stmts {
        let s = tr.start("lint.check", 0, None);
        std::hint::black_box(pq.diagnostics(PathSemantics::AllShortestPaths));
        tr.end(s);
    }
    layers.insert(
        "lint.check_us".into(),
        median_us(&tr.self_times(), "lint.check"),
    );
}

/// Median self time (µs) of the spans called `name`; 0 when none ran.
pub fn median_us(st: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    match st.get(name) {
        Some(ns) if !ns.is_empty() => {
            median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
        }
        _ => 0.0,
    }
}

/// Geometric mean over classes of the traced over the untraced median,
/// as a percentage above 1; classes without both kinds of sample are
/// skipped.
pub fn overhead_pct(plain: &[Vec<f64>], traced: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .filter(|(p, t)| !p.is_empty() && !t.is_empty())
        .map(|(p, t)| median(t) / median(p))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (gmean(&ratios) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_compares_matching_classes_only() {
        let plain = vec![vec![10.0, 10.0], vec![], vec![4.0]];
        let traced = vec![vec![11.0], vec![5.0], vec![4.4]];
        // Both present classes read 10% slower; the class without an
        // untraced sample is skipped.
        assert!((overhead_pct(&plain, &traced) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[vec![]], &[vec![1.0]]), 0.0);
    }

    #[test]
    fn median_us_reads_nanosecond_self_times() {
        let mut st = BTreeMap::new();
        st.insert("x", vec![1_000, 3_000, 2_000]);
        assert_eq!(median_us(&st, "x"), 2.0);
        assert_eq!(median_us(&st, "y"), 0.0);
    }
}
