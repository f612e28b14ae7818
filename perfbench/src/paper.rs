//! `paper-sf1`: the paper's own queries in a closed loop — one caller,
//! parallelism 1, SNB sf 1 — plus Table 1's `Q_30` through
//! `Engine::run_text`, which parses and plans on every call.

use crate::layers::{add_governor, worker_skew, ExecFold, Layers};
use crate::ops::{
    median_us, overhead_pct, run_op, run_text_traced, trace_lint_check, GRAPH_SEED, SETUPS,
};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{for_duration, ms, Args, Class, Outcome};
use gsql_core::{Engine, PathSemantics, PreparedQuery};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::datetime::to_epoch;
use pgraph::graph::Graph;
use pgraph::value::Value;
use std::time::{Duration, Instant};

/// Distinct parameter sets the IC queries cycle through.
const PARAM_SETS: usize = 16;
/// `Q_30` calls per rotation (it is ~1000× cheaper than `Q_gs`).
const QN30_PER_ROTATION: usize = 8;
const IC_HOPS: usize = 3;

fn ic_args(name: &str, g: &Graph, rng: &mut Rng) -> Vec<(&'static str, Value)> {
    let pt = g.schema().vertex_type_id("Person").expect("SNB Person");
    let persons = g.vertices_of_type(pt);
    let p = Value::Vertex(persons[rng.below(persons.len())]);
    let country = |rng: &mut Rng| Value::from(format!("country{}", rng.below(20)));
    let date = |rng: &mut Rng| {
        Value::DateTime(to_epoch(
            2010 + rng.below(3) as i64,
            1 + rng.below(12) as u32,
            1,
        ))
    };
    match name {
        "ic3" => {
            let x = rng.below(20);
            let y = (x + 1 + rng.below(19)) % 20;
            vec![
                ("p", p),
                ("countryX", Value::from(format!("country{x}"))),
                ("countryY", Value::from(format!("country{y}"))),
            ]
        }
        "ic5" => vec![("p", p), ("minDate", date(rng))],
        "ic9" => vec![("p", p), ("maxDate", date(rng))],
        _ => vec![
            ("p", p),
            ("country", country(rng)),
            ("beforeYear", Value::Int(2005 + rng.below(8) as i64)),
        ],
    }
}

/// The `PRINT @@x.size() = n` values of a query's output.
fn sizes(prints: &[String]) -> Result<Vec<i64>, String> {
    prints
        .iter()
        .map(|l| {
            l.rsplit('=')
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("no size in `{l}`"))
        })
        .collect()
}

struct Stmt {
    name: &'static str,
    pq: PreparedQuery,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut gen_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let g = generate(SnbParams::new(1.0, GRAPH_SEED));
        gen_s.push(t0.elapsed().as_secs_f64());
        let diamond = pgraph::generators::diamond_chain(30).0;
        let mut stmts = Vec::new();
        for (name, text) in [
            ("qacc", queries::q_acc()),
            ("qgs", queries::q_gs()),
            ("ic3", queries::ic3(IC_HOPS)),
            ("ic5", queries::ic5(IC_HOPS)),
            ("ic9", queries::ic9(IC_HOPS)),
            ("ic11", queries::ic11(IC_HOPS)),
        ] {
            stmts.push(Stmt {
                name,
                pq: PreparedQuery::prepare(&text).map_err(|e| e.to_string())?,
            });
        }
        o.setups_s.push(t0.elapsed().as_secs_f64());
        built = Some((g, diamond, stmts));
    }
    let (g, diamond, stmts) = built.expect("at least one set-up");
    o.layers.insert("ldbc.generate_s".into(), median(&gen_s));
    trace_lint_check(
        &stmts.iter().map(|s| &s.pq).collect::<Vec<_>>(),
        tr,
        &mut o.layers,
    );
    let eng = Engine::new(&g).with_parallelism(1);
    let deng = Engine::new(&diamond).with_parallelism(1);
    let qn_text = gsql_core::stdlib::qn("V", "E");
    let qn_args = [
        ("srcName", Value::from("v0")),
        ("tgtName", Value::from("v30")),
    ];

    // Parameters from the seed; expected answers from one untimed pass.
    let mut rng = Rng::new(args.seed);
    let params: Params = (0..PARAM_SETS)
        .map(|_| {
            stmts[2..]
                .iter()
                .map(|s| ic_args(s.name, &g, &mut rng))
                .collect()
        })
        .collect();
    let check_start = Instant::now();
    let expected = expected_answers(&eng, &deng, &stmts, &params, &qn_args, &mut o)?;
    check_oracles(&g, &diamond, &stmts, &params, &expected, &mut o);
    o.extra(
        "check_s",
        check_start.elapsed().as_secs_f64(),
        "s",
        "untimed oracle pass".into(),
    );

    // The timed closed loop. With tracing, odd rotations are traced and
    // even ones are not, so the overhead is measured on the same drift.
    let mut plain: [Vec<f64>; 4] = Default::default();
    let mut traced: [Vec<f64>; 4] = Default::default();
    let mut folds: [ExecFold; 4] = Default::default();
    let mut traced_rotations = 0;
    let mut op_id = 0u64;
    let tracing = tr.on();
    let ops_per_rotation = stmts.len() + QN30_PER_ROTATION;
    // Operations per second of each rotation, for `throughput_per_s`.
    let mut rates = Vec::new();
    let t_loop = Instant::now();
    let rotations = for_duration(Duration::from_secs_f64(args.seconds), |r| {
        let t_rotation = Instant::now();
        let traced_now = tracing && r % 2 == 1;
        tr.set_on(traced_now);
        let p = r % PARAM_SETS;
        let mut lap = [0.0f64; 4];
        for i in 0..stmts.len() + QN30_PER_ROTATION {
            op_id += 1;
            let class = [0, 1, 2, 2, 2, 2].get(i).copied().unwrap_or(3);
            let name = stmts.get(i).map_or("qn30", |s| s.name);
            let t0 = Instant::now();
            let root = tr.start(name, op_id, None);
            let (out, prof) = match i {
                0 | 1 => run_op(&eng, &stmts[i].pq, &[], tr, op_id, root.id()),
                2..=5 => run_op(&eng, &stmts[i].pq, &params[p][i - 2], tr, op_id, root.id()),
                _ if traced_now => run_text_traced(&deng, &qn_text, &qn_args, tr, op_id, root.id()),
                _ => (
                    deng.run_text(&qn_text, &qn_args).map_err(|e| e.to_string()),
                    None,
                ),
            };
            tr.end(root);
            let t = ms(t0.elapsed());
            let want = match i {
                0 | 1 => &expected.paper[i],
                2..=5 => &expected.ic[p][i - 2],
                _ => &expected.qn30,
            };
            o.attempted += 1;
            if out.as_ref().map(|x| &x.prints) != Ok(want) {
                o.failed += 1;
                o.problem(format!(
                    "{name} answer differs from the oracle-checked one ({:?})",
                    out.err()
                ));
            }
            if let Some(prof) = prof {
                folds[class].add(&prof.root);
            }
            lap[class] += t;
        }
        // One sample per rotation and class; `Q_30`'s is the mean of its
        // calls, whose single ~0.1 ms times mostly measure timer and
        // scheduler noise.
        lap[3] /= QN30_PER_ROTATION as f64;
        let target = if traced_now { &mut traced } else { &mut plain };
        for c in 0..4 {
            target[c].push(lap[c]);
        }
        traced_rotations += traced_now as usize;
        rates.push(ops_per_rotation as f64 / t_rotation.elapsed().as_secs_f64());
        crate::host::sample(&mut o.kernel_ms);
    });
    tr.set_on(tracing);
    let loop_s = t_loop.elapsed().as_secs_f64();
    let timed_ops = rotations * ops_per_rotation;
    // The median rotation's rate: a stall of the host during one rotation
    // does not move it.
    o.throughput_per_s = median(&rates);
    for (metric, xs) in ["qacc_ms", "qgs_ms", "ic_ms", "qn30_ms"]
        .into_iter()
        .zip(plain.iter())
    {
        o.classes.push(Class {
            metric,
            ms: xs.clone(),
            gated: None,
        });
    }
    o.extra(
        "rotations",
        rotations as f64,
        "count",
        format!("{timed_ops} queries in {loop_s:.1} s"),
    );

    if tracing {
        let rots = traced_rotations.max(1);
        for (c, class) in ["qacc", "qgs", "ic", "qn30"].into_iter().enumerate() {
            folds[c].write(
                class,
                if c == 3 {
                    rots * QN30_PER_ROTATION
                } else {
                    rots
                },
                &mut o.layers,
            );
        }
        let all = ExecFold::merged(&folds);
        o.layers.insert(
            "hop.rows_per_edge".into(),
            all.hop_rows as f64 / all.hop_edges.max(1) as f64,
        );
        o.layers
            .insert("morsel.worker_skew".into(), worker_skew(&all.workers));
        // Only Q_30 lowers per call; the prepared statements reuse a plan.
        o.layers
            .insert("plan.lowerings".into(), QN30_PER_ROTATION as f64);
        let st = tr.self_times();
        o.layers
            .insert("parser.parse_us".into(), median_us(&st, "parser.parse"));
        o.layers
            .insert("plan.lower_us".into(), median_us(&st, "plan.lower"));
        o.layers
            .insert("trace.overhead_pct".into(), overhead_pct(&plain, &traced));
    }
    o.layers.extend(expected.ledger);
    Ok(o)
}

struct Expected {
    /// PRINT lines of `Q_acc` and `Q_gs` (indexed like the statements).
    paper: Vec<Vec<String>>,
    /// `[param set][ic query]` PRINT lines.
    ic: Vec<Vec<Vec<String>>>,
    qn30: Vec<String>,
    /// Per-class `governor.*` counters and IC kernel calls of one pass
    /// at parameter set 0 (the pass is repeated and must match).
    ledger: Layers,
}

type Params = Vec<Vec<Vec<(&'static str, Value)>>>;

fn expected_answers(
    eng: &Engine,
    deng: &Engine,
    stmts: &[Stmt],
    params: &Params,
    qn: &[(&str, Value)],
    o: &mut Outcome,
) -> Result<Expected, String> {
    let run = |i: usize, a: &[(&str, Value)]| {
        eng.run_prepared(&stmts[i].pq, a)
            .map_err(|e| format!("{}: {e}", stmts[i].name))
    };
    let run_qn = || {
        deng.run_text(&gsql_core::stdlib::qn("V", "E"), qn)
            .map_err(|e| format!("Q_30: {e}"))
    };
    let paper = vec![run(0, &[])?.prints, run(1, &[])?.prints];
    let mut ic = Vec::new();
    for set in params {
        ic.push(
            set.iter()
                .enumerate()
                .map(|(k, a)| run(2 + k, a).map(|out| out.prints))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut layers = Layers::new();
        let mut kernel_calls = 0;
        for (i, s) in stmts.iter().enumerate() {
            let out = run(i, if i < 2 { &[] } else { &params[0][i - 2] })?;
            add_governor(if i < 2 { s.name } else { "ic" }, &out.report, &mut layers);
            kernel_calls += if i < 2 { 0 } else { out.stats.kernel_calls };
        }
        add_governor("qn30", &run_qn()?.report, &mut layers);
        layers.insert("semantics.kernel_calls".into(), kernel_calls as f64);
        passes.push(layers);
    }
    if passes[0] != passes[1] {
        o.problem(format!(
            "governor counters differ between two identical passes: {:?} vs {:?}",
            passes[0], passes[1]
        ));
    }
    Ok(Expected {
        paper,
        ic,
        qn30: run_qn()?.prints,
        ledger: passes.swap_remove(0),
    })
}

/// The workload's oracles: `Q_30` against the BFS path count, the
/// Appendix-B invariant between `Q_gs` and `Q_acc`, and every IC answer
/// under counting against all-shortest-paths enumeration.
fn check_oracles(
    g: &Graph,
    diamond: &Graph,
    stmts: &[Stmt],
    params: &Params,
    expected: &Expected,
    o: &mut Outcome,
) {
    let name_of = |n: &str| {
        diamond
            .vertices()
            .find(|&v| diamond.vertex_attr_by_name(v, "name") == Some(&Value::from(n)))
    };
    let count = match (name_of("v0"), name_of("v30")) {
        (Some(s), Some(t)) => {
            pgraph::algo::count_shortest_paths(diamond, s, t).map(|(_, c)| c.to_string())
        }
        _ => None,
    };
    let printed = expected.qn30.join(" ");
    o.check(
        "Q_30 equals the BFS shortest-path count",
        match count {
            Some(c)
                if printed.contains(&format!(", {c}")) || printed.contains(&format!(" {c}")) =>
            {
                Ok(())
            }
            c => Err(format!("printed `{printed}`, BFS count {c:?}")),
        },
    );
    let inv = sizes(&expected.paper[0]).and_then(|acc| {
        let gs = sizes(&expected.paper[1])?;
        match (acc.as_slice(), gs.as_slice()) {
            ([a, b, c], [total]) if a + b + c == *total && *total > 0 => Ok(()),
            _ => Err(format!("Q_acc sizes {acc:?}, Q_gs total {gs:?}")),
        }
    });
    o.check(
        "Q_gs group total equals the sum of Q_acc's grouping-set sizes",
        inv,
    );
    let enumerating = Engine::new(g)
        .with_semantics(PathSemantics::AllShortestPathsEnumerate)
        .with_enum_budget(200_000_000);
    for (p, set) in params.iter().enumerate() {
        for (k, a) in set.iter().enumerate() {
            let r = match enumerating.run_prepared(&stmts[2 + k].pq, a) {
                Ok(out) if out.prints == expected.ic[p][k] => Ok(()),
                Ok(out) => Err(format!(
                    "parameter set {p}: {:?} vs counting {:?}",
                    out.prints, expected.ic[p][k]
                )),
                Err(e) => Err(format!("parameter set {p}: {e}")),
            };
            o.check(
                &format!(
                    "{} under counting agrees with enumeration",
                    stmts[2 + k].name
                ),
                r,
            );
        }
    }
}
