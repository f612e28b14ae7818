//! `iterative-sf10`: PageRank (10 iterations) and WCC to fixpoint over
//! Person–Knows on SNB sf 10, in a closed loop — one caller, parallelism
//! 2. WHILE loops, POST_ACCUM, vertex-accumulator state, governor
//! accounting and morsel dispatch do the work.

use crate::layers::{add_governor, worker_skew, ExecFold, Layers};
use crate::ops::{median_us, overhead_pct, run_op, trace_lint_check, GRAPH_SEED, SETUPS};
use crate::stats::{median, Rng};
use crate::texts;
use crate::trace::Tracer;
use crate::{for_duration, ms, Args, Class, Outcome};
use gsql_core::{Engine, PreparedQuery, QueryOutput};
use ldbc_snb::{generate, SnbParams};
use pgraph::value::Value;
use std::time::{Duration, Instant};

const PARALLELISM: usize = 2;
const PAGERANK_ITERATIONS: usize = 10;

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut gen_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let g = generate(SnbParams::new(10.0, GRAPH_SEED));
        gen_s.push(t0.elapsed().as_secs_f64());
        let pr = PreparedQuery::prepare(&texts::pagerank()).map_err(|e| e.to_string())?;
        let wcc = PreparedQuery::prepare(&texts::wcc()).map_err(|e| e.to_string())?;
        o.setups_s.push(t0.elapsed().as_secs_f64());
        built = Some((g, [pr, wcc]));
    }
    let (g, stmts) = built.expect("at least one set-up");
    o.layers.insert("ldbc.generate_s".into(), median(&gen_s));
    trace_lint_check(&[&stmts[0], &stmts[1]], tr, &mut o.layers);
    let eng = Engine::new(&g).with_parallelism(PARALLELISM);

    // The damping factor is the one parameter drawn from the seed.
    let damping = 0.80 + 0.1 * Rng::new(args.seed).unit();
    let pr_args = [
        ("maxChange", Value::Double(0.0)),
        ("maxIteration", Value::Int(PAGERANK_ITERATIONS as i64)),
        ("dampingFactor", Value::Double(damping)),
    ];
    let check_start = Instant::now();
    let wcc_oracle = texts::wcc_oracle(&g);
    let check = |i: usize, out: &QueryOutput| {
        if i == 0 {
            texts::check_pagerank(&g, out, damping, PAGERANK_ITERATIONS)
        } else {
            texts::check_wcc(&g, out, &wcc_oracle)
        }
    };
    // Counter ledger and warm-up: each algorithm twice, untimed.
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut layers = Layers::new();
        for (i, class) in ["pagerank", "wcc"].into_iter().enumerate() {
            let out = eng
                .run_prepared(&stmts[i], if i == 0 { &pr_args } else { &[] })
                .map_err(|e| format!("{class}: {e}"))?;
            o.check(
                &format!("{class} matches the native algorithm"),
                check(i, &out),
            );
            add_governor(class, &out.report, &mut layers);
        }
        passes.push(layers);
    }
    if passes[0] != passes[1] {
        o.problem(format!(
            "governor counters differ between two identical passes: {:?} vs {:?}",
            passes[0], passes[1]
        ));
    }
    o.extra(
        "check_s",
        check_start.elapsed().as_secs_f64(),
        "s",
        "untimed oracle pass".into(),
    );
    o.extra(
        "damping",
        damping,
        "ratio",
        "PageRank damping factor drawn from the seed".into(),
    );

    let mut plain: [Vec<f64>; 2] = Default::default();
    let mut traced: [Vec<f64>; 2] = Default::default();
    let mut folds: [ExecFold; 2] = Default::default();
    let tracing = tr.on();
    let mut op_id = 0u64;
    // Operations per second of each PageRank + WCC pair, for
    // `throughput_per_s`.
    let mut rates = Vec::new();
    let t_loop = Instant::now();
    let pairs = for_duration(Duration::from_secs_f64(args.seconds), |r| {
        let traced_now = tracing && r % 2 == 1;
        tr.set_on(traced_now);
        let mut pair_s = 0.0;
        for (i, name) in ["pagerank", "wcc"].into_iter().enumerate() {
            op_id += 1;
            let t0 = Instant::now();
            let root = tr.start(name, op_id, None);
            let (out, prof) = run_op(
                &eng,
                &stmts[i],
                if i == 0 { &pr_args } else { &[] },
                tr,
                op_id,
                root.id(),
            );
            tr.end(root);
            let t = ms(t0.elapsed());
            pair_s += t / 1e3;
            o.attempted += 1;
            if let Err(e) = out.and_then(|out| check(i, &out)) {
                o.failed += 1;
                o.problem(format!("{name}: {e}"));
            }
            if let Some(prof) = prof {
                folds[i].add(&prof.root);
            }
            (if traced_now { &mut traced } else { &mut plain })[i].push(t);
            crate::host::sample(&mut o.kernel_ms);
        }
        rates.push(2.0 / pair_s);
    });
    tr.set_on(tracing);
    let loop_s = t_loop.elapsed().as_secs_f64();
    // The median pair's rate: a stall of the host during one pair does
    // not move it.
    o.throughput_per_s = median(&rates);
    for (metric, xs) in ["pagerank_ms", "wcc_ms"].into_iter().zip(plain.iter()) {
        o.classes.push(Class {
            metric,
            ms: xs.clone(),
            gated: None,
        });
    }
    o.extra(
        "runs",
        (2 * pairs) as f64,
        "count",
        format!("PageRank and WCC runs in {loop_s:.1} s"),
    );

    if tracing {
        for (i, class) in ["pagerank", "wcc"].into_iter().enumerate() {
            folds[i].write(class, traced[i].len(), &mut o.layers);
        }
        let all = ExecFold::merged(&folds);
        o.layers.insert(
            "hop.rows_per_edge".into(),
            all.hop_rows as f64 / all.hop_edges.max(1) as f64,
        );
        o.layers
            .insert("morsel.worker_skew".into(), worker_skew(&all.workers));
        o.layers.insert(
            "parser.parse_us".into(),
            median_us(&tr.self_times(), "parser.parse"),
        );
        o.layers
            .insert("trace.overhead_pct".into(), overhead_pct(&plain, &traced));
    }
    o.layers.extend(passes.swap_remove(0));
    Ok(o)
}
