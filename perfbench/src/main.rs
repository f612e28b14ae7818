//! One benchmark command for the gsql-agg engine, server and WAL.
//!
//! ```text
//! perfbench --workload <paper-sf1|iterative-sf10|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. The run prints every metric by
//! name with its unit, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric → layer map.

mod host;
mod iterative;
mod layers;
mod ops;
mod paper;
mod serve;
mod stats;
mod texts;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Latency samples (ms) of one operation class.
pub struct Class {
    /// The class's metric name as printed (e.g. `qacc_ms`).
    pub metric: &'static str,
    pub ms: Vec<f64>,
    /// The class's statistics in `median_ms` and `p90_ms` when the
    /// workload computes them itself; otherwise the median of `ms` and its
    /// p90 (the median below [`stats::GATED_TAIL_SAMPLES`] samples).
    pub gated: Option<(f64, f64)>,
}

impl Class {
    fn gated_median(&self) -> f64 {
        self.gated.map_or_else(|| stats::median(&self.ms), |g| g.0)
    }

    fn gated_p90(&self) -> f64 {
        self.gated
            .map_or_else(|| stats::percentile_or_median(&self.ms, 90.0), |g| g.1)
    }
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and counter-ledger findings; any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Set-up times of the repeated set-ups, seconds.
    pub setups_s: Vec<f64>,
    /// Timed operation classes, for `median_ms` and `p90_ms`.
    pub classes: Vec<Class>,
    /// Reference-kernel times (ms) interleaved with the timed operations
    /// (see [`host`]).
    pub kernel_ms: Vec<f64>,
    /// Closed-loop operations per second.
    pub throughput_per_s: f64,
    /// Reference-kernel times taken while the throughput was measured,
    /// when they differ from `kernel_ms`; `throughput_per_s` is scaled by
    /// these if any.
    pub throughput_kernel_ms: Vec<f64>,
    /// Workload-specific metrics printed by name: (name, value, unit, note).
    pub extra: Vec<(String, f64, &'static str, String)>,
    /// Per-layer metrics measured by the traced run.
    pub layers: layers::Layers,
}

impl Outcome {
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.problem(format!("{what}: {e}"));
        }
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.extra.push((name.to_string(), value, unit, note));
    }
}

/// Runs `f` repeatedly until `budget` has elapsed (at least once).
pub fn for_duration(budget: Duration, mut f: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed() < budget {
        f(i);
        i += 1;
    }
    i
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where a run writes its spans and temporary data (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = trace::Tracer::new(args.trace, origin);
    let rss = host::RssSampler::start();
    let outcome = match args.workload.as_str() {
        "paper-sf1" => paper::run(&args, &mut tracer),
        "iterative-sf10" => iterative::run(&args, &mut tracer),
        "serve-mixed" => serve::run(&args, &mut tracer),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (paper-sf1, iterative-sf10, serve-mixed)"
            );
            std::process::exit(2);
        }
    };
    let rss_mb = rss.finish();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = out_dir().join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    report(&args, &outcome, rss_mb);
}

/// Prints every metric; timings are scaled to the nominal host (see
/// [`host`]).
fn report(args: &Args, o: &Outcome, rss_mb: f64) {
    let scale = host::scale(&o.kernel_ms);
    let throughput_scale = if o.throughput_kernel_ms.is_empty() {
        scale
    } else {
        host::scale(&o.throughput_kernel_ms)
    };
    println!(
        "workload {} seed {} ({} s measured, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit, note) in &o.extra {
        println!("  {name:<28} {value:>14.4} {unit:<6} {note}");
    }
    for c in &o.classes {
        let note = format!(
            "median; {} {:.4} ms; n={}",
            stats::tail_label(&c.ms),
            stats::tail_or_median(&c.ms),
            c.ms.len()
        );
        println!(
            "  {:<28} {:>14.4} {:<6} {note}",
            c.metric,
            stats::median(&c.ms),
            "ms"
        );
    }
    let medians: Vec<f64> = o.classes.iter().map(Class::gated_median).collect();
    let p90s: Vec<f64> = o.classes.iter().map(Class::gated_p90).collect();
    // (name, as measured, scaled to the nominal host, unit)
    let e2e: Vec<(&str, f64, f64, &str)> = vec![
        ("setup_s", stats::median(&o.setups_s), scale, "s"),
        ("rss_mb", rss_mb, 1.0, "MB"),
        ("median_ms", stats::gmean(&medians), scale, "ms"),
        ("p90_ms", stats::gmean(&p90s), scale, "ms"),
        (
            "throughput_per_s",
            o.throughput_per_s,
            1.0 / throughput_scale,
            "1/s",
        ),
    ]
    .into_iter()
    .map(|(n, v, f, u)| (n, v, v * f, u))
    .collect();
    let failed_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "  {:<28} {failed_ratio:>14.6} ratio  {} of {} operations",
        "failed_ratio", o.failed, o.attempted
    );
    println!(
        "  {:<28} {scale:>14.4} ratio  nominal over measured reference-kernel time; n={}",
        "host_scale",
        o.kernel_ms.len()
    );
    for (name, raw, v, unit) in &e2e {
        println!("  {name:<28} {v:>14.4} {unit:<6} scaled; {raw:.4} as measured");
    }
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if args.trace {
        for (name, unit) in layers::per_layer() {
            let v = o.layers.get(&name).copied().unwrap_or(0.0);
            println!("  {name:<36} {v:>14.4} {unit}");
            metrics.push((name, v, unit.to_string()));
        }
    } else {
        metrics.extend(
            e2e.iter()
                .map(|&(n, _, v, u)| (n.to_string(), v, u.to_string())),
        );
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = o.problems.is_empty() && finite && o.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                r#""{n}": {{"value": {}, "unit": "{u}"}}"#,
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    );
}
