//! `serve-mixed`: an in-process `gsql-serve` over a durable SNB sf 1
//! graph, driven by one load generator with two keep-alive connections.
//!
//! A closed-loop read + ad-hoc phase measures `capacity_qps`; then an
//! open loop offers a fixed rate of 80% prepared reads, 15% ad-hoc
//! `/query` texts (Zipf-popular over 1,024 distinct texts, 4× the plan
//! cache) and 5% `/mutate` writes. Connection 0 sends every write,
//! connection 1 every read and ad-hoc text. Open-loop latency is timed
//! from each request's scheduled send time.
//!
//! The host's speed is timed on the load threads between requests (see
//! [`Probe`]), and the gated statistics are medians over windows of the
//! run: `capacity_qps` over half-second windows of the closed loop; each
//! request kind's median round trip, and the p90 of the time the server
//! reports, over three-second windows of the open loop, by due time. The
//! whole-run latencies from the due time are printed beside them.

use crate::layers::Layers;
use crate::ops::{median_us, overhead_pct, GRAPH_SEED, SETUPS};
use crate::stats::{
    median, percentile, tail, tail_label, tail_or_median, windowed, zipf_cdf, zipf_pick, Rng,
};
use crate::texts;
use crate::trace::Tracer;
use crate::{ms, out_dir, Args, Class, Outcome};
use gsql_core::{Engine, PathSemantics, PreparedQuery};
use gsql_serve::client::{Client, ClientResponse};
use gsql_serve::handlers::result_json;
use gsql_serve::json::{value_to_json, write_json, Json};
use gsql_serve::{Server, ServerConfig};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::graph::Graph;
use pgraph::value::Value;
use pgraph::wal::{FlushPolicy, LiveGraph};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const PLAN_CACHE: usize = 256;
const ADHOC_TEXTS: usize = 4 * PLAN_CACHE;
const CHECKPOINT_EVERY: u64 = 256;
/// Share of `--seconds` spent in the closed-loop capacity phase.
const CAPACITY_SHARE: f64 = 0.2;
/// Offered rate of the open loop, requests per second. Each write clones,
/// re-finalizes and fsyncs the graph (~15 ms) on connection 0, so half of
/// `capacity_qps` would overload it. At 576/s, the lowest rate at which a
/// 30 s run covers three checkpoint cycles, queueing amplified the host's
/// speed drift into a 0.3–0.6 spread of the latency metrics across runs;
/// at this rate a run covers 1.35 cycles.
const RATE: f64 = 288.0;
/// Latency limits (ms) of reads, ad-hoc texts and writes: about 4× each
/// kind's median when the rate was fixed.
const SLO_MS: [f64; 3] = [1.8, 3.2, 62.0];
/// Width of the open-loop windows the gated latencies are taken over.
const WINDOW_S: f64 = 3.0;
/// Width of the capacity-phase windows `capacity_qps` is taken over.
const CAP_WINDOW_S: f64 = 0.5;
/// Least time between two reference-kernel samples of the open loop.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Least idle time before a request's due time that a kernel sample may
/// take: the short kernel runs for about half a millisecond.
const PROBE_GAP: Duration = Duration::from_micros(1500);
/// Closed-loop warm-up requests before the capacity phase.
const WARM_UP: usize = 200;
/// Requests of the deterministic script the counter ledger replays.
const LEDGER_REQUESTS: usize = 400;
const PARAMS: usize = 256;
const READS: [&str; 6] = ["is1", "is2", "is3", "is5", "is7", "ic5"];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Read,
    Adhoc,
    Write,
}

const KINDS: [Kind; 3] = [Kind::Read, Kind::Adhoc, Kind::Write];

impl Kind {
    fn index(self) -> usize {
        self as usize
    }
    fn name(self) -> &'static str {
        ["read", "adhoc", "write"][self.index()]
    }
}

/// One scheduled request.
#[derive(Clone)]
struct Req {
    kind: Kind,
    /// `(read statement, parameter set)` or ad-hoc text number.
    what: (usize, usize),
    /// Write payload: `(person id, stamp)`.
    write: (i64, i64),
}

/// Request `i` of the mix: every 20th is a write (5%) when `writes`;
/// the rest are reads and ad-hoc texts in the ratio 80 : 15, drawn from
/// the seed.
fn draw(i: usize, rng: &mut Rng, cdf: &[f64], writes: bool, persons: usize) -> Req {
    let kind = if writes && i % 20 == 19 {
        Kind::Write
    } else if rng.unit() < 80.0 / 95.0 {
        Kind::Read
    } else {
        Kind::Adhoc
    };
    let what = match kind {
        Kind::Read => (rng.below(READS.len()), rng.below(PARAMS)),
        _ => (0, zipf_pick(cdf, rng)),
    };
    let write = (rng.below(persons) as i64, rng.below(1 << 30) as i64);
    Req { kind, what, write }
}

/// Whether a traced run records spans for request `i`: alternate blocks
/// of 20, so every kind (writes are every 20th) is traced half the time.
fn traced_req(i: usize) -> bool {
    (i / 20) % 2 == 1
}

/// Offset of open-loop request `i` from the start of the schedule.
fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Open-loop latency: from when the request was due, not when it was
/// sent, so a stall also counts against the requests queued behind it.
fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// The open-loop window request `i` falls in, by its due time.
fn window_of(i: usize, rate: f64) -> usize {
    (due_offset(i, rate).as_secs_f64() / WINDOW_S) as usize
}

/// Completions per second: the median over the full `width_s` windows
/// from `t0_ns` to `end_ns` of the completions `done_ns` each holds.
fn windowed_rate(done_ns: &[u64], t0_ns: u64, end_ns: u64, width_s: f64) -> f64 {
    let full = ((end_ns.saturating_sub(t0_ns)) as f64 / 1e9 / width_s) as usize;
    let mut counts = vec![0.0; full.max(1)];
    for &d in done_ns {
        let k = (d.saturating_sub(t0_ns) as f64 / 1e9 / width_s) as usize;
        if let Some(c) = counts.get_mut(k) {
            *c += 1.0;
        }
    }
    median(&counts) / width_s
}

/// How late the generator sent a request.
fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Everything the workload sends, with the expected answer of each read.
struct Workload {
    read_ids: Vec<String>,
    /// `[statement][parameter set]` → JSON params body.
    read_bodies: Vec<Vec<String>>,
    read_expected: Vec<Vec<String>>,
    adhoc_bodies: Vec<String>,
    adhoc_expected: Vec<String>,
    write_text: String,
}

impl Workload {
    fn request(&self, r: &Req) -> (String, String) {
        match r.kind {
            Kind::Read => (
                format!("/execute/{}", self.read_ids[r.what.0]),
                self.read_bodies[r.what.0][r.what.1].clone(),
            ),
            Kind::Adhoc => ("/query".into(), self.adhoc_bodies[r.what.1].clone()),
            Kind::Write => {
                let params = obj(&[
                    ("pid", Value::Int(r.write.0)),
                    ("stamp", Value::DateTime(r.write.1)),
                ]);
                (
                    "/mutate".into(),
                    format!(
                        r#"{{"query":{},"params":{params}}}"#,
                        json_str(&self.write_text)
                    ),
                )
            }
        }
    }

    /// Whether a response carries the right answer.
    fn check(&self, r: &Req, resp: &ClientResponse) -> Result<(), String> {
        if resp.status != 200 {
            return Err(format!(
                "{} answered {}: {}",
                r.kind.name(),
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        let body = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
        let want = match r.kind {
            Kind::Read => &self.read_expected[r.what.0][r.what.1],
            Kind::Adhoc => &self.adhoc_expected[r.what.1],
            Kind::Write => {
                return if body.contains(r#""updated_attrs":1"#) {
                    Ok(())
                } else {
                    Err(format!("write did not update one attribute: {body}"))
                };
            }
        };
        match result_bytes(body) {
            Some(got) if got == want => Ok(()),
            got => Err(format!(
                "{} result {:?} differs from the local engine's {want}",
                r.kind.name(),
                got
            )),
        }
    }
}

/// The raw bytes of a response's `"result"` value (it precedes
/// `"report"` in every success envelope).
fn result_bytes(body: &str) -> Option<&str> {
    let start = body.find(r#""result":"#)? + r#""result":"#.len();
    let end = body.rfind(r#","report":"#)?;
    body.get(start..end)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json(&mut out, &Json::Str(s.to_string()));
    out
}

fn obj(pairs: &[(&str, Value)]) -> String {
    let mut out = String::new();
    write_json(
        &mut out,
        &Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), value_to_json(v)))
                .collect(),
        ),
    );
    out
}

fn elapsed_us(body: &[u8]) -> Option<f64> {
    let s = std::str::from_utf8(body).ok()?;
    let start = s.rfind(r#""elapsed_us":"#)? + r#""elapsed_us":"#.len();
    let digits: String = s[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct Running {
    server: Server,
    dir: PathBuf,
}

impl Running {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a durable server over `g` in a fresh data dir.
fn start(g: Graph, tag: &str) -> Result<Running, String> {
    let dir = out_dir().join(format!("serve-data-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        workers: WORKERS,
        max_concurrent_queries: WORKERS,
        parallelism: 1,
        plan_cache_capacity: PLAN_CACHE,
        data_dir: Some(dir.clone()),
        wal_fsync: FlushPolicy::Always,
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServerConfig::default()
    };
    let (live, _) = LiveGraph::open(&dir, g, cfg.wal_fsync, cfg.checkpoint_every)
        .map_err(|e| format!("{e:?}"))?;
    let server = Server::start(cfg, live).map_err(|e| e.to_string())?;
    Ok(Running { server, dir })
}

fn prepare_reads(addr: std::net::SocketAddr) -> Result<Vec<String>, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    read_texts()
        .iter()
        .map(|t| {
            let resp = c
                .post_json("/prepare", &[], &format!(r#"{{"query":{}}}"#, json_str(t)))
                .map_err(|e| e.to_string())?;
            resp.json()?
                .get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "prepare returned no id".to_string())
        })
        .collect()
}

fn read_texts() -> Vec<String> {
    vec![
        queries::is1(),
        queries::is2(),
        queries::is3(),
        queries::is5(),
        queries::is7(),
        queries::ic5(2),
    ]
}

fn build_workload(g: &Graph, read_ids: Vec<String>, rng: &mut Rng) -> Result<Workload, String> {
    let eng = Engine::new(g);
    let ty = |n: &str| g.vertices_of_type(g.schema().vertex_type_id(n).expect("SNB type"));
    let (persons, messages) = (ty("Person"), ty("Message"));
    let mut read_bodies = Vec::new();
    let mut read_expected = Vec::new();
    for (s, text) in read_texts().iter().enumerate() {
        let pq = PreparedQuery::prepare(text).map_err(|e| e.to_string())?;
        let mut bodies = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..PARAMS {
            let args: Vec<(&str, Value)> = match READS[s] {
                "is5" | "is7" => vec![("m", Value::Vertex(messages[rng.below(messages.len())]))],
                "ic5" => vec![
                    ("p", Value::Vertex(persons[rng.below(persons.len())])),
                    (
                        "minDate",
                        Value::DateTime(pgraph::datetime::to_epoch(
                            2010 + rng.below(3) as i64,
                            1 + rng.below(12) as u32,
                            1,
                        )),
                    ),
                ],
                _ => vec![("p", Value::Vertex(persons[rng.below(persons.len())]))],
            };
            bodies.push(format!(r#"{{"params":{}}}"#, obj(&args)));
            let out = eng
                .run_prepared(&pq, &args)
                .map_err(|e| format!("{}: {e}", READS[s]))?;
            let mut js = String::new();
            write_json(&mut js, &result_json(&out));
            expected.push(js);
        }
        read_bodies.push(bodies);
        read_expected.push(expected);
    }
    let adhoc_bodies: Vec<String> = (0..ADHOC_TEXTS)
        .map(|k| {
            format!(
                r#"{{"query":{}}}"#,
                json_str(&texts::adhoc(k, persons.len()))
            )
        })
        .collect();
    let adhoc_expected = (0..ADHOC_TEXTS)
        .map(|k| {
            let out = eng
                .run_text(&texts::adhoc(k, persons.len()), &[])
                .map_err(|e| format!("adhoc{k}: {e}"))?;
            let mut js = String::new();
            write_json(&mut js, &result_json(&out));
            Ok(js)
        })
        .collect::<Result<_, String>>()?;
    Ok(Workload {
        read_ids,
        read_bodies,
        read_expected,
        adhoc_bodies,
        adhoc_expected,
        write_text: texts::touch_person(),
    })
}

/// What one request measured.
#[derive(Clone)]
struct Sample {
    req: usize,
    kind: Kind,
    latency_ms: f64,
    lateness_ms: f64,
    sent_ns: u64,
    done_ns: u64,
    ok: bool,
    miss: bool,
    /// The time the server reports in the response (`elapsed_us`).
    server_ms: f64,
}

impl Sample {
    /// From send to response: the latency from the due time less the
    /// generator's lateness.
    fn round_trip_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// How a phase of the load ends, and whether it times the host.
#[derive(Clone, Copy, Default)]
struct Phase<'a> {
    /// No request is sent after this time, if given.
    stop: Option<Instant>,
    /// Times the host in the phase's idle moments, if given.
    probe: Option<&'a Probe>,
}

/// Sends `reqs` (index, due offset) on one connection in order, until
/// the phase stops. With `due` offsets the loop is open (each request
/// waits for its due time); without, it is closed.
fn drive(
    addr: std::net::SocketAddr,
    w: &Workload,
    reqs: &[Req],
    order: &[(usize, Option<Duration>)],
    start: Instant,
    Phase { stop, probe }: Phase,
    tr: &mut Tracer,
) -> Result<(Vec<Sample>, Vec<String>), String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(order.len());
    let mut problems = Vec::new();
    let tracing = tr.on();
    let mut last_probe = None;
    for &(i, due) in order {
        if stop.is_some_and(|s| Instant::now() >= s) {
            break;
        }
        let r = &reqs[i];
        let (path, body) = w.request(r);
        let due_at = due.map(|d| start + d);
        let writing = probe.filter(|_| r.kind == Kind::Write);
        if let Some(p) = probe.filter(|_| r.kind != Kind::Write) {
            p.sample_if_idle(due_at, &mut last_probe);
        }
        if let Some(d) = due_at {
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
        }
        tr.set_on(tracing && traced_req(i));
        let sent = Instant::now();
        let sent_ns = tr.now_ns();
        let root = tr.start(
            ["http.read", "http.adhoc", "http.write"][r.kind.index()],
            i as u64,
            None,
        );
        if let Some(p) = writing {
            p.writing.store(true, Ordering::Release);
        }
        let resp = c.post_json(&path, &[], &body);
        let done = Instant::now();
        if let Some(p) = writing {
            p.writing.store(false, Ordering::Release);
        }
        let done_ns = tr.now_ns();
        let due_at = due_at.unwrap_or(sent);
        let (ok, miss, server_us) = match &resp {
            Ok(resp) => {
                let checked = w.check(r, resp);
                if let Err(e) = &checked {
                    problems.push(e.clone());
                }
                let server_us = elapsed_us(&resp.body).unwrap_or(0.0);
                let miss = std::str::from_utf8(&resp.body)
                    .is_ok_and(|b| b.contains(r#""plan_cache":"miss""#));
                (checked.is_ok(), miss, server_us)
            }
            Err(e) => {
                problems.push(format!("{} request failed: {e}", r.kind.name()));
                (false, false, 0.0)
            }
        };
        let rtt_ns = done_ns - sent_ns;
        // The server's own time, placed mid-round-trip: the span's self
        // time is the client-observed overhead whatever its position.
        let server_ns = ((server_us * 1e3) as u64).min(rtt_ns);
        let s0 = sent_ns + (rtt_ns - server_ns) / 2;
        tr.record(
            ["server.read", "server.adhoc", "server.write"][r.kind.index()],
            i as u64,
            root.id(),
            s0,
            s0 + server_ns,
        );
        tr.end(root);
        out.push(Sample {
            req: i,
            kind: r.kind,
            latency_ms: ms(latency_from_due(due_at, done)),
            lateness_ms: ms(lateness(due_at, sent)),
            sent_ns,
            done_ns,
            ok,
            miss,
            server_ms: server_us / 1e3,
        });
        if resp.is_err() {
            c = Client::connect(addr).map_err(|e| e.to_string())?;
        }
    }
    tr.set_on(tracing);
    Ok((out, problems))
}

/// Times the short reference kernel on a load thread between its
/// requests, at most every [`PROBE_EVERY`]. In the open loop it samples on
/// the read connection while the server is idle: that connection has no
/// request outstanding, no write is in flight, and its next request is
/// due at least [`PROBE_GAP`] later. A kernel on a thread of its own
/// beside the load, or in bursts between the run's phases, did not follow
/// the server's latencies.
#[derive(Default)]
struct Probe {
    /// Set by the write connection while a write is outstanding. Its
    /// Release stores pair with the Acquire load before a sample; it
    /// publishes no other data.
    writing: AtomicBool,
    kernel_ms: Mutex<Vec<f64>>,
}

impl Probe {
    fn sample_if_idle(&self, due: Option<Instant>, last: &mut Option<Instant>) {
        let now = Instant::now();
        if self.writing.load(Ordering::Acquire)
            || due.is_some_and(|d| d < now + PROBE_GAP)
            || last.is_some_and(|l| now < l + PROBE_EVERY)
        {
            return;
        }
        *last = Some(now);
        let mut ms = Vec::with_capacity(1);
        crate::host::sample_short(&mut ms);
        self.kernel_ms
            .lock()
            .expect("probe lock poisoned")
            .extend(ms);
    }
}

/// One connection's samples, problems and spans.
type Driven = Result<(Vec<Sample>, Vec<String>, Tracer), String>;

/// Runs `per_conn` orders on parallel connections, until the phase
/// stops; returns the samples.
fn drive_all(
    addr: std::net::SocketAddr,
    w: &Workload,
    reqs: &[Req],
    per_conn: Vec<Vec<(usize, Option<Duration>)>>,
    phase: Phase,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .enumerate()
            .map(|(ci, order)| {
                let mut t = tr.fork(ci as u32);
                s.spawn(move || {
                    drive(addr, w, reqs, order, start, phase, &mut t).map(|(a, b)| (a, b, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        let (samples, problems, t) = r?;
        tr.absorb(t);
        for p in problems.into_iter().take(5) {
            o.problem(p);
        }
        all.extend(samples);
    }
    o.attempted += all.len() as u64;
    o.failed += all.iter().filter(|s| !s.ok).count() as u64;
    Ok(all)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut gen_s = Vec::new();
    let mut running: Option<(Running, Graph, Vec<String>)> = None;
    for k in 0..SETUPS {
        if let Some((r, _, _)) = running.take() {
            r.stop();
        }
        let t0 = Instant::now();
        let g = generate(SnbParams::new(1.0, GRAPH_SEED));
        gen_s.push(t0.elapsed().as_secs_f64());
        let r = start(g.clone(), &format!("setup{k}"))?;
        let ids = prepare_reads(r.server.local_addr())?;
        o.setups_s.push(t0.elapsed().as_secs_f64());
        running = Some((r, g, ids));
    }
    let (srv, g, ids) = running.expect("at least one set-up");
    o.layers.insert("ldbc.generate_s".into(), median(&gen_s));
    let addr = srv.server.local_addr();
    let persons = g
        .vertices_of_type(g.schema().vertex_type_id("Person").expect("Person"))
        .len();

    // Schedules from the seed.
    let mut rng = Rng::new(args.seed);
    let cdf = zipf_cdf(ADHOC_TEXTS, 1.0);
    let cap_s = args.seconds * CAPACITY_SHARE;
    let open_s = args.seconds - cap_s;
    let n_open = (RATE * open_s).round().max(1.0) as usize;
    let open: Vec<Req> = (0..n_open)
        .map(|i| draw(i, &mut rng, &cdf, true, persons))
        .collect();
    // Enough closed-loop requests that the phase is cut by time.
    let closed: Vec<Req> = (0..200_000)
        .map(|i| draw(i, &mut rng, &cdf, false, persons))
        .collect();
    let check_start = Instant::now();
    let w = build_workload(&g, ids, &mut rng)?;
    o.extra(
        "check_s",
        check_start.elapsed().as_secs_f64(),
        "s",
        "local-engine answers for byte comparison".into(),
    );

    // Warm-up, then the closed-loop capacity phase (read + ad-hoc only).
    let closed_orders = |from: usize, to: usize| -> Vec<Vec<(usize, Option<Duration>)>> {
        (0..CONNECTIONS)
            .map(|c| {
                (from + c..to)
                    .step_by(CONNECTIONS)
                    .map(|i| (i, None))
                    .collect()
            })
            .collect()
    };
    let untraced = || Tracer::new(false, Instant::now());
    drive_all(
        addr,
        &w,
        &closed,
        closed_orders(0, WARM_UP),
        Phase::default(),
        &mut untraced(),
        &mut o,
    )?;
    let cap_probe = Probe::default();
    let t_cap = Instant::now();
    let stop = t_cap + Duration::from_secs_f64(cap_s);
    let cap_samples = drive_all(
        addr,
        &w,
        &closed,
        closed_orders(WARM_UP, closed.len()),
        Phase {
            stop: Some(stop),
            probe: Some(&cap_probe),
        },
        &mut untraced(),
        &mut o,
    )?;
    let cap_wall = t_cap.elapsed().as_secs_f64();
    let cap_whole = cap_samples.iter().filter(|s| s.ok).count() as f64 / cap_wall;
    let done: Vec<u64> = cap_samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.done_ns)
        .collect();
    let cap = windowed_rate(
        &done,
        cap_samples.iter().map(|s| s.sent_ns).min().unwrap_or(0),
        done.iter().copied().max().unwrap_or(0),
        CAP_WINDOW_S,
    );

    // The open loop: writes on connection 0, reads and ad-hoc texts on
    // connection 1.
    let per_conn: Vec<Vec<(usize, Option<Duration>)>> = (0..CONNECTIONS)
        .map(|c| {
            open.iter()
                .enumerate()
                .filter(|(_, r)| (r.kind == Kind::Write) == (c == 0))
                .map(|(i, _)| (i, Some(due_offset(i, RATE))))
                .collect()
        })
        .collect();
    let shared = srv.server.shared().clone();
    let appends0 = shared.live.stats().appends.load(Ordering::Relaxed);
    let t_open = Instant::now();
    let probe = Probe::default();
    let phase = Phase {
        stop: None,
        probe: Some(&probe),
    };
    let samples = drive_all(addr, &w, &open, per_conn, phase, tr, &mut o)?;
    let open_wall = t_open.elapsed().as_secs_f64();
    o.kernel_ms = probe.kernel_ms.into_inner().expect("probe lock poisoned");
    let appends = shared.live.stats().appends.load(Ordering::Relaxed) - appends0;
    let rejected = (
        shared.metrics.rejected_busy.load(Ordering::Relaxed),
        shared.metrics.rejected_queue.load(Ordering::Relaxed),
    );
    drop(shared);
    srv.stop();

    let latencies = |keep: &dyn Fn(&Sample) -> bool| -> Vec<Vec<f64>> {
        KINDS
            .iter()
            .map(|&k| {
                samples
                    .iter()
                    .filter(|s| s.kind == k && keep(s))
                    .map(|s| s.latency_ms)
                    .collect()
            })
            .collect()
    };
    let lat = latencies(&|_| true);
    let misses = samples
        .iter()
        .filter(|s| !s.ok || s.latency_ms > SLO_MS[s.kind.index()])
        .count();
    let n_windows = window_of(n_open.saturating_sub(1), RATE) + 1;
    for (k, xs) in KINDS.iter().zip(&lat) {
        // (round trip, server-reported time) per window.
        let mut windows = vec![(Vec::new(), Vec::new()); n_windows];
        for s in samples.iter().filter(|s| s.kind == *k) {
            let w = &mut windows[window_of(s.req, RATE)];
            w.0.push(s.round_trip_ms());
            w.1.push(s.server_ms);
        }
        let (trip_w, server_w): (Vec<Vec<f64>>, Vec<Vec<f64>>) = windows.into_iter().unzip();
        let server_p90 = windowed(&server_w, |w| percentile(w, 90.0));
        o.extra(
            &format!("{}_server_p90_ms", k.name()),
            server_p90,
            "ms",
            format!("elapsed_us; median over {WINDOW_S} s windows"),
        );
        o.classes.push(Class {
            metric: ["read_ms", "adhoc_ms", "write_ms"][k.index()],
            ms: xs.clone(),
            gated: Some((windowed(&trip_w, median), server_p90)),
        });
    }
    o.throughput_per_s = cap;
    o.throughput_kernel_ms = cap_probe
        .kernel_ms
        .into_inner()
        .expect("probe lock poisoned");
    let tail_note = |xs: &[f64]| format!("{}; n={}", tail_label(xs), xs.len());
    o.extra(
        "read_p50_ms",
        median(&lat[0]),
        "ms",
        format!("n={}", lat[0].len()),
    );
    for (k, name) in [(0, "read_p99_ms"), (1, "adhoc_p99_ms"), (2, "write_p99_ms")] {
        o.extra(name, tail_or_median(&lat[k]), "ms", tail_note(&lat[k]));
    }
    o.extra(
        "slo_miss_ratio",
        misses as f64 / samples.len().max(1) as f64,
        "ratio",
        format!(
            "{misses} of {} over {:?} ms (read, adhoc, write) or failed",
            samples.len(),
            SLO_MS
        ),
    );
    o.extra(
        "capacity_qps",
        cap,
        "1/s",
        format!("closed loop, {CONNECTIONS} connections, read + ad-hoc, {cap_wall:.1} s; median over {CAP_WINDOW_S} s windows ({cap_whole:.1} over the whole phase)"),
    );
    o.extra(
        "offered_qps",
        RATE,
        "1/s",
        format!("open loop over {open_s:.1} s (took {open_wall:.1} s); writes on connection 0, the rest on connection 1"),
    );
    o.extra(
        "checkpoint_cycles",
        appends as f64 / CHECKPOINT_EVERY as f64,
        "count",
        format!("{appends} durable commits; FlushPolicy::Always, checkpoint_every {CHECKPOINT_EVERY}, workers = max_concurrent_queries = {WORKERS}, parallelism 1"),
    );

    if tr.on() {
        let (plain, traced) = (
            latencies(&|s| !traced_req(s.req)),
            latencies(&|s| traced_req(s.req)),
        );
        o.layers
            .insert("trace.overhead_pct".into(), overhead_pct(&plain, &traced));
        let st = tr.self_times();
        for k in KINDS {
            o.layers.insert(
                format!("server.{}_overhead_us", k.name()),
                median_us(&st, ["http.read", "http.adhoc", "http.write"][k.index()]),
            );
        }
        let adhoc: Vec<&Sample> = samples.iter().filter(|s| s.kind == Kind::Adhoc).collect();
        let hits = adhoc.iter().filter(|s| !s.miss).count();
        o.layers.insert(
            "plan_cache.hit_ratio".into(),
            hits as f64 / adhoc.len().max(1) as f64,
        );
        // Only the capacity phase sends ad-hoc texts on both connections.
        o.layers.insert(
            "plan_cache.duplicate_parses".into(),
            duplicate_parses(&cap_samples, &closed) as f64,
        );
        let late: Vec<f64> = samples.iter().map(|s| s.lateness_ms).collect();
        o.layers.insert(
            "loadgen.lateness_p99_ms".into(),
            tail(&late).map_or(median(&late), |(_, v)| v),
        );
        o.layers
            .insert("admission.rejected_busy".into(), rejected.0 as f64);
        o.layers
            .insert("admission.rejected_queue".into(), rejected.1 as f64);
        local_layers(&g, &w, tr, &mut o.layers)?;
    }

    // Counter ledger: the same deterministic script on two fresh servers.
    let script: Vec<Req> = open.iter().take(LEDGER_REQUESTS).cloned().collect();
    let a = ledger(&g, &w, &script, "ledger-a", &mut o)?;
    let b = ledger(&g, &w, &script, "ledger-b", &mut o)?;
    if a != b {
        o.problem(format!(
            "server counters differ between two runs of one script: {a:?} vs {b:?}"
        ));
    }
    o.layers.extend(a);
    o.layers
        .insert("plan.lowerings".into(), lowerings(&script) as f64);
    Ok(o)
}

/// Ad-hoc misses that overlapped, in time, another miss of the same
/// text: each one is a parse the cache's parse-once contract should
/// have saved.
fn duplicate_parses(samples: &[Sample], reqs: &[Req]) -> usize {
    let mut by_text: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.kind == Kind::Adhoc && s.miss) {
        by_text
            .entry(reqs[s.req].what.1)
            .or_default()
            .push((s.sent_ns, s.done_ns));
    }
    by_text
        .values_mut()
        .map(|iv| {
            iv.sort_unstable();
            iv.windows(2).filter(|p| p[1].0 < p[0].1).count()
        })
        .sum()
}

/// Plan re-lowerings a script causes: after each write, every distinct
/// statement that executes before the next write lowers its plan again
/// against the new snapshot.
fn lowerings(script: &[Req]) -> usize {
    let mut total = 0;
    let mut seen: Option<std::collections::HashSet<(Kind, usize)>> = None;
    for r in script {
        let key = match r.kind {
            Kind::Read => (Kind::Read, r.what.0),
            Kind::Adhoc => (Kind::Adhoc, r.what.1),
            Kind::Write => (Kind::Write, 0),
        };
        if let Some(s) = seen.as_mut() {
            total += s.insert(key) as usize;
        }
        if r.kind == Kind::Write {
            seen = Some([key].into_iter().collect());
            total += 1;
        }
    }
    total
}

/// Replays `script` on one connection against a fresh durable server and
/// returns its deterministic counters.
fn ledger(
    g: &Graph,
    w: &Workload,
    script: &[Req],
    tag: &str,
    o: &mut Outcome,
) -> Result<Layers, String> {
    let r = start(g.clone(), tag)?;
    let ids = prepare_reads(r.server.local_addr())?;
    if ids != w.read_ids {
        o.problem(format!(
            "prepared ids differ between servers: {ids:?} vs {:?}",
            w.read_ids
        ));
    }
    let order: Vec<(usize, Option<Duration>)> = (0..script.len()).map(|i| (i, None)).collect();
    let (samples, problems) = drive(
        r.server.local_addr(),
        w,
        script,
        &order,
        Instant::now(),
        Phase::default(),
        &mut Tracer::new(false, Instant::now()),
    )?;
    for p in problems.into_iter().take(5) {
        o.problem(p);
    }
    o.attempted += samples.len() as u64;
    o.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let sh = r.server.shared();
    let wal = sh.live.stats();
    let appends = wal.appends.load(Ordering::Relaxed);
    let mut l = Layers::new();
    l.insert(
        "plan_cache.hits".into(),
        sh.metrics.plan_hits.load(Ordering::Relaxed) as f64,
    );
    l.insert("wal.appends".into(), appends as f64);
    l.insert(
        "wal.fsyncs".into(),
        wal.fsyncs.load(Ordering::Relaxed) as f64,
    );
    l.insert(
        "wal.bytes_per_commit".into(),
        wal.bytes.load(Ordering::Relaxed) as f64 / appends.max(1) as f64,
    );
    r.stop();
    Ok(l)
}

/// Layer costs measured by calling each layer's public function from the
/// benchmark, on the same statements the server runs.
fn local_layers(
    g: &Graph,
    w: &Workload,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let persons = g
        .vertices_of_type(g.schema().vertex_type_id("Person").expect("Person"))
        .len();
    let eng = Engine::new(g);
    let reads: Vec<PreparedQuery> = read_texts()
        .iter()
        .map(|t| PreparedQuery::prepare(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for _ in 0..20 {
        for pq in &reads {
            let s = tr.start("lint.facts", 0, None);
            std::hint::black_box(pq.facts(PathSemantics::AllShortestPaths));
            tr.end(s);
            let s = tr.start("lint.check", 0, None);
            std::hint::black_box(pq.diagnostics(PathSemantics::AllShortestPaths));
            tr.end(s);
            let s = tr.start("plan.lower", 0, None);
            std::hint::black_box(eng.plan(pq.query()));
            tr.end(s);
        }
    }
    for k in 0..64 {
        let text = texts::adhoc(k, persons);
        let s = tr.start("parser.parse", 0, None);
        std::hint::black_box(PreparedQuery::prepare(&text).map_err(|e| e.to_string())?);
        tr.end(s);
    }
    // Publishing one write: clone, apply and finalize on an in-memory copy.
    let out = eng
        .run_text(
            &w.write_text,
            &[("pid", Value::Int(1)), ("stamp", Value::DateTime(7))],
        )
        .map_err(|e| e.to_string())?;
    let live = LiveGraph::in_memory(g.clone());
    for _ in 0..9 {
        let s = tr.start("pgraph.publish", 0, None);
        live.commit(&out.mutations).map_err(|e| format!("{e:?}"))?;
        tr.end(s);
    }
    let st = tr.self_times();
    for (span, metric) in [
        ("lint.facts", "lint.facts_us"),
        ("lint.check", "lint.check_us"),
        ("plan.lower", "plan.lower_us"),
        ("parser.parse", "parser.parse_us"),
    ] {
        layers.insert(metric.into(), median_us(&st, span));
    }
    layers.insert(
        "pgraph.publish_ms".into(),
        median_us(&st, "pgraph.publish") / 1e3,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(250, 100.0), Duration::from_millis(2500));
    }

    #[test]
    fn windows_follow_the_due_time() {
        assert_eq!(window_of(0, 100.0), 0);
        assert_eq!(window_of(299, 100.0), 0);
        assert_eq!(window_of(300, 100.0), 1);
        assert_eq!(window_of(2399, 100.0), 7);
    }

    #[test]
    fn windowed_rate_is_a_median_over_full_windows() {
        let s = 1_000_000_000u64;
        // Windows of 1 s from t = 10 s: 3, 1 and 2 completions, then half
        // a window (13 to 13.5 s) that is not counted. Windows of 2 s: one
        // full window with 4.
        let done = [
            10 * s,
            10 * s + 1,
            10 * s + 2,
            11 * s + 5,
            12 * s,
            12 * s + 7,
            13 * s + 1,
        ];
        assert_eq!(windowed_rate(&done, 10 * s, 13 * s + s / 2, 1.0), 2.0);
        assert_eq!(windowed_rate(&done, 10 * s, 13 * s + s / 2, 2.0), 2.0);
        // Fewer than one full window: one window, the completions in it.
        assert_eq!(windowed_rate(&done[..2], 10 * s, 10 * s + 1, 1.0), 2.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        // Sent 30 ms late (the generator was stalled), answered 5 ms later.
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(5);
        assert_eq!(latency_from_due(due, done), Duration::from_millis(35));
        assert_eq!(lateness(due, sent), Duration::from_millis(30));
        // Sent early never yields negative lateness.
        assert_eq!(lateness(sent, due), Duration::ZERO);
    }

    #[test]
    fn result_bytes_are_cut_from_the_envelope() {
        let body = r#"{"ok":true,"query":"q","plan_cache":"hit","result":{"prints":["a"],"tables":{},"returned":null},"report":{"rows_materialized":1},"elapsed_us":5}"#;
        assert_eq!(
            result_bytes(body),
            Some(r#"{"prints":["a"],"tables":{},"returned":null}"#)
        );
        assert_eq!(elapsed_us(body.as_bytes()), Some(5.0));
    }

    #[test]
    fn overlapping_misses_of_one_text_are_duplicates() {
        let req = |k| Req {
            kind: Kind::Adhoc,
            what: (0, k),
            write: (0, 0),
        };
        let reqs = vec![req(1), req(1), req(1), req(2)];
        let s = |i, a, b, miss| Sample {
            req: i,
            kind: Kind::Adhoc,
            latency_ms: 0.0,
            lateness_ms: 0.0,
            sent_ns: a,
            done_ns: b,
            ok: true,
            miss,
            server_ms: 0.0,
        };
        // 0 and 1 overlap (both missed); 2 comes later; 3 is another text.
        let samples = vec![
            s(0, 0, 10, true),
            s(1, 5, 12, true),
            s(2, 20, 30, true),
            s(3, 6, 9, true),
        ];
        assert_eq!(duplicate_parses(&samples, &reqs), 1);
    }

    #[test]
    fn lowerings_count_statements_after_each_write() {
        let read = |s| Req {
            kind: Kind::Read,
            what: (s, 0),
            write: (0, 0),
        };
        let write = Req {
            kind: Kind::Write,
            what: (0, 0),
            write: (0, 0),
        };
        // Before any write nothing re-lowers; after the first write the
        // write itself and two distinct reads do; after the second, one.
        let script = vec![
            read(0),
            write.clone(),
            read(0),
            read(1),
            read(0),
            write,
            read(1),
        ];
        assert_eq!(lowerings(&script), 5);
    }
}
