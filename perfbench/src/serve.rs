//! The daemon workloads: `repro serve` under a closed loop of a few
//! connections (see [`Mix::connections`]), each sending its next
//! request only after the previous reply. Every request frame is
//! rendered during set-up; responses are checked against in-process
//! `Session::evaluate` after the measured window.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bench::api::{EvalRequest, Evaluator, TraceSource};
use bench::workloads::Workload;
use bench::Session;
use buscoding::{evaluate_blocks, scheme_by_name};
use busprobe::json::{self, JsonValue};
use busserve::{read_frame, write_frame, MAX_FRAME_BYTES};
use bustrace::Trace;

use crate::layers;
use crate::spans::Recorder;
use crate::stats::{interpolated_median, median, percentile, Rng};
use crate::sys::{self, Exit};
use crate::{Ctx, Report};

/// Schemes every request evaluates.
const SCHEMES: [&str; 4] = [
    "window(8)",
    "stride(4)",
    "context-value(28+8 d4096)",
    "fcm(2 2^12)",
];
/// Stored workloads the warm keys and misses are drawn from.
const STORED_CLASSES: [&str; 8] = [
    "gcc/register",
    "perl/memory",
    "go/address",
    "li/register",
    "compress/memory",
    "mixed/gcc+perl/register/64",
    "phased/4096",
    "random",
];
/// Words per stored-workload trace.
const STORED_WORDS: usize = 8192;
/// Keys evaluated during set-up; later requests for them are hits.
const WARM_KEYS: usize = 8;
/// One stored request in this many names a fresh seed (a miss).
const MISS_ONE_IN: usize = 10;
/// Words per inline trace.
const INLINE_WORDS: usize = 16_384;
/// Distinct inline bodies, cycled.
const INLINE_BODIES: usize = 24;
/// Daemon set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Requests per `wall_s` batch.
const BATCH: usize = 500;
/// Requests per traced segment (all connections together).
const TRACED_STORED: usize = 2000;
const TRACED_INLINE: usize = 300;
/// The per-connection quota the daemon is started with: far above any
/// run's request count, so no connection is closed mid-run.
const QUOTA: &str = "1000000000";

/// Request mix of a daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Stored-workload requests, about nine in ten of them store hits.
    Stored,
    /// Every request ships its trace inline.
    Inline,
}

impl Mix {
    /// Pre-rendered requests per connection and measured second: above
    /// any rate the daemon reaches, so no connection runs dry.
    fn max_rate(self) -> f64 {
        match self {
            Mix::Stored => 20_000.0,
            Mix::Inline => 2_000.0,
        }
    }

    /// Load-generator connections (and threads). The stored mix uses
    /// `nproc`, at most two, so that hits can queue behind misses. The
    /// inline mix uses one: the daemon routes inline bodies round-robin
    /// over its shards, so two connections sometimes land on one shard
    /// and wait for each other, and how often depends on the bodies'
    /// relative costs and the host's timing. That made its throughput
    /// and tail swing by a third between runs; one connection measures
    /// parse, encode and accumulate without that queueing.
    fn connections(self) -> usize {
        match self {
            Mix::Stored => threads(),
            Mix::Inline => 1,
        }
    }
}

/// `nproc`, at most two: the most threads the benchmark runs at once.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A request script: distinct bodies, their rendered frames, and each
/// connection's sequence of body indices.
struct Script {
    requests: Vec<EvalRequest>,
    frames: Vec<Vec<u8>>,
    /// Bodies `0..warm` are evaluated during set-up.
    warm: usize,
    conns: Vec<Vec<usize>>,
}

fn frame_of(body: JsonValue) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, body.to_string().as_bytes(), MAX_FRAME_BYTES)
        .expect("request fits a frame");
    out
}

fn eval_frame(request: &EvalRequest) -> Vec<u8> {
    let JsonValue::Obj(fields) = request.to_json() else {
        unreachable!("requests render as objects")
    };
    let mut pairs = vec![
        ("v".to_string(), JsonValue::Int(1)),
        ("verb".to_string(), JsonValue::Str("eval".into())),
    ];
    pairs.extend(fields);
    frame_of(JsonValue::Obj(pairs))
}

fn schemes() -> Vec<String> {
    SCHEMES.iter().map(ToString::to_string).collect()
}

impl Script {
    /// Generates the script for `seed` with `per_conn` requests per
    /// connection, and renders every frame.
    fn new(mix: Mix, seed: u64, per_conn: usize) -> Script {
        let mut rng = Rng::new(seed, mix as u64 + 1);
        let mut requests = Vec::new();
        let conns: Vec<Vec<usize>> = match mix {
            Mix::Stored => {
                let classes: Vec<Workload> = STORED_CLASSES
                    .iter()
                    .map(|n| Workload::parse(n).expect("stored classes parse"))
                    .collect();
                // Seeds stay below 2^48 so they are exact JSON integers.
                let mut stored = |workload: Workload, rng: &mut Rng| {
                    requests.push(
                        EvalRequest::stored(workload, schemes())
                            .len(STORED_WORDS)
                            .seed(rng.next_u64() >> 16),
                    );
                    requests.len() - 1
                };
                for i in 0..WARM_KEYS {
                    stored(classes[i % classes.len()], &mut rng);
                }
                (0..mix.connections())
                    .map(|_| {
                        (0..per_conn)
                            .map(|_| {
                                if rng.below(MISS_ONE_IN) == 0 {
                                    let class = classes[rng.below(classes.len())];
                                    stored(class, &mut rng)
                                } else {
                                    rng.below(WARM_KEYS)
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
            Mix::Inline => {
                for i in 0..INLINE_BODIES {
                    let (_, name) = layers::CLASSES[i % layers::CLASSES.len()];
                    let workload = Workload::parse(name).expect("layer classes parse");
                    let trace = workload.trace(INLINE_WORDS, rng.next_u64());
                    requests.push(EvalRequest::inline(
                        trace.width(),
                        trace.values().to_vec(),
                        schemes(),
                    ));
                }
                let n = mix.connections();
                (0..n)
                    .map(|c| {
                        (0..per_conn)
                            .map(|j| (c * INLINE_BODIES / n + j) % INLINE_BODIES)
                            .collect()
                    })
                    .collect()
            }
        };
        let frames = requests.iter().map(eval_frame).collect();
        Script {
            warm: if mix == Mix::Stored { WARM_KEYS } else { 0 },
            requests,
            frames,
            conns,
        }
    }
}

/// Sends one frame and waits for the reply frame.
fn call(conn: &mut UnixStream, frame: &[u8]) -> io::Result<Vec<u8>> {
    conn.write_all(frame)?;
    match read_frame(conn, MAX_FRAME_BYTES) {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        )),
        Err(e) => Err(io::Error::other(e.to_string())),
    }
}

fn is_ok(reply: &[u8]) -> bool {
    std::str::from_utf8(reply)
        .ok()
        .and_then(|text| json::parse(text).ok())
        .is_some_and(|v| v.get("ok") == Some(&JsonValue::Bool(true)))
}

/// A running `repro serve --socket` daemon. Dropped without
/// [`stop`](Daemon::stop) (on an error path), it is killed and reaped.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `ping`.
    fn start(repro: &Path, tag: &str) -> io::Result<Daemon> {
        let socket = PathBuf::from(format!("{tag}.sock"));
        let _ = fs::remove_file(&socket);
        let mut child = Command::new(repro)
            .args(["serve", "--socket"])
            .arg(&socket)
            .args(["--quota", QUOTA])
            .env("REPRO_OUT", format!("{tag}-out"))
            .env_remove("REPRO_CACHE")
            .env_remove("REPRO_METRICS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(fs::File::create(format!("{tag}.log"))?)
            .spawn()?;
        let ping = frame_of(JsonValue::Obj(vec![
            ("v".into(), JsonValue::Int(1)),
            ("verb".into(), JsonValue::Str("ping".into())),
        ]));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            // The daemon polls its listener every 25 ms. Pinging a moment
            // after the socket appears keeps the ping from racing the
            // first poll, which would split set-up times between ~2 ms
            // and ~27 ms.
            if socket.exists() {
                std::thread::sleep(Duration::from_millis(2));
            }
            if let Ok(mut conn) = UnixStream::connect(&socket) {
                if call(&mut conn, &ping).is_ok_and(|reply| is_ok(&reply)) {
                    return Ok(Daemon {
                        child: Some(child),
                        socket,
                    });
                }
            }
            if Instant::now() > deadline || child.try_wait()?.is_some() {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "daemon did not answer ping (see {tag}.log)"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends SIGTERM, waits for the drain, and reaps the process.
    fn stop(mut self) -> io::Result<Exit> {
        let mut child = self.child.take().expect("a daemon is stopped once");
        if let Err(e) = sys::terminate(&child) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        sys::reap(child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = fs::remove_file(&self.socket);
    }
}

/// Spawn to ping to warm set evaluated: the daemon's set-up.
fn setup(repro: &Path, script: &Script) -> io::Result<(Daemon, f64)> {
    let start = Instant::now();
    let daemon = Daemon::start(repro, "daemon")?;
    let mut conn = UnixStream::connect(&daemon.socket)?;
    for frame in &script.frames[..script.warm] {
        if !is_ok(&call(&mut conn, frame)?) {
            return Err(io::Error::other("warm request failed"));
        }
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// One request as the load generator saw it.
struct Sample {
    body: usize,
    start: Instant,
    end: Instant,
    reply: io::Result<Vec<u8>>,
}

/// Runs the closed loop until `deadline` or until each connection has
/// sent `limit` requests. Returns when the loop started and every
/// sample.
fn drive(
    socket: &Path,
    script: &Script,
    deadline: Instant,
    limit: usize,
) -> (Instant, Vec<Sample>) {
    let start = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = script
            .conns
            .iter()
            .map(|seq| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut conn = match UnixStream::connect(socket) {
                        Ok(conn) => conn,
                        Err(e) => {
                            let now = Instant::now();
                            samples.push(Sample {
                                body: seq[0],
                                start: now,
                                end: now,
                                reply: Err(e),
                            });
                            return samples;
                        }
                    };
                    for &body in seq.iter().take(limit) {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            return samples;
                        }
                        let reply = call(&mut conn, &script.frames[body]);
                        let lost = reply.is_err();
                        samples.push(Sample {
                            body,
                            start: t0,
                            end: Instant::now(),
                            reply,
                        });
                        if lost {
                            return samples;
                        }
                    }
                    if limit == usize::MAX {
                        eprintln!("serve: a connection ran out of script before the deadline");
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    (start, per_conn.into_iter().flatten().collect())
}

/// The deterministic half of a response: `baseline` then `results`.
fn half(result: &JsonValue) -> Option<String> {
    Some(format!(
        "{}{}",
        result.get("baseline")?,
        result.get("results")?
    ))
}

/// An OK eval response, reduced to what the checks and metrics use.
struct Answer {
    cached: u64,
    computed: u64,
    wall_us: f64,
    half: String,
    tallies: Vec<(u64, u64, u64)>,
}

fn answer(reply: &[u8]) -> Option<Answer> {
    let v = json::parse(std::str::from_utf8(reply).ok()?).ok()?;
    if v.get("ok") != Some(&JsonValue::Bool(true)) {
        return None;
    }
    let r = v.get("result")?;
    let provenance = r.get("provenance")?;
    let JsonValue::Arr(results) = r.get("results")? else {
        return None;
    };
    let tallies = results
        .iter()
        .map(|s| {
            Some((
                s.get("tau")?.as_u64()?,
                s.get("kappa")?.as_u64()?,
                s.get("steps")?.as_u64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Answer {
        cached: provenance.get("cached")?.as_u64()?,
        computed: provenance.get("computed")?.as_u64()?,
        wall_us: r.get("wall_us")?.as_f64()?,
        half: half(r)?,
        tallies,
    })
}

/// The in-process answer's deterministic half: a fresh session, so
/// nothing is shared with the daemon or between bodies.
fn expected_half(request: &EvalRequest) -> String {
    match Session::builder().build().evaluate(request) {
        Ok(response) => half(&response.to_json()).expect("responses carry both halves"),
        Err(e) => format!("error: {e}"),
    }
}

/// Expected halves of every body in `bodies`, computed on up to
/// [`threads`] threads.
fn expected_halves(script: &Script, bodies: impl Iterator<Item = usize>) -> HashMap<usize, String> {
    let mut distinct: Vec<usize> = bodies.collect();
    distinct.sort_unstable();
    distinct.dedup();
    let chunk = distinct.len().div_ceil(threads()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|ids| {
                s.spawn(move || {
                    ids.iter()
                        .map(|&id| (id, expected_half(&script.requests[id])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    })
}

/// Median seconds per [`BATCH`] consecutive answers.
fn batch_wall_s(start: Instant, mut ends: Vec<Instant>) -> f64 {
    ends.sort_unstable();
    let mut prev = start;
    let mut walls = Vec::new();
    for batch in ends.chunks_exact(BATCH) {
        let end = batch[BATCH - 1];
        walls.push((end - prev).as_secs_f64());
        prev = end;
    }
    if walls.is_empty() {
        // Fewer answers than one batch: scale the whole window.
        let window = ends.last().map_or(0.0, |&end| (end - start).as_secs_f64());
        return window * BATCH as f64 / ends.len().max(1) as f64;
    }
    median(&walls)
}

/// The measured run: set up [`SETUPS`] times (keeping the last
/// daemon), drive the closed loop for `--seconds`, drain, then check
/// every response.
pub fn run(ctx: &Ctx, mix: Mix) -> io::Result<Report> {
    let per_conn = (ctx.seconds * mix.max_rate()).ceil() as usize;
    let script = Script::new(mix, ctx.seed, per_conn);
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(old) = daemon.take() {
            old.stop()?;
        }
        let (d, secs) = setup(&ctx.repro, &script)?;
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("SETUPS > 0");
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let (start, samples) = drive(&daemon.socket, &script, deadline, usize::MAX);
    let exit = daemon.stop()?;

    let expected = expected_halves(&script, samples.iter().map(|s| s.body));
    let mut failed = 0u64;
    let mut answered = Vec::new();
    for s in &samples {
        let good = s.reply.as_ref().ok().and_then(|reply| answer(reply));
        match good {
            Some(a) if a.half == expected[&s.body] => {
                answered.push((s.end, (s.end - s.start).as_secs_f64() * 1e3))
            }
            _ => failed += 1,
        }
    }
    if !exit.success {
        eprintln!("serve: the daemon did not drain cleanly");
        failed += 1;
    }
    let mut report = Report::default();
    report.checked(samples.len() as u64, failed);
    let window_s = answered
        .iter()
        .map(|a| a.0)
        .max()
        .map_or(f64::NAN, |end| (end - start).as_secs_f64());
    let latencies: Vec<f64> = answered.iter().map(|a| a.1).collect();
    report.metric(
        "wall_s",
        batch_wall_s(start, answered.iter().map(|a| a.0).collect()),
        "s",
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", exit.peak_rss_mb, "MB");
    report.metric("req_per_s", latencies.len() as f64 / window_s, "1/s");
    report.metric("p50_ms", percentile(&latencies, 0.50), "ms");
    report.metric("p90_ms", percentile(&latencies, 0.90), "ms");
    eprintln!(
        "serve: {} answered OK of {} sent",
        answered.len(),
        samples.len()
    );
    Ok(report)
}

/// One body replayed in-process through the layers' public calls.
struct Replay {
    parse_ns: f64,
    words: usize,
    tallies: Vec<(u64, u64, u64)>,
    half: String,
    render_us: f64,
}

fn replay(rec: &mut Recorder, id: u64, frame: &[u8]) -> Result<Replay, String> {
    let text = std::str::from_utf8(&frame[4..]).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let request = rec.span("api.parse", id, |_| {
        let body = json::parse(text).map_err(|e| e.to_string())?;
        EvalRequest::from_json(&body).map_err(|e| e.to_string())
    })?;
    let parse_ns = t0.elapsed().as_nanos() as f64;
    let (trace, words) = match &request.source {
        TraceSource::Stored {
            workload,
            len,
            seed,
            ..
        } => {
            let (len, seed) = (len.ok_or("no len")?, seed.ok_or("no seed")?);
            let trace = rec.span(layers::trace_gen_layer(workload), id, |_| {
                workload.trace(len, seed)
            });
            (trace, 0)
        }
        TraceSource::Inline { width, words } => (
            Trace::from_values(*width, words.iter().copied()),
            words.len(),
        ),
    };
    let mut tallies = Vec::new();
    for scheme in &request.schemes {
        let (lines, states) = rec.span("buscoding.encode", id, |_| {
            layers::encode(scheme, &trace, true)
        });
        let split = rec.span("buscoding.accumulate", id, |_| {
            layers::accumulate(lines, &states)
        });
        let mut pair = scheme_by_name(scheme, trace.width()).map_err(|e| e.to_string())?;
        let fused = evaluate_blocks(pair.encoder_mut(), &trace);
        let tally = (split.tau(), split.kappa(), split.steps());
        if tally != (fused.tau(), fused.kappa(), fused.steps()) {
            return Err(format!(
                "{scheme}: split tallies differ from evaluate_blocks"
            ));
        }
        tallies.push(tally);
    }
    let response = rec
        .span("api.evaluate", id, |_| {
            Session::builder().build().evaluate(&request)
        })
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    rec.span("api.render", id, |_| {
        std::hint::black_box(response.to_json().to_string())
    });
    let render_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let half = half(&response.to_json()).ok_or("response without results")?;
    Ok(Replay {
        parse_ns,
        words,
        tallies,
        half,
        render_us,
    })
}

/// What a traced segment measured.
pub struct Segment {
    /// Share of evaluated schemes the daemon served from its store.
    pub hit_ratio: f64,
    /// Wall seconds of the traced closed loop.
    pub traced_s: f64,
    /// The same loop on a fresh daemon with the recorder off, when
    /// asked for.
    pub untraced_s: Option<f64>,
    /// Per-layer metrics of this mix.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The traced segment: a fixed-length prefix of the mix's script sent
/// to a fresh daemon, one `busserve.roundtrip` span per request, then
/// every distinct body replayed in-process under layer spans. Each
/// response must match its replay: the split encode/accumulate tallies,
/// `evaluate_blocks`, and `Session::evaluate`'s deterministic half.
pub fn traced(
    ctx: &Ctx,
    mix: Mix,
    rec: &mut Recorder,
    untraced: bool,
    report: &mut Report,
) -> io::Result<Segment> {
    let total = if mix == Mix::Stored {
        TRACED_STORED
    } else {
        TRACED_INLINE
    };
    let per_conn = total.div_ceil(mix.connections());
    let script = Script::new(mix, ctx.seed, per_conn);
    let far = Instant::now() + Duration::from_secs(150);
    let untraced_s = if untraced {
        let (daemon, _) = setup(&ctx.repro, &script)?;
        let (start, _) = drive(&daemon.socket, &script, far, per_conn);
        let secs = start.elapsed().as_secs_f64();
        daemon.stop()?;
        Some(secs)
    } else {
        None
    };
    let (daemon, _) = setup(&ctx.repro, &script)?;
    let (start, samples) = drive(&daemon.socket, &script, far, per_conn);
    let traced_s = start.elapsed().as_secs_f64();
    for (i, s) in samples.iter().enumerate() {
        rec.record("busserve.roundtrip", i as u64, s.start, s.end);
    }
    let exit = daemon.stop()?;

    let mut replays: HashMap<usize, Result<Replay, String>> = HashMap::new();
    for s in &samples {
        if let Entry::Vacant(slot) = replays.entry(s.body) {
            let id = s.body as u64;
            slot.insert(rec.span("replay", id, |rec| replay(rec, id, &script.frames[s.body])));
        }
    }
    let mut failed = u64::from(!exit.success);
    let (mut hit_ms, mut miss_ms, mut hit_us, mut miss_us, mut overhead_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cached, mut evaluated) = (0u64, 0u64);
    for s in &samples {
        let a = s.reply.as_ref().ok().and_then(|reply| answer(reply));
        let (Some(a), Some(Ok(r))) = (a, replays.get(&s.body)) else {
            failed += 1;
            continue;
        };
        if a.half != r.half || a.tallies != r.tallies {
            eprintln!("serve: response to body {} differs from its replay", s.body);
            failed += 1;
            continue;
        }
        let rt_us = (s.end - s.start).as_secs_f64() * 1e6;
        overhead_us.push(rt_us - a.wall_us);
        if a.computed == 0 {
            hit_ms.push(rt_us / 1e3);
            hit_us.push(a.wall_us);
        } else {
            miss_ms.push(rt_us / 1e3);
            miss_us.push(a.wall_us);
        }
        cached += a.cached;
        evaluated += a.cached + a.computed;
    }
    for r in replays.values() {
        if let Err(e) = r {
            eprintln!("serve: replay failed: {e}");
        }
    }
    report.checked(samples.len() as u64, failed);

    let ok: Vec<&Replay> = replays.values().filter_map(|r| r.as_ref().ok()).collect();
    let metrics = match mix {
        Mix::Stored => vec![
            // `wall_us` is whole microseconds.
            (
                "api.evaluate.hit.p50_us",
                interpolated_median(&hit_us),
                "us",
            ),
            (
                "api.evaluate.miss.p50_us",
                interpolated_median(&miss_us),
                "us",
            ),
            (
                "api.render_us",
                median(&ok.iter().map(|r| r.render_us).collect::<Vec<_>>()),
                "us",
            ),
            (
                "busserve.overhead.p50_us",
                percentile(&overhead_us, 0.50),
                "us",
            ),
            (
                "busserve.overhead.p99_us",
                percentile(&overhead_us, 0.99),
                "us",
            ),
            ("serve.hit.p50_ms", percentile(&hit_ms, 0.50), "ms"),
            ("serve.hit.p99_ms", percentile(&hit_ms, 0.99), "ms"),
            ("serve.miss.p50_ms", percentile(&miss_ms, 0.50), "ms"),
        ],
        Mix::Inline => {
            let per_word: Vec<f64> = ok
                .iter()
                .filter(|r| r.words > 0)
                .map(|r| r.parse_ns / r.words as f64)
                .collect();
            vec![("api.parse.ns_per_word", median(&per_word), "ns")]
        }
    };
    Ok(Segment {
        hit_ratio: cached as f64 / evaluated.max(1) as f64,
        traced_s,
        untraced_s,
        metrics,
    })
}
