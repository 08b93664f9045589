//! End-to-end benchmark of the pathalg query service.
//!
//! One process runs one workload: it builds an SNB-shaped graph and a
//! `QueryService` with the default `ServiceConfig`, serves it on a unix
//! socket with `pathalg_server::serve`, and drives it with closed-loop
//! `Client` connections that replay a seeded request sequence. Every answer
//! is checked against an independent oracle. The last line of standard
//! output is one JSON object with the run's metrics.
//!
//! ```text
//! perfbench --workload <interactive|analytic|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
//! it runs the sequence in turns untraced and traced on the socket path,
//! then replays it in process through each layer's public functions, and
//! reports the per-layer metrics, the layers' self times and the tracing
//! overhead. See README.md in this directory.

mod oracle;
mod trace;
mod workload;

use oracle::Oracle;
use pathalg_core::obs::WorkCounters;
use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::stats::GraphStats;
use pathalg_parser::QuerySurface;
use pathalg_server::protocol::{serve, Client, Response, ServerHandle};
use pathalg_server::{DedupRole, QueryService, ServiceConfig};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use trace::{Layers, Probe, Span, Tracer, SOCKET_SPANS, SPAN_NAMES};
use workload::{Class, Op, Request, Sequence, Workload, BUMP_AFTER, GRAPH_SEED};

/// Untraced and traced slices each of a `--trace 1` run.
const TRACE_SLICES: usize = 3;
/// Directory (relative to the working directory) for the socket and the
/// span files.
const OUT_DIR: &str = ".perfbench";
/// Strategy names the engine records ([`pathalg_engine::cost::PhiImpl`] and
/// the sliced pipelines), plus "none" for plans without a recursive operator.
const STRATEGIES: [&str; 7] = [
    "seminaive",
    "frontier",
    "bfs-shortest",
    "pmr-lazy",
    "lazy-sliced-pipeline",
    "parallel-lazy-pipeline",
    "none",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds needs a number")?,
        trace: match flags.get("--trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <interactive|analytic|churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One deployment: graph, service, server and connected clients. The
/// clients come before the server so that they are dropped first, also on
/// unwinding: the server joins each connection thread only once its client
/// has gone.
struct Deployment {
    clients: Vec<Client>,
    server: ServerHandle,
    graph: Arc<PropertyGraph>,
    service: Arc<QueryService>,
    generate_s: f64,
    setup_s: f64,
}

impl Deployment {
    fn new(workload: Workload, socket: &Path) -> std::io::Result<Self> {
        let started = Instant::now();
        let graph = Arc::new(snb_like_graph(&SnbConfig::scale(
            workload.persons(),
            GRAPH_SEED,
        )));
        let generate_s = started.elapsed().as_secs_f64();
        let service = Arc::new(QueryService::new(graph.clone(), ServiceConfig::default()));
        let server = serve(service.clone(), socket)?;
        let clients = (0..workload.connections())
            .map(|_| Client::connect(socket))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            graph,
            service,
            server,
            clients,
            generate_s,
            setup_s: started.elapsed().as_secs_f64(),
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let socket = PathBuf::from(format!("{OUT_DIR}/{}.sock", std::process::id()));
    let reps = args.workload.setup_reps();
    let mut setups = Vec::with_capacity(reps);
    let mut generates = Vec::with_capacity(reps);
    let mut deployment = None;
    for _ in 0..reps {
        if let Some(previous) = deployment.take() {
            Deployment::shutdown(previous);
        }
        let d =
            Deployment::new(args.workload, &socket).map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(d.setup_s);
        generates.push(d.generate_s);
        deployment = Some(d);
    }
    let mut d = deployment.expect("at least one set-up");
    let oracle = Oracle::new(&d.graph, args.workload.persons())?;
    let service = d.service.clone();
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        oracle: &oracle,
        service: &service,
        memo: Mutex::new(HashMap::new()),
    };
    let result = if args.trace {
        traced_run(args, &ctx, &mut d, &generates)
    } else {
        plain_run(args, &ctx, &mut d.clients, &setups)
    };
    d.shutdown();
    let _ = std::fs::remove_file(&socket);
    let (phase, metrics) = result?;
    print_result(&phase, &metrics);
    Ok(phase.error.is_none())
}

/// The untraced run: the end-to-end metrics.
fn plain_run(
    args: &Args,
    ctx: &Ctx,
    clients: &mut [Client],
    setups: &[f64],
) -> Result<(Phase, Metrics), String> {
    let phase = run_phase(ctx, clients, args.seconds, None)?;
    report_failures(args, &phase);
    println!(
        "set-ups {}: min {:.4} median {:.4} max {:.4} s",
        setups.len(),
        percentile(setups, 0.0),
        median(setups),
        percentile(setups, 100.0)
    );
    let windows = phase.windows(args.workload.window_rounds());
    let samples = windows.iter().map(|w| w.latencies.len()).min().unwrap_or(0);
    let tail_p = tail_percentile(samples, args.workload.tail_percentile());
    let per_window = |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    let tails = per_window(&|w| percentile(&w.latencies, tail_p));
    let qps = per_window(&|w| w.answered as f64 / w.seconds);
    let paths_per_s = per_window(&|w| w.paths as f64 / w.seconds);
    println!(
        "latency samples {} in {} windows of {} rounds; tail percentile p{tail_p} ({} beyond per window)",
        phase.latencies.len(),
        windows.len(),
        windows[0].rounds,
        ((samples as f64) * (1.0 - tail_p / 100.0)).floor()
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("per window q/s: {}", list(&qps));
    println!("per window tail ms: {}", list(&tails));
    let metrics = [
        ("latency_p50_ms", phase.p50(), "ms"),
        ("latency_tail_ms", median(&tails), "ms"),
        ("throughput_qps", median(&qps), "1/s"),
        ("paths_per_s", median(&paths_per_s), "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("setup_s", median(setups), "s"),
    ];
    let metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    Ok((phase, metrics))
}

/// What every connection thread shares.
struct Ctx<'a> {
    workload: Workload,
    seed: u64,
    oracle: &'a Oracle,
    service: &'a QueryService,
    /// Logical query key → (digest, path count) of its first checked
    /// answer. Every later answer, on any surface and connection, and every
    /// coalesced waiter's, must match it byte for byte.
    memo: Mutex<HashMap<String, (u64, usize)>>,
}

impl Ctx<'_> {
    fn verify(&self, request: &Request, lines: &[String]) -> Result<(), String> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        lines.hash(&mut hasher);
        let digest = hasher.finish();
        let key = request.query.key();
        let known = self.memo.lock().expect("memo lock").get(&key).copied();
        match known {
            Some((d, n)) if d == digest && n == lines.len() => Ok(()),
            Some((_, n)) => Err(format!(
                "{} on {}: {} paths differ from the first answer ({n} paths) to the same query",
                key,
                request.surface.tag(),
                lines.len()
            )),
            None => {
                self.oracle
                    .check(&request.query, lines)
                    .map_err(|e| format!("{key} on {}: {e}", request.surface.tag()))?;
                self.memo
                    .lock()
                    .expect("memo lock")
                    .insert(key, (digest, lines.len()));
                Ok(())
            }
        }
    }
}

/// One traced request's measurements.
struct Traced {
    conn: usize,
    rtt_s: f64,
    decode_s: f64,
    bytes: usize,
    /// The served request's own work counters (leaders only).
    work: Option<WorkCounters>,
}

/// The outcome of one phase (all connections).
#[derive(Default)]
struct Phase {
    attempted: [u64; 9],
    failed: [u64; 9],
    /// Error kind → count, per class.
    errors: [BTreeMap<String, u64>; 9],
    /// Round trips of answered queries in the timed rounds (ms).
    latencies: Vec<f64>,
    /// The timed rounds of a single phase, all connections together.
    rounds: Vec<Round>,
    /// Round trips per class in the timed rounds, failed ones included (ms).
    class_latencies: [Vec<f64>; 9],
    class_paths: [u64; 9],
    paths: u64,
    timed_answered: u64,
    bumps: u64,
    waiters: u64,
    wall_s: f64,
    error: Option<String>,
    traced: Vec<Traced>,
    spans: Vec<Span>,
}

/// One timed round: what its answered queries took and returned.
#[derive(Default)]
struct Round {
    answered: u64,
    paths: u64,
    /// Round trips of its answered queries (ms).
    latencies: Vec<f64>,
    /// When the last connection finished it, in seconds since the timed
    /// rounds began.
    end_s: f64,
}

/// Consecutive timed rounds, the unit the rate and tail metrics are taken
/// over before their median across the run.
#[derive(Default)]
struct Window {
    rounds: usize,
    answered: u64,
    paths: u64,
    latencies: Vec<f64>,
    seconds: f64,
}

impl Phase {
    fn p50(&self) -> f64 {
        percentile(&self.latencies, 50.0)
    }

    /// The timed rounds cut into windows of `size` whole rounds; the rounds
    /// after the last full window are left out. With no size, or too few
    /// rounds for one window, the whole phase is one window.
    fn windows(&self, size: Option<usize>) -> Vec<Window> {
        let n = self.rounds.len();
        let size = size.filter(|&s| s <= n).unwrap_or(n.max(1));
        let mut windows = Vec::new();
        let mut start_s = 0.0;
        for chunk in self.rounds.chunks_exact(size) {
            let end_s = chunk.last().map_or(start_s, |r| r.end_s);
            windows.push(Window {
                rounds: chunk.len(),
                answered: chunk.iter().map(|r| r.answered).sum(),
                paths: chunk.iter().map(|r| r.paths).sum(),
                latencies: chunk
                    .iter()
                    .flat_map(|r| r.latencies.iter().copied())
                    .collect(),
                seconds: end_s - start_s,
            });
            start_s = end_s;
        }
        if windows.is_empty() {
            windows.push(Window::default());
        }
        windows
    }

    /// Adds a phase that ran after this one. Its per-round records are
    /// dropped: windows are taken over a single phase.
    fn append(&mut self, mut other: Phase) {
        let wall_s = self.wall_s + other.wall_s;
        other.rounds.clear();
        self.merge(other);
        self.wall_s = wall_s;
    }

    /// Adds another connection's share of the same phase.
    fn merge(&mut self, other: Phase) {
        for i in 0..9 {
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
            self.class_paths[i] += other.class_paths[i];
            self.class_latencies[i].extend_from_slice(&other.class_latencies[i]);
            for (k, v) in &other.errors[i] {
                *self.errors[i].entry(k.clone()).or_default() += v;
            }
        }
        self.latencies.extend(other.latencies);
        if self.rounds.len() < other.rounds.len() {
            self.rounds.resize_with(other.rounds.len(), Round::default);
        }
        for (mine, theirs) in self.rounds.iter_mut().zip(other.rounds) {
            mine.answered += theirs.answered;
            mine.paths += theirs.paths;
            mine.latencies.extend(theirs.latencies);
            mine.end_s = mine.end_s.max(theirs.end_s);
        }
        self.paths += other.paths;
        self.timed_answered += other.timed_answered;
        self.bumps += other.bumps;
        self.waiters += other.waiters;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.error = self.error.take().or(other.error);
        self.traced.extend(other.traced);
        self.spans.extend(other.spans);
    }
}

/// Runs one phase: a warm-up round, then whole rounds until `seconds` have
/// passed, on every connection at once. With a trace epoch, spans are
/// recorded around every request's socket path.
fn run_phase(
    ctx: &Ctx,
    clients: &mut [Client],
    seconds: f64,
    trace: Option<Instant>,
) -> Result<Phase, String> {
    let barrier = Barrier::new(clients.len());
    let (stop, failed) = (AtomicBool::new(false), AtomicBool::new(false));
    let phases = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, flags) = (&barrier, [&stop, &failed]);
                scope.spawn(move || drive(ctx, conn, client, seconds, barrier, flags, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut total = Phase::default();
    for phase in phases {
        total.merge(phase?);
    }
    Ok(total)
}

/// One connection's closed loop.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    conn: usize,
    client: &mut Client,
    seconds: f64,
    barrier: &Barrier,
    [stop, failed]: [&AtomicBool; 2],
    trace: Option<Instant>,
) -> Result<Phase, String> {
    let io = |e: std::io::Error| format!("connection {conn}: {e}");
    let bumps = ctx.workload == Workload::Churn && conn == 0;
    let mut seq = Sequence::new(ctx.workload, ctx.seed, ctx.oracle, bumps);
    let mut tracer = Tracer::new(trace.unwrap_or_else(Instant::now), trace.is_some());
    let mut phase = Phase::default();
    let mut last_epoch = match Response::parse(&client.request("EPOCH").map_err(io)?) {
        Ok(Response::Epoch(e)) => e,
        other => return Err(format!("EPOCH answered {other:?}")),
    };
    let mut request_id = 0u64;

    // The warm-up round is checked and counted but not timed.
    let mut ops = seq.warmup(ctx.oracle);
    let mut started: Option<Instant> = None;
    let mut round = 0;
    // With several connections the queries go in lockstep, so identical
    // requests overlap and coalesce; the query after the `BUMP` slot skips
    // the rendezvous, so one connection reads while the other bumps.
    let lockstep = ctx.workload.connections() > 1;
    loop {
        let mut queries = 0;
        if started.is_some() {
            phase.rounds.push(Round::default());
        }
        for op in ops {
            if let Op::Query(_) = op {
                if lockstep && queries != BUMP_AFTER {
                    barrier.wait();
                }
                queries += 1;
            }
            if phase.error.is_some() {
                // Keep meeting the other connections until the round ends.
                continue;
            }
            request_id += 1;
            let result = match op {
                Op::Bump => bump(client, &mut last_epoch, &mut phase, &mut tracer, request_id),
                Op::Query(request) => query(
                    ctx,
                    (conn, client),
                    &request,
                    started.is_some(),
                    &mut phase,
                    &mut tracer,
                    request_id,
                ),
            };
            if let Err(e) = result {
                phase.error = Some(e);
                failed.store(true, Ordering::SeqCst);
            }
        }
        // Whole rounds only: the connections agree at each round's end
        // whether to go on, so they all run the same number of rounds.
        let leader = barrier.wait().is_leader();
        if let (Some(s), Some(r)) = (started, phase.rounds.last_mut()) {
            r.end_s = s.elapsed().as_secs_f64();
        }
        if leader {
            let over = started.is_some_and(|s| s.elapsed().as_secs_f64() >= seconds);
            stop.store(over || failed.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        started.get_or_insert_with(Instant::now);
        round += 1;
        ops = seq.round(round, ctx.oracle);
    }
    let started = started.unwrap_or_else(Instant::now);
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.spans = std::mem::take(&mut tracer.spans);
    Ok(phase)
}

fn query(
    ctx: &Ctx,
    (conn, client): (usize, &mut Client),
    request: &Request,
    timed: bool,
    phase: &mut Phase,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(), String> {
    let class = request.query.class.index();
    phase.attempted[class] += 1;
    let root = tracer.open("request", 0, id);
    let (lines, rtt_s) = tracer.span("wire.round_trip", root, id, || {
        client.request(&request.line)
    });
    let lines = lines.map_err(|e| format!("request failed: {e}"))?;
    let (response, decode_s) = tracer.span("protocol.decode", root, id, || Response::parse(&lines));
    let response = response.map_err(|e| format!("malformed response: {e}"))?;
    let rtt_ms = rtt_s * 1e3;
    if timed {
        phase.class_latencies[class].push(rtt_ms);
    }
    let mut work = None;
    match &response {
        Response::Query(reply) => {
            tracer
                .span("check", root, id, || ctx.verify(request, &reply.paths))
                .0?;
            if reply.dedup == DedupRole::Waiter {
                phase.waiters += 1;
            }
            if timed {
                let paths = reply.paths.len() as u64;
                phase.latencies.push(rtt_ms);
                phase.timed_answered += 1;
                phase.paths += paths;
                phase.class_paths[class] += paths;
                let round = phase.rounds.last_mut().expect("a timed round");
                round.latencies.push(rtt_ms);
                round.answered += 1;
                round.paths += paths;
            }
            if tracer.enabled() && reply.dedup == DedupRole::Leader {
                work = reply
                    .trace
                    .and_then(|t| ctx.service.trace(t))
                    .map(|t| t.work);
            }
        }
        Response::Error { kind, message } => {
            phase.failed[class] += 1;
            if request.query.class != Class::P2pUnreachable {
                eprintln!("unexpected failure: {} -> {kind}: {message}", request.line);
            }
            *phase.errors[class]
                .entry(format!("{kind}: {message}"))
                .or_default() += 1;
        }
        other => return Err(format!("unexpected response to a query: {other:?}")),
    }
    if tracer.enabled() {
        tracer.close(root);
        phase.traced.push(Traced {
            conn,
            rtt_s,
            decode_s,
            bytes: lines.iter().map(|l| l.len() + 1).sum(),
            work,
        });
    }
    Ok(())
}

fn bump(
    client: &mut Client,
    last_epoch: &mut u64,
    phase: &mut Phase,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(), String> {
    let (lines, _) = tracer.span("service.bump", 0, id, || client.request("BUMP"));
    let lines = lines.map_err(|e| format!("BUMP failed: {e}"))?;
    match Response::parse(&lines) {
        Ok(Response::Epoch(e)) if e == *last_epoch + 1 => *last_epoch = e,
        other => {
            return Err(format!(
                "BUMP after epoch {last_epoch} answered {other:?}, expected epoch {}",
                *last_epoch + 1
            ))
        }
    }
    phase.bumps += 1;
    Ok(())
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The traced run. Two thirds of `--seconds` go to the sequence over the
/// socket in [`TRACE_SLICES`] untraced and as many traced slices, taking
/// turns so that drift over the run falls on both alike; the tracing
/// overhead compares the two. The last third replays the sequence in
/// process through each layer's public functions on the served instance,
/// with no socket traffic left to disturb.
fn traced_run(
    args: &Args,
    ctx: &Ctx,
    d: &mut Deployment,
    generates: &[f64],
) -> Result<(Phase, Metrics), String> {
    let slice = args.seconds / (3 * TRACE_SLICES) as f64;
    let epoch = Instant::now();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let (mut plan_hits, mut plan_misses, mut dedup_waiters) = (0, 0, 0);
    // The replay pairs with the first traced slice's requests.
    let mut first_slice = 0;
    for k in 0..TRACE_SLICES {
        plain.append(run_phase(ctx, &mut d.clients, slice, None)?);
        let before = d.service.metrics().snapshot();
        traced.append(run_phase(ctx, &mut d.clients, slice, Some(epoch))?);
        let after = d.service.metrics().snapshot();
        plan_hits += after.cache_hits - before.cache_hits;
        plan_misses += after.cache_misses - before.cache_misses;
        dedup_waiters += after.dedup_hits - before.dedup_hits;
        if k == 0 {
            first_slice = traced.traced.iter().filter(|r| r.conn == 0).count();
        }
    }

    let mut stats_s = Vec::new();
    let mut stats = None;
    for _ in 0..3 {
        let started = Instant::now();
        stats = Some(GraphStats::compute(&d.graph));
        stats_s.push(started.elapsed().as_secs_f64());
    }
    let layers = Layers {
        graph: &d.graph,
        service: &d.service,
        stats: &stats.expect("computed"),
        optimizer: pathalg_core::optimizer::Optimizer::new(),
    };
    let first: Vec<&Traced> = traced
        .traced
        .iter()
        .filter(|r| r.conn == 0)
        .take(first_slice)
        .collect();
    let replay = replay(ctx, &layers, first.len(), epoch, args.seconds / 3.0);
    stats_s.extend_from_slice(&replay.stats_s);

    let spans_path = PathBuf::from(format!(
        "{OUT_DIR}/spans-{}-{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let spans: Vec<Span> = traced.spans.iter().chain(&replay.spans).copied().collect();
    trace::write_spans(&spans_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("spans written to {}", spans_path.display());

    let t = &traced.traced;
    // The replay's k-th request is the first connection's k-th traced one.
    let pairs: Vec<(&Traced, &Replayed)> = first.iter().copied().zip(&replay.requests).collect();
    let p = &replay.requests;
    let us = |xs: Vec<f64>| percentile(&xs, 50.0) * 1e6;
    let ms = |xs: Vec<f64>| percentile(&xs, 50.0) * 1e3;
    let mut m: Metrics = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    push("graph.generate_ms", median(generates) * 1e3, "ms");
    push("graph.stats_ms", median(&stats_s) * 1e3, "ms");
    push(
        "graph.csr_build_us",
        us(p.iter()
            .flat_map(|r| r.probe.csr_build_s.iter().copied())
            .collect()),
        "us",
    );
    for surface in QuerySurface::ALL {
        push(
            &format!("parser.{}_us", surface.tag().to_ascii_lowercase()),
            us(p.iter()
                .filter(|r| r.surface == surface)
                .map(|r| r.probe.parse_s)
                .collect()),
            "us",
        );
    }
    push(
        "engine.plan_us",
        us(p.iter().map(|r| r.probe.plan_s).collect()),
        "us",
    );
    push(
        "service.prepare_warm_us",
        us(p.iter().map(|r| r.probe.prepare_warm_s).collect()),
        "us",
    );
    push("service.plan_hits", plan_hits as f64, "count");
    push("service.plan_misses", plan_misses as f64, "count");
    push("service.dedup_waiters", dedup_waiters as f64, "count");
    push(
        "engine.execute_ms",
        ms(p.iter().map(|r| r.probe.execute_s).collect()),
        "ms",
    );
    for class in Class::ALL {
        push(
            &format!("engine.execute_ms.{}", class.name()),
            ms(p.iter()
                .filter(|r| r.class == class)
                .map(|r| r.probe.execute_s)
                .collect()),
            "ms",
        );
    }
    for strategy in STRATEGIES {
        let n = p
            .iter()
            .flat_map(|r| r.probe.strategies.iter())
            .filter(|&&s| s == strategy)
            .count();
        push(&format!("engine.strategy.{strategy}"), n as f64, "count");
    }
    let sliced: Vec<f64> = p.iter().filter_map(|r| r.probe.pmr_sliced_s).collect();
    push("pmr.sliced_ms", percentile(&sliced, 50.0) * 1e3, "ms");
    let lazy: Vec<(&WorkCounters, f64)> = pairs
        .iter()
        .filter_map(|(t, r)| Some((t.work.as_ref()?, r.probe.pmr_sliced_s?)))
        .filter(|(w, _)| w.arena_steps > 0)
        .collect();
    let steps: u64 = lazy.iter().map(|(w, _)| w.arena_steps).sum();
    let lazy_ms: f64 = lazy.iter().map(|(_, s)| s * 1e3).sum();
    push(
        "pmr.arena_steps",
        ratio(steps as f64, lazy.len() as f64),
        "count",
    );
    push("pmr.steps_per_ms", ratio(steps as f64, lazy_ms), "1/ms");
    push(
        "pmr.kept_per_step",
        ratio(
            lazy.iter().map(|(w, _)| w.paths_kept).sum::<u64>() as f64,
            steps as f64,
        ),
        "ratio",
    );
    push(
        "pmr.sources_abandoned",
        ratio(
            lazy.iter().map(|(w, _)| w.sources_abandoned).sum::<u64>() as f64,
            lazy.len() as f64,
        ),
        "count",
    );
    push(
        "pmr.arena_bytes_peak",
        t.iter()
            .filter_map(|r| r.work.map(|w| w.arena_bytes_peak))
            .max()
            .unwrap_or(0) as f64,
        "B",
    );
    push(
        "protocol.render_us",
        us(p.iter().map(|r| r.probe.render_s).collect()),
        "us",
    );
    push(
        "protocol.decode_us",
        us(t.iter().map(|r| r.decode_s).collect()),
        "us",
    );
    push(
        "protocol.bytes_per_response",
        ratio(
            t.iter().map(|r| r.bytes).sum::<usize>() as f64,
            t.len() as f64,
        ),
        "B",
    );
    push(
        "protocol.wire_us",
        us(pairs
            .iter()
            .map(|(t, r)| t.rtt_s - r.probe.handle_s)
            .collect()),
        "us",
    );
    for class in Class::ALL {
        let i = class.index();
        push(
            &format!("class.{}.p50_ms", class.name()),
            percentile(&plain.class_latencies[i], 50.0),
            "ms",
        );
        push(
            &format!("class.{}.paths", class.name()),
            ratio(
                plain.class_paths[i] as f64,
                plain.class_latencies[i].len() as f64,
            ),
            "count",
        );
    }
    let (socket_ns, replay_ns) = (
        trace::self_times(&traced.spans),
        trace::self_times(&replay.spans),
    );
    for (k, name) in SPAN_NAMES.into_iter().enumerate() {
        let (self_ns, requests) = if k < SOCKET_SPANS {
            (&socket_ns, t.len())
        } else {
            (&replay_ns, p.len())
        };
        let ns = self_ns.get(name).copied().unwrap_or(0) as f64;
        push(
            &format!("self.{name}_us"),
            ratio(ns, requests as f64) / 1e3,
            "us",
        );
    }
    let (plain_qps, traced_qps) = (
        plain.timed_answered as f64 / plain.wall_s,
        traced.timed_answered as f64 / traced.wall_s,
    );
    push(
        "trace.overhead_p50_pct",
        ratio(traced.p50() - plain.p50(), plain.p50()) * 100.0,
        "%",
    );
    push(
        "trace.overhead_qps_pct",
        ratio(plain_qps - traced_qps, plain_qps) * 100.0,
        "%",
    );
    println!(
        "tracing overhead: untraced p50 {:.4} ms, {:.1} q/s; traced p50 {:.4} ms, {:.1} q/s; {} requests replayed in process",
        plain.p50(),
        plain_qps,
        traced.p50(),
        traced_qps,
        p.len()
    );
    let mut all = plain;
    all.append(traced);
    report_failures(args, &all);
    Ok((all, m))
}

/// One request of the in-process replay.
struct Replayed {
    class: Class,
    surface: QuerySurface,
    probe: Probe,
}

/// What the in-process replay measured.
struct Replay {
    requests: Vec<Replayed>,
    stats_s: Vec<f64>,
    spans: Vec<Span>,
}

/// Replays the first connection's sequence, warm-up round included, through
/// the layers in process: at most `limit` requests, whole rounds until
/// `seconds` have passed. A `BUMP` becomes `GraphStats::compute`, timed,
/// and an untimed `bump_epoch`, so the plan cache is purged as it was on
/// the socket.
fn replay(ctx: &Ctx, layers: &Layers, limit: usize, epoch: Instant, seconds: f64) -> Replay {
    let bumps = ctx.workload == Workload::Churn;
    let mut seq = Sequence::new(ctx.workload, ctx.seed, ctx.oracle, bumps);
    let mut tracer = Tracer::new(epoch, true);
    let mut out = Replay {
        requests: Vec::new(),
        stats_s: Vec::new(),
        spans: Vec::new(),
    };
    let started = Instant::now();
    let (mut ops, mut round, mut id) = (seq.warmup(ctx.oracle), 0, 0);
    loop {
        for op in ops {
            id += 1;
            match op {
                Op::Bump => {
                    let (_, took) =
                        tracer.span("graph.stats", 0, id, || GraphStats::compute(layers.graph));
                    out.stats_s.push(took);
                    layers.service.bump_epoch();
                }
                Op::Query(request) if out.requests.len() < limit => out.requests.push(Replayed {
                    class: request.query.class,
                    surface: request.surface,
                    probe: layers.probe(&mut tracer, id, request.surface, &request.text),
                }),
                Op::Query(_) => {}
            }
        }
        if out.requests.len() >= limit || started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        round += 1;
        ops = seq.round(round, ctx.oracle);
    }
    out.spans = tracer.spans;
    out
}

/// Per-workload and per-class attempted/failed lines; `p2p_unreachable`
/// on a line of its own.
fn report_failures(args: &Args, phase: &Phase) {
    let (attempted, failed): (u64, u64) = (phase.attempted.iter().sum(), phase.failed.iter().sum());
    println!(
        "workload {} seed {} attempted {attempted} failed {failed} bumps {} coalesced {}",
        args.workload.name(),
        args.seed,
        phase.bumps,
        phase.waiters
    );
    for class in Class::ALL {
        let i = class.index();
        if phase.attempted[i] == 0 || class == Class::P2pUnreachable {
            continue;
        }
        let lat = &phase.class_latencies[i];
        println!(
            "class {} attempted {} failed {} p10/p50/p90_ms {:.3}/{:.3}/{:.3}{}",
            class.name(),
            phase.attempted[i],
            phase.failed[i],
            percentile(lat, 10.0),
            percentile(lat, 50.0),
            percentile(lat, 90.0),
            errors_suffix(&phase.errors[i])
        );
    }
    let i = Class::P2pUnreachable.index();
    if phase.attempted[i] > 0 {
        println!(
            "p2p_unreachable attempted {} failed {} (known fault: Pmr::sliced never stops a source that reaches no admitted target){}",
            phase.attempted[i],
            phase.failed[i],
            errors_suffix(&phase.errors[i])
        );
    }
}

fn errors_suffix(errors: &BTreeMap<String, u64>) -> String {
    errors.iter().map(|(k, v)| format!("; {v}× {k}")).collect()
}

fn print_result(phase: &Phase, metrics: &Metrics) {
    if let Some(e) = &phase.error {
        eprintln!("perfbench: check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.error.is_none(),
        phase.attempted.iter().sum::<u64>(),
        phase.failed.iter().sum::<u64>(),
        body.join(", ")
    );
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The highest percentile up to `cap` that leaves at least ten of `n`
/// samples beyond it (p50 when none does).
fn tail_percentile(n: usize, cap: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&q| q <= cap)
        .find(|&q| n as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile; 0 for no samples.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
