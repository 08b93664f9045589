//! Spans recorded by the benchmark around its calls into each layer, and
//! the layer probes of the traced run's in-process replay.
//!
//! Spans live in memory (one list per connection and one for the replay)
//! and are written out when the run ends. A span's self time is its duration
//! minus the time its child spans cover; children of one span never
//! overlap, since each connection records its own spans in sequence.

use pathalg_core::optimizer::Optimizer;
use pathalg_core::path::Path;
use pathalg_engine::cost::{estimate, estimate_plan_closures};
use pathalg_engine::exec::EngineEvaluator;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use pathalg_graph::stats::GraphStats;
use pathalg_parser::{lower_to_checked_plan, parse_surface, QuerySurface};
use pathalg_pmr::{EndpointFilter, Pmr};
use pathalg_server::protocol::{handle_request, Request as WireRequest};
use pathalg_server::QueryService;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The span names, in the order the self-time metrics are reported: the
/// first [`SOCKET_SPANS`] are recorded on the socket path, the rest by the
/// in-process replay.
pub const SPAN_NAMES: [&str; 16] = [
    "request",
    "wire.round_trip",
    "protocol.decode",
    "check",
    "service.bump",
    "protocol.render",
    "parser.gql",
    "parser.rpq",
    "parser.ir",
    "engine.plan",
    "service.handle_request",
    "service.prepare_warm",
    "engine.execute",
    "graph.csr_build",
    "pmr.sliced",
    "graph.stats",
];

pub const SOCKET_SPANS: usize = 5;

fn parser_span(surface: QuerySurface) -> &'static str {
    match surface {
        QuerySurface::Gql => "parser.gql",
        QuerySurface::Rpq => "parser.rpq",
        QuerySurface::Ir => "parser.ir",
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The next span id; ids are unique across the process.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One connection's span recorder, with times relative to a run-wide
/// epoch. A disabled tracer records nothing and hands out span id 0.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let end = self.now();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result and duration (s).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let started = Instant::now();
        let out = f();
        let took = started.elapsed().as_secs_f64();
        self.close(id);
        (out, took)
    }
}

/// Self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_cover: std::collections::HashMap<u64, u64> = Default::default();
    for s in spans {
        if s.parent != 0 {
            *child_cover.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own =
            (s.end_ns - s.start_ns).saturating_sub(child_cover.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Writes the spans as tab-separated lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// What the layer probes measured for one replayed request.
#[derive(Default)]
pub struct Probe {
    pub parse_s: f64,
    pub plan_s: f64,
    pub handle_s: f64,
    pub prepare_warm_s: f64,
    pub execute_s: f64,
    pub render_s: f64,
    /// Strategy names of the engine's decisions ("none" when it made none).
    pub strategies: Vec<&'static str>,
    /// Present for requests the engine served with the serial lazy sliced
    /// pipeline.
    pub pmr_sliced_s: Option<f64>,
    pub csr_build_s: Vec<f64>,
}

/// The in-process layers a request is replayed through after the traced
/// phase: the served instance, the optimizer, and the statistics the engine
/// plans against.
pub struct Layers<'a> {
    pub graph: &'a PropertyGraph,
    pub service: &'a QueryService,
    pub stats: &'a GraphStats,
    pub optimizer: Optimizer,
}

impl Layers<'_> {
    /// Calls each layer's public functions for one request, each inside a
    /// span of its own.
    pub fn probe(
        &self,
        tracer: &mut Tracer,
        request: u64,
        surface: QuerySurface,
        text: &str,
    ) -> Probe {
        let mut probe = Probe::default();
        let (plan, parse_s) = tracer.span(parser_span(surface), 0, request, || {
            parse_surface(surface, text)
                .ok()
                .and_then(|ir| lower_to_checked_plan(&ir).ok())
        });
        probe.parse_s = parse_s;
        if let Some(plan) = &plan {
            let (_, plan_s) = tracer.span("engine.plan", 0, request, || {
                let (optimized, rewrites) = self.optimizer.optimize_with_trace(plan);
                let before = estimate(plan, self.stats);
                let after = estimate(&optimized, self.stats);
                let closures = estimate_plan_closures(
                    &optimized,
                    self.stats,
                    &self.service.effective_recursion(),
                );
                std::hint::black_box((rewrites, before, after, closures))
            });
            probe.plan_s = plan_s;
        }

        let wire = WireRequest::Query {
            surface,
            deadline_ms: None,
            text: text.to_string(),
        };
        let (response, handle_s) = tracer.span("service.handle_request", 0, request, || {
            handle_request(self.service, &wire)
        });
        probe.handle_s = handle_s;
        if let Some(response) = &response {
            let (_, render_s) = tracer.span("protocol.render", 0, request, || {
                std::hint::black_box(response.render())
            });
            probe.render_s = render_s;
        }

        let (prepared, prepare_warm_s) = tracer.span("service.prepare_warm", 0, request, || {
            self.service.prepare_on(surface, text)
        });
        probe.prepare_warm_s = prepare_warm_s;
        let Ok((cached, _)) = prepared else {
            return probe;
        };
        let recursion = self.service.effective_recursion();
        let (strategies, execute_s) = tracer.span("engine.execute", 0, request, || {
            let mut evaluator =
                EngineEvaluator::new(self.graph, recursion, self.service.config().execution)
                    .with_graph_stats(self.stats);
            let _ = std::hint::black_box(evaluator.eval_paths(&cached.plan));
            evaluator
                .decisions()
                .iter()
                .map(|d| d.chosen)
                .collect::<Vec<_>>()
        });
        probe.execute_s = execute_s;
        probe.strategies = if strategies.is_empty() {
            vec!["none"]
        } else {
            strategies
        };

        // The lazy kernel, through the public calls the engine makes, and
        // only where the engine chose it.
        if !probe.strategies.contains(&"lazy-sliced-pipeline") {
            return probe;
        }
        let Some(pipeline) = cached.plan.sliceable_pipeline() else {
            return probe;
        };
        let Some(chain) = pipeline.base.label_scan_chain() else {
            return probe;
        };
        // The endpoint masks are an input here, not a measured layer: the
        // engine's own mask builder is private.
        let mask = |c: &pathalg_core::condition::Condition| -> Vec<bool> {
            (0..self.graph.node_count() as u32)
                .map(|v| c.eval(&Path::node(NodeId(v)), self.graph))
                .collect()
        };
        let (sources, targets) = match pipeline.filter.and_then(|c| c.endpoint_split()) {
            Some((first, last)) => (first.map(|c| mask(&c)), last.map(|c| mask(&c))),
            None => (None, None),
        };
        for label in &chain {
            let (_, took) = tracer.span("graph.csr_build", 0, request, || {
                std::hint::black_box(CsrGraph::with_label(self.graph, label))
            });
            probe.csr_build_s.push(took);
        }
        let (_, sliced_s) = tracer.span("pmr.sliced", 0, request, || {
            let mut pmr = if chain.len() == 1 {
                Pmr::from_label_scan(self.graph, chain[0], pipeline.semantics, recursion)
            } else {
                Pmr::from_label_chain(self.graph, &chain, pipeline.semantics, recursion)
            };
            pmr.restrict_endpoints(EndpointFilter { sources, targets });
            let _ = std::hint::black_box(pmr.sliced(&pipeline.spec));
        });
        probe.pmr_sliced_s = Some(sliced_s);
        probe
    }
}
