//! The three workloads: their graphs, their query classes, and the seeded
//! request sequences the clients replay.
//!
//! A sequence is made of whole rounds. Every round of a workload has the
//! same make-up (so the share of each class, and of the requests that fail
//! today, is the same in every run); the seed picks anchors, targets,
//! surfaces and the order inside each round.

use crate::oracle::Oracle;
use pathalg_parser::{parse_surface, QuerySurface};
use std::fmt::Write as _;

/// Seed of the generated graphs. The graph of a workload is the same for
/// every `--seed`, so runs on different seeds differ only in their requests.
pub const GRAPH_SEED: u64 = 2024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Analytic,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "interactive" => Some(Self::Interactive),
            "analytic" => Some(Self::Analytic),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Analytic => "analytic",
            Self::Churn => "churn",
        }
    }

    /// Persons in the graph (messages are twice as many).
    pub fn persons(self) -> usize {
        match self {
            Self::Interactive | Self::Churn => 2000,
            // ALL SHORTEST :Knows+ stays under the default quota of 250 000
            // paths up to about 380 persons, but a round there takes over
            // two seconds; 250 persons keep enough requests in a run for a
            // steady tail (see the README).
            Self::Analytic => 250,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A set-up at 250 persons
    /// takes about 2 ms, so `analytic` takes more of them to steady it.
    pub fn setup_reps(self) -> usize {
        match self {
            Self::Interactive | Self::Churn => 61,
            Self::Analytic => 201,
        }
    }

    /// Client connections, each a closed loop.
    pub fn connections(self) -> usize {
        match self {
            Self::Churn => 2,
            _ => 1,
        }
    }

    /// Timed rounds per window. `throughput_qps`, `paths_per_s` and
    /// `latency_tail_ms` are each taken per window and reported as their
    /// median over the run's windows, so a burst of load from outside the
    /// process moves a few windows and not the figure. A window holds at
    /// least 200 answered queries (about 1.5 s of the run). `analytic`,
    /// whose rounds take over a second, is one window.
    pub fn window_rounds(self) -> Option<usize> {
        match self {
            Self::Interactive => Some(14),
            Self::Churn => Some(7),
            Self::Analytic => None,
        }
    }

    /// The percentile behind `latency_tail_ms`: the highest one that leaves
    /// at least ten answered requests beyond it in a window at the sample
    /// counts these workloads reach (see the README).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Self::Interactive | Self::Churn => 95.0,
            Self::Analytic => 90.0,
        }
    }
}

/// The query classes of all workloads; the names are those of the
/// `class.<name>.*` metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    Sssp,
    P2p,
    ChainSssp,
    FofLikes,
    P2pUnreachable,
    AllShortest,
    ChainAll,
    Knows2Trail,
    LikesCreator,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Sssp,
        Class::P2p,
        Class::ChainSssp,
        Class::FofLikes,
        Class::P2pUnreachable,
        Class::AllShortest,
        Class::ChainAll,
        Class::Knows2Trail,
        Class::LikesCreator,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Sssp => "sssp",
            Class::P2p => "p2p",
            Class::ChainSssp => "chain_sssp",
            Class::FofLikes => "fof_likes",
            Class::P2pUnreachable => "p2p_unreachable",
            Class::AllShortest => "all_shortest",
            Class::ChainAll => "chain_all",
            Class::Knows2Trail => "knows2_trail",
            Class::LikesCreator => "likes_creator",
        }
    }

    pub fn index(self) -> usize {
        Class::ALL.iter().position(|&c| c == self).expect("listed")
    }
}

/// The edge pattern of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `(:Knows)+`
    KnowsPlus,
    /// `(:Likes/:Has_creator)+`
    ChainPlus,
    /// `:Knows/:Knows`
    Knows2,
    /// `:Likes/:Has_creator`
    LikesCreator,
}

impl Pattern {
    /// Edges per oracle hop.
    pub fn hop_len(self) -> usize {
        match self {
            Pattern::KnowsPlus | Pattern::Knows2 => 1,
            Pattern::ChainPlus | Pattern::LikesCreator => 2,
        }
    }

    fn regex(self) -> &'static str {
        match self {
            Pattern::KnowsPlus => "(:Knows)+",
            Pattern::ChainPlus => "(:Likes/:Has_creator)+",
            Pattern::Knows2 => ":Knows/:Knows",
            Pattern::LikesCreator => ":Likes/:Has_creator",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Restrictor {
    Shortest,
    Trail,
    Acyclic,
    Simple,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selector {
    All,
    AnyShortest,
    AllShortest,
    ShortestK(usize),
    AnyK(usize),
}

/// One logical query, independent of the surface it is written in.
#[derive(Clone, Debug)]
pub struct Query {
    pub class: Class,
    pub pattern: Pattern,
    pub restrictor: Restrictor,
    pub selector: Selector,
    /// Anchors on the `id` property (which equals the node index).
    pub source: Option<u32>,
    pub target: Option<u32>,
    /// Endpoints labelled `:Person`.
    pub persons_only: bool,
}

impl Query {
    fn new(class: Class, pattern: Pattern, restrictor: Restrictor, selector: Selector) -> Self {
        Self {
            class,
            pattern,
            restrictor,
            selector,
            source: None,
            target: None,
            persons_only: false,
        }
    }

    /// The key answers are memoised under: two requests with the same key
    /// must receive byte-identical lines, whatever their surface.
    pub fn key(&self) -> String {
        self.gql()
    }

    fn node(&self, var: &str, anchor: Option<u32>) -> String {
        let mut out = var.to_string();
        if self.persons_only {
            out.push_str(":Person");
        }
        if let Some(id) = anchor {
            let _ = write!(out, " {{id: {id}}}");
        }
        out
    }

    pub fn gql(&self) -> String {
        let selector = match self.selector {
            Selector::All => "ALL".to_string(),
            Selector::AnyShortest => "ANY SHORTEST".to_string(),
            Selector::AllShortest => "ALL SHORTEST".to_string(),
            Selector::ShortestK(k) => format!("SHORTEST {k}"),
            Selector::AnyK(k) => format!("ANY {k}"),
        };
        let restrictor = match self.restrictor {
            Restrictor::Shortest => "SHORTEST",
            Restrictor::Trail => "TRAIL",
            Restrictor::Acyclic => "ACYCLIC",
            Restrictor::Simple => "SIMPLE",
        };
        format!(
            "MATCH {selector} {restrictor} p = (?{})-[{}]->(?{})",
            self.node("x", self.source),
            self.pattern.regex(),
            self.node("y", self.target)
        )
    }

    pub fn rpq(&self) -> String {
        let selector = match self.selector {
            Selector::All => "all".to_string(),
            Selector::AnyShortest => "any_shortest".to_string(),
            Selector::AllShortest => "all_shortest".to_string(),
            Selector::ShortestK(k) => format!("shortest({k})"),
            Selector::AnyK(k) => format!("any({k})"),
        };
        let restrictor = match self.restrictor {
            Restrictor::Shortest => "shortest",
            Restrictor::Trail => "trail",
            Restrictor::Acyclic => "acyclic",
            Restrictor::Simple => "simple",
        };
        format!(
            "reach({}, {}) :- {}, {restrictor}, {selector}.",
            self.node("x", self.source),
            self.node("y", self.target),
            self.pattern.regex()
        )
    }

    /// The query text on `surface`. The IR document is the GQL text's
    /// lowering, serialised.
    pub fn text(&self, surface: QuerySurface) -> String {
        match surface {
            QuerySurface::Gql => self.gql(),
            QuerySurface::Rpq => self.rpq(),
            QuerySurface::Ir => parse_surface(QuerySurface::Gql, &self.gql())
                .expect("the benchmark's GQL texts parse")
                .to_json_string(),
        }
    }
}

/// One request of a sequence.
pub enum Op {
    Query(Request),
    /// Sent by the first connection of `churn` only.
    Bump,
}

pub struct Request {
    pub query: Query,
    pub surface: QuerySurface,
    pub text: String,
    /// The wire line, `QUERY <tag> <text>`.
    pub line: String,
}

impl Request {
    fn new(query: Query, surface: QuerySurface) -> Self {
        let text = query.text(surface);
        let line = format!("QUERY {} {}", surface.tag(), text);
        Self {
            query,
            surface,
            text,
            line,
        }
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Persons anchors are drawn from, per seed.
pub const ANCHOR_POOL: usize = 256;
/// Zipf exponent of the anchor draw over the pool's ranks.
pub const ANCHOR_SKEW: f64 = 1.0;
/// Oracle distance of the targets of ACYCLIC `p2p` requests.
pub const ACYCLIC_DISTANCE: u32 = 3;
/// Requests of one `interactive` / `churn` round, by class.
/// The shares put the median of the answered requests near the middle of
/// the `sssp`/`chain_sssp` cluster (their round trips overlap), not on the
/// steep edge between it and the much faster `p2p` requests.
pub const INTERACTIVE_ROUND: [(Class, usize); 5] = [
    (Class::Sssp, 7),
    (Class::P2p, 3),
    (Class::ChainSssp, 4),
    (Class::FofLikes, 1),
    (Class::P2pUnreachable, 1),
];
/// Requests of one `analytic` round, by class. Three chain queries put the
/// median inside one class instead of on the boundary between two, and two
/// ALL SHORTEST queries put the tail percentile inside the slowest class.
pub const ANALYTIC_ROUND: [(Class, usize); 4] = [
    (Class::AllShortest, 2),
    (Class::ChainAll, 3),
    (Class::Knows2Trail, 1),
    (Class::LikesCreator, 1),
];
/// In `churn`, the first connection sends a `BUMP` after this many queries
/// of each round, while the second connection sends its next query.
pub const BUMP_AFTER: usize = 8;
/// Fixed `(source, target)` pairs of `p2p_unreachable`, used in rotation.
const UNREACHABLE_PAIRS: usize = 4;

/// The request sequence of one connection.
pub struct Sequence {
    workload: Workload,
    rng: Rng,
    /// Anchor pool and the cumulative Zipf weights of its ranks.
    pool: Vec<u32>,
    cumulative: Vec<f64>,
    unreachable: Vec<(u32, u32)>,
    bumps: bool,
}

impl Sequence {
    /// `bumps` is true for the connection that sends `BUMP`s.
    pub fn new(workload: Workload, seed: u64, oracle: &Oracle, bumps: bool) -> Self {
        let mut rng = Rng::new(seed);
        let persons = oracle.persons();
        let mut pool = Vec::with_capacity(ANCHOR_POOL);
        while pool.len() < ANCHOR_POOL.min(persons) {
            let p = rng.below(persons) as u32;
            if !pool.contains(&p) {
                pool.push(p);
            }
        }
        let mut cumulative = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for rank in 0..pool.len() {
            total += 1.0 / ((rank + 1) as f64).powf(ANCHOR_SKEW);
            cumulative.push(total);
        }
        Self {
            workload,
            rng,
            pool,
            cumulative,
            unreachable: unreachable_pairs(oracle),
            bumps,
        }
    }

    fn anchor(&mut self) -> u32 {
        let total = *self.cumulative.last().expect("non-empty pool");
        let x = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let rank = self.cumulative.partition_point(|&c| c <= x);
        self.pool[rank.min(self.pool.len() - 1)]
    }

    fn surface(&mut self) -> QuerySurface {
        QuerySurface::ALL[self.rng.below(QuerySurface::ALL.len())]
    }

    /// The `analytic` warm-up: every query on every surface, so the first
    /// timed round already runs on cached plans and the answers are checked
    /// to be byte-identical across surfaces.
    pub fn warmup(&mut self, oracle: &Oracle) -> Vec<Op> {
        match self.workload {
            Workload::Analytic => ANALYTIC_ROUND
                .iter()
                .flat_map(|&(class, _)| {
                    QuerySurface::ALL
                        .map(|surface| Op::Query(Request::new(class_query(class), surface)))
                })
                .collect(),
            _ => self.round(0, oracle),
        }
    }

    /// Round `r` of the sequence (rounds are drawn in order).
    pub fn round(&mut self, r: usize, oracle: &Oracle) -> Vec<Op> {
        let make_up: &[(Class, usize)] = match self.workload {
            Workload::Analytic => &ANALYTIC_ROUND,
            _ => &INTERACTIVE_ROUND,
        };
        let mut classes: Vec<Class> = make_up
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        self.rng.shuffle(&mut classes);
        // The three `p2p` requests of a round use the SHORTEST variants on
        // even rounds and the ACYCLIC ones on odd rounds.
        let mut p2p = 3 * (r % 2);
        let mut ops: Vec<Op> = classes
            .into_iter()
            .map(|class| {
                let request = match class {
                    Class::P2pUnreachable => self.unreachable_request(r),
                    Class::P2p => {
                        p2p += 1;
                        self.p2p_request(p2p - 1, oracle)
                    }
                    _ => {
                        let mut query = class_query(class);
                        if matches!(class, Class::Sssp | Class::ChainSssp | Class::FofLikes) {
                            query.source = Some(self.anchor());
                        }
                        let surface = self.surface();
                        Request::new(query, surface)
                    }
                };
                Op::Query(request)
            })
            .collect();
        if self.bumps {
            ops.insert(BUMP_AFTER, Op::Bump);
        }
        ops
    }

    /// A `p2p` request; `variant` picks the selector/restrictor pair.
    fn p2p_request(&mut self, variant: usize, oracle: &Oracle) -> Request {
        let (selector, restrictor) = match variant % 6 {
            0 => (Selector::AnyShortest, Restrictor::Shortest),
            1 => (Selector::ShortestK(3), Restrictor::Shortest),
            2 => (Selector::AnyK(2), Restrictor::Shortest),
            3 => (Selector::AnyShortest, Restrictor::Acyclic),
            4 => (Selector::ShortestK(2), Restrictor::Acyclic),
            _ => (Selector::AnyK(2), Restrictor::Acyclic),
        };
        let source = self.anchor();
        let reach = oracle.knows_reach(source);
        let target = if restrictor == Restrictor::Acyclic {
            // ACYCLIC expands about threefold per level until the k-th path
            // is found: a target at a fixed distance with at least k
            // shortest paths keeps every such request alike and far under
            // the quota.
            let k = selector_k(selector) as u64;
            let candidates: Vec<u32> = reach
                .reachable()
                .filter(|&v| reach.dist[v] == ACYCLIC_DISTANCE && reach.count[v] >= k)
                .map(|v| v as u32)
                .collect();
            if candidates.is_empty() {
                return self.p2p_request(variant, oracle);
            }
            candidates[self.rng.below(candidates.len())]
        } else {
            self.anchor()
        };
        // The source itself or an unreachable person: draw again (every
        // person knows three others, so this ends).
        if target == source || reach.dist[target as usize] == u32::MAX {
            return self.p2p_request(variant, oracle);
        }
        let mut query = Query::new(Class::P2p, Pattern::KnowsPlus, restrictor, selector);
        query.source = Some(source);
        query.target = Some(target);
        let surface = self.surface();
        Request::new(query, surface)
    }

    /// The `p2p_unreachable` request of round `r`: fixed pairs, restrictors
    /// and surfaces in rotation, independent of the seed.
    fn unreachable_request(&self, r: usize) -> Request {
        let (source, target) = self.unreachable[r % self.unreachable.len()];
        let (selector, restrictor) = if r.is_multiple_of(2) {
            (Selector::AnyK(2), Restrictor::Acyclic)
        } else {
            (Selector::AnyShortest, Restrictor::Simple)
        };
        let mut query = Query::new(
            Class::P2pUnreachable,
            Pattern::KnowsPlus,
            restrictor,
            selector,
        );
        query.source = Some(source);
        query.target = Some(target);
        Request::new(query, QuerySurface::ALL[r % QuerySurface::ALL.len()])
    }
}

pub fn selector_k(selector: Selector) -> usize {
    match selector {
        Selector::ShortestK(k) | Selector::AnyK(k) => k,
        _ => 1,
    }
}

/// The query of a class, before any anchor is set.
fn class_query(class: Class) -> Query {
    let (pattern, restrictor, selector, persons_only) = match class {
        Class::Sssp | Class::AllShortest => (
            Pattern::KnowsPlus,
            Restrictor::Shortest,
            if class == Class::Sssp {
                Selector::AnyShortest
            } else {
                Selector::AllShortest
            },
            false,
        ),
        Class::ChainSssp => (
            Pattern::ChainPlus,
            Restrictor::Shortest,
            Selector::AnyShortest,
            false,
        ),
        Class::ChainAll => (
            Pattern::ChainPlus,
            Restrictor::Shortest,
            Selector::AnyShortest,
            true,
        ),
        Class::FofLikes => (
            Pattern::LikesCreator,
            Restrictor::Acyclic,
            Selector::All,
            false,
        ),
        Class::LikesCreator => (
            Pattern::LikesCreator,
            Restrictor::Acyclic,
            Selector::All,
            true,
        ),
        Class::Knows2Trail => (Pattern::Knows2, Restrictor::Trail, Selector::All, false),
        Class::P2p | Class::P2pUnreachable => unreachable!("anchored on both ends"),
    };
    let mut query = Query::new(class, pattern, restrictor, selector);
    query.persons_only = persons_only;
    query
}

/// Pairs no `:Knows+` path connects: the first persons nobody knows, as
/// targets of the first persons that reach most of the graph. They depend
/// on the graph alone, never on the seed.
fn unreachable_pairs(oracle: &Oracle) -> Vec<(u32, u32)> {
    let persons = oracle.persons() as u32;
    let targets: Vec<u32> = (0..persons)
        .filter(|&p| oracle.knows_in_degree(p) == 0)
        .take(UNREACHABLE_PAIRS)
        .collect();
    let sources: Vec<u32> = (0..persons)
        .filter(|&p| oracle.knows_reach(p).reachable().count() > oracle.persons() / 2)
        .take(UNREACHABLE_PAIRS)
        .collect();
    assert!(
        targets.len() == UNREACHABLE_PAIRS && sources.len() == UNREACHABLE_PAIRS,
        "the generated graph has too few unreachable persons"
    );
    sources.into_iter().zip(targets).collect()
}
