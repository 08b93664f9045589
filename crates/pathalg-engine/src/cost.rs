//! A simple cardinality and cost model for algebra plans.
//!
//! Section 7.3 argues that the whole point of an algebra is to enable
//! cost-based optimization. This module provides the minimal ingredient: a
//! bottom-up cardinality estimator over [`GraphStats`] plus a cost function
//! that charges each operator for the paths it is expected to touch. The
//! numbers are deliberately coarse (textbook selectivity heuristics), but they
//! are already enough to rank the Figure 6 plans correctly — which is what the
//! `fig6_pushdown` bench demonstrates.

use crate::exec::ExecutionConfig;
use pathalg_core::condition::{Accessor, Condition, Position};
use pathalg_core::expr::PlanExpr;
use pathalg_core::ops::projection::Take;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_graph::stats::GraphStats;

/// Default selectivity of a property-equality predicate when nothing better is
/// known (the classic 1/10 heuristic).
const DEFAULT_PROPERTY_SELECTIVITY: f64 = 0.1;

/// Expected number of expansion levels charged to a recursive operator when
/// the expansion factor is at least one (bounded by graph size in reality; we
/// charge a fixed horizon to keep the model simple and monotone).
const RECURSION_HORIZON: f64 = 8.0;

/// The estimated cardinality (number of paths) and cumulative cost of a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of output paths.
    pub cardinality: f64,
    /// Estimated total work (paths touched across all operators).
    pub cost: f64,
}

/// Estimates the cardinality and cost of a plan against graph statistics.
pub fn estimate(plan: &PlanExpr, stats: &GraphStats) -> CostEstimate {
    match plan {
        PlanExpr::Nodes => leaf(stats.node_count() as f64),
        PlanExpr::Edges => leaf(stats.edge_count() as f64),
        PlanExpr::Selection { condition, input } => {
            let child = estimate(input, stats);
            let selectivity = condition_selectivity(condition, stats);
            CostEstimate {
                cardinality: child.cardinality * selectivity,
                cost: child.cost + child.cardinality,
            }
        }
        PlanExpr::Join { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            // Paths join on a single endpoint: expected matches per left path
            // is |right| / #nodes.
            let nodes = stats.node_count().max(1) as f64;
            let cardinality = (l.cardinality * r.cardinality / nodes).max(0.0);
            CostEstimate {
                cardinality,
                cost: l.cost + r.cost + l.cardinality + r.cardinality + cardinality,
            }
        }
        PlanExpr::Union { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            CostEstimate {
                cardinality: l.cardinality + r.cardinality,
                cost: l.cost + r.cost + l.cardinality + r.cardinality,
            }
        }
        PlanExpr::Recursive { semantics, input } => {
            let child = estimate(input, stats);
            let nodes = stats.node_count().max(1) as f64;
            // Expansion factor of one self-join round, capped by how fast
            // the semantics lets the closure actually grow.
            let expansion = (child.cardinality / nodes).max(0.0);
            let growth = semantics_growth_cap(*semantics, expansion);
            let cardinality = if growth <= 1.0 {
                child.cardinality * RECURSION_HORIZON.min(1.0 / (1.0 - growth + 1e-9)).max(1.0)
            } else {
                child.cardinality * growth.powf(RECURSION_HORIZON)
            };
            CostEstimate {
                cardinality,
                cost: child.cost + cardinality,
            }
        }
        PlanExpr::GroupBy { input, .. } | PlanExpr::OrderBy { input, .. } => {
            let child = estimate(input, stats);
            CostEstimate {
                cardinality: child.cardinality,
                cost: child.cost + child.cardinality,
            }
        }
        PlanExpr::Projection { spec, input } => {
            let child = estimate(input, stats);
            let keep = |take: Take| match take {
                Take::All => 1.0,
                Take::Count(_) => 0.5,
            };
            let fraction = keep(spec.partitions) * keep(spec.groups) * keep(spec.paths);
            CostEstimate {
                cardinality: child.cardinality * fraction,
                cost: child.cost + child.cardinality,
            }
        }
    }
}

fn leaf(cardinality: f64) -> CostEstimate {
    CostEstimate {
        cardinality,
        cost: cardinality,
    }
}

/// A stats-driven estimate of one recursive closure, an input of the
/// strategy decision ([`choose_strategy`]).
/// The numbers are coarse on purpose — they only ever change *which* of the
/// result-identical physical implementations runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosureEstimate {
    /// Estimated cardinality of the base relation (segments for a join
    /// chain).
    pub base: f64,
    /// Estimated fan-out of one expansion step (one segment appended).
    pub expansion: f64,
    /// Whether the base's subgraph can cycle — the signal separating
    /// saturating closures from exponential blow-ups. For multi-label chains
    /// this falls back to whole-graph cyclicity (a sound over-approximation:
    /// it can only make the model more cautious).
    pub cyclic: bool,
    /// The expansion horizon charged (levels).
    pub levels: f64,
    /// Estimated closure cardinality.
    pub paths: f64,
}

impl ClosureEstimate {
    /// True when the model predicts a super-linear closure: a cyclic base
    /// subgraph whose per-step fan-out exceeds one keeps discovering new
    /// paths at every level instead of saturating.
    pub fn blows_up(&self) -> bool {
        self.cyclic && self.expansion > 1.0
    }
}

impl std::fmt::Display for ClosureEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "base≈{:.1} expansion≈{:.2} {} closure≈{:.0}",
            self.base,
            self.expansion,
            if self.cyclic { "cyclic" } else { "acyclic" },
            self.paths
        )
    }
}

/// Caps a raw per-step expansion factor by the path semantics: restricted
/// semantics saturate (their admission predicates kill most candidates
/// after a few levels), unrestricted walks compound fully. Shared by the
/// generic cardinality model ([`estimate`]) and the closure estimators.
fn semantics_growth_cap(semantics: PathSemantics, expansion: f64) -> f64 {
    match semantics {
        PathSemantics::Shortest | PathSemantics::Acyclic | PathSemantics::Simple => {
            expansion.min(2.0)
        }
        PathSemantics::Trail => expansion.min(4.0),
        PathSemantics::Walk => expansion,
    }
}

/// Assembles a [`ClosureEstimate`] from its raw ingredients: a cyclic base
/// with super-unit capped growth compounds geometrically over the horizon;
/// anything else dies out and is charged the (capped) geometric sum.
fn closure_estimate_from(
    base: f64,
    expansion: f64,
    cyclic: bool,
    semantics: PathSemantics,
    levels: f64,
) -> ClosureEstimate {
    let growth = semantics_growth_cap(semantics, expansion);
    let paths = if cyclic && growth > 1.0 {
        base * growth.powf(levels)
    } else {
        base * levels.min(1.0 / (1.0 - growth.min(1.0) + 1e-9)).max(1.0)
    };
    ClosureEstimate {
        base,
        expansion,
        cyclic,
        levels,
        paths,
    }
}

/// The expansion horizon charged to a closure estimate: the recursion bound
/// expressed in `seg_len`-edge levels when one is set, capped by the fixed
/// [`RECURSION_HORIZON`].
fn closure_levels(recursion: &RecursionConfig, seg_len: f64) -> f64 {
    recursion
        .max_length
        .map(|l| (l as f64 / seg_len).floor().max(1.0))
        .unwrap_or(RECURSION_HORIZON)
        .min(RECURSION_HORIZON)
}

/// The expected fan-out of a `to`-labelled hop taken at the end of a
/// `from`-labelled hop: the degree-distribution-aware pair factor
/// ([`GraphStats::pair_expansion`], which weights hubs by in-degree) when
/// pair statistics exist, the source-mean [`GraphStats::label_expansion`]
/// otherwise.
fn hop_expansion(stats: &GraphStats, from: &str, to: &str) -> f64 {
    stats
        .pair_expansion(from, to)
        .unwrap_or_else(|| stats.label_expansion(to))
}

/// Estimates the closure of `ϕ_semantics` over a base described by `labels`
/// (a label scan for one entry, a join chain for several) from graph
/// statistics: degree-distribution-aware per-hop expansion factors multiply
/// into the segment fan-out (each hop conditioned on the label of the hop
/// before it, wrapping around for the repeated segment), composite
/// cyclicity ([`GraphStats::chain_cyclic`] — exact for one- and two-label
/// chains) decides whether growth compounds, and the recursion bound caps
/// the horizon.
pub fn estimate_closure(
    stats: &GraphStats,
    labels: &[&str],
    semantics: PathSemantics,
    recursion: &RecursionConfig,
) -> ClosureEstimate {
    let seg_len = labels.len().max(1) as f64;
    let base = labels
        .split_first()
        .map(|(first, rest)| {
            let mut n = stats.edges_with_label(first) as f64;
            let mut prev = *first;
            for l in rest {
                n *= hop_expansion(stats, prev, l);
                prev = l;
            }
            n
        })
        .unwrap_or(0.0);
    // One appended segment multiplies the fan-out by every hop in turn; the
    // first hop of the new segment is conditioned on the last hop of the
    // previous one (the wrap-around of the repeated chain).
    let expansion: f64 = labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let prev = labels[(i + labels.len() - 1) % labels.len()];
            hop_expansion(stats, prev, l)
        })
        .product();
    let cyclic = stats.chain_cyclic(labels);
    let levels = closure_levels(recursion, seg_len);
    closure_estimate_from(base, expansion, cyclic, semantics, levels)
}

/// Estimates the closure of an arbitrary ϕ node: label-chain bases use the
/// per-label statistics ([`estimate_closure`]); anything else falls back to
/// the generic cardinality model with whole-graph cyclicity.
pub fn estimate_phi(
    stats: &GraphStats,
    semantics: PathSemantics,
    base_plan: &PlanExpr,
    recursion: &RecursionConfig,
) -> ClosureEstimate {
    if let Some(chain) = base_plan.label_scan_chain() {
        return estimate_closure(stats, &chain, semantics, recursion);
    }
    let base = estimate(base_plan, stats).cardinality;
    let nodes = stats.node_count().max(1) as f64;
    let levels = closure_levels(recursion, 1.0);
    closure_estimate_from(base, base / nodes, stats.is_cyclic(), semantics, levels)
}

/// Estimates every recursive closure of a plan: walks the tree and returns
/// one `(operator rendering, estimate)` pair per ϕ node, outermost first.
/// This is the admission-control view of the cost model — a serving layer
/// calls it *before* evaluation starts, so a query whose closure is
/// predicted to blow up past the service's ceiling can be rejected with a
/// typed error instead of aborting mid-enumeration ([`estimate_phi`] is the
/// per-node estimator; the blow-up predicate is
/// [`ClosureEstimate::blows_up`]).
pub fn estimate_plan_closures(
    plan: &PlanExpr,
    stats: &GraphStats,
    recursion: &RecursionConfig,
) -> Vec<(String, ClosureEstimate)> {
    let mut out = Vec::new();
    collect_plan_closures(plan, stats, recursion, &mut out);
    out
}

fn collect_plan_closures(
    plan: &PlanExpr,
    stats: &GraphStats,
    recursion: &RecursionConfig,
    out: &mut Vec<(String, ClosureEstimate)>,
) {
    match plan {
        PlanExpr::Nodes | PlanExpr::Edges => {}
        PlanExpr::Selection { input, .. }
        | PlanExpr::GroupBy { input, .. }
        | PlanExpr::OrderBy { input, .. }
        | PlanExpr::Projection { input, .. } => collect_plan_closures(input, stats, recursion, out),
        PlanExpr::Join { left, right } | PlanExpr::Union { left, right } => {
            collect_plan_closures(left, stats, recursion, out);
            collect_plan_closures(right, stats, recursion, out);
        }
        PlanExpr::Recursive { semantics, input } => {
            out.push((
                plan.to_string(),
                estimate_phi(stats, *semantics, input, recursion),
            ));
            collect_plan_closures(input, stats, recursion, out);
        }
    }
}

/// With graph statistics available, a ϕ over a materialised base whose
/// closure is estimated at or below this many paths runs on the semi-naïve
/// fixpoint: the whole evaluation is cheaper than the frontier's per-source
/// index construction.
pub const SEMINAIVE_MAX_ESTIMATED_CLOSURE: f64 = 128.0;

/// Without graph statistics, a materialised base of fewer paths than this
/// runs on the semi-naïve fixpoint (measured on the `ablations` bench: below
/// ~24 base paths the fixpoint's lack of setup beats the frontier's
/// per-source batching).
pub const SEMINAIVE_MAX_BASE: usize = 24;

/// On a multi-threaded configuration, a sliced pipeline whose closure is
/// estimated at or below this many paths (and does not blow up) is
/// materialised instead of sliced: with nothing to cut, draining the closure
/// on every worker wins.
pub const PARALLEL_MATERIALIZE_MAX_CLOSURE: f64 = 512.0;

/// How a PMR enumeration is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyMode {
    /// One serial enumeration ([`pathalg_pmr::Pmr`]).
    Serial,
    /// Per-source batch scheduling over the configured worker threads
    /// (`pathalg_pmr::parallel`), byte-identical to the serial order.
    Parallel,
}

/// The physical strategy of one ϕ node or sliced pipeline — the outcome of
/// the engine's one strategy decision, [`choose_strategy`]. Every strategy
/// produces the same answer; the choice only ever affects speed.
#[derive(Clone, Debug)]
pub enum Strategy<'a> {
    /// A slicing `π(τ?(γ(σ?(ϕ(…)))))` pipeline over a label scan or
    /// label-scan join chain, evaluated by the PMR with the projection's
    /// limits pushed into the enumeration.
    Sliced(pathalg_core::slice::SlicePlan<'a>, LazyMode),
    /// A ϕ over a label scan or label-scan join chain, drained whole by the
    /// PMR; the base is never materialised.
    Drain(LazyMode),
    /// A ϕ over a materialised base, on the semi-naïve fixpoint.
    Seminaive,
    /// A ϕ over a materialised base, on the parallel base-path frontier
    /// ([`crate::physical::frontier::phi_frontier`]).
    Frontier,
}

impl Strategy<'_> {
    /// Short display name used by `EXPLAIN` strategy lines, the `repro
    /// joins` decision table and the service's per-strategy counts.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Sliced(_, LazyMode::Serial) => "lazy-sliced-pipeline",
            Strategy::Sliced(_, LazyMode::Parallel) => "parallel-lazy-pipeline",
            Strategy::Drain(_) => "pmr-lazy",
            Strategy::Seminaive => "seminaive",
            Strategy::Frontier => "frontier",
        }
    }
}

/// The engine's strategy decision for one plan node, with the closure
/// estimate behind it (when `stats` are available). It returns:
///
/// * for a projection that roots a slicing pipeline over a ϕ whose base is
///   a label scan or label-scan join chain
///   ([`pathalg_core::expr::PlanExpr::sliceable_pipeline`], and
///   [`pathalg_core::slice::SlicePlan::lazy_eligible`], which keeps
///   unbounded Walk off the sliced path): [`Strategy::Sliced`] —
///   *parallel* on a multi-threaded configuration, except that a run bounded
///   by `max_paths` whose spec couples sources (a partition limit or the γ∅
///   global cap) stays serial, since parallel workers would claim budget
///   for sources the serial run never expands; and `None`, i.e. materialise,
///   on a multi-threaded configuration whose closure is estimated tiny and
///   not blowing up ([`PARALLEL_MATERIALIZE_MAX_CLOSURE`]);
/// * for a ϕ over a label scan or label-scan join chain: [`Strategy::Drain`]
///   at every position in the plan, every thread count and under all five
///   semantics;
/// * for a ϕ over any other base, whose materialised size is `base_paths`:
///   [`Strategy::Frontier`] on a multi-threaded configuration (it is the
///   only materialised-base kernel that uses the threads); otherwise
///   [`Strategy::Seminaive`] when the closure is estimated tiny
///   ([`SEMINAIVE_MAX_ESTIMATED_CLOSURE`]) or, without statistics, the base
///   is ([`SEMINAIVE_MAX_BASE`]), and [`Strategy::Frontier`] beyond;
/// * `None` for every other node.
///
/// # Panics
///
/// When asked about a ϕ over a materialised base without its size.
pub fn choose_strategy<'a>(
    expr: &'a PlanExpr,
    base_paths: Option<usize>,
    recursion: &RecursionConfig,
    exec: &ExecutionConfig,
    stats: Option<&GraphStats>,
) -> Option<(Strategy<'a>, Option<ClosureEstimate>)> {
    let lazy = if exec.threads > 1 {
        LazyMode::Parallel
    } else {
        LazyMode::Serial
    };
    match expr {
        PlanExpr::Projection { .. } => {
            let sliced = expr
                .sliceable_pipeline()
                .filter(|sliced| sliced.lazy_eligible(recursion))?;
            let estimate = stats.map(|s| estimate_phi(s, sliced.semantics, sliced.base, recursion));
            let mut mode = lazy;
            if lazy == LazyMode::Parallel {
                if estimate.is_some_and(|est| {
                    !est.blows_up() && est.paths <= PARALLEL_MATERIALIZE_MAX_CLOSURE
                }) {
                    return None;
                }
                let claim_coupled = sliced.spec.max_partitions.is_some()
                    || sliced.spec.group_key == pathalg_core::ops::group_by::GroupKey::Empty;
                if recursion.max_paths.is_some() && claim_coupled {
                    mode = LazyMode::Serial;
                }
            }
            Some((Strategy::Sliced(sliced, mode), estimate))
        }
        PlanExpr::Recursive { semantics, input } => {
            let estimate = stats.map(|s| estimate_phi(s, *semantics, input, recursion));
            let strategy = if input.label_scan_chain().is_some() {
                Strategy::Drain(lazy)
            } else {
                let tiny = match &estimate {
                    Some(est) => est.paths <= SEMINAIVE_MAX_ESTIMATED_CLOSURE,
                    None => {
                        base_paths.expect("a materialised base comes with its size")
                            < SEMINAIVE_MAX_BASE
                    }
                };
                if tiny && lazy == LazyMode::Serial {
                    Strategy::Seminaive
                } else {
                    Strategy::Frontier
                }
            };
            Some((strategy, estimate))
        }
        _ => None,
    }
}

/// Estimated fraction of paths satisfying a condition.
pub fn condition_selectivity(condition: &Condition, stats: &GraphStats) -> f64 {
    match condition {
        Condition::True => 1.0,
        Condition::And(a, b) => condition_selectivity(a, stats) * condition_selectivity(b, stats),
        Condition::Or(a, b) => {
            let sa = condition_selectivity(a, stats);
            let sb = condition_selectivity(b, stats);
            (sa + sb - sa * sb).clamp(0.0, 1.0)
        }
        Condition::Not(c) => 1.0 - condition_selectivity(c, stats),
        Condition::Bound(_) => 0.9,
        Condition::Substr(_, _) => 0.25,
        // Whole-path restrictor predicates: most short paths satisfy them.
        Condition::IsTrail | Condition::IsAcyclic | Condition::IsSimple => 0.8,
        Condition::Compare {
            accessor,
            op,
            value,
        } => {
            use pathalg_core::condition::CompareOp::*;
            let equality = match accessor {
                Accessor::EdgeLabel(_) => value
                    .as_str()
                    .map(|l| stats.edge_label_selectivity(l))
                    .unwrap_or(DEFAULT_PROPERTY_SELECTIVITY),
                Accessor::NodeLabel(_) => value
                    .as_str()
                    .map(|l| {
                        let total = stats.node_count().max(1) as f64;
                        stats.nodes_with_label(l) as f64 / total
                    })
                    .unwrap_or(DEFAULT_PROPERTY_SELECTIVITY),
                Accessor::NodeProperty(Position::First, _)
                | Accessor::NodeProperty(Position::Last, _)
                | Accessor::NodeProperty(Position::Index(_), _)
                | Accessor::EdgeProperty(_, _) => DEFAULT_PROPERTY_SELECTIVITY,
                Accessor::Len => 0.2,
            };
            match op {
                Eq => equality,
                Ne => 1.0 - equality,
                Lt | Le | Gt | Ge => 0.33,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::projection::ProjectionSpec;
    use pathalg_core::GroupKey;
    use pathalg_graph::fixtures::figure1::figure1_graph;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    fn stats() -> GraphStats {
        GraphStats::compute(&figure1_graph())
    }

    fn knows_scan() -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, "Knows"))
    }

    #[test]
    fn leaves_estimate_exact_counts() {
        let s = stats();
        assert_eq!(estimate(&PlanExpr::nodes(), &s).cardinality, 7.0);
        assert_eq!(estimate(&PlanExpr::edges(), &s).cardinality, 11.0);
    }

    #[test]
    fn label_selection_uses_real_selectivity() {
        let s = stats();
        let est = estimate(&knows_scan(), &s);
        // 4 of 11 edges are Knows.
        assert!((est.cardinality - 4.0).abs() < 1e-6);
        assert!(est.cost > est.cardinality);
    }

    #[test]
    fn condition_selectivities_are_sane() {
        let s = stats();
        assert!(
            (condition_selectivity(&Condition::edge_label(1, "Knows"), &s) - 4.0 / 11.0).abs()
                < 1e-9
        );
        assert_eq!(condition_selectivity(&Condition::True, &s), 1.0);
        let and = Condition::edge_label(1, "Knows").and(Condition::first_property("name", "Moe"));
        assert!(condition_selectivity(&and, &s) < 4.0 / 11.0);
        let or = Condition::edge_label(1, "Knows").or(Condition::edge_label(1, "Likes"));
        let sel_or = condition_selectivity(&or, &s);
        assert!(sel_or > 4.0 / 11.0 && sel_or <= 1.0);
        let not = Condition::edge_label(1, "Knows").not();
        assert!((condition_selectivity(&not, &s) - (1.0 - 4.0 / 11.0)).abs() < 1e-9);
        assert!(condition_selectivity(&Condition::first_label("Person"), &s) > 0.5);
    }

    #[test]
    fn pushed_down_plans_cost_less() {
        // Figure 6: filtering before the join must be estimated cheaper than
        // filtering after it.
        let s = stats();
        let filter = Condition::first_property("name", "Moe");
        let unpushed = knows_scan().join(knows_scan()).select(filter.clone());
        let pushed = knows_scan().select(filter).join(knows_scan());
        let a = estimate(&unpushed, &s);
        let b = estimate(&pushed, &s);
        assert!(b.cost < a.cost, "pushed {} vs unpushed {}", b.cost, a.cost);
        // Cardinality of the final result is (approximately) the same.
        assert!((a.cardinality - b.cardinality).abs() < 1e-6);
    }

    #[test]
    fn restricted_recursion_is_estimated_cheaper_than_walks() {
        let s = GraphStats::compute(&snb_like_graph(&SnbConfig::scale(50, 4)));
        let base = knows_scan();
        let walk = base.clone().recursive(PathSemantics::Walk);
        let shortest = base.recursive(PathSemantics::Shortest);
        let cw = estimate(&walk, &s);
        let cs = estimate(&shortest, &s);
        assert!(cs.cost <= cw.cost);
    }

    /// A ϕ over a union of two scans: a base the engine must materialise.
    fn union_base() -> PlanExpr {
        knows_scan().union(PlanExpr::edges().select(Condition::edge_label(1, "Likes")))
    }

    /// The strategy name of a ϕ node, without statistics.
    fn phi_strategy(plan: &PlanExpr, base_paths: usize, exec: &ExecutionConfig) -> &'static str {
        choose_strategy(
            plan,
            Some(base_paths),
            &RecursionConfig::default(),
            exec,
            None,
        )
        .unwrap()
        .0
        .name()
    }

    #[test]
    fn phi_impl_choice_covers_all_three_implementations() {
        use PathSemantics::*;
        let serial = ExecutionConfig::default();
        let parallel = ExecutionConfig::with_threads(4);
        let materialised = |s| union_base().recursive(s);
        // Any parallel configuration puts a materialised base on the
        // frontier engine.
        assert_eq!(phi_strategy(&materialised(Trail), 4, &parallel), "frontier");
        assert_eq!(
            phi_strategy(&materialised(Shortest), 4, &parallel),
            "frontier"
        );
        // Tiny bases stay on the semi-naïve fixpoint…
        assert_eq!(phi_strategy(&materialised(Trail), 4, &serial), "seminaive");
        assert_eq!(
            phi_strategy(&materialised(Shortest), 23, &serial),
            "seminaive"
        );
        // …everything else uses the frontier engine.
        assert_eq!(
            phi_strategy(&materialised(Shortest), 24, &serial),
            "frontier"
        );
        assert_eq!(phi_strategy(&materialised(Walk), 5000, &serial), "frontier");
        // A label scan or join chain is drained by the PMR whatever its
        // size, semantics or thread count.
        for exec in [&serial, &parallel] {
            for semantics in PathSemantics::ALL {
                assert_eq!(
                    phi_strategy(&knows_scan().recursive(semantics), 0, exec),
                    "pmr-lazy"
                );
            }
        }
        // Nodes that are neither ϕ nor a sliced pipeline get no strategy.
        assert!(choose_strategy(
            &knows_scan(),
            None,
            &RecursionConfig::default(),
            &serial,
            None
        )
        .is_none());
    }

    #[test]
    fn closure_estimates_separate_blowups_from_saturating_closures() {
        use pathalg_graph::generator::structured::{chain_graph, complete_graph};
        let recursion = RecursionConfig::default();
        // A complete graph's label subgraph is cyclic with fan-out n−1: the
        // model must predict a blow-up for walks/trails.
        let dense = GraphStats::compute(&complete_graph(6, "k"));
        let est = estimate_closure(&dense, &["k"], PathSemantics::Trail, &recursion);
        assert!(est.cyclic);
        assert!(est.expansion > 1.0);
        assert!(est.blows_up());
        assert!(est.paths > est.base);
        // A chain saturates: no cycle, expansion ≤ 1.
        let sparse = GraphStats::compute(&chain_graph(30, "k"));
        let est = estimate_closure(&sparse, &["k"], PathSemantics::Trail, &recursion);
        assert!(!est.cyclic);
        assert!(!est.blows_up());
        // Chains multiply per-hop expansions into the segment fan-out.
        let f = GraphStats::compute(&figure1_graph());
        let est = estimate_closure(
            &f,
            &["Likes", "Has_creator"],
            PathSemantics::Simple,
            &recursion,
        );
        assert!(est.base > 0.0);
        assert!(est.expansion > 0.0);
        // A length bound caps the horizon in segment units.
        let bounded = RecursionConfig::with_max_length(4);
        let est_bounded = estimate_closure(&dense, &["k", "k"], PathSemantics::Walk, &bounded);
        assert!(est_bounded.levels <= 2.0);
    }

    #[test]
    fn stats_driven_choice_overrides_the_static_thresholds() {
        use pathalg_graph::generator::structured::{chain_graph, complete_graph};
        let serial = ExecutionConfig::default();
        let recursion = RecursionConfig::default();
        let with_stats = |plan: &PlanExpr, base: usize, stats: &GraphStats| {
            let (strategy, est) =
                choose_strategy(plan, Some(base), &recursion, &serial, Some(stats)).unwrap();
            (strategy.name(), est.expect("statistics give an estimate"))
        };
        // A tiny materialised base whose closure explodes: the estimator
        // sends it to the frontier where the static threshold would have
        // kept the fixpoint.
        let dense = GraphStats::compute(&complete_graph(5, "k"));
        let scan_k = || PlanExpr::edges().select(Condition::edge_label(1, "k"));
        let exploding = scan_k().union(scan_k()).recursive(PathSemantics::Trail);
        let (name, est) = with_stats(&exploding, 20, &dense);
        assert!(est.blows_up());
        assert_eq!(name, "frontier");
        assert_eq!(phi_strategy(&exploding, 20, &serial), "seminaive");
        // A base at the static threshold whose closure stays tiny: the
        // estimator keeps the fixpoint where the base-size rule would pay
        // for the frontier.
        let sparse = GraphStats::compute(&chain_graph(11, "k"));
        let saturating = PlanExpr::nodes().recursive(PathSemantics::Acyclic);
        let (name, est) = with_stats(&saturating, SEMINAIVE_MAX_BASE, &sparse);
        assert!(est.paths <= SEMINAIVE_MAX_ESTIMATED_CLOSURE);
        assert_eq!(name, "seminaive");
        assert_eq!(
            phi_strategy(&saturating, SEMINAIVE_MAX_BASE, &serial),
            "frontier"
        );
        // Statistics never move a scan chain off the PMR.
        let (name, _) = with_stats(&scan_k().recursive(PathSemantics::Trail), 0, &dense);
        assert_eq!(name, "pmr-lazy");
    }

    #[test]
    fn scan_and_pipeline_choosers_pick_pmr_lazy_where_it_pays() {
        use pathalg_core::ops::projection::{ProjectionSpec, Take};

        let serial = ExecutionConfig::default();
        let parallel = ExecutionConfig::with_threads(4);
        let likes_creator = PlanExpr::edges()
            .select(Condition::edge_label(1, "Likes"))
            .join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")));
        // Label scans and join chains are drained by the PMR under all five
        // semantics, unbounded Walk included, serially on one thread and in
        // batches on more.
        for base in [knows_scan(), likes_creator] {
            for semantics in PathSemantics::ALL {
                for recursion in [RecursionConfig::default(), RecursionConfig::unbounded()] {
                    let plan = base.clone().recursive(semantics);
                    for (exec, mode) in
                        [(&serial, LazyMode::Serial), (&parallel, LazyMode::Parallel)]
                    {
                        let (strategy, _) =
                            choose_strategy(&plan, None, &recursion, exec, None).unwrap();
                        assert!(
                            matches!(strategy, Strategy::Drain(m) if m == mode),
                            "{plan}: {strategy:?}"
                        );
                    }
                }
            }
        }

        let recursion = RecursionConfig::default();
        let sliced_plan = |semantics| {
            knows_scan()
                .recursive(semantics)
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
        };
        let is_sliced = |plan: &PlanExpr, recursion: &RecursionConfig| {
            matches!(
                choose_strategy(plan, None, recursion, &serial, None),
                Some((Strategy::Sliced(..), _))
            )
        };
        assert!(is_sliced(&sliced_plan(PathSemantics::Trail), &recursion));
        // π(*,*,*) slices nothing.
        let all = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        assert!(!is_sliced(&all, &recursion));
        // Unbounded Walk keeps the materialised infinite-answer check; with
        // a bound the lazy pipeline applies.
        let walk = sliced_plan(PathSemantics::Walk);
        assert!(!is_sliced(&walk, &RecursionConfig::unbounded()));
        assert!(is_sliced(&walk, &RecursionConfig::with_max_length(4)));
    }

    #[test]
    fn pair_statistics_sharpen_chain_estimates() {
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;
        let recursion = RecursionConfig::default();
        // a: u→v, b: v→u — each label subgraph acyclic, the (a/b)+ composite
        // cyclic. Whole-graph cyclicity agrees here; the pair table is what
        // proves it per chain.
        let mut builder = GraphBuilder::new();
        let u = builder.add_node("N", Vec::<(&str, Value)>::new());
        let v = builder.add_node("N", Vec::<(&str, Value)>::new());
        builder.add_edge(u, v, "a", Vec::<(&str, Value)>::new());
        builder.add_edge(v, u, "b", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&builder.build());
        let est = estimate_closure(&stats, &["a", "b"], PathSemantics::Trail, &recursion);
        assert!(est.cyclic, "the composite 2-cycle must be seen");
        // The reverse: a cyclic graph whose (a/b) composite is empty — the
        // whole-graph fallback would call this cyclic, the pair table knows
        // better and the estimate stays saturating.
        let mut builder = GraphBuilder::new();
        let x = builder.add_node("N", Vec::<(&str, Value)>::new());
        let y = builder.add_node("N", Vec::<(&str, Value)>::new());
        let w1 = builder.add_node("N", Vec::<(&str, Value)>::new());
        let w2 = builder.add_node("N", Vec::<(&str, Value)>::new());
        builder.add_edge(x, y, "a", Vec::<(&str, Value)>::new());
        builder.add_edge(x, y, "b", Vec::<(&str, Value)>::new());
        builder.add_edge(w1, w2, "c", Vec::<(&str, Value)>::new());
        builder.add_edge(w2, w1, "c", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&builder.build());
        assert!(stats.is_cyclic());
        let est = estimate_closure(&stats, &["a", "b"], PathSemantics::Walk, &recursion);
        assert!(!est.cyclic, "the empty (a,b) composite cannot cycle");
        assert!(!est.blows_up());
    }

    #[test]
    fn pipeline_strategy_is_three_way() {
        use pathalg_core::ops::projection::Take;
        use pathalg_graph::generator::structured::{chain_graph, complete_graph};

        let plan = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let recursion = RecursionConfig::default();
        let serial = ExecutionConfig::default();
        let parallel = ExecutionConfig::with_threads(4);
        let mode = |plan: &PlanExpr,
                    recursion: &RecursionConfig,
                    exec: &ExecutionConfig,
                    stats: Option<&GraphStats>| {
            match choose_strategy(plan, None, recursion, exec, stats) {
                Some((Strategy::Sliced(_, mode), est)) => Some((mode, est)),
                None => None,
                Some(other) => panic!("a pipeline decided {other:?}"),
            }
        };
        // Serial configurations slice serially.
        let (m, _) = mode(&plan, &recursion, &serial, None).unwrap();
        assert_eq!(m, LazyMode::Serial);
        // Parallel without statistics: lazy, scheduled in batches.
        let (m, _) = mode(&plan, &recursion, &parallel, None).unwrap();
        assert_eq!(m, LazyMode::Parallel);
        // Parallel + provably tiny closure: materialise on every worker (the
        // graph is a short Knows chain).
        let sparse = GraphStats::compute(&chain_graph(6, "Knows"));
        assert!(mode(&plan, &recursion, &parallel, Some(&sparse)).is_none());
        // Parallel + predicted blow-up: parallel lazy, with the estimate.
        let dense = GraphStats::compute(&complete_graph(6, "Knows"));
        let (m, est) = mode(&plan, &recursion, &parallel, Some(&dense)).unwrap();
        assert_eq!(m, LazyMode::Parallel);
        assert!(est.unwrap().blows_up());
        // A max_paths bound forces the serial enumeration only for
        // cross-source-coupled specs (partition limit / γ∅), whose serial
        // stop point the parallel claims cannot replay; an uncoupled spec
        // keeps exact claim parity and stays parallel.
        let bounded = RecursionConfig {
            max_length: None,
            max_paths: Some(100),
        };
        let (m, _) = mode(&plan, &bounded, &parallel, Some(&dense)).unwrap();
        assert_eq!(m, LazyMode::Parallel);
        let coupled = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::Source)
            .project(ProjectionSpec::new(
                Take::Count(2),
                Take::All,
                Take::Count(3),
            ));
        let (m, _) = mode(&coupled, &bounded, &parallel, Some(&dense)).unwrap();
        assert_eq!(m, LazyMode::Serial);
        let (m, _) = mode(
            &coupled,
            &RecursionConfig {
                max_length: None,
                max_paths: None,
            },
            &parallel,
            Some(&dense),
        )
        .unwrap();
        assert_eq!(m, LazyMode::Parallel);
    }

    #[test]
    fn plan_closure_walk_finds_every_phi_node() {
        use pathalg_graph::generator::structured::complete_graph;
        let s = GraphStats::compute(&complete_graph(6, "Knows"));
        let recursion = RecursionConfig::default();
        // No ϕ node: nothing to estimate.
        assert!(estimate_plan_closures(&knows_scan(), &s, &recursion).is_empty());
        // A sliced pipeline over a blow-up closure: one estimate, exploding.
        let pipeline = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        let ests = estimate_plan_closures(&pipeline, &s, &recursion);
        assert_eq!(ests.len(), 1);
        assert!(ests[0].0.starts_with("ϕ"));
        assert!(ests[0].1.blows_up());
        // A union of two closures reports both.
        let two = knows_scan()
            .recursive(PathSemantics::Trail)
            .union(knows_scan().recursive(PathSemantics::Acyclic));
        assert_eq!(estimate_plan_closures(&two, &s, &recursion).len(), 2);
    }

    #[test]
    fn extended_operators_add_their_input_cost() {
        let s = stats();
        let plan = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        let est = estimate(&plan, &s);
        assert!(est.cost > 0.0);
        assert!(est.cardinality > 0.0);
        let inner = estimate(&knows_scan().recursive(PathSemantics::Trail), &s);
        assert!(est.cost > inner.cost);
    }
}
