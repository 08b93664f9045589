//! Execution configuration and the engine-level plan evaluator.
//!
//! `pathalg-core`'s [`pathalg_core::eval::Evaluator`] is the
//! *reference* interpreter: one algorithm per operator, single-threaded,
//! always the semi-naïve fixpoint for ϕ. [`EngineEvaluator`] is the engine's
//! physical counterpart: it walks the same logical plans and calls the same
//! `pathalg-core` operator implementations for σ/⋈/∪/γ/τ/π, but hands every
//! ϕ node and every slicing γ/τ/π pipeline to the cost model's one strategy
//! decision ([`crate::cost::choose_strategy`]).
//!
//! A ϕ whose base is a label scan or a join chain of label scans — the base
//! of every `[:ℓ+]` and `[(:ℓ1/…/:ℓk)+]` pattern — always runs on the PMR
//! (`pathalg-pmr`), serially or in per-source batches, at any position in
//! the plan and under all five semantics. One entry point builds it: a
//! label-restricted [`CsrGraph`] snapshot per hop, shared by every batch
//! worker, so the base relation is never materialised. The collected
//! [`EvalStats`] charge the skipped operators as the reference evaluator
//! would, so `EXPLAIN ANALYZE` output stays comparable between the two
//! interpreters. A ϕ over any other base materialises it and runs the
//! semi-naïve fixpoint or the parallel base-path frontier
//! ([`crate::physical`]).
//!
//! Results are identical to the reference evaluator as *sets* for every
//! plan, thread count, and batch size (cross-validated in
//! `tests/cross_validation.rs`); the batch-order merges of the PMR and the
//! frontier additionally make the engine's own output ordering independent
//! of [`ExecutionConfig::threads`].

use crate::cost::{choose_strategy, ClosureEstimate, LazyMode, Strategy};
use pathalg_core::budget::CancelToken;
use pathalg_core::condition::Condition;
use pathalg_core::error::AlgebraError;
use pathalg_core::eval::{EvalOutput, EvalStats};
use pathalg_core::expr::PlanExpr;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::group_by;
use pathalg_core::ops::join::join;
use pathalg_core::ops::order_by::order_by;
use pathalg_core::ops::projection::projection;
use pathalg_core::ops::recursive::PathSemantics;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::ops::selection::selection;
use pathalg_core::ops::union::union;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::pathset_repr::PathSetRepr;
use pathalg_core::slice::SliceSpec;
use pathalg_core::solution_space::SolutionSpace;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use pathalg_graph::stats::GraphStats;
use pathalg_pmr::parallel::{self as pmr_parallel, ParallelConfig};
use pathalg_pmr::{EndpointFilter, Pmr};
use std::sync::Arc;

use crate::physical::frontier::phi_frontier_with_cancel;
use crate::physical::phi_seminaive;

/// One recorded strategy decision: which physical implementation a ϕ node or
/// sliced pipeline was dispatched to, and the closure estimate (when graph
/// statistics were available) that justified it. Surfaced by
/// `QueryResult::explain` and the `repro joins` decision table.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyDecision {
    /// Display form of the operator the decision applies to.
    pub operator: String,
    /// Short name of the chosen strategy ([`Strategy::name`]).
    pub chosen: &'static str,
    /// The worker-thread count the decision was made for
    /// ([`ExecutionConfig::threads`]) — strategy choices depend on it, so it
    /// is recorded to make them reproducible from `explain()` and the
    /// `repro joins` table.
    pub threads: usize,
    /// The estimate behind the choice, if statistics were available.
    pub estimate: Option<ClosureEstimate>,
}

impl std::fmt::Display for StrategyDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} -> {} [threads={}]",
            self.operator, self.chosen, self.threads
        )?;
        if let Some(est) = &self.estimate {
            write!(f, " ({est})")?;
        }
        Ok(())
    }
}

/// Parallel-execution knobs of the [`QueryRunner`](crate::runner::QueryRunner).
///
/// The defaults are serial: parallelism is opt-in because the engine's
/// workloads start paying for thread scheduling only once the per-source
/// expansions are substantial. `batch_size` is the number of source nodes a
/// worker claims at a time — large enough to amortise per-batch scratch
/// allocations, small enough to balance skewed degree distributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of worker threads for the PMR and the frontier engine (≤ 1
    /// means inline serial execution with zero synchronisation overhead).
    pub threads: usize,
    /// Number of source nodes per scheduling batch.
    pub batch_size: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch_size: 32,
        }
    }
}

impl ExecutionConfig {
    /// A configuration with `threads` workers and the default batch size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// The engine's physical plan interpreter (see the module docs).
pub struct EngineEvaluator<'g> {
    graph: &'g PropertyGraph,
    recursion: RecursionConfig,
    exec: ExecutionConfig,
    graph_stats: Option<&'g GraphStats>,
    cancel: Option<Arc<CancelToken>>,
    stats: EvalStats,
    work: WorkCounters,
    lazy_pipeline_fired: bool,
    decisions: Vec<StrategyDecision>,
}

impl<'g> EngineEvaluator<'g> {
    /// Creates an evaluator over `graph` with the given recursion bounds and
    /// execution configuration. Without statistics the strategy decision
    /// falls back to exact materialised-base sizes
    /// ([`crate::cost::SEMINAIVE_MAX_BASE`]); attach statistics with
    /// [`EngineEvaluator::with_graph_stats`] for the closure estimator.
    pub fn new(
        graph: &'g PropertyGraph,
        recursion: RecursionConfig,
        exec: ExecutionConfig,
    ) -> Self {
        Self {
            graph,
            recursion,
            exec,
            graph_stats: None,
            cancel: None,
            stats: EvalStats::default(),
            work: WorkCounters::default(),
            lazy_pipeline_fired: false,
            decisions: Vec::new(),
        }
    }

    /// Attaches precomputed [`GraphStats`], switching the strategy decision
    /// from the static thresholds to the stats-driven closure estimator
    /// ([`crate::cost::estimate_phi`]). The runner always does this; the
    /// choice never changes results, only which implementation runs.
    pub fn with_graph_stats(mut self, stats: &'g GraphStats) -> Self {
        self.graph_stats = Some(stats);
        self
    }

    /// Attaches a shared [`CancelToken`]: every ϕ dispatch (serial and
    /// parallel, full drains and sliced pipelines) threads the token into
    /// its enumeration loops, so firing it — or its deadline passing —
    /// aborts the evaluation with a typed
    /// [`AlgebraError::Cancelled`] / [`AlgebraError::DeadlineExceeded`]
    /// within one expansion level or batch. A token that never fires leaves
    /// results byte-identical at every thread count.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The evaluator-level cancellation point, polled at every ϕ dispatch.
    fn check_cancel(&self) -> Result<(), AlgebraError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// The statistics collected so far (same counters as the reference
    /// evaluator).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The deterministic PMR work counters accumulated across every lazy
    /// dispatch this evaluator performed (serial and parallel, full drains
    /// and sliced pipelines); zero when no lazy strategy fired. Parallel
    /// dispatches fold in the batch-order merged [`ParallelRun::work`]
    /// totals, so on serial-parity schedules the counters match the serial
    /// run byte for byte at every thread count.
    ///
    /// [`ParallelRun::work`]: pathalg_pmr::parallel::ParallelRun::work
    pub fn work_counters(&self) -> WorkCounters {
        self.work
    }

    /// The strategy decisions recorded so far, in evaluation order — one per
    /// dispatched ϕ node or sliced pipeline.
    pub fn decisions(&self) -> &[StrategyDecision] {
        &self.decisions
    }

    /// True if a sliceable pipeline was actually evaluated through the lazy
    /// PMR during this evaluator's lifetime — an observation of what ran,
    /// not a prediction.
    pub fn used_lazy_pipeline(&self) -> bool {
        self.lazy_pipeline_fired
    }

    /// Evaluates an expression, returning paths or a solution space according
    /// to the root operator.
    pub fn eval(&mut self, expr: &PlanExpr) -> Result<EvalOutput, AlgebraError> {
        self.stats.operators_evaluated += 1;
        let out = match expr {
            PlanExpr::Nodes => EvalOutput::Paths(PathSet::nodes(self.graph)),
            PlanExpr::Edges => EvalOutput::Paths(PathSet::edges(self.graph)),
            PlanExpr::Selection { condition, input } => {
                let input = self.eval_paths_internal(input, "selection")?;
                EvalOutput::Paths(selection(self.graph, condition, &input))
            }
            PlanExpr::Join { left, right } => {
                self.stats.join_calls += 1;
                let l = self.eval_paths_internal(left, "join")?;
                let r = self.eval_paths_internal(right, "join")?;
                EvalOutput::Paths(join(&l, &r))
            }
            PlanExpr::Union { left, right } => {
                let l = self.eval_paths_internal(left, "union")?;
                let r = self.eval_paths_internal(right, "union")?;
                EvalOutput::Paths(union(&l, &r))
            }
            PlanExpr::Recursive { semantics, input } => {
                self.check_cancel()?;
                self.stats.recursive_calls += 1;
                EvalOutput::Paths(self.eval_phi(expr, *semantics, input)?)
            }
            PlanExpr::GroupBy { key, input } => {
                let input = self.eval_paths_internal(input, "group-by")?;
                EvalOutput::Space(group_by(*key, &input))
            }
            PlanExpr::OrderBy { key, input } => {
                let input = self.eval_space_internal(input, "order-by")?;
                EvalOutput::Space(order_by(*key, &input))
            }
            PlanExpr::Projection { spec, input } => {
                spec.validate()?;
                if let Some(paths) = self.try_sliced_pipeline(expr)? {
                    EvalOutput::Paths(paths)
                } else {
                    let input = self.eval_space_internal(input, "projection")?;
                    EvalOutput::Paths(projection(spec, &input))
                }
            }
        };
        let n = out.path_count();
        self.stats.intermediate_paths += n;
        self.stats.max_intermediate = self.stats.max_intermediate.max(n);
        Ok(out)
    }

    /// Evaluates the ϕ node `expr` (`ϕ_semantics(input)`) with the strategy
    /// the cost model decides: a label scan or join chain is drained by the
    /// PMR, any other base is materialised first and closed by the
    /// semi-naïve fixpoint or the base-path frontier.
    fn eval_phi(
        &mut self,
        expr: &PlanExpr,
        semantics: PathSemantics,
        input: &PlanExpr,
    ) -> Result<PathSet, AlgebraError> {
        let kw = semantics.keyword();
        if let Some(labels) = input.label_scan_chain() {
            let (strategy, estimate) =
                choose_strategy(expr, None, &self.recursion, &self.exec, self.graph_stats)
                    .expect("every ϕ node gets a strategy");
            let Strategy::Drain(mode) = strategy else {
                unreachable!("a ϕ over a scan chain is drained by the PMR")
            };
            let operator = match labels.as_slice() {
                [label] => format!("ϕ{kw} over label scan :{label}"),
                _ => format!("ϕ{kw} over join chain {labels:?}"),
            };
            self.record_decision(operator, strategy.name(), estimate);
            let scan = self.lazy_scan(&labels, semantics, EndpointFilter::default());
            for csr in scan.hops.iter() {
                self.charge_skipped(self.graph.edge_count()); // Edges(G)
                self.charge_skipped(csr.edge_count()); // σ label
            }
            let run = self.run_lazy(&scan, None, mode, estimate.as_ref())?;
            // Charge the k−1 joins with the slice of the join output the
            // expansion actually generated.
            self.stats.join_calls += labels.len() - 1;
            for _ in 1..labels.len() {
                self.charge_skipped(run.base_segments);
            }
            return Ok(run.paths);
        }
        let base = self.eval_paths_internal(input, "recursive")?;
        let (strategy, estimate) = choose_strategy(
            expr,
            Some(base.len()),
            &self.recursion,
            &self.exec,
            self.graph_stats,
        )
        .expect("every ϕ node gets a strategy");
        self.record_decision(
            format!("ϕ{kw} over materialised base ({} paths)", base.len()),
            strategy.name(),
            estimate,
        );
        let out = match strategy {
            // The cost model only dispatches the fixpoint for tiny closures;
            // the ϕ entry check is its cancellation point.
            Strategy::Seminaive => phi_seminaive(semantics, &base, &self.recursion)?,
            Strategy::Frontier => phi_frontier_with_cancel(
                semantics,
                &base,
                &self.recursion,
                &self.exec,
                self.cancel.as_deref(),
            )?,
            Strategy::Sliced(..) | Strategy::Drain(_) => {
                unreachable!("a materialised base is closed by the fixpoint or the frontier")
            }
        };
        // Both materialised-base implementations emit exactly their output;
        // count it so closures that never touch the PMR still report work.
        self.work.paths_emitted += out.len() as u64;
        Ok(out)
    }

    /// Evaluates a recognised sliceable pipeline
    /// (`π(τA?(γψ(σ?(ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))))))`, see
    /// [`pathalg_core::slice`]) through the lazy PMR, pulling only the paths
    /// the projection keeps. Endpoint filters are pushed into the expansion:
    /// the first-node part restricts the source schedule, the last-node part
    /// becomes a target mask consulted before any path is reconstructed and
    /// inside the reachability-based source stop. Returns `None` when the
    /// cost model keeps the plan on the materialising path.
    ///
    /// The collected [`EvalStats`] charge the bypassed operators with the
    /// work the lazy evaluation actually performed (arena steps generated,
    /// kept paths flowing through γ/τ) — deliberately *not* the counts the
    /// reference evaluator would report, since avoiding that work is the
    /// point of the strategy.
    fn try_sliced_pipeline(&mut self, expr: &PlanExpr) -> Result<Option<PathSet>, AlgebraError> {
        let Some((strategy, estimate)) =
            choose_strategy(expr, None, &self.recursion, &self.exec, self.graph_stats)
        else {
            return Ok(None);
        };
        let Strategy::Sliced(plan, mode) = &strategy else {
            unreachable!("a projection is either sliced or materialised")
        };
        let chain = plan
            .base
            .label_scan_chain()
            .expect("lazy_eligible checked the base is a scan chain");
        let filter = match plan.filter {
            Some(condition) => {
                let (first, last) = condition
                    .endpoint_split()
                    .expect("lazy_eligible checked the filter splits");
                EndpointFilter {
                    sources: first.map(|c| self.node_mask(&c)),
                    targets: last.map(|c| self.node_mask(&c)),
                }
            }
            None => EndpointFilter::default(),
        };
        self.record_decision(
            format!(
                "sliced pipeline over ϕ{}{}{}",
                plan.semantics.keyword(),
                if chain.len() > 1 {
                    format!(" join chain {chain:?}")
                } else {
                    format!(" label scan :{}", chain[0])
                },
                if plan.filter.is_some() {
                    " with endpoint-σ pushdown"
                } else {
                    ""
                }
            ),
            strategy.name(),
            estimate,
        );
        let scan = self.lazy_scan(&chain, plan.semantics, filter);
        let LazyRun {
            paths: out,
            steps_generated: generated,
            ..
        } = self.run_lazy(&scan, Some(&plan.spec), *mode, estimate.as_ref())?;
        self.lazy_pipeline_fired = true;
        // Bypassed operators: Edges and σ per hop, the k−1 joins, ϕ, the
        // endpoint σ (when present), γ and (when present) τ; the π node
        // itself is charged by the caller.
        self.stats.recursive_calls += 1;
        self.stats.join_calls += chain.len() - 1;
        self.stats.operators_evaluated += 2 * chain.len()
            + (chain.len() - 1)
            + 2
            + usize::from(plan.filter.is_some())
            + usize::from(plan.spec.ordered_by_length);
        self.stats.intermediate_paths += generated
            + out.len()
                * (1 + usize::from(plan.spec.ordered_by_length)
                    + usize::from(plan.filter.is_some()));
        self.stats.max_intermediate = self.stats.max_intermediate.max(generated);
        Ok(Some(out))
    }

    /// The one PMR entry point: one label-restricted CSR snapshot per hop of
    /// `labels` (a label scan for one, a join chain for more), plus
    /// everything a batch worker needs to build its own restricted [`Pmr`]
    /// over the shared snapshots.
    fn lazy_scan(
        &self,
        labels: &[&str],
        semantics: PathSemantics,
        filter: EndpointFilter,
    ) -> LazyScan {
        let hops: Arc<[CsrGraph]> = labels
            .iter()
            .map(|l| CsrGraph::with_label(self.graph, l))
            .collect();
        LazyScan {
            hops,
            semantics,
            recursion: self.recursion,
            filter,
            cancel: self.cancel.clone(),
        }
    }

    /// Drains (`spec` = `None`) or slices a [`LazyScan`] — one enumeration in
    /// the serial mode, one batch-restricted enumeration per batch in the
    /// parallel mode, merged into the serial sequence — and folds its work
    /// counters into this evaluator's.
    fn run_lazy(
        &mut self,
        scan: &LazyScan,
        spec: Option<&SliceSpec>,
        mode: LazyMode,
        estimate: Option<&ClosureEstimate>,
    ) -> Result<LazyRun, AlgebraError> {
        let run = match mode {
            LazyMode::Serial => {
                let mut pmr = scan.pmr();
                let paths = match spec {
                    Some(spec) => pmr.sliced(spec)?,
                    None => pmr.enumerate_all()?,
                };
                self.work.merge(&pmr.work_counters());
                LazyRun {
                    paths,
                    steps_generated: pmr.steps_generated(),
                    base_segments: pmr.base_segments().unwrap_or(0),
                }
            }
            LazyMode::Parallel => {
                let factory = || scan.pmr();
                let sources = factory().sources();
                let weights = source_weights(&scan.hops[0], estimate, &sources);
                let config = self.parallel_config();
                let max_paths = self.recursion.max_paths;
                let run = match spec {
                    Some(spec) => pmr_parallel::sliced(
                        &factory,
                        spec,
                        &sources,
                        Some(&weights),
                        &config,
                        max_paths,
                    )?,
                    None => pmr_parallel::enumerate_all(
                        &factory,
                        &sources,
                        Some(&weights),
                        &config,
                        max_paths,
                    )?,
                };
                self.work.merge(&run.work);
                LazyRun {
                    paths: run.paths,
                    steps_generated: run.steps_generated,
                    base_segments: run.base_segments.unwrap_or(0),
                }
            }
        };
        Ok(run)
    }

    /// Evaluates a per-node condition (a pure first- or last-node predicate,
    /// see [`Condition::endpoint_split`]) over every node of the graph,
    /// yielding the keep-mask pushed into the PMR expansion.
    fn node_mask(&self, condition: &Condition) -> Vec<bool> {
        (0..self.graph.node_count() as u32)
            .map(|v| condition.eval(&Path::node(NodeId(v)), self.graph))
            .collect()
    }

    fn record_decision(
        &mut self,
        operator: String,
        chosen: &'static str,
        estimate: Option<ClosureEstimate>,
    ) {
        self.decisions.push(StrategyDecision {
            operator,
            chosen,
            threads: self.exec.threads,
            estimate,
        });
    }

    /// The PMR-side scheduling knobs of this evaluator's execution
    /// configuration.
    fn parallel_config(&self) -> ParallelConfig {
        ParallelConfig {
            threads: self.exec.threads,
            batch_size: self.exec.batch_size,
        }
    }

    /// Evaluates an expression into a [`PathSetRepr`]: a root-level
    /// recursive label scan or label-scan join chain (bounded, or under a
    /// finite semantics) returns the *lazy* PMR form, so callers can pull
    /// top-k results without the closure — or, for chains, either join side
    /// — ever being materialised; every other plan evaluates as usual and
    /// returns the materialised form.
    pub fn eval_repr(&mut self, expr: &PlanExpr) -> Result<PathSetRepr<'static>, AlgebraError> {
        if let PlanExpr::Recursive { semantics, input } = expr {
            if let Some(chain) = input.label_scan_chain() {
                if *semantics != PathSemantics::Walk || self.recursion.max_length.is_some() {
                    let scan = self.lazy_scan(&chain, *semantics, EndpointFilter::default());
                    return Ok(PathSetRepr::lazy(Box::new(scan.pmr())));
                }
            }
        }
        Ok(PathSetRepr::materialized(self.eval_paths(expr)?))
    }

    /// Evaluates an expression that must produce a set of paths.
    pub fn eval_paths(&mut self, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        self.eval(expr)?.into_paths()
    }

    /// Evaluates an expression that must produce a solution space.
    pub fn eval_space(&mut self, expr: &PlanExpr) -> Result<SolutionSpace, AlgebraError> {
        self.eval(expr)?.into_space()
    }

    /// Accounts for an operator the PMR evaluated implicitly, with the same
    /// counters the reference evaluator would have charged.
    fn charge_skipped(&mut self, paths: usize) {
        self.stats.operators_evaluated += 1;
        self.stats.intermediate_paths += paths;
        self.stats.max_intermediate = self.stats.max_intermediate.max(paths);
    }

    fn eval_paths_internal(
        &mut self,
        expr: &PlanExpr,
        operator: &'static str,
    ) -> Result<PathSet, AlgebraError> {
        match self.eval(expr)? {
            EvalOutput::Paths(p) => Ok(p),
            EvalOutput::Space(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a set of paths",
                found: "a solution space",
            }),
        }
    }

    fn eval_space_internal(
        &mut self,
        expr: &PlanExpr,
        operator: &'static str,
    ) -> Result<SolutionSpace, AlgebraError> {
        match self.eval(expr)? {
            EvalOutput::Space(s) => Ok(s),
            EvalOutput::Paths(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a solution space",
                found: "a set of paths",
            }),
        }
    }
}

/// The shared per-hop snapshots of one label scan or join chain, with the
/// semantics, bounds, pushed endpoint filter and cancellation token every
/// [`Pmr`] over them is built with — built once by
/// [`EngineEvaluator::lazy_scan`], then used for one serial enumeration or
/// as the per-batch factory of a parallel one.
struct LazyScan {
    hops: Arc<[CsrGraph]>,
    semantics: PathSemantics,
    recursion: RecursionConfig,
    filter: EndpointFilter,
    cancel: Option<Arc<CancelToken>>,
}

impl LazyScan {
    /// A fresh, unpulled PMR over the shared hops: the CSR form for one hop,
    /// the join form for more ([`Pmr::from_hops`]).
    fn pmr(&self) -> Pmr {
        let mut pmr = Pmr::from_hops(self.hops.clone(), self.semantics, self.recursion);
        pmr.restrict_endpoints(self.filter.clone());
        if let Some(token) = &self.cancel {
            pmr.share_cancel(token.clone());
        }
        pmr
    }
}

/// What a serial or parallel PMR run hands back to the evaluator.
struct LazyRun {
    paths: PathSet,
    steps_generated: usize,
    base_segments: usize,
}

/// Per-source batch-sizing weights of a parallel lazy run, seeded by the
/// closure estimate: a source's weight is its hop-0 out-degree scaled by the
/// estimated paths per base element (`estimate.paths / estimate.base`), so a
/// predicted-heavy source closes its batch early
/// ([`pathalg_pmr::parallel::plan_batches`]) and cannot serialise the run.
/// Without an estimate the weights degrade to plain out-degrees.
fn source_weights(
    csr0: &CsrGraph,
    estimate: Option<&ClosureEstimate>,
    sources: &[pathalg_graph::ids::NodeId],
) -> Vec<u64> {
    let per_base = estimate
        .map(|est| (est.paths / est.base.max(1.0)).clamp(1.0, 1e6))
        .unwrap_or(1.0);
    sources
        .iter()
        .map(|&s| 1 + (csr0.out_degree(s) as f64 * per_base) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::frontier::phi_frontier;
    use pathalg_core::condition::Condition;
    use pathalg_core::eval::Evaluator;
    use pathalg_core::ops::projection::ProjectionSpec;
    use pathalg_core::GroupKey;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    fn plans() -> Vec<PlanExpr> {
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let outer = PlanExpr::edges()
            .select(Condition::edge_label(1, "Likes"))
            .join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")));
        vec![
            knows.clone().recursive(PathSemantics::Trail),
            knows.clone().recursive(PathSemantics::Shortest),
            outer.clone().recursive(PathSemantics::Simple),
            knows
                .clone()
                .recursive(PathSemantics::Acyclic)
                .union(outer.recursive(PathSemantics::Acyclic)),
            knows
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::all()),
        ]
    }

    #[test]
    fn engine_evaluator_matches_the_reference_on_every_plan() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        for plan in plans() {
            let reference = Evaluator::new(&f.graph).eval_paths(&plan).unwrap();
            for threads in [1, 2, 8] {
                let mut engine = EngineEvaluator::new(
                    &f.graph,
                    cfg,
                    ExecutionConfig {
                        threads,
                        batch_size: 2,
                    },
                );
                let out = engine.eval_paths(&plan).unwrap();
                assert_eq!(out, reference, "plan {plan} at {threads} threads");
            }
        }
    }

    #[test]
    fn csr_fast_path_charges_the_same_stats_as_the_reference() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail);
        let mut reference = Evaluator::new(&f.graph);
        reference.eval_paths(&plan).unwrap();
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        engine.eval_paths(&plan).unwrap();
        assert_eq!(engine.stats(), reference.stats());
    }

    #[test]
    fn label_scan_shape_detection() {
        let scan = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        assert_eq!(scan.label_scan_target(), Some("Knows"));
        // Wrong position, extra operator, or non-label condition: no match.
        let wrong_pos = PlanExpr::edges().select(Condition::edge_label(2, "Knows"));
        assert_eq!(wrong_pos.label_scan_target(), None);
        let not_edges = PlanExpr::nodes().select(Condition::edge_label(1, "Knows"));
        assert_eq!(not_edges.label_scan_target(), None);
        let nested = scan.select(Condition::first_property("name", "Moe"));
        assert_eq!(nested.label_scan_target(), None);
    }

    #[test]
    fn sliced_pipelines_are_byte_identical_to_the_materialised_engine() {
        use pathalg_core::ops::order_by::OrderKey;
        use pathalg_core::ops::projection::Take;
        use pathalg_core::PathSemantics;

        let f = Figure1::new();
        let scan = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let cases: Vec<(PlanExpr, Option<OrderKey>, GroupKey, ProjectionSpec)> = vec![
            (
                scan().recursive(PathSemantics::Trail),
                Some(OrderKey::Path),
                GroupKey::SourceTarget,
                ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
            ),
            (
                scan().recursive(PathSemantics::Shortest),
                None,
                GroupKey::SourceTarget,
                ProjectionSpec::new(Take::All, Take::All, Take::Count(2)),
            ),
            (
                scan().recursive(PathSemantics::Simple),
                None,
                GroupKey::Source,
                ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(3)),
            ),
        ];
        for (phi, order, gkey, spec) in cases {
            // The materialised pipeline: base-path frontier over the
            // materialised scan + core γ/τ/π.
            let PlanExpr::Recursive { semantics, input } = &phi else {
                unreachable!()
            };
            let base = Evaluator::new(&f.graph).eval_paths(input).unwrap();
            let closure = phi_frontier(
                *semantics,
                &base,
                &RecursionConfig::default(),
                &ExecutionConfig::default(),
            )
            .unwrap();
            let grouped = group_by(gkey, &closure);
            let ranked = match order {
                Some(key) => order_by(key, &grouped),
                None => grouped,
            };
            let expected = projection(&spec, &ranked);

            let mut plan = phi.group_by(gkey);
            if let Some(key) = order {
                plan = plan.order_by(key);
            }
            let plan = plan.project(spec);
            assert!(
                matches!(
                    choose_strategy(
                        &plan,
                        None,
                        &RecursionConfig::default(),
                        &ExecutionConfig::default(),
                        None
                    ),
                    Some((Strategy::Sliced(..), _))
                ),
                "{plan} should go lazy"
            );
            for threads in [1, 2, 8] {
                let mut engine = EngineEvaluator::new(
                    &f.graph,
                    RecursionConfig::default(),
                    ExecutionConfig::with_threads(threads),
                );
                let out = engine.eval_paths(&plan).unwrap();
                assert_eq!(
                    out.as_slice(),
                    expected.as_slice(),
                    "{plan} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn eval_repr_returns_a_lazy_form_for_label_scans() {
        use pathalg_core::PathSemantics;
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail);
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        let materialised = engine.eval_paths(&plan).unwrap();
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        let repr = engine.eval_repr(&plan).unwrap();
        assert!(repr.is_lazy());
        let prefix: Vec<_> = materialised.iter().take(3).cloned().collect();
        assert_eq!(repr.top_k(3).unwrap().as_slice(), prefix.as_slice());
        // Non-scan plans come back materialised.
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        let repr = engine.eval_repr(&PlanExpr::nodes()).unwrap();
        assert!(!repr.is_lazy());
        // Unbounded Walk keeps the materialising (error-detecting) path.
        let walk = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Walk);
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::unbounded(),
            ExecutionConfig::default(),
        );
        assert!(engine.eval_repr(&walk).is_err());
    }

    #[test]
    fn bigger_graphs_agree_between_interpreters_in_parallel() {
        let g = snb_like_graph(&SnbConfig::scale(40, 21));
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Shortest);
        let reference = Evaluator::new(&g).eval_paths(&plan).unwrap();
        let mut engine = EngineEvaluator::new(
            &g,
            RecursionConfig::default(),
            ExecutionConfig::with_threads(4),
        );
        assert_eq!(engine.eval_paths(&plan).unwrap(), reference);
    }
}
