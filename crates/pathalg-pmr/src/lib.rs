//! # pathalg-pmr — compact path-multiset representations with lazy top-k
//! enumeration
//!
//! Every materialised evaluation of the recursive operator ϕ pays for the
//! *full* path multiset even when the query keeps almost none of it: on
//! cyclic graphs under `WALK`/`TRAIL` the multiset is exponential in the
//! length bound while a `π(*,*,k)`-sliced answer is tiny. Following the
//! PathFinder line of work, this crate represents the multiset *implicitly*
//! as an annotated product graph — graph node × position in the base
//! segment — and enumerates paths from it **on demand, in the engine's
//! canonical order**. It is the engine's one kernel for every ϕ whose base
//! is a label scan or a join chain of label scans:
//!
//! * [`Pmr::from_hops`] — the one constructor, over shared per-hop
//!   label-restricted CSR snapshots: the edge-by-edge CSR form for one hop
//!   (`ϕ(σℓ(Edges(G)))`), the segment-by-segment join form for more
//!   (`ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))`). [`Pmr::from_label_scan`],
//!   [`Pmr::from_label_chain`] and [`Pmr::from_csr`] are conveniences over
//!   it. Either form emits lazily per source, level by level,
//!   byte-order-identical to the engine's materialised base-path frontier
//!   over the same base.
//! * [`Pmr::next_batch`] / [`Pmr::top_k`] / [`Pmr::enumerate_all`] — pull as
//!   much as you need; `top_k(k)` obeys the law
//!   `top_k(k) == enumerate().take(k)` while expanding only what those `k`
//!   paths require.
//! * [`Pmr::group_counts`] — γψ group cardinalities over
//!   `(First(p), Last(p), Len(p))` straight from the arena, without
//!   reconstructing a single path.
//! * [`Pmr::sliced`] — evaluates a recognised `π(τA?(γψ(ϕ(…))))` pipeline
//!   ([`pathalg_core::slice`]) with per-group limits pushed into the
//!   enumeration and a node-level reachability analysis that stops each
//!   source as soon as its contribution to every kept group is complete —
//!   or skips it on entry when it can reach no admitted group at all.
//! * [`parallel`] — the same enumerations on several worker threads, merged
//!   in batch order into the serial sequence.
//!
//! Paths are stored as parent-pointer arena steps — `O(1)` words per path
//! instead of `O(len)` — and a discovered-but-skipped path is never
//! materialised at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod csr;
mod join;
pub mod parallel;

use crate::csr::{CsrExpansion, ReachInfo};
use crate::join::JoinExpansion;
use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::{group_counts_from_triples, GroupCounts, GroupKey};
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::pathset_repr::LazyPathStream;
use pathalg_core::slice::{PartitionKey, SliceCollector, SliceSpec, SliceState};
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use std::sync::Arc;

/// A compact, lazily enumerable path-multiset representation (see the crate
/// docs). It owns (shares) its CSR snapshots, so it borrows nothing.
pub struct Pmr {
    inner: Inner,
    /// Per-node target mask of the endpoint-σ pushdown: when set, paths whose
    /// last node is unmarked are skipped at emission (never reconstructed)
    /// while the expansion still runs *through* them.
    target_mask: Option<Vec<bool>>,
    /// Deterministic per-enumeration event tallies ([`Pmr::work_counters`]).
    counts: LocalCounts,
}

/// The event tallies a `Pmr` tracks itself; everything else in
/// [`WorkCounters`] (arena steps, base segments, budget claims) is read off
/// the expansion state when [`Pmr::work_counters`] assembles the totals.
#[derive(Clone, Copy, Debug, Default)]
struct LocalCounts {
    emitted: u64,
    skipped: u64,
    abandoned: u64,
    partitions: u64,
    kept: u64,
}

enum Inner {
    Csr(Box<CsrExpansion>),
    Join(Box<JoinExpansion>),
}

/// Dispatches one method call to whichever expansion form `inner` holds.
macro_rules! expansion {
    ($inner:expr, $e:ident => $body:expr) => {
        match $inner {
            Inner::Csr($e) => $body,
            Inner::Join($e) => $body,
        }
    };
}

/// Endpoint restrictions pushed down from `σ_first`/`σ_last` predicates
/// ([`pathalg_core::slice::SlicePlan::filter`]): per-node keep masks for the
/// first and last node of every enumerated path. A `None` side is
/// unrestricted.
#[derive(Clone, Debug, Default)]
pub struct EndpointFilter {
    /// Nodes admissible as `First(p)` — unmarked sources are never expanded.
    pub sources: Option<Vec<bool>>,
    /// Nodes admissible as `Last(p)` — paths ending elsewhere are skipped
    /// without reconstruction.
    pub targets: Option<Vec<bool>>,
}

/// One emitted element, before path reconstruction: an arena step with its
/// path length (lengths are threaded, not stored per step — see [`arena`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Emit {
    pub(crate) source: NodeId,
    pub(crate) last: NodeId,
    step: u32,
    len: u32,
}

impl Pmr {
    /// PMR of `ϕ_semantics` over the concatenation of shared per-hop CSR
    /// snapshots (every base path walks one edge of each hop in order; all
    /// snapshots share one node universe, and there is at least one hop).
    /// One hop takes the CSR form, which expands edge by edge; more take the
    /// join form, which expands a `k`-edge segment at a time — neither join
    /// side, the join result, nor the closure is ever materialised. Parallel
    /// batch workers ([`parallel`]) each build one restricted expansion over
    /// the same `Arc`ed hop list instead of copying the snapshots per batch.
    pub fn from_hops(
        hops: Arc<[CsrGraph]>,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Pmr {
        let inner = if hops.len() == 1 {
            Inner::Csr(Box::new(CsrExpansion::new(hops, semantics, config)))
        } else {
            Inner::Join(Box::new(JoinExpansion::new(hops, semantics, config)))
        };
        Pmr {
            inner,
            target_mask: None,
            counts: LocalCounts::default(),
        }
    }

    /// PMR of `ϕ_semantics(σ_{label=ℓ}(Edges(G)))`: frontier expansion over a
    /// label-restricted CSR snapshot of `graph`, base never materialised.
    pub fn from_label_scan(
        graph: &PropertyGraph,
        label: &str,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Pmr {
        Self::from_csr(CsrGraph::with_label(graph, label), semantics, config)
    }

    /// PMR of `ϕ_semantics` over the edge set of an arbitrary CSR snapshot
    /// (every edge as a length-1 base path).
    pub fn from_csr(csr: CsrGraph, semantics: PathSemantics, config: RecursionConfig) -> Pmr {
        Self::from_hops(Arc::from(vec![csr]), semantics, config)
    }

    /// PMR of `ϕ_semantics(σℓ1(E) ⋈ … ⋈ σℓk(E))` — the lazy endpoint-keyed
    /// join of the per-label scans (see the `join` module), or the plain
    /// label scan when `labels` has one entry. The emission order is
    /// byte-identical to materialising the join and running the engine's
    /// base-path frontier.
    pub fn from_label_chain(
        graph: &PropertyGraph,
        labels: &[&str],
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Pmr {
        Self::from_hops(
            labels
                .iter()
                .map(|l| CsrGraph::with_label(graph, l))
                .collect(),
            semantics,
            config,
        )
    }

    /// Pushes an endpoint-σ down into the enumeration: unmarked sources are
    /// dropped from the expansion schedule entirely, and paths ending at an
    /// unmarked target are skipped at emission without reconstruction. Must
    /// be applied before the first pull; the resulting stream is exactly the
    /// unfiltered stream with the σ applied — same paths, same order.
    pub fn restrict_endpoints(&mut self, filter: EndpointFilter) {
        if let Some(keep) = &filter.sources {
            expansion!(&mut self.inner, e => e.restrict_sources(keep));
        }
        self.target_mask = filter.targets;
    }

    /// The source schedule still ahead of the enumeration (the full
    /// schedule before any pull, after any [`Pmr::restrict_endpoints`]
    /// source restriction) — what a parallel run partitions into batches.
    pub fn sources(&self) -> Vec<NodeId> {
        expansion!(&self.inner, e => e.sources().to_vec())
    }

    /// Replaces the source schedule with an explicit (already filtered,
    /// canonically ordered) list — how [`parallel`] restricts one batch
    /// worker to its slice of the schedule. Must precede the first pull.
    pub(crate) fn set_sources(&mut self, sources: Vec<NodeId>) {
        expansion!(&mut self.inner, e => e.set_sources(sources))
    }

    /// Shares one `max_paths` budget across several batch-restricted
    /// expansions of the same logical enumeration. Must precede the first
    /// pull.
    pub(crate) fn share_budget(&mut self, budget: Arc<PathBudget>) {
        expansion!(&mut self.inner, e => e.share_budget(budget))
    }

    /// Installs a shared cancellation token on the underlying expansion:
    /// every subsequent pull polls the token at its level boundary and
    /// aborts with [`AlgebraError::Cancelled`] /
    /// [`AlgebraError::DeadlineExceeded`] once it fires. Under parallel
    /// enumeration the same token is installed in every batch worker's
    /// expansion (via the factory closure), so one token stops all workers
    /// within one batch.
    pub fn share_cancel(&mut self, cancel: Arc<CancelToken>) {
        expansion!(&mut self.inner, e => e.share_cancel(cancel))
    }

    fn target_admits(&self, last: NodeId) -> bool {
        self.target_mask
            .as_ref()
            .is_none_or(|mask| mask.get(last.index()) == Some(&true))
    }

    /// The next element the expansion produces, *before* the target mask:
    /// sliced consumers see every source the expansion enters, even one
    /// whose paths all end outside the mask, and filter with [`Pmr::admit`].
    pub(crate) fn next_raw(&mut self) -> Result<Option<Emit>, AlgebraError> {
        Ok(
            expansion!(&mut self.inner, e => e.next_id()?.map(|(step, source, len)| Emit {
                source,
                last: e.arena.target(step),
                step,
                len,
            })),
        )
    }

    /// Applies the pushed target mask to a raw element, tallying it as
    /// emitted or skipped.
    pub(crate) fn admit(&mut self, emit: &Emit) -> bool {
        let admitted = self.target_admits(emit.last);
        if admitted {
            self.counts.emitted += 1;
        } else {
            self.counts.skipped += 1;
        }
        admitted
    }

    pub(crate) fn next_emit(&mut self) -> Result<Option<Emit>, AlgebraError> {
        while let Some(emit) = self.next_raw()? {
            if self.admit(&emit) {
                return Ok(Some(emit));
            }
        }
        Ok(None)
    }

    pub(crate) fn realize(&self, emit: &Emit) -> Path {
        expansion!(&self.inner, e => e.arena.path_of(emit.step, emit.source, emit.len as usize))
    }

    /// Counts an emitted path a sliced consumer discarded (would-not-keep),
    /// so batch workers ([`parallel::sliced`]) tally skips exactly as the
    /// serial [`Pmr::sliced`] loop does.
    pub(crate) fn note_slice_skip(&mut self) {
        self.counts.skipped += 1;
    }

    pub(crate) fn skip_source(&mut self) {
        self.counts.abandoned += 1;
        expansion!(&mut self.inner, e => e.skip_source())
    }

    /// Number of arena steps allocated so far — the work actually performed.
    /// A sliced or top-k consumer leaves this far below the multiset size.
    pub fn steps_generated(&self) -> usize {
        expansion!(&self.inner, e => e.steps_generated())
    }

    /// Number of level-0 join segments generated so far — the slice of the
    /// join output the expansion actually touched. `None` for the one-hop
    /// form, whose base relation is the CSR edge set itself.
    pub fn base_segments(&self) -> Option<usize> {
        match &self.inner {
            Inner::Join(e) => Some(e.base_segments()),
            Inner::Csr(_) => None,
        }
    }

    /// Bytes currently backing the step arena. The arena only grows, so this
    /// is also its peak footprint (`arena_bytes_peak`).
    pub fn arena_bytes(&self) -> usize {
        expansion!(&self.inner, e => e.arena_bytes())
    }

    /// Scratch reuse events so far: hoisted level/saturation buffers and
    /// pooled or retained visited-set blocks (`scratch_reuse_count`).
    pub fn scratch_reuse(&self) -> u64 {
        expansion!(&self.inner, e => e.scratch_reuse())
    }

    /// Reserves arena capacity for `steps` further steps up front, so a
    /// drain whose step count is known (or bounded) performs no mid-flight
    /// arena reallocation — see the zero-steady-state-allocation contract in
    /// the crate docs.
    pub fn reserve_steps(&mut self, steps: usize) {
        expansion!(&mut self.inner, e => e.arena.reserve(steps))
    }

    /// The deterministic work totals of everything pulled from this PMR so
    /// far: arena steps and base segments off the expansion state, emission
    /// and skip tallies from the pull loop, per-source abandonments, budget
    /// claims, and — after a [`Pmr::sliced`] run — the admitting collector's
    /// partition and kept-path counts. A path filtered before realisation
    /// (target-mask miss, or a sliced path the collector provably would not
    /// keep) counts as skipped; a sliced would-not-keep path was also
    /// emitted by the expansion first, so `emitted` is the expansion-side
    /// tally and `kept` the collector-side one. On serial-parity schedules
    /// the whole record is byte-identical at every thread count (see
    /// [`parallel`]).
    pub fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            arena_steps: self.steps_generated() as u64,
            base_segments: self.base_segments().unwrap_or(0) as u64,
            paths_emitted: self.counts.emitted,
            paths_skipped: self.counts.skipped,
            sources_abandoned: self.counts.abandoned,
            budget_claimed: self.budget_count() as u64,
            partitions_opened: self.counts.partitions,
            paths_kept: self.counts.kept,
            arena_bytes_peak: self.arena_bytes() as u64,
            scratch_reuse_count: self.scratch_reuse(),
            ..WorkCounters::default()
        }
    }

    /// Paths recorded against the expansion's [`PathBudget`] so far. For a
    /// batch-restricted PMR sharing one budget this is the *global* tally,
    /// so the parallel merge reads it once instead of summing per batch.
    pub(crate) fn budget_count(&self) -> usize {
        expansion!(&self.inner, e => e.budget_count())
    }

    /// The next path in canonical order, or `None` when exhausted.
    pub fn next_path(&mut self) -> Result<Option<Path>, AlgebraError> {
        Ok(self.next_emit()?.map(|e| self.realize(&e)))
    }

    /// Up to `max` further paths in canonical order.
    pub fn next_batch(&mut self, max: usize) -> Result<Vec<Path>, AlgebraError> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.next_path()? {
                Some(p) => out.push(p),
                None => break,
            }
        }
        Ok(out)
    }

    /// The first `k` paths of the enumeration — `enumerate().take(k)`,
    /// computed without expanding past what those `k` paths require.
    pub fn top_k(&mut self, k: usize) -> Result<PathSet, AlgebraError> {
        Ok(self.next_batch(k)?.into_iter().collect())
    }

    /// Every remaining path in canonical order, collected into a `Vec`. The
    /// enumeration never repeats a path, so a [`PathSet`] built from it can
    /// be sized exactly up front.
    pub(crate) fn drain(&mut self) -> Result<Vec<Path>, AlgebraError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_path()? {
            out.push(p);
        }
        Ok(out)
    }

    /// Drains the whole enumeration into a materialised [`PathSet`] —
    /// identical, in content and order, to the engine's materialised
    /// frontier evaluation of the same operator. The paths are collected
    /// first and the set is built at its final size, so its index never
    /// rehashes while it grows.
    pub fn enumerate_all(&mut self) -> Result<PathSet, AlgebraError> {
        Ok(PathSet::from(self.drain()?))
    }

    /// Drains the rest of the enumeration, counting paths without
    /// reconstructing a single one — the cardinality of
    /// [`Pmr::enumerate_all`] at arena cost. With the scratch buffers warm
    /// and the arena pre-reserved ([`Pmr::reserve_steps`]) the drain performs
    /// no heap allocation (pinned by the allocation-counter test).
    pub fn count_all(&mut self) -> Result<usize, AlgebraError> {
        let mut n = 0usize;
        while self.next_emit()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Counts up to `max` further paths without reconstructing any — the
    /// bounded form of [`Pmr::count_all`] for enumerations too large to
    /// drain (the million-scale benches and the allocation-counter test
    /// pull a fixed number of emits and stop).
    pub fn count_batch(&mut self, max: usize) -> Result<usize, AlgebraError> {
        let mut n = 0usize;
        while n < max && self.next_emit()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// γψ group cardinalities over the whole multiset, computed from the
    /// arena's `(First, Last, Len)` triples — no path is ever reconstructed.
    pub fn group_counts(&mut self, key: GroupKey) -> Result<GroupCounts, AlgebraError> {
        let mut triples: Vec<(NodeId, NodeId, usize)> = Vec::new();
        while let Some(e) = self.next_emit()? {
            triples.push((e.source, e.last, e.len as usize));
        }
        Ok(group_counts_from_triples(key, triples))
    }

    /// Evaluates `π(τA?(γψ(ϕ(…))))` over this multiset with the limits of
    /// `spec` pushed into the enumeration. Byte-identical to materialising
    /// [`Pmr::enumerate_all`] and running the γ/τ/π operators, but:
    ///
    /// * paths beyond a group's cap are skipped without reconstruction,
    /// * under γST with a per-group cap, the groups a source can ever
    ///   contribute to are computed when the expansion enters the source (a
    ///   node-level reachability BFS): a source that reaches no admitted
    ///   group is skipped on entry, and any other is abandoned as soon as
    ///   every such group holds its `per_group` quota, and
    /// * once the partition limit is reached, sources that can only open new
    ///   partitions are never expanded at all — and a source caught
    ///   mid-expansion by the closing limit switches to per-partition
    ///   accounting (only its already-opened groups must fill, matching the
    ///   §10 parallel batch worker's sharp stop).
    pub fn sliced(&mut self, spec: &SliceSpec) -> Result<PathSet, AlgebraError> {
        let mut collector = SliceCollector::new(spec);
        let source_partitioned = spec.group_key.partitions_by_source();
        let mut cur_source: Option<NodeId> = None;
        let mut requirements: Option<Vec<PartitionKey>> = None;
        // Partitions the current source has opened — the only ones that must
        // fill before the sharp (partition-limit-closed) stop may skip the
        // source.
        let mut src_keys: Vec<PartitionKey> = Vec::new();

        while let Some(emit) = self.next_raw()? {
            if cur_source != Some(emit.source) {
                cur_source = Some(emit.source);
                // Every path of a fresh source opens a fresh partition under
                // source-partitioned keys; once the partition limit is
                // reached nothing from this or any later source can be kept.
                if source_partitioned && !collector.accepts_new_partition() {
                    break;
                }
                requirements = self.requirements_for(emit.source, spec);
                src_keys.clear();
                if requirements.as_ref().is_some_and(Vec::is_empty) {
                    // No admitted group is reachable: nothing this source
                    // could ever expand into is kept.
                    self.skip_source();
                    continue;
                }
            }
            if !self.admit(&emit) {
                continue;
            }
            let key: PartitionKey = (
                spec.group_key.partitions_by_source().then_some(emit.source),
                spec.group_key.partitions_by_target().then_some(emit.last),
            );
            if collector.would_keep(&key) {
                let path = self.realize(&emit);
                let partitions_before = collector.partition_count();
                let state = collector.offer(path);
                if collector.partition_count() > partitions_before {
                    src_keys.push(key);
                }
                if state == SliceState::Complete {
                    break;
                }
            } else {
                // Provably not kept: skipped without reconstruction.
                self.counts.skipped += 1;
            }
            if spec.per_group.is_some() {
                let source_done = match spec.group_key {
                    GroupKey::Source => collector.group_is_full(&(Some(emit.source), None)),
                    GroupKey::SourceTarget => {
                        if !collector.accepts_new_partition() {
                            // Per-partition accounting (mirroring the §10
                            // parallel batch worker): the partition limit is
                            // closed, so no further group of this source can
                            // be admitted — only the already-opened ones need
                            // to fill, not every reachable one.
                            src_keys.iter().all(|k| collector.group_is_full(k))
                        } else {
                            requirements
                                .as_ref()
                                .is_some_and(|r| r.iter().all(|k| collector.group_is_full(k)))
                        }
                    }
                    _ => false,
                };
                if source_done {
                    self.skip_source();
                }
            }
        }
        self.counts.partitions = collector.partition_count() as u64;
        let out = collector.finish();
        self.counts.kept = out.len() as u64;
        Ok(out)
    }

    /// The full set of groups `source` can ever contribute to, for the
    /// reachability-based source stop: `None` unless the spec is γST with a
    /// per-group cap, and `None` under Shortest (whose expansion saturates
    /// each source eagerly, before its first emission, so a stop would save
    /// nothing). Groups outside the pushed target mask are excluded — they
    /// can never receive a path, so waiting for them would block the stop
    /// forever — and a source whose set comes out empty is skipped outright.
    pub(crate) fn requirements_for(
        &mut self,
        source: NodeId,
        spec: &SliceSpec,
    ) -> Option<Vec<PartitionKey>> {
        if spec.group_key != GroupKey::SourceTarget || spec.per_group.is_none() {
            return None;
        }
        let semantics = expansion!(&self.inner, e => e.semantics());
        if semantics == PathSemantics::Shortest {
            return None;
        }
        let ReachInfo { open, min_closed } =
            expansion!(&mut self.inner, e => e.reachability(source));
        let mut keys: Vec<PartitionKey> = open
            .into_iter()
            .filter(|&t| self.target_admits(t))
            .map(|t| (Some(source), Some(t)))
            .collect();
        if semantics != PathSemantics::Acyclic && min_closed.is_some() && self.target_admits(source)
        {
            keys.push((Some(source), Some(source)));
        }
        Some(keys)
    }
}

impl LazyPathStream for Pmr {
    fn next_batch(&mut self, max: usize) -> Result<Vec<Path>, AlgebraError> {
        Pmr::next_batch(self, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::group_by::group_by;
    use pathalg_core::ops::recursive::recursive;
    use pathalg_core::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::structured::{chain_graph, complete_graph, cycle_graph};

    fn knows_closure(f: &Figure1, semantics: PathSemantics) -> PathSet {
        let base = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        recursive(semantics, &base, &RecursionConfig::default()).unwrap()
    }

    #[test]
    fn csr_enumeration_matches_the_fixpoint_as_a_set() {
        let f = Figure1::new();
        for semantics in [
            PathSemantics::Trail,
            PathSemantics::Acyclic,
            PathSemantics::Simple,
            PathSemantics::Shortest,
        ] {
            let expected = knows_closure(&f, semantics);
            let mut pmr =
                Pmr::from_label_scan(&f.graph, "Knows", semantics, RecursionConfig::default());
            let out = pmr.enumerate_all().unwrap();
            assert_eq!(out, expected, "{semantics:?}");
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_enumeration() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        let mut full = Pmr::from_label_scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
        let all = full.enumerate_all().unwrap();
        for k in [0, 1, 3, 7, 100] {
            let mut pmr = Pmr::from_label_scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
            let top = pmr.top_k(k).unwrap();
            let expected: Vec<_> = all.iter().take(k).cloned().collect();
            assert_eq!(top.as_slice(), expected.as_slice(), "k = {k}");
        }
    }

    #[test]
    fn top_k_expands_less_than_the_full_multiset() {
        // Bounded walks on a complete graph: the closure is exponential in
        // the bound, the first path needs one level of one source.
        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        let mut full = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        let total = full.enumerate_all().unwrap().len();
        let mut lazy = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        lazy.top_k(5).unwrap();
        assert!(
            lazy.steps_generated() * 10 < total,
            "top-5 expanded {} steps against a {}-path multiset",
            lazy.steps_generated(),
            total
        );
    }

    #[test]
    fn group_counts_match_group_by_without_reconstruction() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        let materialised = {
            let mut pmr = Pmr::from_label_scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
            pmr.enumerate_all().unwrap()
        };
        for key in [
            GroupKey::Empty,
            GroupKey::Source,
            GroupKey::SourceTarget,
            GroupKey::Length,
            GroupKey::SourceTargetLength,
        ] {
            let ss = group_by(key, &materialised);
            let mut pmr = Pmr::from_label_scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
            let counts = pmr.group_counts(key).unwrap();
            assert_eq!(counts.group_count(), ss.group_count(), "γ{key}");
            assert_eq!(counts.path_count(), ss.path_count(), "γ{key}");
            for (i, (gkey, n)) in counts.entries.iter().enumerate() {
                assert_eq!(*gkey, ss.groups()[i].key, "γ{key} group {i}");
                assert_eq!(*n, ss.groups()[i].paths.len(), "γ{key} group {i}");
            }
        }
    }

    #[test]
    fn sliced_equals_the_materialised_pipeline_and_stops_early() {
        use pathalg_core::ops::order_by::{order_by, OrderKey};
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        let mut full = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        let materialised = full.enumerate_all().unwrap();
        let expected = projection(
            &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
            &order_by(
                OrderKey::Path,
                &group_by(GroupKey::SourceTarget, &materialised),
            ),
        );

        let spec = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(1),
            max_partitions: None,
            ordered_by_length: true,
        };
        let mut lazy = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        let out = lazy.sliced(&spec).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(
            lazy.steps_generated() * 10 < full.steps_generated(),
            "sliced evaluation expanded {} of {} steps",
            lazy.steps_generated(),
            full.steps_generated()
        );
    }

    #[test]
    fn sliced_handles_closed_groups_on_cycles() {
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        // Every (s, s) pair of a directed cycle has exactly one simple closed
        // path; the reachability stop must wait for it.
        let g = cycle_graph(5, "a");
        let cfg = RecursionConfig::default();
        for semantics in [PathSemantics::Trail, PathSemantics::Simple] {
            let mut full = Pmr::from_csr(CsrGraph::with_label(&g, "a"), semantics, cfg);
            let materialised = full.enumerate_all().unwrap();
            let expected = projection(
                &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                &group_by(GroupKey::SourceTarget, &materialised),
            );
            let spec = SliceSpec {
                group_key: GroupKey::SourceTarget,
                per_group: Some(1),
                max_partitions: None,
                ordered_by_length: false,
            };
            let mut lazy = Pmr::from_csr(CsrGraph::with_label(&g, "a"), semantics, cfg);
            let out = lazy.sliced(&spec).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "{semantics:?}");
            // 5×5 ordered pairs, all connected on a cycle.
            assert_eq!(out.len(), 25, "{semantics:?}");
        }
    }

    #[test]
    fn partition_limit_stops_whole_sources() {
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        };
        let mut full = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        let materialised = full.enumerate_all().unwrap();
        let expected = projection(
            &ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(2)),
            &group_by(GroupKey::Source, &materialised),
        );
        let spec = SliceSpec {
            group_key: GroupKey::Source,
            per_group: Some(2),
            max_partitions: Some(2),
            ordered_by_length: false,
        };
        let mut lazy = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        let out = lazy.sliced(&spec).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(lazy.steps_generated() * 20 < full.steps_generated());
    }

    /// `K_n` over label `a` plus one isolated node (index `n`) that no path
    /// reaches.
    pub(crate) fn complete_with_isolated(n: usize) -> PropertyGraph {
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..=n)
            .map(|_| b.add_node("N", Vec::<(&str, Value)>::new()))
            .collect();
        for &u in &nodes[..n] {
            for &v in &nodes[..n] {
                if u != v {
                    b.add_edge(u, v, "a", Vec::<(&str, Value)>::new());
                }
            }
        }
        b.build()
    }

    #[test]
    fn sources_reaching_no_admitted_target_are_skipped_on_entry() {
        // Every K_7 source has ~2000 acyclic paths, far above the quota; the
        // only admitted target is unreachable, so each source must be
        // skipped when the expansion enters it instead of expanding until
        // the quota trips.
        let g = complete_with_isolated(7);
        let cfg = RecursionConfig {
            max_length: None,
            max_paths: Some(500),
        };
        let spec = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(2),
            max_partitions: None,
            ordered_by_length: false,
        };
        let mut targets = vec![false; 8];
        targets[7] = true;
        for semantics in [
            PathSemantics::Trail,
            PathSemantics::Acyclic,
            PathSemantics::Simple,
        ] {
            assert_eq!(
                Pmr::from_label_scan(&g, "a", semantics, cfg).enumerate_all(),
                Err(AlgebraError::ResultLimitExceeded { limit: 500 }),
                "{semantics:?}: the unmasked closure exceeds the quota"
            );
            let mut pmr = Pmr::from_label_scan(&g, "a", semantics, cfg);
            pmr.restrict_endpoints(EndpointFilter {
                sources: None,
                targets: Some(targets.clone()),
            });
            assert!(pmr.sliced(&spec).unwrap().is_empty(), "{semantics:?}");
            let work = pmr.work_counters();
            assert_eq!(work.sources_abandoned, 7, "{semantics:?}");
            assert_eq!(work.paths_emitted, 0, "{semantics:?}");
            // Only level 0 of each source was ever generated.
            assert_eq!(pmr.steps_generated(), 7 * 6, "{semantics:?}");
        }
    }

    #[test]
    fn walk_errors_mirror_the_materialised_evaluation() {
        let g = cycle_graph(3, "a");
        let cfg = RecursionConfig::unbounded();
        let mut pmr = Pmr::from_csr(CsrGraph::with_label(&g, "a"), PathSemantics::Walk, cfg);
        assert!(matches!(
            pmr.enumerate_all(),
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
        // On a DAG the unbounded walk closure is finite and enumerable.
        let dag = chain_graph(6, "a");
        let mut pmr = Pmr::from_csr(CsrGraph::with_label(&dag, "a"), PathSemantics::Walk, cfg);
        assert_eq!(pmr.enumerate_all().unwrap().len(), 15);
    }

    #[test]
    fn max_paths_is_enforced_on_full_drains() {
        let f = Figure1::new();
        let cfg = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(4),
        };
        let mut pmr = Pmr::from_label_scan(&f.graph, "Knows", PathSemantics::Walk, cfg);
        assert_eq!(
            pmr.enumerate_all(),
            Err(AlgebraError::ResultLimitExceeded { limit: 4 })
        );
    }

    #[test]
    fn empty_label_yields_an_empty_enumeration() {
        let f = Figure1::new();
        let mut pmr = Pmr::from_label_scan(
            &f.graph,
            "NoSuchLabel",
            PathSemantics::Trail,
            RecursionConfig::default(),
        );
        assert!(pmr.enumerate_all().unwrap().is_empty());
        assert_eq!(pmr.steps_generated(), 0);
    }
}
