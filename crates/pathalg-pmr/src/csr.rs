//! Lazy, level-ordered expansion of `ϕ(σℓ(Edges(G)))` over a CSR snapshot.
//!
//! The engine's only kernel for a ϕ over one label scan: the per-source,
//! level-by-level expansion of the engine's base-path frontier
//! (`physical::frontier::phi_frontier` over the materialised `σℓ(Edges)`),
//! with the same admission predicates and the same Shortest pruning, but
//! *pull-driven* — levels are computed only when a consumer asks for more
//! paths — and storing each discovered path as one arena step instead of a
//! materialised `Path`. The emission order is byte-identical to that
//! frontier's insertion order (sources ascending, levels in order, adjacency
//! order within a level), which is the canonical-order contract of
//! [`pathalg_core::pathset_repr::LazyPathStream`].
//!
//! Expansion is level-synchronous, so path lengths are not stored per step:
//! the current level's length lives in one field and is threaded alongside
//! each queued step id (see [`crate::arena`]). All per-level and per-source
//! scratch (`cur`/`next` candidate buffers, the Shortest saturation buffers)
//! is owned by the expansion and reused across levels and sources — the
//! steady-state drain performs no heap allocation once the buffers and the
//! arena have reached their high-water marks.

use crate::arena::StepArena;
use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::ops::recursive::{
    PathSemantics, RecursionConfig, UNBOUNDED_WALK_ITERATION_LIMIT,
};
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::frontier::Frontier;
use pathalg_graph::ids::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reachability summary of one source, used by the sliced evaluation to
/// decide when a source's contribution to every kept group is complete.
pub(crate) struct ReachInfo {
    /// Targets with at least one admitted non-empty path from the source
    /// (excluding the source itself), within the configured length bound.
    pub open: Vec<NodeId>,
    /// Length of the shortest closed walk through the source within the
    /// bound, if one exists (a shortest closed walk is a simple cycle, so a
    /// closed path exists under every semantics except Acyclic).
    pub min_closed: Option<usize>,
}

/// The lazy CSR expander (see the module docs).
pub(crate) struct CsrExpansion {
    /// The single hop of the label scan (a one-element hop list, so the
    /// engine's shared hop snapshots serve both expansion forms).
    hops: Arc<[CsrGraph]>,
    semantics: PathSemantics,
    config: RecursionConfig,
    walk_unbounded: bool,
    sources: Vec<NodeId>,
    next_source: usize,
    pub(crate) arena: StepArena,
    /// Per-step acyclicity flags, tracked only under unbounded Walk (where a
    /// non-acyclic candidate proves the fixpoint is infinite).
    acyclic: Vec<bool>,
    /// Steps of the current level; all chains in it have `cur_len` edges.
    cur: Vec<u32>,
    /// Recycled buffer for the next level (swapped with `cur` per level).
    next_buf: Vec<u32>,
    cur_len: u32,
    cur_source: NodeId,
    iterations: usize,
    src_emitted: usize,
    /// Emitted-but-unpulled steps with their path lengths.
    pending: VecDeque<(u32, u32)>,
    /// The `max_paths` accounting — owned by default, shared across batch
    /// workers under parallel enumeration ([`crate::parallel`]). Level-0
    /// steps are recorded (counted, never limit-checked), recursion
    /// candidates are claimed, mirroring the frontier engine.
    budget: Arc<PathBudget>,
    /// Cooperative cancellation, checked once per expansion level (never per
    /// edge, so successful runs stay byte-identical and near-free).
    cancel: Option<Arc<CancelToken>>,
    /// Shortest scratch: per-source visited set + distance table (the table
    /// is only allocated under Shortest semantics) and the recycled
    /// saturation buffers.
    seen: Frontier,
    dist: Vec<usize>,
    sp_all: Vec<(u32, u32)>,
    sp_cur: Vec<u32>,
    sp_next: Vec<u32>,
    /// Reachability scratch for the sliced evaluation; the distance table is
    /// sized on first use.
    reach_seen: Frontier,
    reach_dist: Vec<usize>,
    /// Flat reverse-adjacency index (offsets + predecessors), built on first
    /// use for the closed-walk minimum.
    preds: Option<(Vec<u32>, Vec<NodeId>)>,
    /// Times a hoisted scratch buffer was reused instead of allocated.
    scratch_reuse: u64,
}

impl CsrExpansion {
    pub fn new(hops: Arc<[CsrGraph]>, semantics: PathSemantics, config: RecursionConfig) -> Self {
        assert_eq!(hops.len(), 1, "a label-scan expansion has exactly one hop");
        let csr = &hops[0];
        let n = csr.node_count();
        let sources: Vec<NodeId> = (0..n)
            .map(|i| NodeId(i as u32))
            .filter(|&v| csr.out_degree(v) > 0)
            .collect();
        Self {
            hops,
            semantics,
            config,
            walk_unbounded: semantics == PathSemantics::Walk && config.max_length.is_none(),
            sources,
            next_source: 0,
            arena: StepArena::default(),
            acyclic: Vec::new(),
            cur: Vec::new(),
            next_buf: Vec::new(),
            cur_len: 0,
            cur_source: NodeId(0),
            iterations: 0,
            src_emitted: 0,
            pending: VecDeque::new(),
            budget: Arc::new(PathBudget::new(config.max_paths)),
            cancel: None,
            seen: Frontier::new(n),
            // Only Shortest reads distances; other semantics skip the O(n)
            // zero-fill entirely (the Frontier itself is lazily allocated).
            dist: if semantics == PathSemantics::Shortest {
                vec![0; n]
            } else {
                Vec::new()
            },
            sp_all: Vec::new(),
            sp_cur: Vec::new(),
            sp_next: Vec::new(),
            reach_seen: Frontier::new(n),
            reach_dist: Vec::new(),
            preds: None,
            scratch_reuse: 0,
        }
    }

    /// The next emitted arena step, with its source and path length, in
    /// canonical order.
    pub fn next_id(&mut self) -> Result<Option<(u32, NodeId, u32)>, AlgebraError> {
        if !self.ensure_pending()? {
            return Ok(None);
        }
        let (id, len) = self.pending.pop_front().expect("ensure_pending");
        Ok(Some((id, self.cur_source, len)))
    }

    /// Drops everything still queued or expandable for the current source;
    /// the next pull starts the next source.
    pub fn skip_source(&mut self) {
        self.pending.clear();
        self.cur.clear();
    }

    /// Number of arena steps allocated so far (the generated-work measure).
    pub fn steps_generated(&self) -> usize {
        self.arena.len()
    }

    /// Bytes currently backing the step arena (see `arena_bytes_peak`).
    pub fn arena_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Scratch reuse events: hoisted buffers plus pooled/retained visited
    /// sets (see `scratch_reuse_count`).
    pub fn scratch_reuse(&self) -> u64 {
        self.scratch_reuse + self.seen.reuse_count() + self.reach_seen.reuse_count()
    }

    /// Paths recorded against the (possibly shared) budget so far.
    pub(crate) fn budget_count(&self) -> usize {
        self.budget.count()
    }

    /// The path semantics this expansion enumerates under.
    pub fn semantics(&self) -> PathSemantics {
        self.semantics
    }

    /// Restricts expansion to sources marked in `keep` (σ-first pushdown).
    /// Must be applied before the first pull.
    pub fn restrict_sources(&mut self, keep: &[bool]) {
        self.sources.retain(|v| keep.get(v.index()) == Some(&true));
    }

    /// The remaining source schedule (the full schedule before any pull).
    pub fn sources(&self) -> &[NodeId] {
        &self.sources[self.next_source..]
    }

    /// Replaces the source schedule (already filtered, ascending). Must be
    /// applied before the first pull.
    pub fn set_sources(&mut self, sources: Vec<NodeId>) {
        self.sources = sources;
        self.next_source = 0;
    }

    /// Replaces the owned `max_paths` budget with a shared one, so several
    /// batch-restricted expansions enforce one global limit. Must be applied
    /// before the first pull.
    pub fn share_budget(&mut self, budget: Arc<PathBudget>) {
        self.budget = budget;
    }

    /// Installs a shared cancellation token, checked at every expansion
    /// level. May be applied at any time; the next level boundary observes it.
    pub fn share_cancel(&mut self, cancel: Arc<CancelToken>) {
        self.cancel = Some(cancel);
    }

    fn check_cancel(&self) -> Result<(), AlgebraError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    fn within(&self, len: usize) -> bool {
        self.config.max_length.is_none_or(|l| len <= l)
    }

    fn ensure_pending(&mut self) -> Result<bool, AlgebraError> {
        loop {
            if !self.pending.is_empty() {
                return Ok(true);
            }
            if !self.cur.is_empty() {
                self.advance_level()?;
                continue;
            }
            let Some(&s) = self.sources.get(self.next_source) else {
                return Ok(false);
            };
            self.next_source += 1;
            self.cur_source = s;
            self.iterations = 0;
            self.src_emitted = 0;
            if self.semantics == PathSemantics::Shortest {
                self.expand_source_shortest(s)?;
            } else {
                self.start_level0(s);
            }
        }
    }

    /// Level 0 of one source: one length-1 path per outgoing CSR edge,
    /// exactly as the frontier engine admits them.
    fn start_level0(&mut self, s: NodeId) {
        if !self.within(1) {
            return;
        }
        self.cur_len = 1;
        let (targets, edges) = self.hops[0].neighbor_slices(s);
        for (&t, &e) in targets.iter().zip(edges) {
            if self.semantics == PathSemantics::Acyclic && t == s {
                continue;
            }
            self.budget.record(1);
            let id = self.arena.push(None, e, t);
            if self.walk_unbounded {
                self.acyclic.push(t != s);
            }
            self.cur.push(id);
            self.pending.push_back((id, 1));
            self.src_emitted += 1;
        }
    }

    /// One level of expansion for the current source (non-Shortest
    /// semantics), with the frontier engine's admission predicates. The
    /// `cur`/`next` buffers are recycled across levels and sources.
    fn advance_level(&mut self) -> Result<(), AlgebraError> {
        self.check_cancel()?;
        self.iterations += 1;
        if self.walk_unbounded && self.iterations > UNBOUNDED_WALK_ITERATION_LIMIT {
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                paths_so_far: self.src_emitted,
            });
        }
        let cur = std::mem::take(&mut self.cur);
        let mut next = std::mem::take(&mut self.next_buf);
        if next.capacity() > 0 {
            self.scratch_reuse += 1;
        }
        next.clear();
        let new_len = self.cur_len as usize + 1;
        if self.within(new_len) {
            for &pid in &cur {
                let head_target = self.arena.target(pid);
                let p_acyclic = !self.walk_unbounded || self.acyclic[pid as usize];
                let (targets, edges) = self.hops[0].neighbor_slices(head_target);
                for (&t, &e) in targets.iter().zip(edges) {
                    let admissible = match self.semantics {
                        PathSemantics::Walk => true,
                        PathSemantics::Trail => !self.arena.chain_contains_edge(pid, e),
                        PathSemantics::Acyclic => {
                            t != self.cur_source && !self.arena.chain_targets_contain(pid, t)
                        }
                        PathSemantics::Simple | PathSemantics::Shortest => {
                            head_target != self.cur_source
                                && (t == self.cur_source
                                    || !self.arena.chain_targets_contain(pid, t))
                        }
                    };
                    if !admissible {
                        continue;
                    }
                    if self.walk_unbounded
                        && (!p_acyclic
                            || t == self.cur_source
                            || self.arena.chain_targets_contain(pid, t))
                    {
                        return Err(AlgebraError::RecursionLimitExceeded {
                            bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                            paths_so_far: self.src_emitted + next.len(),
                        });
                    }
                    self.budget.claim(1)?;
                    let id = self.arena.push(Some(pid), e, t);
                    if self.walk_unbounded {
                        self.acyclic.push(true);
                    }
                    next.push(id);
                }
            }
        }
        self.src_emitted += next.len();
        self.pending
            .extend(next.iter().map(|&id| (id, new_len as u32)));
        self.cur = next;
        self.next_buf = cur;
        self.cur_len = new_len as u32;
        Ok(())
    }

    /// Shortest semantics saturates per source, so the whole source is
    /// expanded eagerly (as the frontier engine does) and the minimal paths
    /// are queued in level order after the per-target distance filter. The
    /// saturation buffers (`sp_*`) are recycled across sources.
    fn expand_source_shortest(&mut self, s: NodeId) -> Result<(), AlgebraError> {
        self.seen.reset();
        let mut all = std::mem::take(&mut self.sp_all);
        let mut cur = std::mem::take(&mut self.sp_cur);
        let mut next = std::mem::take(&mut self.sp_next);
        if all.capacity() + cur.capacity() + next.capacity() > 0 {
            self.scratch_reuse += 1;
        }
        all.clear();
        cur.clear();
        next.clear();
        let mut cur_len: u32 = 1;
        if self.within(1) {
            let (targets, edges) = self.hops[0].neighbor_slices(s);
            for (&t, &e) in targets.iter().zip(edges) {
                if self.seen.insert(t) {
                    self.dist[t.index()] = 1;
                }
                self.budget.record(1);
                cur.push(self.arena.push(None, e, t));
            }
        }
        while !cur.is_empty() {
            self.check_cancel()?;
            next.clear();
            let new_len = cur_len as usize + 1;
            if self.within(new_len) {
                for &pid in &cur {
                    let head_target = self.arena.target(pid);
                    let (targets, edges) = self.hops[0].neighbor_slices(head_target);
                    for (&t, &e) in targets.iter().zip(edges) {
                        let admissible = head_target != s
                            && (t == s || !self.arena.chain_targets_contain(pid, t));
                        if !admissible {
                            continue;
                        }
                        if self.seen.contains(t) && new_len > self.dist[t.index()] {
                            continue;
                        }
                        if self.seen.insert(t) {
                            self.dist[t.index()] = new_len;
                        }
                        self.budget.claim(1)?;
                        next.push(self.arena.push(Some(pid), e, t));
                    }
                }
            }
            all.extend(cur.iter().map(|&id| (id, cur_len)));
            std::mem::swap(&mut cur, &mut next);
            cur_len = new_len as u32;
        }
        for &(id, len) in &all {
            let target = self.arena.target(id);
            if self.seen.contains(target) && self.dist[target.index()] == len as usize {
                self.pending.push_back((id, len));
                self.src_emitted += 1;
            }
        }
        self.sp_all = all;
        self.sp_cur = cur;
        self.sp_next = next;
        Ok(())
    }

    /// The reachability summary of `source` within the length bound: a BFS
    /// over the CSR nodes (polynomial, independent of how many *paths*
    /// exist). Sound and complete for group discovery under every semantics:
    /// the shortest walk to any reachable target is a simple path, so it is
    /// admitted by Walk, Trail, Acyclic (open targets), Simple and Shortest
    /// alike, and no admitted path can reach a node the walk BFS cannot.
    pub fn reachability(&mut self, source: NodeId) -> ReachInfo {
        let bound = self.config.max_length.unwrap_or(usize::MAX);
        if self.reach_dist.len() < self.hops[0].node_count() {
            self.reach_dist.resize(self.hops[0].node_count(), 0);
        }
        self.reach_seen.reset();
        self.reach_seen.insert(source);
        self.reach_dist[source.index()] = 0;
        let mut frontier = self.reach_seen.len() - 1;
        while frontier < self.reach_seen.len() {
            // The members list doubles as the BFS queue: it grows in
            // insertion order, which *is* BFS order.
            let u = self.reach_seen.members()[frontier];
            frontier += 1;
            let d = self.reach_dist[u.index()];
            if d >= bound {
                continue;
            }
            let (targets, _) = self.hops[0].neighbor_slices(u);
            for &t in targets {
                if self.reach_seen.insert(t) {
                    self.reach_dist[t.index()] = d + 1;
                }
            }
        }
        let open: Vec<NodeId> = self
            .reach_seen
            .members()
            .iter()
            .copied()
            .filter(|&t| t != source)
            .collect();
        if self.preds.is_none() {
            // Flat reverse-adjacency index: one counting pass, one prefix
            // sum, one fill — no per-node Vec allocations.
            let n = self.hops[0].node_count();
            let mut offsets = vec![0u32; n + 1];
            for i in 0..n {
                let (targets, _) = self.hops[0].neighbor_slices(NodeId(i as u32));
                for &t in targets {
                    offsets[t.index() + 1] += 1;
                }
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut flat = vec![NodeId(0); offsets[n] as usize];
            let mut cursor = offsets.clone();
            for i in 0..n {
                let u = NodeId(i as u32);
                let (targets, _) = self.hops[0].neighbor_slices(u);
                for &t in targets {
                    flat[cursor[t.index()] as usize] = u;
                    cursor[t.index()] += 1;
                }
            }
            self.preds = Some((offsets, flat));
        }
        let (offsets, flat) = self.preds.as_ref().expect("built above");
        let lo = offsets[source.index()] as usize;
        let hi = offsets[source.index() + 1] as usize;
        let min_closed = flat[lo..hi]
            .iter()
            .filter(|&&u| self.reach_seen.contains(u))
            .map(|&u| self.reach_dist[u.index()] + 1)
            .min()
            .filter(|&l| l <= bound);
        ReachInfo { open, min_closed }
    }
}
