//! The independent oracle: answers computed from the generated graph's edge
//! list with plain breadth-first searches and counting, never through
//! pathalg's evaluators, plus the property checks every response must pass.

use crate::workload::{selector_k, Class, Pattern, Query, Restrictor};
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use pathalg_graph::value::Value;
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Label {
    Knows,
    Likes,
    HasCreator,
    Other,
}

/// Distances and shortest-path counts from one source over one relation,
/// for paths of length at least one (so the source's own entry is the
/// shortest cycle back to it).
pub struct Reach {
    /// `dist[v]`: hops of the shortest non-empty path, `u32::MAX` if none.
    pub dist: Vec<u32>,
    /// `count[v]`: number of shortest non-empty paths (edge-distinct).
    pub count: Vec<u64>,
}

impl Reach {
    pub fn reachable(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dist.len()).filter(|&v| self.dist[v] != u32::MAX)
    }
}

/// The generated graph's edges in plain adjacency lists.
pub struct Oracle {
    persons: usize,
    edge_src: Vec<u32>,
    edge_dst: Vec<u32>,
    edge_label: Vec<Label>,
    /// `Knows` out-edges `(target, edge)` per node.
    knows: Vec<Vec<(u32, u32)>>,
    /// Creators of the messages each person likes (with repeats): one hop
    /// of the `(:Likes/:Has_creator)` chain per entry.
    chain: Vec<Vec<u32>>,
}

impl Oracle {
    /// Reads the edge list. Node `v` must carry `id = v`: the benchmark's
    /// queries anchor on that property.
    pub fn new(graph: &PropertyGraph, persons: usize) -> Result<Self, String> {
        let n = graph.node_count();
        for v in 0..n {
            match graph.property(NodeId(v as u32), "id") {
                Some(Value::Int(id)) if *id == v as i64 => {}
                other => return Err(format!("node n{v} has id {other:?}, expected {v}")),
            }
        }
        let m = graph.edge_count();
        let mut edge_src = vec![0; m];
        let mut edge_dst = vec![0; m];
        let mut edge_label = vec![Label::Other; m];
        for e in graph.edges() {
            let (s, t) = graph.endpoints(e);
            let i = e.0 as usize;
            edge_src[i] = s.0;
            edge_dst[i] = t.0;
            edge_label[i] = match graph.label(e) {
                Some("Knows") => Label::Knows,
                Some("Likes") => Label::Likes,
                Some("Has_creator") => Label::HasCreator,
                _ => Label::Other,
            };
        }
        let mut knows = vec![Vec::new(); n];
        let mut created_by = vec![Vec::new(); n];
        for i in 0..m {
            match edge_label[i] {
                Label::Knows => knows[edge_src[i] as usize].push((edge_dst[i], i as u32)),
                Label::HasCreator => created_by[edge_src[i] as usize].push(edge_dst[i]),
                _ => {}
            }
        }
        let mut chain = vec![Vec::new(); n];
        for i in 0..m {
            if edge_label[i] == Label::Likes {
                let creators = &created_by[edge_dst[i] as usize];
                chain[edge_src[i] as usize].extend_from_slice(creators);
            }
        }
        Ok(Self {
            persons,
            edge_src,
            edge_dst,
            edge_label,
            knows,
            chain,
        })
    }

    pub fn persons(&self) -> usize {
        self.persons
    }

    /// Number of `Knows` edges into `node`.
    pub fn knows_in_degree(&self, node: u32) -> usize {
        self.knows
            .iter()
            .flatten()
            .filter(|&&(v, _)| v == node)
            .count()
    }

    /// Shortest non-empty paths of `pattern`'s relation from `source`
    /// (`:Knows` hops or `:Likes/:Has_creator` hops).
    pub fn reach(&self, pattern: Pattern, source: u32) -> Reach {
        match pattern {
            Pattern::KnowsPlus | Pattern::Knows2 => self.knows_reach(source),
            Pattern::ChainPlus | Pattern::LikesCreator => self.chain_reach(source),
        }
    }

    /// Shortest non-empty `:Knows+` paths from `source`.
    pub fn knows_reach(&self, source: u32) -> Reach {
        bfs(self.knows.len(), source, |u, visit| {
            for &(v, _) in &self.knows[u as usize] {
                visit(v);
            }
        })
    }

    /// Shortest non-empty `(:Likes/:Has_creator)+` paths from `source`, in
    /// chain hops (two edges each).
    pub fn chain_reach(&self, source: u32) -> Reach {
        bfs(self.chain.len(), source, |u, visit| {
            for &v in &self.chain[u as usize] {
                visit(v);
            }
        })
    }

    /// `:Likes/:Has_creator` paths from `source` that do not return to it
    /// (the ACYCLIC two-hop answer size).
    pub fn likes_creator_count(&self, source: u32) -> u64 {
        self.chain[source as usize]
            .iter()
            .filter(|&&c| c != source)
            .count() as u64
    }

    /// `:Knows/:Knows` walks with two distinct edges, over the whole graph.
    pub fn knows2_count(&self) -> u64 {
        let mut n = 0u64;
        for out in &self.knows {
            for &(mid, e1) in out {
                n += self.knows[mid as usize]
                    .iter()
                    .filter(|&&(_, e2)| e2 != e1)
                    .count() as u64;
            }
        }
        n
    }

    /// Checks one answer against the oracle and the path properties of its
    /// query. `Err` names the first violation.
    pub fn check(&self, query: &Query, lines: &[String]) -> Result<(), String> {
        let paths = lines
            .iter()
            .map(|l| parse_path(l))
            .collect::<Result<Vec<_>, _>>()?;
        let mut seen = HashSet::with_capacity(lines.len());
        for (line, path) in lines.iter().zip(&paths) {
            if !seen.insert(line.as_str()) {
                return Err(format!("duplicate path {line}"));
            }
            self.check_walk(query.pattern, path)
                .map_err(|e| format!("{line}: {e}"))?;
            check_restrictor(query.restrictor, path).map_err(|e| format!("{line}: {e}"))?;
            if let Some(s) = query.source {
                if path.nodes[0] != s {
                    return Err(format!("{line}: starts at n{}, not n{s}", path.nodes[0]));
                }
            }
            if let Some(t) = query.target {
                if *path.nodes.last().expect("paths are non-empty") != t {
                    return Err(format!("{line}: does not end at n{t}"));
                }
            }
        }
        let hop = query.pattern.hop_len();
        let count = paths.len() as u64;
        let expect_count = |want: u64| {
            if count == want {
                Ok(())
            } else {
                Err(format!("{count} paths, oracle expects {want}"))
            }
        };
        match query.class {
            Class::Sssp | Class::ChainSssp => {
                let source = query.source.expect("anchored class");
                let reach = self.reach(query.pattern, source);
                let mut targets = HashSet::new();
                for p in &paths {
                    let last = *p.nodes.last().expect("non-empty");
                    if !targets.insert(last) {
                        return Err(format!("two paths to n{last}"));
                    }
                    check_shortest(p, &reach, hop)?;
                }
                expect_count(reach.reachable().count() as u64)
            }
            Class::P2p => {
                let (s, t) = (
                    query.source.expect("anchored"),
                    query.target.expect("anchored"),
                );
                let reach = self.reach(query.pattern, s);
                let shortest = reach.count[t as usize];
                let k = selector_k(query.selector) as u64;
                if query.restrictor == Restrictor::Shortest {
                    for p in &paths {
                        check_shortest(p, &reach, hop)?;
                    }
                    expect_count(k.min(shortest))
                } else {
                    // Every shortest path is acyclic, so at least
                    // min(k, shortest) exist; the first is a shortest one.
                    let min_len = paths.iter().map(|p| p.edges.len()).min().unwrap_or(0);
                    if min_len != reach.dist[t as usize] as usize * hop {
                        return Err(format!(
                            "shortest answer has {min_len} edges, oracle distance is {}",
                            reach.dist[t as usize]
                        ));
                    }
                    if count < k.min(shortest) || count > k {
                        return Err(format!(
                            "{count} paths for ANY {k} with {shortest} shortest"
                        ));
                    }
                    Ok(())
                }
            }
            Class::P2pUnreachable => {
                let (s, t) = (
                    query.source.expect("anchored"),
                    query.target.expect("anchored"),
                );
                if self.reach(query.pattern, s).dist[t as usize] != u32::MAX {
                    return Err(format!("n{t} is reachable from n{s}"));
                }
                expect_count(0)
            }
            Class::FofLikes => {
                expect_count(self.likes_creator_count(query.source.expect("anchored")))
            }
            Class::AllShortest | Class::ChainAll => {
                let mut by_source: Vec<Vec<&ParsedPath>> = vec![Vec::new(); self.persons];
                for p in &paths {
                    let (s, t) = (p.nodes[0], *p.nodes.last().expect("non-empty"));
                    if s as usize >= self.persons || t as usize >= self.persons {
                        return Err(format!("endpoint of a non-Person: n{s} or n{t}"));
                    }
                    by_source[s as usize].push(p);
                }
                let mut want = 0u64;
                for (s, from_s) in by_source.iter().enumerate() {
                    let reach = self.reach(query.pattern, s as u32);
                    let mut per_target: HashMap<u32, u64> = HashMap::new();
                    for p in from_s {
                        check_shortest(p, &reach, hop)?;
                        *per_target
                            .entry(*p.nodes.last().expect("non-empty"))
                            .or_default() += 1;
                    }
                    for t in reach.reachable() {
                        let expected = if query.class == Class::AllShortest {
                            reach.count[t]
                        } else {
                            1
                        };
                        want += expected;
                        let got = per_target.get(&(t as u32)).copied().unwrap_or(0);
                        if got != expected {
                            return Err(format!(
                                "{got} paths n{s}->n{t}, oracle expects {expected}"
                            ));
                        }
                    }
                }
                expect_count(want)
            }
            Class::Knows2Trail => expect_count(self.knows2_count()),
            Class::LikesCreator => expect_count(
                (0..self.persons as u32)
                    .map(|s| self.likes_creator_count(s))
                    .sum(),
            ),
        }
    }

    /// Every edge exists, connects consecutive nodes, and carries the label
    /// its position in the pattern asks for.
    fn check_walk(&self, pattern: Pattern, path: &ParsedPath) -> Result<(), String> {
        if path.edges.is_empty() {
            return Err("empty path".into());
        }
        match pattern {
            Pattern::KnowsPlus => {}
            Pattern::ChainPlus if path.edges.len().is_multiple_of(2) => {}
            Pattern::Knows2 | Pattern::LikesCreator if path.edges.len() == 2 => {}
            _ => return Err(format!("{} edges do not fit the pattern", path.edges.len())),
        }
        for (i, &e) in path.edges.iter().enumerate() {
            let e = e as usize;
            if e >= self.edge_src.len() {
                return Err(format!("no edge e{e}"));
            }
            if self.edge_src[e] != path.nodes[i] || self.edge_dst[e] != path.nodes[i + 1] {
                return Err(format!(
                    "e{e} does not connect n{} to n{}",
                    path.nodes[i],
                    path.nodes[i + 1]
                ));
            }
            let want = match pattern {
                Pattern::KnowsPlus | Pattern::Knows2 => Label::Knows,
                Pattern::ChainPlus | Pattern::LikesCreator if i % 2 == 0 => Label::Likes,
                Pattern::ChainPlus | Pattern::LikesCreator => Label::HasCreator,
            };
            if self.edge_label[e] != want {
                return Err(format!("e{e} has the wrong label"));
            }
        }
        Ok(())
    }
}

fn check_shortest(path: &ParsedPath, reach: &Reach, hop: usize) -> Result<(), String> {
    let t = *path.nodes.last().expect("non-empty") as usize;
    let d = reach.dist[t];
    if d == u32::MAX {
        return Err(format!("n{t} is unreachable, yet a path reached it"));
    }
    if path.edges.len() != d as usize * hop {
        return Err(format!(
            "path to n{t} has {} edges, oracle distance {d}",
            path.edges.len()
        ));
    }
    Ok(())
}

fn check_restrictor(restrictor: Restrictor, path: &ParsedPath) -> Result<(), String> {
    let distinct = |xs: &[u32]| xs.iter().collect::<HashSet<_>>().len() == xs.len();
    let ok = match restrictor {
        Restrictor::Shortest => true,
        Restrictor::Trail => distinct(&path.edges),
        Restrictor::Acyclic => distinct(&path.nodes),
        Restrictor::Simple => {
            let n = &path.nodes;
            let inner = if n.len() > 1 && n[0] == n[n.len() - 1] {
                &n[..n.len() - 1]
            } else {
                &n[..]
            };
            distinct(inner)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("violates the {restrictor:?} restrictor"))
    }
}

/// BFS over non-empty paths: the source starts unvisited, so its entry is
/// the shortest cycle back to it. Counts add up over parallel edges.
fn bfs(n: usize, source: u32, mut neighbours: impl FnMut(u32, &mut dyn FnMut(u32))) -> Reach {
    let mut dist = vec![u32::MAX; n];
    let mut count = vec![0u64; n];
    let mut frontier = vec![(source, 1u64)];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &(u, paths) in &frontier {
            neighbours(u, &mut |v| {
                let v = v as usize;
                if dist[v] == u32::MAX {
                    dist[v] = level;
                    next.push(v);
                }
                if dist[v] == level {
                    count[v] += paths;
                }
            });
        }
        frontier = next.into_iter().map(|v| (v as u32, count[v])).collect();
    }
    Reach { dist, count }
}

/// One `display_ids` line, `(n1, e4, n2)`, split into its ids.
pub struct ParsedPath {
    pub nodes: Vec<u32>,
    pub edges: Vec<u32>,
}

fn parse_path(line: &str) -> Result<ParsedPath, String> {
    let body = line
        .strip_prefix('(')
        .and_then(|l| l.strip_suffix(')'))
        .ok_or_else(|| format!("malformed path line {line}"))?;
    let mut path = ParsedPath {
        nodes: Vec::new(),
        edges: Vec::new(),
    };
    for (i, item) in body.split(", ").enumerate() {
        let (prefix, list) = if i % 2 == 0 {
            ('n', &mut path.nodes)
        } else {
            ('e', &mut path.edges)
        };
        let id = item
            .strip_prefix(prefix)
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("malformed id {item} in {line}"))?;
        list.push(id);
    }
    if path.nodes.len() != path.edges.len() + 1 {
        return Err(format!("malformed path line {line}"));
    }
    Ok(path)
}
