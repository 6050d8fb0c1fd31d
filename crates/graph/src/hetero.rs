//! Heterogeneous-graph utilities: node types and metapath instances.
//!
//! A *metapath* is a sequence of node types (platforms); an *instance* is a
//! walk in the graph whose node types follow the schema (MAGNN; paper §3.3.1).
//! ITGNN aggregates, per target node, the features of all instances of each
//! metapath starting at that node.

use crate::graph::InteractionGraph;
use glint_rules::Platform;
use serde::{Deserialize, Serialize};

/// A metapath: a schema of platform types, length ≥ 1.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Metapath(pub Vec<Platform>);

impl Metapath {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn starts_at(&self, p: Platform) -> bool {
        self.0.first() == Some(&p)
    }
}

/// Default metapath schemas over the platforms a graph holds (ascending):
/// every type pair `A→B` and triple `A→B→A`, capturing cross-platform
/// coupling patterns.
pub fn default_metapaths(platforms: &[Platform]) -> Vec<Metapath> {
    let mut out = Vec::new();
    for &a in platforms {
        // self-path (plain neighbourhood within a platform)
        out.push(Metapath(vec![a, a]));
        for &b in platforms {
            if a != b {
                out.push(Metapath(vec![a, b]));
                out.push(Metapath(vec![a, b, a]));
            }
        }
    }
    out
}

/// Each node's type and undirected neighbour list, built once per graph:
/// the index metapath enumeration walks. Node `u`'s list is what
/// [`InteractionGraph::neighbors`] returns for it: ascending, deduplicated,
/// and holding `u` itself when `u` carries a self loop.
#[derive(Debug)]
pub struct NeighborTable {
    types: Vec<Platform>,
    /// Node `u`'s neighbours are `nodes[spans[u]..spans[u + 1]]`.
    spans: Vec<usize>,
    nodes: Vec<usize>,
}

impl NeighborTable {
    /// The table of a graph whose node `u` has type `types[u]`, over its
    /// directed `edges`.
    pub fn new(types: Vec<Platform>, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut pairs: Vec<(usize, usize)> = edges
            .into_iter()
            .flat_map(|(u, v)| [(u, v), (v, u)])
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let spans = (0..=types.len())
            .map(|u| pairs.partition_point(|&(a, _)| a < u))
            .collect();
        Self {
            types,
            spans,
            nodes: pairs.into_iter().map(|(_, v)| v).collect(),
        }
    }

    /// The table of `g`.
    fn of_graph(g: &InteractionGraph) -> Self {
        Self::new(
            g.nodes().iter().map(|n| n.platform).collect(),
            g.edges().iter().map(|&(u, v, _)| (u, v)),
        )
    }

    /// Node `u`'s neighbours; empty for a node outside the table.
    fn neighbors(&self, u: usize) -> &[usize] {
        match (self.spans.get(u), self.spans.get(u + 1)) {
            (Some(&lo), Some(&hi)) => self.nodes.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every instance of `path`, grouped by start node. `f(start, walks)`
    /// runs for each node of the path's first type that starts at least one
    /// instance, in ascending order; `walks` holds its instances
    /// back to back, `path.len()` node ids each, in [`metapath_instances`]
    /// order. Nodes of another type start no instance, so they are skipped
    /// without a walk.
    pub fn for_each_start(&self, path: &Metapath, mut f: impl FnMut(usize, &[usize])) {
        let Some((&first, rest)) = path.0.split_first() else {
            return;
        };
        let mut walk = Vec::with_capacity(path.len());
        let mut walks = Vec::new();
        let starts = self.types.iter().enumerate().filter(|&(_, &t)| t == first);
        for (start, _) in starts {
            walk.clear();
            walk.push(start);
            walks.clear();
            self.extend(rest, &mut walk, &mut walks);
            if !walks.is_empty() {
                f(start, &walks);
            }
        }
    }

    /// Extend `walk` by one node of each type in `rest`, depth first,
    /// appending every complete walk to `out`. Neighbours are tried in
    /// ascending order, so the walks come out in the order a level-by-level
    /// expansion lists them.
    fn extend(&self, rest: &[Platform], walk: &mut Vec<usize>, out: &mut Vec<usize>) {
        let Some((&wanted, rest)) = rest.split_first() else {
            out.extend_from_slice(walk);
            return;
        };
        let (last, prev) = match walk.as_slice() {
            [.., prev, last] => (*last, Some(*prev)),
            [last] => (*last, None),
            [] => return,
        };
        for &nb in self.neighbors(last) {
            // no immediate backtracking (avoids degenerate A-B-A echoes
            // along the same edge)
            if self.types.get(nb) == Some(&wanted) && Some(nb) != prev {
                walk.push(nb);
                self.extend(rest, walk, out);
                walk.pop();
            }
        }
    }
}

/// Enumerate the metapath instances *starting at* `start`. Each instance is
/// a node-id walk of length `path.len()`; neighbours are undirected (an
/// interaction couples both ways for pattern purposes). Walks may not
/// immediately backtrack.
pub fn metapath_instances(g: &InteractionGraph, start: usize, path: &Metapath) -> Vec<Vec<usize>> {
    let Some((&first, rest)) = path.0.split_first() else {
        return Vec::new();
    };
    let mut walks = Vec::new();
    if g.node(start).platform == first {
        NeighborTable::of_graph(g).extend(rest, &mut vec![start], &mut walks);
    }
    walks.chunks(path.len()).map(<[usize]>::to_vec).collect()
}

/// Group node indices by platform type, ascending; `types[i]` is node `i`'s
/// platform.
pub fn nodes_by_type(types: &[Platform]) -> Vec<(Platform, Vec<usize>)> {
    let mut out: Vec<(Platform, Vec<usize>)> = Vec::new();
    for (i, &p) in types.iter().enumerate() {
        match out.iter_mut().find(|(q, _)| *q == p) {
            Some((_, v)) => v.push(i),
            None => out.push((p, vec![i])),
        }
    }
    out.sort_by_key(|(p, _)| p.type_index());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, Node};
    use glint_rules::RuleId;

    fn node(id: u32, platform: Platform) -> Node {
        Node {
            rule_id: RuleId(id),
            platform,
            features: vec![0.0; 2],
        }
    }

    /// I0 — S1 — I2 — A3 (path), platforms Ifttt/SmartThings/Ifttt/Alexa
    fn hetero_path() -> InteractionGraph {
        let mut g = InteractionGraph::new(vec![
            node(0, Platform::Ifttt),
            node(1, Platform::SmartThings),
            node(2, Platform::Ifttt),
            node(3, Platform::Alexa),
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g.add_edge(2, 3, EdgeKind::ActionTrigger);
        g
    }

    #[test]
    fn two_hop_instances() {
        let g = hetero_path();
        let mp = Metapath(vec![Platform::Ifttt, Platform::SmartThings]);
        let inst = metapath_instances(&g, 0, &mp);
        assert_eq!(inst, vec![vec![0, 1]]);
        // node 2 also has a SmartThings neighbour
        let inst2 = metapath_instances(&g, 2, &mp);
        assert_eq!(inst2, vec![vec![2, 1]]);
    }

    #[test]
    fn three_hop_no_backtrack() {
        let g = hetero_path();
        let mp = Metapath(vec![
            Platform::Ifttt,
            Platform::SmartThings,
            Platform::Ifttt,
        ]);
        // 0 → 1 → 2 is valid; 0 → 1 → 0 is a backtrack and must be excluded
        let inst = metapath_instances(&g, 0, &mp);
        assert_eq!(inst, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn wrong_start_type_yields_nothing() {
        let g = hetero_path();
        let mp = Metapath(vec![Platform::Alexa, Platform::Ifttt]);
        assert!(metapath_instances(&g, 0, &mp).is_empty());
        // starting at the Alexa node works
        assert_eq!(metapath_instances(&g, 3, &mp), vec![vec![3, 2]]);
    }

    #[test]
    fn default_metapaths_cover_observed_types() {
        let g = hetero_path();
        let mps = default_metapaths(&g.platforms());
        // 3 platforms → 3 self-paths + 3·2 pairs + 3·2 triples = 15
        assert_eq!(mps.len(), 15);
        for p in g.platforms() {
            assert!(mps.iter().any(|m| m.starts_at(p)));
        }
    }

    #[test]
    fn nodes_by_type_partition() {
        let g = hetero_path();
        let types: Vec<Platform> = g.nodes().iter().map(|n| n.platform).collect();
        let by_type = nodes_by_type(&types);
        let total: usize = by_type.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, g.n_nodes());
        let ifttt = by_type.iter().find(|(p, _)| *p == Platform::Ifttt).unwrap();
        assert_eq!(ifttt.1, vec![0, 2]);
    }

    /// `metapath_instances` as it was: a level-by-level expansion that
    /// rescans the edge list through `InteractionGraph::neighbors` at every
    /// step. The oracle for the neighbour-table enumeration.
    fn reference_instances(g: &InteractionGraph, start: usize, path: &Metapath) -> Vec<Vec<usize>> {
        if path.is_empty() || g.node(start).platform != path.0[0] {
            return Vec::new();
        }
        let mut walks = vec![vec![start]];
        for &wanted in &path.0[1..] {
            let mut next = Vec::new();
            for walk in &walks {
                let Some(&last) = walk.last() else { continue };
                for nb in g.neighbors(last) {
                    if g.node(nb).platform != wanted {
                        continue;
                    }
                    if walk.len() >= 2 && walk[walk.len() - 2] == nb {
                        continue;
                    }
                    let mut w = walk.clone();
                    w.push(nb);
                    next.push(w);
                }
            }
            walks = next;
            if walks.is_empty() {
                break;
            }
        }
        walks
    }

    const TYPES: [Platform; 3] = [Platform::Ifttt, Platform::SmartThings, Platform::Alexa];

    /// Node `i` takes type `types[i] % 3`; edges may repeat, reverse each
    /// other or be self loops.
    fn random_graph(types: &[usize], raw: &[(usize, usize, bool)]) -> InteractionGraph {
        let n = types.len();
        let mut g = InteractionGraph::new(
            types
                .iter()
                .enumerate()
                .map(|(i, &t)| Node {
                    rule_id: RuleId(i as u32),
                    platform: TYPES[t % 3],
                    features: vec![0.0; 2],
                })
                .collect(),
        );
        for &(u, v, shared) in raw {
            let kind = if shared {
                EdgeKind::SharedDevice
            } else {
                EdgeKind::ActionTrigger
            };
            g.add_edge(u % n, v % n, kind);
        }
        g
    }

    /// Every default path plus a 1-node and a 4-node schema.
    fn paths_of(g: &InteractionGraph) -> Vec<Metapath> {
        let mut paths = default_metapaths(&g.platforms());
        paths.push(Metapath(vec![Platform::Ifttt]));
        paths.push(Metapath(vec![
            Platform::Ifttt,
            Platform::SmartThings,
            Platform::Ifttt,
            Platform::SmartThings,
        ]));
        paths
    }

    fn assert_enumeration_matches(g: &InteractionGraph) {
        let table = NeighborTable::of_graph(g);
        for u in 0..g.n_nodes() {
            assert_eq!(table.neighbors(u), g.neighbors(u).as_slice(), "node {u}");
        }
        for path in paths_of(g) {
            let mut grouped = Vec::new();
            table.for_each_start(&path, |start, walks| {
                let instances: Vec<Vec<usize>> =
                    walks.chunks(path.len()).map(<[usize]>::to_vec).collect();
                grouped.push((start, instances));
            });
            let want: Vec<(usize, Vec<Vec<usize>>)> = (0..g.n_nodes())
                .map(|v| (v, reference_instances(g, v, &path)))
                .filter(|(_, instances)| !instances.is_empty())
                .collect();
            assert_eq!(grouped, want, "path {path:?}");
            for v in 0..g.n_nodes() {
                assert_eq!(
                    metapath_instances(g, v, &path),
                    reference_instances(g, v, &path),
                    "path {path:?} from {v}"
                );
            }
        }
    }

    #[test]
    fn enumeration_matches_reference_on_loops_and_a_dyad() {
        // a self loop on 1, both directions of 0-1, a triangle 1-2-3
        let g = random_graph(
            &[0, 1, 0, 1, 2],
            &[
                (0, 1, false),
                (1, 0, true),
                (1, 1, false),
                (1, 2, false),
                (2, 3, false),
                (3, 1, false),
            ],
        );
        assert_enumeration_matches(&g);
        assert_enumeration_matches(&random_graph(&[0, 1], &[(0, 1, false)]));
        assert_enumeration_matches(&random_graph(&[0], &[]));
    }

    proptest::proptest! {
        #[test]
        fn enumeration_matches_reference(
            types in proptest::collection::vec(0usize..3, 1..9),
            raw in proptest::collection::vec((0usize..9, 0usize..9, proptest::bool::ANY), 0..16),
        ) {
            assert_enumeration_matches(&random_graph(&types, &raw));
        }
    }
}
