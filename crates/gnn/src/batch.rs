//! Graph preparation: adjacency variants, typed feature blocks, and
//! metapath aggregation operators, precomputed once per graph.

use glint_graph::graph::Node;
use glint_graph::hetero::{default_metapaths, nodes_by_type, Metapath, NeighborTable};
use glint_graph::InteractionGraph;
use glint_rules::Platform;
use glint_tensor::{Csr, Matrix};

/// Dataset-level schema: which node types occur and their feature dims.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSchema {
    /// (platform, feature dim), sorted by platform type index.
    pub types: Vec<(Platform, usize)>,
}

impl GraphSchema {
    /// Infer the schema from a set of graphs.
    pub fn infer<'a>(graphs: impl IntoIterator<Item = &'a InteractionGraph>) -> Self {
        let mut types: Vec<(Platform, usize)> = Vec::new();
        for g in graphs {
            for n in g.nodes() {
                match types.iter().find(|(p, _)| *p == n.platform) {
                    Some((p, d)) => {
                        assert_eq!(*d, n.features.len(), "inconsistent feature dim for {p:?}")
                    }
                    None => types.push((n.platform, n.features.len())),
                }
            }
        }
        types.sort_by_key(|(p, _)| p.type_index());
        Self { types }
    }

    pub fn is_heterogeneous(&self) -> bool {
        self.types.len() > 1
    }

    /// Feature dim of the single type (panics when heterogeneous).
    pub fn homo_dim(&self) -> usize {
        assert_eq!(self.types.len(), 1, "homo_dim on a heterogeneous schema");
        self.types[0].1
    }

    pub fn dim_of(&self, p: Platform) -> Option<usize> {
        self.types.iter().find(|(q, _)| *q == p).map(|(_, d)| *d)
    }
}

/// One node type's features inside a graph.
#[derive(Clone, Debug)]
pub struct TypeBlock {
    pub platform: Platform,
    /// Node indices of this type (sorted).
    pub indices: Vec<usize>,
    /// k × d_type feature rows, aligned with `indices`.
    pub feats: Matrix,
    /// n × k selection operator (scatter rows back into graph positions).
    pub select: Csr,
}

/// A metapath aggregation operator: `agg · H` averages, per start node, the
/// projected features over all instances of the metapath.
#[derive(Clone, Debug)]
pub struct MetapathOp {
    pub path: Metapath,
    /// n × n averaging operator (zero rows where no instance starts).
    pub agg: Csr,
    /// Start nodes that have at least one instance.
    pub valid_rows: Vec<usize>,
}

/// A graph with everything the models need, precomputed.
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    pub n: usize,
    /// Symmetrically normalized adjacency with self loops (GCN propagation).
    pub adj_norm: Csr,
    /// Row-normalized adjacency, no self loops (mean aggregation).
    pub adj_row: Csr,
    /// Unnormalized symmetric 0/1 adjacency, no self loops (GIN sum agg).
    pub adj_sum: Csr,
    pub by_type: Vec<TypeBlock>,
    pub metapath_ops: Vec<MetapathOp>,
    pub label: Option<usize>,
    pub is_hetero: bool,
}

impl PreparedGraph {
    pub fn from_graph(g: &InteractionGraph) -> Self {
        Self::prepare(g, None)
    }

    /// `g` with node `drop` deleted: the nodes after it shift down by one
    /// and the edges touching it vanish. Equal field for field to
    /// `from_graph` of that smaller graph, which is never built.
    pub fn without_node(g: &InteractionGraph, drop: usize) -> Self {
        Self::prepare(g, Some(drop))
    }

    /// The one preparation body: `g`'s nodes except `drop`, renumbered in
    /// order, and the edges between them.
    fn prepare(g: &InteractionGraph, drop: Option<usize>) -> Self {
        let renumber = |i: usize| match drop {
            Some(d) if i == d => None,
            Some(d) if i > d => Some(i - 1),
            _ => Some(i),
        };
        let nodes: Vec<&Node> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != drop)
            .map(|(_, node)| node)
            .collect();
        let n = nodes.len();
        assert!(n > 0, "cannot prepare an empty graph");
        let edges: Vec<(usize, usize)> = g
            .edges()
            .iter()
            .filter_map(|&(u, v, _)| Some((renumber(u)?, renumber(v)?)))
            .collect();
        let adj_norm = Csr::normalized_adjacency(n, &edges);
        let adj_row = Csr::row_normalized(n, &edges);
        let adj_sum = Csr::symmetric_adjacency(n, &edges);

        // typed feature blocks
        let types: Vec<Platform> = nodes.iter().map(|node| node.platform).collect();
        let mut by_type: Vec<TypeBlock> = Vec::new();
        for (platform, indices) in nodes_by_type(&types) {
            let dim = nodes[indices[0]].features.len();
            let mut feats = Matrix::zeros(indices.len(), dim);
            for (k, &i) in indices.iter().enumerate() {
                assert_eq!(
                    nodes[i].features.len(),
                    dim,
                    "ragged features within a type"
                );
                feats.row_mut(k).copy_from_slice(&nodes[i].features);
            }
            let select = Csr::from_triplets(
                n,
                indices.len(),
                &indices
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| (i, k, 1.0))
                    .collect::<Vec<_>>(),
            );
            by_type.push(TypeBlock {
                platform,
                indices,
                feats,
                select,
            });
        }

        // metapath operators: identity path per type + default schemas
        let mut metapath_ops = Vec::new();
        for block in &by_type {
            // identity metapath [A]: node aggregates itself
            let path = Metapath(vec![block.platform]);
            let agg = Csr::from_triplets(
                n,
                n,
                &block
                    .indices
                    .iter()
                    .map(|&i| (i, i, 1.0))
                    .collect::<Vec<_>>(),
            );
            metapath_ops.push(MetapathOp {
                path,
                agg,
                valid_rows: block.indices.clone(),
            });
        }
        let platforms: Vec<Platform> = by_type.iter().map(|b| b.platform).collect();
        let neighbors = NeighborTable::new(types, edges.iter().copied());
        let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
        for path in default_metapaths(&platforms) {
            triplets.clear();
            let mut valid_rows = Vec::new();
            neighbors.for_each_start(&path, |v, walks| {
                valid_rows.push(v);
                // average projected features over all nodes of all instances
                let total = walks.len() as f32;
                triplets.extend(walks.iter().map(|&u| (v, u, 1.0 / total)));
            });
            if valid_rows.is_empty() {
                continue;
            }
            metapath_ops.push(MetapathOp {
                path,
                agg: Csr::from_triplets(n, n, &triplets),
                valid_rows,
            });
        }

        let ragged = nodes
            .iter()
            .zip(nodes.iter().skip(1))
            .any(|(a, b)| a.features.len() != b.features.len());
        Self {
            n,
            adj_norm,
            adj_row,
            adj_sum,
            by_type,
            metapath_ops,
            label: g.label.map(|l| l.class()),
            is_hetero: platforms.len() > 1 || ragged,
        }
    }

    /// Uniform feature matrix for homogeneous graphs.
    pub fn homo_features(&self) -> Matrix {
        assert_eq!(
            self.by_type.len(),
            1,
            "homo_features on heterogeneous graph"
        );
        let block = &self.by_type[0];
        // indices are 0..n in order for single-type graphs
        let mut feats = Matrix::zeros(self.n, block.feats.cols());
        for (k, &i) in block.indices.iter().enumerate() {
            feats.row_mut(i).copy_from_slice(block.feats.row(k));
        }
        feats
    }

    /// Prepare a whole dataset.
    pub fn prepare_all(graphs: &[InteractionGraph]) -> Vec<PreparedGraph> {
        graphs.iter().map(Self::from_graph).collect()
    }
}

/// Shared fixtures for this crate's unit tests.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use glint_graph::graph::{EdgeKind, GraphLabel, Node};
    use glint_rules::RuleId;

    /// A line graph of `n` homogeneous IFTTT nodes with `dim`-d features.
    pub fn homo_line_graph(n: usize, dim: usize) -> InteractionGraph {
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                rule_id: RuleId(i as u32),
                platform: Platform::Ifttt,
                features: (0..dim)
                    .map(|d| ((i * 7 + d * 3) % 5) as f32 / 5.0 + 0.1)
                    .collect(),
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1, EdgeKind::ActionTrigger);
        }
        g
    }

    /// Two structurally different prepared graphs with identical dims.
    pub fn labeled_pair(dim: usize) -> (PreparedGraph, PreparedGraph) {
        let a = homo_line_graph(5, dim).with_label(GraphLabel::Normal);
        let mut b_raw = homo_line_graph(5, dim);
        b_raw.add_edge(4, 0, EdgeKind::ActionTrigger); // close the loop
        b_raw.add_edge(2, 0, EdgeKind::ActionTrigger);
        let b = b_raw.with_label(GraphLabel::Threat);
        (PreparedGraph::from_graph(&a), PreparedGraph::from_graph(&b))
    }

    /// A small heterogeneous prepared graph (IFTTT 4-d, Alexa 6-d).
    pub fn hetero_small() -> PreparedGraph {
        let mut g = InteractionGraph::new(vec![
            Node {
                rule_id: RuleId(0),
                platform: Platform::Ifttt,
                features: vec![0.4; 4],
            },
            Node {
                rule_id: RuleId(1),
                platform: Platform::Alexa,
                features: vec![0.2; 6],
            },
            Node {
                rule_id: RuleId(2),
                platform: Platform::Ifttt,
                features: vec![0.9; 4],
            },
            Node {
                rule_id: RuleId(3),
                platform: Platform::SmartThings,
                features: vec![0.5; 4],
            },
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g.add_edge(2, 3, EdgeKind::ActionTrigger);
        PreparedGraph::from_graph(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_graph::graph::{EdgeKind, GraphLabel};
    use glint_rules::RuleId;

    fn node(id: u32, platform: Platform, feats: Vec<f32>) -> Node {
        Node {
            rule_id: RuleId(id),
            platform,
            features: feats,
        }
    }

    fn homo_graph() -> InteractionGraph {
        let mut g = InteractionGraph::new(vec![
            node(0, Platform::Ifttt, vec![1.0, 0.0]),
            node(1, Platform::Ifttt, vec![0.0, 1.0]),
            node(2, Platform::Ifttt, vec![1.0, 1.0]),
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g
    }

    fn hetero_graph() -> InteractionGraph {
        let mut g = InteractionGraph::new(vec![
            node(0, Platform::Ifttt, vec![1.0, 0.0]),
            node(1, Platform::Alexa, vec![0.5, 0.5, 0.5]),
            node(2, Platform::Ifttt, vec![0.0, 1.0]),
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g
    }

    #[test]
    fn schema_inference() {
        let graphs = [homo_graph()];
        let s = GraphSchema::infer(graphs.iter());
        assert!(!s.is_heterogeneous());
        assert_eq!(s.homo_dim(), 2);
        let graphs2 = [hetero_graph()];
        let s2 = GraphSchema::infer(graphs2.iter());
        assert!(s2.is_heterogeneous());
        assert_eq!(s2.dim_of(Platform::Alexa), Some(3));
    }

    #[test]
    fn homo_features_round_trip() {
        let p = PreparedGraph::from_graph(&homo_graph());
        let f = p.homo_features();
        assert_eq!(f.row(0), &[1.0, 0.0]);
        assert_eq!(f.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn type_blocks_select_operators() {
        let p = PreparedGraph::from_graph(&hetero_graph());
        assert_eq!(p.by_type.len(), 2);
        let ifttt = p
            .by_type
            .iter()
            .find(|b| b.platform == Platform::Ifttt)
            .unwrap();
        assert_eq!(ifttt.indices, vec![0, 2]);
        // select is n×k: scattering [a;b] puts a at row 0, b at row 2
        let scattered = ifttt
            .select
            .spmm(&Matrix::from_rows(&[vec![7.0], vec![9.0]]));
        assert_eq!(scattered.get(0, 0), 7.0);
        assert_eq!(scattered.get(1, 0), 0.0);
        assert_eq!(scattered.get(2, 0), 9.0);
    }

    #[test]
    fn metapath_ops_rows_average_to_one() {
        let p = PreparedGraph::from_graph(&hetero_graph());
        for op in &p.metapath_ops {
            let d = op.agg.to_dense();
            for &v in &op.valid_rows {
                let s: f32 = (0..p.n).map(|c| d.get(v, c)).sum();
                assert!(
                    (s - 1.0).abs() < 1e-5,
                    "path {:?} row {v} sums {s}",
                    op.path
                );
            }
        }
    }

    #[test]
    fn identity_paths_cover_every_node() {
        let p = PreparedGraph::from_graph(&hetero_graph());
        let mut covered = vec![false; p.n];
        for op in p.metapath_ops.iter().filter(|o| o.path.len() == 1) {
            for &v in &op.valid_rows {
                covered[v] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "identity metapaths must cover all nodes"
        );
    }

    #[test]
    fn adjacency_variants_consistent() {
        let p = PreparedGraph::from_graph(&homo_graph());
        assert_eq!(p.adj_sum.nnz(), 4); // 2 undirected edges
        assert!(p.adj_norm.is_symmetric(1e-6));
    }

    /// The deleted node's graph as the explainer used to build it: the
    /// oracle `without_node` must match without building it.
    fn remove_node(g: &InteractionGraph, drop: usize) -> InteractionGraph {
        let remap = |i: usize| (i != drop).then(|| i - usize::from(i > drop));
        let nodes = (0..g.n_nodes())
            .filter(|&i| i != drop)
            .map(|i| g.node(i).clone())
            .collect();
        let mut out = InteractionGraph::new(nodes);
        for &(u, v, kind) in g.edges() {
            if let (Some(nu), Some(nv)) = (remap(u), remap(v)) {
                out.add_edge(nu, nv, kind);
            }
        }
        out.label = g.label;
        out
    }

    /// `(rows, cols, stored entries with value bits)`.
    fn csr_bits(m: &Csr) -> (usize, usize, Vec<(usize, usize, u32)>) {
        let entries = (0..m.rows())
            .flat_map(|r| m.row_iter(r).map(move |(c, v)| (r, c, v.to_bits())))
            .collect();
        (m.rows(), m.cols(), entries)
    }

    /// Every field of a prepared graph, floats as bits.
    fn fingerprint(p: &PreparedGraph) -> String {
        let mut out = format!("n {} label {:?} hetero {}\n", p.n, p.label, p.is_hetero);
        for m in [&p.adj_norm, &p.adj_row, &p.adj_sum] {
            out += &format!("{:?}\n", csr_bits(m));
        }
        for b in &p.by_type {
            let feats: Vec<u32> = b.feats.data().iter().map(|v| v.to_bits()).collect();
            out += &format!(
                "{:?} {:?} {:?} {feats:?} {:?}\n",
                b.platform,
                b.indices,
                b.feats.shape(),
                csr_bits(&b.select)
            );
        }
        for op in &p.metapath_ops {
            out += &format!(
                "{:?} {:?} {:?}\n",
                op.path,
                csr_bits(&op.agg),
                op.valid_rows
            );
        }
        out
    }

    fn assert_every_deletion_matches(g: &InteractionGraph) {
        for d in 0..g.n_nodes() {
            assert_eq!(
                fingerprint(&PreparedGraph::without_node(g, d)),
                fingerprint(&PreparedGraph::from_graph(&remove_node(g, d))),
                "dropping node {d} of {g:?}"
            );
        }
    }

    /// Node `i` takes platform `platforms[i]` and a feature width of its
    /// platform.
    fn typed_graph(platforms: &[Platform], edges: &[(usize, usize, EdgeKind)]) -> InteractionGraph {
        let nodes = platforms
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let dim = 2 + p.type_index();
                node(
                    i as u32,
                    p,
                    (0..dim).map(|d| (i * 5 + d) as f32 * 0.25 - 1.0).collect(),
                )
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for &(u, v, kind) in edges {
            g.add_edge(u, v, kind);
        }
        g
    }

    #[test]
    fn without_node_matches_preparing_the_reduced_graph() {
        use EdgeKind::{ActionCondition as Ac, ActionTrigger as At, SharedDevice as Sd};
        use Platform::{Alexa, GoogleAssistant, HomeAssistant, Ifttt, SmartThings};
        // node 3 is the only Alexa node and node 5 the only HomeAssistant
        // one; node 2 carries a self loop, 0-1 runs both ways
        let g = typed_graph(
            &[
                Ifttt,
                SmartThings,
                Ifttt,
                Alexa,
                SmartThings,
                HomeAssistant,
                GoogleAssistant,
            ],
            &[
                (0, 1, At),
                (1, 0, Ac),
                (1, 2, At),
                (2, 2, At),
                (2, 3, Sd),
                (3, 2, Sd),
                (3, 4, At),
                (4, 5, Ac),
                (5, 6, At),
                (6, 0, At),
                (1, 4, Sd),
            ],
        )
        .with_label(GraphLabel::Threat);
        assert_every_deletion_matches(&g);
        // a 2-node graph leaves one node of one type
        assert_every_deletion_matches(&typed_graph(&[Ifttt, Alexa], &[(0, 1, At)]));
        // a self loop on a node of its own platform, and an isolated node
        assert_every_deletion_matches(&typed_graph(
            &[Alexa, Ifttt, Ifttt],
            &[(0, 0, At), (1, 0, Ac)],
        ));
        // a homogeneous chain
        assert_every_deletion_matches(&homo_graph());
    }

    proptest::proptest! {
        #[test]
        fn without_node_matches_preparing_the_reduced_graph_on_random_graphs(
            types in proptest::collection::vec(0usize..5, 2..9),
            raw in proptest::collection::vec((0usize..9, 0usize..9), 0..14),
        ) {
            let platforms: Vec<Platform> = types.iter().map(|&t| Platform::all()[t]).collect();
            let n = platforms.len();
            let edges: Vec<(usize, usize, EdgeKind)> = raw
                .iter()
                .map(|&(u, v)| (u % n, v % n, EdgeKind::ActionTrigger))
                .collect();
            assert_every_deletion_matches(&typed_graph(&platforms, &edges));
        }
    }

    #[test]
    fn without_node_rewires_edges() {
        use EdgeKind::{ActionCondition as Ac, ActionTrigger as At, SharedDevice as Sd};
        let chain = |n: usize| {
            let platforms = vec![Platform::Ifttt; n];
            let edges: Vec<_> = (1..n).map(|i| (i - 1, i, At)).collect();
            typed_graph(&platforms, &edges)
        };
        // the kept nodes of `g`, wired with `edges` in the new numbering
        let expect = |g: &InteractionGraph, drop: usize, edges: &[(usize, usize, EdgeKind)]| {
            let nodes = (0..g.n_nodes())
                .filter(|&i| i != drop)
                .map(|i| g.node(i).clone())
                .collect();
            let mut r = InteractionGraph::new(nodes);
            for &(u, v, kind) in edges {
                r.add_edge(u, v, kind);
            }
            PreparedGraph::from_graph(&r)
        };
        // edges 0→1 and 1→2 vanish; 2→3 becomes 1→2 in the new indexing
        let g = chain(4);
        let r = PreparedGraph::without_node(&g, 1);
        assert_eq!(r.n, 3);
        assert_eq!(fingerprint(&r), fingerprint(&expect(&g, 1, &[(1, 2, At)])));

        // a 5-chain plus back, skip and shared-device edges of every kind
        let mut g = chain(5);
        for (u, v, kind) in [(4, 0, Ac), (0, 2, Sd), (2, 0, Sd), (3, 1, Ac)] {
            g.add_edge(u, v, kind);
        }
        // dropping the first, a middle and the last node
        let expected = [
            (0, vec![(0, 1, At), (1, 2, At), (2, 3, At), (2, 0, Ac)]),
            (2, vec![(0, 1, At), (2, 3, At), (3, 0, Ac), (2, 1, Ac)]),
            (
                4,
                vec![
                    (0, 1, At),
                    (1, 2, At),
                    (2, 3, At),
                    (0, 2, Sd),
                    (2, 0, Sd),
                    (3, 1, Ac),
                ],
            ),
        ];
        for (drop, edges) in expected {
            assert_eq!(
                fingerprint(&PreparedGraph::without_node(&g, drop)),
                fingerprint(&expect(&g, drop, &edges)),
                "drop {drop}"
            );
        }
    }
}
