//! The interaction-graph type.

use glint_rules::{Platform, RuleId};
use serde::{Deserialize, Serialize};

/// Edge semantics. Causal edges are directed cause → effect; device-sharing
/// edges are stored in both directions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// The source rule's action invokes the target rule's trigger.
    ActionTrigger,
    /// The source rule's action satisfies / fakes a *condition* of the
    /// target rule (the §4.7 "condition duplicate" coupling).
    ActionCondition,
    /// Both rules actuate the same device (Figure 1's "connected via
    /// interacting devices" coupling, undirected).
    SharedDevice,
}

/// Graph-level ground-truth label.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphLabel {
    Normal,
    Threat,
}

impl GraphLabel {
    /// Class index used by classifiers (Normal = 0, Threat = 1).
    pub fn class(self) -> usize {
        match self {
            GraphLabel::Normal => 0,
            GraphLabel::Threat => 1,
        }
    }

    pub fn from_class(c: usize) -> Self {
        if c == 0 {
            GraphLabel::Normal
        } else {
            GraphLabel::Threat
        }
    }
}

/// A node: one automation rule with its embedded features.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub rule_id: RuleId,
    pub platform: Platform,
    /// Node feature vector (dimension varies by platform in hetero graphs).
    pub features: Vec<f32>,
}

/// An interaction graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InteractionGraph {
    nodes: Vec<Node>,
    /// Directed edges (src, dst, kind); src's action reaches dst's trigger.
    edges: Vec<(usize, usize, EdgeKind)>,
    pub label: Option<GraphLabel>,
}

impl InteractionGraph {
    pub fn new(nodes: Vec<Node>) -> Self {
        Self {
            nodes,
            edges: Vec::new(),
            label: None,
        }
    }

    pub fn with_label(mut self, label: GraphLabel) -> Self {
        self.label = Some(label);
        self
    }

    /// Add a directed edge; panics on out-of-range endpoints.
    pub fn add_edge(&mut self, src: usize, dst: usize, kind: EdgeKind) {
        assert!(
            src < self.nodes.len() && dst < self.nodes.len(),
            "edge out of range"
        );
        if !self.edges.contains(&(src, dst, kind)) {
            self.edges.push((src, dst, kind));
        }
    }

    /// Structural soundness check for graphs that bypassed [`add_edge`]'s
    /// assertions — deserialized datasets, external producers. Returns the
    /// first problem found: an empty node list, an out-of-range edge
    /// endpoint, or a non-finite node feature. Downstream batch preparation
    /// panics on exactly these conditions, so serving paths call this first
    /// and quarantine offenders instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("graph has no nodes".into());
        }
        for &(src, dst, kind) in &self.edges {
            if src >= self.nodes.len() || dst >= self.nodes.len() {
                return Err(format!(
                    "edge ({src}, {dst}, {kind:?}) out of range for {} nodes",
                    self.nodes.len()
                ));
            }
        }
        let mut dims: Vec<(Platform, usize)> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(bad) = node.features.iter().position(|f| !f.is_finite()) {
                return Err(format!("node {i} feature {bad} is not finite"));
            }
            match dims.iter().find(|(p, _)| *p == node.platform) {
                None => dims.push((node.platform, node.features.len())),
                Some((_, d)) if *d != node.features.len() => {
                    return Err(format!(
                        "node {i} has {} features but {:?} nodes carry {d}",
                        node.features.len(),
                        node.platform
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub fn edges(&self) -> &[(usize, usize, EdgeKind)] {
        &self.edges
    }

    /// Out-neighbours of a node.
    pub fn successors(&self, u: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|(s, _, _)| *s == u)
            .map(|(_, d, _)| *d)
            .collect()
    }

    /// In-neighbours of a node.
    pub fn predecessors(&self, v: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|(_, d, _)| *d == v)
            .map(|(s, _, _)| *s)
            .collect()
    }

    /// Undirected neighbours (deduplicated).
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|&(s, d, _)| {
                if s == u {
                    Some(d)
                } else if d == u {
                    Some(s)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct platforms present.
    pub fn platforms(&self) -> Vec<Platform> {
        let mut p: Vec<Platform> = self.nodes.iter().map(|n| n.platform).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// Is this a heterogeneous graph (multiple node types or mixed feature
    /// dimensions)?
    pub fn is_heterogeneous(&self) -> bool {
        self.platforms().len() > 1
            || self
                .nodes
                .windows(2)
                .any(|w| w[0].features.len() != w[1].features.len())
    }

    /// Does the directed graph contain a cycle? (action-loop detection aid)
    pub fn has_cycle(&self) -> bool {
        // iterative DFS three-colour
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            White,
            Grey,
            Black,
        }
        let n = self.nodes.len();
        let mut color = vec![C::White; n];
        for start in 0..n {
            if color[start] != C::White {
                continue;
            }
            // stack of (node, next-successor-index)
            let mut stack = vec![(start, 0usize)];
            color[start] = C::Grey;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                let succ = self.successors(u);
                if *i < succ.len() {
                    let v = succ[*i];
                    *i += 1;
                    match color[v] {
                        C::Grey => return true,
                        C::White => {
                            color[v] = C::Grey;
                            stack.push((v, 0));
                        }
                        C::Black => {}
                    }
                } else {
                    color[u] = C::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Maximum feature dimension across nodes.
    pub fn max_feature_dim(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.features.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, platform: Platform, dim: usize) -> Node {
        Node {
            rule_id: RuleId(id),
            platform,
            features: vec![0.0; dim],
        }
    }

    fn simple_graph() -> InteractionGraph {
        let mut g = InteractionGraph::new(vec![
            node(1, Platform::Ifttt, 4),
            node(2, Platform::Ifttt, 4),
            node(3, Platform::Ifttt, 4),
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g
    }

    #[test]
    fn neighbours_and_degrees() {
        let g = simple_graph();
        assert_eq!(g.successors(0), vec![1]);
        assert_eq!(g.predecessors(2), vec![1]);
        assert_eq!(g.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = simple_graph();
        let before = g.n_edges();
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        assert_eq!(g.n_edges(), before);
    }

    #[test]
    fn cycle_detection() {
        let mut g = simple_graph();
        assert!(!g.has_cycle());
        g.add_edge(2, 0, EdgeKind::ActionTrigger);
        assert!(g.has_cycle());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = simple_graph();
        g.add_edge(1, 1, EdgeKind::ActionTrigger);
        assert!(g.has_cycle());
    }

    #[test]
    fn heterogeneity() {
        let homo = simple_graph();
        assert!(!homo.is_heterogeneous());
        let hetero = InteractionGraph::new(vec![
            node(1, Platform::Ifttt, 4),
            node(2, Platform::Alexa, 8),
        ]);
        assert!(hetero.is_heterogeneous());
    }

    #[test]
    fn label_classes_round_trip() {
        assert_eq!(
            GraphLabel::from_class(GraphLabel::Threat.class()),
            GraphLabel::Threat
        );
        assert_eq!(
            GraphLabel::from_class(GraphLabel::Normal.class()),
            GraphLabel::Normal
        );
    }
}
