//! Explanations pinned bit for bit.
//!
//! A warning names its causes by deletion attribution
//! (`explain::node_importance`): the importance of node `v` is the drop in
//! threat probability when `v` is deleted. Every score comes from a full
//! classifier forward over a prepared graph, so a change to graph
//! preparation, to the metapath projection or to the order of any
//! accumulation moves the last bits of the scores, and through ties and
//! near-ties the order of the causes.
//!
//! This test trains a small heterogeneous ITGNN classifier and embedder on
//! graphs that cover all five platforms, then checks two FNV-1a checksums
//! against recorded values:
//!
//! - every `node_importance` result (node index and score bits) over a fixed
//!   graph set, and
//! - every verdict `GlintDetector::assess` returns over the same set:
//!   probability bits, flags and the warning's cause list.
//!
//! The set holds windows of 20 or more nodes, a node that is the only one
//! of its platform, a self loop, an isolated node, a 2-node and a 1-node
//! graph. A deliberate change to explanation arithmetic re-records the
//! constants with `GLINT_PRINT_EXPLAIN_BITS=1`.

use glint_core::{explain, DriftDetector, GlintDetector};
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{Itgnn, ItgnnConfig};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_graph::graph::{EdgeKind, GraphLabel, Node};
use glint_graph::InteractionGraph;
use glint_rules::{CorpusGenerator, Platform, Rule, RuleId};

/// Feature dimension per platform, in `Platform::all()` order.
const DIMS: [usize; 5] = [4, 5, 6, 3, 4];

/// The deployed rules: rule `i` belongs to platform `i % 5`.
fn rules(count: u32) -> Vec<Rule> {
    let mut gen = CorpusGenerator::new(11);
    (0..count)
        .map(|i| gen.rule_for(Platform::all()[i as usize % 5]))
        .collect()
}

/// A node for rule `id`, with deterministic features of its platform's
/// dimension.
fn node(id: u32, salt: usize) -> Node {
    let p = id as usize % 5;
    Node {
        rule_id: RuleId(id),
        platform: Platform::all()[p],
        features: (0..DIMS[p])
            .map(|d| ((salt * 17 + id as usize * 29 + d * 11) % 89) as f32 / 89.0 - 0.5)
            .collect(),
    }
}

/// A window over `ids`: a causal chain, a condition edge every fourth
/// node, shared-device pairs every fifth, and a loop back to the first
/// node when `cycle` is set.
fn window(ids: &[u32], salt: usize, cycle: bool) -> InteractionGraph {
    let n = ids.len();
    let mut g = InteractionGraph::new(ids.iter().map(|&id| node(id, salt)).collect());
    for i in 1..n {
        g.add_edge(i - 1, i, EdgeKind::ActionTrigger);
    }
    for i in (0..n).step_by(4) {
        if i + 3 < n {
            g.add_edge(i, i + 3, EdgeKind::ActionCondition);
        }
    }
    for i in (0..n).step_by(5) {
        if i + 2 < n {
            g.add_edge(i, i + 2, EdgeKind::SharedDevice);
            g.add_edge(i + 2, i, EdgeKind::SharedDevice);
        }
    }
    if cycle && n > 2 {
        g.add_edge(n - 1, 0, EdgeKind::ActionTrigger);
    }
    g
}

/// Thirty-six labelled training windows of 3-14 nodes over all five
/// platforms; threats close a cycle.
fn training_set() -> Vec<PreparedGraph> {
    (0..36usize)
        .map(|k| {
            let n = 3 + k % 12;
            let ids: Vec<u32> = (0..n).map(|i| ((k * 7 + i * 3) % 60) as u32).collect();
            let threat = k % 3 == 0;
            let label = if threat {
                GraphLabel::Threat
            } else {
                GraphLabel::Normal
            };
            PreparedGraph::from_graph(&window(&ids, k, threat).with_label(label))
        })
        .collect()
}

/// The explained windows.
fn explained_set() -> Vec<InteractionGraph> {
    let mut out = Vec::new();
    for (k, n) in [2usize, 3, 5, 8, 13, 20, 24, 31].into_iter().enumerate() {
        let ids: Vec<u32> = (0..n).map(|i| ((k * 11 + i * 7) % 60) as u32).collect();
        out.push(window(&ids, 100 + k, k % 2 == 0));
    }
    // a single node
    out.push(window(&[17], 200, false));
    // rule 4 is the only HomeAssistant node among twenty-one
    let mut ids: Vec<u32> = (0..20u32)
        .map(|i| (i / 4) * 5 + i % 4)
        .map(|id| id + 20)
        .collect();
    ids.insert(9, 4);
    out.push(window(&ids, 201, true));
    // a self loop, a reversed edge and an isolated last node
    let chain = window(&(30..41).collect::<Vec<u32>>(), 202, false);
    let mut nodes = chain.nodes().to_vec();
    nodes.push(node(41, 202));
    let mut g = InteractionGraph::new(nodes);
    for &(u, v, kind) in chain.edges() {
        g.add_edge(u, v, kind);
    }
    g.add_edge(5, 5, EdgeKind::ActionTrigger);
    g.add_edge(3, 2, EdgeKind::ActionTrigger);
    out.push(g);
    out
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn print_bits(what: &str, sum: u64) {
    if std::env::var_os("GLINT_PRINT_EXPLAIN_BITS").is_some() {
        println!("{what}: {sum:#018x}");
    }
}

#[test]
fn explanations_hold_their_pinned_bits() {
    let data = training_set();
    let schema = GraphSchema::infer(explained_set().iter());
    assert_eq!(
        schema.types.len(),
        5,
        "the windows cover all five platforms"
    );
    let cfg = ItgnnConfig {
        hidden: 8,
        embed: 8,
        n_scales: 2,
        seed: 3,
        ..Default::default()
    };
    let train = TrainConfig {
        epochs: 3,
        seed: 5,
        ..Default::default()
    };
    let mut classifier = Itgnn::new(&schema.types, cfg.clone());
    ClassifierTrainer::new(train.clone()).train(&mut classifier, &data);
    let mut embedder = Itgnn::new(&schema.types, cfg);
    ContrastiveTrainer::new(train).train(&mut embedder, &data);

    let windows = explained_set();
    assert!(windows.iter().filter(|g| g.n_nodes() >= 20).count() >= 3);

    let mut importance = Fnv::new();
    let mut moved = 0;
    for g in &windows {
        let scores = explain::node_importance(&classifier, g);
        assert_eq!(scores.len(), g.n_nodes());
        moved += scores.iter().filter(|(_, s)| *s != 0.0).count();
        importance.eat(&(g.n_nodes() as u64).to_le_bytes());
        for (i, s) in scores {
            importance.eat(&(i as u64).to_le_bytes());
            importance.eat(&s.to_bits().to_le_bytes());
        }
    }
    print_bits("importance", importance.0);
    assert!(moved > 100, "only {moved} deletions moved the probability");

    let emb = ContrastiveTrainer::embed_all(&embedder, &data);
    let labels: Vec<usize> = data.iter().map(|g| g.label.unwrap_or(0)).collect();
    let mut drift = DriftDetector::fit(&emb, &labels);
    // drift degrees are never negative: every window is flagged, so every
    // verdict carries an explained cause list
    drift.threshold = -1.0;
    let mut detector = GlintDetector::new(rules(60), classifier, embedder, drift);
    detector.top_k_causes = 4;
    let mut causes = Fnv::new();
    let mut threats = 0;
    for g in &windows {
        let det = detector.assess(g.clone());
        threats += usize::from(det.is_threat);
        causes.eat(&det.threat_probability.to_bits().to_le_bytes());
        causes.eat(&[u8::from(det.is_threat), u8::from(det.drifting)]);
        let warning = det.warning.expect("every window is flagged");
        assert_eq!(warning.causes.len(), g.n_nodes().min(4));
        causes.eat(&(warning.causes.len() as u64).to_le_bytes());
        for c in &warning.causes {
            causes.eat(&c.rule_id.to_le_bytes());
        }
    }
    print_bits("causes", causes.0);
    assert!(
        threats > 0 && threats < windows.len(),
        "{threats} threats: the classifier must raise both verdicts"
    );

    assert_eq!(
        importance.0, 0xf52f_f9a1_423e_1e36,
        "node_importance bits moved"
    );
    assert_eq!(causes.0, 0xb726_d17a_c214_7e2c, "assess cause lists moved");
}
