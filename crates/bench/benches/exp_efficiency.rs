//! E-EFF (part 2) — §4.8.2: efficiency comparison against search-based
//! analysis.
//!
//! The paper argues qualitatively that HAWatcher's correlation traversal is
//! O(n^N) in chain length and iRuler's SMT checking is NP-hard, while
//! Glint's prediction is a fixed-cost forward pass. This harness makes the
//! claim measurable: explored-state counts and wall-clock of the bounded
//! model checker vs ITGNN inference latency, as the rule set grows.

use glint_bench::{print_table, record_json};
use glint_core::construction::node_features;
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{GraphModel, Itgnn, ItgnnConfig};
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::builder::full_graph;
use glint_rules::{CorpusConfig, CorpusGenerator};
use glint_testbed::iruler::IRulerChecker;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the harness compares wall-clock latencies by design"
)]
fn main() {
    let corpus = CorpusGenerator::generate_corpus(&CorpusConfig {
        scale: 0.001,
        per_platform_cap: 300,
        seed: 0xeff,
    });

    // one ITGNN (untrained weights are fine for latency measurements)
    let probe: Vec<glint_graph::InteractionGraph> = vec![full_graph(&corpus[..6], &node_features)];
    let schema = GraphSchema::infer(probe.iter());
    let mut types = schema.types.clone();
    for p in glint_rules::Platform::all() {
        if !types.iter().any(|(q, _)| q == p) {
            types.push((*p, if p.is_voice() { 512 } else { 300 }));
        }
    }
    types.sort_by_key(|(p, _)| p.type_index());
    let model = Itgnn::new(&types, ItgnnConfig::default());
    println!(
        "ITGNN model: {} parameters ≈ {:.2} MB serialized (paper reports 6.13 MB)",
        model.params().num_scalars(),
        model.params().byte_size() as f64 / 1e6
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &n_rules in &[3usize, 6, 10, 16, 24] {
        let subset = &corpus[..n_rules];
        // Glint: graph prep + one forward pass
        let t0 = Instant::now();
        let graph = full_graph(subset, &node_features);
        let prepared = PreparedGraph::from_graph(&graph);
        let _ = ClassifierTrainer::predict(&model, &prepared);
        let glint_ms = t0.elapsed().as_secs_f64() * 1e3;

        // iRuler-style bounded search
        let checker = IRulerChecker {
            max_depth: 5,
            max_states: 400_000,
        };
        let t1 = Instant::now();
        let outcome = checker.check(subset);
        let iruler_ms = t1.elapsed().as_secs_f64() * 1e3;

        rows.push(vec![
            n_rules.to_string(),
            format!("{glint_ms:.1} ms"),
            format!("{iruler_ms:.1} ms"),
            outcome.explored_states.to_string(),
            if outcome.truncated {
                "yes".into()
            } else {
                "no".into()
            },
            format!("{:.0}×", iruler_ms / glint_ms.max(1e-9)),
        ]);
        json.push(serde_json::json!({
            "rules": n_rules, "glint_ms": glint_ms, "iruler_ms": iruler_ms,
            "states": outcome.explored_states, "truncated": outcome.truncated,
        }));
    }
    print_table(
        "§4.8.2 — Glint inference vs search-based checking (depth 5)",
        &[
            "rules",
            "Glint",
            "model check",
            "states explored",
            "truncated",
            "slowdown",
        ],
        &rows,
    );
    println!("\npaper shape: learned prediction stays near-constant per graph while exhaustive");
    println!("exploration blows up combinatorially with the rule count (path explosion).");
    record_json("efficiency", &serde_json::json!({ "rows": json }));
}
