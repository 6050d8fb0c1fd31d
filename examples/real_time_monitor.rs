//! Real-time monitoring: simulate a day in the Figure 10 testbed home,
//! inject an attack, and watch Glint screen successive log windows.
//!
//! The offline stage is fault-tolerant: training checkpoints every other
//! epoch (kill the process mid-training and rerun — it resumes from the
//! last epoch boundary, bitwise-exact), and the trained parameters persist
//! to disk so later runs restore instead of retraining. The online stage
//! reports degradation events — windows where the detector fell back to
//! drift-only scoring or quarantined the graph — instead of crashing.
//!
//! Run: `cargo run --release --example real_time_monitor`
//! (run twice to see the warm-start path; delete `target/monitor_state/`
//! to retrain from scratch)
//!
//! With `--serve`, the online stage runs as a client of a local
//! `glint-serve` instance instead of calling the detector in-process:
//! each window graph is POSTed to `/score`, one verdict is corrected via
//! `/feedback`, and `/metrics` is printed before graceful shutdown.

use std::path::Path;
use std::sync::Arc;

use glint_suite::core::construction::{node_features, OfflineBuilder};
use glint_suite::core::drift::DriftDetector;
use glint_suite::core::{persist, Degradation, GlintDetector};
use glint_suite::gnn::batch::{GraphSchema, PreparedGraph};
use glint_suite::gnn::models::{Itgnn, ItgnnConfig};
use glint_suite::gnn::trainer::{
    CheckpointPolicy, ClassifierTrainer, ContrastiveTrainer, TrainConfig,
};
use glint_suite::graph::OnlineBuilder;
use glint_suite::rules::event::EventLog;
use glint_suite::rules::scenarios::table1_rules;
use glint_suite::rules::{Platform, Rule};
use glint_suite::serve::{client, Scorer, ServeConfig, Server};
use glint_suite::testbed::attack::{inject, AttackKind};
use glint_suite::testbed::home::figure10_home;
use glint_suite::testbed::sim::{SimConfig, Simulator};
use serde_json::{json, Value};

fn main() {
    let rules = table1_rules();
    let state_dir = Path::new("target/monitor_state");
    if let Err(e) = std::fs::create_dir_all(state_dir) {
        eprintln!("cannot create {}: {e}", state_dir.display());
        std::process::exit(1);
    }
    let clf_path = state_dir.join("classifier.params");
    let emb_path = state_dir.join("embedder.params");

    // offline: train the detector pair on oracle-labeled samples, or
    // restore a previous run's parameters from disk
    let builder = OfflineBuilder::new(rules.clone(), 7);
    let mut dataset = builder.build_dataset(Platform::all(), 80, 6, true);
    dataset.oversample_threats(7);
    let prepared = PreparedGraph::prepare_all(dataset.graphs());
    let schema = GraphSchema::infer(dataset.iter());
    let cfg = ItgnnConfig {
        hidden: 32,
        embed: 32,
        ..Default::default()
    };

    let mut classifier = Itgnn::new(&schema.types, cfg.clone());
    let mut embedder = Itgnn::new(&schema.types, cfg);
    let restored = persist::load_params(&mut classifier, &clf_path).is_ok()
        && persist::load_params(&mut embedder, &emb_path).is_ok();
    if restored {
        println!(
            "Offline stage: restored trained parameters from {}",
            state_dir.display()
        );
    } else {
        println!("Offline stage: training detector (checkpointing every 2 epochs)…");
        let clf_policy = CheckpointPolicy::new(state_dir.join("classifier.ckpt"), 2);
        if let Err(e) = ClassifierTrainer::new(TrainConfig {
            epochs: 8,
            ..Default::default()
        })
        .train_resumable(&mut classifier, &prepared, &clf_policy)
        {
            eprintln!("classifier training interrupted: {e}");
            eprintln!("rerun to resume from the last checkpoint");
            std::process::exit(1);
        }
        let emb_policy = CheckpointPolicy::new(state_dir.join("embedder.ckpt"), 2);
        if let Err(e) = ContrastiveTrainer::new(TrainConfig {
            epochs: 5,
            ..Default::default()
        })
        .train_resumable(&mut embedder, &prepared, &emb_policy)
        {
            eprintln!("embedder training interrupted: {e}");
            eprintln!("rerun to resume from the last checkpoint");
            std::process::exit(1);
        }
        // Durable, checksummed saves; a torn write leaves the previous
        // generation intact and the next run simply retrains.
        for (model, path) in [(&classifier, &clf_path), (&embedder, &emb_path)] {
            if let Err(e) = persist::save_params(model, path) {
                eprintln!("warning: could not persist {}: {e}", path.display());
            }
        }
    }

    let emb = ContrastiveTrainer::embed_all(&embedder, &prepared);
    let labels: Vec<usize> = prepared.iter().map(|g| g.label.unwrap()).collect();
    let drift = DriftDetector::fit(&emb, &labels);
    let detector = GlintDetector::new(rules.clone(), classifier, embedder, drift);

    // online: a simulated day with a stealthy-command attack injected
    println!("Online stage: simulating 24 h of home activity…");
    let config = SimConfig {
        seed: 42,
        duration_hours: 24.0,
        ..Default::default()
    };
    let log = Simulator::new(figure10_home(), rules.clone(), config).run();
    let log = inject(&log, AttackKind::StealthyCommand, 99);
    println!(
        "  event log: {} records (stealthy vacuum command injected)",
        log.len()
    );

    if std::env::args().any(|a| a == "--serve") {
        serve_mode(detector, &rules, &log);
        return;
    }

    // screen 3-hour windows
    let mut warned = 0;
    let mut degraded = 0;
    for w in 0..8 {
        let from = w as f64 * 3.0 * 3600.0;
        let to = from + 3.0 * 3600.0;
        let det = detector.process_window(&log, from, to);
        let flag = if det.is_threat {
            "THREAT"
        } else if det.drifting {
            "DRIFT"
        } else {
            "ok"
        };
        println!(
            "  window {:>2}h–{:>2}h: {} rules, {} edges, p(threat)={:.2}, drift={:.2} → {}",
            w * 3,
            (w + 1) * 3,
            det.graph.n_nodes(),
            det.graph.n_edges(),
            det.threat_probability,
            det.drift_degree,
            flag
        );
        match &det.degradation {
            Degradation::None => {}
            Degradation::DriftOnly(reason) => {
                degraded += 1;
                println!("    degraded (drift-only fallback): {reason}");
            }
            Degradation::Quarantined(reason) => {
                degraded += 1;
                println!("    degraded (window quarantined): {reason}");
            }
        }
        if let Some(warning) = det.warning {
            warned += 1;
            if warned == 1 {
                println!("\n{}", warning.render());
            }
        }
    }
    println!("\nWindows with warnings: {warned}/8, degraded windows: {degraded}/8");
}

/// Run the online stage over HTTP: boot a local `glint-serve` instance
/// around the trained detector, build each window graph client-side with
/// the same online constructor, and POST it to `/score`. Exercises all
/// four endpoints end-to-end, then shuts down gracefully.
fn serve_mode(detector: GlintDetector<Itgnn, Itgnn>, rules: &[Rule], log: &EventLog) {
    println!("Serve mode: booting glint-serve on an ephemeral port…");
    let server = match Server::start(
        Arc::new(detector) as Arc<dyn Scorer>,
        ServeConfig {
            // a generous budget: the point here is the wire format, not
            // deadline pressure (see tests/serve_overload.rs for that)
            deadline_ms: 1_000,
            ..Default::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not start glint-serve: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    println!("  listening on http://{addr}");

    let builder = OnlineBuilder;
    let mut degraded = 0;
    let mut first_threat = None;
    for w in 0..8 {
        let from = w as f64 * 3.0 * 3600.0;
        let to = from + 3.0 * 3600.0;
        let graph = builder.build(rules, log, from, to, &node_features);
        if first_threat.is_none() {
            first_threat = Some(graph.clone());
        }
        let body = json!({ "graph": serde_json::to_value(&graph), "deadline_ms": 1_000u64 });
        match client::post(&addr, "/score", &body) {
            Ok((200, verdict)) => {
                let flag = verdict.get("verdict").and_then(Value::as_str);
                let rung = verdict.get("degradation").and_then(Value::as_str);
                let p = verdict.get("threat_probability").and_then(Value::as_f64);
                println!(
                    "  window {:>2}h–{:>2}h: p(threat)={} → {} [{}]",
                    w * 3,
                    (w + 1) * 3,
                    p.map_or("null".to_string(), |p| format!("{p:.2}")),
                    flag.unwrap_or("?"),
                    rung.unwrap_or("?"),
                );
                if rung != Some("full") {
                    degraded += 1;
                }
                if flag == Some("threat") {
                    first_threat = Some(graph);
                }
            }
            Ok((status, body)) => {
                println!("  window {:>2}h: HTTP {status}: {body:?}", w * 3);
            }
            Err(e) => {
                eprintln!("  window {:>2}h: request failed: {e}", w * 3);
            }
        }
    }

    // human-in-the-loop correction: dismiss one verdict as a false alarm
    if let Some(graph) = first_threat {
        let body = json!({
            "graph": serde_json::to_value(&graph),
            "verdict": "Normal",
            "note": "operator reviewed: scheduled vacuum run, not an attack",
        });
        match client::post(&addr, "/feedback", &body) {
            Ok((200, reply)) => println!("  feedback stored: {reply:?}"),
            Ok((status, reply)) => println!("  feedback rejected: HTTP {status}: {reply:?}"),
            Err(e) => eprintln!("  feedback failed: {e}"),
        }
    }

    match client::get(&addr, "/metrics") {
        Ok((200, metrics)) => println!("\n/metrics: {metrics:?}"),
        Ok((status, _)) => println!("\n/metrics returned HTTP {status}"),
        Err(e) => eprintln!("\n/metrics failed: {e}"),
    }
    println!("Degraded windows (served): {degraded}/8");
    server.shutdown();
    println!("Server drained and shut down.");
}
