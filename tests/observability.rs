//! Trace-layer integration tests: overhead, determinism, and export.
//!
//! Three contracts of `glint-trace` are pinned here, end to end through the
//! real training + detection pipeline:
//!
//! 1. **Bitwise invisibility** — running the identical pipeline with
//!    tracing off and with tracing on produces bit-identical trained
//!    parameters and detection verdicts. Instrumentation may observe the
//!    computation, never steer it.
//! 2. **Deterministic capture** — counter values, span counts, and
//!    histogram buckets are exact functions of the work performed (epoch
//!    counts, verdict rungs), so the trace tree doubles as a test oracle.
//! 3. **Valid export** — the JSON snapshot re-parses with the workspace's
//!    own `serde_json`, carries the schema version, and maps non-finite
//!    samples to `null` rather than emitting invalid tokens. With
//!    `GLINT_TRACE=1` in the environment this test also refreshes the
//!    repo-root `BENCH_trace.json` snapshot that CI validates.
//!
//! The trace registry and its enable gate are process-global, so every test
//! serializes on one mutex and leaves the gate the way the environment
//! asked for it.

use glint_core::construction::OfflineBuilder;
use glint_core::detector::{Degradation, GlintDetector};
use glint_core::drift::DriftDetector;
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{GraphModel, Itgnn, ItgnnConfig};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_graph::InteractionGraph;
use glint_rules::scenarios::table1_rules;
use glint_rules::Platform;
use glint_tensor::optim::ParamId;
use std::path::Path;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Hold the global-trace lock for one scenario and leave the gate in the
/// state the environment requested, whatever the scenario toggled.
fn with_trace_lock<T>(f: impl FnOnce() -> T) -> T {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let out = f();
    glint_trace::set_enabled(env_wants_tracing());
    out
}

fn env_wants_tracing() -> bool {
    std::env::var("GLINT_TRACE").is_ok_and(|v| !v.is_empty() && v != "0" && v != "false")
}

const CLASSIFIER_EPOCHS: usize = 3;
const EMBEDDER_EPOCHS: usize = 2;
const HEALTHY_GRAPHS: usize = 3;

/// Everything numerically observable from one pipeline run, as raw bits.
#[derive(Debug, PartialEq, Eq)]
struct PipelineDigest {
    classifier_param_bits: Vec<u32>,
    embedder_param_bits: Vec<u32>,
    /// Per assessment: drift-degree bits, probability bits, rung name.
    verdicts: Vec<(u64, u32, &'static str)>,
}

fn param_bits(model: &impl GraphModel) -> Vec<u32> {
    let params = model.params();
    (0..params.len())
        .flat_map(|i| params.get(ParamId(i)).data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Train a tiny classifier + embedder on the Table 1 house, then assess
/// three healthy graphs and one NaN-poisoned graph. Fully seeded: two runs
/// in the same build must agree bit for bit, traced or not.
fn run_pipeline() -> PipelineDigest {
    let rules = table1_rules();
    let builder = OfflineBuilder::new(rules.clone(), 5);
    let mut ds = builder.build_dataset(Platform::all(), 16, 6, true);
    ds.oversample_threats(1);
    let prepared = PreparedGraph::prepare_all(ds.graphs());
    let types = GraphSchema::infer(ds.graphs().iter()).types;
    let cfg = ItgnnConfig {
        hidden: 10,
        embed: 6,
        n_scales: 2,
        ..Default::default()
    };
    let mut classifier = Itgnn::new(&types, cfg.clone());
    ClassifierTrainer::new(TrainConfig {
        epochs: CLASSIFIER_EPOCHS,
        ..Default::default()
    })
    .train(&mut classifier, &prepared);
    let mut embedder = Itgnn::new(&types, cfg);
    ContrastiveTrainer::new(TrainConfig {
        epochs: EMBEDDER_EPOCHS,
        ..Default::default()
    })
    .train(&mut embedder, &prepared);
    let emb = ContrastiveTrainer::embed_all(&embedder, &prepared);
    let labels: Vec<usize> = prepared.iter().map(|g| g.label.unwrap()).collect();
    let drift = DriftDetector::fit(&emb, &labels);

    let digest_classifier = param_bits(&classifier);
    let digest_embedder = param_bits(&embedder);
    let detector = GlintDetector::new(rules, classifier, embedder, drift);

    let mut graphs: Vec<InteractionGraph> = ds
        .graphs()
        .iter()
        .take(HEALTHY_GRAPHS + 1)
        .cloned()
        .collect();
    assert_eq!(graphs.len(), HEALTHY_GRAPHS + 1, "dataset too small");
    // poison the last graph so one assessment lands on the quarantine rung
    let poisoned = {
        let g = graphs.last().unwrap();
        let mut nodes = g.nodes().to_vec();
        nodes[0].features[0] = f32::NAN;
        let mut bad = InteractionGraph::new(nodes);
        for &(s, d, k) in g.edges() {
            bad.add_edge(s, d, k);
        }
        bad
    };
    *graphs.last_mut().unwrap() = poisoned;

    let verdicts = graphs
        .into_iter()
        .map(|g| {
            let det = detector.assess(g);
            let rung = match det.degradation {
                Degradation::None => "full",
                Degradation::DriftOnly(_) => "drift_only",
                Degradation::Quarantined(_) => "quarantined",
            };
            (
                det.drift_degree.to_bits(),
                det.threat_probability.to_bits(),
                rung,
            )
        })
        .collect();

    PipelineDigest {
        classifier_param_bits: digest_classifier,
        embedder_param_bits: digest_embedder,
        verdicts,
    }
}

/// Contract 1: the disabled path is bitwise invisible. The traced run pays
/// for counters, spans, and the grad-norm gauge; none of it may perturb a
/// single bit of the trained parameters or the verdicts.
#[test]
fn tracing_on_or_off_is_bitwise_identical() {
    with_trace_lock(|| {
        glint_trace::set_enabled(false);
        glint_trace::reset();
        let off = run_pipeline();

        glint_trace::set_enabled(true);
        glint_trace::reset();
        let on = run_pipeline();

        assert!(
            !off.classifier_param_bits.is_empty() && !off.embedder_param_bits.is_empty(),
            "digest must actually cover parameters"
        );
        assert_eq!(
            off, on,
            "instrumentation changed the computation it was observing"
        );
        // and the disabled run really did record nothing
        glint_trace::set_enabled(false);
        glint_trace::reset();
        let _ = run_pipeline();
        assert_eq!(glint_trace::counter_value("train.epochs"), 0);
        assert_eq!(glint_trace::span_count("assess"), 0);
    });
}

/// Contracts 2 and 3: exact counter/span/histogram capture for a known
/// workload, and a shim-parseable JSON export of that capture.
#[test]
fn trace_capture_is_an_exact_oracle_and_exports_valid_json() {
    with_trace_lock(|| {
        glint_trace::set_enabled(true);
        glint_trace::reset();
        let digest = run_pipeline();

        // --- training side: epochs and steps are exact counts -------------
        let total_epochs = (CLASSIFIER_EPOCHS + EMBEDDER_EPOCHS) as u64;
        assert_eq!(glint_trace::counter_value("train.epochs"), total_epochs);
        assert_eq!(glint_trace::span_count("classifier_train"), 1);
        assert_eq!(glint_trace::span_count("contrastive_train"), 1);
        assert_eq!(
            glint_trace::span_count("classifier_train/epoch"),
            CLASSIFIER_EPOCHS as u64
        );
        assert_eq!(
            glint_trace::span_count("contrastive_train/epoch"),
            EMBEDDER_EPOCHS as u64
        );
        assert!(
            glint_trace::counter_value("train.steps") >= total_epochs,
            "every epoch takes at least one optimizer step"
        );
        let loss = glint_trace::gauge_value("train.loss").expect("loss gauge set");
        assert!(loss.is_finite());
        assert!(
            glint_trace::gauge_value("train.grad_norm").is_some(),
            "grad-norm gauge set"
        );
        // tensor kernels under the epochs must have been counted
        assert!(glint_trace::counter_value("tensor.matmul.calls") > 0);
        assert!(glint_trace::counter_value("tensor.backward.calls") > 0);

        // --- detection side: one counter per rung, one histogram sample
        //     per non-quarantined assessment (the quarantined verdict has no
        //     drift degree — only its rung counter records it) -------------
        let full = digest.verdicts.iter().filter(|v| v.2 == "full").count() as u64;
        let drift_only = digest
            .verdicts
            .iter()
            .filter(|v| v.2 == "drift_only")
            .count() as u64;
        assert_eq!(
            glint_trace::span_count("assess"),
            (HEALTHY_GRAPHS + 1) as u64
        );
        assert_eq!(glint_trace::counter_value("detector.verdict.full"), full);
        assert_eq!(
            glint_trace::counter_value("detector.verdict.drift_only"),
            drift_only
        );
        assert_eq!(
            glint_trace::counter_value("detector.verdict.quarantined"),
            1
        );
        assert_eq!(
            glint_trace::histogram_total("detector.drift_degree"),
            HEALTHY_GRAPHS as u64
        );
        let drift_hist = glint_trace::snapshot()
            .histograms
            .get("detector.drift_degree")
            .cloned()
            .expect("drift-degree histogram recorded");
        assert_eq!(
            drift_hist.nonfinite, 0,
            "quarantined verdicts must not feed NaN into the drift histogram"
        );

        // --- export: the snapshot re-parses with the workspace serde_json -
        let json = glint_trace::export::to_json(&glint_trace::snapshot(), "observability_test");
        let value: serde_json::Value =
            serde_json::from_str(&json).expect("export must be valid JSON");
        assert!(value.as_map().is_some(), "top level is an object");
        let field = |name: &str| {
            value
                .get(name)
                .unwrap_or_else(|| panic!("export missing `{name}`"))
        };
        assert_eq!(field("run").as_str(), Some("observability_test"));
        assert_eq!(
            field("schema").as_u64(),
            Some(glint_trace::export::SCHEMA_VERSION)
        );
        assert!(field("counters").as_map().is_some(), "counters object");
        let epochs_json = field("counters")
            .get("train.epochs")
            .and_then(|v| v.as_u64());
        assert_eq!(epochs_json, Some(total_epochs));
        assert!(field("spans").as_map().is_some());
        assert!(field("histograms").as_map().is_some());

        // with GLINT_TRACE set, refresh the repo-root snapshot CI validates
        if env_wants_tracing() {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_trace.json");
            glint_trace::export::write_json_to(&path, "cargo_test_observability")
                .expect("write BENCH_trace.json");
        }
    });
}

/// The repo-root `BENCH_trace.json` snapshot must always re-parse with the
/// workspace's own JSON layer and carry the schema header. CI invokes this
/// by name right after the trace-enabled pass regenerates the file; in a
/// plain run it validates the committed snapshot. (Skips only if the file
/// is absent — CI checks existence separately.)
#[test]
fn bench_trace_snapshot_file_is_valid_when_present() {
    with_trace_lock(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_trace.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return;
        };
        let value: serde_json::Value =
            serde_json::from_str(&text).expect("BENCH_trace.json is malformed");
        assert!(value.as_map().is_some(), "top level must be an object");
        let field = |name: &str| value.get(name);
        assert_eq!(
            field("schema").and_then(|v| v.as_u64()),
            Some(glint_trace::export::SCHEMA_VERSION),
            "schema version header missing or wrong"
        );
        assert!(
            field("run")
                .and_then(|v| v.as_str())
                .is_some_and(|r| !r.is_empty()),
            "run name missing"
        );
        for section in ["counters", "gauges", "histograms", "spans"] {
            assert!(
                field(section).and_then(|v| v.as_map()).is_some(),
                "section `{section}` missing"
            );
        }
    });
}

/// The repo-root `BENCH_inference.json` snapshot (emitted by the
/// `micro_inference` harness's deterministic serving workload) must
/// re-parse with the workspace's own JSON layer, carry the schema header,
/// and prove the tape-free serving contract: at least a 10× reduction in
/// `tensor.alloc.matrices` against the `BENCH_trace.json` training
/// baseline. CI invokes this by name right after regenerating the file;
/// in a plain run it validates the committed snapshots. (Skips only if
/// the file is absent — CI checks existence separately.)
#[test]
fn bench_inference_snapshot_file_is_valid_when_present() {
    with_trace_lock(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_inference.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return;
        };
        let value: serde_json::Value =
            serde_json::from_str(&text).expect("BENCH_inference.json is malformed");
        assert!(value.as_map().is_some(), "top level must be an object");
        let field = |name: &str| value.get(name);
        assert_eq!(
            field("schema").and_then(|v| v.as_u64()),
            Some(glint_trace::export::SCHEMA_VERSION),
            "schema version header missing or wrong"
        );
        for section in ["counters", "gauges", "histograms", "spans"] {
            assert!(
                field(section).and_then(|v| v.as_map()).is_some(),
                "section `{section}` missing"
            );
        }
        let counter = |name: &str| {
            field("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
        };
        let allocs = counter("tensor.alloc.matrices")
            .expect("serving snapshot must report tensor.alloc.matrices");
        assert!(
            counter("serve.steps").is_some_and(|s| s > 0),
            "serving snapshot must record its step count"
        );
        // the 10x gate, re-checked against the committed training baseline
        let trace_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_trace.json");
        if let Ok(trace_text) = std::fs::read_to_string(&trace_path) {
            let trace: serde_json::Value =
                serde_json::from_str(&trace_text).expect("BENCH_trace.json is malformed");
            let baseline = trace
                .get("counters")
                .and_then(|c| c.get("tensor.alloc.matrices"))
                .and_then(|v| v.as_u64());
            if let Some(base) = baseline {
                assert!(
                    allocs * 10 <= base,
                    "serving allocations ({allocs}) must be >=10x below the \
                     training baseline ({base})"
                );
            }
        }
    });
}

/// The repo-root `BENCH_serve.json` snapshot (emitted by the
/// `micro_serve` harness against a live loopback server) must re-parse
/// with the workspace's own JSON layer, carry its schema header, keep
/// the admission accounting exact (`accepted + shed == sent`), and hold
/// the committed p95 latency budget. CI invokes this by name right after
/// regenerating the file; in a plain run it validates the committed
/// snapshot. (Skips only if the file is absent — CI checks existence
/// separately.)
#[test]
fn bench_serve_snapshot_file_is_valid_when_present() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let value: serde_json::Value =
        serde_json::from_str(&text).expect("BENCH_serve.json is malformed");
    assert!(value.as_map().is_some(), "top level must be an object");
    let field = |name: &str| value.get(name);
    assert_eq!(
        field("schema").and_then(|v| v.as_u64()),
        Some(1),
        "schema version header missing or wrong"
    );
    assert_eq!(
        field("run").and_then(|v| v.as_str()),
        Some("micro_serve"),
        "run name missing or wrong"
    );
    assert!(
        field("qps")
            .and_then(|v| v.as_f64())
            .is_some_and(|q| q > 0.0),
        "qps must be present and positive"
    );
    let latency = field("latency_ms")
        .filter(|v| v.as_map().is_some())
        .expect("latency_ms section missing");
    let pctl = |name: &str| {
        latency
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    let (p50, p95, p99) = (pctl("p50"), pctl("p95"), pctl("p99"));
    assert!(
        p50.is_finite() && p95.is_finite() && p99.is_finite() && p50 <= p95 && p95 <= p99,
        "latency percentiles must be finite and ordered: p50 {p50}, p95 {p95}, p99 {p99}"
    );
    let budget = field("p95_budget_ms")
        .and_then(|v| v.as_f64())
        .expect("snapshot must record its p95 budget");
    assert!(
        p95 <= budget,
        "recorded p95 {p95} ms exceeds the committed budget {budget} ms"
    );
    let requests = field("requests")
        .filter(|v| v.as_map().is_some())
        .expect("requests section missing");
    let req = |name: &str| {
        requests
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("requests.{name} missing"))
    };
    assert_eq!(
        req("accepted") + req("shed"),
        req("sent"),
        "admission accounting must be exact"
    );
    assert!(
        field("degraded")
            .and_then(|d| d.get("drift_only"))
            .is_some(),
        "degraded section must break out the drift_only rung"
    );
}

/// The repo-root `BENCH_scale.json` snapshot (emitted by the `micro_scale`
/// churn harness) must re-parse with the workspace's own JSON layer, carry
/// its schema header and counter set, keep the latency percentiles finite
/// and ordered, and hold the incremental-work ratchet: pairs re-mined and
/// homes re-embedded both strictly below their full-rebuild counterparts.
/// CI invokes this by name right after the scale smoke stage; in a plain
/// run it validates the committed snapshot. (Skips only if the file is
/// absent — CI checks existence separately.)
#[test]
fn bench_scale_snapshot_file_is_valid_when_present() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_scale.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let value: serde_json::Value =
        serde_json::from_str(&text).expect("BENCH_scale.json is malformed");
    assert!(value.as_map().is_some(), "top level must be an object");
    let field = |name: &str| value.get(name);
    assert_eq!(
        field("schema").and_then(|v| v.as_u64()),
        Some(1),
        "schema version header missing or wrong"
    );
    assert_eq!(
        field("run").and_then(|v| v.as_str()),
        Some("micro_scale"),
        "run name missing or wrong"
    );
    assert!(
        field("homes")
            .and_then(|v| v.as_u64())
            .is_some_and(|h| h > 0),
        "home count must be present and positive"
    );

    let counters = field("counters")
        .filter(|v| v.as_map().is_some())
        .expect("counters section missing");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counters.{name} missing"))
    };
    assert_eq!(
        counter("verdicts"),
        counter("churn_deltas"),
        "every churn delta must produce exactly one verdict"
    );
    // the scale ratchet: incremental work strictly below a full rebuild
    assert!(
        counter("remined_pairs") < counter("full_mine_pairs"),
        "re-mined neighborhood must stay below the full-corpus pair count"
    );
    assert!(
        counter("reembedded") < counter("full_reembed"),
        "dirty-subgraph re-embeds must stay below full-corpus re-embeds"
    );

    let latency = field("latency_ms")
        .filter(|v| v.as_map().is_some())
        .expect("latency_ms section missing");
    let pctl = |name: &str| {
        latency
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    let (p50, p95, p99) = (pctl("p50"), pctl("p95"), pctl("p99"));
    assert!(
        p50.is_finite() && p95.is_finite() && p99.is_finite() && p50 <= p95 && p95 <= p99,
        "latency percentiles must be finite and ordered: p50 {p50}, p95 {p95}, p99 {p99}"
    );
    assert!(
        field("peak_rss_kb").and_then(|v| v.as_u64()).is_some(),
        "peak RSS must be recorded"
    );
    let ratchet = field("ratchet")
        .filter(|v| v.as_map().is_some())
        .expect("ratchet section missing");
    assert_eq!(
        ratchet.get("pass"),
        Some(&serde_json::Value::Bool(true)),
        "the committed snapshot must record a passing ratchet"
    );
}

/// The non-finite convention in isolation: NaN and ±∞ samples are counted
/// but never bucketed, and export as `null` rather than bare `NaN` tokens
/// that would break any downstream JSON parser.
#[test]
fn non_finite_histogram_samples_export_as_null() {
    with_trace_lock(|| {
        glint_trace::set_enabled(true);
        glint_trace::reset();
        glint_trace::histogram("synthetic.values", 0.2);
        glint_trace::histogram("synthetic.values", f64::NAN);
        glint_trace::histogram("synthetic.values", f64::INFINITY);
        assert_eq!(glint_trace::histogram_total("synthetic.values"), 3);

        let json = glint_trace::export::to_json(&glint_trace::snapshot(), "synthetic");
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "non-finite values must never reach the JSON text: {json}"
        );
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let hist = value
            .get("histograms")
            .and_then(|h| h.get("synthetic.values"))
            .filter(|h| h.as_map().is_some())
            .expect("synthetic.values histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(hist.get("nonfinite").and_then(|v| v.as_u64()), Some(2));
    });
}
