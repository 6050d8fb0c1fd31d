//! End-to-end and per-layer benchmark of the trained Glint detector.
//!
//! Three workloads drive the real detector — a trained ITGNN-S classifier
//! and ITGNN-C embedder at the paper configuration over NLP rule features —
//! from rule text to verdict:
//!
//! - [`window`] (`window_stream`): online window graphs of simulated homes,
//!   `OnlineBuilder::build` + `GlintDetector::assess`, one caller;
//! - [`serve`] (`serve_score`): `/score` requests over loopback to
//!   `glint_serve::Server`, one client per core;
//! - [`fleet`] (`fleet_churn`): rule deltas through
//!   `IncrementalPipeline::ingest` over thousands of homes, one caller.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! the same operations through stopwatches around each layer's public
//! functions and reports the per-layer metrics. See `README.md`.

pub mod fleet;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod window;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["window_stream", "serve_score", "fleet_churn"];

/// Run one workload.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<run::Outcome, String> {
    match workload {
        "window_stream" => window::run(seed, seconds, traced),
        "serve_score" => serve::run(seed, seconds, traced),
        "fleet_churn" => fleet::run(seed, seconds, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Recount the census behind the `window_stream` and `serve_score`
/// operation mixes, in the form `inputs::STRATA` and
/// `inputs::SERVE_BODIES` record it.
pub fn census_report() -> String {
    use inputs::{CENSUS_HOMES, CENSUS_SEED, SERVE_BODIES, STRATA};
    let corpus = setup::corpus();
    let mut out = format!("census: {CENSUS_HOMES} homes of seed {CENSUS_SEED:#x} per workload\n");
    let windows = inputs::window_census(&corpus, CENSUS_SEED, CENSUS_HOMES);
    let total: usize = windows.iter().sum();
    out.push_str(&format!("window_stream: {total} windows\n"));
    for (s, n) in STRATA.iter().zip(&windows) {
        out.push_str(&format!(
            "  {:>2}-{:<2} nodes {:<10} {n:>6}  {:.4}\n",
            s.nodes.start(),
            s.nodes.end(),
            if s.vulnerable { "threat" } else { "benign" },
            *n as f64 / total as f64
        ));
    }
    let outside = windows[STRATA.len()];
    out.push_str(&format!(
        "  outside 2-50 nodes      {outside:>6}  {:.4}\n",
        outside as f64 / total as f64
    ));
    let bodies = inputs::serve_census(&corpus, CENSUS_SEED, CENSUS_HOMES);
    let total: usize = bodies.iter().sum();
    out.push_str(&format!(
        "serve_score: {total} distinct benign 2-12 node windows\n"
    ));
    for ((nodes, _), n) in SERVE_BODIES.iter().zip(&bodies) {
        out.push_str(&format!(
            "  {:>2}-{:<2} nodes        {n:>6}  {:.4}\n",
            nodes.start(),
            nodes.end(),
            *n as f64 / total as f64
        ));
    }
    out
}

/// The hex digest of one workload's inputs for `seed`.
pub fn inputs_digest(workload: &str, seed: u64) -> Result<String, String> {
    match workload {
        "window_stream" => window::digest(seed),
        "serve_score" => serve::digest(seed),
        "fleet_churn" => Ok(fleet::digest(seed)),
        other => Err(format!("unknown workload {other}")),
    }
}
