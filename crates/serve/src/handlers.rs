//! Request handlers: routing, deadline-pressure computation, and the
//! JSON wire format for all four endpoints.
//!
//! Every failure mode an attacker-controlled or overloaded network can
//! produce — malformed bytes, oversized bodies, missing fields, expired
//! deadlines, injected faults — comes back as a typed JSON error with an
//! appropriate status. The handlers never panic on input; the only
//! panics reaching [`crate::worker`] are injected faults or genuine bugs.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use glint_core::{DeadlinePressure, Degradation, Detection};
use glint_graph::{GraphLabel, InteractionGraph};
use serde_json::{json, Value};

use crate::clock;
use crate::http;
use crate::server::{Job, Shared};

/// Handle one admitted connection end-to-end: parse, route, score,
/// respond, record latency. Runs inside the worker's `catch_unwind`.
pub(crate) fn handle_connection(shared: &Shared, job: Job) {
    let Job {
        mut stream,
        admitted_at,
    } = job;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let (status, body) = match http::read_request(&mut stream, shared.cfg.max_body_bytes) {
        Ok(request) => route(shared, &request, admitted_at),
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            (400, error_body("parse", &e.to_string()))
        }
    };
    let (status, body) = if glint_failpoint::check(crate::SITE_RESPOND).is_some() {
        // Injected respond fault: the real payload is replaced by a typed
        // 500 so the client still gets an answer, never silence.
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        (
            500,
            error_body("respond", "injected fault while writing the response"),
        )
    } else {
        (status, body)
    };
    let _ = http::write_json(&mut stream, status, &body);
    shared.metrics.answered.fetch_add(1, Ordering::Relaxed);
    let latency = clock::now().saturating_duration_since(admitted_at);
    let us = latency.as_micros() as u64;
    shared.metrics.record_latency_us(us);
    if glint_trace::enabled() {
        glint_trace::counter("serve.answered", 1);
        glint_trace::histogram("serve.latency_ms", us as f64 / 1000.0);
    }
}

fn route(shared: &Shared, request: &http::Request, admitted_at: Instant) -> (u16, Value) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/score") => handle_score(shared, &request.body, admitted_at),
        ("POST", "/score_batch") => handle_score_batch(shared, &request.body, admitted_at),
        ("POST", "/feedback") => handle_feedback(shared, &request.body),
        ("GET", "/metrics") => handle_metrics(shared),
        (_, path) => (
            404,
            error_body("not_found", &format!("no route for {path}")),
        ),
    }
}

/// The request's deadline: client `deadline_ms` capped by the server
/// budget, burning from the moment the connection was admitted (queue
/// wait counts against the client's budget — that is the contract that
/// makes admission-time 429s honest).
fn request_deadline(shared: &Shared, body: &Value, admitted_at: Instant) -> Instant {
    let cap = shared.cfg.deadline_ms.max(1);
    let requested = body
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .unwrap_or(cap);
    admitted_at + Duration::from_millis(requested.clamp(1, cap))
}

/// Score one graph under the degradation ladder. The detector never sees
/// the clock — only the discrete pressure rung computed here.
fn score_one(shared: &Shared, graph: InteractionGraph, deadline: Instant) -> Detection {
    let now = clock::now();
    let pressure = if now >= deadline {
        DeadlinePressure::Expired
    } else if deadline.saturating_duration_since(now) < shared.estimated_full_cost() {
        DeadlinePressure::Tight
    } else {
        DeadlinePressure::Comfortable
    };
    let before = clock::now();
    let detection = shared.scorer.score(graph, pressure);
    match &detection.degradation {
        Degradation::None => {
            shared.metrics.full.fetch_add(1, Ordering::Relaxed);
            shared.observe_full_cost(clock::now().saturating_duration_since(before));
        }
        Degradation::DriftOnly(_) => {
            shared.metrics.drift_only.fetch_add(1, Ordering::Relaxed);
            if glint_trace::enabled() {
                glint_trace::counter("serve.degraded.drift_only", 1);
            }
        }
        Degradation::Quarantined(_) => {
            shared.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
            if glint_trace::enabled() {
                glint_trace::counter("serve.degraded.quarantined", 1);
            }
        }
    }
    detection
}

fn handle_score(shared: &Shared, body: &str, admitted_at: Instant) -> (u16, Value) {
    let parsed = match serde_json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_json", &e.to_string())),
    };
    if parsed.as_map().is_none() {
        return (400, error_body("bad_request", "body must be a JSON object"));
    }
    let Some(graph_value) = parsed.get("graph") else {
        return (400, error_body("bad_request", "missing `graph` field"));
    };
    let graph: InteractionGraph = match serde_json::from_value(graph_value) {
        Ok(g) => g,
        Err(e) => return (400, error_body("bad_graph", &e.to_string())),
    };
    let deadline = request_deadline(shared, &parsed, admitted_at);
    let detection = score_one(shared, graph, deadline);
    (200, detection_body(&detection))
}

/// Score `{"graphs": […]}` under one shared deadline. Later graphs feel
/// more pressure — a batch that started comfortably may finish on the
/// drift-only or quarantined rung, with the rung visible per-slot.
fn handle_score_batch(shared: &Shared, body: &str, admitted_at: Instant) -> (u16, Value) {
    let parsed = match serde_json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_json", &e.to_string())),
    };
    if parsed.as_map().is_none() {
        return (400, error_body("bad_request", "body must be a JSON object"));
    }
    let Some(graphs) = parsed.get("graphs").and_then(Value::as_seq) else {
        return (400, error_body("bad_request", "missing `graphs` array"));
    };
    let deadline = request_deadline(shared, &parsed, admitted_at);
    let mut results = Vec::with_capacity(graphs.len());
    let mut degraded = 0u64;
    for slot in graphs {
        match serde_json::from_value::<InteractionGraph>(slot) {
            Ok(graph) => {
                let detection = score_one(shared, graph, deadline);
                if detection.degradation != Degradation::None {
                    degraded += 1;
                }
                results.push(detection_body(&detection));
            }
            Err(e) => results.push(error_body("bad_graph", &e.to_string())),
        }
    }
    (200, json!({ "results": results, "degraded": degraded }))
}

fn handle_feedback(shared: &Shared, body: &str) -> (u16, Value) {
    let parsed = match serde_json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_json", &e.to_string())),
    };
    if parsed.as_map().is_none() {
        return (400, error_body("bad_request", "body must be a JSON object"));
    }
    let Some(graph_value) = parsed.get("graph") else {
        return (400, error_body("bad_request", "missing `graph` field"));
    };
    let graph: InteractionGraph = match serde_json::from_value(graph_value) {
        Ok(g) => g,
        Err(e) => return (400, error_body("bad_graph", &e.to_string())),
    };
    let Some(verdict_value) = parsed.get("verdict") else {
        return (
            400,
            error_body("bad_request", "missing `verdict` field (Normal|Threat)"),
        );
    };
    let verdict: GraphLabel = match serde_json::from_value(verdict_value) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_verdict", &e.to_string())),
    };
    let note = parsed
        .get("note")
        .and_then(Value::as_str)
        .unwrap_or("submitted via /feedback");
    let stored = {
        let mut store = shared
            .feedback
            // glint-lint: allow(hot-lock) — feedback writes are rare
            // (human-in-the-loop cadence); a poisoned store recovers via
            // into_inner since cases are appended atomically
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match verdict {
            GraphLabel::Normal => store.dismiss(graph, note),
            GraphLabel::Threat => store.confirm(graph, note),
        }
        store.len() as u64
    };
    if glint_trace::enabled() {
        glint_trace::counter("serve.feedback", 1);
    }
    (200, json!({ "stored": stored }))
}

fn handle_metrics(shared: &Shared) -> (u16, Value) {
    let uptime = clock::now().saturating_duration_since(shared.started);
    let [p50, p95, p99] = shared.metrics.percentiles_ms();
    let answered = shared.metrics.answered.load(Ordering::Relaxed);
    let body = json!({
        "uptime_s": uptime.as_secs_f64(),
        "qps": crate::metrics::safe_div(answered as f64, uptime.as_secs_f64()),
        "p50_latency_ms": p50,
        "p95_latency_ms": p95,
        "p99_latency_ms": p99,
        "deadline_ms": shared.cfg.deadline_ms,
        "queue_depth": shared.queue.backlog() as u64,
        "queue_capacity": shared.cfg.queue_capacity as u64,
        "accepted": shared.metrics.accepted.load(Ordering::Relaxed),
        "shed": shared.metrics.shed.load(Ordering::Relaxed),
        "answered": answered,
        "errors": shared.metrics.errors.load(Ordering::Relaxed),
        "verdicts": {
            "full": shared.metrics.full.load(Ordering::Relaxed),
            "drift_only": shared.metrics.drift_only.load(Ordering::Relaxed),
            "quarantined": shared.metrics.quarantined.load(Ordering::Relaxed),
        },
        "worker_respawns": shared.metrics.respawns.load(Ordering::Relaxed),
    });
    (200, body)
}

/// The `/score` wire format: verdict, probability (null when the verdict
/// is quarantined — NaN has no JSON encoding), drift evidence, and the
/// degradation rung with its reason, so a client can always tell a full
/// answer from a degraded one.
fn detection_body(detection: &Detection) -> Value {
    let (rung, reason) = match &detection.degradation {
        Degradation::None => ("full", Value::Null),
        Degradation::DriftOnly(reason) => ("drift_only", Value::Str(reason.clone())),
        Degradation::Quarantined(reason) => ("quarantined", Value::Str(reason.clone())),
    };
    let probability = if detection.threat_probability.is_finite() {
        Value::F64(f64::from(detection.threat_probability))
    } else {
        Value::Null
    };
    let warning = match &detection.warning {
        Some(w) => serde_json::to_value(w),
        None => Value::Null,
    };
    json!({
        "verdict": if detection.is_threat { "threat" } else { "normal" },
        "threat_probability": probability,
        "drifting": detection.drifting,
        "drift_degree": detection.drift_degree,
        "degradation": rung,
        "reason": reason,
        "warning": warning,
    })
}

/// Typed error payload shared by every failure path.
pub(crate) fn error_body(kind: &str, message: &str) -> Value {
    json!({ "error": { "kind": kind, "message": message } })
}
