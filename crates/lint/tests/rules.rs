//! Fixture tests: every rule must (a) catch its violation fixture, (b) stay
//! silent on the clean fixture, and (c) honour a justified suppression
//! pragma. Fixtures are linted under masquerade workspace paths so the
//! path-scoped determinism rules apply; hot rules are driven by the call
//! graph, so the harness seeds `hot_entry_points` from the fixture's own
//! fn names (every fixture fn is an entry — maximally hot).

use glint_lint::syntax::FileSyntax;
use glint_lint::{lint_source, Config, Finding, RuleId};

/// A path inside a deterministic prefix — the determinism rules are live.
const HOT: &str = "crates/tensor/src/par.rs";

/// Config that makes every non-test fn in `src` a hot entry point, so every
/// rule is live at once.
fn all_rules_config(src: &str) -> Config {
    let mut cfg = Config::default();
    let fs = FileSyntax::parse(HOT, src);
    cfg.hot_entry_points = fs
        .fns
        .iter()
        .filter(|f| !f.is_test)
        .map(|f| f.name.clone())
        .collect();
    cfg
}

fn lint_fixture(src: &str) -> Vec<Finding> {
    lint_source(HOT, src, &all_rules_config(src))
}

fn count(findings: &[Finding], rule: RuleId) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn hash_collection_catches_hashmap_and_hashset() {
    let f = lint_fixture(include_str!("fixtures/bad_hash.rs"));
    assert!(count(&f, RuleId::HashCollection) >= 3, "{f:?}");
}

#[test]
fn hash_collection_is_scoped_to_deterministic_prefixes() {
    let src = include_str!("fixtures/bad_hash.rs");
    let f = lint_source("crates/ml/src/fixture.rs", src, &Config::default());
    assert_eq!(count(&f, RuleId::HashCollection), 0, "{f:?}");
}

#[test]
fn wall_clock_catches_instant_and_system_time() {
    let f = lint_fixture(include_str!("fixtures/bad_clock.rs"));
    assert!(count(&f, RuleId::WallClock) >= 2, "{f:?}");
}

#[test]
fn wall_clock_is_exempt_in_bench() {
    let src = include_str!("fixtures/bad_clock.rs");
    let f = lint_source("crates/bench/src/fixture.rs", src, &Config::default());
    assert_eq!(count(&f, RuleId::WallClock), 0, "{f:?}");
}

#[test]
fn partial_cmp_unwrap_catches_unwrap_and_expect() {
    let f = lint_fixture(include_str!("fixtures/bad_partial_cmp.rs"));
    assert_eq!(count(&f, RuleId::PartialCmpUnwrap), 2, "{f:?}");
}

#[test]
fn float_cmp_order_catches_partial_cmp_comparators() {
    let f = lint_fixture(include_str!("fixtures/bad_float_order.rs"));
    assert_eq!(count(&f, RuleId::FloatCmpOrder), 2, "{f:?}");
}

#[test]
fn float_eq_catches_float_equality() {
    let f = lint_fixture(include_str!("fixtures/bad_float_eq.rs"));
    assert_eq!(count(&f, RuleId::FloatEq), 2, "{f:?}");
}

#[test]
fn hot_rules_catch_unwrap_and_panic() {
    let f = lint_fixture(include_str!("fixtures/bad_hot.rs"));
    assert_eq!(count(&f, RuleId::HotUnwrap), 2, "{f:?}");
    assert!(count(&f, RuleId::HotPanic) >= 2, "{f:?}");
}

/// With the default config, nothing in the fixture is reachable from a real
/// entry point (`matmul`, `GlintDetector::assess`, …) — hotness comes from
/// the call graph, not the file path, so the same file lints clean.
#[test]
fn hot_rules_require_call_graph_reachability() {
    let src = include_str!("fixtures/bad_hot.rs");
    let f = lint_source(HOT, src, &Config::default());
    assert_eq!(count(&f, RuleId::HotUnwrap), 0, "{f:?}");
    assert_eq!(count(&f, RuleId::HotPanic), 0, "{f:?}");
}

/// Hotness propagates over calls: seeding only the caller still flags the
/// callee's violations.
#[test]
fn hotness_propagates_to_callees() {
    let src = r#"pub fn entry(v: &[f32]) -> f32 { helper(v) }
fn helper(v: &[f32]) -> f32 { v.iter().copied().next().unwrap() }
fn cold(v: &[f32]) -> f32 { v.iter().copied().last().unwrap() }
"#;
    let cfg = Config {
        hot_entry_points: vec!["entry".into()],
        ..Config::default()
    };
    let f = lint_source(HOT, src, &cfg);
    assert_eq!(count(&f, RuleId::HotUnwrap), 1, "{f:?}");
    assert_eq!(f[0].line, 2, "helper's unwrap, not cold's: {f:?}");
}

#[test]
fn concurrency_rules_fire_only_in_hot_fns() {
    let src = include_str!("fixtures/bad_concurrency.rs");
    let cfg = Config {
        hot_entry_points: vec!["hot_entry".into()],
        ..Config::default()
    };
    let f = lint_source(HOT, src, &cfg);
    assert_eq!(count(&f, RuleId::HotAtomicOrdering), 2, "{f:?}");
    assert_eq!(count(&f, RuleId::HotLock), 2, "{f:?}");
    // `cold_helper`'s AcqRel swap and lock are not reachable → silent.
    assert!(
        f.iter().all(|x| x.line < 24),
        "cold_helper must not fire: {f:?}"
    );
}

#[test]
fn catch_unwind_is_flagged_outside_degradation_layer() {
    let f = lint_fixture(include_str!("fixtures/bad_catch_unwind.rs"));
    assert_eq!(count(&f, RuleId::CatchUnwind), 2, "{f:?}");
}

#[test]
fn catch_unwind_is_allowed_in_degradation_files() {
    let src = include_str!("fixtures/bad_catch_unwind.rs");
    let f = lint_source("crates/core/src/detector.rs", src, &Config::default());
    assert_eq!(count(&f, RuleId::CatchUnwind), 0, "{f:?}");
}

/// Every justified pragma in the suppressed fixture must silence its
/// finding: the file lints completely clean — which also proves none of
/// its pragmas is reported as `unused-allow`.
#[test]
fn justified_pragmas_suppress_every_rule() {
    let f = lint_fixture(include_str!("fixtures/suppressed.rs"));
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

/// A well-formed, justified pragma that suppresses nothing is itself a
/// finding — one per stale (pragma, rule) pair.
#[test]
fn unused_allows_are_reported_per_rule() {
    let f = lint_fixture(include_str!("fixtures/bad_unused_allow.rs"));
    assert_eq!(count(&f, RuleId::UnusedAllow), 4, "{f:?}");
    assert_eq!(f.len(), 4, "nothing else may fire: {f:?}");
}

/// Acceptance: moving a hot helper into a different module changes no
/// verdicts. Hotness is call-graph reachability, not path membership, so
/// the same caller/callee pair must produce identical (rule, line, message)
/// findings wherever the callee file lives.
#[test]
fn moving_a_hot_helper_changes_no_verdicts() {
    let entry = "pub fn matmul(v: &[f32]) -> f32 { crate::helpers::pick(v) }\n";
    let helper = "pub fn pick(v: &[f32]) -> f32 { v.iter().copied().next().unwrap() }\n";
    let cfg = Config::default();
    let place = |helper_path: &str| {
        glint_lint::analyze_sources(
            &[
                ("crates/tensor/src/dense.rs".to_string(), entry.to_string()),
                (helper_path.to_string(), helper.to_string()),
            ],
            &cfg,
        )
    };
    let before = place("crates/tensor/src/helpers.rs");
    let after = place("crates/tensor/src/kernels/helpers.rs");
    let verdicts = |a: &glint_lint::Analysis| {
        a.findings
            .iter()
            .map(|f| (f.rule, f.line, f.message.clone()))
            .collect::<Vec<_>>()
    };
    // The helper IS hot (matmul is a default entry point): the unwrap fires.
    assert_eq!(count(&before.findings, RuleId::HotUnwrap), 1, "{before:?}");
    assert_eq!(verdicts(&before), verdicts(&after));
    // The census is equally move-invariant (site count and kinds).
    assert_eq!(before.census.sites.len(), after.census.sites.len());
}

/// The clean fixture has near misses only — strings, comments, doc comments,
/// total_cmp comparators, tuple indices, cfg(test) code — and none may fire.
#[test]
fn clean_fixture_has_no_findings() {
    let f = lint_fixture(include_str!("fixtures/clean.rs"));
    assert!(f.is_empty(), "expected no findings, got: {f:?}");
}

/// Malformed pragmas are findings themselves, and do not suppress anything.
#[test]
fn taint_flow_tracks_sources_into_sinks_across_calls() {
    let f = lint_fixture(include_str!("fixtures/bad_taint.rs"));
    assert!(count(&f, RuleId::TaintFlow) >= 1, "{f:?}");
    let t = f.iter().find(|x| x.rule == RuleId::TaintFlow).unwrap();
    assert!(
        !t.witness.is_empty(),
        "taint findings must carry a witness call chain: {t:?}"
    );
}

#[test]
fn taint_flow_honours_suppression_pragmas() {
    let src = include_str!("fixtures/bad_taint.rs").replace(
        "    let t = Instant::now();",
        "    // glint-lint: allow(taint-flow, wall-clock) — fixture justification\n    \
         let t = Instant::now();",
    );
    let f = lint_fixture(&src);
    assert_eq!(count(&f, RuleId::TaintFlow), 0, "{f:?}");
    assert_eq!(count(&f, RuleId::UnusedAllow), 0, "{f:?}");
}

#[test]
fn lock_order_rules_catch_cycles_and_holds_across_locking_callees() {
    let f = lint_fixture(include_str!("fixtures/bad_lock_order.rs"));
    assert!(count(&f, RuleId::LockCycle) >= 1, "{f:?}");
    assert!(count(&f, RuleId::LockAcrossCall) >= 1, "{f:?}");
}

#[test]
fn malformed_pragmas_are_reported_and_do_not_suppress() {
    let f = lint_fixture(include_str!("fixtures/bad_pragma.rs"));
    // unjustified, unknown rule, empty allow(), block comment → pragma
    // findings (the `glint-lint: float-eq is fine` comment lacks `allow(`
    // only after the prefix matches, so it is malformed too).
    assert!(count(&f, RuleId::Pragma) >= 4, "{f:?}");
    // ...and all five float-eq violations still fire (the unknown-rule and
    // block-comment pragmas must not silence their neighbours; the
    // unjustified one is rejected outright).
    assert_eq!(count(&f, RuleId::FloatEq), 5, "{f:?}");
}
