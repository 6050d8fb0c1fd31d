//! Tier-1 self-test: the workspace must be clean under its own invariant
//! checker. A `partial_cmp(..).unwrap()`, a float-literal `==`, a clock or
//! hash-ordered source that reaches a verdict, or an unwrap/panic/lock in a
//! call-graph-hot fn fails this test with a file:line report — the same
//! output `scripts/ci.sh` prints from the `glint-lint` binary stage. The
//! per-site bans on hash collections, wall-clock reads and `catch_unwind`
//! are clippy's; this file checks that `clippy.toml` still lists them.
//!
//! Also validates the analysis layer itself: every crate's sources are
//! visited, the BENCH_lint.json report parses under the serde_json shim,
//! and the allocation census is consistent with the `tensor.alloc.*`
//! counters the trace layer records at runtime.

use std::path::Path;

fn analysis() -> glint_lint::Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    glint_lint::lint_workspace_with(root, &glint_lint::Config::default())
        .expect("workspace sources must be readable")
}

#[test]
fn workspace_is_lint_clean() {
    let findings = analysis().findings;
    assert!(
        findings.is_empty(),
        "glint-lint found {} invariant violation(s):\n{}",
        findings.len(),
        glint_lint::report::human(&findings)
    );
}

/// clippy enforces the bans on hash collections, wall-clock reads and
/// `catch_unwind` through `clippy.toml`. `HashSet` and `SystemTime::now`
/// have no `#[expect]` site whose expectation would go unfulfilled, so
/// deleting their entries, or the whole file, would otherwise pass CI.
#[test]
fn clippy_toml_bans_hash_collections_clocks_and_catch_unwind() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("clippy.toml"))
        .expect("clippy.toml must exist at the workspace root");
    let code = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let banned = |key: &str| -> Vec<&str> {
        let start = code
            .find(&format!("{key} = ["))
            .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
        let list = &code[start..];
        let list = &list[..list.find(']').expect("unterminated list")];
        list.split("path = \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect()
    };
    let types = banned("disallowed-types");
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&path),
            "clippy.toml must ban `{path}`: {types:?}"
        );
    }
    let methods = banned("disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::panic::catch_unwind",
    ] {
        assert!(
            methods.contains(&path),
            "clippy.toml must ban `{path}`: {methods:?}"
        );
    }
}

/// The analyzer must visit every crate in the workspace — a crate whose
/// sources are silently skipped would lint "clean" by omission.
#[test]
fn every_crate_src_is_visited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = glint_lint::workspace_sources(root).expect("workspace sources must be readable");
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ must exist");
    for entry in crates {
        let entry = entry.expect("readable dir entry");
        if !entry.path().join("src").is_dir() {
            continue;
        }
        let prefix = format!("crates/{}/src/", entry.file_name().to_string_lossy());
        assert!(
            sources.iter().any(|(path, _)| path.starts_with(&prefix)),
            "no sources visited under {prefix}"
        );
    }
    // The root binary crate rides along too.
    assert!(
        sources.iter().any(|(path, _)| path.starts_with("src/")),
        "root src/ not visited"
    );
}

/// The machine-readable report must parse under the workspace's own
/// serde_json shim and carry the sections ci.sh gates on.
#[test]
fn bench_report_parses_under_serde_json_shim() {
    let a = analysis();
    let doc = glint_lint::report::bench_json(&a);
    let value: serde_json::Value = serde_json::from_str(&doc).expect("BENCH_lint.json must parse");
    let map = value.as_map().expect("top level must be an object");
    let field = |name: &str| {
        map.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field `{name}` in BENCH_lint.json"))
    };
    let graph = field("graph").as_map().expect("graph must be an object");
    for key in ["files", "fns", "resolved_calls", "hot_fns"] {
        let v = graph
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or_else(|| panic!("graph.{key} must be a number"));
        assert!(v > 0, "graph.{key} must be positive");
    }
    let census = field("census").as_map().expect("census must be an object");
    let total = census
        .iter()
        .find(|(k, _)| k == "total_sites")
        .and_then(|(_, v)| v.as_u64())
        .expect("census.total_sites must be a number");
    assert_eq!(total as usize, a.census.sites.len());
    // The baseline gate reads the same document back.
    assert_eq!(
        glint_lint::report::baseline_total_sites(&doc),
        Some(a.census.sites.len())
    );
    // v3: the panic-surface certificate must be present, non-empty, and
    // readable by the same baseline helper the ratchet uses.
    let surface = field("panic_surface")
        .as_map()
        .expect("panic_surface must be an object");
    let panic_fns = surface
        .iter()
        .find(|(k, _)| k == "panic_fns")
        .and_then(|(_, v)| v.as_u64())
        .expect("panic_surface.panic_fns must be a number");
    assert_eq!(panic_fns as usize, a.panic_surface.len());
    assert!(
        panic_fns > 0,
        "the serving path has known panic-capable fns"
    );
    assert_eq!(
        glint_lint::report::baseline_panic_fns(&doc),
        Some(a.panic_surface.len())
    );
}

/// The committed BENCH_lint.json panic-surface certificate must name the
/// same fns a fresh run finds — a stale snapshot would let the ratchet gate
/// on fiction.
#[test]
fn committed_panic_surface_matches_fresh_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("BENCH_lint.json"))
        .expect("BENCH_lint.json must be committed at the workspace root");
    let value: serde_json::Value = serde_json::from_str(&doc).expect("BENCH_lint.json must parse");
    let committed: Vec<String> = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "panic_surface"))
        .and_then(|(_, v)| v.as_map())
        .and_then(|m| m.iter().find(|(k, _)| k == "fns"))
        .and_then(|(_, v)| v.as_seq())
        .expect("panic_surface.fns must be an array")
        .iter()
        .filter_map(|f| {
            f.as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "fn"))
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        })
        .collect();
    let fresh: Vec<String> = analysis()
        .panic_surface
        .iter()
        .map(|p| p.qualified.clone())
        .collect();
    assert_eq!(
        committed, fresh,
        "committed panic surface is stale — regenerate with \
         `cargo run -p glint-lint -- --bench-out BENCH_lint.json`"
    );
}

/// Enum-variant constructors (`Some`, `Ok`, `Err`, local variants) and std
/// staples must never surface in the actionable unresolved list — they are
/// noise, not missing call-graph edges.
#[test]
fn unresolved_list_has_no_variant_ctors_or_staples() {
    let a = analysis();
    let unresolved = a.stats.unresolved;
    for name in [
        "Some", "Ok", "Err", "None", "new", "iter", "len", "push", "clone",
    ] {
        assert!(
            !unresolved.contains_key(name),
            "`{name}` leaked into the actionable unresolved list: {unresolved:?}"
        );
    }
    assert!(
        !unresolved
            .keys()
            .any(|k| k.chars().next().is_some_and(|c| c.is_ascii_uppercase())),
        "capitalized (variant-ctor-shaped) names leaked: {unresolved:?}"
    );
}

/// Regression pin for the determinism-taint fix: the NLP crate feeds
/// `GlintDetector::process_window` (tokenize → embed), so it must stay
/// under the deterministic-prefix umbrella and free of hash-ordered
/// collections in non-test code.
#[test]
fn nlp_crate_is_hash_free_and_deterministic_scoped() {
    let cfg = glint_lint::Config::default();
    assert!(
        cfg.deterministic_prefixes
            .iter()
            .any(|p| p == "crates/nlp/src/"),
        "crates/nlp/src/ must be a deterministic prefix"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = glint_lint::workspace_sources(root).expect("workspace sources must be readable");
    for (path, text) in &sources {
        if !path.starts_with("crates/nlp/src/") {
            continue;
        }
        assert!(
            !text.contains("HashMap") && !text.contains("HashSet"),
            "{path} reintroduced a hash-ordered collection on the \
             detector's text path; use BTreeMap/BTreeSet"
        );
    }
}

/// The census must account for the allocations the trace layer observes at
/// runtime: BENCH_trace.json records `tensor.alloc.matrices` ticks (emitted
/// only by the `Matrix` constructors), so the static census must find
/// matrix-ctor sites reachable from the inference entries — each with a
/// call-chain witness back to an entry point.
#[test]
fn census_covers_traced_allocation_counters() {
    let a = analysis();
    assert!(
        !a.census.sites.is_empty(),
        "inference fast path allocates; the census cannot be empty"
    );
    for site in &a.census.sites {
        assert!(
            !site.chain.is_empty(),
            "census site {}:{} has no chain witness",
            site.file,
            site.line
        );
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Ok(doc) = std::fs::read_to_string(root.join("BENCH_trace.json")) else {
        return; // trace snapshot not present in this checkout
    };
    let value: serde_json::Value = serde_json::from_str(&doc).expect("BENCH_trace.json must parse");
    let counters = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "counters"))
        .and_then(|(_, v)| v.as_map())
        .expect("BENCH_trace.json must have counters");
    let alloc_ticks: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("tensor.alloc."))
        .filter_map(|(_, v)| v.as_u64())
        .sum();
    if alloc_ticks > 0 {
        let matrix_sites = a.census.by_kind.get("matrix-ctor").copied().unwrap_or(0);
        assert!(
            matrix_sites > 0,
            "runtime traced {alloc_ticks} tensor.alloc ticks but the census \
             found no reachable matrix-ctor site"
        );
    }
}
