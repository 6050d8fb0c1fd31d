//! # glint-lint
//!
//! Self-hosted static analysis for the Glint workspace. PR 2 made training
//! and inference deterministic across thread counts; these invariants are
//! one `HashMap` iteration or one `partial_cmp(..).unwrap()` away from
//! silently regressing. This crate pins them mechanically:
//!
//! * **determinism** — no std hash-collection types in deterministic-crate
//!   library code, no wall-clock reads outside bench;
//! * **NaN-safety** — no `partial_cmp(..).unwrap()`, no ordering adaptors
//!   driven by `partial_cmp`, no float-literal `==`;
//! * **panic-safety** — no `unwrap`/`expect`/panicking macros/`catch_unwind`
//!   in *call-graph-hot* code;
//! * **concurrency** — no non-`Relaxed` atomic orderings or lock
//!   acquisitions in call-graph-hot code without a justification.
//!
//! Two layers, no external parser:
//!
//! 1. a hand-written lexer ([`lexer`]) feeds a syntax layer ([`syntax`])
//!    that recognizes items (`fn`/`impl`/`trait`/`mod`, `#[cfg(test)]` and
//!    `#[cfg(feature = "…")]` aware), fn bodies, and call expressions —
//!    one symbol table per file;
//! 2. the symbol tables merge into a workspace-wide approximate call graph
//!    ([`callgraph`]); "hot" is *defined by reachability* from the entry
//!    points in [`Config::hot_entry_points`] (kernels, `GlintDetector`
//!    serving methods, trainer step functions), so hotness follows code
//!    motion instead of a hand-maintained file list. The same graph drives
//!    an allocation-site census over the inference fast path ([`census`]),
//!    exported as `BENCH_lint.json` with call-chain evidence per site.
//!
//! Resolution is name-based and deliberately over-approximate: a method
//! call may mark several same-named fns hot, which is conservative for
//! panic-safety (never *less* hot code than reality). Calls that resolve
//! to nothing in the workspace (std, fn pointers, macros) are counted and
//! reported, not silently dropped.
//!
//! Violations that are individually sound carry a justified suppression
//! pragma: `// glint-lint: allow(<rule>) — <reason>`. A pragma that
//! suppresses nothing is itself a finding (`unused-allow`).
//!
//! The workspace lints itself: `tests/invariant_lint.rs` in the root crate
//! runs [`lint_workspace`] under `cargo test` and asserts zero findings,
//! and `scripts/ci.sh` runs the binary with `--json --bench-out` and gates
//! the census against the committed `BENCH_lint.json`.

pub mod callgraph;
pub mod census;
pub mod dataflow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

pub use rules::{Config, Finding, RuleId, ALL_RULES};

use callgraph::CallGraph;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use syntax::FileSyntax;

/// Call-graph summary carried alongside findings in reports.
#[derive(Debug, Default)]
pub struct GraphStats {
    pub files: usize,
    pub fns: usize,
    pub resolved_calls: usize,
    /// Actionable unresolved worklist: call names that resolved to nothing
    /// in the workspace, minus enum-variant constructors and std staples
    /// (the raw totals stay in `unresolved_raw_*`).
    pub unresolved: BTreeMap<String, usize>,
    /// Distinct unresolved callee names before filtering.
    pub unresolved_raw_names: usize,
    /// Total unresolved call sites before filtering.
    pub unresolved_raw_calls: usize,
    /// Fns reachable from the hot entry points.
    pub hot_fns: usize,
}

/// Full result of one analysis run: lint findings, the inference-path
/// allocation census, the panic-surface certificate, and call-graph
/// statistics.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub census: census::Census,
    /// Panic-capable fns reachable from the hot entry points (ratcheted
    /// in CI via `BENCH_lint.json` v3).
    pub panic_surface: Vec<dataflow::PanicFn>,
    pub stats: GraphStats,
}

/// Analyze a set of (workspace-relative path, source) pairs as one
/// workspace: parse every file, build the call graph, derive hot regions,
/// run the per-site rules and the interprocedural passes (sharing one
/// suppression layer), and take the census.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Analysis {
    let files: Vec<FileSyntax> = sources
        .iter()
        .map(|(path, src)| FileSyntax::parse(path, src))
        .collect();
    let graph = CallGraph::build(&files);
    let hot = graph.reachable(&cfg.hot_entry_points);
    let hot_ranges = graph.hot_ranges(&hot);
    const EMPTY: &[(usize, usize)] = &[];

    // Interprocedural findings, grouped per file so they run through the
    // same pragma suppression as the per-site rules.
    let flow = dataflow::run(&graph, &files, cfg);
    let mut flow_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in flow.findings {
        flow_by_file.entry(f.file.clone()).or_default().push(f);
    }

    let mut findings = Vec::new();
    for f in &files {
        let input = rules::FileInput {
            path: &f.path,
            toks: &f.toks,
            comments: &f.comments,
            test_ranges: &f.test_ranges,
            hot_ranges: hot_ranges.get(f.path.as_str()).map_or(EMPTY, |v| v),
        };
        let scan = rules::scan_file(&input, cfg);
        let extra = flow_by_file.remove(f.path.as_str()).unwrap_or_default();
        findings.extend(rules::finish_file(scan, extra));
    }
    findings.sort();

    let census = census::run(
        &graph,
        &cfg.inference_entry_points,
        &cfg.tape_alloc_fns,
        &files,
    );
    let stats = GraphStats {
        files: files.len(),
        fns: graph.fns.len(),
        resolved_calls: graph.resolved_calls,
        unresolved: graph.actionable_unresolved(),
        unresolved_raw_names: graph.unresolved.len(),
        unresolved_raw_calls: graph.unresolved.values().sum(),
        hot_fns: hot.len(),
    };
    Analysis {
        findings,
        census,
        panic_surface: flow.panic_surface,
        stats,
    }
}

/// Lint a single source string as if it lived at workspace-relative `path`.
/// The call graph is built from this one file, so `cfg.hot_entry_points`
/// must name fns defined in it for hot rules to fire. Fixture tests drive
/// this directly.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    analyze_sources(&[(path.to_string(), src.to_string())], cfg).findings
}

/// Lint the whole workspace rooted at `root` with the default [`Config`].
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_workspace_with(root, &Config::default()).map(|a| a.findings)
}

/// Analyze the whole workspace rooted at `root`. Scans library code only:
/// `src/` trees of the root package and of every crate under `crates/`
/// (shims, tests, benches, examples, and fixtures are out of scope — the
/// invariants guard shipping code).
pub fn lint_workspace_with(root: &Path, cfg: &Config) -> std::io::Result<Analysis> {
    let sources = workspace_sources(root)?;
    Ok(analyze_sources(&sources, cfg))
}

/// Collect (workspace-relative path, contents) for every library source
/// file in scan scope, sorted by path — report order must itself be
/// deterministic.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_dir(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&file)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Directory entries sorted by name.
fn sorted_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in sorted_dir(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
