//! Allocation-site census over the inference fast path.
//!
//! ROADMAP item 2 (tape-free inference) starts from `BENCH_trace.json`'s
//! ~29.8k matrix allocations per 105-step run. This module turns that
//! dynamic counter into a *static work list*: every allocation expression
//! reachable over the call graph from the inference entry points
//! (`GlintDetector::{assess, try_assess, assess_batch}`), each with a
//! shortest call chain back to its entry point as evidence. The ranked
//! report is exported as `BENCH_lint.json` and snapshotted/gated by CI —
//! eliminating sites from the top of this list is exactly the allocation-
//! elimination milestone.
//!
//! A census site is *not* a lint finding: allocating is not a violation
//! today. The census exists so the next PR knows where the allocations
//! are and so CI notices when the fast path silently grows new ones.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::syntax::FileSyntax;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of allocation a site is. Order = report weight (heaviest
/// first): matrix buffers dominate the trace counters, `vec!`/`Vec::`
/// allocate directly, `to_vec`/`collect` copy, `clone` may be either.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllocKind {
    MatrixCtor,
    VecMacro,
    VecCtor,
    BoxNew,
    ToVec,
    Collect,
    Clone,
}

impl AllocKind {
    pub fn as_str(self) -> &'static str {
        match self {
            AllocKind::MatrixCtor => "matrix-ctor",
            AllocKind::VecMacro => "vec-macro",
            AllocKind::VecCtor => "vec-ctor",
            AllocKind::BoxNew => "box-new",
            AllocKind::ToVec => "to-vec",
            AllocKind::Collect => "collect",
            AllocKind::Clone => "clone",
        }
    }

    pub const ALL: &'static [AllocKind] = &[
        AllocKind::MatrixCtor,
        AllocKind::VecMacro,
        AllocKind::VecCtor,
        AllocKind::BoxNew,
        AllocKind::ToVec,
        AllocKind::Collect,
        AllocKind::Clone,
    ];
}

/// One allocation site on the inference fast path.
#[derive(Clone, Debug)]
pub struct CensusSite {
    pub file: String,
    pub line: u32,
    pub kind: AllocKind,
    /// Qualified name of the containing fn.
    pub in_fn: String,
    /// Feature gating the containing fn, if any.
    pub cfg_feature: Option<String>,
    /// Shortest call chain: inference entry → … → containing fn.
    pub chain: Vec<String>,
}

/// The full census report.
#[derive(Debug, Default)]
pub struct Census {
    /// Sites, ranked: heaviest kind first, then shortest chain, then
    /// file/line — a stable work list.
    pub sites: Vec<CensusSite>,
    /// Totals per kind (covers all `sites`).
    pub by_kind: BTreeMap<&'static str, usize>,
    /// Number of distinct fns reachable from the inference entries.
    pub reachable_fns: usize,
}

impl Census {
    pub fn total_sites(&self) -> usize {
        self.sites.len()
    }
}

/// Run the census: walk every fn reachable from `inference_entry_points`
/// and record allocation expressions in its body. `files` supplies the
/// token streams the graph's body ranges index into.
///
/// The walk stops at the tape ([`crate::Config::tape_alloc_fns`]): the fns
/// matching those specs, and for a `Type::*` spec every fn taking a `Type`
/// parameter (`fn infomax_loss(&self, t: &mut TapeExec, …)`). Forward
/// bodies generic over the executor reach the tape through its `Exec`
/// impl and their training-only terms, but only training runs them.
pub fn run(
    graph: &CallGraph,
    inference_entry_points: &[String],
    tape_fns: &[String],
    files: &[FileSyntax],
) -> Census {
    let mut seeds: BTreeSet<usize> = BTreeSet::new();
    let mut stop: BTreeSet<usize> = BTreeSet::new();
    for spec in inference_entry_points {
        seeds.extend(graph.match_spec(spec));
    }
    for spec in tape_fns {
        stop.extend(graph.match_spec(spec));
        if let Some(ty) = spec.strip_suffix("::*") {
            stop.extend(
                (0..graph.fns.len()).filter(|&i| graph.fns[i].params.iter().any(|(_, t)| t == ty)),
            );
        }
    }
    let parents = graph.parents_from_set(&seeds, &stop);
    let reachable: BTreeSet<usize> = parents.keys().copied().collect();
    let mut sites: Vec<CensusSite> = Vec::new();
    for &i in &reachable {
        let f = &graph.fns[i];
        let Some((start, end)) = f.body else { continue };
        let Some(toks) = files
            .iter()
            .find(|fs| fs.path == f.file)
            .map(|fs| fs.toks.as_slice())
        else {
            continue;
        };
        let chain = graph.chain(&parents, i);
        for (idx, kind) in alloc_sites(toks, start, end) {
            sites.push(CensusSite {
                file: f.file.clone(),
                line: toks[idx].line,
                kind,
                in_fn: f.qualified(),
                cfg_feature: f.cfg_feature.clone(),
                chain: chain.clone(),
            });
        }
    }
    // Rank: kind weight (enum order), chain length, file, line.
    sites.sort_by(|a, b| {
        (a.kind, a.chain.len(), &a.file, a.line).cmp(&(b.kind, b.chain.len(), &b.file, b.line))
    });
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in &sites {
        *by_kind.entry(s.kind.as_str()).or_insert(0) += 1;
    }
    Census {
        sites,
        by_kind,
        reachable_fns: reachable.len(),
    }
}

/// Scan `[start, end)` of one fn body for allocation expressions.
/// Returns (token index, kind) pairs.
pub fn alloc_sites(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, AllocKind)> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let is_id = |i: usize, s: &str| {
        toks.get(i)
            .map(|t| t.kind == TokKind::Ident && t.text == s)
            .unwrap_or(false)
    };
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // `Matrix::anything(` — every Matrix constructor/combinator
                // returns a fresh buffer in the current tape design.
                "Matrix"
                    if text(i + 1) == Some("::")
                        && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident) =>
                {
                    out.push((i, AllocKind::MatrixCtor));
                    i += 3;
                    continue;
                }
                "vec" if text(i + 1) == Some("!") => {
                    out.push((i, AllocKind::VecMacro));
                    i += 2;
                    continue;
                }
                "Vec"
                    if text(i + 1) == Some("::")
                        && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident) =>
                {
                    out.push((i, AllocKind::VecCtor));
                    i += 3;
                    continue;
                }
                "Box" if text(i + 1) == Some("::") && is_id(i + 2, "new") => {
                    out.push((i, AllocKind::BoxNew));
                    i += 3;
                    continue;
                }
                "clone" if text(i.wrapping_sub(1)) == Some(".") => {
                    out.push((i, AllocKind::Clone));
                }
                "to_vec" if text(i.wrapping_sub(1)) == Some(".") => {
                    out.push((i, AllocKind::ToVec));
                }
                "collect" if text(i.wrapping_sub(1)) == Some(".") => {
                    out.push((i, AllocKind::Collect));
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::syntax::FileSyntax;

    #[test]
    fn census_finds_sites_with_chains() {
        let src = r#"
            impl Det {
                pub fn assess(&self) { embed_stage(); }
            }
            fn embed_stage() { kernel(); }
            fn kernel() -> Matrix {
                let out = Matrix::zeros(2, 2);
                let buf = vec![0.0f32; 4];
                let c: Vec<f32> = buf.iter().map(|x| x + 1.0).collect();
                let d = c.clone();
                let _ = d.to_vec();
                out
            }
            fn cold() { let _ = Matrix::zeros(9, 9); }
        "#;
        let files = vec![FileSyntax::parse("crates/a/src/lib.rs", src)];
        let graph = CallGraph::build(&files);
        let census = run(&graph, &["Det::assess".to_string()], &[], &files);
        assert_eq!(census.total_sites(), 5, "{:#?}", census.sites);
        // Ranked: matrix ctor first.
        assert_eq!(census.sites[0].kind, AllocKind::MatrixCtor);
        // Every chain starts at the entry point.
        for s in &census.sites {
            assert_eq!(
                s.chain.first().map(|c| c.as_str()),
                Some("glint_a::Det::assess"),
                "{s:?}"
            );
            assert_eq!(s.chain.last().map(|c| c.as_str()), Some(s.in_fn.as_str()));
        }
        // `cold` is unreachable from assess: its Matrix::zeros is absent.
        assert!(!census.sites.iter().any(|s| s.in_fn.ends_with("::cold")));
    }

    #[test]
    fn census_stops_at_the_tape_and_at_fns_taking_it() {
        let src = r#"
            impl Det {
                pub fn assess(&self, t: &mut Tape) { serve(); t.record(); train_only(t); }
            }
            fn serve() { let _ = vec![1]; }
            impl Tape { pub fn record(&mut self) { let _ = vec![2]; } }
            fn train_only(t: &mut Tape) { let _ = vec![3]; }
        "#;
        let files = vec![FileSyntax::parse("crates/a/src/lib.rs", src)];
        let graph = CallGraph::build(&files);
        let entry = ["Det::assess".to_string()];
        let all = run(&graph, &entry, &[], &files);
        assert_eq!(all.total_sites(), 3, "{:#?}", all.sites);
        let cut = run(&graph, &entry, &["Tape::*".to_string()], &files);
        let fns: Vec<&str> = cut.sites.iter().map(|s| s.in_fn.as_str()).collect();
        assert_eq!(fns, ["glint_a::serve"]);
    }
}
