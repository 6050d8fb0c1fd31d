//! Rules enforcing the workspace invariants, plus the suppression-pragma
//! machinery.
//!
//! Four invariant families (see DESIGN.md "Static analysis architecture"):
//!
//! * **determinism** — `taint-flow` (interprocedural, [`crate::dataflow`]);
//!   the per-site bans on hash collections, wall-clock reads and
//!   `catch_unwind` live in the workspace `clippy.toml`;
//! * **NaN-safety** — `partial-cmp-unwrap`, `float-cmp-order`, `float-eq`
//!   (everywhere);
//! * **panic-safety** — `hot-unwrap`, `hot-panic`;
//! * **concurrency** — `hot-atomic-ordering`, `hot-lock`.
//!
//! The `hot-*` rules are *reachability*-scoped: a region is hot when its
//! function is reachable over the workspace call graph from the entry
//! points in [`Config::hot_entry_points`] (kernels, `GlintDetector`
//! serving methods, trainer step functions). There is no hand-maintained
//! hot-file list — moving a hot helper to a new module changes nothing,
//! because hotness follows the call graph, not the file layout.
//!
//! A finding on line `L` is suppressed by a justified pragma on line `L` or
//! `L-1`:
//!
//! ```text
//! // glint-lint: allow(rule-id, other-rule) — why this site is sound
//! ```
//!
//! The justification after the dash is mandatory; a pragma without one (or
//! naming an unknown rule) is itself reported under the `pragma` rule. A
//! well-formed pragma that suppresses nothing is reported under
//! `unused-allow` — stale justifications cannot accumulate.

use crate::lexer::{skip_balanced, Comment, Tok, TokKind};

/// Stable rule identifiers (kebab-case, used in reports and pragmas).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    TaintFlow,
    PartialCmpUnwrap,
    FloatCmpOrder,
    FloatEq,
    HotUnwrap,
    HotPanic,
    HotAtomicOrdering,
    HotLock,
    LockCycle,
    LockAcrossCall,
    Pragma,
    UnusedAllow,
}

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::TaintFlow => "taint-flow",
            RuleId::PartialCmpUnwrap => "partial-cmp-unwrap",
            RuleId::FloatCmpOrder => "float-cmp-order",
            RuleId::FloatEq => "float-eq",
            RuleId::HotUnwrap => "hot-unwrap",
            RuleId::HotPanic => "hot-panic",
            RuleId::HotAtomicOrdering => "hot-atomic-ordering",
            RuleId::HotLock => "hot-lock",
            RuleId::LockCycle => "lock-cycle",
            RuleId::LockAcrossCall => "lock-across-call",
            RuleId::Pragma => "pragma",
            RuleId::UnusedAllow => "unused-allow",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == s)
    }

    /// Invariant family, for reports.
    pub fn family(self) -> &'static str {
        match self {
            RuleId::TaintFlow => "determinism",
            RuleId::PartialCmpUnwrap | RuleId::FloatCmpOrder | RuleId::FloatEq => "nan-safety",
            RuleId::HotUnwrap | RuleId::HotPanic => "panic-safety",
            RuleId::HotAtomicOrdering
            | RuleId::HotLock
            | RuleId::LockCycle
            | RuleId::LockAcrossCall => "concurrency",
            RuleId::Pragma | RuleId::UnusedAllow => "meta",
        }
    }
}

/// Every rule, in report order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::TaintFlow,
    RuleId::PartialCmpUnwrap,
    RuleId::FloatCmpOrder,
    RuleId::FloatEq,
    RuleId::HotUnwrap,
    RuleId::HotPanic,
    RuleId::HotAtomicOrdering,
    RuleId::HotLock,
    RuleId::LockCycle,
    RuleId::LockAcrossCall,
    RuleId::Pragma,
    RuleId::UnusedAllow,
];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    /// Interprocedural findings carry a witness call chain (entry → … →
    /// site); per-site findings leave this empty. Rendered by
    /// `glint-lint --explain <rule>`.
    pub witness: Vec<String>,
}

/// Which parts of the workspace each rule family applies to. Paths are
/// workspace-relative with `/` separators; entry points are fn specs
/// (`name`, `Type::method`, or `Type::*`) resolved against the call graph.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates whose library code must be insertion-order independent: their
    /// fns that order floats are `taint-flow` sinks.
    pub deterministic_prefixes: Vec<String>,
    /// Path prefixes whose wall-clock reads are not `taint-flow` sources
    /// (benchmarks time things by design).
    pub clock_exempt_prefixes: Vec<String>,
    /// Hot entry points: the panic-safety and concurrency `hot-*` rules
    /// apply to every fn reachable from these over the call graph.
    pub hot_entry_points: Vec<String>,
    /// Inference entry points: the allocation census walks the subgraph
    /// reachable from these (the serving fast path).
    pub inference_entry_points: Vec<String>,
    /// Determinism-taint sinks: fn specs whose outputs must not depend on
    /// wall clocks or hash-iteration order. The taint pass
    /// reports every source site that can reach one of these over the call
    /// graph (`taint-flow`), with the witness chain.
    pub taint_sinks: Vec<String>,
    /// Fn specs that allocate or grow an autograd tape: the tape and its
    /// executor. Forward bodies generic over the executor reach them
    /// statically, but only training runs them, so the allocation census
    /// stops here (`crates/gnn/tests/serving_allocs.rs` checks at run time
    /// that serving builds no tape).
    pub tape_alloc_fns: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            deterministic_prefixes: vec![
                "crates/gnn/src/".into(),
                "crates/graph/src/".into(),
                "crates/core/src/".into(),
                "crates/tensor/src/".into(),
                "crates/trace/src/".into(),
                "crates/nlp/src/".into(),
                "crates/serve/src/".into(),
                // the churn load generator: its trace and counters are a
                // determinism contract (BENCH_scale.json reproducibility)
                "crates/testbed/src/churn".into(),
            ],
            clock_exempt_prefixes: vec!["crates/bench/".into()],
            hot_entry_points: vec![
                // dense/sparse kernels — every variant (Matrix, Csr, par, Tape)
                "matmul".into(),
                "t_matmul".into(),
                "matmul_t".into(),
                "spmm".into(),
                "t_spmm".into(),
                // the autograd tape: every op builds hot closures
                "Tape::*".into(),
                // tape-free inference kernels: the serving fast path runs
                // entirely through the pooled InferCtx
                "InferCtx::*".into(),
                "BufferPool::*".into(),
                "forward_infer".into(),
                "with_ctx".into(),
                // serving entry points
                "GlintDetector::assess".into(),
                "GlintDetector::try_assess".into(),
                "GlintDetector::assess_batch".into(),
                "GlintDetector::process_window".into(),
                "GlintDetector::assess_under_pressure".into(),
                // live delta-ingest path: one delta → re-mine → verdict,
                // runs per rule change on a million-home stream
                "IncrementalPipeline::apply".into(),
                "IncrementalPipeline::ingest".into(),
                "GlintDetector::apply_delta".into(),
                // glint-serve request path: admission, dispatch, handlers
                "accept_loop".into(),
                "worker_loop".into(),
                "handle_connection".into(),
                "handle_score".into(),
                "handle_score_batch".into(),
                "handle_feedback".into(),
                "handle_metrics".into(),
                // trainer step functions (per-step math, not checkpoint IO)
                "step".into(),
                "reduce_batch".into(),
            ],
            inference_entry_points: vec![
                "GlintDetector::assess".into(),
                "GlintDetector::try_assess".into(),
                "GlintDetector::assess_batch".into(),
                "GlintDetector::assess_under_pressure".into(),
            ],
            taint_sinks: vec![
                // verdict/score outputs
                "GlintDetector::assess".into(),
                "GlintDetector::try_assess".into(),
                "GlintDetector::assess_batch".into(),
                "GlintDetector::process_window".into(),
                // serving verdicts: the detector only ever sees the discrete
                // pressure rung, never the clock, so this must stay clean
                "GlintDetector::assess_under_pressure".into(),
                // incremental verdicts: a delta's verdict must be a pure
                // function of the delta stream, never of clock or hasher
                "IncrementalPipeline::ingest".into(),
                // per-home shard payloads and their manifest CRCs
                "ShardedStore::save_shard".into(),
                // GLINTDUR envelope writes
                "write_durable".into(),
                // checkpoint payloads
                "save_checkpoint".into(),
            ],
            tape_alloc_fns: vec!["Tape::*".into(), "TapeExec::*".into()],
        }
    }
}

impl Config {
    pub(crate) fn in_deterministic(&self, path: &str) -> bool {
        self.deterministic_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
    pub(crate) fn clock_exempt(&self, path: &str) -> bool {
        self.clock_exempt_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}

/// A parsed `glint-lint: allow(…)` pragma.
#[derive(Clone, Debug)]
struct Pragma {
    line: u32,
    rules: Vec<String>,
    justified: bool,
    /// True when every named rule parses — only such pragmas participate
    /// in unused-allow accounting (malformed ones are already findings).
    well_formed: bool,
}

/// Parse suppression pragmas out of the comment stream. Returns the pragmas
/// plus findings for malformed ones.
fn parse_pragmas(file: &str, comments: &[Comment]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = text.strip_prefix("glint-lint:") else {
            continue;
        };
        if !c.is_line {
            findings.push(Finding {
                file: file.into(),
                line: c.line,
                rule: RuleId::Pragma,
                message: "suppression pragmas must be `//` line comments".into(),
                witness: Vec::new(),
            });
            continue;
        }
        let rest = rest.trim();
        let (rules_part, after) = match rest.strip_prefix("allow(").and_then(|r| r.split_once(')'))
        {
            Some(split) => split,
            None => {
                findings.push(Finding {
                    file: file.into(),
                    line: c.line,
                    rule: RuleId::Pragma,
                    message: "malformed pragma: expected `glint-lint: allow(<rule, …>) — <reason>`"
                        .into(),
                    witness: Vec::new(),
                });
                continue;
            }
        };
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut well_formed = !rules.is_empty();
        for r in &rules {
            if RuleId::parse(r).is_none() {
                well_formed = false;
                findings.push(Finding {
                    file: file.into(),
                    line: c.line,
                    rule: RuleId::Pragma,
                    message: format!("pragma names unknown rule `{r}`"),
                    witness: Vec::new(),
                });
            }
        }
        // Justification: whatever follows the closing paren, minus separator
        // punctuation (`—`, `-`, `:`). Must contain a word.
        let reason = after.trim_start_matches([' ', '\t', '—', '-', ':']).trim();
        let justified = reason.chars().any(|ch| ch.is_alphanumeric());
        if !justified {
            findings.push(Finding {
                file: file.into(),
                line: c.line,
                rule: RuleId::Pragma,
                message: "pragma is missing its justification: `allow(<rule>) — <reason>`".into(),
                witness: Vec::new(),
            });
        }
        if rules.is_empty() {
            findings.push(Finding {
                file: file.into(),
                line: c.line,
                rule: RuleId::Pragma,
                message: "pragma allows no rules".into(),
                witness: Vec::new(),
            });
        }
        pragmas.push(Pragma {
            line: c.line,
            rules,
            justified,
            well_formed,
        });
    }
    (pragmas, findings)
}

/// Everything [`scan_file`] needs to know about one file. Token ranges are
/// indices into `toks` (the FULL token stream — never a stripped copy, so
/// the syntax layer's body ranges line up).
pub struct FileInput<'a> {
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a [Comment],
    /// `#[cfg(test)]` item ranges (masked out of every rule scan).
    pub test_ranges: &'a [(usize, usize)],
    /// Body ranges of call-graph-hot fns in this file.
    pub hot_ranges: &'a [(usize, usize)],
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(s, e)| i >= s && i < e)
}

/// Per-file scan state between rule execution and suppression. Produced by
/// [`scan_file`]; interprocedural passes append their findings for this
/// file before [`finish_file`] applies pragmas, so a
/// `// glint-lint: allow(taint-flow) — …` works exactly like the per-site
/// rules (and participates in `unused-allow` accounting).
pub struct FileScan {
    path: String,
    pragmas: Vec<Pragma>,
    /// Meta findings (malformed pragmas) — never suppressible.
    meta: Vec<Finding>,
    /// Raw per-site findings, pre-suppression.
    raw: Vec<Finding>,
    /// Sorted lines of live (non-test) code tokens, for pragma coverage.
    code_lines: Vec<u32>,
}

/// Run the per-site rules over one file; suppression is deferred to
/// [`finish_file`].
pub fn scan_file(input: &FileInput) -> FileScan {
    let path = input.path;
    // Mask cfg(test) tokens in place of stripping them: dead tokens become
    // empty Punct placeholders that no pattern can match, while every index
    // keeps pointing at the same source position as the syntax layer's
    // body ranges.
    let dead: Vec<bool> = (0..input.toks.len())
        .map(|i| in_ranges(input.test_ranges, i))
        .collect();
    let masked: Vec<Tok> = input
        .toks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if dead[i] {
                Tok {
                    kind: TokKind::Punct,
                    text: String::new(),
                    line: t.line,
                }
            } else {
                t.clone()
            }
        })
        .collect();
    let toks = &masked[..];

    // Pragmas inside cfg(test) items are ignored entirely (test code is
    // out of scope, so they can neither suppress nor be stale).
    let test_lines: Vec<(u32, u32)> = input
        .test_ranges
        .iter()
        .filter(|&&(s, e)| e > s)
        .map(|&(s, e)| (input.toks[s].line, input.toks[e - 1].line))
        .collect();
    let (pragmas, mut findings) = parse_pragmas(path, input.comments);
    let pragmas: Vec<Pragma> = pragmas
        .into_iter()
        .filter(|p| {
            !test_lines
                .iter()
                .any(|&(lo, hi)| p.line >= lo && p.line <= hi)
        })
        .collect();
    findings.retain(|f| {
        !test_lines
            .iter()
            .any(|&(lo, hi)| f.line >= lo && f.line <= hi)
    });

    let mut raw: Vec<Finding> = Vec::new();
    rule_partial_cmp_unwrap(path, toks, &mut raw);
    rule_float_cmp_order(path, toks, &mut raw);
    rule_float_eq(path, toks, &mut raw);
    let hot = |i: usize| in_ranges(input.hot_ranges, i);
    rule_hot_unwrap(path, toks, &hot, &mut raw);
    rule_hot_panic(path, toks, &hot, &mut raw);
    rule_hot_atomic(path, toks, &hot, &mut raw);
    rule_hot_lock(path, toks, &hot, &mut raw);

    let mut code_lines: Vec<u32> = input
        .toks
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead[*i])
        .map(|(_, t)| t.line)
        .collect();
    code_lines.sort_unstable();
    code_lines.dedup();

    FileScan {
        path: path.to_string(),
        pragmas,
        meta: findings,
        raw,
        code_lines,
    }
}

/// Merge interprocedural findings for this file into the scan, apply
/// suppressions, and return the surviving findings.
///
/// A justified pragma covers findings on its own line (trailing comment) or
/// on the next line holding any code token — so a justification wrapped
/// over several comment lines still reaches the statement below it. Each
/// (pragma, rule) pair that suppressed nothing is itself a finding: stale
/// allows must be deleted, not accumulated.
pub fn finish_file(scan: FileScan, extra: Vec<Finding>) -> Vec<Finding> {
    let FileScan {
        path,
        pragmas,
        meta: mut findings,
        mut raw,
        code_lines,
    } = scan;
    raw.extend(extra);

    let next_code_line = |l: u32| code_lines.iter().copied().find(|&cl| cl > l);
    let covers = |p: &Pragma, rule: &str, f: &Finding| {
        p.justified
            && p.rules.iter().any(|r| r == rule)
            && rule == f.rule.as_str()
            && (p.line == f.line || next_code_line(p.line) == Some(f.line))
    };
    let suppressed: Vec<bool> = raw
        .iter()
        .map(|f| {
            pragmas
                .iter()
                .any(|p| p.rules.iter().any(|r| covers(p, r, f)))
        })
        .collect();
    for p in &pragmas {
        if !(p.well_formed && p.justified) {
            continue; // already reported as a pragma finding
        }
        for r in &p.rules {
            let used = raw.iter().any(|f| covers(p, r, f));
            if !used {
                findings.push(Finding {
                    file: path.clone(),
                    line: p.line,
                    rule: RuleId::UnusedAllow,
                    message: format!(
                        "pragma allows `{r}` but suppresses nothing here — delete the stale allow"
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
    let mut kept: Vec<Finding> = raw
        .into_iter()
        .zip(suppressed)
        .filter(|(_, s)| !*s)
        .map(|(f, _)| f)
        .collect();
    findings.append(&mut kept);
    findings.sort();
    findings
}

fn push(out: &mut Vec<Finding>, file: &str, line: u32, rule: RuleId, message: impl Into<String>) {
    out.push(Finding {
        file: file.into(),
        line,
        rule,
        message: message.into(),
        witness: Vec::new(),
    });
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// `partial-cmp-unwrap`: `partial_cmp(…).unwrap()` / `.expect(…)` — panics
/// the moment a NaN reaches the comparison. `f32::total_cmp`/`f64::total_cmp`
/// is the drop-in fix.
fn rule_partial_cmp_unwrap(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "partial_cmp") {
            continue;
        }
        let after = match toks.get(i + 1) {
            Some(t) if t.text == "(" => skip_balanced(toks, i + 1, "(", ")"),
            _ => i + 1,
        };
        if toks.get(after).map(|t| t.text.as_str()) == Some(".")
            && toks
                .get(after + 1)
                .is_some_and(|t| is_ident(t, "unwrap") || is_ident(t, "expect"))
        {
            push(
                out,
                file,
                t.line,
                RuleId::PartialCmpUnwrap,
                "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp` \
                 or handle non-finite values explicitly",
            );
        }
    }
}

/// Ordering adaptors whose comparator decides sort/extremum results.
pub(crate) const ORDER_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "select_nth_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// `float-cmp-order`: an ordering adaptor whose comparator uses
/// `partial_cmp` — even with a NaN fallback (`unwrap_or(Equal)`), NaNs make
/// the comparator non-total and the resulting order input-position
/// dependent. `total_cmp` gives one deterministic order.
fn rule_float_cmp_order(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && ORDER_FNS.contains(&t.text.as_str())) {
            continue;
        }
        let open = i + 1;
        if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let end = skip_balanced(toks, open, "(", ")");
        if toks[open..end].iter().any(|t| is_ident(t, "partial_cmp")) {
            push(
                out,
                file,
                t.line,
                RuleId::FloatCmpOrder,
                format!(
                    "`{}` with a `partial_cmp` comparator is not a total order under \
                     NaN; use `total_cmp` (or filter non-finite values first)",
                    t.text
                ),
            );
        }
    }
}

/// `float-eq`: `==`/`!=` with a float literal on either side. Exact float
/// equality is almost always a rounding bug; where it is deliberate (IEEE
/// zero tests in kernels) the site carries a pragma saying why.
fn rule_float_eq(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=")) {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let rhs_float = toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Float);
        if lhs_float || rhs_float {
            push(
                out,
                file,
                t.line,
                RuleId::FloatEq,
                format!(
                    "`{}` against a float literal: exact float equality is \
                     rounding-fragile; compare against a tolerance (or pragma \
                     a deliberate IEEE zero test)",
                    t.text
                ),
            );
        }
    }
}

/// `hot-unwrap`: `.unwrap()` / `.expect(…)` in call-graph-hot code.
fn rule_hot_unwrap(file: &str, toks: &[Tok], hot: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && hot(i)
        {
            push(
                out,
                file,
                t.line,
                RuleId::HotUnwrap,
                format!(
                    "`.{}()` on the hot path (reachable from a kernel/serving entry \
                     point): return an error or restructure so the failure case \
                     cannot exist",
                    t.text
                ),
            );
        }
    }
}

/// `hot-panic`: panicking macros in call-graph-hot code
/// (`assert!`/`debug_assert!` stay allowed — they state contracts).
fn rule_hot_panic(file: &str, toks: &[Tok], hot: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for (i, w) in toks.windows(2).enumerate() {
        if w[0].kind == TokKind::Ident
            && PANIC_MACROS.contains(&w[0].text.as_str())
            && w[1].text == "!"
            && hot(i)
        {
            push(
                out,
                file,
                w[0].line,
                RuleId::HotPanic,
                format!("`{}!` on the hot path", w[0].text),
            );
        }
    }
}

/// Atomic orderings stronger than `Relaxed`.
const STRONG_ORDERINGS: &[&str] = &["SeqCst", "Acquire", "Release", "AcqRel"];

/// `hot-atomic-ordering`: a non-`Relaxed` atomic ordering inside hot code.
/// The `GLINT_THREADS` contract promises bitwise-identical results at any
/// thread count, which the kernels achieve by *not* synchronizing through
/// shared memory on the hot path — fences there are either unnecessary
/// (justify with a pragma) or a sign the kernel grew cross-thread traffic.
fn rule_hot_atomic(file: &str, toks: &[Tok], hot: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && STRONG_ORDERINGS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "::"
            && is_ident(&toks[i - 2], "Ordering")
            && hot(i)
        {
            push(
                out,
                file,
                t.line,
                RuleId::HotAtomicOrdering,
                format!(
                    "`Ordering::{}` on the hot path: the bitwise-determinism contract \
                     forbids cross-thread synchronization in kernels; use `Relaxed` \
                     for gates/counters or justify the fence with a pragma",
                    t.text
                ),
            );
        }
    }
}

/// `hot-lock`: lock acquisition inside hot code. A contended mutex on the
/// serving path destroys the latency budget and, worse, can order work
/// nondeterministically; hot-path locks require a justification pragma.
fn rule_hot_lock(file: &str, toks: &[Tok], hot: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "lock" || t.text == "try_lock")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && hot(i)
        {
            push(
                out,
                file,
                t.line,
                RuleId::HotLock,
                format!(
                    "`.{}()` on the hot path: lock acquisition inside a kernel/serving \
                     region needs a justification pragma (latency + ordering hazards \
                     under the GLINT_THREADS determinism contract)",
                    t.text
                ),
            );
        }
    }
}
