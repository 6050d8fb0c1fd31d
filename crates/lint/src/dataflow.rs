//! Interprocedural dataflow over the workspace call graph.
//!
//! The per-site rules in [`crate::rules`] prove facts about one expression;
//! this module proves *path* properties: a wall-clock read that flows into
//! a verdict, a lock held across a callee that itself locks, a fn on the
//! serving path that can panic at all. Everything here is driven by one
//! engine — [`propagate_up`], a monotone worklist over the reverse call
//! graph — plus plain forward reachability for the certificate passes.
//!
//! Three analyses (DESIGN.md "Interprocedural dataflow"):
//!
//! * **determinism taint** (`taint-flow`) — source sites (wall-clock reads,
//!   hash-iteration types) inside any fn that the sink
//!   entry points ([`Config::taint_sinks`] — verdict/score outputs, GLINTDUR
//!   envelope writes, checkpoint payloads — plus deterministic-crate fns
//!   with ordering-sensitive calls) can reach over the call graph. The
//!   per-site wall-clock rule stays (it catches sources that reach
//!   no sink yet); the taint pass adds the end-to-end flow evidence with a
//!   witness chain sink → … → source.
//! * **lock-order** (`lock-cycle`, `lock-across-call`) — lock-acquisition
//!   sites per fn, may-acquire sets propagated through calls to a fixed
//!   point, a workspace lock-order graph, cycle findings (potential
//!   deadlock, including re-entrant self-deadlock), and findings for every
//!   call made while a lock is held to a callee that may itself acquire.
//! * **panic surface** — the transitive set of panic-capable fns reachable
//!   from the hot entry points, as a named list ([`PanicFn`]) emitted into
//!   `BENCH_lint.json` v3 and ratcheted by CI: the serving panic surface
//!   can only shrink.
//!
//! Soundness inherits the call graph's posture: over-approximate dispatch
//! means flows/edges that cannot happen at runtime may be reported (and
//! carry justified pragmas); fn-pointer and macro-generated calls the graph
//! cannot see are the known under-approximation.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::rules::{Config, Finding, RuleId, ORDER_FNS};
use crate::syntax::{CallKind, FileSyntax};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Propagate per-fn facts from callees to callers until nothing changes.
///
/// `join(caller_fact, callee_fact)` must return `true` iff the caller's
/// fact grew, and must be *monotone* (facts only ever grow). Facts live in
/// finite lattices (sets of workspace names), so the worklist terminates —
/// including on recursive and mutually-recursive call cycles, which simply
/// stop re-queueing once their facts stabilize.
pub fn propagate_up<T, J>(graph: &CallGraph, mut facts: Vec<T>, mut join: J) -> Vec<T>
where
    T: Clone,
    J: FnMut(&mut T, &T) -> bool,
{
    let callers = graph.callers();
    let mut queue: VecDeque<usize> = (0..facts.len()).collect();
    let mut queued = vec![true; facts.len()];
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        let fact = facts[i].clone();
        for &c in &callers[i] {
            if join(&mut facts[c], &fact) && !queued[c] {
                queued[c] = true;
                queue.push_back(c);
            }
        }
    }
    facts
}

/// One fn on the panic-surface certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicFn {
    /// Qualified name (`crate::module::Type::fn`).
    pub qualified: String,
    pub file: String,
    pub line: u32,
    /// Which panic-capable constructs the body contains, sorted + deduped:
    /// `"unwrap"`, `"panic"`, `"assert"`, `"index"`, `"div"`.
    pub kinds: Vec<&'static str>,
}

/// Result of the interprocedural passes: findings (merged into per-file
/// suppression by lib.rs) plus the panic-surface certificate.
#[derive(Debug, Default)]
pub struct Dataflow {
    pub findings: Vec<Finding>,
    /// Panic-capable fns reachable from the hot entry points, sorted by
    /// qualified name. Emitted into `BENCH_lint.json` v3 and ratcheted.
    pub panic_surface: Vec<PanicFn>,
}

/// Run all three analyses. `files` supplies the token streams the graph's
/// body ranges index into.
pub fn run(graph: &CallGraph, files: &[FileSyntax], cfg: &Config) -> Dataflow {
    let toks_of: BTreeMap<&str, &[Tok]> = files
        .iter()
        .map(|fs| (fs.path.as_str(), fs.toks.as_slice()))
        .collect();
    let mut findings = Vec::new();
    taint_flow(graph, &toks_of, cfg, &mut findings);
    lock_order(graph, &toks_of, &mut findings);
    let panic_surface = panic_surface(graph, &toks_of, cfg);
    findings.sort();
    findings.dedup();
    Dataflow {
        findings,
        panic_surface,
    }
}

// ---------------------------------------------------------------------------
// determinism taint
// ---------------------------------------------------------------------------

/// A nondeterminism source site inside one fn body.
struct TaintSource {
    line: u32,
    what: String,
}

/// Scan one fn body for nondeterminism sources. `clock_exempt` drops the
/// wall-clock kind (bench code times things by design) but keeps
/// hash-iteration: order-dependence is a bug even in bench code feeding a
/// report.
fn taint_sources(toks: &[Tok], start: usize, end: usize, clock_exempt: bool) -> Vec<TaintSource> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    let id = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    for i in start..end {
        let Some(name) = id(i) else { continue };
        match name {
            "Instant" | "SystemTime"
                if !clock_exempt
                    && toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
                    && id(i + 2) == Some("now") =>
            {
                out.push(TaintSource {
                    line: toks[i].line,
                    what: format!("`{name}::now()` wall-clock read"),
                });
            }
            "HashMap" | "HashSet" | "RandomState" => {
                out.push(TaintSource {
                    line: toks[i].line,
                    what: format!("`{name}` (iteration order is random per process)"),
                });
            }
            _ => {}
        }
    }
    out
}

/// `taint-flow`: report every source site inside a fn that a taint sink can
/// reach over the call graph. Anything executed while computing a sink's
/// output may influence it — the classic reachability over-approximation;
/// precision comes from the narrowed call graph, not from value tracking.
fn taint_flow(
    graph: &CallGraph,
    toks_of: &BTreeMap<&str, &[Tok]>,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    // Sink set: configured specs plus deterministic-crate fns that order
    // floats (`sort_by`/`total_cmp`/… keys are verdict-order sensitive).
    let mut sinks: BTreeSet<usize> = BTreeSet::new();
    for spec in &cfg.taint_sinks {
        sinks.extend(graph.match_spec(spec));
    }
    for (i, f) in graph.fns.iter().enumerate() {
        if !cfg.in_deterministic(&f.file) {
            continue;
        }
        if f.calls
            .iter()
            .any(|c| ORDER_FNS.contains(&c.name.as_str()) || c.name == "total_cmp")
        {
            sinks.insert(i);
        }
    }
    let parents = graph.parents_from_set(&sinks, &BTreeSet::new());
    for &i in parents.keys() {
        let f = &graph.fns[i];
        let Some((start, end)) = f.body else { continue };
        let Some(toks) = toks_of.get(f.file.as_str()) else {
            continue;
        };
        let chain = graph.chain(&parents, i);
        let sink_name = chain.first().cloned().unwrap_or_default();
        for src in taint_sources(toks, start, end, cfg.clock_exempt(&f.file)) {
            findings.push(Finding {
                file: f.file.clone(),
                line: src.line,
                rule: RuleId::TaintFlow,
                message: format!(
                    "{} can flow into sink `{sink_name}` (via {} call(s)); \
                     the sink's output must be reproducible",
                    src.what,
                    chain.len().saturating_sub(1),
                ),
                witness: chain.clone(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// One lock acquisition inside a fn body.
#[derive(Clone)]
struct LockSite {
    /// Stable lock identity (see [`lock_identity`]).
    id: String,
    /// Index of the `lock`/`try_lock` name token.
    tok: usize,
    line: u32,
    /// Held region `[tok, end)` in token indices: end of the enclosing
    /// block for `let`-bound guards, end of statement for temporaries.
    end: usize,
}

/// Name a lock from the tokens around its `.lock()` call. Identity is
/// heuristic but stable:
///
/// * `registry().lock()` → the resolved qualified name of `registry` (or
///   `{krate}::registry` when unresolved) — the idiom for module-level
///   `Mutex` statics behind accessor fns;
/// * `SOME_STATIC.lock()` → `{krate}::SOME_STATIC`;
/// * `self.field.lock()` → `{ReceiverType}.field`;
/// * `x.lock()` on a local/param → `{krate}::x` (weak, but two fns in the
///   same crate locking through the same name are usually the same lock —
///   over-approximate in the safe direction for ordering).
fn lock_identity(graph: &CallGraph, fn_idx: usize, lock_tok: usize, toks: &[Tok]) -> String {
    let f = &graph.fns[fn_idx];
    // Receiver is a call expression: `accessor( … ).lock()`. Find the call
    // site whose argument group closes right before the dot.
    if lock_tok >= 2 && toks[lock_tok - 1].text == "." && toks[lock_tok - 2].text == ")" {
        for (k, c) in f.calls.iter().enumerate() {
            if c.tok + 1 >= toks.len() || toks[c.tok + 1].text != "(" {
                continue;
            }
            let close = close_of(toks, c.tok + 1);
            if close == Some(lock_tok - 2) {
                if let Some(&t) = graph.call_targets[fn_idx][k].first() {
                    return graph.fns[t].qualified();
                }
                return format!("{}::{}", f.krate, c.name);
            }
        }
    }
    // Plain-identifier receivers: the call site recorded them.
    let (recv, base) = match f.calls.iter().find(|c| c.tok == lock_tok).map(|c| &c.kind) {
        Some(CallKind::Method {
            recv_ident,
            recv_base,
        }) => (recv_ident.as_deref(), recv_base.as_deref()),
        _ => (None, None),
    };
    match (recv, base) {
        (Some(field), Some("self")) => {
            let ty = f.receiver.as_deref().unwrap_or("Self");
            format!("{ty}.{field}")
        }
        (Some(name), _) => format!("{}::{name}", f.krate),
        _ => format!("{}::<expr>", f.krate),
    }
}

/// Token index of the `)` closing the group opened at `open` (which must
/// point at `(`), or `None` if unbalanced.
fn close_of(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Compute the held region end for a lock acquired at `lock_tok`.
/// `let`-bound guards live to the end of the enclosing block; temporaries
/// die at the statement's `;`. Early `drop(guard)` is not modeled — the
/// region over-approximates, which only adds candidate edges.
fn held_end(toks: &[Tok], body: (usize, usize), lock_tok: usize) -> usize {
    let (start, end) = body;
    let end = end.min(toks.len());
    // Statement start: walk back to the nearest `;`, `{`, or `}`.
    let mut stmt_start = start;
    let mut j = lock_tok;
    while j > start {
        j -= 1;
        if matches!(toks[j].text.as_str(), ";" | "{" | "}") {
            stmt_start = j + 1;
            break;
        }
    }
    let let_bound = toks[stmt_start..lock_tok]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "let");
    let mut depth = 0i32;
    for (i, tok) in toks.iter().enumerate().take(end).skip(lock_tok) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    // End of the enclosing block: even a let-bound guard
                    // is dropped here.
                    return i;
                }
            }
            ";" if depth == 0 && !let_bound => return i,
            _ => {}
        }
    }
    end
}

/// `lock-cycle` + `lock-across-call`: build per-fn lock sites and held
/// regions, propagate may-acquire sets to a fixed point, emit the
/// workspace lock-order graph's cycles and every call made under a lock to
/// a callee that may itself acquire.
fn lock_order(graph: &CallGraph, toks_of: &BTreeMap<&str, &[Tok]>, findings: &mut Vec<Finding>) {
    let n = graph.fns.len();
    // Per-fn lock sites.
    let mut sites: Vec<Vec<LockSite>> = vec![Vec::new(); n];
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(body) = f.body else { continue };
        let Some(&toks) = toks_of.get(f.file.as_str()) else {
            continue;
        };
        for c in &f.calls {
            let is_lock = matches!(c.kind, CallKind::Method { .. })
                && (c.name == "lock" || c.name == "try_lock");
            if !is_lock {
                continue;
            }
            sites[i].push(LockSite {
                id: lock_identity(graph, i, c.tok, toks),
                tok: c.tok,
                line: c.line,
                end: held_end(toks, body, c.tok),
            });
        }
    }

    // May-acquire: locks a fn (or anything it can call) may take.
    let init: Vec<BTreeSet<String>> = sites
        .iter()
        .map(|ls| ls.iter().map(|l| l.id.clone()).collect())
        .collect();
    let may_acquire = propagate_up(graph, init, |caller, callee| {
        let before = caller.len();
        caller.extend(callee.iter().cloned());
        caller.len() != before
    });

    // Lock-order edges: held → acquired-while-held, each with one
    // representative site.
    let mut edge_site: BTreeMap<(String, String), (String, u32, Vec<String>)> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        for held in &sites[i] {
            // Direct nested acquisitions in the same fn.
            for inner in &sites[i] {
                if inner.tok > held.tok && inner.tok < held.end {
                    edge_site
                        .entry((held.id.clone(), inner.id.clone()))
                        .or_insert_with(|| (f.file.clone(), inner.line, vec![f.qualified()]));
                }
            }
            // Calls inside the held region whose callees may acquire.
            for (k, c) in f.calls.iter().enumerate() {
                if c.tok <= held.tok || c.tok >= held.end {
                    continue;
                }
                let acquired: BTreeSet<&String> = graph.call_targets[i][k]
                    .iter()
                    .flat_map(|&t| may_acquire[t].iter())
                    .collect();
                if acquired.is_empty() {
                    continue;
                }
                let names: Vec<String> = acquired.iter().map(|s| s.to_string()).collect();
                let reentrant = acquired.contains(&held.id);
                findings.push(Finding {
                    file: f.file.clone(),
                    line: c.line,
                    rule: RuleId::LockAcrossCall,
                    message: format!(
                        "`{}` is called while `{}` is held and may itself acquire {}{}",
                        c.name,
                        held.id,
                        names
                            .iter()
                            .map(|s| format!("`{s}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                        if reentrant {
                            " — re-acquiring the held lock deadlocks"
                        } else {
                            "; narrow the guard or hoist the call"
                        }
                    ),
                    witness: vec![
                        f.qualified(),
                        format!("holds {} @ {}:{}", held.id, f.file, held.line),
                        format!("calls {} @ line {}", c.name, c.line),
                    ],
                });
                for id in names {
                    edge_site
                        .entry((held.id.clone(), id))
                        .or_insert_with(|| (f.file.clone(), c.line, vec![f.qualified()]));
                }
            }
        }
    }

    // Cycle detection over the lock-order graph.
    let mut adj: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
    for (a, b) in edge_site.keys() {
        adj.entry(a).or_default().insert(b);
    }
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if let Some(next) = adj.get(x) {
                for &y in next {
                    if seen.insert(y) {
                        stack.push(y);
                    }
                }
            }
        }
        false
    };
    for ((a, b), (file, line, chain)) in &edge_site {
        let cyclic = a == b || reaches(b, a);
        if !cyclic {
            continue;
        }
        let shape = if a == b {
            format!("`{a}` acquired while already held (self-deadlock)")
        } else {
            format!("`{a}` → `{b}` closes a lock-order cycle (potential deadlock)")
        };
        findings.push(Finding {
            file: file.clone(),
            line: *line,
            rule: RuleId::LockCycle,
            message: format!("{shape}; acquire locks in one global order"),
            witness: chain.clone(),
        });
    }
}

// ---------------------------------------------------------------------------
// panic surface
// ---------------------------------------------------------------------------

/// Panic-capable construct kinds, report order.
const PANIC_KINDS: &[&str] = &["unwrap", "panic", "assert", "index", "div"];

/// Scan one fn body for panic-capable constructs. Returns kind flags
/// indexed like [`PANIC_KINDS`].
fn panic_kinds(toks: &[Tok], start: usize, end: usize) -> [bool; 5] {
    let mut found = [false; 5];
    let end = end.min(toks.len());
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    for i in start..end {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "unwrap" | "expect" if text(i.wrapping_sub(1)) == Some(".") => found[0] = true,
                "panic" | "unreachable" | "todo" | "unimplemented" if text(i + 1) == Some("!") => {
                    found[1] = true
                }
                "assert" | "assert_eq" | "assert_ne" if text(i + 1) == Some("!") => found[2] = true,
                _ => {}
            }
            continue;
        }
        // `expr[…]` indexing: `[` after a value-ending token. Types
        // (`: [f32; 4]`), attributes (`#[…]`), and slice patterns sit
        // after `:`/`#`/`(`/`,`/`=`, never after an ident/`)`/`]`.
        if t.text == "["
            && i > start
            && (matches!(toks[i - 1].kind, TokKind::Ident)
                || matches!(text(i - 1), Some(")") | Some("]")))
        {
            found[3] = true;
        }
        // `a / b`, `a % b` with a non-literal divisor: integer division
        // and remainder panic on zero. Token-level analysis cannot see
        // types, so float division is over-counted — documented imprecision
        // of the certificate, in the safe direction.
        if (t.text == "/" || t.text == "%") && i > start {
            let lhs_value = matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Int)
                || matches!(text(i - 1), Some(")") | Some("]"));
            let rhs_risky = toks
                .get(i + 1)
                .is_some_and(|r| r.kind == TokKind::Ident || r.text == "(");
            if lhs_value && rhs_risky {
                found[4] = true;
            }
        }
    }
    found
}

/// The panic-surface certificate: every fn reachable from the hot entry
/// points whose body contains a panic-capable construct.
fn panic_surface(
    graph: &CallGraph,
    toks_of: &BTreeMap<&str, &[Tok]>,
    cfg: &Config,
) -> Vec<PanicFn> {
    let hot = graph.reachable(&cfg.hot_entry_points);
    let mut out = Vec::new();
    for &i in &hot {
        let f = &graph.fns[i];
        let Some((start, end)) = f.body else { continue };
        let Some(&toks) = toks_of.get(f.file.as_str()) else {
            continue;
        };
        let flags = panic_kinds(toks, start, end);
        let kinds: Vec<&'static str> = PANIC_KINDS
            .iter()
            .zip(flags)
            .filter(|(_, on)| *on)
            .map(|(k, _)| *k)
            .collect();
        if kinds.is_empty() {
            continue;
        }
        out.push(PanicFn {
            qualified: f.qualified(),
            file: f.file.clone(),
            line: f.line,
            kinds,
        });
    }
    out.sort_by(|a, b| (&a.qualified, &a.file, a.line).cmp(&(&b.qualified, &b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::FileSyntax;

    fn setup(files: &[(&str, &str)]) -> (CallGraph, Vec<FileSyntax>) {
        let parsed: Vec<FileSyntax> = files.iter().map(|(p, s)| FileSyntax::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        (graph, parsed)
    }

    fn flow(files: &[(&str, &str)], cfg: &Config) -> Dataflow {
        let (graph, parsed) = setup(files);
        run(&graph, &parsed, cfg)
    }

    #[test]
    fn fixed_point_converges_on_cyclic_graphs() {
        // a ↔ b mutual recursion, c calls a: every fact must flow to every
        // transitive caller exactly once, and the worklist must terminate.
        let (graph, _) = setup(&[(
            "crates/x/src/lib.rs",
            "fn a() { b(); } fn b() { a(); leaf(); } fn c() { a(); } fn leaf() {}",
        )]);
        let idx = |n: &str| graph.match_spec(n)[0];
        let init: Vec<BTreeSet<String>> = graph
            .fns
            .iter()
            .map(|f| {
                if f.name == "leaf" {
                    std::iter::once("L".to_string()).collect()
                } else {
                    BTreeSet::new()
                }
            })
            .collect();
        let facts = propagate_up(&graph, init, |caller, callee| {
            let before = caller.len();
            caller.extend(callee.iter().cloned());
            caller.len() != before
        });
        for n in ["a", "b", "c"] {
            assert!(facts[idx(n)].contains("L"), "{n} missed the callee fact");
        }
    }

    #[test]
    fn taint_reaches_sinks_through_calls_with_witness() {
        let cfg = Config {
            taint_sinks: vec!["Det::assess".into()],
            ..Config::default()
        };
        let d = flow(
            &[(
                "crates/x/src/lib.rs",
                r#"
                impl Det { pub fn assess(&self) -> f32 { stamp() } }
                fn stamp() -> f32 { let t = Instant::now(); 0.0 }
                fn unrelated() { let t = Instant::now(); }
                "#,
            )],
            &cfg,
        );
        let taints: Vec<&Finding> = d
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::TaintFlow)
            .collect();
        assert_eq!(taints.len(), 1, "{:#?}", d.findings);
        assert!(taints[0].message.contains("Det::assess"), "{taints:?}");
        assert_eq!(taints[0].witness.len(), 2, "{:?}", taints[0].witness);
        assert!(taints[0].witness[1].ends_with("::stamp"));
    }

    #[test]
    fn lock_cycle_is_detected_across_fns() {
        // f takes A then B; g takes B then A → cycle.
        let d = flow(
            &[(
                "crates/x/src/lib.rs",
                r#"
                fn f(a: &M, b: &M) { let ga = LOCK_A.lock(); let gb = LOCK_B.lock(); }
                fn g(a: &M, b: &M) { let gb = LOCK_B.lock(); let ga = LOCK_A.lock(); }
                "#,
            )],
            &Config::default(),
        );
        let cycles: Vec<&Finding> = d
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::LockCycle)
            .collect();
        assert!(!cycles.is_empty(), "{:#?}", d.findings);
        assert!(cycles[0].message.contains("cycle"), "{cycles:?}");
    }

    #[test]
    fn lock_across_locking_callee_is_reported() {
        let d = flow(
            &[(
                "crates/x/src/lib.rs",
                r#"
                fn outer() { let g = LOCK_A.lock(); helper(); }
                fn helper() { let h = LOCK_B.lock(); }
                "#,
            )],
            &Config::default(),
        );
        let hits: Vec<&Finding> = d
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::LockAcrossCall)
            .collect();
        assert_eq!(hits.len(), 1, "{:#?}", d.findings);
        assert!(hits[0].message.contains("LOCK_A"), "{hits:?}");
        assert!(hits[0].message.contains("LOCK_B"), "{hits:?}");
    }

    #[test]
    fn temporary_guards_do_not_hold_across_statements() {
        // `m.lock().unwrap().push(…);` releases at the `;` — the next
        // statement's call is not "under" the lock.
        let d = flow(
            &[(
                "crates/x/src/lib.rs",
                r#"
                fn outer() { LOCK_A.lock().unwrap().clear(); helper(); }
                fn helper() { let h = LOCK_B.lock(); }
                "#,
            )],
            &Config::default(),
        );
        assert!(
            !d.findings.iter().any(|f| f.rule == RuleId::LockAcrossCall),
            "{:#?}",
            d.findings
        );
    }

    #[test]
    fn reentrant_acquisition_is_a_self_deadlock() {
        let d = flow(
            &[(
                "crates/x/src/lib.rs",
                r#"
                fn outer() { let g = LOCK_A.lock(); helper(); }
                fn helper() { let h = LOCK_A.lock(); }
                "#,
            )],
            &Config::default(),
        );
        assert!(
            d.findings
                .iter()
                .any(|f| f.rule == RuleId::LockCycle && f.message.contains("self-deadlock")),
            "{:#?}",
            d.findings
        );
        assert!(
            d.findings
                .iter()
                .any(|f| f.rule == RuleId::LockAcrossCall && f.message.contains("deadlock")),
            "{:#?}",
            d.findings
        );
    }

    #[test]
    fn panic_surface_lists_reachable_panic_capable_fns_with_kinds() {
        let cfg = Config {
            hot_entry_points: vec!["Det::assess".into()],
            ..Config::default()
        };
        let (graph, parsed) = setup(&[(
            "crates/x/src/lib.rs",
            r#"
            impl Det { pub fn assess(&self) { risky(); clean(); } }
            fn risky(v: &[f32], n: usize) -> f32 { v[0] / v.len() as f32 + v.get(n).unwrap() }
            fn clean(a: f32, b: f32) -> f32 { a + b }
            fn cold() { panic!("unreachable from assess"); }
            "#,
        )]);
        let d = run(&graph, &parsed, &cfg);
        let names: Vec<&str> = d
            .panic_surface
            .iter()
            .map(|p| p.qualified.as_str())
            .collect();
        assert!(names.iter().any(|n| n.ends_with("::risky")), "{names:?}");
        assert!(!names.iter().any(|n| n.ends_with("::clean")), "{names:?}");
        assert!(!names.iter().any(|n| n.ends_with("::cold")), "{names:?}");
        let risky = d
            .panic_surface
            .iter()
            .find(|p| p.qualified.ends_with("::risky"))
            .unwrap();
        assert!(risky.kinds.contains(&"unwrap"), "{:?}", risky.kinds);
        assert!(risky.kinds.contains(&"index"), "{:?}", risky.kinds);
        assert!(risky.kinds.contains(&"div"), "{:?}", risky.kinds);
    }

    #[test]
    fn index_heuristic_skips_types_attributes_and_patterns() {
        let cfg = Config {
            hot_entry_points: vec!["entry".into()],
            ..Config::default()
        };
        let (graph, parsed) = setup(&[(
            "crates/x/src/lib.rs",
            r#"
            #[derive(Clone)]
            struct W { buf: [f32; 4] }
            fn entry(w: &W) -> f32 { let x: [f32; 2] = [0.0, 1.0]; iterate(w) }
            fn iterate(w: &W) -> f32 { w.buf.iter().sum() }
            "#,
        )]);
        let d = run(&graph, &parsed, &cfg);
        assert!(d.panic_surface.is_empty(), "{:#?}", d.panic_surface);
    }
}
