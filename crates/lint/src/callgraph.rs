//! Workspace-wide approximate call graph over the syntax layer's symbol
//! tables, plus hot-set propagation from declared entry points.
//!
//! Resolution is name-based with method-receiver heuristics — NOT type
//! checked. The soundness posture (documented in DESIGN.md):
//!
//! * **over-approximation**: a method call `x.embed(…)` with no receiver
//!   evidence links to *every* workspace fn named `embed` that has a
//!   receiver, at the cost of possible false edges. False edges can only
//!   make *more* code hot, never hide hot code, so the panic-safety rules
//!   stay conservative. Evidence narrows the set: a declared param, field
//!   or loop-element type, the return type of the caller's own method
//!   (`self.value(a).add(…)`), and trait bounds — a receiver typed as a
//!   workspace trait (`&dyn GraphModel`) or as a generic param bounded by
//!   one (`x: &mut X` with `X: Exec`) dispatches to every `impl Trait for …`
//!   method of that name plus the trait's own default body, and to
//!   nothing else;
//! * **under-approximation**: calls through function pointers/closures
//!   passed as values, macro-generated calls, and calls into `std` are not
//!   edges. Qualified calls whose qualifier names nothing in the workspace
//!   (`Vec::new`, `f32::max`) and method calls on SCREAMING_CASE statics
//!   (`STATE.load(…)` — std atomics/lazies) are treated as std too, rather
//!   than linked to every same-named workspace fn. Calls that match no
//!   workspace symbol are *reported* in [`CallGraph::unresolved`] rather
//!   than silently dropped.
//!
//! `#[cfg(test)]` functions are excluded from the graph entirely: they
//! neither seed hotness nor extend chains (test callers must not make
//! library code hot).

use crate::syntax::{CallKind, CallSite, FileSyntax};
use std::collections::{BTreeMap, BTreeSet};

/// One function node in the workspace graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Workspace-relative file path (`crates/tensor/src/par.rs`).
    pub file: String,
    /// Crate name derived from the path (`glint-tensor` → `glint_tensor`;
    /// the root package is `glint_suite`).
    pub krate: String,
    pub name: String,
    pub receiver: Option<String>,
    /// Trait of the enclosing `impl Trait for Type` block.
    pub impl_trait: Option<String>,
    /// Leading type name of the declared return type.
    pub ret: Option<String>,
    /// Generic bounds `(param, trait)` of the fn's own generics.
    pub bounds: Vec<(String, String)>,
    /// Parameter name → type last segment, receiver evidence for resolution.
    pub params: Vec<(String, String)>,
    /// `for`-loop element bindings: binding → `"self.<field>"` or a bare
    /// local name (chased through [`local_type`]).
    pub loop_elems: Vec<(String, String)>,
    pub module: Vec<String>,
    pub line: u32,
    /// Body token range into that file's token vector.
    pub body: Option<(usize, usize)>,
    pub cfg_feature: Option<String>,
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// `crate::module::Receiver::name`, the display identity used in
    /// reports and call chains.
    pub fn qualified(&self) -> String {
        let mut parts: Vec<&str> = vec![self.krate.as_str()];
        for m in &self.module {
            parts.push(m);
        }
        if let Some(r) = &self.receiver {
            parts.push(r);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// Adjacency: `edges[i]` = indices of fns that `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
    /// Calls that matched no workspace symbol: callee name → count.
    /// (Mostly std/shim calls; reported, never dropped.)
    pub unresolved: BTreeMap<String, usize>,
    /// Total resolved call edges (before dedup), for the report.
    pub resolved_calls: usize,
    /// Per-call resolution: `call_targets[i][k]` = fn indices call `k` of
    /// `fns[i].calls` resolved to (empty for unresolved calls). The
    /// lock-order analysis needs *which call site* reaches a lock, not just
    /// the deduplicated adjacency.
    pub call_targets: Vec<Vec<Vec<usize>>>,
    /// Struct name → field name → field type last segment, from `struct`
    /// items across the workspace. Receiver evidence for `self.field.f(…)`.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// Names declared by `trait` items. A receiver typed by one of these
    /// (or by a generic param bounded by one) dispatches to the trait's
    /// impls and its own default bodies.
    pub traits: BTreeSet<String>,
}

/// Module segments a file contributes by its location: Rust's file-tree
/// module structure. `crates/tensor/src/par.rs` → `["par"]`,
/// `crates/gnn/src/models/gin.rs` → `["models", "gin"]`; `lib.rs`,
/// `main.rs`, and `mod.rs` contribute their directories only. Without
/// this, `par::ordered_map(…)` cannot resolve — inline `mod` blocks are
/// not the only way code gets a module path.
pub fn file_modules(path: &str) -> Vec<String> {
    let rest = path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, r)| r)
        .unwrap_or(path);
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let mut mods: Vec<String> = rest.split('/').map(|s| s.to_string()).collect();
    if let Some(last) = mods.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
        if last == "lib" || last == "main" || last == "mod" {
            mods.pop();
        }
    }
    mods
}

/// Derive the crate name from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or(rest);
        format!("glint_{}", krate.replace('-', "_"))
    } else if path.starts_with("src/") {
        "glint_suite".to_string()
    } else {
        // Fixture/masquerade paths: first component.
        path.split('/').next().unwrap_or(path).replace('-', "_")
    }
}

impl CallGraph {
    /// Build the graph from parsed files. `#[cfg(test)]` fns are dropped
    /// here — they are not nodes at all.
    pub fn build(files: &[FileSyntax]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        let mut structs: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut traits: BTreeSet<String> = BTreeSet::new();
        for fs in files {
            let krate = crate_of(&fs.path);
            let file_mods = file_modules(&fs.path);
            for (name, fields) in &fs.structs {
                structs
                    .entry(name.clone())
                    .or_default()
                    .extend(fields.iter().cloned());
            }
            traits.extend(fs.traits.iter().cloned());
            for f in &fs.fns {
                if f.is_test {
                    continue;
                }
                let mut module = file_mods.clone();
                module.extend(f.module.iter().cloned());
                fns.push(FnNode {
                    file: fs.path.clone(),
                    krate: krate.clone(),
                    name: f.name.clone(),
                    receiver: f.receiver.clone(),
                    impl_trait: f.impl_trait.clone(),
                    ret: f.ret.clone(),
                    bounds: f.bounds.clone(),
                    params: f.params.clone(),
                    loop_elems: f.loop_elems.clone(),
                    module,
                    line: f.line,
                    body: f.body,
                    cfg_feature: f.cfg_feature.clone(),
                    calls: f.calls.clone(),
                });
            }
        }
        // Deterministic node order regardless of input file order.
        fns.sort_by(|a, b| {
            (&a.file, a.line, &a.name, &a.receiver).cmp(&(&b.file, b.line, &b.name, &b.receiver))
        });

        // Indices for resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut unresolved: BTreeMap<String, usize> = BTreeMap::new();
        let mut resolved_calls = 0usize;
        let tables = TypeTables {
            structs: &structs,
            traits: &traits,
        };
        let mut call_targets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(fns.len());
        for i in 0..fns.len() {
            let caller = fns[i].clone();
            let mut out: BTreeSet<usize> = BTreeSet::new();
            let mut per_call: Vec<Vec<usize>> = Vec::with_capacity(caller.calls.len());
            for call in &caller.calls {
                match resolve(&fns, &by_name, &tables, &caller, call) {
                    Some(targets) => {
                        resolved_calls += 1;
                        out.extend(targets.iter().copied());
                        per_call.push(targets);
                    }
                    None => {
                        *unresolved.entry(call.name.clone()).or_insert(0) += 1;
                        per_call.push(Vec::new());
                    }
                }
            }
            edges[i] = out.into_iter().collect();
            call_targets.push(per_call);
        }
        CallGraph {
            fns,
            edges,
            unresolved,
            resolved_calls,
            call_targets,
            structs,
            traits,
        }
    }

    /// [`CallGraph::parents_from`] seeded by explicit fn indices. The walk
    /// never enters a fn in `stop`.
    pub fn parents_from_set(
        &self,
        seeds: &BTreeSet<usize>,
        stop: &BTreeSet<usize>,
    ) -> BTreeMap<usize, usize> {
        let mut parents: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier: Vec<usize> = Vec::new();
        for &i in seeds {
            parents.entry(i).or_insert(i);
            frontier.push(i);
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &i in &frontier {
                for &j in self.edges[i].iter().filter(|j| !stop.contains(j)) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parents.entry(j) {
                        e.insert(i);
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        parents
    }

    /// Reverse adjacency: `callers[i]` = indices of fns that may call
    /// `fns[i]`. The dataflow engine's backward (callee-summary) passes
    /// propagate along these.
    pub fn callers(&self) -> Vec<Vec<usize>> {
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (i, out) in self.edges.iter().enumerate() {
            for &j in out {
                rev[j].push(i);
            }
        }
        rev
    }

    /// The unresolved map minus mechanical noise: enum-variant / type
    /// constructors (capitalized names — `Some`, `Ok`, `Err`, local variant
    /// names) and std staples that positive evidence already classified as
    /// non-workspace calls. What remains is an actionable worklist of
    /// genuinely unknown callees.
    pub fn actionable_unresolved(&self) -> BTreeMap<String, usize> {
        self.unresolved
            .iter()
            .filter(|(name, _)| {
                name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && !STD_METHOD_STAPLES.contains(&name.as_str())
                    && !STD_FREE_STAPLES.contains(&name.as_str())
            })
            .map(|(name, count)| (name.clone(), *count))
            .collect()
    }

    /// Indices of fns matching an entry-point spec:
    /// * `name` — every fn with that name, method or free;
    /// * `Recv::name` — fns named `name` whose receiver is `Recv`;
    /// * `Recv::*` — every method of `Recv`.
    pub fn match_spec(&self, spec: &str) -> Vec<usize> {
        match spec.split_once("::") {
            Some((recv, name)) => self
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    f.receiver.as_deref() == Some(recv) && (name == "*" || f.name == name)
                })
                .map(|(i, _)| i)
                .collect(),
            None => self
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.name == spec)
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Forward reachability from the given entry-point specs: the hot set.
    pub fn reachable(&self, specs: &[String]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for spec in specs {
            for i in self.match_spec(spec) {
                if seen.insert(i) {
                    queue.push(i);
                }
            }
        }
        while let Some(i) = queue.pop() {
            for &j in &self.edges[i] {
                if seen.insert(j) {
                    queue.push(j);
                }
            }
        }
        seen
    }

    /// BFS parent map from the entry specs: `parents[i]` is the index this
    /// fn was first discovered from (entries map to themselves). Shortest
    /// call chains for census evidence are read out of this.
    pub fn parents_from(&self, specs: &[String]) -> BTreeMap<usize, usize> {
        let mut seeds: BTreeSet<usize> = BTreeSet::new();
        for spec in specs {
            seeds.extend(self.match_spec(spec));
        }
        self.parents_from_set(&seeds, &BTreeSet::new())
    }

    /// Shortest call chain (entry → … → fn `i`) as qualified names.
    pub fn chain(&self, parents: &BTreeMap<usize, usize>, i: usize) -> Vec<String> {
        let mut rev = vec![i];
        let mut cur = i;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter().map(|k| self.fns[k].qualified()).collect()
    }

    /// Hot token ranges per file: path → body ranges of hot fns.
    pub fn hot_ranges(&self, hot: &BTreeSet<usize>) -> BTreeMap<String, Vec<(usize, usize)>> {
        let mut out: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for &i in hot {
            if let Some(range) = self.fns[i].body {
                out.entry(self.fns[i].file.clone()).or_default().push(range);
            }
        }
        out
    }
}

/// Workspace type knowledge the resolver narrows with.
struct TypeTables<'a> {
    structs: &'a BTreeMap<String, BTreeMap<String, String>>,
    traits: &'a BTreeSet<String>,
}

/// Type evidence for a plain-ident receiver: declared param types first,
/// then `for`-loop element bindings (`for layer in &self.layers` resolves
/// `layer` to the *last identifier* of the field's declared type — the
/// innermost element type, since `Vec<Vec<TagConv>>` erases to `TagConv`.
/// Nested containers and chained loops over locals therefore all bind to
/// the same innermost type, which is exactly what the loops iterate).
/// Local-to-local chains are chased a bounded number of hops.
fn local_type<'a>(
    tables: &TypeTables<'a>,
    caller: &'a FnNode,
    name: &str,
    depth: usize,
) -> Option<&'a str> {
    if depth > 4 {
        return None;
    }
    if let Some((_, t)) = caller.params.iter().find(|(n, _)| n == name) {
        return Some(t.as_str());
    }
    let (_, src) = caller.loop_elems.iter().find(|(b, _)| b == name)?;
    if let Some(field) = src.strip_prefix("self.") {
        return tables
            .structs
            .get(caller.receiver.as_deref()?)?
            .get(field)
            .map(|t| t.as_str());
    }
    local_type(tables, caller, src, depth + 1)
}

/// Resolve one call against the symbol table. Returns `None` when nothing
/// in the workspace matches (→ unresolved report).
fn resolve(
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    tables: &TypeTables,
    caller: &FnNode,
    call: &CallSite,
) -> Option<Vec<usize>> {
    let candidates = by_name.get(call.name.as_str())?;
    let pick = |pred: &dyn Fn(&FnNode) -> bool| -> Vec<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&i| pred(&fns[i]))
            .collect()
    };
    match &call.kind {
        CallKind::Method {
            recv_ident,
            recv_base,
        } => {
            // `STATIC.load(…)` / `GATE.store(…)`: a SCREAMING_CASE receiver
            // is a static — its methods are std atomics/lazies, not
            // workspace dispatch. Report unresolved instead of linking the
            // name to unrelated workspace fns (e.g. dataset `load`).
            if recv_ident.as_deref().is_some_and(is_screaming_case) {
                return None;
            }
            let methods = pick(&|f| f.receiver.is_some());
            // Positive receiver evidence narrows the candidate set:
            // `self.f(…)` → the caller's own impl; a declared param type
            // (`ctx: &mut InferCtx` → `ctx.f(…)`), a struct field type
            // (`self.l0.f(…)` with `l0: GcnLayer`) or the return type of
            // the caller's own method (`self.value(a).f(…)` with
            // `fn value(…) -> &Matrix`) → methods of that type;
            // `tape.f(…)` → a type whose lowercased name matches.
            let recv = recv_ident.as_deref();
            if recv == Some("self") && caller.receiver.is_some() {
                let own: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].receiver == caller.receiver)
                    .collect();
                if !own.is_empty() {
                    return Some(own);
                }
            }
            let declared: Option<&str> = match recv {
                Some("self") => None,
                Some(r) if recv_base.as_deref() == Some("self") => caller
                    .receiver
                    .as_deref()
                    .and_then(|c| tables.structs.get(c))
                    .and_then(|fields| fields.get(r))
                    .map(|t| t.as_str()),
                Some(r) => local_type(tables, caller, r, 0),
                None => call.recv_call.as_deref().and_then(|m| {
                    let own = by_name.get(m)?;
                    own.iter()
                        .map(|&i| &fns[i])
                        .find(|f| f.receiver.is_some() && f.receiver == caller.receiver)?
                        .ret
                        .as_deref()
                }),
            };
            if let Some(ty) = declared {
                // Trait evidence: a receiver typed as a workspace trait
                // (`model: &dyn GraphModel`) or as a generic param bounded
                // by one (`x: &mut X` with `X: Exec`) dispatches only to
                // that trait — every `impl Trait for …` method of the
                // name, plus the trait's own declaration and default body.
                // Same-named inherent methods of other types
                // (`Tape::matmul`, `Matrix::matmul`) are not reachable
                // through it.
                let traits: Vec<&str> = if tables.traits.contains(ty) {
                    vec![ty]
                } else {
                    caller
                        .bounds
                        .iter()
                        .filter(|(p, b)| p == ty && tables.traits.contains(b))
                        .map(|(_, b)| b.as_str())
                        .collect()
                };
                if !traits.is_empty() {
                    let via: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let f = &fns[i];
                            traits.iter().any(|t| {
                                f.impl_trait.as_deref() == Some(t)
                                    || f.receiver.as_deref() == Some(t)
                            })
                        })
                        .collect();
                    // No such trait method: a supertrait's or a std method
                    // (`x.clone()`), not a workspace call.
                    return (!via.is_empty()).then_some(via);
                }
                let typed: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].receiver.as_deref() == Some(ty))
                    .collect();
                if !typed.is_empty() {
                    return Some(typed);
                }
                // A declared workspace struct type with no inherent method
                // of that name: it may still be a workspace trait's default
                // body (receiver = the trait name); otherwise the call goes
                // to a std/derive impl (`cfg.clone()`, `map.get(…)` on a
                // BTreeMap field) — treat as non-workspace rather than
                // falling back to the all-methods heuristic.
                if tables.structs.contains_key(ty) {
                    let via_trait: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&i| {
                            fns[i]
                                .receiver
                                .as_deref()
                                .is_some_and(|r| tables.traits.contains(r))
                        })
                        .collect();
                    return (!via_trait.is_empty()).then_some(via_trait);
                }
            }
            if let Some(r) = recv.filter(|&r| r != "self") {
                let typed: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&i| {
                        fns[i]
                            .receiver
                            .as_deref()
                            .is_some_and(|c| c.eq_ignore_ascii_case(r))
                    })
                    .collect();
                if !typed.is_empty() {
                    return Some(typed);
                }
            }
            // Without evidence, std-staple names (`len`, `push`, `split`,
            // `iter`, …) are overwhelmingly std container/iterator calls —
            // linking them by bare name would pull arbitrary workspace
            // types into the hot set. Report unresolved instead.
            if STD_METHOD_STAPLES.contains(&call.name.as_str()) {
                return None;
            }
            // Method-receiver heuristic: any workspace method of that name
            // (this is what keeps `dyn GraphModel` trait dispatch visible).
            // A method call can never target a free fn — falling back to
            // free candidates would link `m.lock()` to an unrelated free
            // `lock()` accessor — so no-methods means non-workspace.
            if !methods.is_empty() {
                return Some(methods);
            }
            None
        }
        CallKind::Free => {
            // Same-crate free fns first (plain `helper()` is almost always
            // a sibling), then any free fn, then anything by name.
            let same_crate = pick(&|f| f.receiver.is_none() && f.krate == caller.krate);
            if !same_crate.is_empty() {
                return Some(same_crate);
            }
            let free = pick(&|f| f.receiver.is_none());
            if !free.is_empty() {
                return Some(free);
            }
            Some(candidates.clone())
        }
        CallKind::Path(qual) => {
            // `Self::f` → the caller's own impl block.
            if qual == "Self" {
                let own = pick(&|f| f.receiver == caller.receiver);
                if !own.is_empty() {
                    return Some(own);
                }
            }
            // `Type::f` → methods of that type.
            let typed = pick(&|f| f.receiver.as_deref() == Some(qual.as_str()));
            if !typed.is_empty() {
                return Some(typed);
            }
            // `module::f` → fns whose module path ends with the qualifier.
            let in_mod = pick(&|f| f.module.last().map(|m| m == qual).unwrap_or(false));
            if !in_mod.is_empty() {
                return Some(in_mod);
            }
            // `crate_name::f` (with `-`/`_` normalization).
            let q_norm = qual.replace('-', "_");
            let in_crate = pick(&|f| f.krate == q_norm);
            if !in_crate.is_empty() {
                return Some(in_crate);
            }
            // `crate::` / `self::` / `super::` → same crate.
            if qual == "crate" || qual == "self" || qual == "super" {
                let same = pick(&|f| f.krate == caller.krate);
                if !same.is_empty() {
                    return Some(same);
                }
            }
            // Unknown qualifier: a type/module outside the workspace (std,
            // shim, enum ctor). Linking by bare name here would make every
            // `Vec::new()` in hot code mark every workspace constructor
            // hot — report unresolved instead.
            None
        }
    }
}

/// Method names that are std container/iterator/IO staples. Without
/// positive receiver evidence these resolve as std (→ unresolved report),
/// not as workspace edges: one `rest.split('/')` must not mark
/// `GraphDataset::split` hot.
const STD_METHOD_STAPLES: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "count",
    "collect",
    "extend",
    "split",
    "split_at",
    "split_once",
    "split_whitespace",
    "join",
    "clone",
    "to_vec",
    "to_string",
    "parse",
    "trim",
    "starts_with",
    "ends_with",
    "chars",
    "lines",
    "load",
    "store",
    "swap",
    "take",
    "replace",
    "last",
    "first",
    "sort",
    "sort_by",
    "reverse",
    "resize",
    "truncate",
    "drain",
    "entry",
    "keys",
    "values",
    "position",
    "find",
    "any",
    "all",
    "zip",
    "rev",
    "skip",
    "enumerate",
    "flat_map",
    "push_str",
    "write",
    "read",
    "flush",
];

/// Free/associated std names filtered out of the *actionable* unresolved
/// report (they stay in [`CallGraph::unresolved`]): `Vec::new`,
/// `f32::max`, `Option::unwrap_or`, … resolve to nothing in the workspace
/// by design, and listing hundreds of them buries the callees a human
/// should actually look at.
const STD_FREE_STAPLES: &[&str] = &[
    "new",
    "with_capacity",
    "default",
    "from",
    "try_from",
    "try_into",
    "into",
    "from_str",
    "to_owned",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_err",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "or_insert",
    "or_insert_with",
    "or_default",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_str",
    "as_slice",
    "as_bytes",
    "abs",
    "sqrt",
    "exp",
    "ln",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "clamp",
    "fract",
    "is_finite",
    "is_nan",
    "to_bits",
    "from_bits",
    "min_by_key",
    "max_by_key",
    "copied",
    "cloned",
    "chunks",
    "chunks_exact",
    "windows",
    "saturating_sub",
    "saturating_add",
    "saturating_mul",
    "checked_sub",
    "checked_add",
    "checked_mul",
    "checked_div",
    "wrapping_sub",
    "wrapping_add",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "swap_remove",
    "retain",
    "dedup",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "partition_point",
    "rotate_left",
    "rotate_right",
    "fill",
    "copy_from_slice",
    "clone_from_slice",
    "split_at_mut",
    "split_first",
    "split_last",
    "size_of",
    "align_of",
    "forget",
    "drop",
    "exit",
    "args",
    "var",
    "var_os",
    "current_dir",
    "display",
    "to_path_buf",
    "read_to_string",
    "create",
    "create_dir_all",
    "remove_file",
    "rename",
    "exists",
    "is_dir",
    "is_file",
    "extension",
    "file_name",
    "strip_prefix",
    "strip_suffix",
    "trim_start_matches",
    "trim_end_matches",
    "eq_ignore_ascii_case",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_lowercase",
    "to_uppercase",
    "is_alphanumeric",
    "is_ascii_digit",
    "is_ascii_lowercase",
    "is_ascii_uppercase",
    "available_parallelism",
    "spawn",
    "scope",
    "sleep",
    "elapsed",
    "duration_since",
    "as_secs_f64",
    "as_millis",
    "as_micros",
    "as_nanos",
];

/// `STATE`, `REGISTRY`, `A_B2` — the static-item naming convention.
fn is_screaming_case(s: &str) -> bool {
    s.len() >= 2
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.chars().any(|c| c.is_ascii_uppercase())
}

/// Convenience carried around by lib.rs: a built graph plus its derived
/// hot information for one configuration.
pub struct HotAnalysis {
    pub graph: CallGraph,
    /// Fns reachable from `Config::hot_entry_points`.
    pub hot: BTreeSet<usize>,
    /// path → hot body token ranges.
    pub hot_ranges: BTreeMap<String, Vec<(usize, usize)>>,
}

impl HotAnalysis {
    pub fn new(files: &[FileSyntax], hot_entry_points: &[String]) -> HotAnalysis {
        let graph = CallGraph::build(files);
        let hot = graph.reachable(hot_entry_points);
        let hot_ranges = graph.hot_ranges(&hot);
        HotAnalysis {
            graph,
            hot,
            hot_ranges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::FileSyntax;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<FileSyntax> = files.iter().map(|(p, s)| FileSyntax::parse(p, s)).collect();
        CallGraph::build(&parsed)
    }

    fn names(g: &CallGraph, set: &BTreeSet<usize>) -> Vec<String> {
        set.iter().map(|&i| g.fns[i].qualified()).collect()
    }

    #[test]
    fn cycles_terminate_and_stay_hot() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn entry() { ping(); } fn ping() { pong(); } fn pong() { ping(); }",
        )]);
        let hot = g.reachable(&["entry".to_string()]);
        assert_eq!(hot.len(), 3, "{:?}", names(&g, &hot));
    }

    #[test]
    fn declared_param_types_narrow_method_dispatch() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct A; struct B;
            impl A { fn score(&self) -> f32 { 1.0 } }
            impl B { fn score(&self) -> f32 { 2.0 } }
            fn entry(x: &A) -> f32 { x.score() }
            "#,
        )]);
        let hot = g.reachable(&["entry".to_string()]);
        // `x: &A` is positive type evidence: only `A::score` links.
        let n = names(&g, &hot);
        assert_eq!(hot.len(), 2, "{n:?}");
        assert!(n.iter().any(|q| q.ends_with("A::score")), "{n:?}");
    }

    #[test]
    fn method_name_collisions_without_evidence_over_approximate() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct A; struct B;
            impl A { fn score(&self) -> f32 { 1.0 } }
            impl B { fn score(&self) -> f32 { 2.0 } }
            fn entry<M>(x: &M) -> f32 { x.score() }
            "#,
        )]);
        let hot = g.reachable(&["entry".to_string()]);
        // `M` names no workspace type: name-based dispatch cannot
        // distinguish receivers, and over-approximating keeps rules sound.
        assert_eq!(hot.len(), 3, "{:?}", names(&g, &hot));
    }

    #[test]
    fn dyn_trait_params_keep_every_implementor_linked() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            trait Model: Send { fn score(&self) -> f32; }
            struct A; struct B; struct Other;
            impl Model for A { fn score(&self) -> f32 { 1.0 } }
            impl Model for B { fn score(&self) -> f32 { 2.0 } }
            impl Other { fn score(&self) -> f32 { 3.0 } }
            fn entry(m: &dyn Model) -> f32 { m.score() }
            "#,
        )]);
        let hot = g.reachable(&["entry".to_string()]);
        let n = names(&g, &hot);
        // Trait-typed evidence dispatches to every implementor, and only
        // to implementors: an unrelated same-named inherent method stays
        // out.
        assert!(n.iter().any(|q| q.contains("A::score")), "{n:?}");
        assert!(n.iter().any(|q| q.contains("B::score")), "{n:?}");
        assert!(!n.iter().any(|q| q.contains("Other::score")), "{n:?}");
    }

    /// A forward body generic over an executor trait, reached from a
    /// serving entry point: `x.matmul()` on `x: &mut X` with `X: Exec`
    /// links to the `Exec` impls only. Name-based dispatch used to link it
    /// to every workspace `matmul` as well, putting `Tape::matmul`'s
    /// `vec!` and `Matrix::matmul`'s `Matrix::zeros` into the serving
    /// census.
    #[test]
    fn generic_params_bounded_by_a_trait_dispatch_to_its_impls() {
        let files: Vec<FileSyntax> = [(
            "crates/a/src/lib.rs",
            r#"
            pub trait Exec { fn matmul(&mut self); }
            pub struct Tape; pub struct Matrix;
            pub struct TapeExec { tape: Tape }
            pub struct InferExec;
            impl Tape { pub fn matmul(&mut self) { let _n = vec![0usize; 2]; } }
            impl Matrix { pub fn matmul(&self) -> Matrix { Matrix::zeros() } }
            impl Exec for TapeExec { fn matmul(&mut self) { self.tape.matmul(); } }
            impl Exec for InferExec { fn matmul(&mut self) { pooled(); } }
            fn pooled() {}
            pub struct Net;
            impl Net {
                pub fn forward<X: Exec>(&self, x: &mut X) { x.matmul(); }
                pub fn forward_where<X>(&self, x: &mut X) where X: Exec { x.matmul(); }
            }
            pub struct GlintDetector { net: Net }
            impl GlintDetector {
                pub fn assess(&self) {
                    self.net.forward(&mut InferExec);
                    self.net.forward_where(&mut InferExec);
                }
            }
            "#,
        )]
        .iter()
        .map(|(p, s)| FileSyntax::parse(p, s))
        .collect();
        let g = CallGraph::build(&files);
        for entry in ["Net::forward", "Net::forward_where"] {
            let callee: Vec<String> = g
                .match_spec(entry)
                .iter()
                .flat_map(|&i| g.edges[i].iter().map(|&j| g.fns[j].qualified()))
                .collect();
            assert_eq!(
                callee,
                [
                    "glint_a::Exec::matmul",
                    "glint_a::TapeExec::matmul",
                    "glint_a::InferExec::matmul"
                ],
                "{entry}"
            );
        }
        let census = crate::census::run(
            &g,
            &["GlintDetector::assess".to_string()],
            &crate::Config::default().tape_alloc_fns,
            &files,
        );
        assert_eq!(census.total_sites(), 0, "{:#?}", census.sites);
    }

    #[test]
    fn own_method_return_types_type_chained_receivers() {
        // `self.value(a).add(…)` calls `add` on what `value` returns.
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct Matrix; struct Tape; struct Home;
            impl Matrix { fn add(&self, o: &Matrix) -> Matrix { Matrix } }
            impl Home { fn add(&mut self) { tainted(); } }
            fn tainted() {}
            impl Tape {
                fn value(&self, v: usize) -> &Matrix { &Matrix }
                fn add(&mut self, a: usize, b: usize) { self.value(a).add(self.value(b)); }
            }
            "#,
        )]);
        let hot = g.reachable(&["Tape::add".to_string()]);
        let n = names(&g, &hot);
        assert!(n.iter().any(|q| q.ends_with("Matrix::add")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("Home::add")), "{n:?}");
    }

    #[test]
    fn struct_field_types_resolve_self_field_calls() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct Layer; struct Other;
            impl Layer { fn forward(&self) {} }
            impl Other { fn forward(&self) {} }
            struct Net { l0: Layer }
            impl Net {
                fn entry(&self) { self.l0.forward(); }
            }
            "#,
        )]);
        let hot = g.reachable(&["Net::entry".to_string()]);
        let n = names(&g, &hot);
        assert!(n.iter().any(|q| q.ends_with("Layer::forward")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("Other::forward")), "{n:?}");
    }

    #[test]
    fn loop_element_bindings_narrow_method_dispatch() {
        // `for layer in &self.layers` binds `layer` to the container's
        // element type; calls through it must not fall back to the
        // all-methods heuristic (which would drag in the trait default).
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct Layer; struct Other;
            impl Layer { fn forward(&self) {} }
            impl Other { fn forward(&self) {} }
            struct Net { layers: Vec<Layer> }
            impl Net {
                fn entry(&self) {
                    for layer in &self.layers {
                        layer.forward();
                    }
                }
            }
            "#,
        )]);
        let hot = g.reachable(&["Net::entry".to_string()]);
        let n = names(&g, &hot);
        assert!(n.iter().any(|q| q.ends_with("Layer::forward")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("Other::forward")), "{n:?}");
    }

    #[test]
    fn indexed_field_receivers_narrow_method_dispatch() {
        // `self.pools[d].forward()` walks back over the `[d]` index to the
        // field and uses its declared element type.
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct Pool; struct Other;
            impl Pool { fn forward(&self) {} }
            impl Other { fn forward(&self) {} }
            struct Net { pools: Vec<Pool> }
            impl Net {
                fn entry(&self, d: usize) { self.pools[d].forward(); }
            }
            "#,
        )]);
        let hot = g.reachable(&["Net::entry".to_string()]);
        let n = names(&g, &hot);
        assert!(n.iter().any(|q| q.ends_with("Pool::forward")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("Other::forward")), "{n:?}");
    }

    #[test]
    fn method_calls_never_resolve_to_free_fns() {
        // A `recv.lock()` method call must not link to a free fn named
        // `lock` — the receiver rules out the free-fn form entirely.
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            pub fn lock() { leaf(); }
            fn leaf() {}
            struct S { m: Mutex<u32> }
            impl S {
                fn entry(&self) { let _g = self.m.lock(); }
            }
            "#,
        )]);
        let hot = g.reachable(&["S::entry".to_string()]);
        let n = names(&g, &hot);
        assert!(!n.iter().any(|q| q.ends_with("::lock")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("::leaf")), "{n:?}");
    }

    #[test]
    fn fn_references_are_edges() {
        // `process(&crate::features::node_features)` passes the fn as a
        // value — the callee must still become reachable.
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { process(&crate::features::node_features); } \
                 pub fn process(f: &dyn Fn()) { }",
            ),
            (
                "crates/a/src/features.rs",
                "pub fn node_features() { leaf(); } fn leaf() {}",
            ),
        ]);
        let hot = g.reachable(&["entry".to_string()]);
        let n = names(&g, &hot);
        assert!(
            n.iter().any(|q| q.ends_with("features::node_features")),
            "{n:?}"
        );
        assert!(n.iter().any(|q| q.ends_with("features::leaf")), "{n:?}");
    }

    #[test]
    fn actionable_unresolved_filters_variant_ctors_and_staples() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            enum E { Leaf(u32) }
            fn entry(x: Option<u32>) -> Option<E> {
                let v = Vec::new();
                v.iter();
                mystery_callee();
                x.map(E::Leaf);
                Some(E::Leaf(2))
            }
            "#,
        )]);
        // Raw unresolved keeps everything…
        assert!(g.unresolved.contains_key("Some"), "{:?}", g.unresolved);
        assert!(g.unresolved.contains_key("iter"));
        // …the actionable view drops variant ctors (capitalized) and std
        // staples, keeping the genuinely unknown callee.
        let act = g.actionable_unresolved();
        assert!(act.contains_key("mystery_callee"), "{act:?}");
        assert!(
            !act.keys()
                .any(|k| k.chars().next().unwrap().is_ascii_uppercase()),
            "{act:?}"
        );
        assert!(!act.contains_key("iter"), "{act:?}");
        assert!(!act.contains_key("new"), "{act:?}");
    }

    #[test]
    fn qualified_calls_prefer_the_named_type() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            struct A; struct B;
            impl A { fn make() -> A { A } }
            impl B { fn make() -> B { B } }
            fn entry() { A::make(); }
            "#,
        )]);
        let hot = g.reachable(&["entry".to_string()]);
        let n = names(&g, &hot);
        assert!(n.iter().any(|q| q.ends_with("A::make")), "{n:?}");
        assert!(!n.iter().any(|q| q.ends_with("B::make")), "{n:?}");
    }

    #[test]
    fn file_level_modules_resolve_qualified_free_calls() {
        // `par::ordered_map(..)` must resolve to the fn living in
        // crates/tensor/src/par.rs: the file path contributes the `par`
        // module segment even though the file has no inline `mod par`.
        let g = graph_of(&[
            (
                "crates/tensor/src/batch.rs",
                "pub fn assess_batch() { par::ordered_map(); }",
            ),
            (
                "crates/tensor/src/par.rs",
                "pub fn ordered_map() { loop {} }",
            ),
        ]);
        let hot = g.reachable(&["assess_batch".to_string()]);
        let n = names(&g, &hot);
        assert!(
            n.iter().any(|q| q == "glint_tensor::par::ordered_map"),
            "{n:?}"
        );
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn cross_crate_edges_resolve() {
        let g = graph_of(&[
            (
                "crates/core/src/detector.rs",
                "impl Detector { pub fn assess(&self) { spmm(); } }",
            ),
            (
                "crates/tensor/src/csr.rs",
                "pub fn spmm() { inner_kernel(); } fn inner_kernel() {}",
            ),
        ]);
        let hot = g.reachable(&["Detector::assess".to_string()]);
        let n = names(&g, &hot);
        assert!(
            n.contains(&"glint_tensor::csr::inner_kernel".to_string()),
            "{n:?}"
        );
    }

    #[test]
    fn cfg_test_callers_are_excluded_entirely() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
            fn kernel() {}
            #[cfg(test)]
            mod tests {
                fn entry() { kernel(); }
            }
            "#,
        )]);
        // The test-only caller is not even a node…
        assert_eq!(g.fns.len(), 1);
        // …so seeding from its name reaches nothing.
        let hot = g.reachable(&["entry".to_string()]);
        assert!(hot.is_empty());
    }

    #[test]
    fn wildcard_specs_match_every_method_of_a_type() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl Tape { fn matmul(&self) {} fn relu(&self) {} } fn free() {}",
        )]);
        let hot = g.reachable(&["Tape::*".to_string()]);
        assert_eq!(hot.len(), 2, "{:?}", names(&g, &hot));
    }

    #[test]
    fn unresolved_calls_are_reported_not_dropped() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn entry(v: &[f32]) -> f32 { v.iter().copied().fold(0.0, f32::max) }",
        )]);
        assert!(g.unresolved.contains_key("iter"), "{:?}", g.unresolved);
        assert!(g.unresolved.contains_key("fold"), "{:?}", g.unresolved);
    }

    #[test]
    fn chains_walk_back_to_the_entry() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn entry() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        )]);
        let parents = g.parents_from(&["entry".to_string()]);
        let leaf = g.match_spec("leaf")[0];
        let chain = g.chain(&parents, leaf);
        assert_eq!(
            chain,
            vec![
                "glint_a::entry".to_string(),
                "glint_a::mid".to_string(),
                "glint_a::leaf".to_string()
            ]
        );
    }
}
