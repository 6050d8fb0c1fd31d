//! Lightweight syntax layer on top of the lexer: recognizes items
//! (`fn` / `impl` / `trait` / `mod`), their bodies, and the call expressions
//! inside them, producing a per-file symbol table the workspace call graph
//! ([`crate::callgraph`]) is built from.
//!
//! This is *not* a Rust parser. It understands exactly enough structure for
//! name-based call resolution:
//!
//! * item nesting (`mod`/`impl`/`trait` blocks, nested `fn`s) with the
//!   enclosing impl/trait type recorded as the method receiver;
//! * `#[cfg(test)]` items (marked, so test-only code neither triggers rules
//!   nor seeds hotness) and `#[cfg(feature = "…")]` items (the gating
//!   feature is recorded and reported — feature-gated code still
//!   participates in the graph because it may well be compiled);
//! * call expressions `f(…)`, `recv.method(…)`, `Qual::f(…)`, including
//!   turbofish (`collect::<Vec<_>>()`); macros (`name!`) are not calls.
//!
//! Everything else — expressions, types, closures — is skipped over
//! structurally (balanced delimiters) without being understood. Soundness
//! caveats live with the resolver in `callgraph.rs`.

use crate::lexer::{self, Lexed, Tok, TokKind};

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)` — a bare function call.
    Free,
    /// `recv.method(…)` — a method call on some receiver expression.
    /// `recv_ident` is the token just before the dot when it is a plain
    /// identifier (`None` for nested expressions like `a.b().c(…)`); the
    /// resolver uses it to spot `STATIC.load(…)`-style std atomic ops.
    /// `recv_base` is the ident one hop further out when the receiver is a
    /// two-segment chain — `self.l0.f(…)` records `recv_ident = l0`,
    /// `recv_base = self`, which lets the resolver look the field type up.
    Method {
        recv_ident: Option<String>,
        recv_base: Option<String>,
    },
    /// `Qual::f(…)` — the last path qualifier is recorded (`Matrix`,
    /// `par`, `Self`, `glint_tensor`, …).
    Path(String),
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    pub line: u32,
    /// Index of the callee-name token in the file's token stream — the
    /// lock-order analysis intersects call positions with held-lock
    /// regions, which are token ranges.
    pub tok: usize,
    /// True for a *reference* to a fn (`&construction::node_features`,
    /// `map(Self::helper)`) rather than a direct call — the value flows
    /// somewhere and is eventually invoked, so it is an edge too
    /// (fn-pointer under-approximation shrinks to bare-ident refs only).
    pub is_ref: bool,
    /// For `self.m(…).f(…)`, the method `m` whose result is the receiver:
    /// the resolver types the receiver by `m`'s declared return type.
    pub recv_call: Option<String>,
}

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` self type, e.g. `Matrix` for
    /// `impl Matrix { fn zeros … }`. `None` for free functions.
    pub receiver: Option<String>,
    /// The trait of an enclosing `impl Trait for Type` block (last path
    /// segment: `Exec` for `impl glint_tensor::Exec for TapeExec<'_>`).
    /// `None` for inherent impls, trait items and free functions.
    pub impl_trait: Option<String>,
    /// Leading type name of the declared return type (`-> &'a Matrix` →
    /// `Matrix`, `-> Option<Var>` → `Option`), if any.
    pub ret: Option<String>,
    /// The fn's generic bounds, one `(param, trait)` entry per bound, from
    /// both the `<…>` list and the `where` clause: `fn f<X: Exec + Clone>`
    /// → `[("X", "Exec"), ("X", "Clone")]` (last path segment of each).
    pub bounds: Vec<(String, String)>,
    /// Parameter name → type (last identifier of the type at the param's
    /// top level: `ctx: &mut InferCtx` → `("ctx", "InferCtx")`). Destructured
    /// patterns are skipped. The resolver uses this as positive receiver
    /// evidence for `ctx.matmul(…)`-style calls.
    pub params: Vec<(String, String)>,
    /// Module path within the file (`mod` nesting), innermost last.
    pub module: Vec<String>,
    pub line: u32,
    /// Token-index range `[start, end)` of the body including braces,
    /// indices into the file's full token vector. `None` for bodiless
    /// declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` item (directly or via an enclosing mod).
    pub is_test: bool,
    /// Gating feature from an enclosing `#[cfg(feature = "…")]`, if any.
    pub cfg_feature: Option<String>,
    /// Call expressions in this fn's body, excluding nested fn bodies
    /// (those belong to the nested fn).
    pub calls: Vec<CallSite>,
    /// `for`-loop element bindings in the body: binding name →
    /// `"self.<field>"` or a bare local/param name. Receiver evidence for
    /// `for layer in &self.layers { layer.forward(…) }`.
    pub loop_elems: Vec<(String, String)>,
}

/// Parsed view of one source file.
#[derive(Debug)]
pub struct FileSyntax {
    pub path: String,
    /// The full token stream (NOT cfg(test)-stripped — body ranges index
    /// into it).
    pub toks: Vec<Tok>,
    pub comments: Vec<lexer::Comment>,
    pub fns: Vec<FnItem>,
    /// Token ranges of `#[cfg(test)]` items, for masking rule scans.
    pub test_ranges: Vec<(usize, usize)>,
    /// `struct Name { field: Type, … }` → field → type (last identifier).
    /// Tuple structs and unit structs contribute an empty field map.
    pub structs: Vec<(String, Vec<(String, String)>)>,
    /// Names declared by `trait …` items. The resolver must NOT narrow a
    /// method call to a trait receiver: that would keep only the bodiless
    /// declarations / default bodies and hide every implementor.
    pub traits: Vec<String>,
}

impl FileSyntax {
    /// Lex and parse one source file.
    pub fn parse(path: &str, src: &str) -> FileSyntax {
        let Lexed { toks, comments } = lexer::lex(src);
        let test_ranges = lexer::cfg_test_ranges(&toks);
        let mut out = ParseOut::default();
        let ctx = Ctx {
            receiver: None,
            impl_trait: None,
            module: Vec::new(),
            is_test: false,
            cfg_feature: None,
        };
        parse_items(&toks, 0, toks.len(), &ctx, &mut out);
        let ParseOut {
            mut fns,
            structs,
            traits,
        } = out;
        // Attach call sites, excluding nested fn body sub-ranges.
        let nested: Vec<(usize, usize)> = fns.iter().filter_map(|f| f.body).collect();
        for f in &mut fns {
            if let Some((start, end)) = f.body {
                let inner: Vec<(usize, usize)> = nested
                    .iter()
                    .copied()
                    .filter(|&(s, e)| s > start && e <= end && (s, e) != (start, end))
                    .collect();
                f.calls = extract_calls(&toks, start, end, &inner);
                f.loop_elems = loop_bindings(&toks, start, end);
            }
        }
        FileSyntax {
            path: path.to_string(),
            toks,
            comments,
            fns,
            test_ranges,
            structs,
            traits,
        }
    }
}

/// Accumulated item-level facts from one parse walk.
#[derive(Default)]
struct ParseOut {
    fns: Vec<FnItem>,
    structs: Vec<(String, Vec<(String, String)>)>,
    traits: Vec<String>,
}

#[derive(Clone)]
struct Ctx {
    receiver: Option<String>,
    impl_trait: Option<String>,
    module: Vec<String>,
    is_test: bool,
    cfg_feature: Option<String>,
}

/// What a `#[…]` attribute told us about the item it decorates.
#[derive(Default, Clone)]
struct AttrInfo {
    is_test: bool,
    feature: Option<String>,
}

/// Parse one attribute starting at `#` (index `i`); returns info + index
/// just past the closing `]`. Detects `test` and `feature = "…"` anywhere
/// inside a `cfg(…)` / `cfg_attr(…)` attribute, so `#[cfg(all(test, …))]`
/// also counts as test-gated.
fn parse_attr(toks: &[Tok], i: usize, info: &mut AttrInfo) -> usize {
    let end = skip_balanced(toks, i + 1, "[", "]");
    let body = &toks[i..end.min(toks.len())];
    let is_cfg = body
        .iter()
        .any(|t| t.kind == TokKind::Ident && (t.text == "cfg" || t.text == "cfg_attr"));
    if is_cfg {
        for (k, t) in body.iter().enumerate() {
            if t.kind == TokKind::Ident && t.text == "test" {
                info.is_test = true;
            }
            if t.kind == TokKind::Ident && t.text == "feature" {
                // `feature = "name"`
                if body.get(k + 1).map(|t| t.text.as_str()) == Some("=") {
                    if let Some(v) = body.get(k + 2).filter(|t| t.kind == TokKind::Str) {
                        info.feature = Some(v.text.clone());
                    }
                }
            }
        }
    }
    end
}

/// Idents that may legally sit between an attribute and its item keyword
/// without detaching the attribute.
const ITEM_QUALIFIERS: &[&str] = &[
    "pub", "crate", "super", "self", "in", "const", "unsafe", "async", "extern", "default",
];

/// Scan `[from, to)` for items, honouring `mod`/`impl`/`trait` nesting.
fn parse_items(toks: &[Tok], from: usize, to: usize, ctx: &Ctx, out: &mut ParseOut) {
    let mut i = from;
    let mut pending = AttrInfo::default();
    while i < to {
        let t = &toks[i];
        // Attributes: accumulate onto `pending` for the next item.
        if t.text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            i = parse_attr(toks, i, &mut pending);
            continue;
        }
        if t.kind != TokKind::Ident {
            // Qualifier parens (`pub(crate)`) keep the pending attribute.
            if !(t.text == "(" || t.text == ")") {
                pending = AttrInfo::default();
            }
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                // `fn(` is a function-pointer type, not an item.
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    pending = AttrInfo::default();
                    i += 1;
                    continue;
                };
                let FnSig {
                    params,
                    ret,
                    bounds,
                    body,
                    next,
                } = parse_fn_after_name(toks, i + 2, to);
                out.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    receiver: ctx.receiver.clone(),
                    impl_trait: ctx.impl_trait.clone(),
                    ret,
                    bounds,
                    params,
                    module: ctx.module.clone(),
                    line: name_tok.line,
                    body,
                    is_test: ctx.is_test || pending.is_test,
                    cfg_feature: pending.feature.clone().or_else(|| ctx.cfg_feature.clone()),
                    calls: Vec::new(),
                    loop_elems: Vec::new(),
                });
                // Recurse into the body for nested fns.
                if let Some((bs, be)) = body {
                    let inner = Ctx {
                        receiver: None,
                        impl_trait: None,
                        module: ctx.module.clone(),
                        is_test: ctx.is_test || pending.is_test,
                        cfg_feature: pending.feature.clone().or_else(|| ctx.cfg_feature.clone()),
                    };
                    parse_items(toks, bs + 1, be.saturating_sub(1), &inner, out);
                }
                pending = AttrInfo::default();
                i = next;
            }
            "struct" if !(ctx.is_test || pending.is_test) => {
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    pending = AttrInfo::default();
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
                    j = skip_angles(toks, j, to);
                }
                // `struct S;` / `struct S(…);` / `struct S { fields }` /
                // `struct S where … { fields }`.
                while j < to && !matches!(toks[j].text.as_str(), "{" | "(" | ";") {
                    j += 1;
                }
                let mut fields = Vec::new();
                let next = match toks.get(j).map(|t| t.text.as_str()) {
                    Some("{") => {
                        let be = skip_balanced(toks, j, "{", "}");
                        fields = parse_field_list(toks, j + 1, be.saturating_sub(1));
                        be
                    }
                    Some("(") => skip_balanced(toks, j, "(", ")"),
                    _ => j + 1,
                };
                out.structs.push((name_tok.text.clone(), fields));
                pending = AttrInfo::default();
                i = next;
            }
            "impl" | "trait" => {
                let is_impl = t.text == "impl";
                let ImplHeader {
                    self_ty,
                    impl_trait,
                    body_start,
                } = parse_impl_header(toks, i + 1, to, is_impl);
                if !is_impl {
                    if let Some(name) = &self_ty {
                        out.traits.push(name.clone());
                    }
                }
                let Some(bs) = body_start else {
                    pending = AttrInfo::default();
                    i += 1;
                    continue;
                };
                let be = skip_balanced(toks, bs, "{", "}");
                let inner = Ctx {
                    receiver: self_ty,
                    impl_trait,
                    module: ctx.module.clone(),
                    is_test: ctx.is_test || pending.is_test,
                    cfg_feature: pending.feature.clone().or_else(|| ctx.cfg_feature.clone()),
                };
                parse_items(toks, bs + 1, be.saturating_sub(1), &inner, out);
                pending = AttrInfo::default();
                i = be;
            }
            "mod" => {
                let name = toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
                match (name, toks.get(i + 2).map(|t| t.text.as_str())) {
                    (Some(name), Some("{")) => {
                        let bs = i + 2;
                        let be = skip_balanced(toks, bs, "{", "}");
                        let mut module = ctx.module.clone();
                        module.push(name);
                        let inner = Ctx {
                            receiver: None,
                            impl_trait: None,
                            module,
                            is_test: ctx.is_test || pending.is_test,
                            cfg_feature: pending
                                .feature
                                .clone()
                                .or_else(|| ctx.cfg_feature.clone()),
                        };
                        parse_items(toks, bs + 1, be.saturating_sub(1), &inner, out);
                        pending = AttrInfo::default();
                        i = be;
                    }
                    _ => {
                        pending = AttrInfo::default();
                        i += 2; // `mod name;` — out-of-line, nothing to parse
                    }
                }
            }
            kw if ITEM_QUALIFIERS.contains(&kw) => {
                i += 1; // qualifiers keep the pending attribute
            }
            _ => {
                pending = AttrInfo::default();
                i += 1;
            }
        }
    }
}

/// Keywords/punctuation that cannot be the "type name" of a param or field.
const TYPE_NOISE: &[&str] = &["mut", "dyn", "impl", "ref", "const", "as", "where"];

/// Parse `name: Type` entries from a comma-separated list in `[from, to)`
/// (fn argument list or struct field block). Returns (name, type-last-ident)
/// pairs; destructured patterns and `self` receivers contribute nothing.
fn parse_field_list(toks: &[Tok], from: usize, to: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut entry_start = from;
    let mut i = from;
    let to = to.min(toks.len());
    let flush = |s: usize, e: usize, out: &mut Vec<(String, String)>| {
        // Entry shape: `…name : type-tokens` with the `:` at entry depth.
        let mut colon = None;
        let mut d = 0i32;
        for (j, tok) in toks.iter().enumerate().take(e).skip(s) {
            match tok.text.as_str() {
                "(" | "[" | "{" | "<" => d += 1,
                ")" | "]" | "}" | ">" => d -= 1,
                "<<" => d += 2,
                ">>" => d -= 2,
                ":" if d == 0 && colon.is_none() => colon = Some(j),
                _ => {}
            }
        }
        let Some(c) = colon else { return };
        // Name: single ident just before the colon, not preceded by another
        // ident/`.` (rules out `pub(crate) name` false splits are fine; rules
        // out destructured `Foo { a }` since `}` precedes the colon only in
        // nested depth, and tuple patterns have no top-level colon).
        let Some(name_tok) = c.checked_sub(1).map(|j| &toks[j]) else {
            return;
        };
        if name_tok.kind != TokKind::Ident || name_tok.text == "self" {
            return;
        }
        let ty = toks[c + 1..e]
            .iter()
            .rfind(|t| t.kind == TokKind::Ident && !TYPE_NOISE.contains(&t.text.as_str()));
        if let Some(ty) = ty {
            out.push((name_tok.text.clone(), ty.text.clone()));
        }
    };
    while i < to {
        match toks[i].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "," if depth <= 0 => {
                flush(entry_start, i, &mut out);
                entry_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    flush(entry_start, to, &mut out);
    out
}

/// Parsed fn signature tail.
struct FnSig {
    params: Vec<(String, String)>,
    ret: Option<String>,
    bounds: Vec<(String, String)>,
    /// Body token range, if any.
    body: Option<(usize, usize)>,
    /// Index to continue scanning from.
    next: usize,
}

/// After `fn name`, parse generics + args + return type + where clause;
/// return the params, the generic bounds, the body range (if any), and
/// the index to continue scanning from.
fn parse_fn_after_name(toks: &[Tok], mut i: usize, to: usize) -> FnSig {
    let mut bounds = Vec::new();
    // Optional generic params.
    if toks.get(i).map(|t| t.text.as_str()) == Some("<") {
        let close = skip_angles(toks, i, to);
        parse_bounds(toks, i + 1, close.saturating_sub(1), &mut bounds);
        i = close;
    }
    // Argument list.
    let mut params = Vec::new();
    if toks.get(i).map(|t| t.text.as_str()) == Some("(") {
        let close = skip_balanced(toks, i, "(", ")");
        params = parse_field_list(toks, i + 1, close.saturating_sub(1));
        i = close;
    }
    let ret = match toks.get(i) {
        Some(t) if t.text == "->" => leading_type(toks, i + 1, to),
        _ => None,
    };
    // Return type / where clause: scan to `{` or `;` at angle-depth 0.
    let mut angle = 0i32;
    let mut where_at = None;
    while i < to {
        match toks[i].text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "where" if angle <= 0 => where_at = Some(i + 1),
            "{" | ";" if angle <= 0 => {
                if let Some(w) = where_at {
                    parse_bounds(toks, w, i, &mut bounds);
                }
                let body = (toks[i].text == "{").then(|| (i, skip_balanced(toks, i, "{", "}")));
                let next = body.map_or(i + 1, |(_, end)| end);
                return FnSig {
                    params,
                    ret,
                    bounds,
                    body,
                    next,
                };
            }
            _ => {}
        }
        i += 1;
    }
    FnSig {
        params,
        ret,
        bounds,
        body: None,
        next: i,
    }
}

/// The type name a type starting at `i` leads with: references, `mut`,
/// lifetimes, `dyn` and `impl` skipped, last segment of the first path
/// (`&'a glint_tensor::Matrix` → `Matrix`). `None` for tuples, slices
/// and other non-path types.
fn leading_type(toks: &[Tok], mut i: usize, to: usize) -> Option<String> {
    while i < to
        && (toks[i].kind == TokKind::Lifetime
            || matches!(toks[i].text.as_str(), "&" | "mut" | "dyn" | "impl"))
    {
        i += 1;
    }
    let mut last = None;
    while i < to && toks[i].kind == TokKind::Ident {
        last = Some(toks[i].text.clone());
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("::") {
            break;
        }
        i += 2;
    }
    last
}

/// Trait bounds in `[from, to)`, a `<…>` generics list or a `where`
/// clause: one `(param, trait)` entry per bound, the trait named by the
/// last segment of its path (`X: glint_tensor::Exec + Clone` → `(X, Exec)`,
/// `(X, Clone)`; `F: FnMut(…) -> T` → `(F, FnMut)`). Lifetime bounds add
/// nothing; `const N: usize` adds a harmless `(N, usize)`.
fn parse_bounds(toks: &[Tok], from: usize, to: usize, out: &mut Vec<(String, String)>) {
    let to = to.min(toks.len());
    let mut param: Option<&str> = None;
    let mut depth = 0i32;
    let mut i = from;
    while i < to {
        match toks[i].text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "," if depth == 0 => param = None,
            ":" | "+" if depth == 0 => {
                if toks[i].text == ":" {
                    param = (i > from && toks[i - 1].kind == TokKind::Ident)
                        .then(|| toks[i - 1].text.as_str());
                }
                // the bound's path: `a::b::C`
                let mut last = None;
                while i + 1 < to && toks[i + 1].kind == TokKind::Ident {
                    last = Some(toks[i + 1].text.as_str());
                    if toks.get(i + 2).map(|t| t.text.as_str()) != Some("::") {
                        break;
                    }
                    i += 2;
                }
                if let (Some(p), Some(b)) = (param, last) {
                    out.push((p.to_string(), b.to_string()));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// A parsed `impl`/`trait` header.
struct ImplHeader {
    /// The self type: last path segment at angle-depth 0, after `for` if
    /// present (the trait's own name for `trait` items).
    self_ty: Option<String>,
    /// The implemented trait of `impl Trait for Type`.
    impl_trait: Option<String>,
    /// Index of the opening `{`.
    body_start: Option<usize>,
}

/// Parse an `impl`/`trait` header starting just past the keyword.
fn parse_impl_header(toks: &[Tok], mut i: usize, to: usize, is_impl: bool) -> ImplHeader {
    if toks.get(i).map(|t| t.text.as_str()) == Some("<") {
        i = skip_angles(toks, i, to);
    }
    let mut h = ImplHeader {
        self_ty: None,
        impl_trait: None,
        body_start: None,
    };
    let mut angle = 0i32;
    // After `:` in a trait header (`trait Scorer: Send + Sync`), idents are
    // supertraits, not the trait's own name.
    let mut frozen = false;
    while i < to {
        let t = &toks[i];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "{" if angle <= 0 => {
                h.body_start = Some(i);
                return h;
            }
            ";" if angle <= 0 => return h, // `impl Trait for T;`-ish
            // the trait was named; the real type follows
            "for" if angle <= 0 && is_impl => h.impl_trait = h.self_ty.take(),
            ":" if angle <= 0 && !is_impl => frozen = true,
            "where" if angle <= 0 => {
                // where-clause: self type is already known; find the `{`.
                while i < to && toks[i].text != "{" {
                    i += 1;
                }
                h.body_start = (i < to).then_some(i);
                return h;
            }
            _ if t.kind == TokKind::Ident && angle <= 0 && !frozen => {
                h.self_ty = Some(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    h
}

/// Skip a balanced `<…>` generic group starting at `<`.
fn skip_angles(toks: &[Tok], mut i: usize, to: usize) -> usize {
    let mut depth = 0i32;
    while i < to {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Starting with `toks[open_idx] == open`, index just past the matching
/// `close`. Tolerates unbalanced input by running to `toks.len()`.
fn skip_balanced(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].text == open {
            depth += 1;
        } else if toks[j].text == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "else",
    "break", "continue", "where", "impl", "dyn",
];

/// Token index of the `[` / `(` opening the group that closes at `close`
/// (which must point at `]` / `)`), bounded below by `floor`.
fn open_of(toks: &[Tok], close: usize, floor: usize) -> Option<usize> {
    let (open, shut) = match toks.get(close)?.text.as_str() {
        "]" => ("[", "]"),
        ")" => ("(", ")"),
        _ => return None,
    };
    let mut depth = 0i32;
    let mut j = close + 1;
    while j > floor {
        j -= 1;
        if toks[j].text == shut {
            depth += 1;
        } else if toks[j].text == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Element-type evidence from `for` loops in `[start, end)`. Each entry is
/// binding name → source: `"self.<field>"` for loops over a field of
/// `self`, or a bare local/param name the resolver chases one more hop.
/// Recognized shapes (anything else contributes nothing):
///
/// * `for x in [&[mut]] <src> { … }`
/// * `for x in <src>.iter()/.iter_mut()/.into_iter() { … }`
/// * `for (i, x) in <src>.iter().enumerate() { … }` — the second tuple
///   element binds (the first is the index).
fn loop_bindings(toks: &[Tok], start: usize, end: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    let id = |j: usize| {
        toks.get(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    let txt = |j: usize| toks.get(j).map(|t| t.text.as_str());
    let mut i = start;
    while i < end {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "for") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut tuple = false;
        let binding: Option<String> = if txt(j) == Some("(")
            && id(j + 1).is_some()
            && txt(j + 2) == Some(",")
            && id(j + 3).is_some()
            && txt(j + 4) == Some(")")
        {
            tuple = true;
            let b = id(j + 3).map(|s| s.to_string());
            j += 5;
            b
        } else if let Some(b) = id(j) {
            j += 1;
            Some(b.to_string())
        } else {
            None
        };
        let Some(binding) = binding else {
            i += 1;
            continue;
        };
        if txt(j) != Some("in") {
            i += 1;
            continue;
        }
        j += 1;
        while matches!(txt(j), Some("&") | Some("mut")) {
            j += 1;
        }
        let src: Option<String> =
            if id(j) == Some("self") && txt(j + 1) == Some(".") && id(j + 2).is_some() {
                let f = format!("self.{}", id(j + 2).unwrap());
                j += 3;
                Some(f)
            } else if let Some(l) = id(j) {
                j += 1;
                Some(l.to_string())
            } else {
                None
            };
        let Some(src) = src else {
            i += 1;
            continue;
        };
        let mut enumerated = false;
        while txt(j) == Some(".")
            && matches!(
                id(j + 1),
                Some("iter") | Some("iter_mut") | Some("into_iter") | Some("enumerate")
            )
            && txt(j + 2) == Some("(")
            && txt(j + 3) == Some(")")
        {
            if id(j + 1) == Some("enumerate") {
                enumerated = true;
            }
            j += 4;
        }
        if txt(j) == Some("{") && (!tuple || enumerated) {
            out.push((binding, src));
        }
        i = j;
    }
    out
}

/// Extract call sites from `[start, end)`, skipping `exclude` sub-ranges
/// (nested fn bodies).
fn extract_calls(
    toks: &[Tok],
    start: usize,
    end: usize,
    exclude: &[(usize, usize)],
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = start;
    'outer: while i < end.min(toks.len()) {
        for &(s, e) in exclude {
            if i >= s && i < e {
                i = e;
                continue 'outer;
            }
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // `fn name(` is a nested declaration header, not a call.
        if i > start && toks[i - 1].text == "fn" {
            i += 1;
            continue;
        }
        // `name!` is a macro, not a call (its argument tokens still get
        // scanned on later iterations).
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("!") {
            i += 2;
            continue;
        }
        // Call shape: ident `(` — or ident `::` `<…>` `(` (turbofish).
        let mut after = i + 1;
        if toks.get(after).map(|t| t.text.as_str()) == Some("::")
            && toks.get(after + 1).map(|t| t.text.as_str()) == Some("<")
        {
            after = skip_angles(toks, after + 1, end);
        }
        let is_call = toks.get(after).map(|t| t.text.as_str()) == Some("(");
        if !is_call {
            // Fn *reference*: `Qual::name` not followed by `(` where `name`
            // is snake_case — `&construction::node_features` passed as a
            // callback, `map(Self::helper)`. The value is a fn pointer that
            // will be invoked, so it is an edge. Uppercase names (enum
            // variants, types, constants: `fmt::Result`, `Level::Warn`) and
            // further path segments (`a::b::c` — only the last counts) are
            // not references.
            let lowercase_start = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase());
            let next_is_path = toks.get(i + 1).map(|t| t.text.as_str()) == Some("::");
            if lowercase_start
                && !next_is_path
                && i.checked_sub(1).map(|p| toks[p].text.as_str()) == Some("::")
            {
                if let Some(q) = i
                    .checked_sub(2)
                    .map(|q| &toks[q])
                    .filter(|q| q.kind == TokKind::Ident)
                {
                    out.push(CallSite {
                        name: t.text.clone(),
                        kind: CallKind::Path(q.text.clone()),
                        line: t.line,
                        tok: i,
                        is_ref: true,
                        recv_call: None,
                    });
                }
            }
            i += 1;
            continue;
        }
        let mut recv_call = None;
        let kind = match i.checked_sub(1).map(|p| toks[p].text.as_str()) {
            Some(".") => {
                let ident_at = |j: Option<usize>| {
                    j.map(|r| &toks[r])
                        .filter(|r| r.kind == TokKind::Ident)
                        .map(|r| r.text.clone())
                };
                // `base.field[idx].method(…)` — the receiver ends in an
                // index group; walk back over the balanced `[…]` so the
                // field still provides type evidence (`self.pools[d].f(…)`).
                let mut recv_pos = i.checked_sub(2);
                match recv_pos.map(|p| toks[p].text.as_str()) {
                    Some("]") => {
                        recv_pos = open_of(toks, i - 2, start).and_then(|o| o.checked_sub(1));
                    }
                    // `self.m(…).method(…)` — the receiver is what the
                    // caller's own method `m` returns.
                    Some(")") => {
                        let m = open_of(toks, i - 2, start).and_then(|o| o.checked_sub(1));
                        let on_self = m
                            .and_then(|m| m.checked_sub(2))
                            .is_some_and(|s| toks[s].text == "self" && toks[s + 1].text == ".");
                        if on_self {
                            recv_call = ident_at(m);
                        }
                    }
                    _ => {}
                }
                let recv_ident = ident_at(recv_pos);
                // `base.field.method(…)` — record `base` so the resolver can
                // consult struct field types (`self.l0.forward_infer(…)`).
                let recv_base = if recv_ident.is_some()
                    && recv_pos
                        .and_then(|p| p.checked_sub(1))
                        .map(|p| toks[p].text.as_str())
                        == Some(".")
                {
                    ident_at(recv_pos.and_then(|p| p.checked_sub(2)))
                } else {
                    None
                };
                CallKind::Method {
                    recv_ident,
                    recv_base,
                }
            }
            Some("::") => {
                let qual = i
                    .checked_sub(2)
                    .map(|q| &toks[q])
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.clone());
                match qual {
                    Some(q) => CallKind::Path(q),
                    // `<T as Trait>::f(…)` or `>::f(…)` — treat as method-like
                    // name match.
                    None => CallKind::Method {
                        recv_ident: None,
                        recv_base: None,
                    },
                }
            }
            _ => CallKind::Free,
        };
        out.push(CallSite {
            name: t.text.clone(),
            kind,
            line: t.line,
            tok: i,
            is_ref: false,
            recv_call,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(fs: &'a FileSyntax, name: &str) -> &'a FnItem {
        fs.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found in {:?}", fs.fns))
    }

    #[test]
    fn free_fns_and_methods_are_recognized() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            pub fn free_one(x: usize) -> usize { helper(x) }
            fn helper(x: usize) -> usize { x + 1 }
            pub struct Widget { n: usize }
            impl Widget {
                pub fn new(n: usize) -> Self { Self { n } }
                fn tick(&mut self) { self.bump(); free_one(self.n); }
                fn bump(&mut self) { self.n += 1 }
            }
            "#,
        );
        assert_eq!(fs.fns.len(), 5);
        assert_eq!(find(&fs, "tick").receiver.as_deref(), Some("Widget"));
        assert!(find(&fs, "free_one").receiver.is_none());
        let tick = find(&fs, "tick");
        let names: Vec<_> = tick.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["bump", "free_one"]);
        assert_eq!(
            tick.calls[0].kind,
            CallKind::Method {
                recv_ident: Some("self".into()),
                recv_base: None,
            }
        );
        assert_eq!(tick.calls[1].kind, CallKind::Free);
    }

    #[test]
    fn params_struct_fields_and_traits_are_recorded() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            pub struct GcnModel { l0: GcnLayer, l1: GcnLayer, cfg: ModelConfig }
            pub struct Unit;
            pub struct Pair(f32, f32);
            pub trait GraphModel: Send + Sync {
                fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> f32;
            }
            fn go(ctx: &mut InferCtx, v: Vec<f32>, (a, b): (f32, f32)) {
                ctx.matmul(v);
                self.l0.forward_infer(ctx);
            }
            "#,
        );
        let (name, fields) = &fs.structs[0];
        assert_eq!(name, "GcnModel");
        assert_eq!(
            fields,
            &vec![
                ("l0".to_string(), "GcnLayer".to_string()),
                ("l1".to_string(), "GcnLayer".to_string()),
                ("cfg".to_string(), "ModelConfig".to_string()),
            ]
        );
        assert_eq!(fs.structs.len(), 3);
        assert!(fs.structs[1].1.is_empty() && fs.structs[2].1.is_empty());
        assert_eq!(fs.traits, vec!["GraphModel".to_string()]);
        // Trait name, not the supertrait, is the method receiver.
        assert_eq!(
            find(&fs, "forward_infer").receiver.as_deref(),
            Some("GraphModel")
        );
        let go = find(&fs, "go");
        // `self` and destructured patterns contribute no param entries.
        assert_eq!(
            go.params,
            vec![
                ("ctx".to_string(), "InferCtx".to_string()),
                ("v".to_string(), "f32".to_string()),
            ]
        );
        assert_eq!(
            go.calls[0].kind,
            CallKind::Method {
                recv_ident: Some("ctx".into()),
                recv_base: None,
            }
        );
        assert_eq!(
            go.calls[1].kind,
            CallKind::Method {
                recv_ident: Some("l0".into()),
                recv_base: Some("self".into()),
            }
        );
    }

    #[test]
    fn path_fn_references_are_edges_but_types_and_variants_are_not() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            fn go() -> fmt::Result {
                register(&crate::construction::node_features);
                let xs: Vec<f32> = ys.iter().map(f32::abs).collect();
                let level = Level::Warn;
                helper(plain_ident);
            }
            "#,
        );
        let go = find(&fs, "go");
        let refs: Vec<(&str, &CallKind)> = go
            .calls
            .iter()
            .filter(|c| c.is_ref)
            .map(|c| (c.name.as_str(), &c.kind))
            .collect();
        assert!(refs.contains(&("node_features", &CallKind::Path("construction".into()))));
        assert!(refs.contains(&("abs", &CallKind::Path("f32".into()))));
        // `Level::Warn` (variant), `fmt::Result` (type), and bare idents are
        // not reference sites.
        assert_eq!(refs.len(), 2, "{refs:?}");
    }

    #[test]
    fn trait_impls_resolve_the_self_type_after_for() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            impl fmt::Display for TrainError {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write(f) }
            }
            impl<C: Model, E: Model> Detector<C, E> {
                pub fn assess(&self) -> f32 { self.inner::<f32>() }
            }
            trait Scorer {
                fn score(&self) -> f32;
                fn scaled(&self) -> f32 { self.score() * 2.0 }
            }
            "#,
        );
        assert_eq!(find(&fs, "fmt").receiver.as_deref(), Some("TrainError"));
        assert_eq!(find(&fs, "assess").receiver.as_deref(), Some("Detector"));
        assert_eq!(find(&fs, "score").receiver.as_deref(), Some("Scorer"));
        assert!(find(&fs, "score").body.is_none(), "bodiless trait decl");
        assert!(find(&fs, "scaled").body.is_some());
    }

    #[test]
    fn impl_traits_generic_bounds_and_return_types_are_recorded() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            impl<'a> glint_tensor::Exec for TapeExec<'a> {
                fn value<'v>(&'v self, a: &'v Var) -> &'v glint_tensor::Matrix { self.tape.value(*a) }
            }
            impl Net {
                fn forward<X: Exec + Clone, const N: usize>(&self, x: &mut X) -> Option<X> { None }
                fn rows<I, F>(&self, items: I, f: F) -> (usize, usize)
                where
                    I: ExactSizeIterator<Item = usize>,
                    F: FnMut(&mut Self, I::Item) -> X::T,
                {
                    self.cache(1).len()
                }
            }
            "#,
        );
        let value = find(&fs, "value");
        assert_eq!(value.receiver.as_deref(), Some("TapeExec"));
        assert_eq!(value.impl_trait.as_deref(), Some("Exec"));
        assert_eq!(value.ret.as_deref(), Some("Matrix"));
        let forward = find(&fs, "forward");
        assert!(forward.impl_trait.is_none());
        assert_eq!(forward.ret.as_deref(), Some("Option"));
        let pair = |a: &str, b: &str| (a.to_string(), b.to_string());
        assert_eq!(
            forward.bounds,
            [pair("X", "Exec"), pair("X", "Clone"), pair("N", "usize")]
        );
        let rows = find(&fs, "rows");
        assert_eq!(
            rows.bounds,
            [pair("I", "ExactSizeIterator"), pair("F", "FnMut")]
        );
        assert!(rows.ret.is_none(), "tuple return types lead with no name");
        // `self.cache(1).len()`: the receiver is what `cache` returns.
        let len = rows.calls.iter().find(|c| c.name == "len").unwrap();
        assert_eq!(len.recv_call.as_deref(), Some("cache"));
    }

    #[test]
    fn cfg_test_and_feature_attrs_mark_items() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            fn lib_code() {}
            #[cfg(test)]
            mod tests {
                fn helper_in_tests() {}
                #[test]
                fn a_test() { helper_in_tests() }
            }
            #[cfg(feature = "strict")]
            fn gated() {}
            #[cfg(all(test, feature = "x"))]
            fn both() {}
            "#,
        );
        assert!(!find(&fs, "lib_code").is_test);
        assert!(find(&fs, "helper_in_tests").is_test);
        assert!(find(&fs, "a_test").is_test);
        assert_eq!(find(&fs, "gated").cfg_feature.as_deref(), Some("strict"));
        assert!(!find(&fs, "gated").is_test);
        assert!(find(&fs, "both").is_test);
    }

    #[test]
    fn path_calls_and_turbofish() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            fn go(v: Vec<f32>) -> Vec<f32> {
                let m = Matrix::zeros(2, 2);
                let s: Vec<f32> = v.iter().map(f32::abs).collect::<Vec<_>>();
                par::matmul(&m, &m);
                Self::helper();
                vec![1.0; 3];
                s
            }
            "#,
        );
        let go = find(&fs, "go");
        let paths: Vec<(String, CallKind)> = go
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.kind.clone()))
            .collect();
        assert!(paths.contains(&("zeros".into(), CallKind::Path("Matrix".into()))));
        assert!(paths
            .iter()
            .any(|(n, k)| n == "collect" && matches!(k, CallKind::Method { .. })));
        assert!(paths.contains(&("matmul".into(), CallKind::Path("par".into()))));
        assert!(paths.contains(&("helper".into(), CallKind::Path("Self".into()))));
        // `vec!` is a macro, not a call
        assert!(!paths.iter().any(|(n, _)| n == "vec"));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            fn outer() {
                fn inner() { deep_call(); }
                outer_call();
            }
            "#,
        );
        let outer_calls: Vec<_> = find(&fs, "outer")
            .calls
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(outer_calls, ["outer_call"]);
        let inner_calls: Vec<_> = find(&fs, "inner")
            .calls
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(inner_calls, ["deep_call"]);
    }

    #[test]
    fn modules_nest_into_the_symbol_path() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            mod par {
                pub fn matmul() {}
                mod detail { pub fn kernel() {} }
            }
            "#,
        );
        assert_eq!(find(&fs, "matmul").module, vec!["par".to_string()]);
        assert_eq!(
            find(&fs, "kernel").module,
            vec!["par".to_string(), "detail".to_string()]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fs = FileSyntax::parse("x.rs", "fn real(f: fn(usize) -> usize) -> usize { f(1) }");
        assert_eq!(fs.fns.len(), 1);
        assert_eq!(fs.fns[0].name, "real");
    }

    #[test]
    fn where_clauses_and_generic_returns_do_not_derail_bodies() {
        let fs = FileSyntax::parse(
            "x.rs",
            r#"
            pub fn ordered_map<T, F>(n: usize, f: F) -> Vec<T>
            where
                F: Fn(usize) -> T + Sync,
                T: Send,
            {
                run(n, f)
            }
            "#,
        );
        let f = find(&fs, "ordered_map");
        assert!(f.body.is_some());
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "run");
    }
}
