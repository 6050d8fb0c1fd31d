//! Offline shim of `serde_derive` — generates impls of the shim `serde`
//! crate's `Serialize` / `Deserialize` traits (a `Value`-tree model, not the
//! real visitor architecture).
//!
//! Parsing is done directly on the `proc_macro` token stream (no `syn` /
//! `quote`, which are unavailable offline). Supported input shapes:
//! non-generic structs (named, tuple, unit) and enums whose variants are
//! unit, tuple, or struct-like. `#[serde(...)]` attributes are not
//! interpreted; generics are rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

/// Parsed shape of the deriving type.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Input {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let parsed = match parse_input(input) {
        Ok(p) => p,
        Err(msg) => {
            let escaped = msg.replace('"', "\\\"");
            return format!("compile_error!(\"serde_derive shim: {escaped}\");")
                .parse()
                .expect("compile_error tokens");
        }
    };
    let code = match (&parsed, mode) {
        (Input::Struct { name, shape }, Mode::Serialize) => gen_struct_ser(name, shape),
        (Input::Struct { name, shape }, Mode::Deserialize) => gen_struct_de(name, shape),
        (Input::Enum { name, variants }, Mode::Serialize) => gen_enum_ser(name, variants),
        (Input::Enum { name, variants }, Mode::Deserialize) => gen_enum_de(name, variants),
    };
    code.parse().expect("generated impl tokens")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // skip outer attributes and visibility
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2, // '#' + [...]
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type `{name}` is not supported by the shim derive"
            ));
        }
    }

    match kind.as_str() {
        "struct" => {
            let shape = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                None => Shape::Unit,
                other => return Err(format!("unexpected token after struct name: {other:?}")),
            };
            Ok(Input::Struct { name, shape })
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, found {other:?}")),
            };
            Ok(Input::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// Parse `ident: Type, ...` out of a brace group, skipping attrs/visibility
/// and type tokens (angle-bracket aware).
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // skip field attributes and visibility
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break; // trailing comma
            }
            return Err(format!("expected field name, found {:?}", tokens.get(i)));
        };
        fields.push(id.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        i = skip_type(&tokens, i);
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
    }
    Ok(fields)
}

/// Advance past one type, stopping at a top-level `,`.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle: i32 = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Count the comma-separated fields of a tuple struct / tuple variant.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        // skip attrs + visibility before the type
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        if i >= tokens.len() {
            break;
        }
        count += 1;
        i = skip_type(&tokens, i);
        i += 1; // past the comma
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '#' {
                i += 2;
            } else {
                break;
            }
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("expected variant name, found {:?}", tokens.get(i)));
        };
        let name = id.to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream())?)
            }
            _ => Shape::Unit,
        };
        // skip an explicit discriminant `= expr`
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                i += 1;
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_struct_ser(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", elems.join(", "))
        }
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Map(vec![{}])", entries.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_struct_de(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Unit => format!("Ok({name})"),
        Shape::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = __v.as_seq().ok_or_else(|| ::serde::Error::expected(\"sequence\", __v))?;\n\
                 if __s.len() != {n} {{ return Err(::serde::Error::msg(format!(\"expected {n} fields for {name}, got {{}}\", __s.len()))); }}\n\
                 Ok({name}({}))",
                elems.join(", ")
            )
        }
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(::serde::map_get(__v, \"{f}\")?)?"
                    )
                })
                .collect();
            format!(
                "__v.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", __v))?;\n\
                 Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn gen_enum_ser(name: &str, variants: &[Variant]) -> String {
    let mut arms = Vec::new();
    for v in variants {
        let vname = &v.name;
        match &v.shape {
            Shape::Unit => arms.push(format!(
                "{name}::{vname} => ::serde::Value::Str(\"{vname}\".to_string()),"
            )),
            Shape::Tuple(n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                let elems: Vec<String> = binders
                    .iter()
                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                    .collect();
                arms.push(format!(
                    "{name}::{vname}({}) => ::serde::Value::Map(vec![(\"{vname}\".to_string(), ::serde::Value::Seq(vec![{}]))]),",
                    binders.join(", "),
                    elems.join(", ")
                ));
            }
            Shape::Named(fields) => {
                let binders = fields.join(", ");
                let entries: Vec<String> = fields
                    .iter()
                    .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"))
                    .collect();
                arms.push(format!(
                    "{name}::{vname} {{ {binders} }} => ::serde::Value::Map(vec![(\"{vname}\".to_string(), ::serde::Value::Map(vec![{}]))]),",
                    entries.join(", ")
                ));
            }
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 match self {{ {} }}\n\
             }}\n\
         }}",
        arms.join("\n")
    )
}

fn gen_enum_de(name: &str, variants: &[Variant]) -> String {
    // unit variants arrive as Value::Str, payload variants as a single-entry map
    let mut unit_arms = Vec::new();
    let mut map_arms = Vec::new();
    for v in variants {
        let vname = &v.name;
        match &v.shape {
            Shape::Unit => unit_arms.push(format!("\"{vname}\" => Ok({name}::{vname}),")),
            Shape::Tuple(n) => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                    .collect();
                map_arms.push(format!(
                    "\"{vname}\" => {{\n\
                         let __s = __payload.as_seq().ok_or_else(|| ::serde::Error::expected(\"sequence\", __payload))?;\n\
                         if __s.len() != {n} {{ return Err(::serde::Error::msg(format!(\"expected {n} fields for {name}::{vname}, got {{}}\", __s.len()))); }}\n\
                         Ok({name}::{vname}({}))\n\
                     }}",
                    elems.join(", ")
                ));
            }
            Shape::Named(fields) => {
                let inits: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!("{f}: ::serde::Deserialize::from_value(::serde::map_get(__payload, \"{f}\")?)?")
                    })
                    .collect();
                map_arms.push(format!(
                    "\"{vname}\" => {{\n\
                         __payload.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", __payload))?;\n\
                         Ok({name}::{vname} {{ {} }})\n\
                     }}",
                    inits.join(", ")
                ));
            }
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 match __v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit}\n\
                         __other => Err(::serde::Error::msg(format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                     }},\n\
                     ::serde::Value::Map(__m) if __m.len() == 1 => {{\n\
                         let (__tag, __payload) = &__m[0];\n\
                         match __tag.as_str() {{\n\
                             {map}\n\
                             __other => Err(::serde::Error::msg(format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                         }}\n\
                     }}\n\
                     __other => Err(::serde::Error::expected(\"enum representation\", __other)),\n\
                 }}\n\
             }}\n\
         }}",
        unit = unit_arms.join("\n"),
        map = map_arms.join("\n")
    )
}
