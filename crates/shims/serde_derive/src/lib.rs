//! `#[derive(Serialize, Deserialize)]` for the vendored offline `serde`
//! stand-in.
//!
//! The real serde_derive depends on `syn`/`quote`, which are not available in
//! this offline build environment, so this macro parses the item declaration
//! directly from the raw [`proc_macro::TokenStream`] and emits the impl as a
//! source string. It supports exactly the shapes the Plankton workspace uses:
//!
//! * structs with named fields (honoring `#[serde(skip)]`),
//! * tuple structs (newtypes serialize transparently, wider tuples as arrays),
//! * unit structs,
//! * enums with unit, tuple and struct variants (externally tagged).
//!
//! Generic type parameters are not supported and produce a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field: its name (`None` for tuple fields) and whether it is
/// marked `#[serde(skip)]` / `#[serde(default)]`.
struct Field {
    name: Option<String>,
    skip: bool,
    default: bool,
}

/// The body shape of a struct or enum variant.
enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

/// The parsed derive input.
enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<(String, Shape)>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let item = match parse_item(&tokens) {
        Ok(item) => item,
        Err(msg) => {
            return format!("::core::compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if serialize {
        gen_serialize(&item)
    } else {
        gen_deserialize(&item)
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// Skip attributes starting at `i`; returns `(skip, default)` for any
/// `#[serde(skip)]` / `#[serde(default)]` found.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> (bool, bool) {
    let mut skip = false;
    let mut default = false;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    if g.delimiter() == Delimiter::Bracket {
                        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                        if let Some(TokenTree::Ident(id)) = inner.first() {
                            if id.to_string() == "serde" {
                                if let Some(TokenTree::Group(args)) = inner.get(1) {
                                    let args = args.stream().to_string();
                                    if args.contains("skip") {
                                        skip = true;
                                    }
                                    if args.contains("default") {
                                        default = true;
                                    }
                                }
                            }
                        }
                        *i += 2;
                        continue;
                    }
                }
                break;
            }
            _ => break,
        }
    }
    (skip, default)
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Skip type tokens until a top-level comma (consumed) or the end, tracking
/// angle-bracket depth so commas inside generics don't terminate the field.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (skip, default) = skip_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field {
            name: Some(name),
            skip,
            default,
        });
    }
    Ok(fields)
}

fn parse_tuple_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (skip, default) = skip_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        fields.push(Field {
            name: None,
            skip,
            default,
        });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Shape)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream())?)
            }
            _ => Shape::Unit,
        };
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            } else if p.as_char() == '=' {
                return Err("enum discriminants are not supported".to_string());
            }
        }
        variants.push((name, shape));
    }
    Ok(variants)
}

fn parse_item(tokens: &[TokenTree]) -> Result<Item, String> {
    let mut i = 0;
    skip_attrs(tokens, &mut i);
    skip_vis(tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "the vendored serde derive does not support generic type `{name}`"
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
                    Shape::Tuple(parse_tuple_fields(g.stream())?)
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                other => return Err(format!("unexpected struct body: {other:?}")),
            };
            Ok(Item::Struct { name, shape })
        }
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            other => Err(format!("unexpected enum body: {other:?}")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

// ---------------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------------

/// Serialize expression for a shape, given an accessor prefix producing each
/// field expression (`&self.x` for structs, `__b0` bindings for enums).
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from(
        "{ let mut __f: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::new();",
    );
    for f in fields {
        if f.skip {
            continue;
        }
        let name = f.name.as_deref().unwrap();
        out.push_str(&format!(
            "__f.push((::std::string::String::from({name:?}), \
             ::serde::Serialize::to_value({})));",
            access(name)
        ));
    }
    out.push_str("::serde::Value::Object(__f) }");
    out
}

fn ser_tuple(fields: &[Field], access: impl Fn(usize) -> String) -> String {
    let live: Vec<usize> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.skip)
        .map(|(i, _)| i)
        .collect();
    if live.len() == 1 && fields.len() == 1 {
        // Newtype: transparent.
        return format!("::serde::Serialize::to_value({})", access(live[0]));
    }
    let items: Vec<String> = live
        .iter()
        .map(|&i| format!("::serde::Serialize::to_value({})", access(i)))
        .collect();
    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
}

/// `Serialize::stream` statements for a shape: the same events, in the same
/// order, as a walk of the tree `ser_named` / `ser_tuple` build.
fn stream_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let live: Vec<&str> = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| f.name.as_deref().unwrap())
        .collect();
    let mut out = format!("::serde::Sink::object(__s, {});", live.len());
    for name in live {
        out.push_str(&format!(
            "::serde::Sink::key(__s, {name:?}); ::serde::Serialize::stream({}, __s);",
            access(name)
        ));
    }
    out
}

fn stream_tuple(fields: &[Field], access: impl Fn(usize) -> String) -> String {
    let live: Vec<usize> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.skip)
        .map(|(i, _)| i)
        .collect();
    let mut out = String::new();
    if !(live.len() == 1 && fields.len() == 1) {
        out.push_str(&format!("::serde::Sink::array(__s, {});", live.len()));
    }
    for i in live {
        out.push_str(&format!("::serde::Serialize::stream({}, __s);", access(i)));
    }
    out
}

const STREAM_SIG: &str =
    "fn stream<__S: ::serde::Sink + ?::core::marker::Sized>(&self, __s: &mut __S)";

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape } => {
            let (body, stream) = match shape {
                Shape::Unit => (
                    "::serde::Value::Null".to_string(),
                    "::serde::Sink::null(__s);".to_string(),
                ),
                Shape::Named(fields) => (
                    ser_named(fields, |f| format!("&self.{f}")),
                    stream_named(fields, |f| format!("&self.{f}")),
                ),
                Shape::Tuple(fields) => (
                    ser_tuple(fields, |i| format!("&self.{i}")),
                    stream_tuple(fields, |i| format!("&self.{i}")),
                ),
            };
            format!(
                "impl ::serde::Serialize for {name} {{ \
                 fn to_value(&self) -> ::serde::Value {{ {body} }} \
                 {STREAM_SIG} {{ {stream} }} }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            let mut stream_arms = String::new();
            // A tagged variant is a one-entry object keyed by its name.
            let tagged = |vname: &str, inner: String| {
                format!(
                    "{{ ::serde::Sink::object(__s, 1); ::serde::Sink::key(__s, {vname:?}); \
                     {inner} }}"
                )
            };
            for (vname, shape) in variants {
                match shape {
                    Shape::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vname} => ::serde::Value::Str(\
                             ::std::string::String::from({vname:?})),"
                        ));
                        stream_arms.push_str(&format!(
                            "{name}::{vname} => ::serde::Sink::str(__s, {vname:?}),"
                        ));
                    }
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("__b{i}")).collect();
                        let pattern = format!("{name}::{vname}({})", binds.join(", "));
                        let inner = ser_tuple(fields, |i| format!("__b{i}"));
                        arms.push_str(&format!(
                            "{pattern} => ::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from({vname:?}), {inner})]),"
                        ));
                        let inner = stream_tuple(fields, |i| format!("__b{i}"));
                        stream_arms.push_str(&format!("{pattern} => {},", tagged(vname, inner)));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone().unwrap()).collect();
                        let pattern = format!("{name}::{vname} {{ {} }}", binds.join(", "));
                        let inner = ser_named(fields, |f| f.to_string());
                        arms.push_str(&format!(
                            "{pattern} => ::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from({vname:?}), {inner})]),"
                        ));
                        let inner = stream_named(fields, |f| f.to_string());
                        stream_arms.push_str(&format!("{pattern} => {},", tagged(vname, inner)));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{ \
                 fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }} \
                 {STREAM_SIG} {{ match self {{ {stream_arms} }} }} }}"
            )
        }
    }
}

/// Deserialize constructor body for named fields out of value expr `__v`.
fn de_named(type_path: &str, fields: &[Field], src: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        let name = f.name.as_deref().unwrap();
        if f.skip {
            inits.push_str(&format!("{name}: ::std::default::Default::default(),"));
        } else if f.default {
            inits.push_str(&format!(
                "{name}: ::serde::__get_field_or_default({src}, {name:?})?,"
            ));
        } else {
            inits.push_str(&format!("{name}: ::serde::__get_field({src}, {name:?})?,"));
        }
    }
    format!("::std::result::Result::Ok({type_path} {{ {inits} }})")
}

fn de_tuple(type_path: &str, fields: &[Field], src: &str) -> String {
    let live: Vec<usize> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.skip)
        .map(|(i, _)| i)
        .collect();
    let mut args = Vec::new();
    let mut live_idx = 0usize;
    for (i, f) in fields.iter().enumerate() {
        if f.skip {
            args.push("::std::default::Default::default()".to_string());
        } else if live.len() == 1 && fields.len() == 1 {
            args.push(format!("::serde::Deserialize::from_value({src})?"));
        } else {
            let _ = i;
            args.push(format!("::serde::__get_index({src}, {live_idx})?"));
            live_idx += 1;
        }
    }
    format!(
        "::std::result::Result::Ok({type_path}({}))",
        args.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => format!("::std::result::Result::Ok({name})"),
                Shape::Named(fields) => de_named(name, fields, "__v"),
                Shape::Tuple(fields) => de_tuple(name, fields, "__v"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (vname, shape) in variants {
                match shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),"
                        ));
                        // Tolerate the tagged form {"Name": null} as well.
                        tagged_arms.push_str(&format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),"
                        ));
                    }
                    Shape::Tuple(fields) => {
                        let body = de_tuple(&format!("{name}::{vname}"), fields, "__inner");
                        tagged_arms.push_str(&format!("{vname:?} => {body},"));
                    }
                    Shape::Named(fields) => {
                        let body = de_named(&format!("{name}::{vname}"), fields, "__inner");
                        tagged_arms.push_str(&format!("{vname:?} => {body},"));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{ \
                 match __v {{ \
                 ::serde::Value::Str(__s) => match __s.as_str() {{ {unit_arms} \
                   __other => ::std::result::Result::Err(::serde::Error::msg(\
                   ::std::format!(\"unknown {name} variant {{__other}}\"))) }}, \
                 ::serde::Value::Object(__fields) if __fields.len() == 1 => {{ \
                   let (__tag, __inner) = &__fields[0]; \
                   match __tag.as_str() {{ {tagged_arms} \
                   __other => ::std::result::Result::Err(::serde::Error::msg(\
                   ::std::format!(\"unknown {name} variant {{__other}}\"))) }} }}, \
                 __other => ::std::result::Result::Err(::serde::Error::msg(\
                 \"expected enum representation\")) }} }} }}"
            )
        }
    }
}
