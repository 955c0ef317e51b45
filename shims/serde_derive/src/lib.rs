//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline serde
//! shim.
//!
//! The real serde_derive rides on `syn`/`quote`; neither is available in this
//! offline workspace, so this macro parses the item's token stream by hand.
//! Supported shapes — exactly the ones the workspace uses:
//!
//! * structs with named fields (both derives; a map keyed by field name),
//! * enums whose variants are unit (both derives; the variant name as a
//!   string) or, for `Serialize` only, newtype (`{"Variant": value}`,
//!   serde's externally tagged form — `Condition::RagTraces(TraceMode)`).
//!
//! Tuple and unit structs, struct variants, multi-field tuple variants,
//! generic types and serde attributes (`#[serde(...)]`) are not supported
//! and fail with a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    /// A struct with named fields.
    Struct { name: String, fields: Vec<String> },
    /// An enum: each variant's name and whether it wraps one value.
    Enum { name: String, variants: Vec<(String, bool)> },
}

/// Skip attributes (`#[...]`, including doc comments) and visibility
/// (`pub`, `pub(...)`) at the cursor.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then a bracket group.
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Advance past the next comma at angle-bracket depth 0 (or to the end).
fn skip_past_comma(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Extract field names from a named-fields brace group.
fn parse_named_fields(tokens: &[TokenTree]) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        names.push(name.to_string());
        // Skip `: Type,`.
        i = skip_past_comma(tokens, i + 1);
    }
    names
}

fn parse_variants(enum_name: &str, tokens: &[TokenTree]) -> Result<Vec<(String, bool)>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        let name = name.to_string();
        i += 1;
        let newtype = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if skip_past_comma(&inner, 0) < inner.len() {
                    return Err(format!(
                        "serde shim derive: `{enum_name}::{name}` has more than one field"
                    ));
                }
                i += 1;
                true
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                return Err(format!("serde shim derive: struct variant `{enum_name}::{name}`"));
            }
            _ => false,
        };
        // Skip an optional discriminant (`= expr`) and the separating comma.
        i = skip_past_comma(tokens, i);
        variants.push((name, newtype));
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    i += 1;
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            g.stream().into_iter().collect::<Vec<TokenTree>>()
        }
        _ => {
            return Err(format!(
                "serde shim derive supports only non-generic braced items, not `{name}`"
            ))
        }
    };
    match kind.as_str() {
        "struct" => Ok(Item::Struct { fields: parse_named_fields(&body), name }),
        "enum" => Ok(Item::Enum { variants: parse_variants(&name, &body)?, name }),
        other => Err(format!("cannot derive for `{other} {name}`")),
    }
}

fn gen_serialize(item: &Item) -> Result<String, String> {
    Ok(match item {
        Item::Struct { name, fields } => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_content(&self.{f}))")
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{ \
                   fn to_content(&self) -> ::serde::Content {{ \
                     ::serde::Content::Map(vec![{}]) \
                   }} \
                 }}",
                pairs.join(", ")
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, newtype)| {
                    if *newtype {
                        format!(
                            "{name}::{v}(f0) => ::serde::Content::Map(vec![(\"{v}\".to_string(), ::serde::Serialize::to_content(f0))]),"
                        )
                    } else {
                        format!("{name}::{v} => ::serde::Content::Str(\"{v}\".to_string()),")
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{ \
                   fn to_content(&self) -> ::serde::Content {{ \
                     match self {{ {} }} \
                   }} \
                 }}",
                arms.join(" ")
            )
        }
    })
}

fn gen_deserialize(item: &Item) -> Result<String, String> {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_content(::serde::field(m, \"{f}\")?) \
                         .map_err(|e| ::serde::DeError::in_field(\"{name}.{f}\", e))?,"
                    )
                })
                .collect();
            let body = format!(
                "let m = match c {{ \
                   ::serde::Content::Map(m) => m, \
                   _ => return Err(::serde::DeError::custom(\"{name}: expected map\")), \
                 }}; \
                 Ok({name} {{ {} }})",
                inits.join(" ")
            );
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = Vec::new();
            for (v, newtype) in variants {
                if *newtype {
                    return Err(format!(
                        "serde shim derive: Deserialize supports unit variants only, not `{name}::{v}`"
                    ));
                }
                arms.push(format!("\"{v}\" => Ok({name}::{v}),"));
            }
            let body = format!(
                "match c {{ \
                   ::serde::Content::Str(s) => match s.as_str() {{ \
                     {} \
                     other => Err(::serde::DeError::custom(format!(\"{name}: unknown variant {{other}}\"))), \
                   }}, \
                   _ => Err(::serde::DeError::custom(\"{name}: expected variant\")), \
                 }}",
                arms.join(" ")
            );
            (name, body)
        }
    };
    Ok(format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn from_content(c: &::serde::Content) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} \
         }}"
    ))
}

fn expand(input: TokenStream, gen: fn(&Item) -> Result<String, String>) -> TokenStream {
    match parse_item(input).and_then(|item| gen(&item)) {
        Ok(code) => code.parse().expect("generated impl parses"),
        Err(msg) => format!("compile_error!({msg:?});").parse().expect("error parses"),
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
