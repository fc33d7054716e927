//! A lightweight item/expression model over the lexical token stream.
//!
//! The dataflow rules (R5–R7) need more structure than per-line pattern
//! matching: function boundaries, parameter lists, and the statement shapes
//! that move values between bindings. This module recovers exactly that —
//! and nothing more — from [`crate::lexer`]'s tokens. It is still not a
//! parser: generics, closures, and macro bodies are skated over with
//! delimiter balancing, and every consumer is written to degrade to
//! *over*-approximation (more taint, never less) when the model is too
//! coarse.

use crate::lexer::{Tok, TokKind};

/// Rust keywords and primitive-type names that can never be value bindings.
/// Used to filter pattern binders and expression identifiers.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield", "union", "u8", "u16", "u32", "u64", "u128",
    "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32", "f64", "bool", "char", "str",
];

/// One declared function parameter (receiver `self` excluded).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// The parameter's type as whitespace-joined token text (`& [ u8 ]`).
    pub ty: String,
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared parameters, in order, without any `self` receiver.
    pub params: Vec<Param>,
    /// Token-index range of the body block, inclusive of both braces
    /// (`tokens[body.0]` is `{`, `tokens[body.1]` is `}`). `None` for
    /// body-less trait method declarations.
    pub body: Option<(usize, usize)>,
}

/// Extracts every `fn` item (free functions, methods, and functions nested
/// in other bodies) from the token stream.
pub fn functions(tokens: &[Tok]) -> Vec<FnModel> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Skip a generic parameter list between the name and the `(`.
        let mut j = i + 2;
        if matches!(tokens.get(j), Some(t) if t.is_punct("<")) {
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "<" | "<<" if tokens[j].kind == TokKind::Punct => {
                        depth += if tokens[j].text == "<<" { 2 } else { 1 };
                    }
                    ">" | ">>" if tokens[j].kind == TokKind::Punct => {
                        depth -= if tokens[j].text == ">>" { 2 } else { 1 };
                        if depth <= 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !matches!(tokens.get(j), Some(t) if t.is_punct("(")) {
            i += 2;
            continue;
        }
        let Some(params_close) = matching_fwd(tokens, j, "(", ")") else {
            break;
        };
        let params = parse_params(tokens, j, params_close);
        // The body `{` follows the return type / where clause; a `;` first
        // means this is a declaration without a body. Bracket and paren
        // groups are skipped whole: the `;` in an array return type
        // (`-> [u8; 16]`) does not end the signature.
        let mut k = params_close + 1;
        let mut body = None;
        while k < tokens.len() {
            if tokens[k].is_punct(";") {
                break;
            }
            let group = [("[", "]"), ("(", ")")]
                .into_iter()
                .find(|(open, _)| tokens[k].is_punct(open));
            if let Some((open, close)) = group {
                k = matching_fwd(tokens, k, open, close).unwrap_or(tokens.len()) + 1;
                continue;
            }
            if tokens[k].is_punct("{") {
                let close = matching_fwd(tokens, k, "{", "}").unwrap_or(tokens.len() - 1);
                body = Some((k, close));
                break;
            }
            k += 1;
        }
        out.push(FnModel {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            params,
            body,
        });
        i = j;
    }
    out
}

/// Parses the parameter list between `(` at `open` and `)` at `close`.
fn parse_params(tokens: &[Tok], open: usize, close: usize) -> Vec<Param> {
    let mut params = Vec::new();
    for (a, b) in split_args(tokens, open, close) {
        let toks = &tokens[a..b];
        // Skip receivers (`self`, `&self`, `&mut self`, `mut self`).
        if toks
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .is_some_and(|t| t.text == "self")
        {
            continue;
        }
        // `name: Type` with an optional leading `mut`; tuple/struct
        // patterns in parameter position are skipped (never seen on the
        // audited paths).
        let mut it = toks.iter().enumerate();
        let name = loop {
            let Some((idx, t)) = it.next() else {
                break None;
            };
            if t.kind == TokKind::Ident && t.text != "mut" {
                if matches!(toks.get(idx + 1), Some(c) if c.is_punct(":")) {
                    break Some(t.text.clone());
                }
                break None;
            }
            if t.kind != TokKind::Ident {
                break None;
            }
        };
        let Some(name) = name else { continue };
        let colon = toks.iter().position(|t| t.is_punct(":")).unwrap_or(0);
        let ty = toks[colon + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        params.push(Param { name, ty });
    }
    params
}

/// Splits the token range between delimiters at `open`/`close` on commas at
/// nesting depth 1, returning half-open `(start, end)` token ranges.
pub fn split_args(tokens: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for (j, t) in tokens.iter().enumerate().take(close).skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 1 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// Index of the delimiter matching `tokens[open]` scanning forward.
pub fn matching_fwd(tokens: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_s) {
            depth += 1;
        } else if t.is_punct(close_s) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `[`/`(`/`{` matching the closer at `close`, scanning
/// backward.
pub fn matching_back(tokens: &[Tok], close: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if tokens[j].is_punct(close_s) {
            depth += 1;
        } else if tokens[j].is_punct(open_s) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// Token index of the `}` closing the innermost brace block containing
/// `idx`, or the last token if unbalanced. `lo` bounds the backward search
/// (typically the enclosing function's body open).
pub fn enclosing_block_end(tokens: &[Tok], idx: usize, lo: usize) -> usize {
    // Walk backward to the nearest unmatched `{`, then forward to its close.
    let mut depth = 0i32;
    let mut j = idx;
    let open = loop {
        if tokens[j].is_punct("}") {
            depth += 1;
        } else if tokens[j].is_punct("{") {
            if depth == 0 {
                break Some(j);
            }
            depth -= 1;
        }
        if j == lo {
            break None;
        }
        match j.checked_sub(1) {
            Some(p) => j = p,
            None => break None,
        }
    };
    match open {
        Some(o) => matching_fwd(tokens, o, "{", "}").unwrap_or(tokens.len() - 1),
        None => tokens.len() - 1,
    }
}

/// Collects the value-binding identifiers of a pattern token range.
///
/// Heuristics: lowercase-initial identifiers that are not keywords bind
/// values; uppercase-initial identifiers are enum variants, types, or
/// constants; an identifier immediately followed by a single `:` is a
/// struct-pattern field name, not a binder. Over-collecting (e.g. a guard
/// clause's identifiers) only ever *adds* taint, which is the safe
/// direction.
pub fn pattern_binders(tokens: &[Tok], range: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    for j in range.0..range.1 {
        let t = &tokens[j];
        if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) || t.text == "_" {
            continue;
        }
        if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            continue;
        }
        if matches!(tokens.get(j + 1), Some(c) if c.is_punct(":")) {
            continue;
        }
        out.push(t.text.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn extracts_functions_params_and_bodies() {
        let s = scan(
            "fn add(a: u64, mut b: u64) -> u64 { a + b }\n\
             impl X { fn m(&self, key: &[u8]) -> u8 { 0 } }\n\
             fn decl(x: u8);\n\
             fn lanes(k: u64) -> [u64; 8] { [k; 8] }\n",
        );
        let fns = functions(&s.tokens);
        assert_eq!(fns.len(), 4);
        assert_eq!(fns[0].name, "add");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params[1].name, "b");
        assert_eq!(fns[1].name, "m");
        assert_eq!(fns[1].params.len(), 1, "self receiver excluded");
        assert_eq!(fns[1].params[0].ty, "& [ u8 ]");
        assert!(fns[2].body.is_none());
        assert_eq!(fns[3].name, "lanes");
        assert!(fns[3].body.is_some(), "array return type keeps the body");
    }

    #[test]
    fn generic_functions_are_modelled() {
        let s = scan("fn g<T: Into<Vec<u8>>>(v: T) -> usize { 1 }");
        let fns = functions(&s.tokens);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].params[0].name, "v");
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn binders_skip_variants_fields_and_keywords() {
        let s = scan("Some(PadSlot { addr: a, mac }) if ready");
        let b = pattern_binders(&s.tokens, (0, s.tokens.len()));
        assert_eq!(b, vec!["a", "mac", "ready"]);
    }

    #[test]
    fn enclosing_block_end_finds_innermost_close() {
        let s = scan("fn f() { { let x = 1; } let y = 2; }");
        let x = s.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let end = enclosing_block_end(&s.tokens, x, 0);
        // `}` right after `;` of the inner block.
        assert!(s.tokens[end].is_punct("}"));
        let y = s.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert!(end < y);
    }
}
