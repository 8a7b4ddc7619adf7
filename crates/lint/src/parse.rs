//! A recursive-descent item/body parser over the [token stream](crate::tokens):
//! the "AST-lite" the interprocedural rules run on.
//!
//! This is deliberately not a full Rust parser. It recovers exactly the
//! structure the call-graph rules need — function definitions with their
//! module/impl-qualified paths and body extents, and the call expressions
//! inside those bodies — and nothing else. Every
//! construct it cannot classify is skipped, never an error: a linter must
//! not crash on work-in-progress code, so the parser degrades to "fewer
//! facts", which for the reachability rules means fewer findings, never a
//! spurious one from a mis-parse.
//!
//! The parse is a single forward walk over the comment-free token stream
//! with an explicit scope stack (`mod` and `impl` frames keyed by brace
//! depth).

use crate::tokens::{Tok, TokKind};

/// One call expression found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written: `helper` → `["helper"]`,
    /// `SimState::new` → `["SimState", "new"]`. For method calls the single
    /// segment is the method name.
    pub segments: Vec<String>,
    /// True for `.name(…)` method-call syntax (resolution must consider
    /// every impl that defines the method — trait dispatch).
    pub is_method: bool,
    /// 1-based line of the callee name.
    pub line: u32,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// File-local qualified path: enclosing `mod` segments, then the impl
    /// self type (if any), then the name — e.g. `["pattern", "StridePattern",
    /// "advance"]`.
    pub path: Vec<String>,
    /// Self type when defined inside an `impl` block.
    pub self_type: Option<String>,
    /// Trait name when defined inside an `impl Trait for Type` block.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inclusive line span of the body (`{`..`}`), `None` for bodiless
    /// declarations (trait methods, extern fns).
    pub body_lines: Option<(u32, u32)>,
    /// Half-open index range of the body tokens inside [`ParsedFile::code`]
    /// (excluding the outer braces), `None` when bodiless.
    pub body: Option<(usize, usize)>,
    /// Call expressions in the body, in source order.
    pub calls: Vec<CallSite>,
}

/// Parse result for one file: the comment-free token stream plus the
/// recovered structure.
#[derive(Debug)]
pub struct ParsedFile {
    /// Non-comment tokens, in source order. [`FnDef::body`] indexes into
    /// this vector.
    pub code: Vec<Tok>,
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "move", "fn", "as", "let",
    "mut", "ref", "pub", "crate", "super", "self", "Self", "where", "impl", "dyn", "box", "await",
    "break", "continue", "unsafe", "async", "const", "static", "use", "mod", "extern", "enum",
    "struct", "trait", "type", "union", "yield",
];

/// One entry of the scope stack.
#[derive(Debug)]
enum Frame {
    /// `mod name {` — contributes a path segment.
    Mod(String),
    /// `impl [Trait for] Type {` — contributes the self type.
    Impl {
        self_type: Option<String>,
        trait_name: Option<String>,
    },
    /// Any other brace (fn bodies are tracked separately).
    Other,
}

/// Parses one file's token stream into its AST-lite.
#[must_use]
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let code: Vec<Tok> = toks.iter().filter(|t| !t.is_comment()).cloned().collect();
    let mut fns = Vec::new();
    // Scope stack: one frame per open brace.
    let mut frames: Vec<Frame> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => {
                frames.push(Frame::Other);
                i += 1;
            }
            TokKind::Punct if t.text == "}" => {
                frames.pop();
                i += 1;
            }
            TokKind::Ident if t.text == "mod" => {
                // `mod name { …` opens a scope; `mod name;` does not.
                let name = code.get(i + 1).filter(|n| n.kind == TokKind::Ident);
                if let (Some(name), Some(open)) = (name, code.get(i + 2)) {
                    if open.is_punct('{') {
                        frames.push(Frame::Mod(name.text.clone()));
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                let (frame, next) = parse_impl_header(&code, i + 1);
                frames.push(frame);
                i = next;
            }
            TokKind::Ident if t.text == "fn" => {
                let (def, next) = parse_fn(&code, i, &frames);
                if let Some(def) = def {
                    fns.push(def);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    ParsedFile { code, fns }
}

/// Parses an `impl` header starting just past the `impl` keyword. Returns
/// the frame and the index just past the opening `{` (or past the header
/// on a malformed one).
fn parse_impl_header(code: &[Tok], mut i: usize) -> (Frame, usize) {
    // Optional generic parameters.
    i = skip_generics(code, i);
    // Collect the first type path (trait or self type) and, after `for`,
    // the second. The *last identifier* of a path is its usable name
    // (`std::fmt::Display` → `Display`).
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut after_for = false;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('{') {
            i += 1;
            break;
        }
        if t.is_ident("where") {
            // Skip the where clause to the opening brace.
            while i < code.len() && !code[i].is_punct('{') {
                i += 1;
            }
            continue;
        }
        if t.is_ident("for") {
            after_for = true;
            i += 1;
            continue;
        }
        if t.is_punct('<') {
            i = skip_generics(code, i);
            continue;
        }
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut" | "const") {
            if after_for {
                second = Some(t.text.clone());
            } else {
                first = Some(t.text.clone());
            }
        }
        i += 1;
    }
    let (self_type, trait_name) = if after_for {
        (second, first)
    } else {
        (first, None)
    };
    (
        Frame::Impl {
            self_type,
            trait_name,
        },
        i,
    )
}

/// Skips a `<…>` generic-parameter/argument list starting at `i` (which
/// may or may not be `<`). Returns the index just past the closing `>`.
/// `>` tokens that are the tail of `->` or `=>` do not close the list, and
/// `<<` simply nests twice, which still balances.
fn skip_generics(code: &[Tok], i: usize) -> usize {
    if !code.get(i).is_some_and(|t| t.is_punct('<')) {
        return i;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow_tail = j > 0 && (code[j - 1].is_punct('-') || code[j - 1].is_punct('='));
            if !arrow_tail {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            // Malformed header; bail without consuming the brace.
            return j;
        }
        j += 1;
    }
    j
}

/// Parses `fn name …` starting at the `fn` keyword: signature, body
/// extent, and the call expressions inside the body. Returns the def and
/// the index to resume the outer walk at — just past the signature, so a
/// nested `fn` inside the body is found by the main loop (its calls are
/// then attributed to both; harmless for reachability).
fn parse_fn(code: &[Tok], i: usize, frames: &[Frame]) -> (Option<FnDef>, usize) {
    let Some(name_tok) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
        return (None, i + 1);
    };
    let name = name_tok.text.clone();
    let line = code[i].line;
    // Scan the signature for the body `{` or a terminating `;`.
    let mut j = i + 2;
    j = skip_generics(code, j);
    let mut nest = 0i32; // () and [] nesting in the signature
    let mut body_open: Option<usize> = None;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if t.is_punct('<') {
            // Generic arguments in the return type (`-> Foo<Bar>`).
            j = skip_generics(code, j);
            continue;
        } else if nest == 0 && t.is_punct(';') {
            // Bodiless declaration.
            break;
        } else if nest == 0 && t.is_punct('{') {
            body_open = Some(j);
            break;
        }
        j += 1;
    }
    // Qualified path from the scope stack.
    let mut path: Vec<String> = Vec::new();
    let mut self_type = None;
    let mut trait_name = None;
    for f in frames {
        match f {
            Frame::Mod(m) => path.push(m.clone()),
            Frame::Impl {
                self_type: st,
                trait_name: tn,
            } => {
                if let Some(st) = st {
                    path.push(st.clone());
                }
                self_type.clone_from(st);
                trait_name.clone_from(tn);
            }
            Frame::Other => {}
        }
    }
    path.push(name.clone());
    let Some(open) = body_open else {
        return (
            Some(FnDef {
                name,
                path,
                self_type,
                trait_name,
                line,
                body_lines: None,
                body: None,
                calls: Vec::new(),
            }),
            j + 1,
        );
    };
    // Body extent: matching `}` of the opening brace.
    let mut depth = 0i32;
    let mut close = code.len();
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                close = k;
                break;
            }
        }
    }
    let body = (open + 1, close.min(code.len()));
    let body_lines = (
        code[open].line,
        code.get(close)
            .map_or_else(|| code[code.len() - 1].line, |t| t.line),
    );
    let calls = collect_calls(code, body.0, body.1);
    // Resume at the opening brace itself so the main loop pushes a frame
    // for it — otherwise the body's closing `}` would pop the enclosing
    // mod/impl frame.
    (
        Some(FnDef {
            name,
            path,
            self_type,
            trait_name,
            line,
            body_lines: Some(body_lines),
            body: Some(body),
            calls,
        }),
        open,
    )
}

/// Collects call expressions in `code[from..to]`.
fn collect_calls(code: &[Tok], from: usize, to: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for j in from..to {
        if !code[j].is_punct('(') || j == 0 {
            continue;
        }
        let prev = &code[j - 1];
        // Turbofish: `name::<T>(…)` — hop back over the generic list.
        let name_idx = if prev.is_punct('>') {
            match turbofish_head(code, j - 1, from) {
                Some(k) => k,
                None => continue,
            }
        } else {
            j - 1
        };
        let head = &code[name_idx];
        if head.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&head.text.as_str()) {
            continue;
        }
        // Macro invocation `name!(…)` is not a call.
        if name_idx >= 1 && code[name_idx - 1].is_punct('!') {
            continue;
        }
        // Walk back over `::`-joined segments.
        let mut segments = vec![head.text.clone()];
        let mut k = name_idx;
        while k >= 3
            && code[k - 1].is_punct(':')
            && code[k - 2].is_punct(':')
            && code[k - 3].kind == TokKind::Ident
        {
            segments.insert(0, code[k - 3].text.clone());
            k -= 3;
        }
        // Strip leading path qualifiers that carry no resolution signal.
        while segments.len() > 1
            && matches!(
                segments[0].as_str(),
                "crate" | "self" | "super" | "std" | "core"
            )
        {
            segments.remove(0);
        }
        let is_method = segments.len() == 1 && k >= 1 && code[k - 1].is_punct('.');
        // A definition `fn name(` was skipped by the caller's resume
        // logic, but a nested `fn` body rescans; guard anyway.
        if k >= 1 && code[k - 1].is_ident("fn") {
            continue;
        }
        // `Some(x)`, `Ok(v)`, `PortId(p)`: a bare uppercase ident applied
        // to arguments is a tuple-struct/variant constructor, not a call.
        if !is_method
            && segments.len() == 1
            && segments[0].chars().next().is_some_and(char::is_uppercase)
        {
            continue;
        }
        calls.push(CallSite {
            segments,
            is_method,
            line: head.line,
        });
    }
    calls
}

/// For a `>` closing a turbofish at `close`, returns the index of the
/// callee identifier in `name::<…>` — i.e. the ident before the `::<`.
fn turbofish_head(code: &[Tok], close: usize, from: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        let t = &code[j];
        if t.is_punct('>') && !(j > 0 && (code[j - 1].is_punct('-') || code[j - 1].is_punct('='))) {
            depth += 1;
        } else if t.is_punct('<') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == from {
            return None;
        }
        j -= 1;
    }
    // Expect `ident :: <`.
    if j >= 3
        && code[j - 1].is_punct(':')
        && code[j - 2].is_punct(':')
        && code[j - 3].kind == TokKind::Ident
    {
        Some(j - 3)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn parsed(src: &str) -> ParsedFile {
        parse(&tokenize(src))
    }

    #[test]
    fn fn_paths_through_mods_and_impls() {
        let src = "mod inner {\n\
                   pub struct S;\n\
                   impl S {\n\
                   pub fn make(x: u64) -> u64 { helper(x) }\n\
                   }\n\
                   fn helper(x: u64) -> u64 { x }\n\
                   }\n\
                   fn top() {}\n";
        let p = parsed(src);
        let paths: Vec<Vec<String>> = p.fns.iter().map(|f| f.path.clone()).collect();
        assert_eq!(
            paths,
            vec![
                vec!["inner".to_string(), "S".to_string(), "make".to_string()],
                vec!["inner".to_string(), "helper".to_string()],
                vec!["top".to_string()],
            ]
        );
        assert_eq!(p.fns[0].self_type.as_deref(), Some("S"));
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].segments, vec!["helper"]);
    }

    #[test]
    fn trait_impl_records_trait_and_self_type() {
        let src = "impl AccessPattern for StridePattern {\n\
                   fn advance(&self, k: u64) -> u64 { self.step(k) }\n\
                   }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].self_type.as_deref(), Some("StridePattern"));
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("AccessPattern"));
        assert_eq!(
            p.fns[0].path,
            vec!["StridePattern".to_string(), "advance".to_string()]
        );
        assert!(p.fns[0].calls[0].is_method);
        assert_eq!(p.fns[0].calls[0].segments, vec!["step"]);
    }

    #[test]
    fn generic_impl_header_is_skipped() {
        let src = "impl<P: AccessPattern + Clone> Workload<P> {\n\
                   fn tick(&mut self) { age(self) }\n\
                   }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].self_type.as_deref(), Some("Workload"));
        assert_eq!(p.fns[0].calls[0].segments, vec!["age"]);
    }

    #[test]
    fn calls_with_paths_methods_and_turbofish() {
        let src = "fn f() {\n\
                   let a = SimState::new(cfg);\n\
                   let b = x.advance(1);\n\
                   let c: Vec<u64> = it.collect::<Vec<u64>>();\n\
                   let d = crate::steady::solve(y);\n\
                   mac!(not_a_call);\n\
                   if cond(z) { }\n\
                   }\n";
        let p = parsed(src);
        let calls = &p.fns[0].calls;
        let segs: Vec<(Vec<String>, bool)> = calls
            .iter()
            .map(|c| (c.segments.clone(), c.is_method))
            .collect();
        assert!(segs.contains(&(vec!["SimState".into(), "new".into()], false)));
        assert!(segs.contains(&(vec!["advance".into()], true)));
        assert!(segs.contains(&(vec!["collect".into()], true)));
        assert!(segs.contains(&(vec!["steady".into(), "solve".into()], false)));
        assert!(segs.contains(&(vec!["cond".into()], false)));
        assert!(!segs.iter().any(|(s, _)| s == &vec!["mac".to_string()]));
    }

    #[test]
    fn bodiless_trait_method_has_no_body() {
        let src = "trait T {\n    fn required(&self) -> u64;\n    fn provided(&self) -> u64 { self.required() }\n}\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[1].calls[0].segments, vec!["required"]);
    }

    #[test]
    fn matches_macro_is_not_a_call() {
        let src = "fn f() -> bool { matches!(x, Some(_)) }\n";
        let p = parsed(src);
        assert!(p.fns[0].calls.is_empty());
    }

    #[test]
    fn body_lines_cover_the_braces() {
        let src = "fn f()\n-> u64\n{\n    g()\n}\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].body_lines, Some((3, 5)));
    }
}
