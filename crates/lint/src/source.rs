//! The per-file source model rules operate on: tokens plus derived
//! structure (test regions, marked regions, suppressions).
//!
//! Regions are tracked as inclusive line spans, derived from a single
//! brace-matching scan over the token stream. The derivation is heuristic
//! — it does not build an AST — but it is conservative in the direction
//! that matters for each rule (see the individual region notes).

use crate::tokens::{tokenize, Tok, TokKind};

/// The whole-file marker (`//! vecmem-lint: alloc-free`) or the
/// function-level marker (`// vecmem-lint: alloc-free` immediately above a
/// `fn`).
pub const ALLOC_FREE_MARKER: &str = "vecmem-lint: alloc-free";

/// Function-level marker declaring a hot-path root: the function and
/// everything reachable from it through the workspace call graph must be
/// allocation-free (L6) and panic-free (L7).
pub const HOT_PATH_MARKER: &str = "vecmem-lint: hot-path";

/// Marker (whole-file or function-level) opting code into the overflow
/// policy (L9): bare `+`/`*`/`<<` on non-literal operands must become
/// `wrapping_`/`checked_`/`saturating_` calls or carry an allow.
pub const OVERFLOW_MARKER: &str = "vecmem-lint: overflow-policy";

/// Prefix of an inline (single-line) suppression comment.
pub const SUPPRESS_PREFIX: &str = "vecmem-lint: allow(";

/// Prefix of a function-scoped suppression comment: placed directly above
/// a `fn`, it silences the named rules for the whole body. Reserved for
/// rules whose findings cluster (L7 indexing in a packed-state kernel);
/// like the line form, it takes effect only with a reason.
pub const SUPPRESS_FN_PREFIX: &str = "vecmem-lint: allow-fn(";

/// An inclusive 1-based line span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First line of the span.
    pub start: u32,
    /// Last line of the span.
    pub end: u32,
}

impl Span {
    /// True when `line` falls inside the span.
    #[must_use]
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// One parsed `// vecmem-lint: allow(RULE, …) -- reason` or
/// `// vecmem-lint: allow-fn(RULE, …) -- reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the suppression applies to: the comment's own line when it
    /// trails code, otherwise the next line holding code.
    pub applies_to: u32,
    /// For `allow-fn`: the span of the following function body the
    /// suppression covers. `None` for the single-line form.
    pub span: Option<Span>,
    /// Uppercased rule ids inside `allow(…)`.
    pub rules: Vec<String>,
    /// The justification after `--`, trimmed. Empty means malformed.
    pub reason: String,
}

/// A tokenized source file with its derived regions.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative).
    pub rel: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Spans of `#[cfg(test)]` items (test modules, test-only impls).
    pub test_spans: Vec<Span>,
    /// True when the whole file is marked alloc-free.
    pub alloc_free_file: bool,
    /// Function bodies marked alloc-free by a preceding marker comment.
    pub alloc_free_spans: Vec<Span>,
    /// Function bodies marked as hot-path roots for L6/L7 propagation.
    pub hot_path_spans: Vec<Span>,
    /// True when the whole file opts into the overflow policy (L9).
    pub overflow_file: bool,
    /// Function bodies opted into the overflow policy by a marker.
    pub overflow_spans: Vec<Span>,
    /// Inline suppressions, in source order.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Tokenizes and derives all regions.
    #[must_use]
    pub fn parse(rel: &str, src: &str) -> Self {
        let toks = tokenize(src);
        let test_spans = test_spans(&toks);
        let (alloc_free_file, alloc_free_spans) = marker_regions(&toks, ALLOC_FREE_MARKER);
        let (_, hot_path_spans) = marker_regions(&toks, HOT_PATH_MARKER);
        let (overflow_file, overflow_spans) = marker_regions(&toks, OVERFLOW_MARKER);
        let suppressions = collect_suppressions(&toks);
        Self {
            rel: rel.to_string(),
            toks,
            test_spans,
            alloc_free_file,
            alloc_free_spans,
            hot_path_spans,
            overflow_file,
            overflow_spans,
            suppressions,
        }
    }

    /// True when `line` lies in a `#[cfg(test)]` region.
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|s| s.contains(line))
    }

    /// True when `line` is inside an alloc-free region (whole-file marker
    /// or a marked function body).
    #[must_use]
    pub fn in_alloc_free(&self, line: u32) -> bool {
        self.alloc_free_file || self.alloc_free_spans.iter().any(|s| s.contains(line))
    }

    /// True when `line` is inside a function body marked as a hot-path
    /// root (the seed set for L6/L7 propagation).
    #[must_use]
    pub fn in_hot_path(&self, line: u32) -> bool {
        self.hot_path_spans.iter().any(|s| s.contains(line))
    }

    /// True when `line` is opted into the overflow policy (L9).
    #[must_use]
    pub fn in_overflow(&self, line: u32) -> bool {
        self.overflow_file || self.overflow_spans.iter().any(|s| s.contains(line))
    }

    /// The suppression covering `rule` at `line`, if any: an exact-line
    /// `allow` or an `allow-fn` whose function body contains the line. A
    /// suppression without a reason covers nothing, so the finding it
    /// meant to hide stays visible.
    #[must_use]
    pub fn suppression_for(&self, rule: &str, line: u32) -> Option<&Suppression> {
        self.suppressions.iter().find(|s| {
            !s.reason.is_empty()
                && (s.applies_to == line || s.span.is_some_and(|sp| sp.contains(line)))
                && s.rules.iter().any(|r| r == rule)
        })
    }
}

/// Indices of non-comment tokens, the working view for structure scans.
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect()
}

/// Scans for `#[…]` attributes that mention `test` (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]`) and returns the line span of
/// the item each one gates: up to the matching `}` of the first brace
/// after the attribute, or the first `;` if one comes sooner.
fn test_spans(toks: &[Tok]) -> Vec<Span> {
    let code = code_indices(toks);
    let mut spans = Vec::new();
    let mut k = 0usize;
    while k + 1 < code.len() {
        let i = code[k];
        if toks[i].is_punct('#') && toks[code[k + 1]].is_punct('[') {
            // Collect the attribute tokens up to the matching `]`.
            let mut depth = 0i32;
            let mut end = k + 1;
            let mut mentions_test = false;
            for (kk, &j) in code.iter().enumerate().skip(k + 1) {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        end = kk;
                        break;
                    }
                }
                mentions_test |= toks[j].is_ident("test");
            }
            if mentions_test {
                if let Some(span) = gated_item_span(toks, &code, end + 1, toks[i].line) {
                    spans.push(span);
                }
            }
            k = end + 1;
        } else {
            k += 1;
        }
    }
    spans
}

/// Returns the span of the item starting at code index `from` (just past a
/// gating attribute): through further attributes, then either to the first
/// top-level `;` or `,` before any brace, or to the matching `}` of the
/// first `{`.
///
/// The `,` terminator and the negative-depth stop handle expression-level
/// gates — struct-literal fields, match arms — which have neither a `;`
/// nor their own braces. Without them the scan would run past the
/// enclosing `}` and resynchronize on a later, unrelated item, gating a
/// huge stretch of the file by accident.
fn gated_item_span(toks: &[Tok], code: &[usize], from: usize, start_line: u32) -> Option<Span> {
    let mut depth = 0i32;
    // Paren/bracket nesting, so a `,` in a fn signature or a `;` inside
    // `[u64; 3]` does not end the span.
    let mut nest = 0i32;
    let mut last_line = start_line;
    for &j in code.get(from..)? {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(Span {
                    start: start_line,
                    end: t.line,
                });
            }
            if depth < 0 {
                // The gated expression ended before the enclosing close.
                return Some(Span {
                    start: start_line,
                    end: last_line,
                });
            }
        } else if (t.is_punct(';') || t.is_punct(',')) && depth == 0 && nest <= 0 {
            return Some(Span {
                start: start_line,
                end: t.line,
            });
        }
        last_line = t.line;
    }
    // Unclosed item (end of file): gate to the end.
    toks.last().map(|t| Span {
        start: start_line,
        end: t.line,
    })
}

/// Region markers (alloc-free, hot-path, overflow-policy): an
/// inner-doc/inner-comment marker marks the whole file; a line-comment
/// marker marks the next `fn` body.
///
/// Marker comments match by prefix, so `vecmem-lint: alloc-free` must not
/// also be a prefix of another marker's text.
fn marker_regions(toks: &[Tok], marker: &str) -> (bool, Vec<Span>) {
    let mut whole_file = false;
    let mut spans = Vec::new();
    let code = code_indices(toks);
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() || !t.text.trim().starts_with(marker) {
            continue;
        }
        if t.kind == TokKind::InnerDoc {
            whole_file = true;
            continue;
        }
        if let Some(span) = next_fn_body_span(toks, &code, i, t.line) {
            spans.push(span);
        }
    }
    (whole_file, spans)
}

/// The span from `start_line` through the closing `}` of the next `fn`
/// body after token index `after` — the region a function-level marker or
/// `allow-fn` suppression covers.
fn next_fn_body_span(toks: &[Tok], code: &[usize], after: usize, start_line: u32) -> Option<Span> {
    let kf = code
        .iter()
        .position(|&j| j > after && toks[j].is_ident("fn"))?;
    let mut depth = 0i32;
    for &j in &code[kf..] {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(Span {
                    start: start_line,
                    end: toks[j].line,
                });
            }
        }
    }
    None
}

/// Parses every suppression comment and resolves the line (or, for
/// `allow-fn`, the function body) it applies to.
fn collect_suppressions(toks: &[Tok]) -> Vec<Suppression> {
    let code = code_indices(toks);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = t.text.trim();
        // `allow-fn(` first: `allow(` is not a prefix of it, but checking in
        // this order keeps the two forms visibly distinct.
        let (rest, fn_scoped) = if let Some(rest) = text.strip_prefix(SUPPRESS_FN_PREFIX) {
            (rest, true)
        } else if let Some(rest) = text.strip_prefix(SUPPRESS_PREFIX) {
            (rest, false)
        } else {
            continue;
        };
        let (rules_part, tail) = match rest.split_once(')') {
            Some(x) => x,
            None => (rest, ""),
        };
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|r| r.trim().to_ascii_uppercase())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = tail
            .trim()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or("")
            .to_string();
        // Trailing comment (code earlier on the same line) applies to its
        // own line; a standalone comment applies to the next code line.
        let trails_code = toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !p.is_comment());
        let applies_to = if trails_code {
            t.line
        } else {
            toks[i + 1..]
                .iter()
                .find(|n| !n.is_comment())
                .map_or(t.line, |n| n.line)
        };
        let span = if fn_scoped {
            next_fn_body_span(toks, &code, i, t.line)
        } else {
            None
        };
        out.push(Suppression {
            applies_to,
            span,
            rules,
            reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_span_covers_body() {
        let f = SourceFile::parse(
            "x.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n",
        );
        assert!(!f.in_test(1));
        assert!(f.in_test(3));
        assert!(f.in_test(4));
        assert!(f.in_test(5));
        assert!(!f.in_test(6));
    }

    #[test]
    fn whole_file_alloc_free_marker() {
        let f = SourceFile::parse("x.rs", "//! vecmem-lint: alloc-free\nfn a() {}\n");
        assert!(f.in_alloc_free(2));
    }

    #[test]
    fn fn_level_alloc_free_marker() {
        let src =
            "fn cold() {}\n// vecmem-lint: alloc-free\nfn hot() {\n    work();\n}\nfn other() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_alloc_free(1));
        assert!(f.in_alloc_free(4));
        assert!(!f.in_alloc_free(6));
    }

    #[test]
    fn suppression_trailing_and_standalone() {
        let src = "let a = x.unwrap(); // vecmem-lint: allow(L7) -- bounded by ctor\n\
                   // vecmem-lint: allow(L2, L7) -- cold path\n\
                   let b = y.unwrap();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.suppression_for("L7", 1).is_some());
        assert!(f.suppression_for("L2", 1).is_none());
        assert!(f.suppression_for("L7", 3).is_some());
        assert!(f.suppression_for("L2", 3).is_some());
        assert_eq!(f.suppressions[1].reason, "cold path");
    }

    #[test]
    fn suppression_without_reason_covers_nothing() {
        let f = SourceFile::parse("x.rs", "// vecmem-lint: allow(L7)\nlet b = y.unwrap();\n");
        assert_eq!(f.suppressions[0].reason, "");
        assert_eq!(f.suppressions[0].applies_to, 2);
        assert!(f.suppression_for("L7", 2).is_none());
    }

    #[test]
    fn hot_path_marker_covers_next_fn_only() {
        let src = "fn cold() {}\n// vecmem-lint: hot-path\nfn hot(x: u32) {\n    work(x);\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_hot_path(1));
        assert!(f.in_hot_path(3));
        assert!(f.in_hot_path(4));
        assert!(!f.in_hot_path(6));
    }

    #[test]
    fn overflow_marker_file_and_fn_level() {
        let f = SourceFile::parse("x.rs", "//! vecmem-lint: overflow-policy\nfn a() {}\n");
        assert!(f.in_overflow(2));
        let src = "fn a() {}\n// vecmem-lint: overflow-policy\nfn pack() {\n    x;\n}\nfn b() {}\n";
        let g = SourceFile::parse("x.rs", src);
        assert!(!g.in_overflow(1));
        assert!(g.in_overflow(4));
        assert!(!g.in_overflow(6));
    }

    #[test]
    fn allow_fn_suppression_covers_whole_body() {
        let src = "// vecmem-lint: allow-fn(L7) -- ctor-bounded indexing\n\
                   fn kernel(b: &[u8]) -> u8 {\n    let x = b[0];\n    b[1]\n}\n\
                   fn other(b: &[u8]) -> u8 {\n    b[2]\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.suppression_for("L7", 3).is_some());
        assert!(f.suppression_for("L7", 4).is_some());
        assert!(f.suppression_for("L7", 7).is_none());
        assert!(f.suppression_for("L6", 3).is_none());
        assert_eq!(f.suppressions[0].reason, "ctor-bounded indexing");
    }
}
