//! The per-file lint rules, run over a [`SourceFile`] and its parse.
//!
//! | id | invariant |
//! |----|-----------|
//! | L2 | purity: no allocation tokens inside `vecmem-lint: alloc-free` regions |
//! | L6 | transitive alloc-free: nothing reachable from a `hot-path` root allocates (see [`graph`](crate::graph)) |
//! | L7 | no-panic cone: nothing reachable from a `hot-path` root can panic (unwrap/expect/panic-family, indexing, `/` by a variable) |
//! | L9 | overflow policy: bare `+`/`*`/`<<` in `overflow-policy` regions must be `wrapping_`/`checked_`/`saturating_` |
//!
//! L6 and L7 are interprocedural and live in [`graph`](crate::graph);
//! this module holds the per-file rules (L2, L9). The ids L0, L1, L3,
//! L4, L5 and L8 are retired: clippy and rustc enforce those rules (see
//! the workspace lint table in the root `Cargo.toml`).
//!
//! Every rule can be silenced at one line with
//! `// vecmem-lint: allow(ID) -- reason` (or, for rules whose findings
//! cluster, a whole function body with
//! `// vecmem-lint: allow-fn(ID) -- reason`). A suppression without a
//! reason silences nothing, so the escape hatch stays auditable.

use crate::parse::ParsedFile;
use crate::source::SourceFile;
use crate::tokens::{Tok, TokKind};

/// One finding: a rule violated at a line of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`L2`, `L6`, `L7` or `L9`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}\n    help: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Runs the per-file rules (L2, L9) over one file; the interprocedural
/// L6/L7 run separately on the [call graph](crate::graph). Suppressions
/// are applied by the caller (the driver), so this returns raw findings.
#[must_use]
pub fn check_file(file: &SourceFile, parsed: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    rule_l2_alloc_free(file, &mut out);
    rule_l9_overflow_policy(file, parsed, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Tokens that allocate. Each entry is (what to match, how it reads in the
/// diagnostic).
fn rule_l2_alloc_free(file: &SourceFile, out: &mut Vec<Violation>) {
    if !file.alloc_free_file && file.alloc_free_spans.is_empty() {
        return;
    }
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    let mut push = |line: u32, what: &str| {
        out.push(Violation {
            rule: "L2",
            file: file.rel.clone(),
            line,
            message: format!("allocation (`{what}`) inside a `vecmem-lint: alloc-free` region"),
            hint: "reuse a scratch buffer owned by the state, hoist the allocation out of the marked region, or suppress with a reason",
        });
    };
    for (i, t) in code.iter().enumerate() {
        let line = t.line;
        if !file.in_alloc_free(line) || file.in_test(line) || t.kind != TokKind::Ident {
            continue;
        }
        let next = code.get(i + 1);
        let next2 = code.get(i + 2);
        let next3 = code.get(i + 3);
        match t.text.as_str() {
            // vec! / format! macros.
            "vec" | "format" if next.is_some_and(|n| n.is_punct('!')) => {
                push(line, &format!("{}!", t.text));
            }
            // Vec::new, Vec::with_capacity, Box::new, String::from, ….
            "Vec" | "Box" | "String"
                if next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && next3.is_some_and(|n| {
                        matches!(n.text.as_str(), "new" | "with_capacity" | "from")
                    }) =>
            {
                push(
                    line,
                    &format!("{}::{}", t.text, next3.map_or("", |n| n.text.as_str())),
                );
            }
            // .collect(), .to_vec(), .to_string(), .to_owned().
            "collect" | "to_vec" | "to_string" | "to_owned" => {
                let prev_dot = i > 0 && code[i - 1].is_punct('.');
                if prev_dot {
                    push(line, &format!(".{}()", t.text));
                }
            }
            _ => {}
        }
    }
}

/// L9: inside `vecmem-lint: overflow-policy` regions, bare `+`, `*`,
/// and `<<` (including their compound-assign forms) on non-literal
/// operands must become `wrapping_`/`checked_`/`saturating_` calls. The
/// scan is restricted to function bodies so `+` in trait bounds or enum
/// derives never matches.
fn rule_l9_overflow_policy(file: &SourceFile, parsed: &ParsedFile, out: &mut Vec<Violation>) {
    if !file.overflow_file && file.overflow_spans.is_empty() {
        return;
    }
    let operand_prev = |t: &Tok| {
        (t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "return" | "in"))
            || t.kind == TokKind::Num
            || t.is_punct(')')
            || t.is_punct(']')
    };
    for f in &parsed.fns {
        if !file.in_overflow(f.line) {
            continue;
        }
        let Some((from, to)) = f.body else { continue };
        let code = &parsed.code;
        for j in from..to {
            let t = &code[j];
            if t.kind != TokKind::Punct || j == 0 || file.in_test(t.line) {
                continue;
            }
            let prev = &code[j - 1];
            let (op, span_next) = match t.text.as_str() {
                "+" => ("+", j + 1),
                "*" => ("*", j + 1),
                "<" if code.get(j + 1).is_some_and(|n| n.is_punct('<')) => ("<<", j + 2),
                _ => continue,
            };
            if !operand_prev(prev) {
                continue;
            }
            // Literal-only arithmetic (`4 + 4`) is compile-time checked.
            let rhs = code.get(span_next).map(|n| {
                if n.is_punct('=') {
                    code.get(span_next + 1)
                } else {
                    Some(n)
                }
            });
            if prev.kind == TokKind::Num && rhs.flatten().is_some_and(|n| n.kind == TokKind::Num) {
                continue;
            }
            out.push(Violation {
                rule: "L9",
                file: file.rel.clone(),
                line: t.line,
                message: format!(
                    "bare `{op}` on a packed-state word inside an overflow-policy region"
                ),
                hint: "spell the intent: wrapping_/checked_/saturating_ arithmetic, or suppress with the invariant that rules overflow out",
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::source::SourceFile;

    /// Parses the AST-lite and runs the per-file rules, as the driver does.
    fn check(file: &SourceFile) -> Vec<Violation> {
        check_file(file, &parse(&file.toks))
    }

    fn rules_at(violations: &[Violation]) -> Vec<(&'static str, u32)> {
        violations.iter().map(|v| (v.rule, v.line)).collect()
    }

    #[test]
    fn l2_flags_alloc_tokens_only_in_marked_regions() {
        let src = "fn cold() { let v = vec![1]; }\n\
                   // vecmem-lint: alloc-free\n\
                   fn hot() {\n\
                   let v: Vec<u64> = Vec::new();\n\
                   let s = items.iter().collect();\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f);
        assert_eq!(rules_at(&v), vec![("L2", 4), ("L2", 5)]);
    }

    #[test]
    fn l9_flags_bare_arithmetic_only_in_marked_fns() {
        let src = "fn cold(a: u64, b: u64) -> u64 { a + b }\n\
                   // vecmem-lint: overflow-policy\n\
                   fn pack(word: u64, bank: u64) -> u64 {\n\
                   let hi = word << 8;\n\
                   let lo = word * bank;\n\
                   let ok = word.wrapping_add(bank);\n\
                   let idx = 1 + 2;\n\
                   hi + lo + ok + idx\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f);
        let l9: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "L9")
            .map(|v| v.line)
            .collect();
        // Line 1 unmarked; literal-only `1 + 2` exempt; the three `+` on
        // line 8 plus the shift and the multiply are bare.
        assert_eq!(l9, vec![4, 5, 8, 8, 8]);
    }

    #[test]
    fn l9_compound_assign_counts() {
        let src = "// vecmem-lint: overflow-policy\n\
                   fn bump(total: &mut u64, x: u64) {\n\
                   *total += x;\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f);
        assert!(v.iter().any(|v| v.rule == "L9" && v.line == 3), "{v:?}");
    }
}
