//! The five lint rules (plus suppression hygiene), run over a
//! [`SourceFile`] within a [`FileContext`].
//!
//! | id | invariant |
//! |----|-----------|
//! | L0 | every suppression names a known rule and carries a reason |
//! | L1 | determinism: no order-dependent hash-collection iteration in result-producing crates; no wall-clock or thread-identity reads outside obs |
//! | L2 | purity: no allocation tokens inside `vecmem-lint: alloc-free` regions |
//! | L3 | panic policy: no `unwrap`/`expect`/`panic!` in non-test library code |
//! | L4 | feature hygiene: items defined under `#[cfg(feature = "bug_injection")]` are only mentioned under the same gate |
//! | L5 | doc contract: `pub fn … -> Result` documents `# Errors` |
//! | L6 | transitive alloc-free: nothing reachable from a `hot-path` root allocates (see [`graph`](crate::graph)) |
//! | L7 | no-panic cone: nothing reachable from a `hot-path` root can panic (unwrap/expect/panic-family, indexing, `/` by a variable) |
//! | L8 | exhaustive-match policy: no `_` wildcard arms on policed result enums in result crates |
//! | L9 | overflow policy: bare `+`/`*`/`<<` in `overflow-policy` regions must be `wrapping_`/`checked_`/`saturating_` |
//!
//! L6 and L7 are interprocedural and live in [`graph`](crate::graph);
//! this module holds the per-file rules (L0–L5, L8, L9).
//!
//! Every rule can be silenced at one line with
//! `// vecmem-lint: allow(ID) -- reason` (or, for rules whose findings
//! cluster, a whole function body with
//! `// vecmem-lint: allow-fn(ID) -- reason`); rule L0 rejects
//! reason-less or unknown-rule suppressions so the escape hatch stays
//! auditable.

use crate::parse::ParsedFile;
use crate::source::SourceFile;
use crate::tokens::{Tok, TokKind};

/// Crates whose outputs feed figures, tables, caches or the oracle: any
/// order-dependence here can silently change published numbers.
pub const RESULT_CRATES: &[&str] = &[
    "vecmem-analytic",
    "vecmem-simcore",
    "vecmem-banksim",
    "vecmem-exec",
    "vecmem-oracle",
    "vecmem-skew",
    "vecmem-vproc",
];

/// Crates allowed to read wall-clock time and thread identity.
pub const TIME_EXEMPT_CRATES: &[&str] = &["vecmem-obs"];

/// All rule ids, in report order.
pub const ALL_RULES: &[&str] = &["L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"];

/// Enums whose `match`es must stay wildcard-free in result crates (L8):
/// adding a bank model, pattern, injected bug, or outcome variant must
/// force every consumer to handle it, not fall into a `_` arm.
pub const POLICED_ENUMS: &[&str] = &[
    "BankModel",
    "RefBankModel",
    "InjectedBug",
    "PortOutcome",
    "RefOutcome",
    "ConflictKind",
    "AnyPattern",
    "RefPattern",
    "RunOutcome",
    "DiffOutcome",
];

/// One finding: a rule violated at a line of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`L0` … `L5`).
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

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Cargo package name of the crate owning the file.
    pub crate_name: String,
    /// False for binary targets (`src/bin/**`, `src/main.rs`): the panic
    /// policy and doc contract apply to library code only.
    pub is_library: bool,
    /// Feature-gated item names collected crate-wide for L4 (name, feature
    /// the definition is gated on). Empty when the crate declares no
    /// `bug_injection` feature.
    pub gated_items: Vec<(String, String)>,
}

/// Collects names of items *defined* under a `#[cfg(feature = "X")]` gate
/// for the given feature: `fn`/`struct`/`enum`/`trait`/`type`/`const`/
/// `static` definitions and gated struct fields. Used to seed L4 across a
/// crate before linting its files.
#[must_use]
pub fn collect_gated_items(file: &SourceFile, feature: &str) -> Vec<String> {
    let mut names = Vec::new();
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !file.in_feature(feature, t.line) {
            continue;
        }
        let is_def_kw = matches!(
            t.text.as_str(),
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
        );
        if is_def_kw {
            if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                names.push(name.text.clone());
            }
        }
    }
    // Gated struct fields: `#[cfg(feature=…)] name: Type,` — the field name
    // is the first ident on a gated line directly followed by `:` (but not
    // `::`).
    for w in code.windows(3) {
        if w[0].kind == TokKind::Ident
            && file.in_feature(feature, w[0].line)
            && w[1].is_punct(':')
            && !w[2].is_punct(':')
            && w[2].kind == TokKind::Ident
            && !matches!(w[0].text.as_str(), "pub" | "crate")
        {
            // Only take it when the gated span starts on this token's item
            // (heuristic: the span start is within 2 lines above).
            let gated_here = file
                .feature_spans
                .iter()
                .any(|(f, s)| f == feature && s.contains(w[0].line) && w[0].line <= s.start + 2);
            if gated_here && !names.contains(&w[0].text) {
                names.push(w[0].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Runs every applicable per-file rule over one file (the
/// interprocedural L6/L7 run separately on the
/// [call graph](crate::graph)). Suppressions are applied by the caller
/// (the driver), so this returns raw findings.
#[must_use]
pub fn check_file(file: &SourceFile, parsed: &ParsedFile, ctx: &FileContext) -> Vec<Violation> {
    let mut out = Vec::new();
    rule_l0_suppression_hygiene(file, &mut out);
    if RESULT_CRATES.contains(&ctx.crate_name.as_str()) {
        rule_l1_hash_iteration(file, &mut out);
        rule_l8_exhaustive_match(file, parsed, &mut out);
    }
    if !TIME_EXEMPT_CRATES.contains(&ctx.crate_name.as_str()) {
        rule_l1_wall_clock(file, &mut out);
    }
    rule_l2_alloc_free(file, &mut out);
    if ctx.is_library {
        rule_l3_panic_policy(file, &mut out);
        rule_l5_errors_doc(file, &mut out);
    }
    if !ctx.gated_items.is_empty() {
        rule_l4_feature_hygiene(file, ctx, &mut out);
    }
    rule_l9_overflow_policy(file, parsed, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn rule_l0_suppression_hygiene(file: &SourceFile, out: &mut Vec<Violation>) {
    for s in &file.suppressions {
        if s.reason.is_empty() {
            out.push(Violation {
                rule: "L0",
                file: file.rel.clone(),
                line: s.comment_line,
                message: "suppression without a reason".to_string(),
                hint: "append `-- <why this is safe>` to the allow comment",
            });
        }
        for r in &s.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                out.push(Violation {
                    rule: "L0",
                    file: file.rel.clone(),
                    line: s.comment_line,
                    message: format!("suppression names unknown rule `{r}`"),
                    hint: "rule ids are L1 (determinism), L2 (purity), L3 (panic policy), L4 (feature hygiene), L5 (doc contract), L6 (transitive alloc-free), L7 (no-panic cone), L8 (exhaustive match), L9 (overflow policy)",
                });
            }
        }
    }
}

/// Method names whose call on a hash collection observes iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

fn rule_l1_hash_iteration(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    // Pass 1: names bound to HashMap/HashSet (let bindings, fields, params).
    let mut names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back to the start of the enclosing binding/declaration.
        let mut j = i;
        while j > 0 {
            let p = code[j - 1];
            if p.is_punct(';')
                || p.is_punct('{')
                || p.is_punct('}')
                || p.is_punct(',')
                || p.is_punct('(')
                || p.is_punct('|')
            {
                break;
            }
            j -= 1;
        }
        let slice = &code[j..i];
        let name = if let Some(kl) = slice.iter().position(|t| t.is_ident("let")) {
            slice
                .get(kl + 1)
                .filter(|t| t.is_ident("mut"))
                .map_or(slice.get(kl + 1), |_| slice.get(kl + 2))
        } else if slice.len() >= 2 && slice[0].kind == TokKind::Ident && slice[1].is_punct(':') {
            Some(&slice[0])
        } else {
            None
        };
        if let Some(n) = name {
            if n.kind == TokKind::Ident && !names.contains(&n.text) {
                names.push(n.text.clone());
            }
        }
    }
    // Pass 2: iteration over those names.
    for w in code.windows(3) {
        let line = w[0].line;
        if file.in_test(line) {
            continue;
        }
        // name.iter_method(
        if w[0].kind == TokKind::Ident
            && names.contains(&w[0].text)
            && w[1].is_punct('.')
            && w[2].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&w[2].text.as_str())
        {
            out.push(Violation {
                rule: "L1",
                file: file.rel.clone(),
                line: w[2].line,
                message: format!(
                    "iteration over hash collection `{}` (`.{}()`) is order-dependent",
                    w[0].text, w[2].text
                ),
                hint: "hash iteration order varies run to run; use a BTreeMap/sorted Vec, or sort before consuming",
            });
        }
        // for x in [&[mut]] name
        if w[0].is_ident("in") {
            let target = if w[1].is_punct('&') {
                if w[2].is_ident("mut") {
                    None
                } else {
                    Some(&w[2])
                }
            } else {
                Some(&w[1])
            };
            if let Some(t) = target {
                if t.kind == TokKind::Ident && names.contains(&t.text) {
                    out.push(Violation {
                        rule: "L1",
                        file: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`for … in {}` iterates a hash collection in nondeterministic order",
                            t.text
                        ),
                        hint: "hash iteration order varies run to run; use a BTreeMap/sorted Vec, or sort before consuming",
                    });
                }
            }
        }
    }
}

fn rule_l1_wall_clock(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test(t.line) {
            continue;
        }
        match t.text.as_str() {
            "SystemTime" | "Instant" => {
                // Skip the `use std::time::{…}` import itself? No: imports
                // are mentions too — flagging them keeps the rule honest.
                out.push(Violation {
                    rule: "L1",
                    file: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` read outside the obs crate can leak wall-clock nondeterminism into results",
                        t.text
                    ),
                    hint: "move timing into vecmem-obs, or suppress with a reason if the value never reaches a result",
                });
            }
            "thread"
                if code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 3).is_some_and(|a| a.is_ident("current")) =>
            {
                out.push(Violation {
                    rule: "L1",
                    file: file.rel.clone(),
                    line: t.line,
                    message: "`thread::current()` identity is nondeterministic across runs"
                        .to_string(),
                    hint: "key by an explicit worker index instead of the OS thread identity",
                });
            }
            _ => {}
        }
    }
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

fn rule_l3_panic_policy(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test(t.line) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let is_call = i > 0
                    && code[i - 1].is_punct('.')
                    && code.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_call {
                    out.push(Violation {
                        rule: "L3",
                        file: file.rel.clone(),
                        line: t.line,
                        message: format!("`.{}()` in non-test library code", t.text),
                        hint: "propagate a Result with the crate's error type, or suppress with the invariant that rules the panic out",
                    });
                }
            }
            "panic" if code.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                out.push(Violation {
                    rule: "L3",
                    file: file.rel.clone(),
                    line: t.line,
                    message: "`panic!` in non-test library code".to_string(),
                    hint: "propagate a Result with the crate's error type, or suppress with the invariant that rules the panic out",
                });
            }
            _ => {}
        }
    }
}

fn rule_l4_feature_hygiene(file: &SourceFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some((_, feature)) = ctx.gated_items.iter().find(|(name, _)| *name == t.text) else {
            continue;
        };
        if file.in_feature(feature, t.line) {
            continue;
        }
        // A field declaration or definition keyword context inside another
        // gated file was already collected; any mention out here is a leak.
        // Skip attribute contents (`#[cfg(…)]` internals name no items).
        let in_attr = i >= 2 && code[i - 1].is_punct('[') && code[i - 2].is_punct('#');
        if in_attr {
            continue;
        }
        out.push(Violation {
            rule: "L4",
            file: file.rel.clone(),
            line: t.line,
            message: format!(
                "`{}` is defined under `#[cfg(feature = \"{feature}\")]` but mentioned outside that gate",
                t.text
            ),
            hint: "wrap the use in the same #[cfg(feature = …)] gate so the item cannot leak into release builds",
        });
    }
}

fn rule_l5_errors_doc(file: &SourceFile, out: &mut Vec<Violation>) {
    let code_idx: Vec<usize> = (0..file.toks.len())
        .filter(|&i| !file.toks[i].is_comment())
        .collect();
    let toks = &file.toks;
    for (k, &i) in code_idx.iter().enumerate() {
        if !toks[i].is_ident("pub") || file.in_test(toks[i].line) {
            continue;
        }
        // Skip `pub(crate)` / `pub(super)`: not public API.
        if code_idx.get(k + 1).is_some_and(|&j| toks[j].is_punct('(')) {
            continue;
        }
        // Allow qualifiers between `pub` and `fn`.
        let mut kk = k + 1;
        while code_idx.get(kk).is_some_and(|&j| {
            matches!(
                toks[j].text.as_str(),
                "const" | "unsafe" | "async" | "extern"
            ) || toks[j].kind == TokKind::Str
        }) {
            kk += 1;
        }
        let Some(&jfn) = code_idx.get(kk) else {
            continue;
        };
        if !toks[jfn].is_ident("fn") {
            continue;
        }
        let fn_name = code_idx
            .get(kk + 1)
            .map_or("?", |&j| toks[j].text.as_str())
            .to_string();
        // Scan the signature for `-> … Result …` up to the body/semicolon.
        let mut returns_result = false;
        let mut seen_arrow = false;
        let mut paren_depth = 0i32;
        for &j in &code_idx[kk + 1..] {
            let t = &toks[j];
            if t.is_punct('(') {
                paren_depth += 1;
            } else if t.is_punct(')') {
                paren_depth -= 1;
            } else if paren_depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                break;
            } else if paren_depth == 0 && t.is_ident("where") {
                // The where clause can hold `Fn… -> Result` bounds that are
                // not this function's return type.
                break;
            } else if paren_depth == 0 && t.is_punct('-') {
                seen_arrow = true; // half of `->`; good enough lexically
            } else if seen_arrow && t.is_ident("Result") {
                returns_result = true;
                break;
            }
        }
        if !returns_result {
            continue;
        }
        // Gather the doc block above `pub` (walking raw tokens backwards
        // through attributes and doc comments).
        let mut has_errors_section = false;
        let mut saw_docs = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &toks[j];
            match t.kind {
                TokKind::OuterDoc => {
                    saw_docs = true;
                    if t.text.contains("# Errors") {
                        has_errors_section = true;
                        break;
                    }
                }
                // Attributes and their contents sit between docs and fn.
                TokKind::Ident
                | TokKind::Num
                | TokKind::Str
                | TokKind::Char
                | TokKind::Lifetime => {
                    // Part of an attribute like #[must_use]: keep walking
                    // only while we are plausibly inside one (bounded by
                    // `#`). A `}`/`;` means we left the doc/attr block.
                    if toks[j].is_ident("derive") || saw_docs {
                        continue;
                    }
                    continue;
                }
                TokKind::Punct => {
                    let c = &t.text;
                    if c == "}" || c == ";" || c == "{" {
                        break;
                    }
                    continue;
                }
                _ => continue,
            }
        }
        if !has_errors_section {
            out.push(Violation {
                rule: "L5",
                file: file.rel.clone(),
                line: toks[i].line,
                message: format!(
                    "`pub fn {fn_name}` returns Result but its docs have no `# Errors` section"
                ),
                hint: "add a `# Errors` section describing when the function fails",
            });
        }
    }
}

/// L8: in result crates, a `match` whose arm patterns name a policed
/// enum must not have a `_` wildcard arm — adding a variant (a new bank
/// model, pattern, bug, or outcome) must fail to compile everywhere the
/// enum is consumed.
fn rule_l8_exhaustive_match(file: &SourceFile, parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for m in &parsed.matches {
        if file.in_test(m.line) {
            continue;
        }
        let Some(wline) = m.wildcard else { continue };
        let Some((enum_name, _, _)) = m
            .enum_paths
            .iter()
            .find(|(e, _, _)| POLICED_ENUMS.contains(&e.as_str()))
        else {
            continue;
        };
        out.push(Violation {
            rule: "L8",
            file: file.rel.clone(),
            line: wline,
            message: format!(
                "`_` wildcard arm in a match on policed enum `{enum_name}` (match at line {})",
                m.line
            ),
            hint: "enumerate the variants so a new bank model/pattern/outcome forces handling here, or suppress with a reason",
        });
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
    fn check(file: &SourceFile, c: &FileContext) -> Vec<Violation> {
        let parsed = parse(&file.toks);
        check_file(file, &parsed, c)
    }

    fn ctx(crate_name: &str) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            is_library: true,
            gated_items: Vec::new(),
        }
    }

    fn rules_at(violations: &[Violation]) -> Vec<(&'static str, u32)> {
        violations.iter().map(|v| (v.rule, v.line)).collect()
    }

    #[test]
    fn l1_flags_hashmap_iteration_in_result_crate_only() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut seen: HashMap<u64, u64> = HashMap::new();\n\
                   for (k, v) in &seen { work(k, v); }\n\
                   let total: u64 = seen.values().sum();\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-exec"));
        assert_eq!(rules_at(&v), vec![("L1", 4), ("L1", 5)]);
        // Same file in a non-result crate: clean.
        assert!(check(&f, &ctx("vecmem-cli")).is_empty());
    }

    #[test]
    fn l1_flags_wall_clock_outside_obs() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-cli"));
        assert_eq!(rules_at(&v), vec![("L1", 1)]);
        assert!(check(&f, &ctx("vecmem-obs")).is_empty());
        assert_eq!(rules_at(&check(&f, &ctx("vecmem-bench"))), vec![("L1", 1)]);
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
        let v = check(&f, &ctx("vecmem-cli"));
        assert_eq!(rules_at(&v), vec![("L2", 4), ("L2", 5)]);
    }

    #[test]
    fn l3_flags_unwrap_expect_panic_outside_tests() {
        let src = "fn f() {\n\
                   let a = x.unwrap();\n\
                   let b = y.expect(\"must\");\n\
                   panic!(\"boom\");\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { z.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-core"));
        assert_eq!(rules_at(&v), vec![("L3", 2), ("L3", 3), ("L3", 4)]);
    }

    #[test]
    fn l3_skips_binaries() {
        let f = SourceFile::parse("x.rs", "fn main() { x.unwrap(); }\n");
        let c = FileContext {
            is_library: false,
            ..ctx("vecmem-cli")
        };
        assert!(check(&f, &c).is_empty());
    }

    #[test]
    fn l4_flags_ungated_mention_of_gated_item() {
        let def_src = "#[cfg(feature = \"bug_injection\")]\npub enum InjectedBug { A }\n";
        let def = SourceFile::parse("def.rs", def_src);
        let items = collect_gated_items(&def, "bug_injection");
        assert!(items.contains(&"InjectedBug".to_string()));

        let use_src = "fn f(b: InjectedBug) {}\n\
                       #[cfg(feature = \"bug_injection\")]\n\
                       fn g(b: InjectedBug) {}\n";
        let f = SourceFile::parse("use.rs", use_src);
        let c = FileContext {
            gated_items: items
                .into_iter()
                .map(|n| (n, "bug_injection".to_string()))
                .collect(),
            ..ctx("vecmem-oracle")
        };
        let v = check(&f, &c);
        assert_eq!(rules_at(&v), vec![("L4", 1)]);
    }

    #[test]
    fn l5_requires_errors_section_on_pub_result_fn() {
        let src = "/// Parses.\npub fn parse(s: &str) -> Result<u64, Error> { body() }\n\
                   /// Parses.\n/// # Errors\n/// When bad.\npub fn ok(s: &str) -> Result<u64, Error> { body() }\n\
                   pub(crate) fn internal() -> Result<(), Error> { body() }\n\
                   pub fn plain() -> u64 { 0 }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-core"));
        assert_eq!(rules_at(&v), vec![("L5", 2)]);
    }

    #[test]
    fn l5_ignores_result_bounds_in_where_clause() {
        let src =
            "/// Runs.\npub fn run<F>(f: F)\nwhere\n    F: FnMut() -> Result<(), E>,\n{ body() }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(check(&f, &ctx("vecmem-core")).is_empty());
    }

    #[test]
    fn l0_flags_reasonless_and_unknown_suppressions() {
        let src = "fn f() { x.unwrap(); } // vecmem-lint: allow(L3)\n\
                   fn g() { y.unwrap(); } // vecmem-lint: allow(LX) -- what\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-core"));
        let l0: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "L0")
            .map(|v| v.line)
            .collect();
        assert_eq!(l0, vec![1, 2]);
    }

    #[test]
    fn l8_flags_wildcard_on_policed_enum_in_result_crates_only() {
        let src = "fn f(m: BankModel) -> u64 {\n\
                   match m {\n\
                   BankModel::Uniform => 0,\n\
                   _ => 1,\n\
                   }\n\
                   }\n\
                   fn g(o: Option<u64>) -> u64 {\n\
                   match o {\n\
                   Some(x) => x,\n\
                   _ => 0,\n\
                   }\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        let v = check(&f, &ctx("vecmem-simcore"));
        let l8: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == "L8")
            .map(|v| v.line)
            .collect();
        // Only the BankModel wildcard; Option is not policed.
        assert_eq!(l8, vec![4]);
        // Non-result crates are exempt.
        assert!(check(&f, &ctx("vecmem-cli")).iter().all(|v| v.rule != "L8"));
    }

    #[test]
    fn l8_exhaustive_match_is_clean() {
        let src = "fn f(m: BankModel) -> u64 {\n\
                   match m {\n\
                   BankModel::Uniform => 0,\n\
                   BankModel::Dram { hit_cycle, .. } => hit_cycle,\n\
                   }\n\
                   }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(check(&f, &ctx("vecmem-simcore"))
            .iter()
            .all(|v| v.rule != "L8"));
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
        let v = check(&f, &ctx("vecmem-simcore"));
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
        let v = check(&f, &ctx("vecmem-simcore"));
        assert!(v.iter().any(|v| v.rule == "L9" && v.line == 3), "{v:?}");
    }
}
