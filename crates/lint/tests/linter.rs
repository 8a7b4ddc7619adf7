//! End-to-end tests for the linter. Each rule has one fixture seeding
//! exactly one violation and one validly suppressed occurrence, and the
//! assertions pin the rule id *and* the line, so a tokenizer or region
//! regression that shifts diagnostics fails loudly. The last test lints
//! the real workspace and checks its findings-v1 document.

use std::fs;
use std::path::Path;
use vecmem_lint::graph::{module_path, GraphFile};
use vecmem_lint::json::{parse as parse_json, render_findings, FINDINGS_SCHEMA};
use vecmem_lint::{check_file, lint_workspace, parse, CallGraph, SourceFile, Violation};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path).expect("fixture readable");
    SourceFile::parse(&format!("tests/fixtures/{name}"), &src)
}

/// Mirrors the driver: run the per-file rules, split findings into
/// surviving violations and suppressed counts.
fn lint(file: &SourceFile) -> (Vec<Violation>, u64) {
    let mut surviving = Vec::new();
    let mut suppressed = 0;
    let parsed = parse(&file.toks);
    for v in check_file(file, &parsed) {
        if file.suppression_for(v.rule, v.line).is_some() {
            suppressed += 1;
        } else {
            surviving.push(v);
        }
    }
    (surviving, suppressed)
}

/// Mirrors the driver's graph pass over a single fixture file: build the
/// call graph, run L6/L7, apply suppressions.
fn lint_graph(file: &SourceFile, crate_name: &str) -> (Vec<Violation>, u64) {
    let parsed = parse(&file.toks);
    let input = GraphFile {
        krate: crate_name,
        rel: &file.rel,
        module: module_path(&file.rel),
        source: file,
        parsed: &parsed,
        deps: &[],
    };
    let graph = CallGraph::build(std::slice::from_ref(&input));
    let mut surviving = Vec::new();
    let mut suppressed = 0;
    for v in graph.interprocedural() {
        if file.suppression_for(v.rule, v.line).is_some() {
            suppressed += 1;
        } else {
            surviving.push(v);
        }
    }
    (surviving, suppressed)
}

#[test]
fn l2_fixture_flags_allocation_in_marked_fn() {
    let file = fixture("l2_alloc_free.rs");
    let (violations, suppressed) = lint(&file);
    assert_eq!(suppressed, 1, "the allowed .collect() is silenced");
    assert_eq!(violations.len(), 1, "violations: {violations:?}");
    assert_eq!(violations[0].rule, "L2");
    assert_eq!(violations[0].line, 5, "the vec! literal");
}

#[test]
fn l6_fixture_flags_transitive_allocation_from_hot_root() {
    let file = fixture("l6_transitive_alloc.rs");
    let (violations, suppressed) = lint_graph(&file, "vecmem-simcore");
    assert_eq!(suppressed, 1, "the allowed .to_vec() is silenced");
    assert_eq!(violations.len(), 1, "violations: {violations:?}");
    assert_eq!(violations[0].rule, "L6");
    assert_eq!(violations[0].line, 12, "the vec! in build_scratch");
    assert!(
        violations[0].message.contains("step_like"),
        "the chain names the root: {}",
        violations[0].message
    );
}

#[test]
fn l6_fixture_proves_the_lexical_rule_misses_it() {
    // The same fixture run through the per-file pass only (L6 disabled):
    // no alloc-free marker covers `build_scratch`, so L2 stays silent.
    // Only the call-graph pass above can reach the allocation.
    let file = fixture("l6_transitive_alloc.rs");
    let (violations, suppressed) = lint(&file);
    assert_eq!(violations, Vec::new(), "L2 cannot see the escape");
    assert_eq!(suppressed, 0);
}

#[test]
fn l7_fixture_flags_panic_surfaces_on_the_kernel_cone() {
    let file = fixture("l7_kernel_cone.rs");
    let (violations, suppressed) = lint_graph(&file, "vecmem-simcore");
    assert_eq!(suppressed, 1, "the allowed indexing is silenced");
    let got: Vec<(&str, u32)> = violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        got,
        vec![("L7", 11), ("L7", 12)],
        "the .unwrap() and the `/ d`; violations: {violations:?}"
    );
    assert!(
        violations[0].message.contains("kernel"),
        "the chain names the root: {}",
        violations[0].message
    );
}

#[test]
fn l9_fixture_flags_bare_shift_in_policy_region() {
    let file = fixture("l9_overflow.rs");
    let (violations, suppressed) = lint(&file);
    assert_eq!(suppressed, 1, "the allowed multiply is silenced");
    assert_eq!(violations.len(), 1, "violations: {violations:?}");
    assert_eq!(violations[0].rule, "L9");
    assert_eq!(violations[0].line, 7, "the bare `<<` in pack()");
}

#[test]
fn workspace_is_clean_and_renders_findings_v1() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = lint_workspace(&root).expect("workspace lints");
    let doc = parse_json(&render_findings(&run)).expect("findings document parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(FINDINGS_SCHEMA)
    );
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_arr())
        .expect("findings is an array");
    assert!(
        doc.get("notes").and_then(|v| v.as_arr()).is_some(),
        "notes is an array"
    );
    assert!(
        findings.is_empty(),
        "workspace findings: {:#?}",
        run.violations
    );
}
