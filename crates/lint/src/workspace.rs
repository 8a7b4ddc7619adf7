//! Workspace discovery and the lint driver: find the crates, load their
//! files, run the rules, apply suppressions.

use crate::graph::{module_path, CallGraph, GraphFile};
use crate::parse::{parse, ParsedFile};
use crate::rules::{check_file, Violation};
use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One discovered Cargo package.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Crate directory relative to the workspace root.
    pub rel_dir: String,
    /// Direct workspace (`vecmem-*`) dependencies, for call-graph edge
    /// filtering.
    pub deps: Vec<String>,
}

/// Everything one lint run produced.
#[derive(Debug)]
pub struct LintRun {
    /// Violations not silenced by an inline suppression, in (file, line,
    /// rule) order.
    pub violations: Vec<Violation>,
    /// Count of violations silenced by suppressions.
    pub suppressed: u64,
    /// Files linted.
    pub files: u64,
    /// Call-graph resolution notes on the hot-path cone (trait-dispatch
    /// fan-outs, ambiguous calls, function-pointer edges): the logged
    /// over-approximations behind the L6/L7 findings.
    pub notes: Vec<String>,
}

/// Discovers workspace member crates (`crates/*` plus the root package).
///
/// # Errors
/// Propagates an IO failure reading a crate manifest as a rendered
/// message; crates without a parsable `name` are skipped silently.
pub fn discover_crates(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let mut crates = Vec::new();
    if let Some(info) = read_crate(root, root)? {
        crates.push(info);
    }
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        if let Some(info) = read_crate(root, &dir)? {
            crates.push(info);
        }
    }
    Ok(crates)
}

/// Reads one crate's manifest; `None` when the directory has no
/// `Cargo.toml`.
fn read_crate(root: &Path, dir: &Path) -> Result<Option<CrateInfo>, String> {
    let manifest = dir.join("Cargo.toml");
    if !manifest.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut name = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let v = value.trim().trim_matches('"');
                name = Some(v.to_string());
                break;
            }
        }
    }
    let Some(name) = name else { return Ok(None) };
    let rel_dir = dir
        .strip_prefix(root)
        .map_or(String::new(), |p| p.to_string_lossy().replace('\\', "/"));
    // Workspace dependencies: `vecmem-x = { path = … }` lines in any
    // dependency section (dev-dependencies included — they only matter
    // for test code, which the graph skips anyway, but keeping them
    // costs nothing).
    let deps = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("vecmem-") && l.contains('='))
        .filter_map(|l| l.split('=').next())
        .map(|n| n.trim().to_string())
        .filter(|n| *n != name)
        .collect();
    Ok(Some(CrateInfo {
        name,
        rel_dir,
        deps,
    }))
}

/// All `.rs` files under the crate's `src/`, sorted for deterministic
/// output.
fn crate_sources(root: &Path, krate: &CrateInfo) -> Vec<PathBuf> {
    let src = if krate.rel_dir.is_empty() {
        root.join("src")
    } else {
        root.join(&krate.rel_dir).join("src")
    };
    let mut files = Vec::new();
    collect_rs(&src, &mut files);
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// One fully loaded source file, ready for rules and graph building.
struct LoadedFile {
    krate: usize,
    rel: String,
    source: SourceFile,
    parsed: ParsedFile,
}

/// Lints the whole workspace rooted at `root`: the per-file rules (L2,
/// L9) plus the interprocedural L6/L7 over the workspace call graph.
///
/// # Errors
/// Returns a rendered message when the workspace layout or a source file
/// cannot be read.
pub fn lint_workspace(root: &Path) -> Result<LintRun, String> {
    let crates = discover_crates(root)?;
    let mut violations = Vec::new();
    let mut suppressed = 0u64;

    // Pass 1: load and parse every file.
    let mut loaded: Vec<LoadedFile> = Vec::new();
    for (ki, krate) in crates.iter().enumerate() {
        for path in crate_sources(root, krate) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let source = SourceFile::parse(&rel, &text);
            let parsed = parse(&source.toks);
            loaded.push(LoadedFile {
                krate: ki,
                rel,
                source,
                parsed,
            });
        }
    }

    // Pass 2: per-file rules.
    for f in &loaded {
        for v in check_file(&f.source, &f.parsed) {
            if f.source.suppression_for(v.rule, v.line).is_some() {
                suppressed += 1;
            } else {
                violations.push(v);
            }
        }
    }

    // Pass 3: the call graph and the interprocedural rules. Suppressions
    // apply at the violating line's own file, exactly like per-file
    // rules (so one `allow(L2, L6)` covers both findings on a line).
    let inputs: Vec<GraphFile<'_>> = loaded
        .iter()
        .map(|f| GraphFile {
            krate: &crates[f.krate].name,
            rel: &f.rel,
            module: module_path(&f.rel),
            source: &f.source,
            parsed: &f.parsed,
            deps: &crates[f.krate].deps,
        })
        .collect();
    let graph = CallGraph::build(&inputs);
    for v in graph.interprocedural() {
        let file = loaded.iter().find(|f| f.rel == v.file);
        if file.is_some_and(|f| f.source.suppression_for(v.rule, v.line).is_some()) {
            suppressed += 1;
        } else {
            violations.push(v);
        }
    }
    let notes = graph.cone_notes();

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintRun {
        violations,
        suppressed,
        files: loaded.len() as u64,
        notes,
    })
}
