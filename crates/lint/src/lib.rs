//! `vecmem-lint`: the workspace invariant linter for the rules clippy and
//! rustc cannot express.
//!
//! The simulator's speed and correctness rest on conventions that
//! ordinary compilation never checks: the step kernel must stay
//! allocation-free and panic-free, and packed-state arithmetic must spell
//! out its overflow intent. Those rules are about *marked regions* and
//! *what a marked function can reach*, so they need a whole-workspace view
//! no per-crate lint has. This crate checks them (see [`rules`]) over a
//! [lightweight Rust tokenizer](tokens), an [AST-lite parser](mod@parse) and
//! a [workspace call graph](graph) — no `syn`, no external dependencies,
//! in keeping with the workspace's std-only policy. The per-file rules
//! (L2 purity, L9 overflow policy) scan marked regions; the
//! interprocedural rules (L6/L7 transitive alloc-free and no-panic over
//! marked hot-path cones) consume the parse and the graph. [`json`]
//! renders findings as the versioned `vecmem-lint/findings-v1` document.
//!
//! Determinism, the library panic policy, exhaustive matches, feature
//! hygiene and `# Errors` docs are clippy and rustc lints, configured in
//! the root `Cargo.toml`, `crates/clippy.toml` and each library crate's
//! `lib.rs`.
//!
//! * **Suppressions** are inline and audited:
//!   `// vecmem-lint: allow(L7) -- reason`. One without a reason
//!   silences nothing.
//! * **Markers** opt regions into the rules:
//!   `//! vecmem-lint: alloc-free` (whole module) or
//!   `// vecmem-lint: alloc-free` directly above a `fn`; likewise
//!   `hot-path` (a cone root for L6/L7) and `overflow-policy` (L9).
//!
//! The `vecmem-lint` binary (`src/main.rs`) drives [`workspace`] over the
//! repository; `scripts/check.sh` runs it as a gate that fails on any
//! finding.

// Panic policy for non-test library code; bins and integration tests are
// separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod graph;
pub mod json;
pub mod parse;
pub mod rules;
pub mod source;
pub mod tokens;
pub mod workspace;

pub use graph::{CallGraph, FnNode};
pub use parse::{parse, ParsedFile};
pub use rules::{check_file, Violation};
pub use source::SourceFile;
pub use workspace::{discover_crates, lint_workspace, LintRun};
