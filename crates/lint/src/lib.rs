//! # stellar-lint
//!
//! The workspace invariant linter: repo-wide correctness conventions as
//! machine-checked rules instead of review-time folklore.
//!
//! Stellar's CI proves determinism *dynamically* — `scripts/check.sh`
//! byte-diffs metrics snapshots across repeated runs — which catches a
//! nondeterministic change only after it has corrupted an artifact. This
//! tool moves the gate to the source: a lightweight token/line scanner
//! (no rustc, no dependencies, fully offline) enforces five rules:
//!
//! - [`rules::Rule::Nondeterminism`] — wall-clock and entropy APIs
//!   (`SystemTime`, `Instant::now`, `thread_rng`, …) are banned in the
//!   deterministic crates (sim, core, dataplane, obs, classify, bgp):
//!   everything there is clocked off simulation time and seeded RNG.
//! - [`rules::Rule::HashIter`] — iteration over `HashMap`/`HashSet` is
//!   flagged unless visibly order-neutralized (sorted, collected into a
//!   BTree, or reduced order-insensitively): snapshot paths must not
//!   depend on hash iteration order.
//! - [`rules::Rule::NoUnwrap`] — `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` in non-test code is a budgeted liability: every site
//!   must be covered by a justified entry in `lint-allow.toml`, making
//!   the panic surface a visible, monotonically shrinking number.
//! - [`rules::Rule::EnvVar`] — `env::var` reads anywhere but the knob
//!   registry ([`KNOB_REGISTRY`]): no library crate and no driver may
//!   fork on an environment variable the registry does not validate.
//!   This rule alone also walks the driver trees ([`DRIVER_TREES`]).
//! - [`rules::Rule::DocRefs`] — every `crate::module::item` path and
//!   `file.rs:N` line citation in the hand-written docs
//!   ([`CHECKED_DOCS`]) resolves against the tree ([`docs`]), so a PR
//!   that moves code cannot leave the docs pointing at nothing.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions, `tests/`
//! trees) is exempt from all rules. The allowlist
//! ([`allow`]) carries per-(rule, file) budgets with justifications;
//! budgets larger than the current count are reported as stale so they
//! ratchet down. [`report`] renders human diagnostics with `file:line`
//! plus a machine-readable JSON report.

#![forbid(unsafe_code)]

pub mod allow;
pub mod docs;
pub mod report;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

/// The crates the linter walks (`crates/<name>/src/**`). The lint crate
/// itself and the bench harness are excluded: neither is part of the
/// deterministic system under test (the `env-var` rule alone walks the
/// harness, see [`DRIVER_TREES`]).
pub const SCANNED_CRATES: &[&str] = &[
    "net",
    "bgp",
    "routeserver",
    "dataplane",
    "sim",
    "stats",
    "core",
    "classify",
    "obs",
];

/// Trees above the scanned crates that only the `env-var` rule walks:
/// the drivers, which read their knobs through the registry.
pub const DRIVER_TREES: &[&str] = &["crates/bench/src", "examples"];

/// The one file that may read the process environment: `stellar-bench`'s
/// knob registry.
pub const KNOB_REGISTRY: &str = "crates/bench/src/knobs.rs";

/// The docs whose code citations the `doc-refs` rule checks. The
/// roadmap, changelog and experiment log are forward-looking or
/// historical and cite code that is gone or not yet written.
pub const CHECKED_DOCS: &[&str] = &["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// Crates whose non-test code must be deterministic: clocked off
/// simulation time, randomness always seeded.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "core",
    "dataplane",
    "obs",
    "classify",
    "bgp",
    "routeserver",
];

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root` — the scanned crates, the
/// driver trees and the checked docs — and returns raw findings
/// (allowlist not yet applied), sorted by (path, line, rule).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<rules::Finding>> {
    let mut findings = Vec::new();
    let crate_trees = SCANNED_CRATES
        .iter()
        .map(|krate| (root.join("crates").join(krate).join("src"), Some(*krate)));
    let driver_trees = DRIVER_TREES.iter().map(|tree| (root.join(tree), None));
    for (dir, krate) in crate_trees.chain(driver_trees) {
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&dir, &mut files)?;
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            findings.extend(match krate {
                Some(krate) => rules::check_file(&rel, krate, &text),
                None => rules::check_env(&rel, &text),
            });
        }
    }
    let tree = docs::Tree::new(root)?;
    for doc in CHECKED_DOCS {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            findings.extend(tree.check(doc, &text));
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}
