//! The `doc-refs` rule: the code a hand-written doc cites must exist.
//!
//! Inline code spans (outside fenced blocks) of the docs in
//! [`crate::CHECKED_DOCS`] are checked against the tree:
//!
//! - a `<crate>::<module>[::<item>…]` path, bare (`core::system`) or by
//!   package (`stellar_core::system`), must descend through module files
//!   under `crates/<crate>/src`; the first segment that is not a module
//!   must be defined in the last module's file (`fn`, `struct`, `enum`,
//!   `trait`, `type`, `const`, `static`, `mod`, `macro_rules!` or a `use`
//!   re-export), and every segment after it (methods, variants,
//!   associated items) must occur in that module's files;
//! - a `<path>.rs:N` or `<path>.rs:N–M` citation must name a file of the
//!   workspace (matched by path suffix) with at least N (or M) lines.
//!
//! Paths whose first segment is no workspace crate (`std::…`,
//! `crate::…`) are not checked.

use crate::rules::{Finding, Rule};
use std::path::{Path, PathBuf};

/// The workspace tree a doc is checked against.
pub struct Tree {
    root: PathBuf,
    /// Every `.rs` file outside `vendor/`, `target/` and dot-directories,
    /// workspace-relative with `/` separators, with its line count.
    files: Vec<(String, usize)>,
}

impl Tree {
    /// Indexes the workspace rooted at `root`.
    pub fn new(root: &Path) -> std::io::Result<Tree> {
        let mut files = Vec::new();
        collect(root, root, &mut files)?;
        files.sort();
        Ok(Tree {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The `doc-refs` findings of one doc (`rel_path` is recorded on them).
    pub fn check(&self, rel_path: &str, text: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut fenced = false;
        for (idx, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Odd pieces between backticks are code spans.
            for span in line.split('`').skip(1).step_by(2) {
                let problem = match line_ref(span) {
                    Some((file, last)) => self.line_problem(file, last),
                    None => self.path_problem(span),
                };
                if let Some(message) = problem {
                    findings.push(Finding {
                        rule: Rule::DocRefs.name(),
                        path: rel_path.to_string(),
                        line: idx + 1,
                        message: format!("`{span}`: {message}"),
                    });
                }
            }
        }
        findings
    }

    fn line_problem(&self, file: &str, last: usize) -> Option<String> {
        let suffix = format!("/{file}");
        let mut lens = self
            .files
            .iter()
            .filter(|(path, _)| *path == file || path.ends_with(&suffix))
            .map(|(_, lines)| *lines)
            .peekable();
        if lens.peek().is_none() {
            return Some("no such file in the workspace".to_string());
        }
        let longest = lens.max().unwrap_or(0);
        (longest < last).then(|| format!("line {last} is past the end ({longest} lines)"))
    }

    fn path_problem(&self, span: &str) -> Option<String> {
        let path = span.strip_suffix("()").unwrap_or(span);
        let segments: Vec<&str> = path.split("::").collect();
        let well_formed = segments.len() >= 2
            && segments.iter().all(|s| {
                let mut chars = s.chars();
                chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
                    && chars.all(|c| c.is_alphanumeric() || c == '_')
            });
        if !well_formed {
            return None;
        }
        let krate = segments[0].strip_prefix("stellar_").unwrap_or(segments[0]);
        let mut dir = self.root.join("crates").join(krate).join("src");
        let mut file = dir.join("lib.rs");
        if !file.is_file() {
            return None;
        }
        let mut rest = &segments[1..];
        while let Some(seg) = rest.first() {
            let (flat, nested) = (dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs"));
            let Some(found) = [flat, nested].into_iter().find(|f| f.is_file()) else {
                break;
            };
            file = found;
            dir = dir.join(seg);
            rest = &rest[1..];
        }
        let (item, members) = rest.split_first()?;
        let text = std::fs::read_to_string(&file).unwrap_or_default();
        if !defines(&text, item) {
            return Some(format!(
                "`{item}` is neither a module nor defined in {}",
                self.rel(&file)
            ));
        }
        let mut module = vec![text];
        let mut nested = Vec::new();
        if collect(&dir, &dir, &mut nested).is_ok() {
            let read = nested.iter().map(|(f, _)| dir.join(f));
            module.extend(read.filter_map(|f| std::fs::read_to_string(f).ok()));
        }
        members
            .iter()
            .find(|m| !module.iter().any(|text| has_word(text, m)))
            .map(|m| format!("`{m}` occurs nowhere in {}", self.rel(&file)))
    }

    fn rel(&self, file: &Path) -> String {
        let rel = file.strip_prefix(&self.root).unwrap_or(file);
        rel.to_string_lossy().replace('\\', "/")
    }
}

/// `<file>.rs:N`, `<file>.rs:N–M` (en dash or hyphen) or a list
/// `<file>.rs:N/M/…`: the file and the last line cited.
fn line_ref(span: &str) -> Option<(&str, usize)> {
    let (file, lines) = span.split_once(".rs:")?;
    let valid = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '/');
    if file.is_empty() || !file.chars().all(valid) {
        return None;
    }
    let mut last = 0;
    for part in lines.split(['–', '-', '/', ',']) {
        last = last.max(part.parse::<usize>().ok()?);
    }
    Some((&span[..file.len() + 3], last))
}

/// Whether `text` defines `item` at some nesting: a definition keyword
/// before the name, or a `use` that re-exports it.
fn defines(text: &str, item: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    // Inside a `pub use` statement, which may span lines.
    let mut reexport = false;
    text.lines().any(|line| {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '!'))
            .filter(|w| !w.is_empty())
            .collect();
        reexport |= line.trim_start().starts_with("pub use");
        let found = (reexport && words.contains(&item))
            || words
                .windows(2)
                .any(|w| w[1] == item && (KEYWORDS.contains(&w[0]) || w[0] == "macro_rules!"));
        reexport &= !line.contains(';');
        found
    })
}

fn has_word(text: &str, word: &str) -> bool {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == word)
}

/// Every `.rs` file under `dir` (skipping `vendor`, `target` and hidden
/// directories), relative to `base`, with its line count.
fn collect(base: &Path, dir: &Path, out: &mut Vec<(String, usize)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        if path.is_dir() {
            if !(name.starts_with('.') || name == "vendor" || name == "target") {
                collect(base, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let lines = std::fs::read_to_string(&path)?.lines().count();
            let rel = path.strip_prefix(base).unwrap_or(&path);
            out.push((rel.to_string_lossy().replace('\\', "/"), lines));
        }
    }
    Ok(())
}
