//! The rule catalog and per-file checker.

use crate::scan::{strip, SourceLine};
use crate::{DETERMINISTIC_CRATES, KNOB_REGISTRY};

/// A lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock / entropy APIs in deterministic crates.
    Nondeterminism,
    /// `HashMap`/`HashSet` iteration without visible order
    /// neutralization.
    HashIter,
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` in non-test
    /// code.
    NoUnwrap,
    /// `std::env::var` reads outside the knob registry
    /// ([`KNOB_REGISTRY`]): runtime behavior must not fork on an
    /// unregistered environment knob.
    EnvVar,
    /// A code citation in a checked doc (`crate::module::item`,
    /// `file.rs:N`) that does not resolve against the tree (see
    /// [`crate::docs`]).
    DocRefs,
}

impl Rule {
    /// Stable rule name, used in diagnostics and `lint-allow.toml`.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Nondeterminism => "nondeterminism",
            Rule::HashIter => "hash-iter",
            Rule::NoUnwrap => "no-unwrap",
            Rule::EnvVar => "env-var",
            Rule::DocRefs => "doc-refs",
        }
    }

    /// Parses a rule name.
    pub fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "nondeterminism" => Rule::Nondeterminism,
            "hash-iter" => Rule::HashIter,
            "no-unwrap" => Rule::NoUnwrap,
            "env-var" => Rule::EnvVar,
            "doc-refs" => Rule::DocRefs,
            _ => return None,
        })
    }

    /// Every rule, for iteration.
    pub fn all() -> [Rule; 5] {
        [
            Rule::Nondeterminism,
            Rule::HashIter,
            Rule::NoUnwrap,
            Rule::EnvVar,
            Rule::DocRefs,
        ]
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule's name.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
}

/// Wall-clock / entropy tokens banned in deterministic crates. `Instant`
/// alone is allowed (it appears in type positions of timing helpers);
/// the constructors are what inject nondeterminism.
const NONDET_PATTERNS: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock time"),
    ("Instant::now", "wall-clock time"),
    ("thread_rng", "unseeded RNG"),
    ("from_entropy", "unseeded RNG"),
    ("rand::random", "unseeded RNG"),
    ("RandomState", "randomized hasher state"),
];

/// Panic-family tokens budgeted by the allowlist.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Substrings that mark a hash iteration as order-neutralized when they
/// appear within [`NEUTRALIZER_WINDOW`] lines after it: an explicit
/// sort, a BTree re-collection, or an order-insensitive reduction.
const NEUTRALIZERS: &[&str] = &[
    "sort",
    "BTree",
    ".count()",
    ".len()",
    ".sum",
    ".fold(",
    ".min(",
    ".max(",
    ".any(",
    ".all(",
    "retain",
    ".contains",
    "is_empty",
];

/// How many lines after an iteration site a neutralizer may appear.
/// Iteration whose consumer sorts (or reduces) further away than this
/// needs an allowlist entry with a justification.
pub const NEUTRALIZER_WINDOW: usize = 3;

/// Checks one file. `krate` is the crate name (decides which rules
/// apply); `rel_path` is recorded on findings.
pub fn check_file(rel_path: &str, krate: &str, text: &str) -> Vec<Finding> {
    let lines = strip(text);
    let det = DETERMINISTIC_CRATES.contains(&krate);
    let hash_idents = collect_hash_idents(&lines);
    let mut findings = env_reads(rel_path, &lines);
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if det {
            for (pat, why) in NONDET_PATTERNS {
                if line.code.contains(pat) {
                    findings.push(Finding {
                        rule: Rule::Nondeterminism.name(),
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!("{pat} ({why}) in deterministic crate `{krate}`"),
                    });
                }
            }
        }
        for pat in PANIC_PATTERNS {
            for _ in line.code.matches(pat) {
                findings.push(Finding {
                    rule: Rule::NoUnwrap.name(),
                    path: rel_path.to_string(),
                    line: line.number,
                    message: format!("`{}` in non-test code", pat.trim_start_matches('.')),
                });
            }
        }
        for ident in &hash_idents {
            if let Some(what) = iteration_of(&line.code, ident) {
                let neutralized = lines[idx..]
                    .iter()
                    .take(NEUTRALIZER_WINDOW + 1)
                    .any(|l| NEUTRALIZERS.iter().any(|n| l.code.contains(n)));
                if !neutralized {
                    findings.push(Finding {
                        rule: Rule::HashIter.name(),
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!(
                            "{what} over hash collection `{ident}` without visible \
                             sort/BTree/reduction within {NEUTRALIZER_WINDOW} lines"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// The `env-var` rule alone, for the driver trees above the scanned
/// crates ([`crate::DRIVER_TREES`]).
pub fn check_env(rel_path: &str, text: &str) -> Vec<Finding> {
    env_reads(rel_path, &strip(text))
}

/// Every non-test `env::var` read, unless `rel_path` is the knob
/// registry.
fn env_reads(rel_path: &str, lines: &[SourceLine]) -> Vec<Finding> {
    if rel_path == KNOB_REGISTRY {
        return Vec::new();
    }
    lines
        .iter()
        .filter(|line| !line.in_test && line.code.contains("env::var"))
        .map(|line| Finding {
            rule: Rule::EnvVar.name(),
            path: rel_path.to_string(),
            line: line.number,
            message: format!(
                "`env::var` outside the knob registry — register the knob in \
                 `{KNOB_REGISTRY}` and pass its value in"
            ),
        })
        .collect()
}

/// Identifiers declared as a hash collection anywhere in the file
/// (bindings, struct fields, fn params): `HashMap`, `HashSet`, or the
/// `MacMap` alias over a `HashMap`. Sorted and deduplicated.
fn collect_hash_idents(lines: &[SourceLine]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for pat in ["HashMap", "HashSet", "MacMap"] {
            for (pos, _) in code.match_indices(pat) {
                if let Some(ident) = declared_ident_before(code, pos) {
                    idents.push(ident);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Walks backwards from a `HashMap`/`HashSet` occurrence over `: & mut`
/// or `=` to the declared identifier, if the occurrence is a
/// declaration-like position.
fn declared_ident_before(code: &str, pos: usize) -> Option<String> {
    let before = &code[..pos];
    let trimmed = before.trim_end();
    // Accept `name: HashMap<…>`, `name: &HashMap<…>`, `name = HashMap::…`.
    let trimmed = trimmed
        .strip_suffix('&')
        .map(str::trim_end)
        .unwrap_or(trimmed);
    let trimmed = trimmed
        .strip_suffix("mut")
        .map(str::trim_end)
        .unwrap_or(trimmed);
    let rest = trimmed
        .strip_suffix(':')
        .or_else(|| trimmed.strip_suffix('='))
        .map(str::trim_end)?;
    let rest = rest.strip_suffix("mut").map(str::trim_end).unwrap_or(rest);
    let ident: String = rest
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_numeric())).then_some(ident)
}

/// Whether `code` iterates `ident` (as a hash collection): method-based
/// (`.iter()`, `.keys()`, …, through any field path like `self.m.keys()`)
/// or as the tail of a `for … in` expression.
fn iteration_of(code: &str, ident: &str) -> Option<&'static str> {
    const METHODS: &[(&str, &str)] = &[
        (".iter()", "iteration"),
        (".iter_mut()", "iteration"),
        (".keys()", "key iteration"),
        (".values()", "value iteration"),
        (".values_mut()", "value iteration"),
        (".into_iter()", "iteration"),
        (".into_values()", "value iteration"),
        (".into_keys()", "key iteration"),
        (".drain(", "draining iteration"),
    ];
    for (m, what) in METHODS {
        let needle = format!("{ident}{m}");
        let mut start = 0;
        while let Some(off) = code[start..].find(&needle) {
            let pos = start + off;
            if !is_ident_tail(code, pos) {
                return Some(what);
            }
            start = pos + 1;
        }
    }
    // `for … in <expr> {` where the expression ends with the ident
    // (through `&`, `&mut` or a field path — but not a method call,
    // which the loop above already classified).
    if let Some(pos) = code.find(" in ") {
        let expr = code[pos + 4..].trim_end();
        let expr = expr.strip_suffix('{').map(str::trim_end).unwrap_or(expr);
        if !expr.contains('(')
            && expr.ends_with(ident)
            && !is_ident_tail(expr, expr.len() - ident.len())
        {
            return Some("for-loop iteration");
        }
    }
    None
}

/// True when the match at `pos` continues a longer identifier (e.g.
/// `my_map.iter()` matching ident `map`). A preceding `.` is a field
/// access and does not count.
fn is_ident_tail(code: &str, pos: usize) -> bool {
    pos > 0
        && code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nondet_fires_only_in_det_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(check_file("x.rs", "sim", src).len(), 1);
        assert!(check_file("x.rs", "stats", src).is_empty());
    }

    #[test]
    fn panic_family_is_counted_per_site() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); y.expect(\"m\"); }\n";
        // `.unwrap()` with parens only: bare `x.unwrap();` has them.
        let f = check_file("x.rs", "net", src);
        assert_eq!(f.iter().filter(|f| f.rule == "no-unwrap").count(), 2);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(check_file("x.rs", "net", src).is_empty());
    }

    #[test]
    fn hash_iteration_without_sort_fires() {
        let src = "\
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, _) in &s.m {
        out.push(*k);
    }
    out
}
";
        let f = check_file("x.rs", "net", src);
        assert_eq!(f.iter().filter(|f| f.rule == "hash-iter").count(), 1);
    }

    #[test]
    fn mac_map_iteration_without_sort_fires() {
        let src = "\
struct Fabric { mac_slot: MacMap<(u16, u32)> }
fn pops(f: &Fabric) -> Vec<u16> {
    f.mac_slot.values().map(|&(p, _)| p).collect()
}
";
        let f = check_file("x.rs", "sim", src);
        assert_eq!(f.iter().filter(|f| f.rule == "hash-iter").count(), 1);
    }

    #[test]
    fn sorted_hash_iteration_is_clean() {
        let src = "\
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> Vec<u32> {
    let mut out: Vec<u32> = s.m.keys().copied().collect();
    out.sort_unstable();
    out
}
";
        assert!(check_file("x.rs", "net", src).is_empty());
    }

    #[test]
    fn env_var_outside_from_env_fires() {
        let src = "\
pub fn tick_budget() -> u64 {
    std::env::var(\"STELLAR_BUDGET\").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}
";
        let f = check_file("x.rs", "core", src);
        assert_eq!(f.iter().filter(|f| f.rule == "env-var").count(), 1);
    }

    #[test]
    fn env_var_inside_from_env_reader_fires() {
        let src = "\
pub fn pops_from_env() -> usize {
    std::env::var(\"STELLAR_POPS\").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}
impl Tuning {
    pub fn from_env() -> Self {
        let raw = std::env::var(\"STELLAR_RETRIES\");
        Tuning { raw }
    }
}
";
        let f = check_file("x.rs", "core", src);
        assert_eq!(f.iter().filter(|f| f.rule == "env-var").count(), 2);
    }

    #[test]
    fn env_var_in_the_knob_registry_is_clean() {
        let src = "pub fn from_env() -> Option<String> { std::env::var(\"STELLAR_POPS\").ok() }\n";
        assert!(check_file(KNOB_REGISTRY, "bench", src).is_empty());
        assert_eq!(check_env(KNOB_REGISTRY, src).len(), 0);
        assert_eq!(check_env("examples/x.rs", src).len(), 1);
    }

    #[test]
    fn env_var_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { std::env::var(\"X\").ok(); }\n}\n";
        let f = check_file("x.rs", "core", src);
        assert_eq!(f.iter().filter(|f| f.rule == "env-var").count(), 0);
    }

    #[test]
    fn declared_ident_extraction() {
        let lines = strip("let mut paths: HashMap<u32, u32> = HashMap::new();\nfoo: &HashMap<A, B>,\nbar = HashSet::new();\nmac_slot: MacMap<u32>,\nm = MacMap::default();\n");
        let idents = collect_hash_idents(&lines);
        assert_eq!(idents, vec!["bar", "foo", "m", "mac_slot", "paths"]);
    }
}
