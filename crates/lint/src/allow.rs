//! The allowlist: `lint-allow.toml` at the workspace root.
//!
//! Each entry budgets a (rule, file) pair with a justification:
//!
//! ```toml
//! [[allow]]
//! rule = "no-unwrap"
//! path = "crates/core/src/controller.rs"
//! count = 3
//! justification = "invariant-backed map lookups; see burn-down note"
//! ```
//!
//! Application is a ratchet: findings up to `count` are suppressed,
//! findings beyond it are violations, and a `count` larger than the
//! current number of findings is reported as *stale* so the budget
//! shrinks with the code. Entries for (rule, file) pairs with zero
//! findings are stale in full.
//!
//! The parser handles exactly this TOML subset (`[[allow]]` tables with
//! string/integer scalar keys) — no dependency needed, and the format
//! stays trivially diffable.

use crate::rules::{Finding, Rule};

/// Hard ceiling on the total `no-unwrap` budget the allowlist may
/// grant, enforced by the CLI. A ratchet, not a target: lower it as
/// the debt burns down, never raise it. History: 150 at introduction
/// (58 live sites), 80 after the verify PR's ratchet (50 live sites),
/// 40 — the budget itself — once the hash classifier engine went, 37
/// when the route server's `handle_update` bound its peer once, 33 when
/// the legacy tick path went and the edge router bound its ports once.
pub const MAX_NO_UNWRAP_BUDGET: usize = 33;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name this budget applies to.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// How many findings of `rule` in `path` are tolerated.
    pub count: usize,
    /// Why these sites are acceptable (required, non-empty).
    pub justification: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: usize,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A malformed allowlist file.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parses the `lint-allow.toml` subset.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<AllowEntry> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                // A '#' outside a string starts a comment; inside the
                // values we use there are no '#'s, so only guard quoted
                // occurrences.
                Some(pos)
                    if !raw[..pos].contains('"') || raw[..pos].matches('"').count() % 2 == 0 =>
                {
                    &raw[..pos]
                }
                _ => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    finish(e, &mut entries)?;
                }
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    count: 0,
                    justification: String::new(),
                    line: line_no,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: line_no,
                    message: format!("expected `key = value` or `[[allow]]`, got `{line}`"),
                });
            };
            let Some(entry) = current.as_mut() else {
                return Err(ParseError {
                    line: line_no,
                    message: "key outside any [[allow]] table".to_string(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.rule = unquote(value, line_no)?,
                "path" => entry.path = unquote(value, line_no)?,
                "justification" => entry.justification = unquote(value, line_no)?,
                "count" => {
                    entry.count = value.parse().map_err(|_| ParseError {
                        line: line_no,
                        message: format!("count must be a non-negative integer, got `{value}`"),
                    })?
                }
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("unknown key `{other}`"),
                    })
                }
            }
        }
        if let Some(e) = current.take() {
            finish(e, &mut entries)?;
        }
        Ok(Allowlist { entries })
    }

    /// Total budgeted sites across all entries.
    pub fn total_budget(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Total budget for one rule across all entries.
    pub fn rule_budget(&self, rule: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.rule == rule)
            .map(|e| e.count)
            .sum()
    }

    /// Budget for a (rule, path) pair: the sum over matching entries.
    fn budget(&self, rule: &str, path: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.rule == rule && e.path == path)
            .map(|e| e.count)
            .sum()
    }
}

fn finish(e: AllowEntry, entries: &mut Vec<AllowEntry>) -> Result<(), ParseError> {
    for (field, value) in [("rule", &e.rule), ("path", &e.path)] {
        if value.is_empty() {
            return Err(ParseError {
                line: e.line,
                message: format!("[[allow]] entry is missing `{field}`"),
            });
        }
    }
    if Rule::from_name(&e.rule).is_none() {
        return Err(ParseError {
            line: e.line,
            message: format!("unknown rule `{}`", e.rule),
        });
    }
    if e.justification.trim().is_empty() {
        return Err(ParseError {
            line: e.line,
            message: "every [[allow]] entry needs a non-empty justification".to_string(),
        });
    }
    entries.push(e);
    Ok(())
}

fn unquote(value: &str, line: usize) -> Result<String, ParseError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })
}

/// A budget whose count exceeds the current findings: it must shrink.
#[derive(Debug, Clone)]
pub struct StaleBudget {
    /// The over-provisioned entry's rule.
    pub rule: String,
    /// The entry's path.
    pub path: String,
    /// The budgeted count.
    pub budget: usize,
    /// Findings actually present.
    pub actual: usize,
}

/// The outcome of applying the allowlist to raw findings.
#[derive(Debug, Default)]
pub struct Applied {
    /// Findings not covered by any budget: these fail the build.
    pub violations: Vec<Finding>,
    /// Findings absorbed by budgets.
    pub suppressed: Vec<Finding>,
    /// Budgets larger than the current count (ratchet reminders).
    pub stale: Vec<StaleBudget>,
}

/// Applies the allowlist: per (rule, path), the first `budget` findings
/// (already in line order) are suppressed, the rest are violations.
pub fn apply(findings: Vec<Finding>, allow: &Allowlist) -> Applied {
    let mut applied = Applied::default();
    // Findings arrive sorted by (path, line, rule); group by (rule, path).
    let mut used: Vec<((String, String), usize)> = Vec::new();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone());
        let slot = match used.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => n,
            None => {
                used.push((key.clone(), 0));
                &mut used.last_mut().expect("just pushed").1
            }
        };
        *slot += 1;
        if *slot <= allow.budget(&key.0, &key.1) {
            applied.suppressed.push(f);
        } else {
            applied.violations.push(f);
        }
    }
    for e in &allow.entries {
        let budget = allow.budget(&e.rule, &e.path);
        let actual = used
            .iter()
            .find(|((r, p), _)| *r == e.rule && *p == e.path)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if budget > actual {
            let already = applied
                .stale
                .iter()
                .any(|s| s.rule == e.rule && s.path == e.path);
            if !already {
                applied.stale.push(StaleBudget {
                    rule: e.rule.clone(),
                    path: e.path.clone(),
                    budget,
                    actual,
                });
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn parses_entries_and_comments() {
        let text = "\
# panic budget
[[allow]]
rule = \"no-unwrap\"
path = \"crates/core/src/controller.rs\"
count = 3
justification = \"invariant-backed lookups\"

[[allow]]
rule = \"nondeterminism\"
path = \"crates/sim/src/engine.rs\"
count = 1  # bench timing only
justification = \"host-time bench helper, not in the sim loop\"
";
        let allow = Allowlist::parse(text).unwrap();
        assert_eq!(allow.entries.len(), 2);
        assert_eq!(allow.entries[0].count, 3);
        assert_eq!(allow.entries[1].rule, "nondeterminism");
        assert_eq!(allow.total_budget(), 4);
        assert_eq!(allow.rule_budget("no-unwrap"), 3);
        assert_eq!(allow.rule_budget("hash-iter"), 0);
    }

    #[test]
    fn rejects_missing_justification_and_unknown_rule() {
        let no_just = "[[allow]]\nrule = \"no-unwrap\"\npath = \"a.rs\"\ncount = 1\n";
        assert!(Allowlist::parse(no_just).is_err());
        let bad_rule =
            "[[allow]]\nrule = \"nope\"\npath = \"a.rs\"\ncount = 1\njustification = \"j\"\n";
        assert!(Allowlist::parse(bad_rule).is_err());
    }

    #[test]
    fn budgets_suppress_then_overflow() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-unwrap\"\npath = \"a.rs\"\ncount = 2\njustification = \"j\"\n",
        )
        .unwrap();
        let findings = vec![
            finding("no-unwrap", "a.rs", 1),
            finding("no-unwrap", "a.rs", 2),
            finding("no-unwrap", "a.rs", 3),
            finding("no-unwrap", "b.rs", 1),
        ];
        let applied = apply(findings, &allow);
        assert_eq!(applied.suppressed.len(), 2);
        assert_eq!(applied.violations.len(), 2);
        assert!(applied.stale.is_empty());
    }

    #[test]
    fn oversized_budgets_are_stale() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-unwrap\"\npath = \"a.rs\"\ncount = 5\njustification = \"j\"\n",
        )
        .unwrap();
        let applied = apply(vec![finding("no-unwrap", "a.rs", 1)], &allow);
        assert!(applied.violations.is_empty());
        assert_eq!(applied.stale.len(), 1);
        assert_eq!(applied.stale[0].budget, 5);
        assert_eq!(applied.stale[0].actual, 1);
    }
}
