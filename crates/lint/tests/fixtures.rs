//! Fixture self-tests: every lint rule must fire on its seeded
//! violation fixture and stay quiet on the clean fixture. This is the
//! linter's own regression net — a rule that silently stops firing
//! would otherwise look like a cleaner workspace.

use stellar_lint::allow::{self, Allowlist};
use stellar_lint::report;
use stellar_lint::rules::{check_env, check_file};
use stellar_lint::KNOB_REGISTRY;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

#[test]
fn nondeterminism_rule_fires_on_seeded_violations() {
    let text = fixture("violation_nondet.rs");
    // Scanned as a deterministic crate: every seed fires.
    let findings = check_file("fixtures/violation_nondet.rs", "sim", &text);
    let nondet: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "nondeterminism")
        .collect();
    // Seeds: Instant::now, SystemTime (twice: now + UNIX_EPOCH line has
    // no SystemTime… actually `std::time::SystemTime` appears twice),
    // thread_rng.
    assert!(
        nondet.len() >= 3,
        "expected >=3 nondeterminism findings, got {nondet:?}"
    );
    assert!(nondet.iter().any(|f| f.message.contains("Instant::now")));
    assert!(nondet.iter().any(|f| f.message.contains("thread_rng")));
    // The same file scanned as a non-deterministic crate is exempt.
    let relaxed = check_file("fixtures/violation_nondet.rs", "stats", &text);
    assert!(relaxed.iter().all(|f| f.rule != "nondeterminism"));
}

#[test]
fn hash_iter_rule_fires_on_seeded_violations() {
    let text = fixture("violation_hash_iter.rs");
    let findings = check_file("fixtures/violation_hash_iter.rs", "net", &text);
    let hash: Vec<_> = findings.iter().filter(|f| f.rule == "hash-iter").collect();
    assert_eq!(hash.len(), 2, "both unordered iterations fire: {hash:?}");
    assert!(hash.iter().any(|f| f.message.contains("`flows`")));
    assert!(hash.iter().any(|f| f.message.contains("`seen`")));
}

#[test]
fn no_unwrap_rule_fires_on_seeded_violations() {
    let text = fixture("violation_no_unwrap.rs");
    let findings = check_file("fixtures/violation_no_unwrap.rs", "net", &text);
    let sites: Vec<_> = findings.iter().filter(|f| f.rule == "no-unwrap").collect();
    // unwrap(), expect(, panic!, unreachable! — one each in live code;
    // the #[cfg(test)] unwrap is exempt.
    assert_eq!(sites.len(), 4, "expected 4 panic-family sites: {sites:?}");
    for token in ["unwrap()", "expect(", "panic!", "unreachable!"] {
        assert!(
            sites.iter().any(|f| f.message.contains(token)),
            "no finding for `{token}`"
        );
    }
}

#[test]
fn env_var_rule_allows_only_the_knob_registry() {
    let text = fixture("violation_env_var.rs");
    let env_reads = |path: &str, krate: &str| {
        check_file(path, krate, &text)
            .into_iter()
            .filter(|f| f.rule == "env-var")
            .count()
    };
    // A `*from_env` reader is no exemption, in a library crate or a
    // driver; the test module's read is.
    assert_eq!(env_reads("crates/core/src/faults.rs", "core"), 2);
    assert_eq!(check_env("examples/quickstart.rs", &text).len(), 2);
    assert_eq!(env_reads(KNOB_REGISTRY, "bench"), 0);
    assert!(check_env(KNOB_REGISTRY, &text).is_empty());
}

#[test]
fn clean_fixture_produces_no_findings() {
    let text = fixture("clean.rs");
    for krate in ["sim", "net", "core"] {
        let findings = check_file("fixtures/clean.rs", krate, &text);
        assert!(
            findings.is_empty(),
            "clean fixture raised findings as crate `{krate}`: {findings:?}"
        );
    }
}

#[test]
fn allowlist_budget_suppresses_fixture_findings_and_ratchets() {
    let text = fixture("violation_no_unwrap.rs");
    let findings = check_file("fixtures/violation_no_unwrap.rs", "net", &text);
    let allow = Allowlist::parse(
        "[[allow]]\n\
         rule = \"no-unwrap\"\n\
         path = \"fixtures/violation_no_unwrap.rs\"\n\
         count = 4\n\
         justification = \"fixture seeds\"\n",
    )
    .unwrap();
    let applied = allow::apply(findings, &allow);
    assert!(applied.violations.is_empty());
    assert_eq!(applied.suppressed.len(), 4);
    assert!(applied.stale.is_empty());
    // A shrunken file makes the budget stale — the ratchet reminder.
    let fewer = check_file(
        "fixtures/violation_no_unwrap.rs",
        "net",
        "fn f(x: Option<u8>) { x.unwrap(); }\n",
    );
    let applied = allow::apply(fewer, &allow);
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].budget, 4);
    assert_eq!(applied.stale[0].actual, 1);
}

#[test]
fn json_report_round_trips_fixture_findings() {
    let text = fixture("violation_hash_iter.rs");
    let findings = check_file("fixtures/violation_hash_iter.rs", "net", &text);
    let applied = allow::apply(findings, &Allowlist::default());
    let json = report::render_json(&applied);
    assert!(json.contains("\"rule\": \"hash-iter\""));
    assert!(json.contains("\"path\": \"fixtures/violation_hash_iter.rs\""));
    assert!(json.contains("\"counts\": {\"violations\": 2"));
}
