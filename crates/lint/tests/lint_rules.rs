//! Per-rule fixture tests: each file under `tests/fixtures/` violates
//! one rule in the shapes that matter (plus the shapes that must NOT
//! fire: strings, comments, test code, reasoned allows).
//!
//! The fixtures directory is excluded from the workspace walk, so these
//! deliberate violations never reach the real gate.

use std::path::Path;

use mlcx_lint::{lint_file, LintReport, SourceFile};

/// Lints one fixture under a controlled identity (`rel_path` drives
/// crate-root/test-file classification, `crate_name` drives scoping).
fn lint_fixture(name: &str, rel_path: &str, crate_name: &str) -> LintReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} must be readable: {e}"));
    let file = SourceFile::parse(rel_path, crate_name, &src);
    let mut report = LintReport::default();
    lint_file(&file, &mut report);
    report
}

/// The `(rule, line)` pairs of the hard diagnostics, sorted.
fn hard(report: &LintReport) -> Vec<(&str, u32)> {
    let mut pairs: Vec<(&str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect();
    pairs.sort();
    pairs
}

/// Total counted sites for one rule.
fn counted(report: &LintReport, rule: &str) -> usize {
    report
        .counts
        .get(rule)
        .map(|m| m.values().sum())
        .unwrap_or(0)
}

#[test]
fn hash_order_fires_on_non_test_mentions_only() {
    let report = lint_fixture("hash_order.rs", "crates/core/src/fx.rs", "mlcx-core");
    let diags = hard(&report);
    assert_eq!(diags.len(), 4, "use lines + both params: {diags:?}");
    assert!(diags.iter().all(|(rule, _)| *rule == "hash-order-iter"));
    // Nothing from the #[cfg(test)] module.
    assert!(diags.iter().all(|(_, line)| *line < 10));
}

#[test]
fn wall_clock_fires_in_every_crate_and_honors_allows() {
    let expected = vec![("wall-clock", 3), ("wall-clock", 5), ("wall-clock", 6)];
    let report = lint_fixture("wall_clock.rs", "crates/core/src/fx.rs", "mlcx-core");
    assert_eq!(hard(&report), expected);

    // No crate is exempt: the same file under mlcx-bench's `src/` fires
    // identically.
    let bench_src = lint_fixture("wall_clock.rs", "crates/bench/src/fx.rs", "mlcx-bench");
    assert_eq!(hard(&bench_src), expected);

    // Only test-classified code may read the host clock: under
    // `benches/` the file is legal (the allow is then unused — also a
    // finding, proving the rule did not fire).
    let bench_target = lint_fixture("wall_clock.rs", "crates/bench/benches/fx.rs", "mlcx-bench");
    assert_eq!(hard(&bench_target), vec![("unused-allow", 10)]);
}

#[test]
fn ambient_rng_fires_in_test_code_too() {
    let report = lint_fixture("ambient_rng.rs", "crates/core/src/fx.rs", "mlcx-core");
    let diags = hard(&report);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|(rule, _)| *rule == "ambient-rng"));
    // One of the two sits inside #[cfg(test)] — unseeded tests are
    // unreproducible tests.
    assert!(diags.iter().any(|(_, line)| *line > 10));
}

#[test]
fn float_eq_fires_on_literal_comparisons_only() {
    let report = lint_fixture("float_eq.rs", "crates/core/src/fx.rs", "mlcx-core");
    let diags = hard(&report);
    assert_eq!(diags, vec![("float-eq", 4), ("float-eq", 8)]);
}

#[test]
fn unsafe_scope_fires_on_bare_roots_and_keywords() {
    let report = lint_fixture("unsafe_scope.rs", "crates/x/src/lib.rs", "mlcx-x");
    let diags = hard(&report);
    assert_eq!(diags, vec![("unsafe-scope", 1), ("unsafe-scope", 4)]);
}

#[test]
fn datapath_unwrap_ratchets_the_three_shapes() {
    let report = lint_fixture("unwrap_ratchet.rs", "crates/core/src/fx.rs", "mlcx-core");
    // panic! + .unwrap() + .expect(; the allowed expect, the
    // unwrap_or and the test-module unwrap are all excluded.
    assert_eq!(counted(&report, "datapath-unwrap"), 3);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);

    // Outside the datapath crates the rule does not apply at all, and
    // its allow is therefore reported as stale.
    let other = lint_fixture("unwrap_ratchet.rs", "crates/hv/src/fx.rs", "mlcx-hv");
    assert_eq!(counted(&other, "datapath-unwrap"), 0);
    assert_eq!(hard(&other), vec![("unused-allow", 16)]);
}

#[test]
fn todo_marker_ratchets_comments_in_all_code() {
    let report = lint_fixture("todo_marker.rs", "crates/hv/src/fx.rs", "mlcx-hv");
    assert_eq!(counted(&report, "todo-marker"), 3);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn malformed_and_stale_allows_are_findings() {
    let report = lint_fixture("allows.rs", "crates/core/src/fx.rs", "mlcx-core");
    let diags = hard(&report);
    assert_eq!(
        diags,
        vec![
            ("bad-allow", 3),
            ("bad-allow", 4),
            ("bad-allow", 5),
            ("unused-allow", 6),
        ]
    );
}

#[test]
fn lexer_stress_strings_and_comments_never_fire() {
    let report = lint_fixture("tricky_lexer.rs", "crates/core/src/fx.rs", "mlcx-core");
    let diags = hard(&report);
    // The only real finding is the HashMap ident at the bottom; every
    // trigger inside plain/raw/byte strings, chars and (nested) block
    // comments must be invisible.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].0, "hash-order-iter");
    assert_eq!(counted(&report, "datapath-unwrap"), 0);
    assert_eq!(counted(&report, "todo-marker"), 0);
}
