//! `mlcx-lint` — the workspace determinism/safety lint engine.
//!
//! Every claim this reproduction makes rests on bit-identical
//! determinism pins (the eight committed bench baselines,
//! `tests/event_core.rs`, `tests/codec_kernels.rs`). Those pins are
//! defended *after the fact* by test reruns; this crate defends them
//! *by construction*: a std-only static-analysis pass that forbids the
//! nondeterminism vectors (hash-order iteration, ambient wall clocks,
//! unseeded RNG, float equality) and ratchets down panic paths and
//! stale to-do markers, so silent nondeterminism cannot creep in as the
//! tree grows toward fault-injection and parallel-campaign work.
//!
//! The engine is three layers:
//!
//! * [`lexer`] — a hand-rolled, comment/string/raw-string-aware Rust
//!   lexer (no syntax tree; rules match token shapes);
//! * [`rules`] — the rule set, each rule scoped per crate and per
//!   test/non-test region (see the rule table in ARCHITECTURE.md);
//! * this module — file discovery, `#[cfg(test)]` region
//!   classification, `// mlcx-lint: allow(rule, reason = "…")` escape
//!   hatches (a reason is *mandatory*), and the ratchet baseline
//!   (counted rules may only decrease; the committed counts live in
//!   `crates/lint/baseline.json`, parsed and written through
//!   `mlcx_bench::json` — the same serializer the bench gate uses).
//!
//! Run it as `cargo run -p mlcx-lint -- --check` (CI does) or
//! `-- --update-baseline` after an intentional burn-down, mirroring the
//! bench-gate `--update` flow documented in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

use lexer::{lex, Token, TokenKind};

/// One lint finding, rendered as `file:line:col rule-id message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// An inline `// mlcx-lint: allow(rule-id, reason = "…")` directive.
///
/// A directive suppresses findings of `rule` on its own line and on the
/// line directly below it (so it can trail the offending code or sit
/// immediately above it). The reason is mandatory — an allow without
/// one is itself a finding (`bad-allow`) — and an allow that suppresses
/// nothing is reported as `unused-allow` so stale escape hatches cannot
/// linger.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line the directive sits on.
    pub line: u32,
    /// 1-based column of the directive comment.
    pub col: u32,
}

/// A lexed source file with its lint-relevant classification.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/core/src/engine.rs`).
    pub rel_path: String,
    /// Cargo package name the file belongs to (`mlcx-core`).
    pub crate_name: String,
    /// Whether the *whole file* is test/bench code (under a `tests/` or
    /// `benches/` directory).
    pub test_file: bool,
    /// Whether this file is a crate root (`src/lib.rs`).
    pub crate_root: bool,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]` item (or a test file).
    pub test_mask: Vec<bool>,
    /// Parsed allow directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed `mlcx-lint:` comments (missing reason, bad syntax).
    pub bad_allows: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lexes and classifies `source` as `rel_path` in `crate_name`.
    pub fn parse(rel_path: &str, crate_name: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let test_file = rel_path
            .split('/')
            .any(|part| part == "tests" || part == "benches");
        let crate_root = rel_path.ends_with("src/lib.rs");
        let test_mask = mark_cfg_test_spans(&tokens, test_file);
        let (allows, bad_allows) = parse_allow_directives(rel_path, &tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            test_file,
            crate_root,
            tokens,
            test_mask,
            allows,
            bad_allows,
        }
    }

    /// Whether the token at `index` is test code.
    pub fn is_test_token(&self, index: usize) -> bool {
        self.test_mask[index]
    }

    /// A diagnostic at the position of token `index`.
    pub fn diag_at(&self, index: usize, rule: &'static str, message: String) -> Diagnostic {
        let t = &self.tokens[index];
        Diagnostic {
            file: self.rel_path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
        }
    }
}

/// Marks every token inside a `#[cfg(test)]`-gated item (attribute
/// included). The item is the next `;`-terminated statement or `{}`
/// block at bracket depth zero — enough structure to skip `mod tests`,
/// gated functions and gated `use` lines without a full parser.
fn mark_cfg_test_spans(tokens: &[Token], whole_file: bool) -> Vec<bool> {
    let mut mask = vec![whole_file; tokens.len()];
    if whole_file {
        return mask;
    }
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_cfg_test_attr(tokens, i) {
            // Mark the attribute itself, then the item that follows.
            for flag in mask.iter_mut().take(attr_end + 1).skip(i) {
                *flag = true;
            }
            let mut j = attr_end + 1;
            let mut depth = 0i64;
            let mut entered_block = false;
            while j < tokens.len() {
                mask[j] = true;
                if let TokenKind::Punct = tokens[j].kind {
                    match tokens[j].text.as_str() {
                        "{" | "(" | "[" => {
                            depth += 1;
                            entered_block = entered_block || tokens[j].text == "{";
                        }
                        "}" | ")" | "]" => {
                            depth -= 1;
                            if depth == 0 && entered_block && tokens[j].text == "}" {
                                break;
                            }
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Matches `# [ cfg ( test ) ]` starting at token `i` (comments between
/// tokens tolerated); returns the index of the closing `]`. This
/// deliberately does *not* match `#[cfg(not(test))]` or other
/// combinators — only the exact gate.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    let expected: [&dyn Fn(&Token) -> bool; 7] = [
        &|t| t.is_punct("#"),
        &|t| t.is_punct("["),
        &|t| t.is_ident("cfg"),
        &|t| t.is_punct("("),
        &|t| t.is_ident("test"),
        &|t| t.is_punct(")"),
        &|t| t.is_punct("]"),
    ];
    let mut idx = i;
    let mut last = i;
    for matcher in expected {
        while tokens.get(idx).is_some_and(|t| t.is_comment()) {
            idx += 1;
        }
        let t = tokens.get(idx)?;
        if !matcher(t) {
            return None;
        }
        last = idx;
        idx += 1;
    }
    Some(last)
}

/// The directive marker inside a comment.
const ALLOW_MARKER: &str = "mlcx-lint:";

/// Parses `mlcx-lint: allow(rule, reason = "…")` directives out of the
/// comment tokens. A directive is a dedicated non-doc comment whose
/// body *starts with* the marker (so prose that merely mentions the
/// syntax, like this sentence, is not one). Anything after the marker
/// that does not parse — missing reason included — becomes a
/// `bad-allow` diagnostic: the escape hatch *requires* a justification.
fn parse_allow_directives(
    rel_path: &str,
    tokens: &[Token],
) -> (Vec<AllowDirective>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        let TokenKind::Comment { block, doc } = t.kind else {
            continue;
        };
        if doc {
            continue;
        }
        let body = if block {
            t.text.trim_start_matches("/*")
        } else {
            t.text.trim_start_matches('/')
        }
        .trim_start();
        let Some(rest) = body.strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        let rest = rest.trim();
        match parse_allow_body(rest) {
            Ok((rule, reason)) => allows.push(AllowDirective {
                rule,
                reason,
                line: t.line,
                col: t.col,
            }),
            Err(why) => bad.push(Diagnostic {
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: "bad-allow",
                message: format!(
                    "malformed allow directive ({why}); write \
                     `mlcx-lint: allow(rule-id, reason = \"…\")` — the reason is mandatory"
                ),
            }),
        }
    }
    (allows, bad)
}

fn parse_allow_body(rest: &str) -> Result<(String, String), String> {
    let body = rest
        .strip_prefix("allow(")
        .ok_or("expected `allow(`")?
        .trim_end_matches("*/")
        .trim();
    let body = body.strip_suffix(')').ok_or("unclosed `allow(`")?;
    let (rule, tail) = body
        .split_once(',')
        .ok_or("missing `, reason = \"…\"` argument")?;
    let rule = rule.trim();
    if rule.is_empty() {
        return Err("empty rule id".into());
    }
    let tail = tail.trim();
    let reason = tail
        .strip_prefix("reason")
        .and_then(|r| r.trim_start().strip_prefix('='))
        .map(str::trim)
        .ok_or("expected `reason = \"…\"`")?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or("reason must be a quoted string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    Ok((rule.to_string(), reason.trim().to_string()))
}

/// Counted-rule tallies: `rule -> crate -> unallowed findings`.
pub type RatchetCounts = BTreeMap<String, BTreeMap<String, usize>>;

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Hard findings (unallowed non-counted diagnostics, malformed or
    /// unused allows). Any entry fails `--check`.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-crate tallies of the counted (ratcheted) rules.
    pub counts: RatchetCounts,
    /// Sites behind the tallies, for reporting ratchet regressions.
    pub counted_sites: BTreeMap<String, Vec<Diagnostic>>,
    /// Files linted (for the summary line).
    pub files: usize,
}

/// Lints one parsed file, folding findings into `report`.
///
/// Allow-directive bookkeeping happens here: each finding whose rule
/// has a directive on its line or the line above is suppressed, and
/// directives that suppressed nothing become `unused-allow` findings.
pub fn lint_file(file: &SourceFile, report: &mut LintReport) {
    report.files += 1;
    report.diagnostics.extend(file.bad_allows.iter().cloned());
    let mut used = vec![false; file.allows.len()];
    let suppress = |diag: &Diagnostic, used: &mut Vec<bool>| -> bool {
        let mut hit = false;
        for (i, a) in file.allows.iter().enumerate() {
            if a.rule == diag.rule && (a.line == diag.line || a.line + 1 == diag.line) {
                used[i] = true;
                hit = true;
            }
        }
        hit
    };
    for rule in rules::all() {
        if !rule.applies(file) {
            continue;
        }
        for diag in rule.check(file) {
            if suppress(&diag, &mut used) {
                continue;
            }
            if rule.counted() {
                let by_crate = report.counts.entry(rule.id().to_string()).or_default();
                *by_crate.entry(file.crate_name.clone()).or_default() += 1;
                report
                    .counted_sites
                    .entry(rule.id().to_string())
                    .or_default()
                    .push(diag);
            } else {
                report.diagnostics.push(diag);
            }
        }
    }
    for (i, a) in file.allows.iter().enumerate() {
        if !used[i] {
            report.diagnostics.push(Diagnostic {
                file: file.rel_path.clone(),
                line: a.line,
                col: a.col,
                rule: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing — remove the stale escape hatch",
                    a.rule
                ),
            });
        }
    }
}

/// Ensures every counted rule has an entry for every crate it scopes
/// over, so the ratchet baseline pins explicit zeros (a rule silently
/// losing its scope would otherwise look like a burn-down).
fn pin_counted_zeros(counts: &mut RatchetCounts, crates: &[String]) {
    for rule in rules::all().iter().filter(|r| r.counted()) {
        let by_crate = counts.entry(rule.id().to_string()).or_default();
        for name in crates {
            if rule.counts_crate(name) {
                by_crate.entry(name.clone()).or_default();
            }
        }
    }
}

/// Source roots of the workspace, as `(dir, crate_name)` pairs.
///
/// `crates/compat/*` is excluded by design: the stubs *stand in for
/// external crates* (rand, proptest) and legitimately own ambient
/// RNG plumbing. `crates/lint/tests/fixtures/` is excluded
/// because the fixtures deliberately violate every rule.
fn source_roots(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut roots = vec![
        (root.join("src"), "mlcx".to_string()),
        (root.join("tests"), "mlcx".to_string()),
        (root.join("examples"), "mlcx".to_string()),
    ];
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name != "compat")
        .collect();
    names.sort();
    for name in names {
        roots.push((crates_dir.join(&name), format!("mlcx-{name}")));
    }
    Ok(roots)
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace under `root` (deterministic file order).
///
/// # Errors
///
/// I/O errors reading the tree; unreadable files fail loudly rather
/// than silently shrinking the lint surface.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let roots = source_roots(root)?;
    let crate_names: Vec<String> = {
        let mut names: Vec<String> = roots.iter().map(|(_, name)| name.clone()).collect();
        names.dedup();
        names
    };
    for (dir, crate_name) in &roots {
        let mut files = Vec::new();
        walk_rs_files(dir, &mut files);
        for path in files {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let file = SourceFile::parse(&rel, crate_name, &source);
            lint_file(&file, &mut report);
        }
    }
    pin_counted_zeros(&mut report.counts, &crate_names);
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Where the committed ratchet baseline lives.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("crates/lint/baseline.json")
}

/// Parses the ratchet baseline (same flat-object JSON the bench gate
/// reads, through the same `mlcx_bench::json` parser).
///
/// # Errors
///
/// Parse or schema errors, with the failing key.
pub fn parse_baseline(text: &str) -> Result<RatchetCounts, String> {
    let value = mlcx_bench::json::parse(text)?;
    let obj = value.as_object().ok_or("baseline must be an object")?;
    let mut counts = RatchetCounts::new();
    for (rule, crates) in obj {
        let entries = crates
            .as_object()
            .ok_or(format!("baseline[{rule:?}] must be an object"))?;
        let by_crate = counts.entry(rule.clone()).or_default();
        for (crate_name, n) in entries {
            let n = n.as_number().ok_or(format!(
                "baseline[{rule:?}][{crate_name:?}] must be a number"
            ))?;
            by_crate.insert(crate_name.clone(), n as usize);
        }
    }
    Ok(counts)
}

/// Serializes ratchet counts through the shared `mlcx_bench::json`
/// writer — the same helper `BenchResult::to_json` and the bench-gate
/// `--update` path render with.
pub fn render_baseline(counts: &RatchetCounts) -> String {
    use mlcx_bench::json::Json;
    let obj = Json::Object(
        counts
            .iter()
            .map(|(rule, crates)| {
                let inner = Json::Object(
                    crates
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::Number(*n as f64)))
                        .collect(),
                );
                (rule.clone(), inner)
            })
            .collect(),
    );
    let mut text = obj.render_pretty();
    text.push('\n');
    text
}

/// One ratchet comparison outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum RatchetStatus {
    /// Count equals the baseline.
    Held,
    /// Count dropped below the baseline — lock it in with
    /// `--update-baseline`.
    Improved,
    /// Count exceeds the baseline — the gate fails.
    Regressed,
}

/// A `(rule, crate)` ratchet comparison.
#[derive(Debug)]
pub struct RatchetCheck {
    /// Counted rule id.
    pub rule: String,
    /// Crate the tally is scoped to.
    pub crate_name: String,
    /// Committed baseline count (0 when the key is absent: new crates
    /// start clean).
    pub baseline: usize,
    /// Current count.
    pub actual: usize,
    /// Comparison outcome.
    pub status: RatchetStatus,
}

/// Compares current counts against the committed baseline. Keys
/// missing from the baseline are treated as zero — a new crate or a
/// newly counted rule starts with no panic budget at all.
pub fn check_ratchet(baseline: &RatchetCounts, counts: &RatchetCounts) -> Vec<RatchetCheck> {
    let mut checks = Vec::new();
    for (rule, by_crate) in counts {
        for (crate_name, &actual) in by_crate {
            let base = baseline
                .get(rule)
                .and_then(|m| m.get(crate_name))
                .copied()
                .unwrap_or(0);
            let status = match actual.cmp(&base) {
                std::cmp::Ordering::Less => RatchetStatus::Improved,
                std::cmp::Ordering::Equal => RatchetStatus::Held,
                std::cmp::Ordering::Greater => RatchetStatus::Regressed,
            };
            checks.push(RatchetCheck {
                rule: rule.clone(),
                crate_name: crate_name.clone(),
                baseline: base,
                actual,
                status,
            });
        }
    }
    checks
}

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_spans_cover_gated_items_only() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn gated() {}\n}\nfn tail() {}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "mlcx-x", src);
        let flag = |name: &str| {
            let i = file
                .tokens
                .iter()
                .position(|t| t.is_ident(name))
                .expect(name);
            file.is_test_token(i)
        };
        assert!(!flag("live"));
        assert!(flag("gated"));
        assert!(!flag("tail"));
    }

    #[test]
    fn cfg_test_on_a_single_fn_ends_at_its_block() {
        let src = "#[cfg(test)]\npub(crate) fn helper(x: [u8; 3]) -> u8 { x[0] }\nfn live() {}\n";
        let file = SourceFile::parse("crates/x/src/a.rs", "mlcx-x", src);
        let i_helper = file
            .tokens
            .iter()
            .position(|t| t.is_ident("helper"))
            .unwrap();
        let i_live = file.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(file.is_test_token(i_helper));
        assert!(!file.is_test_token(i_live));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let file = SourceFile::parse("crates/x/src/a.rs", "mlcx-x", src);
        let i = file.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!file.is_test_token(i));
    }

    #[test]
    fn tests_dir_files_are_test_code_wholesale() {
        let file = SourceFile::parse("crates/x/tests/t.rs", "mlcx-x", "fn anything() {}");
        assert!(file.test_file);
        assert!(file.test_mask.iter().all(|&b| b));
    }

    #[test]
    fn allow_directives_parse_and_require_reasons() {
        let src = r#"
// mlcx-lint: allow(wall-clock, reason = "calibration loop, not datapath")
fn a() {}
// mlcx-lint: allow(wall-clock)
fn b() {}
// mlcx-lint: allow(float-eq, reason = "")
fn c() {}
"#;
        let file = SourceFile::parse("crates/x/src/a.rs", "mlcx-x", src);
        assert_eq!(file.allows.len(), 1);
        assert_eq!(file.allows[0].rule, "wall-clock");
        assert_eq!(file.allows[0].reason, "calibration loop, not datapath");
        assert_eq!(file.bad_allows.len(), 2);
        assert!(file.bad_allows.iter().all(|d| d.rule == "bad-allow"));
    }

    #[test]
    fn ratchet_comparison_classifies_all_three_ways() {
        let mut base = RatchetCounts::new();
        base.entry("r".into())
            .or_default()
            .extend([("a".to_string(), 2), ("b".to_string(), 2)]);
        let mut now = RatchetCounts::new();
        now.entry("r".into()).or_default().extend([
            ("a".to_string(), 2),
            ("b".to_string(), 1),
            ("c".to_string(), 1),
        ]);
        let checks = check_ratchet(&base, &now);
        let by = |name: &str| {
            checks
                .iter()
                .find(|c| c.crate_name == name)
                .map(|c| (&c.status, c.baseline))
                .unwrap()
        };
        assert_eq!(by("a"), (&RatchetStatus::Held, 2));
        assert_eq!(by("b"), (&RatchetStatus::Improved, 2));
        // Unknown keys ratchet from zero.
        assert_eq!(by("c"), (&RatchetStatus::Regressed, 0));
    }

    #[test]
    fn baseline_round_trips_through_the_shared_writer() {
        let mut counts = RatchetCounts::new();
        counts
            .entry("datapath-unwrap".into())
            .or_default()
            .extend([("mlcx-core".to_string(), 3), ("mlcx-nand".to_string(), 0)]);
        counts
            .entry("todo-marker".into())
            .or_default()
            .insert("mlcx".to_string(), 1);
        let text = render_baseline(&counts);
        let back = parse_baseline(&text).unwrap();
        assert_eq!(back, counts);
    }
}
