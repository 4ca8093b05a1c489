//! The lint rules.
//!
//! Each rule is a token-shape matcher over the lexed file (no type
//! information — see the per-rule notes for what that means for
//! precision). Rules come in two strengths:
//!
//! * **hard** rules: any unallowed finding fails `--check` outright;
//! * **counted** (ratcheted) rules: findings are tallied per crate and
//!   compared against `crates/lint/baseline.json`; counts may only
//!   decrease.
//!
//! The rule table with the full rationale lives in ARCHITECTURE.md
//! ("Static analysis & determinism invariants").

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, SourceFile};

/// The datapath crates whose panic paths are ratcheted.
const DATAPATH_CRATES: [&str; 3] = ["mlcx-nand", "mlcx-controller", "mlcx-core"];

/// One lint rule: identity, strength, scope and the token matcher.
pub struct Rule {
    id: &'static str,
    counted: bool,
    applies: fn(&SourceFile) -> bool,
    counts_crate: fn(&str) -> bool,
    check: fn(&SourceFile) -> Vec<Diagnostic>,
}

impl Rule {
    /// Stable kebab-case rule id.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Whether findings ratchet through the baseline instead of failing
    /// outright.
    pub fn counted(&self) -> bool {
        self.counted
    }

    /// Whether the rule runs over `file` at all.
    pub fn applies(&self, file: &SourceFile) -> bool {
        (self.applies)(file)
    }

    /// For counted rules: whether `crate_name` gets a pinned baseline
    /// entry (explicit zeros included).
    pub fn counts_crate(&self, crate_name: &str) -> bool {
        (self.counts_crate)(crate_name)
    }

    /// Runs the matcher.
    pub fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        (self.check)(file)
    }
}

/// Every registered rule, in reporting order.
pub fn all() -> &'static [Rule] {
    &RULES
}

static RULES: [Rule; 7] = [
    Rule {
        id: "hash-order-iter",
        counted: false,
        applies: |_| true,
        counts_crate: |_| false,
        check: check_hash_order,
    },
    Rule {
        id: "wall-clock",
        counted: false,
        applies: |_| true,
        counts_crate: |_| false,
        check: check_wall_clock,
    },
    Rule {
        id: "ambient-rng",
        counted: false,
        applies: |_| true,
        counts_crate: |_| false,
        check: check_ambient_rng,
    },
    Rule {
        id: "float-eq",
        counted: false,
        applies: |_| true,
        counts_crate: |_| false,
        check: check_float_eq,
    },
    Rule {
        id: "unsafe-scope",
        counted: false,
        applies: |_| true,
        counts_crate: |_| false,
        check: check_unsafe_scope,
    },
    Rule {
        id: "datapath-unwrap",
        counted: true,
        applies: |f| DATAPATH_CRATES.contains(&f.crate_name.as_str()),
        counts_crate: |name| DATAPATH_CRATES.contains(&name),
        check: check_datapath_unwrap,
    },
    Rule {
        id: "todo-marker",
        counted: true,
        applies: |_| true,
        counts_crate: |_| true,
        check: check_todo_marker,
    },
];

/// Next non-comment token index strictly after `i`.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    tokens
        .iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, t)| !t.is_comment())
        .map(|(j, _)| j)
}

/// Previous non-comment token index strictly before `i`.
fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    tokens[..i]
        .iter()
        .enumerate()
        .rev()
        .find(|(_, t)| !t.is_comment())
        .map(|(j, _)| j)
}

/// `hash-order-iter` — any `HashMap`/`HashSet` identifier in non-test
/// code. Deliberately an over-approximation (mentioning the type at
/// all, not just iterating it): hash containers are banned from
/// deterministic code wholesale, because today's keyed lookup is
/// tomorrow's order-sensitive drain.
fn check_hash_order(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(file.diag_at(
                i,
                "hash-order-iter",
                format!(
                    "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet \
                     (or a sorted drain) in deterministic code",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `wall-clock` — `Instant`/`SystemTime` identifiers in non-test code.
/// The simulation must read time from the engine clock only; wall clocks
/// smuggle host-load dependence into results. (Host timing lives in the
/// repo benchmark under `benchmark/`, which is not a workspace member.)
fn check_wall_clock(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(file.diag_at(
                i,
                "wall-clock",
                format!(
                    "`{}` is an ambient wall clock; non-test code reads time \
                     from the simulated engine clock only",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Identifiers that construct RNG state from ambient entropy.
const AMBIENT_RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
];

/// `ambient-rng` — RNG construction not fed by an explicit seed, in
/// test and non-test code alike: an unseeded test is an unreproducible
/// test.
fn check_ambient_rng(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if AMBIENT_RNG_IDENTS.iter().any(|id| t.is_ident(id)) {
            out.push(file.diag_at(
                i,
                "ambient-rng",
                format!(
                    "`{}` draws ambient entropy; construct RNGs from an explicit \
                     seed so every run is replayable",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `float-eq` — `==`/`!=` with a float literal on either side, in
/// non-test code. Without type information this catches literal
/// comparisons only (the common sentinel-check shape); deliberate
/// exact-sentinel checks carry an allow with the rationale.
fn check_float_eq(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let is_float = |idx: Option<usize>| {
        idx.is_some_and(|j| matches!(file.tokens[j].kind, TokenKind::Num { float: true }))
    };
    // The right-hand operand, looking through a unary sign (`== -1.0`).
    let rhs = |i: usize| {
        let j = next_code(&file.tokens, i)?;
        if file.tokens[j].is_punct("-") {
            next_code(&file.tokens, j)
        } else {
            Some(j)
        }
    };
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        if is_float(prev_code(&file.tokens, i)) || is_float(rhs(i)) {
            out.push(file.diag_at(
                i,
                "float-eq",
                format!(
                    "`{}` against a float literal; compare with an explicit \
                     tolerance or quantize to integers first",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `unsafe-scope` — every crate root must carry an inner
/// `forbid(unsafe_code)`/`deny(unsafe_code)` attribute, and every
/// `unsafe` keyword needs an allow (the sole sanctioned sites are the
/// `gf2` CLMUL intrinsics).
fn check_unsafe_scope(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.crate_root && !has_unsafe_gate(&file.tokens) {
        out.push(Diagnostic {
            file: file.rel_path.clone(),
            line: 1,
            col: 1,
            rule: "unsafe-scope",
            message: "crate root lacks `#![forbid(unsafe_code)]` (or `deny`); \
                      every crate pins its unsafe posture at the root"
                .to_string(),
        });
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.is_ident("unsafe") {
            out.push(
                file.diag_at(
                    i,
                    "unsafe-scope",
                    "`unsafe` outside the sanctioned gf2 CLMUL block; if this site is \
                 genuinely necessary, justify it with an allow"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// Matches `# ! [ forbid|deny ( unsafe_code ) ]` anywhere in the file.
fn has_unsafe_gate(tokens: &[Token]) -> bool {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && (w[3].is_ident("forbid") || w[3].is_ident("deny"))
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    })
}

/// `datapath-unwrap` (counted) — `.unwrap(`, `.expect(` and `panic!`
/// in non-test code of the datapath crates. Ratcheted: the residual
/// sites are deliberate fail-loudly invariants (preset constructors,
/// geometry validation) whose count is committed to the baseline and
/// may only shrink.
fn check_datapath_unwrap(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        if t.is_punct(".") {
            let Some(j) = next_code(tokens, i) else {
                continue;
            };
            if !(tokens[j].is_ident("unwrap") || tokens[j].is_ident("expect")) {
                continue;
            }
            if next_code(tokens, j).is_some_and(|k| tokens[k].is_punct("(")) {
                out.push(file.diag_at(
                    j,
                    "datapath-unwrap",
                    format!(
                        "`.{}()` on a datapath; return a typed `MlcxError` instead",
                        tokens[j].text
                    ),
                ));
            }
        } else if t.is_ident("panic")
            && next_code(tokens, i).is_some_and(|j| tokens[j].is_punct("!"))
        {
            out.push(file.diag_at(
                i,
                "datapath-unwrap",
                "`panic!` on a datapath; return a typed `MlcxError` instead".to_string(),
            ));
        }
    }
    out
}

/// The markers, assembled from pieces so this file's own comments and
/// diagnostics never trip the rule on itself.
fn todo_markers() -> [String; 2] {
    [
        concat!("TO", "DO").to_string(),
        concat!("FIX", "ME").to_string(),
    ]
}

/// `todo-marker` (counted) — stale to-do/fix-me markers in comments,
/// test code included. Ratcheted so the backlog is visible and may
/// only shrink.
fn check_todo_marker(file: &SourceFile) -> Vec<Diagnostic> {
    let markers = todo_markers();
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        for marker in &markers {
            if t.text.contains(marker.as_str()) {
                out.push(file.diag_at(
                    i,
                    "todo-marker",
                    format!("stale `{marker}` marker; finish it or file it on the roadmap"),
                ));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/x.rs", "mlcx-core", src)
    }

    #[test]
    fn hash_order_flags_non_test_mentions_only() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { \
                   use std::collections::HashMap; fn t(m: HashMap<u8, u8>) {} }\n";
        let diags = check_hash_order(&parse(src));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn wall_clock_and_rng_match_their_ident_lists() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        let file = parse(src);
        assert_eq!(check_wall_clock(&file).len(), 1);
        assert_eq!(check_ambient_rng(&file).len(), 1);
    }

    #[test]
    fn float_eq_needs_a_float_literal_neighbor() {
        let file = parse("fn f(x: f64, n: u32) -> bool { x == 0.0 && n == 0 && 1.5 != x }\n");
        let diags = check_float_eq(&file);
        assert_eq!(diags.len(), 2);
        // A unary sign does not hide the literal.
        let neg = parse("fn f(x: f64) -> bool { x == -1.0 }\n");
        assert_eq!(check_float_eq(&neg).len(), 1);
    }

    #[test]
    fn float_eq_ignores_strings_comments_and_ints() {
        let file =
            parse("fn f(n: u32) -> bool { let _s = \"x == 0.0\"; /* y == 1.0 */ n == 10 }\n");
        assert!(check_float_eq(&file).is_empty());
    }

    #[test]
    fn unsafe_scope_requires_a_root_gate_and_flags_the_keyword() {
        let gated = SourceFile::parse(
            "crates/x/src/lib.rs",
            "mlcx-x",
            "#![forbid(unsafe_code)]\nfn f() {}\n",
        );
        assert!(check_unsafe_scope(&gated).is_empty());
        let bare = SourceFile::parse("crates/x/src/lib.rs", "mlcx-x", "fn f() {}\n");
        let diags = check_unsafe_scope(&bare);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].line, diags[0].col), (1, 1));
        let kw = parse("fn f() { let p = core::ptr::null::<u8>(); let _ = unsafe { *p }; }\n");
        assert_eq!(check_unsafe_scope(&kw).len(), 1);
    }

    #[test]
    fn deny_gate_counts_and_comments_do_not_confuse_the_matcher() {
        let src = "// not a gate: #![forbid(unsafe_code)]\n#![deny(unsafe_code)]\nfn f() {}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "mlcx-x", src);
        assert!(check_unsafe_scope(&file).is_empty());
    }

    #[test]
    fn datapath_unwrap_counts_the_three_shapes_outside_tests() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    if o.is_none() { panic!(\"no\"); }\n    \
                   o.unwrap() + Some(1).expect(\"one\")\n}\n\
                   #[cfg(test)]\nmod tests { fn t(o: Option<u8>) { o.unwrap(); } }\n";
        let diags = check_datapath_unwrap(&parse(src));
        assert_eq!(diags.len(), 3);
        // `unwrap_or` must not match via prefix confusion.
        let file = parse("fn g(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n");
        assert!(check_datapath_unwrap(&file).is_empty());
    }

    #[test]
    fn todo_marker_matches_comments_not_strings() {
        let m = todo_markers();
        let src = format!(
            "// {}: finish this\nfn f() {{ let _ = \"{} in a string is fine\"; }}\n",
            m[0], m[1]
        );
        let diags = check_todo_marker(&parse(&src));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
    }
}
