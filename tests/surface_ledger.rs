//! The option surface, pinned as exact counts.
//!
//! ROADMAP item 1(a)'s "facade re-export count, builder-setter count"
//! ledger columns, kept by the test suite: every name the `mlcx` facade
//! re-exports, every setter of the three builders, every `pub` field of
//! `ControllerConfig` (where the controller's settings live), every
//! `pub fn` of `StorageEngine` (the host's queries), every `pub` field
//! of the reports the stack hands back and every variant of `MlcxError`
//! is one more thing a user can reach and a test matrix must cover, so adding one is a
//! deliberate edit of a number here, not a side effect. The facade
//! re-exports every crate as a module, so the `pub fn`, `pub` type and
//! `pub mod` counts of each crate are pinned too.
//!
//! Counted from the source text: rustfmt's layout (`pub use a::{B, C};`,
//! one `pub fn` signature up to its `{`) is what the parsing relies on,
//! and CI runs `cargo fmt --check`.
//!
//! The same goes for the static-analysis rules (ARCHITECTURE.md "Static
//! analysis & determinism invariants"): Clippy enforces them, and this
//! file pins where they are switched on and how many exceptions the
//! library code carries, so a rule that loses its scope or a new
//! `#[expect]` is an edit of a literal here too. The banned types
//! (hash-ordered containers, wall clocks) carry none in any target. So
//! is a new `unsafe` block or `unsafe fn` in library code, and a new
//! lifetime tally (a `pub struct` named `..Stats` or `..Meter`).

use std::collections::BTreeMap;
use std::path::Path;

/// Every count the tests below pin, by name: the one place each number is
/// written. The trajectory files (`BENCH_<pr>.json`, `tests/records`'
/// `trajectory`) copy this table as it stands, one `("name", count),` a
/// line.
const LEDGER: [(&str, usize); 41] = [
    ("facade_reexports", 47),
    ("engine_builder_setters", 5),
    ("controller_config_builder_setters", 1),
    ("scenario_builder_setters", 11),
    ("storage_engine_pub_fns", 12),
    ("batch_report_fields", 16),
    ("op_report_fields", 2),
    ("ftl_stats_fields", 5),
    ("phase_report_fields", 11),
    ("service_phase_report_fields", 21),
    ("scenario_report_fields", 11),
    ("controller_config_fields", 11),
    ("mlcx_error_variants", 8),
    ("expect_exceptions", 1),
    ("unsafe_blocks", 4),
    ("unsafe_fns", 1),
    ("pub_fns:bch", 46),
    ("pub_fns:bench", 19),
    ("pub_fns:compat/proptest", 4),
    ("pub_fns:compat/rand", 1),
    ("pub_fns:controller", 77),
    ("pub_fns:core", 134),
    ("pub_fns:gf2", 55),
    ("pub_fns:hv", 25),
    ("pub_fns:nand", 80),
    ("pub_types:bch", 9),
    ("pub_types:bench", 3),
    ("pub_types:compat/proptest", 8),
    ("pub_types:compat/rand", 6),
    ("pub_types:controller", 26),
    ("pub_types:core", 45),
    ("pub_types:gf2", 9),
    ("pub_types:hv", 10),
    ("pub_types:nand", 23),
    ("pub_mods:bch", 3),
    ("pub_mods:bench", 2),
    ("pub_mods:compat/proptest", 4),
    ("pub_mods:compat/rand", 1),
    ("pub_mods:core", 22),
    ("pub_mods:gf2", 2),
    ("pub_mods:nand", 7),
];

/// The count [`LEDGER`] pins for `name`.
fn pinned(name: &str) -> usize {
    let entry = LEDGER.iter().find(|(n, _)| *n == name);
    entry
        .unwrap_or_else(|| panic!("{name} is not in the ledger"))
        .1
}

/// Asserts that `counted` is what [`LEDGER`] pins for `name`.
fn holds(name: &str, counted: usize) {
    assert_eq!(counted, pinned(name), "{name}");
}

const FACADE: &str = include_str!("../src/lib.rs");
const ENGINE: &str = include_str!("../crates/core/src/engine.rs");
const CONTROLLER: &str = include_str!("../crates/controller/src/controller.rs");
const ERROR: &str = include_str!("../crates/core/src/error.rs");
const SCENARIO: &str = include_str!("../crates/core/src/sim/scenario.rs");
const DEVICE: &str = include_str!("../crates/nand/src/device.rs");
const FTL: &str = include_str!("../crates/controller/src/ftl.rs");

/// Names re-exported by `pub use path::{A, B};` / `pub use path::A;`
/// items (the `pub use crate_x as y;` module aliases are not names of
/// the flat facade and are not counted).
fn reexported_names(source: &str) -> usize {
    source
        .split("pub use ")
        .skip(1)
        .map(|item| item.split(';').next().expect("split yields one piece"))
        .filter(|item| !item.contains(" as "))
        .map(|item| match item.split_once('{') {
            Some((_, list)) => list
                .trim_end_matches('}')
                .split(',')
                .filter(|name| !name.trim().is_empty())
                .count(),
            None => 1,
        })
        .sum()
}

/// The whitespace-free signatures of the `pub fn`s of `impl <ty> { .. }`.
fn pub_fns(source: &str, ty: &str) -> Vec<String> {
    let start = source
        .find(&format!("\nimpl {ty} {{"))
        .unwrap_or_else(|| panic!("no `impl {ty}` block"));
    let block = &source[start..];
    let block = &block[..block.find("\n}\n").expect("impl block closes")];
    block
        .split("pub fn ")
        .skip(1)
        .map(|f| {
            let signature = f.split('{').next().expect("split yields one piece");
            signature.split_whitespace().collect()
        })
        .collect()
}

/// `pub fn`s of `impl <builder> { .. }` that take the builder by value
/// and hand it back (`(self, ..) -> Self` / `(mut self, ..) -> Self`).
fn setters(source: &str, builder: &str) -> usize {
    pub_fns(source, builder)
        .iter()
        .filter(|sig| {
            (sig.contains("(self,") || sig.contains("(mutself,")) && sig.ends_with("->Self")
        })
        .count()
}

/// `pub` fields of `pub struct <name> { .. }`, one a line as rustfmt
/// writes them.
fn pub_fields(source: &str, name: &str) -> usize {
    let start = source
        .find(&format!("\npub struct {name} {{"))
        .unwrap_or_else(|| panic!("no `pub struct {name}`"));
    let body = &source[start..];
    let body = &body[..body.find("\n}\n").expect("struct closes")];
    body.lines()
        .filter(|line| line.starts_with("    pub "))
        .count()
}

/// Variants of `pub enum <name> { .. }`, one a line as rustfmt writes
/// them.
fn variants(source: &str, name: &str) -> usize {
    let start = source
        .find(&format!("\npub enum {name} {{"))
        .unwrap_or_else(|| panic!("no `pub enum {name}`"));
    let body = &source[start..];
    let body = &body[..body.find("\n}\n").expect("enum closes")];
    body.lines()
        .filter(|line| {
            line.strip_prefix("    ")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_uppercase()))
        })
        .count()
}

#[test]
fn the_facade_reexports_what_the_ledger_says() {
    holds("facade_reexports", reexported_names(FACADE));
}

#[test]
fn the_builders_have_the_setters_the_ledger_says() {
    holds("engine_builder_setters", setters(ENGINE, "EngineBuilder"));
    holds(
        "controller_config_builder_setters",
        setters(CONTROLLER, "ControllerConfigBuilder"),
    );
    holds(
        "scenario_builder_setters",
        setters(SCENARIO, "ScenarioBuilder"),
    );
}

#[test]
fn the_storage_engine_has_the_queries_the_ledger_says() {
    // One route per host query: the completions and `last_batch` are
    // the engine's only accounts, `sq()`/`cq()` its queue views.
    holds(
        "storage_engine_pub_fns",
        pub_fns(ENGINE, "StorageEngine").len(),
    );
}

#[test]
fn the_reports_hold_the_fields_the_ledger_says() {
    // Each fact once: a drain's report keeps the sums and the overlap no
    // single completion can tell (per-command bytes and latencies are
    // in the completions), and a device operation reports its time and
    // energy — its kind is the call that returned it, its power their
    // ratio.
    holds("batch_report_fields", pub_fields(ENGINE, "BatchReport"));
    holds("op_report_fields", pub_fields(DEVICE, "OpReport"));
    // The FTL keeps what only it knows: the scrub reclaims and their
    // page moves are the plans' ops and the completions' counters.
    holds("ftl_stats_fields", pub_fields(FTL, "FtlStats"));
    // A scenario report holds what was measured, not the spec it ran
    // (the caller built the `PhaseSpec`) nor a ratio of its own fields
    // (write amplification is `ftl.write_amplification()`).
    holds("phase_report_fields", pub_fields(SCENARIO, "PhaseReport"));
    holds(
        "service_phase_report_fields",
        pub_fields(SCENARIO, "ServicePhaseReport"),
    );
    holds(
        "scenario_report_fields",
        pub_fields(SCENARIO, "ScenarioReport"),
    );
}

#[test]
fn the_controller_config_has_the_fields_the_ledger_says() {
    // Every controller setting is a field here and nowhere else: the
    // config builder's one setter is `geometry`, the engine builder's
    // `controller_config` takes the whole struct.
    holds(
        "controller_config_fields",
        pub_fields(CONTROLLER, "ControllerConfig"),
    );
}

#[test]
fn the_error_type_has_the_variants_the_ledger_says() {
    // Device and codec errors reach the host through the controller, as
    // `Ctrl(CtrlError::Nand(..) | CtrlError::Ecc(..))`: the engine
    // rejects a region past the device at registration, so no route
    // hands them over raw.
    holds("mlcx_error_variants", variants(ERROR, "MlcxError"));
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// What `count` finds in the whitespace-free source text, summed per
/// library source tree: the root `src/` and every `src/` under
/// `crates/`. Trees where it finds nothing are left out.
fn library_counts(count: impl Fn(&str) -> usize) -> BTreeMap<String, usize> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("crates"), &mut files);
    let mut counts = BTreeMap::new();
    for file in files {
        let rel = file.strip_prefix(root).expect("walk stays under the root");
        let rel = rel.to_str().expect("source paths are UTF-8");
        let Some(at) = rel.find("src/") else {
            continue; // a crate's tests/ or benches/
        };
        let text: String = std::fs::read_to_string(&file)
            .expect("source file reads")
            .split_whitespace()
            .collect();
        let found = count(&text);
        if found > 0 {
            *counts.entry(rel[..at + 3].to_string()).or_insert(0) += found;
        }
    }
    counts
}

/// Occurrences of any of `needles` in `text`.
fn occurrences(text: &str, needles: &[&str]) -> usize {
    needles.iter().map(|n| text.matches(n).count()).sum()
}

/// Clippy exceptions (`#[expect(clippy::..)]` / `#[allow(clippy::..)]`,
/// outer or inner, however rustfmt wrapped them) per library source tree.
fn clippy_exceptions() -> BTreeMap<String, usize> {
    library_counts(|text| occurrences(text, &["[expect(clippy::", "[allow(clippy::"]))
}

#[test]
fn the_lint_rules_are_switched_on_where_the_ledger_says() {
    let clippy_toml = include_str!("../clippy.toml");
    for key in [
        "\"std::collections::HashMap\"",
        "\"std::collections::HashSet\"",
        "\"std::time::Instant\"",
        "\"std::time::SystemTime\"",
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ] {
        assert!(clippy_toml.contains(key), "clippy.toml lost {key}");
    }

    // The three workspace-wide lints (a `pub` item the crate root cannot
    // reach is narrowed, not excepted); then, per member (the root
    // package is the empty path): the opt-in to them, the crate's unsafe
    // gate, and the scoped levels at its crate root.
    let manifest = include_str!("../Cargo.toml");
    assert!(manifest.contains("[workspace.lints.rust]\nunreachable_pub = \"deny\"\n"));
    for lint in [
        "undocumented_unsafe_blocks",
        "allow_attributes_without_reason",
    ] {
        assert!(manifest.contains(&format!("{lint} = \"deny\"")), "{lint}");
    }
    const FLOAT_CMP: &str = "#![cfg_attr(not(test), deny(clippy::float_cmp))]";
    const UNWRAP_FAMILY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: std::path::PathBuf| {
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
    };
    let (_, members) = manifest.split_once("members = [").expect("a workspace");
    let members = members.split(']').next().expect("split yields one piece");
    let members: Vec<&str> = members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .chain([""])
        .collect();
    assert_eq!(members.len(), 10);
    for member in members {
        let opt_in = read(root.join(member).join("Cargo.toml"));
        assert!(opt_in.contains("[lints]\nworkspace = true"), "{member}");
        let lib = read(root.join(member).join("src/lib.rs"));
        assert!(
            lib.contains("#![forbid(unsafe_code)]") || lib.contains("#![deny(unsafe_code)]"),
            "{member}: no unsafe_code gate"
        );
        // The compat crates stand in for external code and stay out of
        // the scoped rules.
        let ours = !member.starts_with("crates/compat/");
        assert_eq!(lib.contains(FLOAT_CMP), ours, "{member}: float_cmp");
        let datapath = ["crates/nand", "crates/controller", "crates/core"].contains(&member);
        assert_eq!(
            lib.contains(UNWRAP_FAMILY),
            datapath,
            "{member}: unwrap family"
        );
    }
}

#[test]
fn every_crate_has_the_public_items_the_ledger_says() {
    // The facade re-exports each crate whole (`mlcx::nand`, ...), so
    // every `pub` item below is public API: one more name a caller can
    // reach. Rows are `<kind>:<crate>`; a crate without items of a kind
    // has no row.
    for (kind, needles) in [
        ("pub_fns", &["pubfn"][..]),
        (
            "pub_types",
            &["pubstruct", "pubenum", "pubtrait", "pubtype"][..],
        ),
        ("pub_mods", &["pubmod"][..]),
    ] {
        let counted: BTreeMap<String, usize> = library_counts(|text| occurrences(text, needles))
            .into_iter()
            .map(|(tree, n)| {
                let name = tree.trim_end_matches("src").trim_end_matches('/');
                let name = name.trim_start_matches("crates/");
                let name = if name.is_empty() { "mlcx" } else { name };
                (format!("{kind}:{name}"), n)
            })
            .collect();
        let rows: BTreeMap<String, usize> = LEDGER
            .iter()
            .filter(|(name, _)| name.strip_prefix(kind).is_some_and(|r| r.starts_with(':')))
            .map(|&(name, n)| (name.to_string(), n))
            .collect();
        assert_eq!(counted, rows, "{kind}");
    }
}

#[test]
fn the_library_code_has_the_exceptions_the_ledger_says() {
    // The one panic site that stays (ROADMAP item 4(c) takes it to
    // zero): `NandDevice::with_config`'s geometry check. Removing it is
    // removing its entry.
    let expected = BTreeMap::from([("crates/nand/src".to_string(), pinned("expect_exceptions"))]);
    assert_eq!(clippy_exceptions(), expected);
}

#[test]
fn the_library_code_has_the_unsafe_the_ledger_says() {
    // All of it in `mlcx-gf2`'s `pclmulqdq` gate: the three intrinsic
    // blocks of its multiply-accumulate and the one call of the one
    // `#[target_feature]` function, which is the one `unsafe fn`.
    let expected = BTreeMap::from([("crates/gf2/src".to_string(), pinned("unsafe_blocks"))]);
    let blocks = library_counts(|text| occurrences(text, &["unsafe{"]));
    assert_eq!(blocks, expected, "unsafe blocks");
    let expected = BTreeMap::from([("crates/gf2/src".to_string(), pinned("unsafe_fns"))]);
    let fns = library_counts(|text| occurrences(text, &["unsafefn"]));
    assert_eq!(fns, expected, "unsafe fns");
}

#[test]
fn the_library_keeps_the_tallies_the_ledger_says() {
    // One metrics spine: the engine's completions and `BatchReport`, fed
    // by the report each operation returns below it. `FtlStats` is the
    // one lifetime tally left in library code (the FTL's only account);
    // `LevelStats` (one Monte-Carlo page's Vth distributions) and
    // `LatencyStats` (one report's percentiles) are results computed
    // once from a population, not counters kept across operations. A
    // second tally is an edit of a number here.
    let tallies = library_counts(|text| {
        text.split("pubstruct")
            .skip(1)
            .filter(|rest| {
                let name = rest
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .expect("split yields one piece");
                name.ends_with("Stats") || name.ends_with("Meter")
            })
            .count()
    });
    let expected = [
        "crates/controller/src",
        "crates/core/src",
        "crates/nand/src",
    ]
    .map(|tree| (tree.to_string(), 1));
    assert_eq!(tallies, BTreeMap::from(expected));
}

#[test]
fn no_target_of_the_workspace_excepts_a_banned_type() {
    // Joined here so this file, which the walk covers, holds no
    // occurrence of the lint's name itself.
    let lint = ["clippy::disallowed", "types"].join("_");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["src", "crates", "tests", "examples"] {
        rust_files(&root.join(tree), &mut files);
    }
    files.retain(|file| {
        std::fs::read_to_string(file)
            .expect("source file reads")
            .contains(&lint)
    });
    assert_eq!(files, Vec::<std::path::PathBuf>::new());
}
