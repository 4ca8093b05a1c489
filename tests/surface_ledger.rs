//! The option surface, pinned as exact counts.
//!
//! ROADMAP item 1(a)'s "facade re-export count, builder-setter count"
//! ledger columns, kept by the test suite: every name the `mlcx` facade
//! re-exports and every setter of the three builders is one more thing a
//! user can reach and a test matrix must cover, so adding one is a
//! deliberate edit of a number here, not a side effect.
//!
//! Counted from the source text: rustfmt's layout (`pub use a::{B, C};`,
//! one `pub fn` signature up to its `{`) is what the parsing relies on,
//! and CI runs `cargo fmt --check`.

const FACADE: &str = include_str!("../src/lib.rs");
const ENGINE: &str = include_str!("../crates/core/src/engine.rs");
const CONTROLLER: &str = include_str!("../crates/controller/src/controller.rs");
const SCENARIO: &str = include_str!("../crates/core/src/sim/scenario.rs");

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

/// `pub fn`s of `impl <builder> { .. }` that take the builder by value
/// and hand it back (`(self, ..) -> Self` / `(mut self, ..) -> Self`).
fn setters(source: &str, builder: &str) -> usize {
    let start = source
        .find(&format!("\nimpl {builder} {{"))
        .unwrap_or_else(|| panic!("no `impl {builder}` block"));
    let block = &source[start..];
    let block = &block[..block.find("\n}\n").expect("impl block closes")];
    block
        .split("pub fn ")
        .skip(1)
        .map(|f| {
            let signature = f.split('{').next().expect("split yields one piece");
            signature.split_whitespace().collect::<String>()
        })
        .filter(|sig| {
            (sig.contains("(self,") || sig.contains("(mutself,")) && sig.ends_with("->Self")
        })
        .count()
}

#[test]
fn the_facade_reexports_what_the_ledger_says() {
    assert_eq!(reexported_names(FACADE), 62);
}

#[test]
fn the_builders_have_the_setters_the_ledger_says() {
    assert_eq!(setters(ENGINE, "EngineBuilder"), 8);
    assert_eq!(setters(CONTROLLER, "ControllerConfigBuilder"), 7);
    assert_eq!(setters(SCENARIO, "ScenarioBuilder"), 10);
}
