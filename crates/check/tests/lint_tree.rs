//! The lint gate: the real repository must lint clean. CI runs it as
//! part of `cargo test`, so a regression in either the sources or the
//! engine fails the test suite.

use std::path::PathBuf;

use cagnet_check::lint;

#[test]
fn repository_lints_clean() {
    // crates/check/../.. is the workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let findings = lint::lint_tree(&root).expect("scan crates/*/src");
    assert!(
        findings.is_empty(),
        "lint findings on the tree (fix, or add `// lint:allow(<rule>): <reason>`):\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
