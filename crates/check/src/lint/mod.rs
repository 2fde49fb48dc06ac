//! The repo's static-analysis pass. Its gate is
//! `crates/check/tests/lint_tree.rs`, so plain `cargo test` runs it.
//!
//! A small Rust lexer (`lexer`) feeds a file model (`model`: line table,
//! `#[cfg(test)]` scoping, suppression markers), on which three rules
//! run. Each guards an invariant that neither the compiler nor a runtime
//! test sees:
//!
//! * **`unwrap`**: no `.unwrap()` / `.expect(` in library code outside
//!   `#[cfg(test)]` modules and `src/bin/` entrypoints. A panic in a
//!   rank thread poisons the collective state for every peer.
//! * **`scalar-hot-loop`**: no raw per-element multiply-accumulate
//!   loops in `dense/src/` or `sparse/src/` outside the blessed
//!   microkernel modules (`gemm.rs`, `spmm.rs`, the `reference.rs`
//!   oracles). Scalar MAC loops silently forfeit the register-blocked
//!   kernels' throughput; route the math through them instead.
//! * **`unknown-allow`**: a suppression marker naming a rule that does
//!   not exist — a typo'd marker would otherwise suppress nothing,
//!   silently.
//!
//! What the code cannot express needs no rule: every GEMM / SpMM kernel
//! takes a `ParallelCtx` (no serial twin exists to call by mistake),
//! comm code holds sockets as `frame::Conn`, which has no raw reads or
//! writes, and every comm lock is a `Lock` that panics when a second one
//! is taken on the same thread (DESIGN.md §12).
//!
//! Suppress a finding with `// lint:allow(<rule>): <reason>` on the
//! offending line or the line above it. Markers only count inside
//! comments.

mod lexer;
mod model;
mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Span;
use model::FileModel;

/// Which invariant a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` in library code outside tests.
    UnwrapInLib,
    /// A `lint:allow(...)` marker naming a rule that does not exist.
    UnknownAllow,
    /// Raw per-element multiply-accumulate loop in `dense/src/` or
    /// `sparse/src/` outside the blessed microkernel modules.
    ScalarHotLoop,
}

impl Rule {
    /// The marker name used in `lint:allow(<name>)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapInLib => "unwrap",
            Rule::UnknownAllow => "unknown-allow",
            Rule::ScalarHotLoop => "scalar-hot-loop",
        }
    }

    /// All rules, for marker validation and docs.
    pub fn all() -> [Rule; 3] {
        [Rule::UnwrapInLib, Rule::UnknownAllow, Rule::ScalarHotLoop]
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the finding is in (as passed to the linter).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based (byte) column number.
    pub col: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// Path-derived scoping decisions for one file.
pub(crate) struct PathFlags {
    /// The path as given.
    pub path: PathBuf,
    /// Under `src/bin/` — binaries may unwrap.
    pub is_bin: bool,
    /// Under `dense/src/` or `sparse/src/` but outside the blessed
    /// microkernel modules — the scalar-hot-loop rule applies.
    pub is_kernel_hot: bool,
}

/// The modules allowed to spell out per-element multiply-accumulate
/// loops: the register-blocked kernels themselves and the
/// transparently-slow reference oracles they are tested against.
const BLESSED_KERNEL_MODULES: [&str; 4] = [
    "dense/src/gemm.rs",
    "dense/src/reference.rs",
    "sparse/src/spmm.rs",
    "sparse/src/reference.rs",
];

impl PathFlags {
    fn new(path: &Path) -> PathFlags {
        let norm = path.to_string_lossy().replace('\\', "/");
        let is_kernel_crate = norm.contains("dense/src/") || norm.contains("sparse/src/");
        let is_blessed = BLESSED_KERNEL_MODULES.iter().any(|b| norm.ends_with(b));
        PathFlags {
            path: path.to_path_buf(),
            is_bin: norm.contains("/src/bin/"),
            is_kernel_hot: is_kernel_crate && !is_blessed,
        }
    }
}

/// Build a finding at `span`.
pub(crate) fn finding(
    m: &FileModel<'_>,
    flags: &PathFlags,
    span: Span,
    rule: Rule,
    message: String,
) -> Finding {
    Finding {
        file: flags.path.clone(),
        line: m.line_of(span.start),
        col: m.col_of(span.start),
        rule,
        message,
    }
}

/// Unknown `lint:allow` names are findings themselves: a typo'd marker
/// silently suppresses nothing.
fn check_allow_markers(m: &FileModel<'_>, flags: &PathFlags, out: &mut Vec<Finding>) {
    for a in &m.allows {
        if Rule::all().iter().any(|r| r.name() == a.name) {
            continue;
        }
        if m.in_test(a.span.start) {
            continue;
        }
        if m.allow_on(a.line, Rule::UnknownAllow.name()) {
            continue;
        }
        out.push(finding(
            m,
            flags,
            a.span,
            Rule::UnknownAllow,
            format!(
                "`lint:allow({})` names an unknown rule — this marker suppresses nothing",
                a.name
            ),
        ));
    }
}

/// Lint a set of sources, each file on its own. Findings come back
/// sorted by (file, line, col) and deduplicated by (rule, file, line,
/// col).
pub fn lint_sources(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (path, content) in files {
        if !path.to_string_lossy().ends_with(".rs") {
            continue;
        }
        let flags = PathFlags::new(path);
        let model = FileModel::new(content);
        rules::run(&model, &flags, &mut out);
        check_allow_markers(&model, &flags, &mut out);
    }

    out.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    out.dedup_by(|a, b| (a.rule, &a.file, a.line, a.col) == (b.rule, &b.file, b.line, b.col));
    out
}

/// Lint a single file's content. `path` is used for scoping decisions
/// (library vs binary, kernel crates) and for reporting.
pub fn lint_file(path: &Path, content: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_path_buf(), content.to_string())])
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src/**/*.rs` under `repo_root`. Paths in the
/// returned findings are relative to `repo_root`.
pub fn lint_tree(repo_root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = repo_root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let content = fs::read_to_string(&file)?;
        let rel = file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf();
        sources.push((rel, content));
    }
    Ok(lint_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, content: &str) -> Vec<Finding> {
        lint_file(Path::new(path), content)
    }

    const LIB: &str = "crates/foo/src/lib.rs";

    // ---- unwrap --------------------------------------------------------

    #[test]
    fn flags_unwrap_in_lib() {
        let v = lint(LIB, "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn flags_expect_in_lib() {
        let v = lint(
            LIB,
            "fn f() { let g = m.recover().expect(\"poisoned\"); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
    }

    #[test]
    fn allow_marker_suppresses() {
        let same = "fn f() { let x = o.unwrap(); } // lint:allow(unwrap): infallible here\n";
        assert!(lint(LIB, same).is_empty());
        let above = "// lint:allow(unwrap): checked by caller\nfn f() { let x = o.unwrap(); }\n";
        assert!(lint(LIB, above).is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let src = "fn lib_code() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint(LIB, src).is_empty());
    }

    #[test]
    fn code_after_test_mod_is_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn bins_are_exempt_from_unwrap() {
        assert!(lint(
            "crates/bench/src/bin/runner.rs",
            "fn main() { let p: usize = arg.parse().unwrap(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_count() {
        assert!(lint(LIB, "// don't .unwrap() in lib code\n").is_empty());
        assert!(lint(LIB, "fn f() { let s = \"never .unwrap() it\"; }\n").is_empty());
        assert!(lint(LIB, "/// docs about .expect( behavior\nfn g() {}\n").is_empty());
    }

    #[test]
    fn lock_unwrap_outside_blessed_helpers_is_flagged() {
        // Comm locks recover from poisoning inside `Lock`; a bare
        // `.lock().unwrap()` anywhere in library code is an `unwrap`
        // finding.
        let comm = "crates/comm/src/hub.rs";
        let v = lint(
            comm,
            "fn f(&self) { let g = self.state.lock().unwrap(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
        let ok =
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(lint(comm, ok).is_empty());
    }

    // ---- lexing: the old line scanner's false states ------------------

    #[test]
    fn char_literal_quote_does_not_poison_line() {
        // `'"'` used to open string-tracking for the rest of the line,
        // hiding the `.unwrap()` after it.
        let src = "fn f() { let c = '\"'; x.unwrap(); }\n";
        let v = lint(LIB, src);
        assert_eq!(v.len(), 1, "unwrap after '\"' char literal must be seen");
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
    }

    #[test]
    fn raw_strings_are_not_scanned_as_code() {
        let src = "fn f() { let s = r\"x.unwrap()\"; let t = r#\"y.expect(\"oops\")\"#; }\n";
        assert!(lint(LIB, src).is_empty());
    }

    #[test]
    fn block_comments_are_not_code() {
        let src = "fn f() { /* a.unwrap() inside /* nested */ comment */ }\n";
        assert!(lint(LIB, src).is_empty());
    }

    // ---- unknown-allow -------------------------------------------------

    #[test]
    fn unknown_allow_name_is_a_finding() {
        let src = "fn f() {} // lint:allow(unwrp): typo'd\n";
        let v = lint(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnknownAllow);
    }

    #[test]
    fn marker_inside_string_does_not_suppress() {
        let src = "fn f() { let s = \"lint:allow(unwrap)\"; x.unwrap(); }\n";
        let v = lint(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
    }

    #[test]
    fn doc_placeholder_is_not_an_unknown_allow() {
        // `lint:allow(<rule>)` in docs is not marker syntax at all.
        let src = "//! Suppress with `lint:allow(<rule>): reason`.\nfn f() {}\n";
        assert!(lint(LIB, src).is_empty());
    }

    // ---- scalar-hot-loop -----------------------------------------------

    const KERNEL_HOT: &str = "crates/dense/src/ops.rs";

    #[test]
    fn flags_indexed_mac_loop_outside_blessed_modules() {
        let src = "\
fn naive(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] += a[i] * b[j];
        }
    }
}
";
        let v = lint(KERNEL_HOT, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ScalarHotLoop);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn flags_deref_store_mac_loop() {
        let src = "\
fn axpy_rows(crow: &mut [f64], brow: &[f64], aval: f64) {
    for (cj, &bval) in crow.iter_mut().zip(brow) {
        *cj += aval * bval;
    }
}
";
        let v = lint(KERNEL_HOT, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ScalarHotLoop);
    }

    #[test]
    fn blessed_microkernel_modules_are_exempt() {
        let src = "\
fn micro(c: &mut [f64], a: &[f64], b: &[f64]) {
    for j in 0..8 {
        c[j] += a[j] * b[j];
    }
}
";
        for blessed in [
            "crates/dense/src/gemm.rs",
            "crates/dense/src/reference.rs",
            "crates/sparse/src/spmm.rs",
            "crates/sparse/src/reference.rs",
        ] {
            assert!(lint(blessed, src).is_empty(), "{blessed} must be blessed");
        }
        // The same loop in a non-kernel crate is also out of scope.
        assert!(lint("crates/core/src/gcn.rs", src).is_empty());
    }

    #[test]
    fn scalar_offset_arithmetic_passes() {
        // No element access on either side: index bookkeeping, not a
        // per-element MAC.
        let src = "\
fn walk(rows: usize, stride: usize) -> usize {
    let mut off = 0;
    for i in 0..rows {
        off += i * stride;
    }
    off
}
";
        assert!(lint(KERNEL_HOT, src).is_empty());
    }

    #[test]
    fn mac_outside_any_loop_passes() {
        let src = "fn fma1(c: &mut [f64], a: f64, b: f64) { c[0] += a * b; }\n";
        assert!(lint(KERNEL_HOT, src).is_empty());
    }

    #[test]
    fn deref_rhs_without_multiply_passes() {
        let src = "\
fn accumulate(c: &mut [f64], parts: &[f64]) {
    for (i, p) in parts.iter().enumerate() {
        c[i] += *p;
    }
}
";
        assert!(lint(KERNEL_HOT, src).is_empty());
    }

    #[test]
    fn impl_for_blocks_are_not_loops() {
        // `impl … for T { … }` and HRTB `for<'a>` must not be mistaken
        // for loop bodies.
        let src = "\
impl AddMul for Acc {
    fn step(&mut self, c: &mut [f64], a: f64, b: f64) {
        c[0] += a * b;
    }
}
";
        assert!(lint(KERNEL_HOT, src).is_empty());
    }

    #[test]
    fn scalar_hot_loop_allow_marker_and_tests_are_exempt() {
        let allowed = "\
fn special(c: &mut [f64], a: &[f64], b: &[f64]) {
    for j in 0..c.len() {
        // lint:allow(scalar-hot-loop): pattern-dependent fold order
        c[j] += a[j] * b[j];
    }
}
";
        assert!(lint(KERNEL_HOT, allowed).is_empty());
        let in_test = "\
#[cfg(test)]
mod tests {
    fn oracle(c: &mut [f64], a: &[f64], b: &[f64]) {
        for j in 0..c.len() {
            c[j] += a[j] * b[j];
        }
    }
}
";
        assert!(lint(KERNEL_HOT, in_test).is_empty());
    }

    #[test]
    fn sparse_crate_is_covered_by_scalar_hot_loop() {
        let src = "\
fn scatter(c: &mut [f64], vals: &[f64], idx: &[usize], x: f64) {
    for (k, &j) in idx.iter().enumerate() {
        c[j] += vals[k] * x;
    }
}
";
        let v = lint("crates/sparse/src/coo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ScalarHotLoop);
    }
}
