//! The repo's static-analysis pass. Its gate is
//! `crates/check/tests/lint_tree.rs`, so plain `cargo test` runs it.
//!
//! A small Rust lexer (`lexer`) feeds a brace-aware item model (`model`:
//! function spans, `#[cfg(test)]` scoping, suppression markers), on which
//! six rules run. Each guards an invariant that neither the compiler nor
//! a runtime test sees:
//!
//! * **`unwrap`**: no `.unwrap()` / `.expect(` in library code outside
//!   `#[cfg(test)]` modules and `src/bin/` entrypoints. A panic in a
//!   rank thread poisons the collective state for every peer.
//! * **`serial-kernel`**: no direct serial `gemm`/`spmm` calls in
//!   `crates/core/src/dist/` where a `_with` ParallelCtx variant
//!   exists.
//! * **`raw-socket-io`**: comm-layer code never reads or writes a raw
//!   byte stream outside `frame.rs` — every wire byte passes through
//!   the framed codec's header validation.
//! * **`scalar-hot-loop`**: no raw per-element multiply-accumulate
//!   loops in `dense/src/` or `sparse/src/` outside the blessed
//!   microkernel modules (`gemm.rs`, `spmm.rs`, the `reference.rs`
//!   oracles). Scalar MAC loops silently forfeit the register-blocked
//!   kernels' throughput; route the math through them instead.
//! * **`lock-order`** (`locks`): the Mutex acquisition graph over
//!   `comm/src` must be acyclic, locks are never re-acquired while
//!   held, and `.lock().unwrap()` never bypasses the blessed
//!   poison-recovering helpers.
//! * **`unknown-allow`**: a suppression marker naming a rule that does
//!   not exist — a typo'd marker would otherwise suppress nothing,
//!   silently.
//!
//! Suppress a finding with `// lint:allow(<rule>): <reason>` on the
//! offending line or the line above it. Markers only count inside
//! comments.

mod lexer;
mod locks;
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
    /// Serial kernel call in `dist/` where a `_with` variant exists.
    SerialKernelInDist,
    /// Raw byte-stream read/write in `comm/src/` outside `frame.rs`.
    RawSocketIo,
    /// A `lint:allow(...)` marker naming a rule that does not exist.
    UnknownAllow,
    /// Cyclic or re-entrant Mutex acquisition, or an unblessed
    /// `.lock().unwrap()`.
    LockOrder,
    /// Raw per-element multiply-accumulate loop in `dense/src/` or
    /// `sparse/src/` outside the blessed microkernel modules.
    ScalarHotLoop,
}

impl Rule {
    /// The marker name used in `lint:allow(<name>)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapInLib => "unwrap",
            Rule::SerialKernelInDist => "serial-kernel",
            Rule::RawSocketIo => "raw-socket-io",
            Rule::UnknownAllow => "unknown-allow",
            Rule::LockOrder => "lock-order",
            Rule::ScalarHotLoop => "scalar-hot-loop",
        }
    }

    /// All rules, for marker validation and docs.
    pub fn all() -> [Rule; 6] {
        [
            Rule::UnwrapInLib,
            Rule::SerialKernelInDist,
            Rule::RawSocketIo,
            Rule::UnknownAllow,
            Rule::LockOrder,
            Rule::ScalarHotLoop,
        ]
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
    /// Under `core/src/dist/` — the serial-kernel rule applies.
    pub is_dist: bool,
    /// Under `comm/src/` — lock-order analysis applies.
    pub is_comm: bool,
    /// Under `comm/src/` but not `frame.rs` — raw-I/O rule applies.
    pub is_comm_nonframe: bool,
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
            is_dist: norm.contains("core/src/dist/"),
            is_comm: norm.contains("comm/src/"),
            is_comm_nonframe: norm.contains("comm/src/") && !norm.ends_with("frame.rs"),
            is_kernel_hot: is_kernel_crate && !is_blessed,
        }
    }
}

/// One parsed source file plus its path scoping, as consumed by the
/// cross-file lock-order analysis.
pub(crate) struct SourceFile<'s> {
    pub flags: PathFlags,
    pub model: FileModel<'s>,
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

/// Lint a set of sources as one unit. The lock-order analysis sees the
/// whole set; per-file rules run on each file. Findings come back sorted
/// by (file, line, col) and deduplicated by (rule, file, line, col).
pub fn lint_sources(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile<'_>> = files
        .iter()
        .filter(|(p, _)| p.to_string_lossy().ends_with(".rs"))
        .map(|(p, content)| SourceFile {
            flags: PathFlags::new(p),
            model: FileModel::new(content),
        })
        .collect();
    let mut out = Vec::new();
    for sf in &parsed {
        rules::run(&sf.model, &sf.flags, &mut out);
        check_allow_markers(&sf.model, &sf.flags, &mut out);
    }
    locks::run(&parsed, &mut out);

    out.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    out.dedup_by(|a, b| (a.rule, &a.file, a.line, a.col) == (b.rule, &b.file, b.line, b.col));
    out
}

/// Lint a single file's content. `path` is used for scoping decisions
/// (library vs binary, `dist/`, `comm/src/`) and for reporting.
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

    // ---- serial-kernel -------------------------------------------------

    #[test]
    fn flags_serial_kernel_in_dist() {
        let path = "crates/core/src/dist/onedim.rs";
        let v = lint(path, "fn f() { let z = matmul(&t, &w); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SerialKernelInDist);
        assert!(lint(
            path,
            "fn f() { let z = matmul_with(ctx.parallel(), &t, &w); }\n"
        )
        .is_empty());
        assert!(lint(
            path,
            "fn f() { spmm_acc_with(ctx.parallel(), &a, &h, &mut t); }\n"
        )
        .is_empty());
        assert!(lint(path, "fn f() { ctx.charge_spmm(a.nnz(), a.rows(), f); }\n").is_empty());
    }

    #[test]
    fn serial_kernel_outside_dist_is_fine() {
        assert!(lint(
            "crates/core/src/serial.rs",
            "fn f() { let z = matmul(&t, &w); }\n"
        )
        .is_empty());
    }

    // ---- raw-socket-io -------------------------------------------------

    #[test]
    fn flags_raw_socket_io_in_comm() {
        let path = "crates/comm/src/sock.rs";
        for call in [
            "fn f() { stream.read_exact(&mut header); }\n",
            "fn f() { let n = stream.read(&mut buf); }\n",
            "fn f() { stream.read_to_end(&mut body); }\n",
            "fn f() { writer.write_all(&bytes); }\n",
            "fn f() { let n = writer.write(&bytes); }\n",
        ] {
            let v = lint(path, call);
            assert_eq!(v.len(), 1, "for {call}");
            assert_eq!(v[0].rule, Rule::RawSocketIo);
        }
    }

    #[test]
    fn frame_rs_may_do_raw_io() {
        let src = "fn f() { r.read_exact(&mut header); w.write_all(&body); }\n";
        assert!(lint("crates/comm/src/frame.rs", src).is_empty());
    }

    #[test]
    fn raw_io_outside_comm_is_fine() {
        assert!(lint(
            "crates/bench/src/lib.rs",
            "fn f() { file.write_all(json.as_bytes()); }\n"
        )
        .is_empty());
    }

    #[test]
    fn framed_calls_in_comm_pass() {
        let path = "crates/comm/src/sock.rs";
        let src = "fn f() { let frame = frame::read_frame(&mut stream); frame::write_frame(&mut w, kind, &body); }\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn raw_socket_io_allow_marker_suppresses() {
        let path = "crates/comm/src/sock.rs";
        let src =
            "fn f() {\n// lint:allow(raw-socket-io): probing liveness, no payload\nstream.read(&mut probe);\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn raw_socket_io_in_comm_tests_is_exempt() {
        let path = "crates/comm/src/sock.rs";
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { s.read_exact(&mut b).unwrap(); }\n}\n";
        assert!(lint(path, src).is_empty());
    }

    // ---- lock-order ----------------------------------------------------

    const COMM: &str = "crates/comm/src/hub.rs";

    #[test]
    fn inverted_lock_pair_is_a_cycle() {
        let src = "\
impl Hub {
    fn a(&self) {
        let g = lock(&self.states);
        let h = lock(&self.history);
    }
    fn b(&self) {
        let g = lock(&self.history);
        let h = lock(&self.states);
    }
}
";
        let v = lint(COMM, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert!(v[0].message.contains("cyclic"), "{}", v[0].message);
    }

    #[test]
    fn consistent_lock_order_passes() {
        let src = "\
impl Hub {
    fn a(&self) {
        let g = lock(&self.states);
        let h = lock(&self.history);
    }
    fn b(&self) {
        let g = lock(&self.states);
        let h = lock(&self.history);
    }
}
";
        assert!(lint(COMM, src).is_empty());
    }

    #[test]
    fn drop_releases_before_second_acquire() {
        // a: states then (after drop) history; b: history then states.
        // Without the drop this would be a cycle; with it there is no
        // states→history edge.
        let src = "\
impl Hub {
    fn a(&self) {
        let g = lock(&self.states);
        drop(g);
        let h = lock(&self.history);
    }
    fn b(&self) {
        let g = lock(&self.history);
        let h = lock(&self.states);
    }
}
";
        assert!(lint(COMM, src).is_empty());
    }

    #[test]
    fn block_scope_releases_guard() {
        let src = "\
impl Hub {
    fn a(&self) {
        {
            let g = lock(&self.states);
        }
        let h = lock(&self.history);
    }
    fn b(&self) {
        let g = lock(&self.history);
        let h = lock(&self.states);
    }
}
";
        assert!(lint(COMM, src).is_empty());
    }

    #[test]
    fn reacquire_via_callee_is_flagged() {
        let src = "\
impl Hub {
    fn outer(&self) {
        let g = self.state.lock().unwrap_or_else(recover);
        self.helper();
    }
    fn helper(&self) {
        let g = self.state.lock().unwrap_or_else(recover);
    }
}
";
        let v = lint(COMM, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert!(v[0].message.contains("re-acquires"), "{}", v[0].message);
    }

    #[test]
    fn guard_returning_helper_holds_at_call_site() {
        // `self.lock()` returns a MutexGuard over `state`; calling it
        // twice without dropping is a deterministic deadlock.
        let src = "\
impl Hub {
    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(recover)
    }
    fn double(&self) {
        let a = self.lock();
        let b = self.lock();
    }
}
";
        let v = lint(COMM, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert!(v[0].message.contains("already held"), "{}", v[0].message);
    }

    #[test]
    fn lock_unwrap_outside_blessed_helpers_is_flagged() {
        let src = "fn f(&self) { let g = self.state.lock().unwrap(); }\n";
        let v = lint(COMM, src);
        assert!(
            v.iter()
                .any(|f| f.rule == Rule::LockOrder && f.message.contains("poisoning")),
            "{v:?}"
        );
        // Poison-recovering forms pass the lock-order rule.
        let ok =
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(lint(COMM, ok).iter().all(|f| f.rule != Rule::LockOrder));
    }

    #[test]
    fn lock_order_outside_comm_is_not_analyzed() {
        let src = "\
fn a(&self) { let g = lock(&self.x); let h = lock(&self.y); }
fn b(&self) { let g = lock(&self.y); let h = lock(&self.x); }
";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
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
