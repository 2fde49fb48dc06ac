//! The repo's static-analysis pass, run via
//! `cargo run -p xtask -- lint`.
//!
//! A small Rust lexer ([`lexer`]) feeds a brace-aware item model
//! ([`model`]: function spans, `#[cfg(test)]` scoping, match-arm
//! segmentation), on which two layers run:
//!
//! **Token rules** (`rules`) — the five source-level invariants the
//! compiler cannot see:
//!
//! * **`unwrap`**: no `.unwrap()` / `.expect(` in library code outside
//!   `#[cfg(test)]` modules and `src/bin/` entrypoints. A panic in a
//!   rank thread poisons the collective state for every peer.
//! * **`serial-kernel`**: no direct serial `gemm`/`spmm` calls in
//!   `crates/core/src/dist/` where a `_with` ParallelCtx variant
//!   exists.
//! * **`uncategorized-collective`**: every collective call site in
//!   `crates/core/src/` must name a `Cat::` cost category in the same
//!   call, so the α–β accounting behind every figure cannot drift.
//!   A call that never closes its parenthesis is an
//!   **`unbalanced-call`** finding, not a silent pass.
//! * **`unwaited-pending`**: every function in `crates/core/src/dist/`
//!   that issues a nonblocking collective must `.wait(` on it, return
//!   the `PendingOp`/`Fetch` to its caller, and never discard one into
//!   `let _`.
//! * **`raw-socket-io`**: comm-layer code never reads or writes a raw
//!   byte stream outside `frame.rs` — every wire byte passes through
//!   the framed codec's header validation.
//! * **`scalar-hot-loop`**: no raw per-element multiply-accumulate
//!   loops in `dense/src/` or `sparse/src/` outside the blessed
//!   microkernel modules (`gemm.rs`, `spmm.rs`, the `reference.rs`
//!   oracles). Scalar MAC loops silently forfeit the register-blocked
//!   kernels' throughput; route the math through them instead.
//!
//! **Semantic analyses** — the invariants behind the runtime
//! bit-identity and deadlock tests, checked statically:
//!
//! * **`collective-order`** ([`order`]): `CommMode` sibling arms in
//!   `crates/core/src/dist/` must issue identical normalized collective
//!   kind-sequences, and a `Cached` arm's serve branch none at all.
//! * **`lock-order`** ([`locks`]): the Mutex acquisition graph over
//!   `comm/src` must be acyclic, locks are never re-acquired while
//!   held, and `.lock().unwrap()` never bypasses the blessed
//!   poison-recovering helpers.
//! * **`frame-exhaustiveness`** ([`frames`]): every `FrameKind`
//!   variant is handled in a dispatch match in `proc.rs`, and every
//!   wire-precision tag (`Precision` variant) declared in `frame.rs`
//!   is handled by the pack/widen/codec matches in `frame.rs` itself.
//!
//! Suppress a finding with `// lint:allow(<rule>): <reason>` on the
//! offending line or the line above it. Markers only count inside
//! comments, and a marker naming an unknown rule is itself an
//! **`unknown-allow`** finding. Accepted findings can also live in a
//! committed baseline file (see [`apply_baseline`]); `xtask lint`
//! fails only on findings not covered by it.

pub mod lexer;
pub mod model;

mod frames;
mod locks;
mod order;
mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Span;
use model::FileModel;

/// How serious a finding is. `Error` findings fail the lint gate;
/// `Warning` findings are reported (and baselineable) but still fail
/// the gate when fresh — they are warnings in the sense of "likely but
/// not certainly a defect".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Invariant violation.
    Error,
    /// Suspicious construct (typo'd suppression, unbalanced call).
    Warning,
}

impl Severity {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Which invariant a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` in library code outside tests.
    UnwrapInLib,
    /// Serial kernel call in `dist/` where a `_with` variant exists.
    SerialKernelInDist,
    /// Collective call without a `Cat::` cost category.
    UncategorizedCollective,
    /// Nonblocking collective issued but never waited/returned, or
    /// discarded into `let _`.
    UnwaitedPending,
    /// Raw byte-stream read/write in `comm/src/` outside `frame.rs`.
    RawSocketIo,
    /// A collective call whose parentheses never balance — the
    /// category check cannot run on it.
    UnbalancedCall,
    /// A `lint:allow(...)` marker naming a rule that does not exist.
    UnknownAllow,
    /// Sibling branches issue different collective kind-sequences.
    CollectiveOrder,
    /// Cyclic or re-entrant Mutex acquisition, or an unblessed
    /// `.lock().unwrap()`.
    LockOrder,
    /// A `FrameKind` variant with no dispatch match arm in `proc.rs`,
    /// or a `Precision` wire tag with no codec match arm in `frame.rs`.
    FrameExhaustiveness,
    /// Raw per-element multiply-accumulate loop in `dense/src/` or
    /// `sparse/src/` outside the blessed microkernel modules.
    ScalarHotLoop,
}

impl Rule {
    /// The marker name used in `lint:allow(<name>)` suppressions and
    /// baseline entries.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapInLib => "unwrap",
            Rule::SerialKernelInDist => "serial-kernel",
            Rule::UncategorizedCollective => "uncategorized-collective",
            Rule::UnwaitedPending => "unwaited-pending",
            Rule::RawSocketIo => "raw-socket-io",
            Rule::UnbalancedCall => "unbalanced-call",
            Rule::UnknownAllow => "unknown-allow",
            Rule::CollectiveOrder => "collective-order",
            Rule::LockOrder => "lock-order",
            Rule::FrameExhaustiveness => "frame-exhaustiveness",
            Rule::ScalarHotLoop => "scalar-hot-loop",
        }
    }

    /// Default severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::UnbalancedCall | Rule::UnknownAllow => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// All rules, for marker validation and docs.
    pub fn all() -> [Rule; 11] {
        [
            Rule::UnwrapInLib,
            Rule::SerialKernelInDist,
            Rule::UncategorizedCollective,
            Rule::UnwaitedPending,
            Rule::RawSocketIo,
            Rule::UnbalancedCall,
            Rule::UnknownAllow,
            Rule::CollectiveOrder,
            Rule::LockOrder,
            Rule::FrameExhaustiveness,
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
    /// Byte span of the offending token(s).
    pub span: (usize, usize),
    /// Violated rule.
    pub rule: Rule,
    /// Severity of this finding.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.severity.name(),
            self.rule.name(),
            self.message
        )
    }
}

/// Backwards-compatible alias: the pre-token-engine name for a finding.
pub type Violation = Finding;

/// Path-derived scoping decisions for one file.
pub(crate) struct PathFlags {
    /// The path as given.
    pub path: PathBuf,
    /// Forward-slash normalized path string.
    pub norm: String,
    /// Under `src/bin/` — binaries may unwrap.
    pub is_bin: bool,
    /// Under `core/src/dist/` — trainer rules apply.
    pub is_dist: bool,
    /// Under `core/src/` — collective-category rule applies.
    pub is_core: bool,
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
            is_core: norm.contains("core/src/"),
            is_comm: norm.contains("comm/src/"),
            is_comm_nonframe: norm.contains("comm/src/") && !norm.ends_with("frame.rs"),
            is_kernel_hot: is_kernel_crate && !is_blessed,
            norm,
        }
    }
}

/// One parsed source file plus its path scoping, as consumed by the
/// cross-file analyses.
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
        span: (span.start, span.end),
        rule,
        severity: rule.severity(),
        message,
        excerpt: m.line_text(span.start).to_string(),
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

/// Lint a set of sources as one unit. Cross-file analyses (lock-order,
/// frame-exhaustiveness) see the whole set; per-file rules run on each
/// file. Findings come back sorted by (file, line, col) and deduplicated
/// by (rule, file, span).
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
        order::run(&sf.model, &sf.flags, &mut out);
        check_allow_markers(&sf.model, &sf.flags, &mut out);
    }
    locks::run(&parsed, &mut out);
    frames::run(&parsed, &mut out);

    out.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    out.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.span.0 == b.span.0);
    out
}

/// Lint a single file's content. `path` is used for scoping decisions
/// (library vs binary, `dist/`, `core/src/`) and for reporting.
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

/// The outcome of matching findings against a baseline file.
pub struct BaselinedReport {
    /// Findings not covered by the baseline — these fail the gate.
    pub fresh: Vec<Finding>,
    /// Findings covered by a baseline entry.
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched no finding (fixed or moved);
    /// rendered as `rule<TAB>file<TAB>excerpt` lines.
    pub stale: Vec<String>,
}

/// Match `findings` against a baseline file's text. Baseline lines are
/// `rule<TAB>file<TAB>excerpt` (`#` comments and blank lines ignored);
/// matching is by multiset on exactly those three fields, so findings
/// survive unrelated line-number drift but not content changes.
pub fn apply_baseline(findings: Vec<Finding>, baseline_text: &str) -> BaselinedReport {
    let mut budget: Vec<(String, usize)> = Vec::new();
    for line in baseline_text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some(slot) = budget.iter_mut().find(|(k, _)| k == t) {
            slot.1 += 1;
        } else {
            budget.push((t.to_string(), 1));
        }
    }
    let mut fresh = Vec::new();
    let mut baselined = Vec::new();
    for f in findings {
        let key = baseline_key(&f);
        match budget.iter_mut().find(|(k, n)| *n > 0 && *k == key) {
            Some(slot) => {
                slot.1 -= 1;
                baselined.push(f);
            }
            None => fresh.push(f),
        }
    }
    let stale = budget
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .flat_map(|(k, n)| std::iter::repeat_n(k, n))
        .collect();
    BaselinedReport {
        fresh,
        baselined,
        stale,
    }
}

/// The baseline line for one finding.
pub fn baseline_key(f: &Finding) -> String {
    format!(
        "{}\t{}\t{}",
        f.rule.name(),
        f.file.to_string_lossy().replace('\\', "/"),
        f.excerpt
    )
}

/// Render findings as a baseline file body.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# Accepted lint findings (rule<TAB>file<TAB>excerpt).\n\
         # Regenerate with: cargo run -p xtask -- lint --write-baseline\n",
    );
    for f in findings {
        out.push_str(&baseline_key(f));
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_finding(f: &Finding, baselined: bool) -> String {
    format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"column\":{},\"span\":[{},{}],\"message\":\"{}\",\"excerpt\":\"{}\",\"baselined\":{}}}",
        f.rule.name(),
        f.severity.name(),
        json_escape(&f.file.to_string_lossy().replace('\\', "/")),
        f.line,
        f.col,
        f.span.0,
        f.span.1,
        json_escape(&f.message),
        json_escape(&f.excerpt),
        baselined
    )
}

/// Render a machine-readable report. Schema (version 1):
///
/// ```json
/// {
///   "version": 1,
///   "tool": "cagnet-xtask-lint",
///   "root": "<repo root as given>",
///   "counts": {"total": N, "fresh": N, "baselined": N,
///              "error": N, "warning": N},
///   "findings": [{"rule", "severity", "file", "line", "column",
///                 "span": [start, end], "message", "excerpt",
///                 "baselined"}],
///   "stale_baseline": ["rule\tfile\texcerpt", …]
/// }
/// ```
pub fn render_json(root: &str, rep: &BaselinedReport) -> String {
    let total = rep.fresh.len() + rep.baselined.len();
    let all = rep
        .fresh
        .iter()
        .map(|f| (f, false))
        .chain(rep.baselined.iter().map(|f| (f, true)));
    let errors = rep
        .fresh
        .iter()
        .chain(rep.baselined.iter())
        .filter(|f| f.severity == Severity::Error)
        .count();
    let findings: Vec<String> = all.map(|(f, b)| json_finding(f, b)).collect();
    let stale: Vec<String> = rep
        .stale
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!(
        "{{\"version\":1,\"tool\":\"cagnet-xtask-lint\",\"root\":\"{}\",\"counts\":{{\"total\":{},\"fresh\":{},\"baselined\":{},\"error\":{},\"warning\":{}}},\"findings\":[{}],\"stale_baseline\":[{}]}}\n",
        json_escape(root),
        total,
        rep.fresh.len(),
        rep.baselined.len(),
        errors,
        total - errors,
        findings.join(","),
        stale.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, content: &str) -> Vec<Finding> {
        lint_file(Path::new(path), content)
    }

    const LIB: &str = "crates/foo/src/lib.rs";

    // ---- Rule 1: unwrap -------------------------------------------------

    #[test]
    fn flags_unwrap_in_lib() {
        let v = lint(LIB, "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwrapInLib);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].severity, Severity::Error);
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

    // ---- Satellite pins: the old sanitize() false states ---------------

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

    // ---- Satellite: allow-marker validation ----------------------------

    #[test]
    fn unknown_allow_name_is_a_finding() {
        let src = "fn f() {} // lint:allow(unwrp): typo'd\n";
        let v = lint(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnknownAllow);
        assert_eq!(v[0].severity, Severity::Warning);
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

    // ---- Rule 2: serial kernels ----------------------------------------

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

    // ---- Rule 3: collective categories ---------------------------------

    #[test]
    fn flags_uncategorized_collective() {
        let path = "crates/core/src/dist/onedim.rs";
        let v = lint(path, "fn f() { let hj = ctx.world.bcast(j, payload); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
    }

    #[test]
    fn categorized_collective_passes_across_lines() {
        let path = "crates/core/src/dist/onedim.rs";
        let src =
            "fn f() { let hj = ctx.world.bcast(\n    j,\n    payload,\n    Cat::DenseComm,\n); }\n";
        assert!(lint(path, src).is_empty());
        assert!(lint(
            path,
            "fn f() { ctx.world.allreduce_scalar(x, Cat::DenseComm); }\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_uncategorized_shared_and_row_collectives() {
        let path = "crates/core/src/dist/onedim.rs";
        let v = lint(
            path,
            "fn f() { let hj = ctx.world.bcast_shared(j, payload); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
        let v = lint(
            path,
            "fn f() { let hj = ctx.world.gather_rows(j, payload, &needed); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
        assert!(lint(
            path,
            "fn f() { let hj = ctx.world.bcast_shared(j, payload, Cat::DenseComm); }\n"
        )
        .is_empty());
        assert!(lint(
            path,
            "fn f() { let hj = ctx.world.gather_rows(j, payload, &needed, Cat::DenseComm); }\n"
        )
        .is_empty());
    }

    #[test]
    fn barrier_needs_no_category() {
        assert!(lint(
            "crates/core/src/dist/onedim.rs",
            "fn f() { ctx.world.barrier(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn collectives_outside_core_are_fine() {
        assert!(lint(
            "crates/bench/src/lib.rs",
            "fn f() { w.bcast(root, data); }\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_uncategorized_nonblocking_collectives() {
        let path = "crates/core/src/dist/onedim.rs";
        for call in [
            "let op = ctx.world.ibcast_shared(j, payload);",
            "let op = ctx.world.igather_rows(j, payload, &needed);",
            "let op = ctx.world.iallreduce_mat(&m);",
        ] {
            let src = format!("fn f() {{\n{call}\nop.wait();\n}}\n");
            let v = lint(path, &src);
            assert_eq!(v.len(), 1, "for {call}");
            assert_eq!(v[0].rule, Rule::UncategorizedCollective);
        }
        assert!(lint(
            path,
            "fn f() {\nlet op = ctx.world.ibcast_shared(j, payload, Cat::DenseComm);\nop.wait();\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_uncategorized_refresh_gather() {
        // The cached tier's refresh gather is a collective like any
        // other: without a `Cat::` it escapes the α–β accounting.
        let path = "crates/core/src/dist/mod.rs";
        let src = "fn f() {\nlet op = comm.igather_rows_refresh(r, p, &n, e);\nop.wait();\n}\n";
        let v = lint(path, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
        assert!(v[0].message.contains("igather_rows_refresh"));
        let src = "fn f() {\nlet op = comm.igather_rows_refresh(r, p, &n, e, Cat::DenseComm);\nop.wait();\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn ibcast_needle_does_not_match_ibcast_shared() {
        let path = "crates/core/src/dist/onedim.rs";
        let src =
            "fn f() {\nlet op = w.ibcast_shared(j, p, Cat::DenseComm);\nlet x = op.wait();\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn allgather_shared_requires_cat() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn f() {\n    let parts = self.grid.row.allgather_shared(z.clone());\n}\n";
        let v = lint(path, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
        assert!(lint(
            path,
            "fn f() {\n    let parts = self.grid.row.allgather_shared(z.clone(), Cat::DenseComm);\n}\n"
        )
        .is_empty());
    }

    // ---- Satellite: unbalanced calls are findings, not silent passes ---

    #[test]
    fn unbalanced_collective_call_is_a_finding() {
        // The old scanner's 30-line window *accepted* on overflow; the
        // token engine reports the truncated call explicitly.
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn f() { ctx.world.bcast(j, payload\n"; // EOF inside the call
        let v = lint(path, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnbalancedCall);
        assert_eq!(v[0].severity, Severity::Warning);
    }

    #[test]
    fn call_longer_than_thirty_lines_is_still_checked() {
        // Regression for the window overflow: a categorized call spread
        // over >30 lines passes, an uncategorized one fails.
        let path = "crates/core/src/dist/onedim.rs";
        let filler = "    // filler\n".repeat(35);
        let good =
            format!("fn f() {{ ctx.world.bcast(\n{filler}    j, payload, Cat::DenseComm,\n); }}\n");
        assert!(lint(path, &good).is_empty());
        let bad = format!("fn f() {{ ctx.world.bcast(\n{filler}    j, payload,\n); }}\n");
        let v = lint(path, &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UncategorizedCollective);
    }

    // ---- Rule 4: unwaited pending --------------------------------------

    #[test]
    fn flags_issue_without_wait_in_fn() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn forward(&self) {\n    let op = ctx.world.ibcast_shared(j, p, Cat::DenseComm);\n    compute();\n}\n";
        let v = lint(path, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwaitedPending);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn issue_with_wait_in_fn_passes() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn forward(&self) {\n    let op = ctx.world.ibcast_shared(j, p, Cat::DenseComm);\n    compute();\n    let h = op.wait();\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn issue_helper_returning_pending_is_exempt() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn issue_fetch<'c>(&self, ctx: &'c Ctx) -> PendingOp<'c, Arc<Mat>> {\n    ctx.world.ibcast_shared(j, p, Cat::DenseComm)\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn issue_helper_returning_fetch_is_exempt() {
        let path = "crates/core/src/dist/twodim.rs";
        let src = "fn issue_fetch<'c>(&self, ctx: &'c Ctx) -> super::Fetch<'c> {\n    super::Fetch::Sparse(ctx.world.igather_rows(j, p, &needed, e, Cat::DenseComm))\n}\n";
        assert!(lint(path, src).is_empty());
    }

    #[test]
    fn flags_pending_discarded_into_underscore() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn f() {\n    let _ = ctx.world.iallreduce_mat(&m, Cat::DenseComm);\n    other.wait();\n}\n";
        let v = lint(path, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwaitedPending);
        assert!(lint(
            path,
            "fn f() {\n    let _ = ctx.world.iallreduce_mat(&m, Cat::DenseComm).wait();\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn unwaited_pending_outside_dist_is_fine() {
        let src = "fn f() {\n    let op = x.igather_rows(j, p, &n, e, c);\n}\n";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwaited_pending_allow_marker_suppresses() {
        let path = "crates/core/src/dist/onedim.rs";
        let src = "fn f() {\n    // lint:allow(unwaited-pending): waited by caller via handle registry\n    let op = ctx.world.ibcast_shared(j, p, Cat::DenseComm);\n    stash(op);\n}\n";
        assert!(lint(path, src).is_empty());
    }

    // ---- Rule 5: raw socket I/O ----------------------------------------

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

    // ---- Analysis: collective-order ------------------------------------

    const DIST: &str = "crates/core/src/dist/onedim.rs";

    #[test]
    fn reordered_comm_mode_arms_are_flagged() {
        let src = "\
fn step(&self, ctx: &Ctx) {
    match self.comm_mode {
        CommMode::Dense => {
            let h = ctx.world.bcast_shared(j, p, Cat::DenseComm);
            let y = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        }
        CommMode::SparsityAware => {
            let y = ctx.world.allreduce_mat(&m, Cat::SparseComm);
            let h = ctx.world.gather_rows(j, p, &n, e, Cat::SparseComm);
        }
    }
}
";
        let v = lint(DIST, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveOrder);
        assert!(v[0].message.contains("different collective sequences"));
    }

    #[test]
    fn identical_comm_mode_arms_pass() {
        let src = "\
fn step(&self, ctx: &Ctx) {
    match self.comm_mode {
        CommMode::Dense => {
            let h = ctx.world.bcast_shared(j, p, Cat::DenseComm);
            let y = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        }
        CommMode::SparsityAware => {
            let h = ctx.world.gather_rows(j, p, &n, e, Cat::SparseComm);
            let y = ctx.world.allreduce_mat(&m, Cat::SparseComm);
        }
    }
}
";
        assert!(lint(DIST, src).is_empty());
    }

    #[test]
    fn missing_collective_in_one_arm_is_flagged() {
        let src = "\
fn step(&self, ctx: &Ctx) {
    match self.comm_mode {
        CommMode::Dense => {
            let h = ctx.world.bcast_shared(j, p, Cat::DenseComm);
            let y = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        }
        CommMode::SparsityAware => {
            let h = ctx.world.gather_rows(j, p, &n, e, Cat::SparseComm);
        }
    }
}
";
        let v = lint(DIST, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::CollectiveOrder);
    }

    #[test]
    fn helper_splicing_resolves_issue_fetch() {
        // The dense arm issues directly; the sparse arm goes through a
        // same-file helper. Sequences still compare equal.
        let src = "\
fn issue_fetch<'c>(&self, ctx: &'c Ctx) -> PendingOp<'c> {
    ctx.world.ibcast_shared(j, p, Cat::DenseComm)
}
fn step(&self, ctx: &Ctx) {
    match self.comm_mode {
        CommMode::Dense => { let h = ctx.world.bcast_shared(j, p, Cat::DenseComm); }
        CommMode::SparsityAware => { let op = self.issue_fetch(ctx); let h = op.wait(); }
    }
}
";
        assert!(lint(DIST, src).is_empty());
    }

    #[test]
    fn cached_arm_with_clean_serve_branch_passes() {
        // The canonical cached-tier shape (DESIGN.md §13): the serve
        // branch issues nothing, the refresh and eval branches each
        // issue the same fetch as the SparsityAware sibling.
        let src = "\
fn issue<'c>(&self, ctx: &'c Ctx, j: usize) -> Fetch<'c> {
    match self.comm_mode {
        CommMode::Dense => Fetch::Dense(ctx.world.ibcast_shared(j, p, Cat::DenseComm)),
        CommMode::SparsityAware => {
            Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
        }
        CommMode::Cached { .. } => {
            if self.cached_serving() {
                Fetch::Cached(self.serve_cached(ctx, l, j))
            } else if self.training {
                Fetch::Sparse(ctx.world.igather_rows_refresh(j, p, &n, e, Cat::DenseComm))
            } else {
                Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
            }
        }
    }
}
";
        assert!(lint(DIST, src).is_empty(), "{:?}", lint(DIST, src));
    }

    #[test]
    fn cached_refresh_branch_missing_fetch_is_flagged() {
        // The refresh branch of the Cached arm drops the gather its
        // SparsityAware sibling issues — a seq-number desync on refresh
        // epochs.
        let src = "\
fn issue<'c>(&self, ctx: &'c Ctx, j: usize) -> Fetch<'c> {
    match self.comm_mode {
        CommMode::SparsityAware => {
            Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
        }
        CommMode::Cached { .. } => {
            if self.cached_serving() {
                Fetch::Cached(self.serve_cached(ctx, l, j))
            } else {
                Fetch::Cached(self.serve_cached(ctx, l, j))
            }
        }
    }
}
";
        let v = lint(DIST, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveOrder);
        assert!(v[0].message.contains("different collective sequences"));
    }

    #[test]
    fn cached_serve_branch_issuing_collective_is_flagged() {
        // Serving from cache must be collective-free: a gather inside
        // the cached_serving branch defeats the tier and desyncs peers
        // that refresh.
        let src = "\
fn issue<'c>(&self, ctx: &'c Ctx, j: usize) -> Fetch<'c> {
    match self.comm_mode {
        CommMode::SparsityAware => {
            Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
        }
        CommMode::Cached { .. } => {
            if self.cached_serving() {
                Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
            } else {
                Fetch::Sparse(ctx.world.igather_rows_refresh(j, p, &n, e, Cat::DenseComm))
            }
        }
    }
}
";
        let v = lint(DIST, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveOrder);
        assert!(v[0].message.contains("cache-serve branch"), "{v:?}");
    }

    #[test]
    fn cached_eval_branch_diverging_is_flagged() {
        // The eval (final else) branch issues a different class than the
        // sibling reference: refresh and eval branches are checked
        // independently.
        let src = "\
fn issue<'c>(&self, ctx: &'c Ctx, j: usize) -> Fetch<'c> {
    match self.comm_mode {
        CommMode::SparsityAware => {
            Fetch::Sparse(ctx.world.igather_rows(j, p, &n, e, Cat::DenseComm))
        }
        CommMode::Cached { .. } => {
            if self.cached_serving() {
                Fetch::Cached(self.serve_cached(ctx, l, j))
            } else if self.training {
                Fetch::Sparse(ctx.world.igather_rows_refresh(j, p, &n, e, Cat::DenseComm))
            } else {
                Fetch::Dense(ctx.world.allgather(z, Cat::DenseComm))
            }
        }
    }
}
";
        let v = lint(DIST, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CollectiveOrder);
        assert!(v[0].message.contains("branch 3"), "{v:?}");
    }

    #[test]
    fn pipelined_some_arm_reissue_passes() {
        // Some arm re-issues the next stage's fetch before waiting —
        // the classes still match the None arm's blocking fetch.
        let src = "\
fn issue_fetch<'c>(&self, ctx: &'c Ctx, j: usize) -> PendingOp<'c> {
    ctx.world.ibcast_shared(j, p, Cat::DenseComm)
}
fn forward(&self, ctx: &Ctx) {
    let mut pending = self.overlap.then(|| self.issue_fetch(ctx, 0));
    for j in 0..p {
        let h = match pending.take() {
            Some(op) => {
                if j + 1 < p {
                    pending = Some(self.issue_fetch(ctx, j + 1));
                }
                op.wait()
            }
            None => ctx.world.bcast_shared(j, p, Cat::DenseComm),
        };
    }
}
";
        assert!(lint(DIST, src).is_empty());
    }

    #[test]
    fn closure_issue_helpers_are_scoped() {
        // Same closure name in two functions; each resolves within its
        // own function only (the 2D/3D trainers both name theirs
        // `issue`).
        let src = "\
fn a(&self, ctx: &Ctx) {
    let issue = |s: usize| ctx.world.ibcast_shared(s, p, Cat::DenseComm);
    let mut pending = self.overlap.then(|| issue(0));
    let h = match pending.take() {
        Some(op) => op.wait(),
        None => ctx.world.bcast_shared(0, p, Cat::DenseComm),
    };
}
fn b(&self, ctx: &Ctx) {
    let issue = |s: usize| ctx.world.igather_rows(s, p, &n, e, Cat::SparseComm);
    let mut pending = self.overlap.then(|| issue(0));
    let h = match pending.take() {
        Some(op) => op.wait(),
        None => ctx.world.gather_rows(0, p, &n, e, Cat::SparseComm),
    };
}
";
        assert!(lint(DIST, src).is_empty());
    }

    #[test]
    fn wait_only_fetch_match_is_skipped() {
        // `Fetch::wait`-style matches issue nothing in any arm: no
        // finding even though the patterns are enum paths.
        let src = "\
fn wait(self, needed: &Needed) -> Out {
    match self {
        Fetch::Dense(op) => Out::Dense(op.wait()),
        Fetch::Sparse(op) => Out::Sparse(op.wait()),
    }
}
";
        assert!(lint(DIST, src).is_empty());
    }

    #[test]
    fn collective_order_allow_marker_suppresses() {
        let src = "\
fn step(&self, ctx: &Ctx) {
    // lint:allow(collective-order): dense path intentionally richer here
    match self.comm_mode {
        CommMode::Dense => { let y = ctx.world.allreduce_mat(&m, Cat::DenseComm); }
        CommMode::SparsityAware => { let h = ctx.world.gather_rows(j, p, &n, e, Cat::SparseComm); }
    }
}
";
        assert!(lint(DIST, src).is_empty());
    }

    // ---- Analysis: lock-order ------------------------------------------

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

    // ---- Analysis: frame-exhaustiveness --------------------------------

    fn frame_sources(frame: &str, proc_: &str) -> Vec<Finding> {
        lint_sources(&[
            (PathBuf::from("crates/comm/src/frame.rs"), frame.to_string()),
            (PathBuf::from("crates/comm/src/proc.rs"), proc_.to_string()),
        ])
    }

    #[test]
    fn unhandled_frame_kind_is_flagged() {
        let frame = "pub enum FrameKind { Hello = 1, Deposit = 2, Goodbye = 3 }\n";
        let proc_ = "\
fn on_frame(&self, fr: Frame) {
    match fr.kind {
        FrameKind::Hello => self.on_hello(fr),
        FrameKind::Deposit => self.on_deposit(fr),
        other => self.protocol_error(other),
    }
}
";
        let v = frame_sources(frame, proc_);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FrameExhaustiveness);
        assert!(v[0].message.contains("Goodbye"));
        assert!(v[0].file.to_string_lossy().ends_with("frame.rs"));
    }

    #[test]
    fn fully_dispatched_frame_kinds_pass() {
        let frame = "pub enum FrameKind { Hello = 1, Deposit = 2 }\n";
        let proc_ = "\
fn accept(&self, r: Result<Frame, E>) {
    match r {
        Ok(fr) if fr.kind == FrameKind::Hello => self.register(fr),
        other => self.reject(other),
    }
}
fn on_frame(&self, fr: Frame) {
    match fr.kind {
        FrameKind::Deposit => self.on_deposit(fr),
        other => self.protocol_error(other),
    }
}
";
        assert!(frame_sources(frame, proc_).is_empty());
    }

    #[test]
    fn send_sites_do_not_count_as_dispatch() {
        // Constructing/sending a variant is not handling it.
        let frame = "pub enum FrameKind { Hello = 1, Deposit = 2 }\n";
        let proc_ = "\
fn send_all(&self) {
    self.send(FrameKind::Hello, &hello);
    self.send(FrameKind::Deposit, &bytes);
}
fn on_frame(&self, fr: Frame) {
    match fr.kind {
        FrameKind::Hello => self.on_hello(fr),
        other => self.protocol_error(other),
    }
}
";
        let v = frame_sources(frame, proc_);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Deposit"));
    }

    #[test]
    fn frame_analysis_needs_both_files() {
        let frame = "pub enum FrameKind { Hello = 1, Orphan = 2 }\n";
        let v = lint_sources(&[(PathBuf::from("crates/comm/src/frame.rs"), frame.to_string())]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn uncovered_precision_tag_is_flagged() {
        // The Precision obligation is self-contained to frame.rs: a
        // variant without a codec match arm rides a wildcard.
        let frame = "\
pub enum Precision { F64, F32, Bf16 }
impl Precision {
    fn bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            _ => 4,
        }
    }
}
";
        let v = lint_sources(&[(PathBuf::from("crates/comm/src/frame.rs"), frame.to_string())]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|f| f.rule == Rule::FrameExhaustiveness));
        assert!(v.iter().any(|f| f.message.contains("Precision::F32")));
        assert!(v.iter().any(|f| f.message.contains("Precision::Bf16")));
    }

    #[test]
    fn fully_matched_precision_tags_pass() {
        let frame = "\
pub enum Precision { F64, F32 }
impl Precision {
    fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
        }
    }
}
";
        let v = lint_sources(&[(PathBuf::from("crates/comm/src/frame.rs"), frame.to_string())]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn precision_construction_sites_do_not_count_as_coverage() {
        let frame = "\
pub enum Precision { F64, F32 }
fn default_precision() -> Precision { Precision::F64 }
fn narrow() -> Precision { Precision::F32 }
";
        let v = lint_sources(&[(PathBuf::from("crates/comm/src/frame.rs"), frame.to_string())]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no codec match over it"));
    }

    #[test]
    fn precision_outside_frame_rs_is_not_checked() {
        // Only frame.rs declares wire tags; a Precision enum elsewhere
        // (e.g. a fixture or an unrelated crate) is out of scope.
        let v = lint(LIB, "pub enum Precision { F64, F32 }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- Rule: scalar-hot-loop -----------------------------------------

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
        assert_eq!(v[0].severity, Severity::Error);
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

    // ---- Baseline and JSON ---------------------------------------------

    fn sample_finding() -> Finding {
        Finding {
            file: PathBuf::from("crates/foo/src/lib.rs"),
            line: 3,
            col: 7,
            span: (40, 46),
            rule: Rule::UnwrapInLib,
            severity: Severity::Error,
            message: "`.unwrap(` in library code outside tests".to_string(),
            excerpt: "x.unwrap()".to_string(),
        }
    }

    #[test]
    fn baseline_roundtrip() {
        let f = sample_finding();
        let text = render_baseline(std::slice::from_ref(&f));
        let rep = apply_baseline(vec![f], &text);
        assert!(rep.fresh.is_empty());
        assert_eq!(rep.baselined.len(), 1);
        assert!(rep.stale.is_empty());
    }

    #[test]
    fn baseline_is_line_number_independent() {
        let mut f = sample_finding();
        let text = render_baseline(std::slice::from_ref(&f));
        f.line = 99;
        let rep = apply_baseline(vec![f], &text);
        assert!(rep.fresh.is_empty());
        assert_eq!(rep.baselined.len(), 1);
    }

    #[test]
    fn stale_and_fresh_are_reported() {
        let f = sample_finding();
        let text = render_baseline(std::slice::from_ref(&f));
        let mut other = f.clone();
        other.excerpt = "y.unwrap()".to_string();
        let rep = apply_baseline(vec![other], &text);
        assert_eq!(rep.fresh.len(), 1);
        assert!(rep.baselined.is_empty());
        assert_eq!(rep.stale.len(), 1);
    }

    #[test]
    fn baseline_multiset_counts() {
        let f = sample_finding();
        let text = render_baseline(std::slice::from_ref(&f));
        // Two identical findings, one baseline entry: one stays fresh.
        let rep = apply_baseline(vec![f.clone(), f], &text);
        assert_eq!(rep.baselined.len(), 1);
        assert_eq!(rep.fresh.len(), 1);
    }

    #[test]
    fn json_report_shape() {
        let f = sample_finding();
        let rep = apply_baseline(vec![f], "");
        let json = render_json("/repo", &rep);
        assert!(json.starts_with("{\"version\":1,\"tool\":\"cagnet-xtask-lint\""));
        assert!(json.contains(
            "\"counts\":{\"total\":1,\"fresh\":1,\"baselined\":0,\"error\":1,\"warning\":0}"
        ));
        assert!(json.contains("\"rule\":\"unwrap\""));
        assert!(json.contains("\"span\":[40,46]"));
        assert!(json.contains("\"baselined\":false"));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let mut f = sample_finding();
        f.excerpt = "say \"hi\" \\ tab\there".to_string();
        let rep = apply_baseline(vec![f], "");
        let json = render_json("/repo", &rep);
        assert!(json.contains("say \\\"hi\\\" \\\\ tab\\there"));
    }
}
