//! The per-file token rules: `unwrap` and `scalar-hot-loop`.
//!
//! Each rule walks code tokens (comments and string interiors already
//! excluded by the lexer), so none of the old line-scanner false states
//! — `'"'` char literals, raw strings, multi-line calls — exist here.

use super::lexer::TokKind;
use super::model::FileModel;
use super::{Finding, PathFlags, Rule};

/// Is code token `i` the method name of a `.name(` call?
fn method_call(m: &FileModel<'_>, i: usize) -> bool {
    m.code[i].kind == TokKind::Ident
        && i > 0
        && m.code[i - 1].is_punct(b'.')
        && i + 1 < m.code.len()
        && m.code[i + 1].is_punct(b'(')
}

/// Run the token-level rules over one file.
pub(super) fn run(m: &FileModel<'_>, flags: &PathFlags, out: &mut Vec<Finding>) {
    for i in 0..m.code.len() {
        let byte = m.code[i].span.start;
        if m.in_test(byte) {
            continue;
        }
        let line = m.line_of(byte);
        let name = m.text(i);

        // unwrap/expect in library code.
        if !flags.is_bin
            && method_call(m, i)
            && (name == "unwrap" || name == "expect")
            && !m.allow_on(line, Rule::UnwrapInLib.name())
        {
            out.push(super::finding(
                m,
                flags,
                m.code[i].span,
                Rule::UnwrapInLib,
                format!("`.{name}(` in library code outside tests"),
            ));
        }
    }

    if flags.is_kernel_hot {
        scalar_hot_loop(m, flags, out);
    }
}

/// Is the `*` at code token `i` a binary multiplication (as opposed to
/// a deref)? A multiply follows the end of an operand.
fn is_binary_star(m: &FileModel<'_>, i: usize) -> bool {
    if !m.code[i].is_punct(b'*') || i == 0 {
        return false;
    }
    matches!(
        m.code[i - 1].kind,
        TokKind::Ident | TokKind::Num | TokKind::Punct(b')') | TokKind::Punct(b']')
    )
}

/// The body span `(open, close)` of every `for`/`while`/`loop` in `m`.
/// `for` must bind a pattern with `in` before its `{` so `impl … for T`
/// blocks and HRTB `for<'a>` bounds are not mistaken for loops.
fn loop_bodies(m: &FileModel<'_>) -> Vec<(usize, usize)> {
    let n = m.code.len();
    let mut out = Vec::new();
    for i in 0..n {
        if m.code[i].kind != TokKind::Ident {
            continue;
        }
        let kw = m.text(i);
        if !matches!(kw, "for" | "while" | "loop") {
            continue;
        }
        // Header runs to the first `{` at depth 0 (parenthesized
        // patterns and bracketed index expressions raise the depth).
        let mut depth = 0i32;
        let mut saw_in = false;
        let mut open = None;
        for j in i + 1..n {
            match m.code[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => depth -= 1,
                TokKind::Punct(b';') if depth == 0 => break,
                TokKind::Ident if depth == 0 && m.text(j) == "in" => saw_in = true,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let header_ok = match kw {
            "for" => saw_in,
            "loop" => open == i + 1,
            _ => true,
        };
        if !header_ok {
            continue;
        }
        if let Some(close) = m.matching_close(open) {
            out.push((open, close));
        }
    }
    out
}

/// `scalar-hot-loop`: raw per-element multiply-accumulate loops in `dense/src/`
/// and `sparse/src/` outside the blessed microkernel modules. The shape
/// flagged is a loop-body statement `lhs += … * …;` where the store or
/// a multiply operand is an element access (`c[j] +=`, `*cj +=`, or an
/// indexed RHS) — the inner loop of a hand-rolled GEMM/SpMM. Scalar
/// offset arithmetic (`off += i * stride`) touches no element and
/// passes.
fn scalar_hot_loop(m: &FileModel<'_>, flags: &PathFlags, out: &mut Vec<Finding>) {
    let bodies = loop_bodies(m);
    if bodies.is_empty() {
        return;
    }
    let n = m.code.len();
    for i in 1..n {
        // A `+=` compound assign: adjacent `+` `=` byte-wise.
        if !(m.code[i].is_punct(b'+')
            && i + 1 < n
            && m.code[i + 1].is_punct(b'=')
            && m.code[i].span.end == m.code[i + 1].span.start)
        {
            continue;
        }
        if !bodies.iter().any(|&(open, close)| i > open && i < close) {
            continue;
        }
        let byte = m.code[i].span.start;
        if m.in_test(byte) {
            continue;
        }
        // Element store? `c[j] +=` or `*cj +=` (deref star: the token
        // before it is an operator, not an operand end).
        let elem_lhs = m.code[i - 1].is_punct(b']')
            || (m.code[i - 1].kind == TokKind::Ident
                && i >= 2
                && m.code[i - 2].is_punct(b'*')
                && !is_binary_star(m, i - 2));
        // RHS runs to the `;` at relative depth 0.
        let mut depth = 0i32;
        let mut end = i + 2;
        while end < n {
            match m.code[end].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(b';') | TokKind::Punct(b',') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let rhs_has_mul = (i + 2..end).any(|j| is_binary_star(m, j));
        let elem_rhs = (i + 2..end).any(|j| m.code[j].is_punct(b'['));
        if !(rhs_has_mul && (elem_lhs || elem_rhs)) {
            continue;
        }
        let line = m.line_of(byte);
        if m.allow_on(line, Rule::ScalarHotLoop.name()) {
            continue;
        }
        out.push(super::finding(
            m,
            flags,
            m.code[i].span,
            Rule::ScalarHotLoop,
            "raw multiply-accumulate loop outside the blessed microkernels — route it \
             through dense/src/gemm.rs or sparse/src/spmm.rs"
                .to_string(),
        ));
    }
}
