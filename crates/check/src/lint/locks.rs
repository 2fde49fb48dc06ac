//! Lock-order analysis over `crates/comm/src`.
//!
//! Builds the Mutex acquisition graph: which lock is acquired while
//! which other lock is held — across `diag.rs`
//! (states/history/first_panic/abort), `transport.rs` (mailbox slots),
//! `proc.rs` (hub state, unclaimed queues, client writer, children) and
//! the rest of the comm layer — and flags
//!
//! * cyclic acquisition orders (two call paths taking the same pair of
//!   locks in opposite orders can deadlock under the right
//!   interleaving),
//! * re-acquisition of a lock already held (std `Mutex` is not
//!   reentrant — this deadlocks deterministically), and
//! * any `.lock().unwrap()` / `.lock().expect(` — comm locks must go
//!   through the blessed poison-recovering helpers
//!   (`unwrap_or_else(PoisonError::into_inner)` or an explicit
//!   `map_err`), because diagnostic state must stay readable precisely
//!   when some rank has panicked.
//!
//! Locks are identified by field/binding name (`states`, `state`,
//! `children`, …), which is exact for this codebase: every Mutex lives
//! in a distinctly-named field. Function calls within `comm/src` are
//! resolved by name and argument count (same file first, then a unique
//! cross-file match) and splice the callee's acquired-lock set at the
//! call site; helpers whose signature returns a `MutexGuard` (for
//! example `Hub::lock`) acquire *and hold* their lock at the call site
//! under the caller's binding.

use std::collections::{HashMap, HashSet};

use super::lexer::{Span, TokKind};
use super::model::{FileModel, FnItem};
use super::{Finding, Rule, SourceFile};

/// A direct lock acquisition site inside one function body.
#[derive(Clone, Debug)]
struct Acquire {
    lock: String,
    span: Span,
}

/// Flattened function handle: (file index, function index).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FnId {
    file: usize,
    f: usize,
}

/// One held-lock edge witness.
#[derive(Clone, Debug)]
struct Witness {
    file: usize,
    span: Span,
}

struct Analyzer<'a, 's> {
    files: &'a [SourceFile<'s>],
    comm: Vec<usize>,
    by_name: HashMap<String, Vec<FnId>>,
    params: HashMap<FnId, usize>,
    guard_lock: HashMap<FnId, String>,
    acquires_memo: HashMap<FnId, HashSet<String>>,
    visiting: HashSet<FnId>,
    edges: HashMap<(String, String), Witness>,
    findings: Vec<(usize, Span, String)>,
}

impl<'a, 's> Analyzer<'a, 's> {
    fn new(files: &'a [SourceFile<'s>]) -> Self {
        let comm: Vec<usize> = (0..files.len())
            .filter(|&i| files[i].flags.is_comm)
            .collect();
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut params = HashMap::new();
        let mut guard_lock = HashMap::new();
        for &file in &comm {
            let m = &files[file].model;
            for (fidx, f) in m.functions.iter().enumerate() {
                let id = FnId { file, f: fidx };
                by_name
                    .entry(m.text(f.name_idx).to_string())
                    .or_default()
                    .push(id);
                params.insert(id, param_count(m, f));
                // Guard-returning helper: header mentions MutexGuard and
                // the body has at least one direct acquisition.
                let mentions_guard = (f.header.0..f.header.1)
                    .any(|j| m.code[j].kind == TokKind::Ident && m.text(j) == "MutexGuard");
                if mentions_guard {
                    if let Some((open, close)) = f.body {
                        if let Some(first) = direct_acquires(m, open + 1, close).first() {
                            guard_lock.insert(id, first.lock.clone());
                        }
                    }
                }
            }
        }
        Analyzer {
            files,
            comm,
            by_name,
            params,
            guard_lock,
            acquires_memo: HashMap::new(),
            visiting: HashSet::new(),
            edges: HashMap::new(),
            findings: Vec::new(),
        }
    }

    fn model(&self, file: usize) -> &FileModel<'s> {
        &self.files[file].model
    }

    /// Resolve a call to `name` with `argc` arguments from `from_file`:
    /// same-file candidates first, then a unique cross-file match.
    fn resolve(&self, from_file: usize, name: &str, argc: usize) -> Option<FnId> {
        let cands = self.by_name.get(name)?;
        let fits: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|id| self.params.get(id) == Some(&argc))
            .collect();
        let local: Vec<FnId> = fits
            .iter()
            .copied()
            .filter(|id| id.file == from_file)
            .collect();
        match (local.len(), fits.len()) {
            (1, _) => Some(local[0]),
            (0, 1) => Some(fits[0]),
            _ => None,
        }
    }

    /// Every lock name acquired anywhere inside `id` (transitively).
    fn acquires(&mut self, id: FnId) -> HashSet<String> {
        if let Some(c) = self.acquires_memo.get(&id) {
            return c.clone();
        }
        if !self.visiting.insert(id) {
            return HashSet::new();
        }
        let mut set = HashSet::new();
        let m = self.model(id.file);
        if let Some((open, close)) = m.functions[id.f].body {
            for a in direct_acquires(m, open + 1, close) {
                set.insert(a.lock);
            }
            // Splice callees.
            let calls = call_sites(m, open + 1, close);
            for (name, argc, _span) in calls {
                if let Some(callee) = self.resolve(id.file, &name, argc) {
                    if callee != id {
                        set.extend(self.acquires(callee));
                    }
                }
            }
        }
        self.visiting.remove(&id);
        self.acquires_memo.insert(id, set.clone());
        set
    }

    /// Hold-region walk over one function, recording edges.
    fn walk_fn(&mut self, id: FnId) {
        let m = self.model(id.file);
        let Some((open, close)) = m.functions[id.f].body else {
            return;
        };
        if m.in_test(m.code[m.functions[id.f].kw].span.start) {
            return;
        }
        struct Hold {
            lock: String,
            binding: Option<String>,
            depth: i32,
            semi: bool,
        }
        let mut holds: Vec<Hold> = Vec::new();
        let mut depth = 0i32;
        // The active `let NAME =` binding of the current statement.
        let mut pending_let: Option<(Option<String>, i32)> = None;
        let mut i = open + 1;
        // Collected per-walk actions; applied to self after the loop to
        // avoid borrowing tangles.
        let mut local_edges: Vec<((String, String), Witness)> = Vec::new();
        let mut local_findings: Vec<(usize, Span, String)> = Vec::new();
        // Resolve calls eagerly (resolution is immutable), but acquires()
        // needs &mut self — prefetch the callee sets used in this body.
        let calls = call_sites(m, open + 1, close);
        let mut callee_info: HashMap<usize, (Option<String>, HashSet<String>)> = HashMap::new();
        for (name, argc, span) in &calls {
            if let Some(callee) = self.resolve(id.file, name, *argc) {
                let guard = self.guard_lock.get(&callee).cloned();
                let acq = self.acquires(callee);
                callee_info.insert(span.start, (guard, acq));
            }
        }
        let m = self.model(id.file);
        while i < close {
            let t = m.code[i];
            match t.kind {
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => {
                    depth -= 1;
                    holds.retain(|h| h.depth <= depth);
                }
                TokKind::Punct(b';') => {
                    if let Some((_, d)) = pending_let {
                        if depth <= d {
                            pending_let = None;
                        }
                    }
                    holds.retain(|h| !(h.semi && depth <= h.depth));
                }
                TokKind::Ident => {
                    let text = m.text(i);
                    // `let [mut] NAME =` opens a binding statement.
                    if text == "let" {
                        let mut j = i + 1;
                        if j < close && m.code[j].kind == TokKind::Ident && m.text(j) == "mut" {
                            j += 1;
                        }
                        let name = if j < close && m.code[j].kind == TokKind::Ident {
                            let n = m.text(j);
                            if n == "_" {
                                None
                            } else {
                                Some(n.to_string())
                            }
                        } else {
                            None
                        };
                        pending_let = Some((name, depth));
                        i += 1;
                        continue;
                    }
                    // `drop(NAME)` releases a named guard linearly.
                    if text == "drop"
                        && i + 1 < close
                        && m.code[i + 1].is_punct(b'(')
                        && (i == 0 || !m.code[i - 1].is_punct(b'.'))
                    {
                        let mut j = i + 2;
                        while j < close && (m.code[j].is_punct(b'&') || m.code[j].is_punct(b'*')) {
                            j += 1;
                        }
                        if j < close && m.code[j].kind == TokKind::Ident {
                            let victim = m.text(j);
                            holds.retain(|h| h.binding.as_deref() != Some(victim));
                        }
                        i += 1;
                        continue;
                    }
                    // Direct `.lock()` / free `lock(…)` acquisition.
                    if let Some(acq) = acquire_at(m, i, close) {
                        for h in &holds {
                            if h.lock == acq.lock {
                                local_findings.push((
                                    id.file,
                                    acq.span,
                                    format!(
                                        "lock `{}` acquired while already held — std Mutex \
                                         is not reentrant, this deadlocks",
                                        acq.lock
                                    ),
                                ));
                            } else {
                                local_edges.push((
                                    (h.lock.clone(), acq.lock.clone()),
                                    Witness {
                                        file: id.file,
                                        span: acq.span,
                                    },
                                ));
                            }
                        }
                        let binding = pending_let.as_ref().and_then(|(n, _)| n.clone());
                        let semi = binding.is_none();
                        holds.push(Hold {
                            lock: acq.lock,
                            binding,
                            depth,
                            semi,
                        });
                        i += 1;
                        continue;
                    }
                    // Spliced call: guard-returning helpers acquire and
                    // hold; everything else is transient.
                    if i + 1 < close && m.code[i + 1].is_punct(b'(') {
                        if let Some((guard, acq_set)) = callee_info.get(&t.span.start) {
                            if let Some(g) = guard {
                                for h in &holds {
                                    if &h.lock == g {
                                        local_findings.push((
                                            id.file,
                                            t.span,
                                            format!(
                                                "lock `{g}` acquired (via guard-returning \
                                                 helper) while already held — std Mutex is \
                                                 not reentrant, this deadlocks"
                                            ),
                                        ));
                                    } else {
                                        local_edges.push((
                                            (h.lock.clone(), g.clone()),
                                            Witness {
                                                file: id.file,
                                                span: t.span,
                                            },
                                        ));
                                    }
                                }
                                let binding = pending_let.as_ref().and_then(|(n, _)| n.clone());
                                let semi = binding.is_none();
                                holds.push(Hold {
                                    lock: g.clone(),
                                    binding,
                                    depth,
                                    semi,
                                });
                            } else {
                                for h in &holds {
                                    for l in acq_set {
                                        if &h.lock == l {
                                            local_findings.push((
                                                id.file,
                                                t.span,
                                                format!(
                                                    "call re-acquires lock `{l}` already \
                                                     held by the caller — std Mutex is not \
                                                     reentrant, this deadlocks"
                                                ),
                                            ));
                                        } else {
                                            local_edges.push((
                                                (h.lock.clone(), l.clone()),
                                                Witness {
                                                    file: id.file,
                                                    span: t.span,
                                                },
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        for (key, w) in local_edges {
            self.edges.entry(key).or_insert(w);
        }
        self.findings.extend(local_findings);
    }
}

/// Number of parameters of `f` (excluding any `self` receiver).
fn param_count(m: &FileModel<'_>, f: &FnItem) -> usize {
    let mut open = None;
    for j in f.header.0..f.header.1 {
        if m.code[j].is_punct(b'(') {
            open = Some(j);
            break;
        }
    }
    let Some(open) = open else { return 0 };
    let Some(close) = m.matching_close(open) else {
        return 0;
    };
    if close == open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut segments = 1usize;
    let mut first_has_self = false;
    let mut in_first = true;
    for j in open + 1..close {
        match m.code[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'>') => depth -= 1,
            TokKind::Punct(b',') if depth == 0 => {
                // Ignore a trailing comma.
                if j + 1 < close {
                    segments += 1;
                }
                in_first = false;
            }
            TokKind::Ident if in_first && m.text(j) == "self" => first_has_self = true,
            _ => {}
        }
    }
    if first_has_self {
        segments - 1
    } else {
        segments
    }
}

/// Number of arguments in the call whose `(` is at `open`.
fn arg_count(m: &FileModel<'_>, open: usize) -> Option<usize> {
    let close = m.matching_close(open)?;
    if close == open + 1 {
        return Some(0);
    }
    let mut depth = 0i32;
    let mut segments = 1usize;
    for j in open + 1..close {
        match m.code[j].kind {
            TokKind::Punct(b'(')
            | TokKind::Punct(b'[')
            | TokKind::Punct(b'{')
            | TokKind::Punct(b'|') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
            // Ignore a trailing comma.
            TokKind::Punct(b',') if depth == 0 && j + 1 < close => segments += 1,
            _ => {}
        }
    }
    Some(segments)
}

/// The direct lock acquisition at code token `i`, if any: `X.lock()`
/// with an identifier receiver other than `self`, or a free
/// `lock(&…field)` call (the diag-style poison-recovering helper).
fn acquire_at(m: &FileModel<'_>, i: usize, limit: usize) -> Option<Acquire> {
    if m.code[i].kind != TokKind::Ident || m.text(i) != "lock" {
        return None;
    }
    if i + 1 >= limit || !m.code[i + 1].is_punct(b'(') {
        return None;
    }
    let prev_dot = i > 0 && m.code[i - 1].is_punct(b'.');
    if prev_dot {
        // Method form: receiver is the identifier before the dot.
        if i >= 2 && m.code[i - 2].kind == TokKind::Ident {
            let recv = m.text(i - 2);
            if recv != "self" {
                return Some(Acquire {
                    lock: recv.to_string(),
                    span: m.code[i].span,
                });
            }
        }
        return None;
    }
    // Free form `lock(…)`: skip the definition itself, then take the
    // last identifier in the argument list as the lock name.
    if i > 0 && m.code[i - 1].kind == TokKind::Ident && m.text(i - 1) == "fn" {
        return None;
    }
    let close = m.matching_close(i + 1)?;
    let mut last = None;
    for j in i + 2..close {
        if m.code[j].kind == TokKind::Ident && m.text(j) != "self" {
            last = Some(j);
        }
    }
    last.map(|j| Acquire {
        lock: m.text(j).to_string(),
        span: m.code[i].span,
    })
}

/// All direct acquisitions in a token range.
fn direct_acquires(m: &FileModel<'_>, start: usize, end: usize) -> Vec<Acquire> {
    (start..end).filter_map(|i| acquire_at(m, i, end)).collect()
}

/// All resolvable-looking call sites (name, argc, name span) in a
/// range. Skips direct `lock` acquisitions and `drop`.
fn call_sites(m: &FileModel<'_>, start: usize, end: usize) -> Vec<(String, usize, Span)> {
    let mut out = Vec::new();
    for i in start..end {
        if m.code[i].kind != TokKind::Ident {
            continue;
        }
        if i + 1 >= end || !m.code[i + 1].is_punct(b'(') {
            continue;
        }
        let name = m.text(i);
        if name == "drop" {
            continue;
        }
        // Direct acquisitions are handled as lock events, not calls —
        // but `self.lock()` (no receiver field) resolves as a call to a
        // guard-returning helper like `Hub::lock`.
        if name == "lock" && acquire_at(m, i, end).is_some() {
            continue;
        }
        if name == "lock" && !(i > 0 && m.code[i - 1].is_punct(b'.')) {
            // Free `lock(…)` with no extractable lock name: skip.
            continue;
        }
        if i > 0 && m.code[i - 1].kind == TokKind::Ident && m.text(i - 1) == "fn" {
            continue;
        }
        if let Some(argc) = arg_count(m, i + 1) {
            out.push((name.to_string(), argc, m.code[i].span));
        }
    }
    out
}

/// Find one representative of each distinct cycle in the edge graph.
fn find_cycles(edges: &HashMap<(String, String), Witness>) -> Vec<Vec<String>> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort_unstable();
    let mut seen_cycles: HashSet<Vec<String>> = HashSet::new();
    let mut out = Vec::new();
    for &root in &nodes {
        let mut on_path: Vec<&str> = Vec::new();
        // Depth-first with an explicit path; small graphs, so a simple
        // recursive search expressed iteratively is plenty.
        fn dfs<'g>(
            node: &'g str,
            adj: &HashMap<&'g str, Vec<&'g str>>,
            on_path: &mut Vec<&'g str>,
            seen: &mut HashSet<Vec<String>>,
            out: &mut Vec<Vec<String>>,
        ) {
            if let Some(pos) = on_path.iter().position(|&n| n == node) {
                let cycle: Vec<String> = on_path[pos..].iter().map(|s| s.to_string()).collect();
                // Canonicalize: rotate so the smallest element leads.
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let mut canon = cycle[min..].to_vec();
                canon.extend_from_slice(&cycle[..min]);
                if seen.insert(canon.clone()) {
                    out.push(canon);
                }
                return;
            }
            if on_path.len() > 32 {
                return;
            }
            on_path.push(node);
            if let Some(nexts) = adj.get(node) {
                for &nx in nexts {
                    dfs(nx, adj, on_path, seen, out);
                }
            }
            on_path.pop();
        }
        dfs(root, &adj, &mut on_path, &mut seen_cycles, &mut out);
    }
    out
}

/// Run the lock-order analysis over the full source set.
pub(super) fn run(files: &[SourceFile<'_>], out: &mut Vec<Finding>) {
    if !files.iter().any(|f| f.flags.is_comm) {
        return;
    }
    let mut an = Analyzer::new(files);

    // Blessed-helper check: `.lock().unwrap()` / `.lock().expect(`.
    for &file in &an.comm.clone() {
        let m = an.model(file);
        let mut lints: Vec<(Span, String)> = Vec::new();
        for i in 0..m.code.len() {
            if m.code[i].kind != TokKind::Ident || m.text(i) != "lock" {
                continue;
            }
            if i == 0 || !m.code[i - 1].is_punct(b'.') {
                continue;
            }
            if i + 1 >= m.code.len() || !m.code[i + 1].is_punct(b'(') {
                continue;
            }
            if m.in_test(m.code[i].span.start) {
                continue;
            }
            let Some(close) = m.matching_close(i + 1) else {
                continue;
            };
            if close + 2 < m.code.len()
                && m.code[close + 1].is_punct(b'.')
                && m.code[close + 2].kind == TokKind::Ident
            {
                let next = m.text(close + 2);
                if next == "unwrap" || next == "expect" {
                    lints.push((
                        m.code[i].span,
                        format!(
                            "`.lock().{next}(` — comm locks must recover from poisoning \
                             via the blessed helpers, not panic"
                        ),
                    ));
                }
            }
        }
        for (span, msg) in lints {
            let m = an.model(file);
            let line = m.line_of(span.start);
            if !m.allow_on(line, Rule::LockOrder.name()) {
                out.push(super::finding(
                    m,
                    &files[file].flags,
                    span,
                    Rule::LockOrder,
                    msg,
                ));
            }
        }
    }

    // Acquisition-graph walk.
    for &file in &an.comm.clone() {
        for f in 0..an.model(file).functions.len() {
            an.walk_fn(FnId { file, f });
        }
    }
    for (file, span, msg) in an.findings.clone() {
        let m = an.model(file);
        let line = m.line_of(span.start);
        if !m.allow_on(line, Rule::LockOrder.name()) {
            out.push(super::finding(
                m,
                &files[file].flags,
                span,
                Rule::LockOrder,
                msg,
            ));
        }
    }
    for cycle in find_cycles(&an.edges) {
        let mut ring = cycle.clone();
        ring.push(cycle[0].clone());
        let witness_key = (
            cycle[0].clone(),
            cycle.get(1).cloned().unwrap_or_else(|| cycle[0].clone()),
        );
        let (file, span) = match an.edges.get(&witness_key) {
            Some(w) => (w.file, w.span),
            None => continue,
        };
        let m = an.model(file);
        let line = m.line_of(span.start);
        if !m.allow_on(line, Rule::LockOrder.name()) {
            out.push(super::finding(
                m,
                &files[file].flags,
                span,
                Rule::LockOrder,
                format!(
                    "cyclic lock acquisition order: {} — opposite-order paths can deadlock",
                    ring.join(" -> ")
                ),
            ));
        }
    }
}
