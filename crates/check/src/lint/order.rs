//! Collective-order analysis: the static counterpart of the runtime
//! bit-identity tests.
//!
//! Code in `crates/core/src/dist/` must issue the *same collectives in
//! the same order* regardless of which `CommMode` sibling arm runs — in
//! practice the one stage-fetch dispatch, `State::fetch` in
//! `dist/mod.rs`. A divergent branch desynchronizes seq numbers across
//! ranks and deadlocks (or silently breaks bit-identity).
//!
//! Collective issue sites are extracted per function, *interprocedurally
//! within the file*: calls to same-file functions and to `let`-bound
//! closures splice the callee's issue sequence at the call site. Issue
//! kinds are normalized into equivalence classes so that the dense and
//! sparse spellings of the same logical step compare equal
//! (`ibcast_shared` ≡ `igather_rows` ≡ "fetch": both fetch the remote
//! block for a stage).

use std::collections::{HashMap, HashSet};

use super::lexer::TokKind;
use super::model::FileModel;
use super::{Finding, PathFlags, Rule};

/// One collective issue site (possibly spliced from a callee).
#[derive(Clone, Debug)]
pub(super) struct Event {
    /// Normalized kind class.
    pub class: &'static str,
}

/// Normalize a collective method name into its equivalence class.
/// Dense/sparse and blocking/split-phase spellings of the same logical
/// step share a class.
fn normalize(name: &str) -> Option<&'static str> {
    Some(match name {
        "bcast"
        | "bcast_shared"
        | "ibcast_shared"
        | "gather_rows"
        | "igather_rows"
        | "igather_rows_refresh" => "fetch",
        "allreduce_mat" | "iallreduce_mat" => "allreduce_mat",
        "allgather" | "allgather_shared" => "allgather",
        "allreduce_scalar" => "allreduce_scalar",
        "reduce_scatter_rows" => "reduce_scatter_rows",
        "alltoall" => "alltoall",
        "gather" => "gather",
        "scatter" => "scatter",
        "sendrecv" => "sendrecv",
        "barrier" => "barrier",
        _ => return None,
    })
}

/// Interprocedural (file-local) collective-event extractor with
/// memoized per-function summaries.
struct Extractor<'m, 's> {
    m: &'m FileModel<'s>,
    /// fn name → indices into `m.functions` (for call resolution).
    fns_by_name: HashMap<&'s str, Vec<usize>>,
    /// `match` keyword token index → index into `m.matches`.
    matches_by_kw: HashMap<usize, usize>,
    /// Memoized per-function event sequences.
    memo: HashMap<usize, Vec<Event>>,
    /// Recursion guard.
    visiting: HashSet<usize>,
}

impl<'m, 's> Extractor<'m, 's> {
    fn new(m: &'m FileModel<'s>) -> Self {
        let mut fns_by_name: HashMap<&'s str, Vec<usize>> = HashMap::new();
        for (i, f) in m.functions.iter().enumerate() {
            fns_by_name.entry(m.text(f.name_idx)).or_default().push(i);
        }
        let matches_by_kw = m
            .matches
            .iter()
            .enumerate()
            .map(|(mi, ma)| (ma.kw, mi))
            .collect();
        Extractor {
            m,
            fns_by_name,
            matches_by_kw,
            memo: HashMap::new(),
            visiting: HashSet::new(),
        }
    }

    /// The event sequence of function `fi`'s body.
    fn fn_events(&mut self, fi: usize) -> Vec<Event> {
        if let Some(cached) = self.memo.get(&fi) {
            return cached.clone();
        }
        if !self.visiting.insert(fi) {
            return Vec::new();
        }
        let events = match self.m.functions[fi].body {
            Some((open, close)) => self.walk(open + 1, close, Some(fi)),
            None => Vec::new(),
        };
        self.visiting.remove(&fi);
        self.memo.insert(fi, events.clone());
        events
    }

    /// Collect events from code-token range `[start, end)`, splicing
    /// callee sequences. `scope` is the enclosing function (for closure
    /// resolution); nested fn and named-closure *definition* bodies are
    /// skipped — their events land at call sites.
    fn walk(&mut self, start: usize, end: usize, scope: Option<usize>) -> Vec<Event> {
        let m = self.m;
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            // Skip nested fn definitions.
            if let Some(f) = m.functions.iter().find(|f| f.kw == i) {
                if let Some((_, close)) = f.body {
                    i = close + 1;
                    continue;
                }
            }
            // Skip named-closure definition bodies (events splice at
            // call sites instead).
            if let Some(cl) = m
                .closures
                .iter()
                .find(|c| c.name_idx == i && c.owner == scope)
            {
                i = cl.body.1 + 1;
                continue;
            }
            // A nested match contributes its scrutinee's events plus a
            // *representative* arm (the first): sibling arms are
            // required to be identical by this very analysis, so one
            // stands for all — walking every arm would double-count.
            if let Some(&mi) = self.matches_by_kw.get(&i) {
                let (ss, se) = m.matches[mi].scrutinee;
                let arm0 = m.matches[mi].arms.first().map(|a| a.body);
                let close = m.matching_close(se);
                if let Some(close) = close {
                    let mut events = self.walk(ss, se, scope);
                    if let Some((bs, be)) = arm0 {
                        events.extend(self.walk(bs, be, scope));
                    }
                    out.extend(events);
                    i = close + 1;
                    continue;
                }
            }
            if m.code[i].kind == TokKind::Ident && i + 1 < end && m.code[i + 1].is_punct(b'(') {
                let name = m.text(i);
                let is_method = i > 0 && m.code[i - 1].is_punct(b'.');
                if is_method {
                    if let Some(class) = normalize(name) {
                        out.push(Event { class });
                        i += 2;
                        continue;
                    }
                    // A method call resolving to a same-file fn splices
                    // its summary (e.g. `self.serve_cached(…)`).
                    if let Some(fi) = self.resolve_fn(name) {
                        let events = self.fn_events(fi);
                        out.extend(events);
                        i += 2;
                        continue;
                    }
                } else {
                    // Bare call: a closure in this scope, else a
                    // same-file free fn.
                    if let Some(ci) = m
                        .closures
                        .iter()
                        .position(|c| c.owner == scope && m.text(c.name_idx) == name)
                    {
                        let (bs, be) = m.closures[ci].body;
                        let owner = m.closures[ci].owner;
                        let events = self.walk(bs, be + 1, owner);
                        out.extend(events);
                        i += 2;
                        continue;
                    }
                    if let Some(fi) = self.resolve_fn(name) {
                        let events = self.fn_events(fi);
                        out.extend(events);
                        i += 2;
                        continue;
                    }
                }
            }
            i += 1;
        }
        out
    }

    /// Resolve a called name to a unique same-file function.
    fn resolve_fn(&self, name: &str) -> Option<usize> {
        match self.fns_by_name.get(name) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }
}

fn classes(seq: &[Event]) -> Vec<&'static str> {
    seq.iter().map(|e| e.class).collect()
}

fn render(seq: &[Event]) -> String {
    if seq.is_empty() {
        "[]".to_string()
    } else {
        format!("[{}]", classes(seq).join(", "))
    }
}

/// One `if`/`else` branch: `(cond, body)` code-token ranges (a bare
/// `else` gets an empty cond range).
type Branch = ((usize, usize), (usize, usize));

/// Parse an `if cond { … } else if cond { … } else { … }` chain at the
/// start of code-token range `[bs, be)`. Returns one [`Branch`] per
/// arm, or `None` when the range does not start with `if`.
fn if_chain(m: &FileModel<'_>, bs: usize, be: usize) -> Option<Vec<Branch>> {
    let mut out = Vec::new();
    let mut i = bs;
    let mut be = be;
    // A braced arm body `=> { if … }` hands us the outer braces too.
    if i < be && m.code[i].is_punct(b'{') && m.matching_close(i) == Some(be - 1) {
        i += 1;
        be -= 1;
    }
    loop {
        if !(i < be && m.code[i].kind == TokKind::Ident && m.text(i) == "if") {
            return None;
        }
        let cond_start = i + 1;
        let mut j = cond_start;
        while j < be && !m.code[j].is_punct(b'{') {
            j += 1;
        }
        let close = m.matching_close(j)?;
        out.push(((cond_start, j), (j + 1, close)));
        i = close + 1;
        if !(i < be && m.code[i].kind == TokKind::Ident && m.text(i) == "else") {
            return Some(out);
        }
        i += 1;
        if i < be && m.code[i].is_punct(b'{') {
            let close = m.matching_close(i)?;
            out.push(((i, i), (i + 1, close)));
            return Some(out);
        }
        // `else if …`: continue the chain.
    }
}

/// Does the token range mention the identifier `name`?
fn range_mentions(m: &FileModel<'_>, range: (usize, usize), name: &str) -> bool {
    (range.0..range.1).any(|i| m.code[i].kind == TokKind::Ident && m.text(i) == name)
}

/// Is this arm pattern "enum-like": a `::` path, or a single bare
/// uppercase identifier (a unit variant brought into scope)?
fn enum_like(m: &FileModel<'_>, pat: (usize, usize)) -> bool {
    for i in pat.0..pat.1 {
        if m.is_path_sep(i) {
            return true;
        }
    }
    if pat.1 == pat.0 + 1 && m.code[pat.0].kind == TokKind::Ident {
        return m.text(pat.0).starts_with(|c: char| c.is_ascii_uppercase());
    }
    false
}

/// Run the collective-order analysis over one dist file.
pub(super) fn run(m: &FileModel<'_>, flags: &PathFlags, out: &mut Vec<Finding>) {
    if !flags.is_dist {
        return;
    }
    let mut ex = Extractor::new(m);
    for mi in 0..m.matches.len() {
        let ma = &m.matches[mi];
        let kw_byte = m.code[ma.kw].span.start;
        if m.in_test(kw_byte) {
            continue;
        }
        let line = m.line_of(kw_byte);
        if m.allow_on(line, Rule::CollectiveOrder.name()) {
            continue;
        }
        let scope = m.enclosing_fn(ma.kw);
        let arm_events: Vec<Vec<Event>> = ma
            .arms
            .iter()
            .map(|a| ex.walk(a.body.0, a.body.1, scope))
            .collect();

        // Enum-variant siblings (CommMode::Dense vs SparsityAware, …) must
        // issue identical normalized sequences.
        //
        // A `CommMode::Cached` arm is special (DESIGN.md §13): its body
        // is an `if cached_serving { serve } else if training
        // { refresh gather } else { exact gather }` chain (the serve
        // condition names `cached_serving`, a flag or a call). The serve
        // branch legitimately issues *nothing* — the whole point of the
        // tier is to skip the collective — so it is exempt from the
        // comparison but must stay collective-free; every other branch
        // is checked against the `SparsityAware`/`Dense` siblings
        // independently (the refresh spellings normalize to the same
        // "fetch" class).
        let enum_arms: Vec<usize> = (0..ma.arms.len())
            .filter(|&i| enum_like(m, ma.arms[i].pattern))
            .collect();
        if enum_arms.len() < 2 {
            continue;
        }
        let mut considered: Vec<usize> = enum_arms.clone();
        for (i, ev) in arm_events.iter().enumerate() {
            if !enum_arms.contains(&i) && !ev.is_empty() {
                considered.push(i);
            }
        }
        // (label, events) sequences to compare; a Cached arm contributes
        // one entry per non-serving branch of its chain.
        let mut comparables: Vec<(String, Vec<Event>)> = Vec::new();
        for &i in &considered {
            let (ps, pe) = ma.arms[i].pattern;
            let pat = if ps < pe {
                m.src[m.code[ps].span.start..m.code[pe - 1].span.end].trim()
            } else {
                ""
            };
            let (bs, be) = ma.arms[i].body;
            let chain = if range_mentions(m, ma.arms[i].pattern, "Cached") {
                if_chain(m, bs, be)
            } else {
                None
            };
            match chain {
                Some(branches) => {
                    for (n, (cond, body)) in branches.iter().enumerate() {
                        let events = ex.walk(body.0, body.1, scope);
                        if range_mentions(m, *cond, "cached_serving") {
                            if !events.is_empty() {
                                out.push(super::finding(
                                    m,
                                    flags,
                                    m.code[ma.kw].span,
                                    Rule::CollectiveOrder,
                                    format!(
                                        "the cache-serve branch of a `Cached` arm issues {} — \
                                         serving from cache must skip the exchange entirely",
                                        render(&events),
                                    ),
                                ));
                            }
                        } else {
                            comparables.push((format!("{pat} branch {}", n + 1), events));
                        }
                    }
                }
                None => comparables.push((pat.to_string(), arm_events[i].clone())),
            }
        }
        if comparables.iter().all(|(_, ev)| ev.is_empty()) {
            continue;
        }
        let (_, reference) = &comparables[0];
        for (label, events) in &comparables[1..] {
            if classes(events) != classes(reference) {
                out.push(super::finding(
                    m,
                    flags,
                    m.code[ma.kw].span,
                    Rule::CollectiveOrder,
                    format!(
                        "sibling match arms issue different collective sequences: \
                         arm 1 issues {}, arm `{}` issues {} — all variants must issue \
                         the same kinds in the same order",
                        render(reference),
                        label,
                        render(events),
                    ),
                ));
                break;
            }
        }
    }
}
