//! Spans recorded by the benchmark's own code around its calls into the
//! library, kept in memory and written once as a Chrome trace.
//!
//! Timestamps are wall-clock nanoseconds since the Unix epoch so spans
//! from socket worker processes line up with the launcher's. Durations
//! reported as metrics never come from these timestamps; they come from
//! the `Instant` pair taken around the same call.

use crate::json::Json;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Lane of spans recorded outside any rank (partitioning, replays).
pub const HOST_LANE: usize = 1000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Rank that ran it, or [`HOST_LANE`].
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in this span's own recorder) of the span that caused it.
    pub parent: Option<usize>,
    /// Timed-epoch index the span belongs to.
    pub epoch: Option<usize>,
}

fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// In-memory span log of one rank (or of the host lane).
pub struct Recorder {
    rank: usize,
    pub spans: Vec<Span>,
    /// Spans begun and not yet ended, innermost last; a new span's parent
    /// is the innermost open one.
    open: Vec<(usize, Instant)>,
}

impl Recorder {
    pub fn new(rank: usize) -> Self {
        Recorder {
            rank,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span that started `since` ago (zero for "now"); spans
    /// recorded until the matching [`Recorder::end`] are its children.
    pub fn begin(&mut self, name: &str, epoch: Option<usize>, since: Duration) {
        let start_ns = now_ns().saturating_sub(since.as_nanos() as u64);
        self.spans.push(Span {
            name: name.to_string(),
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().map(|(idx, _)| *idx),
            epoch,
        });
        self.open
            .push((self.spans.len() - 1, Instant::now() - since));
    }

    /// Close the innermost open span and return how long it lasted.
    pub fn end(&mut self) -> Duration {
        let (idx, started) = self.open.pop().expect("end without begin");
        let dt = started.elapsed();
        self.spans[idx].end_ns = self.spans[idx].start_ns + dt.as_nanos() as u64;
        dt
    }

    /// Run `f` inside a span; returns its result and measured duration.
    pub fn span<R>(
        &mut self,
        name: &str,
        epoch: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        self.begin(name, epoch, Duration::ZERO);
        let out = f();
        (out, self.end())
    }
}

/// Names a rank records inside `run_wire`; spans cross the process
/// boundary as fixed-width integer rows indexing this table.
pub const RANK_SPAN_NAMES: [&str; 10] = [
    "run",
    "launch",
    "setup",
    "epoch",
    "forward",
    "accuracy",
    "bcast",
    "gather_rows",
    "allreduce",
    "barrier",
];

const ROW: usize = 5;

/// Flatten rank spans for the `Wire` result of `run_wire`.
pub fn to_rows(spans: &[Span]) -> Vec<u64> {
    let mut out = Vec::with_capacity(spans.len() * ROW);
    for s in spans {
        let name = RANK_SPAN_NAMES
            .iter()
            .position(|n| *n == s.name)
            .expect("rank span name is in RANK_SPAN_NAMES");
        out.extend([
            name as u64,
            s.start_ns,
            s.end_ns,
            s.parent.map_or(0, |p| p as u64 + 1),
            s.epoch.map_or(0, |e| e as u64 + 1),
        ]);
    }
    out
}

pub fn from_rows(rank: usize, rows: &[u64]) -> Vec<Span> {
    rows.chunks_exact(ROW)
        .map(|r| Span {
            name: RANK_SPAN_NAMES
                .get(r[0] as usize)
                .copied()
                .unwrap_or("unknown")
                .to_string(),
            rank,
            start_ns: r[1],
            end_ns: r[2],
            parent: (r[3] > 0).then(|| r[3] as usize - 1),
            epoch: (r[4] > 0).then(|| r[4] as usize - 1),
        })
        .collect()
}

pub fn span_to_json(s: &Span) -> Json {
    let mut o = Json::obj();
    o.set("name", s.name.as_str())
        .set("rank", s.rank)
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
        .set("parent", s.parent.map_or(Json::Null, Json::from))
        .set("epoch", s.epoch.map_or(Json::Null, Json::from));
    o
}

pub fn span_from_json(j: &Json) -> Option<Span> {
    Some(Span {
        name: j.get("name")?.as_str()?.to_string(),
        rank: j.num("rank").ok()? as usize,
        start_ns: j.num("start_ns").ok()? as u64,
        end_ns: j.num("end_ns").ok()? as u64,
        parent: j.get("parent").and_then(Json::as_f64).map(|p| p as usize),
        epoch: j.get("epoch").and_then(Json::as_f64).map(|e| e as usize),
    })
}

/// Chrome trace-event JSON (array flavour, like `cagnet_comm::trace`):
/// one `pid` per source process group, one `tid` per rank, microseconds
/// relative to the earliest span.
pub fn to_chrome_json(groups: &[(&str, Vec<Span>)]) -> String {
    let origin = groups
        .iter()
        .flat_map(|(_, spans)| spans.iter().map(|s| s.start_ns))
        .min()
        .unwrap_or(0);
    let mut events = Vec::new();
    for (pid, (label, spans)) in groups.iter().enumerate() {
        let mut meta = Json::obj();
        let mut args = Json::obj();
        args.set("name", *label);
        meta.set("name", "process_name")
            .set("ph", "M")
            .set("pid", pid)
            .set("args", args);
        events.push(meta);
        for (idx, s) in spans.iter().enumerate() {
            let mut args = Json::obj();
            args.set("id", idx)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("epoch", s.epoch.map_or(Json::Null, Json::from));
            let mut e = Json::obj();
            e.set("name", s.name.as_str())
                .set("cat", *label)
                .set("ph", "X")
                .set("pid", pid)
                .set("tid", s.rank)
                .set("ts", (s.start_ns - origin) as f64 / 1e3)
                .set("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                .set("args", args);
            events.push(e);
        }
    }
    Json::Arr(events).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_nest() {
        let mut rec = Recorder::new(3);
        rec.begin("epoch", Some(2), Duration::ZERO);
        let (x, inner) = rec.span("forward", Some(2), || 7);
        let outer = rec.end();
        assert_eq!(x, 7);
        assert!(inner <= outer);
        let back = from_rows(3, &to_rows(&rec.spans));
        assert_eq!(back, rec.spans);
        assert_eq!((back[0].parent, back[1].parent), (None, Some(0)));
        let chrome = to_chrome_json(&[("train", back)]);
        let parsed = Json::parse(&chrome).expect("valid JSON");
        assert_eq!(parsed.as_arr().map(<[Json]>::len), Some(3));
    }
}
