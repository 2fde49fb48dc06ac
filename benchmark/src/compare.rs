//! `compare <a.json> <b.json>`: judge a second set of runs against a
//! first, one row per workload x end-to-end metric, after one row per
//! workload for the epochs that failed.
//!
//! Only runs that were correct and lost no epoch contribute values: a run
//! whose children crashed measured nothing, and its zeros must not read as
//! a gain. The failures row is `regressed` when the second set fails a
//! larger share of its epochs than the first, or has no valid run where
//! the first has one.
//!
//! A metric row is `regressed` when the second median is worse than the
//! first by more than the metric's bound, `unresolved` when either side's
//! own run-to-run spread (interquartile distance over median) is wider
//! than the bound, so the data cannot tell, and `ok` otherwise. A metric
//! the program counts (`same_seed_bound`) is judged seed by seed instead
//! when both sets ran the same seeds: the graph is then the same on both
//! sides, so the worst seed must stay within the much tighter bound.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The row of failures.
const FAILED_EPOCHS: &str = "failed_epochs";

#[derive(Clone, Debug)]
struct Row {
    workload: &'static str,
    /// An end-to-end metric, or [`FAILED_EPOCHS`].
    metric: &'static str,
    a: Vec<f64>,
    b: Vec<f64>,
    /// Share by which b is worse than a (positive = worse).
    delta: f64,
    bound: f64,
    /// Judged seed by seed against `same_seed_bound`.
    same_seed: bool,
    verdict: Verdict,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload's runs in one results file.
struct Side<'a> {
    /// Runs that were correct and lost no epoch.
    valid: Vec<&'a Json>,
    runs: usize,
    attempted: f64,
    failed: f64,
}

impl<'a> Side<'a> {
    fn of(results: &'a Json, workload: &str) -> Self {
        let runs: Vec<&Json> = results
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .collect();
        let sum = |key: &str| runs.iter().filter_map(|r| r.num(key).ok()).sum::<f64>();
        Side {
            valid: runs
                .iter()
                .copied()
                .filter(|r| {
                    r.get("correct") == Some(&Json::Bool(true)) && r.num("failed") == Ok(0.0)
                })
                .collect(),
            runs: runs.len(),
            attempted: sum("attempted"),
            failed: sum("failed"),
        }
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.valid
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.num("value").ok())
            .collect()
    }

    fn seeds(&self) -> Vec<Option<f64>> {
        self.valid.iter().map(|r| r.num("seed").ok()).collect()
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Share by which `b` is worse than `a`, whichever way the metric points.
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn metric_row(workload: &'static str, m: &EndToEnd, a: &Side, b: &Side) -> Option<Row> {
    let (va, vb) = (a.values(m.name), b.values(m.name));
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let seeds = a.seeds();
    let same_seeds = seeds.iter().all(Option::is_some) && seeds == b.seeds();
    let (delta, bound, same_seed, verdict) = match m.same_seed_bound {
        Some(strict) if same_seeds && va.len() == vb.len() => {
            let worst = va
                .iter()
                .zip(&vb)
                .map(|(x, y)| worsening(m, *x, *y))
                .fold(f64::NEG_INFINITY, f64::max);
            let verdict = if worst <= strict {
                Verdict::Ok
            } else {
                Verdict::Regressed
            };
            (worst, strict, true, verdict)
        }
        _ => {
            let delta = worsening(m, median(&va), median(&vb));
            let verdict = if spread(&va).max(spread(&vb)) > m.bound || !delta.is_finite() {
                Verdict::Unresolved
            } else if delta > m.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            (delta, m.bound, false, verdict)
        }
    };
    Some(Row {
        workload,
        metric: m.name,
        a: va,
        b: vb,
        delta,
        bound,
        same_seed,
        verdict,
    })
}

/// Every row of the table, in workload then metric order. A workload one
/// of the files did not run is left out.
fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for wl in &WORKLOADS {
        let (sa, sb) = (Side::of(a, wl.name), Side::of(b, wl.name));
        if sa.runs == 0 || sb.runs == 0 {
            continue;
        }
        let lost_all = sb.valid.is_empty() && !sa.valid.is_empty();
        let delta = sb.failed_share() - sa.failed_share();
        out.push(Row {
            workload: wl.name,
            metric: FAILED_EPOCHS,
            a: vec![sa.failed, sa.attempted, (sa.runs - sa.valid.len()) as f64],
            b: vec![sb.failed, sb.attempted, (sb.runs - sb.valid.len()) as f64],
            delta,
            bound: 0.0,
            same_seed: false,
            verdict: if delta > 0.0 || lost_all {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
        out.extend(
            END_TO_END
                .iter()
                .filter_map(|m| metric_row(wl.name, m, &sa, &sb)),
        );
    }
    out
}

/// Print the table; `Ok(true)` when any row regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<28} {:<22} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "delta", "bound"
    );
    let rows = rows(&a, &b);
    for row in &rows {
        let verdict = row.verdict.name();
        if row.metric == FAILED_EPOCHS {
            let side = |v: &[f64]| format!("{}/{} ({} runs invalid)", v[0], v[1], v[2]);
            println!(
                "{:<28} {:<22} a: {:<26} b: {:<26} {verdict}",
                row.workload,
                row.metric,
                side(&row.a),
                side(&row.b)
            );
            continue;
        }
        let range = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{q1:.4}..{q3:.4}")
        };
        println!(
            "{:<28} {:<22} {:>12.4} {:>12} {:>12.4} {:>12} {:>+7.2}% {:>6.2}%  {verdict}{}",
            row.workload,
            row.metric,
            median(&row.a),
            range(&row.a),
            median(&row.b),
            range(&row.b),
            row.delta * 100.0,
            row.bound * 100.0,
            if row.same_seed {
                " (worst seed, same seeds)"
            } else {
                ""
            }
        );
    }
    Ok(rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WL: &str = "amazon_2d_p4";

    /// A results file of one run per `(seed, epoch_wall_ms, words, failed)`.
    fn results(runs: &[(u64, f64, f64, usize)]) -> Json {
        let records: Vec<Json> = runs
            .iter()
            .map(|&(seed, wall, words, failed)| {
                let mut metrics = Json::obj();
                for (name, value) in [
                    ("epoch_wall_ms", wall),
                    ("setup_s", 0.03),
                    ("comm_words_per_epoch", words),
                    ("modeled_epoch_ms", 10.5),
                    ("peak_rss_mb", 230.0),
                ] {
                    let mut m = Json::obj();
                    m.set("value", value);
                    metrics.set(name, m);
                }
                let mut r = Json::obj();
                r.set("workload", WL)
                    .set("seed", seed)
                    .set("correct", failed == 0)
                    .set("attempted", 100usize)
                    .set("failed", failed)
                    .set("metrics", metrics);
                r
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("runs", records);
        doc
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {metric}"))
            .verdict
    }

    #[test]
    fn a_set_compared_with_itself_is_ok_on_every_row() {
        let a = results(&[
            (1, 100.0, 8e6, 0),
            (2, 104.0, 8.1e6, 0),
            (3, 98.0, 7.9e6, 0),
        ]);
        let table = rows(&a, &a);
        assert_eq!(table.len(), 1 + END_TO_END.len());
        assert!(table.iter().all(|r| r.verdict == Verdict::Ok), "{table:?}");
    }

    #[test]
    fn crashed_runs_are_a_regression_not_a_gain() {
        // Every child of b's runs crashed: all metrics read 0.
        let a = results(&[(1, 100.0, 8e6, 0), (2, 104.0, 8e6, 0)]);
        let b = results(&[(1, 0.0, 0.0, 100), (2, 0.0, 0.0, 100)]);
        let table = rows(&a, &b);
        assert_eq!(verdict_of(&table, FAILED_EPOCHS), Verdict::Regressed);
        assert_eq!(
            table.len(),
            1,
            "no metric row without a valid run: {table:?}"
        );
        // One bad run among good ones is left out of the medians and
        // still counts against b.
        let b = results(&[(1, 0.0, 0.0, 100), (2, 103.0, 8e6, 0)]);
        let table = rows(&a, &b);
        assert_eq!(verdict_of(&table, FAILED_EPOCHS), Verdict::Regressed);
        assert_eq!(verdict_of(&table, "epoch_wall_ms"), Verdict::Ok);
        // The other way round, b lost nothing that a had.
        assert_eq!(verdict_of(&rows(&b, &a), FAILED_EPOCHS), Verdict::Ok);
    }

    #[test]
    fn one_more_word_on_the_same_seed_regresses() {
        let a = results(&[(1, 100.0, 8_000_000.0, 0), (2, 100.0, 8_100_000.0, 0)]);
        let b = results(&[(1, 100.0, 8_000_000.0, 0), (2, 100.0, 8_100_001.0, 0)]);
        let row = rows(&a, &b)
            .into_iter()
            .find(|r| r.metric == "comm_words_per_epoch")
            .expect("words row");
        assert!(row.same_seed);
        assert_eq!((row.bound, row.verdict), (0.0, Verdict::Regressed));
        // On other seeds the graph moves the count, and the loose bound
        // applies to the medians.
        let b = results(&[(3, 100.0, 8_000_000.0, 0), (4, 100.0, 8_100_001.0, 0)]);
        let row = rows(&a, &b)
            .into_iter()
            .find(|r| r.metric == "comm_words_per_epoch")
            .expect("words row");
        assert!(!row.same_seed);
        assert_eq!(row.verdict, Verdict::Ok);
    }

    #[test]
    fn wall_clock_is_judged_by_bound_and_spread() {
        let a = results(&[(1, 100.0, 8e6, 0), (2, 101.0, 8e6, 0), (3, 99.0, 8e6, 0)]);
        let slower = results(&[(1, 130.0, 8e6, 0), (2, 131.0, 8e6, 0), (3, 129.0, 8e6, 0)]);
        assert_eq!(
            verdict_of(&rows(&a, &slower), "epoch_wall_ms"),
            Verdict::Regressed
        );
        let noisy = results(&[(1, 60.0, 8e6, 0), (2, 100.0, 8e6, 0), (3, 140.0, 8e6, 0)]);
        assert_eq!(
            verdict_of(&rows(&a, &noisy), "epoch_wall_ms"),
            Verdict::Unresolved
        );
    }
}
