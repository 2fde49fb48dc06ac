//! Schema self-test: BENCHMARK.json, the registries in the code and what
//! the binary actually prints must agree. Runs every workload at
//! `--quick` size (about a thousand vertices), so it checks names and
//! shapes, never speeds.

use cagnet_benchmark::json::Json;
use cagnet_benchmark::metrics::{self, PER_LAYER};
use cagnet_benchmark::workloads::{self, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_cagnet-benchmark");

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array '{key}'"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry} has no string '{key}'"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_registries_and_within_the_contract() {
    let doc = benchmark_json();
    let generated = Json::parse(&stdout_of(&["schema"])).expect("schema output parses");
    assert_eq!(
        doc, generated,
        "BENCHMARK.json is stale: regenerate it with `schema`"
    );

    let Json::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.num("run_seconds").expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = Vec::new();
    let workloads = entries(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        names.push(text(w, "name"));
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let end_to_end = entries(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    let mut setup_bound = None;
    let mut max_bound: f64 = 0.0;
    for m in end_to_end {
        names.push(text(m, "name"));
        assert!(is_unit(text(m, "unit")));
        let bound = m.num("bound").expect("bound");
        assert!((0.0..=0.25).contains(&bound));
        max_bound = max_bound.max(bound);
        if text(m, "name") == "setup_s" {
            assert_eq!((text(m, "unit"), text(m, "better")), ("s", "lower"));
            setup_bound = Some(bound);
        }
    }
    assert_eq!(
        setup_bound,
        Some(max_bound),
        "setup_s takes the largest bound"
    );
    let per_layer = entries(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        names.push(text(m, "name"));
        assert!(is_unit(text(m, "unit")));
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    for (i, n) in names.iter().enumerate() {
        assert!(is_name(n), "bad name {n}");
        assert!(!names[..i].contains(n), "name {n} used twice");
    }
}

#[test]
fn scoped_metrics_name_real_workloads_and_follow_what_the_workloads_do() {
    for m in &PER_LAYER {
        for name in m.applies_to {
            assert!(
                workloads::find(name).is_some(),
                "{}: no workload {name}",
                m.name
            );
        }
    }
    for wl in &WORKLOADS {
        assert_eq!(
            metrics::applies("partitioner.partition_ms", wl.name),
            wl.partition,
            "{}",
            wl.name
        );
        assert_eq!(
            metrics::applies("proc.socket_vs_shared_ratio", wl.name),
            wl.transport == cagnet_comm::TransportKind::Socket,
            "{}",
            wl.name
        );
    }
}

/// Run every workload at quick size with `--trace <trace>` and check each
/// result line against the metric list named `section`: every name on
/// every line (the driver's contract), a finite value where the metric
/// applies to the workload and 0 where it does not. `correct` and `failed`
/// also carry the traced run's own checks, among them that `src/plan.rs`
/// still prices to what each trainer charges, so a stale kernel plan fails
/// here.
fn check_quick_run(trace: &str, section: &str, out: &Path) {
    let doc = benchmark_json();
    let expected: Vec<(&str, &str)> = entries(&doc, section)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    let stdout = stdout_of(&[
        "run",
        "--quick",
        "--trace",
        trace,
        "--out",
        &out.to_string_lossy(),
    ]);
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(lines.len(), WORKLOADS.len(), "one result line per workload");
    for (wl, line) in WORKLOADS.iter().zip(&lines) {
        let Json::Obj(fields) = line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", wl.name);
        assert_eq!(line.num("failed"), Ok(0.0), "{}", wl.name);
        assert!(line.num("attempted").expect("attempted") >= 1.0);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(got, want, "{} --trace {trace}", wl.name);
        for ((name, unit), (_, value)) in expected.iter().zip(metrics) {
            assert_eq!(text(value, "unit"), *unit, "{name}");
            let v = value.num("value").unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(v.is_finite(), "{} {name} = {v}", wl.name);
            if !metrics::applies(name, wl.name) {
                assert_eq!(v, 0.0, "{} does not measure {name}", wl.name);
            }
        }
    }
    let results = std::fs::read_to_string(out).expect("results file written");
    let results = Json::parse(&results).expect("results file parses");
    assert_eq!(
        results
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(WORKLOADS.len())
    );
    for key in ["seed", "nproc", "rustc", "git_commit"] {
        assert!(results.get(key).is_some(), "results.json records {key}");
    }
}

#[test]
fn quick_runs_emit_every_metric_named_in_benchmark_json() {
    let out: PathBuf = package_dir().join("out");
    check_quick_run("0", "end_to_end", &out.join("schema-test-untraced.json"));
    check_quick_run("1", "per_layer", &out.join("schema-test-traced.json"));
    for wl in &WORKLOADS {
        let path = out.join(format!("{}.trace.json", wl.name));
        let trace =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let events = Json::parse(&trace).expect("trace parses");
        let names: Vec<&str> = events
            .as_arr()
            .expect("trace is an array")
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        let has = |span: &str| names.contains(&span);
        assert_eq!(has("partition"), wl.partition, "{}", wl.name);
        assert_eq!(has("relabel"), wl.partition, "{}", wl.name);
        assert_eq!(
            has("spmm_t2"),
            metrics::applies("parallel.spmm_t2_speedup", wl.name),
            "{}",
            wl.name
        );
        for span in [
            "launch",
            "setup",
            "epoch",
            "forward",
            "accuracy",
            "spmm",
            "gemm",
            "bcast",
            "gather_rows",
            "frame_encode",
        ] {
            assert!(names.contains(&span), "{}: no '{span}' span", wl.name);
        }
    }
}
