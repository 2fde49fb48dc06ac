//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! cagnet-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--runs R]
//! cagnet-benchmark compare <a.json> <b.json>
//! cagnet-benchmark schema          # prints BENCHMARK.json
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last line
//! of stdout, one JSON object `{correct, attempted, failed, metrics}` per
//! workload. `child` and `child-collectives` are what it starts for each
//! repetition; they are not meant to be called by hand.

use cagnet_benchmark::json::Json;
use cagnet_benchmark::workloads::{self, Workload, DEFAULT_SEED, WORKLOADS};
use cagnet_benchmark::{child, compare, metrics, run};
use cagnet_check::CheckMode;
use cagnet_comm::TransportKind;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Seconds of timed epochs per run unless `--seconds` says otherwise
/// (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 9.0;

/// How the driver starts a run, from the repository root (`command` in
/// BENCHMARK.json); it appends `--workload W --seed N --seconds S --trace T`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value '{v}' for {name}")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(v) = self.value("--seed") else {
            return Ok(DEFAULT_SEED);
        };
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("bad value '{v}' for --seed"))
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        self.value("--workload")
            .map(|name| {
                workloads::find(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (have: {})", names.join(", "))
                })
            })
            .transpose()
    }
}

fn tool_version(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let quick = flags.has("--quick");
    let traced = match flags.parsed::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let seconds =
        flags
            .parsed::<f64>("--seconds")?
            .unwrap_or(if quick { 0.3 } else { DEFAULT_SECONDS });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let runs = flags.parsed::<u64>("--runs")?.unwrap_or(1).max(1);
    let seed = flags.seed()?;
    let selected: Vec<&'static Workload> = match flags.workload()? {
        Some(wl) => vec![wl],
        None => WORKLOADS.iter().collect(),
    };

    let mut records = Vec::new();
    for wl in selected {
        // Repeated runs each take the next seed, so a set of runs spans
        // inputs as well as machine noise.
        for r in 0..runs {
            let args = run::RunArgs {
                seed: seed.wrapping_add(r),
                seconds,
                quick,
            };
            let outcome = if traced {
                run::run_traced(wl, &args)
            } else {
                run::run_timed(wl, &args)
            };
            let per_child: Vec<usize> = outcome.epoch_samples.iter().map(Vec::len).collect();
            println!(
                "# {} seed={:#x} {}: {} of {} operations failed; wall-clock samples per child {:?}",
                wl.name,
                args.seed,
                if traced { "traced" } else { "untraced" },
                outcome.failed,
                outcome.attempted,
                per_child
            );
            for (name, value) in &outcome.metrics.0 {
                if metrics::applies(name, wl.name) {
                    println!("{name:<34} {value:>18.6} {}", metrics::unit_of(name));
                } else {
                    println!("{name:<34} {:>18} (measured on other workloads)", "n/a");
                }
            }
            let line = outcome.to_json();
            println!("{line}");
            let mut rec = Json::obj();
            rec.set("workload", wl.name)
                .set("seed", args.seed)
                .set("traced", traced)
                .set(
                    "epoch_samples_ms",
                    outcome
                        .epoch_samples
                        .iter()
                        .map(|c| Json::from(c.clone()))
                        .collect::<Vec<_>>(),
                );
            if let Json::Obj(fields) = line {
                for (k, v) in fields {
                    rec.set(&k, v);
                }
            }
            records.push(rec);
        }
    }

    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut results = Json::obj();
    results
        .set("schema", 1u64)
        .set("seed", seed)
        .set("seconds", seconds)
        .set("quick", quick)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .set("rustc", tool_version("rustc", &["--version"]))
        .set(
            "git_commit",
            // The driver's checkout is not a repository; only ask git
            // where one is known to be.
            if repo.join(".git").exists() {
                tool_version("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        )
        .set("runs", records);
    let path = match flags.value("--out") {
        Some(p) => std::path::PathBuf::from(p),
        None => run::out_dir().join("results.json"),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    // A run that produced its result lines succeeded as a measurement;
    // whether the program under test was correct is in each line.
    Ok(ExitCode::SUCCESS)
}

/// The contents of the repository's BENCHMARK.json, from the registries
/// in `metrics.rs` and `workloads.rs`.
fn cmd_schema() -> Result<ExitCode, String> {
    let strings = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::from(*s)).collect());
    let mut o = Json::obj();
    o.set("command", strings(&COMMAND))
        .set("paths", strings(&["benchmark"]))
        .set("run_seconds", DEFAULT_SECONDS)
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut e = Json::obj();
                    e.set("name", w.name).set("why", w.why);
                    e
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "end_to_end",
            metrics::END_TO_END
                .iter()
                .map(|m| {
                    let mut e = Json::obj();
                    e.set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.name())
                        .set("bound", m.bound);
                    e
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "per_layer",
            metrics::PER_LAYER
                .iter()
                .map(|m| {
                    let mut e = Json::obj();
                    e.set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.name());
                    e
                })
                .collect::<Vec<_>>(),
        );
    println!("{}", o.pretty());
    Ok(ExitCode::SUCCESS)
}

fn cmd_child(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.workload()?.ok_or("child needs --workload")?;
    let args = child::TrainArgs {
        workload,
        seed: flags.seed()?,
        quick: flags.has("--quick"),
        transport: match flags.value("--transport") {
            Some("socket") => TransportKind::Socket,
            Some("shared") | None => TransportKind::Shared,
            Some(other) => return Err(format!("bad --transport '{other}'")),
        },
        check: match flags.value("--check") {
            Some("on") => CheckMode::On,
            Some("off") | None => CheckMode::Off,
            Some(other) => return Err(format!("bad --check '{other}'")),
        },
        budget: Duration::from_millis(flags.parsed("--budget-ms")?.unwrap_or(1000)),
        epoch_hint: flags
            .parsed::<f64>("--epoch-ms-hint")?
            .map(|ms| Duration::from_secs_f64(ms / 1e3)),
        traced: flags.parsed::<u8>("--trace")? == Some(1),
    };
    child::train(&args);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let flags = Flags(argv.collect());
    let result = match sub.as_str() {
        "run" => cmd_run(&flags),
        "compare" => match flags.0.as_slice() {
            [a, b] => compare::compare(a, b).map(|regressed| {
                if regressed {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        "schema" => cmd_schema(),
        "child" => cmd_child(&flags),
        "child-collectives" => flags
            .workload()
            .and_then(|wl| wl.ok_or_else(|| "child-collectives needs --workload".to_string()))
            .and_then(|wl| {
                child::collectives(wl, flags.seed()?, flags.has("--quick"));
                Ok(ExitCode::SUCCESS)
            }),
        _ => Err("usage: cagnet-benchmark run|compare ... (see benchmark/README.md)".into()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::from(2)
    })
}
