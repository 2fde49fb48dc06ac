//! General-purpose experiment runner: train any dataset stand-in (or a
//! fresh R-MAT) with any algorithm at any process count and print the full
//! measurement row.
//!
//! ```text
//! cargo run --release -p cagnet-bench --bin runner -- \
//!     --dataset amazon --algo 2d --processes 16 --epochs 3
//!
//! options:
//!   --dataset  reddit|amazon|protein|rmat:<scale>:<degree>   (default rmat:10:8)
//!                            scale below usize::BITS, and
//!                            2^scale · degree edges within usize
//!   --algo     1d|1d-row|1.5d:<c>|2d|2d:<pr>x<pc>|3d         (default 2d)
//!   --processes <P>      at most the graph's vertex count    (default 4)
//!   --epochs    <E>      at least 1                      (default 3)
//!   --alpha     <seconds>    network latency, finite, >= 0   (default 15e-6)
//!   --beta-gbps <GB/s>       network bandwidth, finite, > 0  (default 10)
//!   --hidden    <width>      hidden layer width              (default 16)
//!   --overlap   on|off       nonblocking comm/compute overlap (default on)
//!   --comm-mode dense|sparse|cached:<k>
//!                            dense bcasts, sparsity-aware gathers, or the
//!                            cached halo tier refreshing every k epochs
//!                            (cached:1 = sparse, bit-identical) (default dense)
//!   --transport shared|socket ranks as threads, or real worker processes
//!                            over Unix sockets (default: CAGNET_TRANSPORT,
//!                            shared when unset)
//!   --precision f64|f32|bf16 wire precision for dense collectives: f64 is
//!                            exact, f32/bf16 round payloads at the
//!                            communicator boundary only (DESIGN.md §14)
//!                            (default f64)
//!   --partition block|edgecut|volume
//!                            row distribution: the natural-id block layout,
//!                            or relabel by the BFS/KL partitioner under the
//!                            edgecut or communication-volume objective
//!                            (DESIGN.md §15) (default block)
//!   --trace <out.json>       write a Chrome/Perfetto trace of the timed epochs
//!   --json                   print only the JSON row (no human tables)
//!   --worker                 internal: accepted so spawned worker processes
//!                            (re-executions of this binary, identified by the
//!                            CAGNET_WORKER_* environment) parse cleanly
//! ```

use cagnet_bench::{bench_dataset, bench_gcn, measure_epochs_traced};
use cagnet_comm::{CostModel, Precision, TransportKind};
use cagnet_core::trainer::{
    Algorithm, PartitionConfig, PartitionObjective, PartitionSpec, TrainConfig,
};
use cagnet_core::{CommMode, GcnConfig, Problem};
use cagnet_sparse::datasets;
use cagnet_sparse::generate::{rmat_symmetric, RmatParams};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Flags that take no value.
const BOOL_FLAGS: [&str; 2] = ["json", "worker"];

/// Flags that take a value. A flag name outside this list (or
/// [`BOOL_FLAGS`]) is a named error: a typo like `--comm-node` must not
/// silently fall back to the default.
const VALUE_FLAGS: [&str; 13] = [
    "dataset",
    "algo",
    "processes",
    "epochs",
    "alpha",
    "beta-gbps",
    "hidden",
    "overlap",
    "comm-mode",
    "transport",
    "trace",
    "precision",
    "partition",
];

fn parse_args() -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let key = key.trim_start_matches("--").to_string();
        if BOOL_FLAGS.contains(&key.as_str()) {
            out.insert(key, "true".to_string());
            continue;
        }
        if !VALUE_FLAGS.contains(&key.as_str()) {
            eprintln!("unknown flag '--{key}' (see the header of runner.rs for the option list)");
            std::process::exit(2);
        }
        match args.next() {
            Some(val) => {
                out.insert(key, val);
            }
            None => {
                eprintln!("missing value for --{key}");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Parse a `--comm-mode` value: `dense`, `sparse`, or `cached:<k>` with
/// a refresh period of `k >= 1` epochs.
fn parse_comm_mode(s: &str) -> Result<CommMode, String> {
    match s {
        "dense" => Ok(CommMode::Dense),
        "sparse" => Ok(CommMode::SparsityAware),
        _ => {
            if let Some(k) = s.strip_prefix("cached:") {
                let refresh: usize = k.parse().map_err(|_| {
                    format!("--comm-mode cached:<k> needs an integer refresh period, got '{k}'")
                })?;
                if refresh == 0 {
                    return Err("--comm-mode cached:<k> refresh period must be >= 1 \
                         (cached:1 refreshes every epoch)"
                        .to_string());
                }
                Ok(CommMode::Cached { refresh })
            } else {
                Err(format!(
                    "--comm-mode must be dense|sparse|cached:<k>, got '{s}'"
                ))
            }
        }
    }
}

/// Parse a `--precision` value with the flag named in the error, so a
/// typo like `--precision f16` fails loudly instead of defaulting.
fn parse_precision(s: &str) -> Result<Precision, String> {
    Precision::parse(s).map_err(|e| format!("--precision: {e}"))
}

/// Parse a `--partition` value: `block` keeps the natural-id block
/// distribution (no relabeling), `edgecut`/`volume` relabel by the
/// BFS/KL partitioner under the named refinement objective.
fn parse_partition(s: &str) -> Result<Option<PartitionSpec>, String> {
    let objective = match s {
        "block" => return Ok(None),
        "edgecut" => PartitionObjective::EdgeCut,
        "volume" => PartitionObjective::Volume,
        other => {
            return Err(format!(
                "--partition must be block|edgecut|volume, got '{other}'"
            ))
        }
    };
    Ok(Some(PartitionSpec::Auto(PartitionConfig {
        objective,
        ..Default::default()
    })))
}

/// Parse one numeric flag value with the flag named in the error, so
/// `--processes four` fails loudly instead of panicking.
fn parse_num<T: FromStr>(flag: &str, s: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    s.parse()
        .map_err(|e| format!("{flag}: cannot parse '{s}' ({e})"))
}

/// Parse a cost-model parameter that must be finite and pass `ok`
/// (described by `rule`): a NaN or negative one fails the cost model's
/// clamps, and a zero or infinite one leaves the modeled epoch time
/// undefined.
fn parse_param(flag: &str, s: &str, rule: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
    let v: f64 = parse_num(flag, s)?;
    if v.is_finite() && ok(v) {
        Ok(v)
    } else {
        Err(format!("{flag} must be finite and {rule}, got '{s}'"))
    }
}

fn parse_algo(s: &str) -> Result<Algorithm, String> {
    Ok(match s {
        "1d" => Algorithm::OneD,
        "1d-row" => Algorithm::OneDRow,
        "2d" => Algorithm::TwoD,
        "3d" => Algorithm::ThreeD,
        _ => {
            if let Some(c) = s.strip_prefix("1.5d:") {
                Algorithm::One5D {
                    c: parse_num("--algo 1.5d:<c>", c)?,
                }
            } else if let Some(grid) = s.strip_prefix("2d:") {
                let (pr, pc) = grid
                    .split_once('x')
                    .ok_or_else(|| format!("--algo 2d:<pr>x<pc> needs a grid, got '{s}'"))?;
                Algorithm::TwoDRect {
                    pr: parse_num("--algo 2d:<pr>x<pc>", pr)?,
                    pc: parse_num("--algo 2d:<pr>x<pc>", pc)?,
                }
            } else {
                return Err(format!("unknown algorithm '{s}'"));
            }
        }
    })
}

/// The value of a parse, or exit 2 with its named error.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    let get = |k: &str, d: &str| args.get(k).cloned().unwrap_or_else(|| d.to_string());

    let dataset = get("dataset", "rmat:10:8");
    let algo = or_exit(parse_algo(&get("algo", "2d")));
    let p: usize = or_exit(parse_num("--processes", &get("processes", "4")));
    if !algo.supports(p) {
        eprintln!("{} does not support P={p}", algo.name());
        std::process::exit(2);
    }
    let epochs: usize = or_exit(parse_num("--epochs", &get("epochs", "3")));
    if epochs == 0 {
        // Every per-epoch figure would divide by zero epochs.
        eprintln!("--epochs must be at least 1, got 0");
        std::process::exit(2);
    }
    let alpha = or_exit(parse_param(
        "--alpha",
        &get("alpha", "15e-6"),
        ">= 0",
        |a| a >= 0.0,
    ));
    let gbps = or_exit(parse_param(
        "--beta-gbps",
        &get("beta-gbps", "10"),
        "> 0",
        |b| b > 0.0,
    ));
    let hidden: usize = or_exit(parse_num("--hidden", &get("hidden", "16")));
    let overlap = match get("overlap", "on").as_str() {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("--overlap must be on|off, got '{other}'");
            std::process::exit(2);
        }
    };
    let comm_mode = or_exit(parse_comm_mode(&get("comm-mode", "dense")));
    let precision = or_exit(parse_precision(&get("precision", "f64")));
    let partition = or_exit(parse_partition(&get("partition", "block")));
    let transport = match get("transport", "").as_str() {
        "" => None,
        "shared" => Some(TransportKind::Shared),
        "socket" => Some(TransportKind::Socket),
        other => {
            eprintln!("--transport must be shared|socket, got '{other}'");
            std::process::exit(2);
        }
    };
    let trace_path = args.get("trace").cloned();
    let json_only = args.contains_key("json");

    let model = CostModel {
        alpha,
        beta: 8.0 / (gbps * 1e9),
        ..CostModel::summit_like()
    };

    let (problem, gcn, name) = if let Some(spec) = dataset.strip_prefix("rmat:") {
        const RMAT: &str = "--dataset rmat:<scale>:<degree>";
        let (scale, degree) = or_exit(
            spec.split_once(':')
                .ok_or_else(|| format!("{RMAT} needs a scale and a degree, got '{dataset}'")),
        );
        let scale: u32 = or_exit(parse_num(RMAT, scale));
        if scale >= usize::BITS {
            // `1 << scale` vertices would wrap.
            eprintln!("{RMAT}: scale must be below {}, got {scale}", usize::BITS);
            std::process::exit(2);
        }
        let degree: usize = or_exit(parse_num(RMAT, degree));
        if (1usize << scale).checked_mul(degree).is_none() {
            // The generator's edge count would wrap.
            eprintln!("{RMAT}: 2^{scale} · {degree} edges overflow usize");
            std::process::exit(2);
        }
        let g = rmat_symmetric(scale, degree, RmatParams::default(), 7);
        let f = 64;
        let classes = 16;
        let problem = Problem::synthetic(&g, f, classes, 1.0, 8);
        let mut gcn = GcnConfig::three_layer(f, hidden, classes);
        gcn.dims[1] = hidden;
        gcn.dims[2] = hidden;
        (problem, gcn, dataset.clone())
    } else {
        let spec = datasets::ALL
            .iter()
            .find(|s| s.name == dataset)
            .unwrap_or_else(|| {
                eprintln!("unknown dataset '{dataset}'");
                std::process::exit(2);
            });
        let ds = bench_dataset(spec);
        let problem = Problem::from_dataset(&ds, 11);
        let mut gcn = bench_gcn(&ds);
        gcn.dims[1] = hidden;
        gcn.dims[2] = hidden;
        (problem, gcn, dataset.clone())
    };

    if p > problem.vertices() {
        // The row layouts need a vertex per rank; one bound serves
        // every layout.
        eprintln!(
            "--processes {p} exceeds the {} vertices of {name}",
            problem.vertices()
        );
        std::process::exit(2);
    }

    let tc = TrainConfig {
        epochs,
        collect_outputs: false,
        overlap,
        comm_mode,
        trace: trace_path.is_some(),
        transport,
        precision,
        partition,
        ..Default::default()
    };
    if !json_only {
        println!(
            "{name}: n={}, nnz={}, dims={:?}, {} on P={p}, {epochs} epochs, α={alpha:.1e}, \
             {gbps} GB/s, overlap {}, wire {}",
            problem.vertices(),
            problem.adj.nnz(),
            gcn.dims,
            algo.name(),
            if overlap { "on" } else { "off" },
            precision.name()
        );
    }
    let (row, traces) = measure_epochs_traced(&problem, &gcn, &name, algo, p, model, &tc);
    if let Some(path) = &trace_path {
        let json = cagnet_comm::trace::to_chrome_json(&traces);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(2);
        }
        if !json_only {
            println!("trace written to {path} (open in chrome://tracing or Perfetto)");
        }
    }
    if json_only {
        // Machine-readable only: a bare JSON array on stdout.
        println!("{}", serde_json::to_string(&[row]).expect("serialize"));
        return;
    }
    println!(
        "epoch: {:.4} ms ({:.1} epochs/sec)",
        row.epoch_seconds * 1e3,
        row.epochs_per_second
    );
    println!(
        "words/rank/epoch: {:.0} dense + {:.0} sparse",
        row.dcomm_words, row.scomm_words
    );
    let b = row.breakdown;
    println!(
        "breakdown (ms): spmm {:.3} | dcomm {:.3} | scomm {:.3} | trpose {:.4} | misc {:.3} \
         | hidden {:.3}",
        b.spmm * 1e3,
        b.dcomm * 1e3,
        b.scomm * 1e3,
        b.trpose * 1e3,
        b.misc * 1e3,
        b.ovlp * 1e3
    );
    cagnet_bench::emit_json(&[row]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_mode_accepts_the_three_tiers() {
        assert_eq!(parse_comm_mode("dense"), Ok(CommMode::Dense));
        assert_eq!(parse_comm_mode("sparse"), Ok(CommMode::SparsityAware));
        assert_eq!(
            parse_comm_mode("cached:4"),
            Ok(CommMode::Cached { refresh: 4 })
        );
        assert_eq!(
            parse_comm_mode("cached:1"),
            Ok(CommMode::Cached { refresh: 1 })
        );
    }

    #[test]
    fn comm_mode_rejects_bad_values_by_name() {
        let e = parse_comm_mode("cached:0").unwrap_err();
        assert!(e.contains(">= 1"), "zero refresh must be named: {e}");
        let e = parse_comm_mode("cached:x").unwrap_err();
        assert!(e.contains("integer refresh"), "non-integer named: {e}");
        let e = parse_comm_mode("cachd:2").unwrap_err();
        assert!(e.contains("dense|sparse|cached:<k>"), "typo named: {e}");
    }

    #[test]
    fn precision_accepts_the_three_wire_widths() {
        assert_eq!(parse_precision("f64"), Ok(Precision::F64));
        assert_eq!(parse_precision("f32"), Ok(Precision::F32));
        assert_eq!(parse_precision("bf16"), Ok(Precision::Bf16));
    }

    #[test]
    fn partition_accepts_the_three_layouts() {
        assert!(matches!(parse_partition("block"), Ok(None)));
        assert!(matches!(
            parse_partition("edgecut"),
            Ok(Some(PartitionSpec::Auto(PartitionConfig {
                objective: PartitionObjective::EdgeCut,
                ..
            })))
        ));
        assert!(matches!(
            parse_partition("volume"),
            Ok(Some(PartitionSpec::Auto(PartitionConfig {
                objective: PartitionObjective::Volume,
                ..
            })))
        ));
    }

    #[test]
    fn partition_rejects_unknown_layouts_by_name() {
        let e = parse_partition("metis").unwrap_err();
        assert!(e.contains("--partition"), "flag named: {e}");
        assert!(e.contains("'metis'"), "bad input named: {e}");
        assert!(
            e.contains("block|edgecut|volume"),
            "accepted set named: {e}"
        );
    }

    #[test]
    fn precision_rejects_unknown_widths_by_name() {
        let e = parse_precision("f16").unwrap_err();
        assert!(e.contains("--precision"), "flag named: {e}");
        assert!(e.contains("'f16'"), "bad input named: {e}");
        assert!(e.contains("f64 | f32 | bf16"), "accepted set named: {e}");
    }
}
