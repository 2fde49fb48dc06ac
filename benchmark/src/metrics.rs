//! Every metric the benchmark emits: name, unit, direction and, for the
//! end-to-end ones, the share of the baseline median by which it may
//! worsen before `compare` calls it a regression. `BENCHMARK.json` at the
//! repository root lists the same names; `tests/schema.rs` checks that.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening between two sets of runs on any seeds (what
    /// BENCHMARK.json carries).
    pub bound: f64,
    /// For a metric the program counts rather than times: the allowed
    /// worsening on one and the same seed, where the graph is the same on
    /// both sides and the count repeats. `compare` applies it seed by
    /// seed when both files ran the same seeds.
    pub same_seed_bound: Option<f64>,
}

/// What a user of the trainers sees. `bound` is set by what moves a
/// metric between runs on different seeds (README.md has the numbers):
/// a shared two-core host for the wall-clock ones, the generated graph
/// for the two metered ones. On a fixed seed the metered ones repeat, so
/// there they get the bounds first intended: no extra word, and 0.1 % of
/// modeled time for floating-point reassociation.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "epoch_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "comm_words_per_epoch",
        unit: "words",
        better: Better::Lower,
        bound: 0.05,
        same_seed_bound: Some(0.0),
    },
    EndToEnd {
        name: "modeled_epoch_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        same_seed_bound: Some(0.001),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        same_seed_bound: None,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads the metric is measured on; empty means all of them.
    pub applies_to: &'static [&'static str],
}

impl PerLayer {
    /// Measure it on these workloads only. The driver wants every name on
    /// every result line, so elsewhere it is not measured and reads 0.
    const fn only(self, workloads: &'static [&'static str]) -> PerLayer {
        PerLayer {
            name: self.name,
            unit: self.unit,
            better: self.better,
            applies_to: workloads,
        }
    }

    pub fn applies(&self, workload: &str) -> bool {
        self.applies_to.is_empty() || self.applies_to.contains(&workload)
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        applies_to: &[],
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        applies_to: &[],
    }
}

/// The one workload whose kernels are heavy enough for a two-thread
/// speed-up and a single-worker baseline to mean something.
const KERNEL_BOUND: &[&str] = &["reddit_1d_p2"];
/// The workload with the most collectives per epoch, so with the most
/// fingerprints when checking is on.
const MOST_COLLECTIVES: &[&str] = &["amazon_2d_p4"];
const ON_SOCKETS: &[&str] = &["amazon_1d_p2_socket_dense", "amazon_1d_p2_socket_sparse"];
/// The one workload that trains on a partitioned, relabeled graph.
const PARTITIONED: &[&str] = &["planted_1p5d_p4_cached"];

/// One entry per layer boundary the traced run measures; the prefix is
/// the layer (module) name. README.md says which end-to-end metric each
/// should move, and on which workload. A metric scoped with `only` costs
/// an extra child process or a replay that says nothing elsewhere.
pub const PER_LAYER: [PerLayer; 53] = [
    lo("dist.setup_ms", "ms"),
    lo("dist.epoch_ms", "ms"),
    lo("dist.infer_forward_ms", "ms"),
    lo("dist.backward_ms", "ms"),
    lo("dist.accuracy_ms", "ms"),
    lo("dist.storage_words", "words"),
    lo("trace.overhead_pct", "%"),
    lo("spmm.ms_per_epoch", "ms"),
    hi("spmm.gflops", "GFLOP/s"),
    lo("spmm.share_pct", "%"),
    lo("gemm.ms_per_epoch", "ms"),
    hi("gemm.gflops", "GFLOP/s"),
    lo("gemm.share_pct", "%"),
    lo("csr.transpose_ms", "ms"),
    hi("parallel.spmm_t2_speedup", "x").only(KERNEL_BOUND),
    hi("parallel.gemm_t2_speedup", "x").only(KERNEL_BOUND),
    lo("comm.bcast_us", "us"),
    lo("comm.gather_rows_us", "us"),
    lo("comm.allreduce_us", "us"),
    lo("comm.barrier_us", "us"),
    hi("comm.bcast_mb_s", "MB/s"),
    hi("comm.gather_rows_mb_s", "MB/s"),
    lo("proc.launch_ms", "ms"),
    lo("proc.socket_vs_shared_ratio", "x").only(ON_SOCKETS),
    hi("frame.encode_mb_s", "MB/s"),
    hi("frame.decode_mb_s", "MB/s"),
    hi("frame.pack_f32_mb_s", "MB/s"),
    hi("frame.widen_f32_mb_s", "MB/s"),
    hi("frame.pack_bf16_mb_s", "MB/s"),
    lo("frame.bytes_per_word", "B/word"),
    lo("timeline.spmm_ms", "ms"),
    lo("timeline.gemm_ms", "ms"),
    lo("timeline.dcomm_ms", "ms"),
    lo("timeline.scomm_ms", "ms"),
    lo("timeline.trpose_ms", "ms"),
    lo("timeline.misc_ms", "ms"),
    lo("timeline.idle_ms", "ms"),
    hi("timeline.ovlp_ms", "ms"),
    lo("timeline.dcomm_words", "words"),
    lo("timeline.scomm_words", "words"),
    hi("timeline.cache_hit_words", "words"),
    lo("timeline.max_rank_words", "words"),
    lo("timeline.dcomm_msgs", "count"),
    lo("timeline.scomm_msgs", "count"),
    lo("timeline.wall_over_model", "x"),
    lo("partitioner.partition_ms", "ms").only(PARTITIONED),
    lo("partitioner.max_gathered_rows", "rows").only(PARTITIONED),
    lo("partitioner.edgecut_total", "edges").only(PARTITIONED),
    lo("relabel.apply_ms", "ms").only(PARTITIONED),
    lo("check.epoch_overhead_pct", "%").only(MOST_COLLECTIVES),
    lo("serial.epoch_ms", "ms"),
    hi("serial.speedup", "x").only(KERNEL_BOUND),
    lo("input.gen_ms", "ms"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Whether `workload` measures the metric `name` (every end-to-end metric
/// applies everywhere).
pub fn applies(name: &str, workload: &str) -> bool {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .is_none_or(|m| m.applies(workload))
}

/// Named values of one run.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unregistered metric {name}");
        self.0.push((name, value));
    }

    /// The per-layer result line of `workload`: every registered metric in
    /// registry order, 0 for one that does not apply there.
    ///
    /// # Panics
    /// When a metric that applies was not set: a bug in the traced run,
    /// which `tests/schema.rs` exercises on every workload.
    pub fn per_layer_line(&self, workload: &str) -> Metrics {
        Metrics(
            PER_LAYER
                .iter()
                .map(|m| {
                    let measured = self.0.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                    let value = match (m.applies(workload), measured) {
                        (true, Some(v)) => v,
                        (false, None) => 0.0,
                        (true, None) => panic!("{workload}: {} was not measured", m.name),
                        (false, Some(_)) => panic!("{workload}: {} is out of scope", m.name),
                    };
                    (m.name, value)
                })
                .collect(),
        )
    }

    /// Names of the values that are not finite numbers.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the driver reads it.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, value) in &self.0 {
            let mut m = Json::obj();
            m.set("value", *value).set("unit", unit_of(name));
            o.set(name, m);
        }
        o
    }
}
