//! Layers measured in isolation, in the launcher process, at the shapes
//! the workload gives rank 0: kernels, intra-rank parallelism and the
//! frame codec. No cluster is involved, so these run after every child
//! has exited and nothing else competes for the cores.

use crate::plan::{Kernel, Plan};
use crate::stats::median;
use crate::trace::Recorder;
use cagnet_comm::frame::{self, PackedMat, Precision};
use cagnet_comm::CommWords;
use cagnet_dense::init::uniform;
use cagnet_dense::{matmul_acc_with, matmul_nt_with, matmul_tn_with, Mat};
use cagnet_parallel::ParallelCtx;
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repeat a call until this much time has been measured (at least
/// `MIN_CALLS`, at most `MAX_CALLS` calls) and report the median call.
const TARGET: Duration = Duration::from_millis(120);
const MIN_CALLS: usize = 3;
const MAX_CALLS: usize = 25;

/// Median seconds of one call of `f`, after one unmeasured call. Each
/// measured call is recorded as a span.
fn measure(rec: &mut Recorder, name: &str, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_CALLS || (start.elapsed() < TARGET && samples.len() < MAX_CALLS) {
        let ((), dt) = rec.span(name, None, &mut f);
        samples.push(dt.as_secs_f64());
    }
    median(&samples)
}

/// One kernel call at its plan shape with `threads` intra-rank threads.
fn kernel_call(plan: &Plan, k: Kernel, threads: usize) -> impl FnMut() + '_ {
    let ctx = ParallelCtx::new(threads);
    let dense = |r: usize, c: usize, salt: u64| uniform(r, c, -1.0, 1.0, 0xD0 + salt);
    // Operands are built once, outside the measured call.
    let (a, mut b) = match k {
        Kernel::SpmmAcc { panel, width } => {
            let p = &plan.panels[panel];
            (dense(p.cols(), width, 1), Mat::zeros(p.rows(), width))
        }
        Kernel::OuterT { panel, width } => {
            (dense(plan.panels[panel].rows(), width, 2), Mat::zeros(0, 0))
        }
        Kernel::Matmul { m, k, n } => (dense(m, k, 3), dense(k, n, 4)),
        Kernel::MatmulTn { r, m, n } => (dense(r, m, 5), dense(r, n, 6)),
        Kernel::MatmulNt { m, k, n } => (dense(m, k, 7), dense(n, k, 8)),
    };
    move || match k {
        Kernel::SpmmAcc { panel, .. } => {
            spmm_acc_with(ctx, &plan.panels[panel], black_box(&a), &mut b);
            black_box(&b);
        }
        Kernel::OuterT { panel, .. } => {
            black_box(outer_product_from_transposed(
                &plan.panels[panel],
                black_box(&a),
            ));
        }
        Kernel::Matmul { m, n, .. } => {
            let mut out = Mat::zeros(m, n);
            matmul_acc_with(ctx, black_box(&a), &b, &mut out);
            black_box(&out);
        }
        Kernel::MatmulTn { .. } => {
            black_box(matmul_tn_with(ctx, black_box(&a), &b));
        }
        Kernel::MatmulNt { .. } => {
            black_box(matmul_nt_with(ctx, black_box(&a), &b));
        }
    }
}

pub struct KernelTimes {
    pub spmm_ms_per_epoch: f64,
    pub spmm_gflops: f64,
    pub gemm_ms_per_epoch: f64,
    pub gemm_gflops: f64,
    pub transpose_ms: f64,
}

/// Replay every call of the plan single-threaded, as the workloads run.
pub fn kernels(plan: &Plan, rec: &mut Recorder) -> KernelTimes {
    rec.begin("replay_kernels", None, Duration::ZERO);
    let (mut spmm_s, mut spmm_flops, mut gemm_s, mut gemm_flops) = (0.0, 0.0, 0.0, 0.0);
    for c in &plan.calls {
        let sparse = Plan::is_sparse(c.kernel);
        let name = if sparse { "spmm" } else { "gemm" };
        let secs = measure(rec, name, kernel_call(plan, c.kernel, 1));
        let (s, f) = if sparse {
            (&mut spmm_s, &mut spmm_flops)
        } else {
            (&mut gemm_s, &mut gemm_flops)
        };
        *s += secs * c.per_epoch as f64;
        *f += plan.flops(c.kernel) * c.per_epoch as f64;
    }
    let block = &plan.panels[plan.local_block];
    let transpose_ms = 1e3
        * measure(rec, "csr_transpose", || {
            black_box(block.transpose());
        });
    rec.end();
    KernelTimes {
        spmm_ms_per_epoch: spmm_s * 1e3,
        spmm_gflops: spmm_flops / spmm_s / 1e9,
        gemm_ms_per_epoch: gemm_s * 1e3,
        gemm_gflops: gemm_flops / gemm_s / 1e9,
        transpose_ms,
    }
}

/// `(spmm, gemm)`: how much faster the plan's heaviest SpMM and GEMM run
/// on two intra-rank threads than on one.
pub fn two_thread_speedups(plan: &Plan, rec: &mut Recorder) -> (f64, f64) {
    rec.begin("replay_parallel", None, Duration::ZERO);
    let mut speedup = |sparse: bool, name: &str| {
        let heaviest = plan
            .calls
            .iter()
            .map(|c| c.kernel)
            // OuterT has no `_with` form, so only the forkable kernels compete.
            .filter(|k| Plan::is_sparse(*k) == sparse && !matches!(k, Kernel::OuterT { .. }))
            .max_by(|a, b| plan.flops(*a).total_cmp(&plan.flops(*b)))
            .expect("every plan has a forward SpMM and a GEMM");
        let one = measure(rec, &format!("{name}_t1"), kernel_call(plan, heaviest, 1));
        one / measure(rec, &format!("{name}_t2"), kernel_call(plan, heaviest, 2))
    };
    let speedups = (speedup(true, "spmm"), speedup(false, "gemm"));
    rec.end();
    speedups
}

pub struct CodecTimes {
    pub encode_mb_s: f64,
    pub decode_mb_s: f64,
    pub pack_f32_mb_s: f64,
    pub widen_f32_mb_s: f64,
    pub pack_bf16_mb_s: f64,
    pub bytes_per_word: f64,
}

/// Encode/decode and pack/widen one broadcast block. MB/s counts the
/// block's `f64` bytes, so the packed forms compare on equal footing.
pub fn codec(block: (usize, usize), rec: &mut Recorder) -> CodecTimes {
    rec.begin("replay_codec", None, Duration::ZERO);
    let m = uniform(block.0, block.1, -1.0, 1.0, 0xC0DEC);
    let mb = (m.len() * 8) as f64 / 1e6;
    let bytes = frame::encode(&m);
    let packed = PackedMat::pack(&m, Precision::F32);
    let rate = |rec: &mut Recorder, name: &str, f: &mut dyn FnMut()| mb / measure(rec, name, f);
    let times = CodecTimes {
        encode_mb_s: rate(rec, "frame_encode", &mut || {
            black_box(frame::encode(black_box(&m)));
        }),
        decode_mb_s: rate(rec, "frame_decode", &mut || {
            black_box(frame::decode::<Mat>(black_box(&bytes)).expect("decode own encoding"));
        }),
        pack_f32_mb_s: rate(rec, "pack_f32", &mut || {
            black_box(PackedMat::pack(black_box(&m), Precision::F32));
        }),
        widen_f32_mb_s: rate(rec, "widen_f32", &mut || {
            black_box(black_box(&packed).widen());
        }),
        pack_bf16_mb_s: rate(rec, "pack_bf16", &mut || {
            black_box(PackedMat::pack(black_box(&m), Precision::Bf16));
        }),
        bytes_per_word: bytes.len() as f64 / (8 * m.comm_words()) as f64,
    };
    rec.end();
    times
}
