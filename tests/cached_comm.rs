//! Acceptance for the cached halo tier (`CommMode::Cached`, DESIGN.md
//! §13): `refresh: 1` trains bit-identically to `SparsityAware` on every
//! trainer; larger refresh periods collapse `Cat::DenseComm` words by
//! serving stale remote blocks from the rank-local cache, with the
//! skipped traffic metered honestly under `Cat::CacheHit`; evaluation
//! passes bypass the cache and match `SparsityAware` bit for bit; and
//! `set_comm_mode` always drops the cache so a stale block can never
//! survive a mode re-set.

use cagnet::comm::{Cat, Cluster, CostModel};
use cagnet::core::dist::onedim::OneDimTrainer;
use cagnet::core::trainer::{infer_distributed, train_distributed, Algorithm, TrainConfig};
use cagnet::core::{CommMode, DistTrainResult, GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::{Coo, Csr};

fn problem() -> (Problem, GcnConfig) {
    let g = erdos_renyi(64, 4.0, 91);
    let problem = Problem::synthetic(&g, 12, 4, 0.9, 92);
    let cfg = GcnConfig::three_layer(12, 8, 4);
    (problem, cfg)
}

/// Every trainer at every geometry from P ∈ {1, 2, 4} it supports
/// (plus the cubic P=8 for 3D, whose smallest non-trivial mesh is 2³).
fn all_trainer_cases() -> Vec<(Algorithm, usize)> {
    vec![
        (Algorithm::OneD, 1),
        (Algorithm::OneD, 2),
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 1),
        (Algorithm::OneDRow, 2),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 1 }, 1),
        (Algorithm::One5D { c: 2 }, 2),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 1),
        (Algorithm::TwoDRect { pr: 2, pc: 1 }, 2),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 1),
        (Algorithm::ThreeD, 8),
    ]
}

fn train(
    problem: &Problem,
    cfg: &GcnConfig,
    algo: Algorithm,
    p: usize,
    mode: CommMode,
    epochs: usize,
    dropout: f64,
) -> DistTrainResult {
    let tc = TrainConfig {
        epochs,
        comm_mode: mode,
        dropout,
        ..Default::default()
    };
    train_distributed(problem, cfg, algo, p, CostModel::summit_like(), &tc)
}

fn dense_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum()
}

fn cache_hit_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.words(Cat::CacheHit)).sum()
}

#[test]
fn refresh_1_is_bit_identical_to_sparsity_aware_on_every_trainer() {
    let (problem, cfg) = problem();
    for (algo, p) in all_trainer_cases() {
        let sparse = train(&problem, &cfg, algo, p, CommMode::SparsityAware, 3, 0.0);
        let cached = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 1 },
            3,
            0.0,
        );
        assert_eq!(
            sparse.losses,
            cached.losses,
            "{} P={p}: refresh:1 losses must be bit-identical to sparse",
            algo.name()
        );
        assert_eq!(
            sparse.weights,
            cached.weights,
            "{} P={p}: refresh:1 weights must be bit-identical to sparse",
            algo.name()
        );
        assert_eq!(
            sparse.accuracy,
            cached.accuracy,
            "{} P={p}: refresh:1 accuracy must be bit-identical to sparse",
            algo.name()
        );
        // Every epoch refreshes, so the gathers all actually run: same
        // DenseComm words, and nothing is ever served from cache.
        assert_eq!(
            dense_words(&sparse),
            dense_words(&cached),
            "{} P={p}: refresh:1 must meter the same DenseComm words",
            algo.name()
        );
        assert_eq!(
            cache_hit_words(&cached),
            0,
            "{} P={p}: refresh:1 must never serve from cache",
            algo.name()
        );
    }
}

#[test]
fn cached_eval_passes_are_bit_identical_to_sparsity_aware() {
    // An evaluation pass neither serves nor fills the cache: it gathers
    // fresh rows exactly as SparsityAware does, so inference under any
    // refresh period matches it in every bit, word, message and clock.
    let (problem, cfg) = problem();
    let weights = train(&problem, &cfg, Algorithm::OneD, 2, CommMode::Dense, 2, 0.0).weights;
    for (algo, p) in all_trainer_cases() {
        let infer = |comm_mode| {
            let tc = TrainConfig {
                comm_mode,
                ..Default::default()
            };
            infer_distributed(
                &problem,
                &cfg,
                &weights,
                algo,
                p,
                CostModel::summit_like(),
                &tc,
            )
        };
        let sparse = infer(CommMode::SparsityAware);
        let cached = infer(CommMode::Cached { refresh: 3 });
        let name = algo.name();
        assert_eq!(sparse.loss, cached.loss, "{name} P={p}: eval loss");
        assert_eq!(
            sparse.embeddings, cached.embeddings,
            "{name} P={p}: embeddings"
        );
        assert_eq!(
            sparse.reports, cached.reports,
            "{name} P={p}: a cached eval pass must charge what the sparse tier does"
        );
    }
}

#[test]
fn staleness_collapses_dense_words_monotonically() {
    // 8 epochs: refresh:2 gathers on epochs {1,3,5,7}, refresh:4 on
    // {1,5}. More serving → strictly fewer DenseComm words and strictly
    // more CacheHit words, on every trainer with a non-trivial exchange
    // group.
    let (problem, cfg) = problem();
    for (algo, p) in [
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ] {
        let sparse = train(&problem, &cfg, algo, p, CommMode::SparsityAware, 8, 0.0);
        let k2 = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 2 },
            8,
            0.0,
        );
        let k4 = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 4 },
            8,
            0.0,
        );
        let (ws, w2, w4) = (dense_words(&sparse), dense_words(&k2), dense_words(&k4));
        assert!(
            w2 < ws && w4 < w2,
            "{} P={p}: DenseComm words must fall monotonically with staleness \
             (sparse {ws}, refresh:2 {w2}, refresh:4 {w4})",
            algo.name()
        );
        let (c2, c4) = (cache_hit_words(&k2), cache_hit_words(&k4));
        assert!(
            c2 > 0 && c4 > c2,
            "{} P={p}: CacheHit words must grow with staleness ({c2} vs {c4})",
            algo.name()
        );
        // The meter is honest: what left DenseComm is exactly what was
        // served from cache — the skipped gathers' words, nothing else.
        assert_eq!(
            ws - w2,
            c2,
            "{} P={p}: refresh:2 DenseComm drop must equal its CacheHit words",
            algo.name()
        );
        assert_eq!(
            ws - w4,
            c4,
            "{} P={p}: refresh:4 DenseComm drop must equal its CacheHit words",
            algo.name()
        );
        // Stale training still trains: losses stay finite and the model
        // still improves over the run.
        assert!(k4.losses.iter().all(|l| l.is_finite()));
        assert!(
            k4.losses.last().unwrap() < k4.losses.first().unwrap(),
            "{} P={p}: cached training must still reduce the loss",
            algo.name()
        );
    }
}

#[test]
fn empty_needed_sets_make_staleness_invisible() {
    // An edge-free graph normalizes to the identity: every remote needed
    // set is empty, so the cache only ever holds empty blocks and stale
    // serving changes nothing — cached mode must be bit-identical to
    // sparse at *any* refresh, while the zero-row collectives still
    // rendezvous cleanly.
    let raw = Csr::from_coo(Coo::new(16, 16));
    let problem = Problem::synthetic(&raw, 8, 3, 1.0, 17);
    let cfg = GcnConfig::three_layer(8, 6, 3);
    for (algo, p) in [
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ] {
        let sparse = train(&problem, &cfg, algo, p, CommMode::SparsityAware, 4, 0.0);
        let cached = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 3 },
            4,
            0.0,
        );
        assert_eq!(
            sparse.losses,
            cached.losses,
            "{} P={p}: empty halos must train identically at any refresh",
            algo.name()
        );
        assert_eq!(
            sparse.weights,
            cached.weights,
            "{} P={p}: empty halos must produce identical weights",
            algo.name()
        );
        assert_eq!(
            cache_hit_words(&cached),
            0,
            "{} P={p}: empty blocks have zero words to meter as cache hits",
            algo.name()
        );
    }
}

#[test]
fn dropout_composes_with_cached_mode() {
    // Dropout masks are keyed by (seed, epoch, layer, global position) —
    // independent of communication layout — so refresh:1 must stay
    // bit-identical to sparse with masks in play, and stale refreshes
    // must still train to finite losses.
    let (problem, cfg) = problem();
    for (algo, p) in [
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ] {
        let sparse = train(&problem, &cfg, algo, p, CommMode::SparsityAware, 4, 0.4);
        let exact = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 1 },
            4,
            0.4,
        );
        assert_eq!(
            sparse.losses,
            exact.losses,
            "{} P={p}: refresh:1 + dropout must be bit-identical to sparse",
            algo.name()
        );
        assert_eq!(
            sparse.weights,
            exact.weights,
            "{} P={p}: refresh:1 + dropout weights must match sparse",
            algo.name()
        );
        let stale = train(
            &problem,
            &cfg,
            algo,
            p,
            CommMode::Cached { refresh: 4 },
            4,
            0.4,
        );
        assert!(
            stale.losses.iter().all(|l| l.is_finite()),
            "{} P={p}: stale training under dropout must stay finite",
            algo.name()
        );
        assert!(cache_hit_words(&stale) > 0);
    }
}

#[test]
fn set_comm_mode_reenter_drops_the_cache() {
    // The satellite-3 invalidation contract: re-calling `set_comm_mode`
    // (same mode or not) must drop the epoch-stamped cache, forcing the
    // next training epoch to gather fresh rows even when the refresh
    // schedule says "serve". Observed through the meters: a serve epoch
    // moves CacheHit words and fewer DenseComm words; the post-re-set
    // epoch must look exactly like the first refresh epoch again.
    let (problem, cfg) = problem();
    let per_rank = Cluster::new(2).run(|ctx| {
        let mut t = OneDimTrainer::setup(ctx, &problem, &cfg);
        t.set_comm_mode(CommMode::Cached { refresh: 4 });
        let mut deltas = Vec::new();
        let mut last = (0u64, 0u64);
        let mut step = |t: &mut OneDimTrainer, ctx: &mut cagnet::comm::Ctx| {
            t.epoch(ctx);
            let r = ctx.report();
            let now = (r.words(Cat::DenseComm), r.words(Cat::CacheHit));
            deltas.push((now.0 - last.0, now.1 - last.1));
            last = now;
        };
        step(&mut t, ctx); // epoch 1: refresh
        step(&mut t, ctx); // epoch 2: serve
                           // Re-set the mode mid-run: the adjacency/needed sets could have
                           // been rebuilt underneath the cache, so it must be dropped.
        t.set_comm_mode(CommMode::Cached { refresh: 4 });
        step(&mut t, ctx); // epoch 3: forced refresh (schedule says serve)
        step(&mut t, ctx); // epoch 4: serve from the new cache
        deltas
    });
    for (rank, (deltas, _)) in per_rank.iter().enumerate() {
        let [e1, e2, e3, e4] = deltas[..] else {
            panic!("expected 4 epoch deltas")
        };
        assert_eq!(e1.1, 0, "rank {rank}: epoch 1 is a refresh — no cache hits");
        assert!(
            e2.1 > 0 && e2.0 < e1.0,
            "rank {rank}: epoch 2 must serve from cache ({e2:?} vs {e1:?})"
        );
        assert_eq!(
            e3, e1,
            "rank {rank}: the epoch after a mode re-set must gather fresh — \
             identical meters to the first refresh epoch"
        );
        assert_eq!(
            e4, e2,
            "rank {rank}: serving resumes from the repopulated cache"
        );
    }
}
