//! Acceptance for volume-aware partitioning wired into the trainers
//! (DESIGN.md §15): `TrainConfig::partition` must train *bit-identically*
//! to manually relabeling the problem (same losses, weights, accuracy,
//! and embeddings modulo the id permutation), be a no-op at one row
//! group, leave `CommMode::Dense` word counts untouched, and strictly
//! lower `Cat::DenseComm` words under the sparsity-aware and cached
//! tiers at `P > 1` on a clustered graph.

use cagnet::comm::{Cat, CostModel};
use cagnet::core::trainer::{
    infer_distributed, train_distributed, Algorithm, PartitionConfig, PartitionObjective,
    PartitionSpec, TrainConfig,
};
use cagnet::core::{CommMode, DistTrainResult, GcnConfig, Problem};
use cagnet::sparse::generate::{permute_symmetric, planted_partition, PlantedPartitionParams};
use cagnet::sparse::partitioner::partition_greedy_bfs;

/// A permuted planted-partition graph: real community structure the
/// partitioner can find, hidden from the natural-id block baseline.
fn clustered_problem() -> (Problem, GcnConfig) {
    let g = planted_partition(
        96,
        PlantedPartitionParams {
            communities: 8,
            degree_in: 8.0,
            degree_out: 0.6,
            hubs: 2,
            hub_degree: 12,
        },
        71,
    );
    let (g, _) = permute_symmetric(&g, 72);
    let problem = Problem::synthetic(&g, 12, 4, 0.9, 73);
    let cfg = GcnConfig::three_layer(12, 8, 4);
    (problem, cfg)
}

fn dense_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum()
}

fn config(mode: CommMode, partition: Option<PartitionSpec>) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        comm_mode: mode,
        partition,
        ..Default::default()
    }
}

fn volume_cfg() -> PartitionConfig {
    PartitionConfig {
        objective: PartitionObjective::Volume,
        refinement_passes: 6,
        ..Default::default()
    }
}

/// The tentpole bit-identity claim, on every trainer family: a
/// partitioned run must equal a plain run on the manually relabeled
/// problem — losses, weights, accuracy bit-for-bit — with embeddings
/// handed back in original vertex ids.
#[test]
fn partitioned_run_equals_manually_relabeled_run() {
    let (problem, cfg) = clustered_problem();
    let cells: [(Algorithm, usize); 5] = [
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ];
    for (algo, p) in cells {
        let groups = algo.row_groups(p);
        let part = partition_greedy_bfs(
            &problem.adj,
            &PartitionConfig {
                num_parts: groups,
                ..volume_cfg()
            },
        );
        let wired = train_distributed(
            &problem,
            &cfg,
            algo,
            p,
            CostModel::summit_like(),
            &config(
                CommMode::SparsityAware,
                Some(PartitionSpec::Explicit(part.clone())),
            ),
        );
        let (relabeled, rl) = problem.relabeled(&part, groups);
        let manual = train_distributed(
            &relabeled,
            &cfg,
            algo,
            p,
            CostModel::summit_like(),
            &config(CommMode::SparsityAware, None),
        );
        let name = algo.name();
        assert_eq!(wired.losses, manual.losses, "{name} P={p}: losses");
        assert_eq!(wired.weights, manual.weights, "{name} P={p}: weights");
        assert_eq!(wired.accuracy, manual.accuracy, "{name} P={p}: accuracy");
        assert_eq!(
            dense_words(&wired),
            dense_words(&manual),
            "{name} P={p}: metered words"
        );
        // Wired embeddings come back in original ids; the manual run's
        // are in relabeled ids.
        assert_eq!(
            wired.embeddings,
            rl.unpermute_rows(&manual.embeddings),
            "{name} P={p}: embeddings modulo the id permutation"
        );
        let got = wired
            .relabeling
            .as_ref()
            .map(|r| r.old_to_new.clone())
            .unwrap_or_default();
        assert_eq!(got, rl.old_to_new, "{name} P={p}: exposed relabeling");
    }
}

/// Forward and backward `DenseComm` words of one 1D training epoch: the
/// forward is what an inference pass meters, the backward the rest.
fn epoch_words(problem: &Problem, cfg: &GcnConfig, p: usize, tc: &TrainConfig) -> (u64, u64) {
    let model = CostModel::summit_like;
    let tc = TrainConfig {
        epochs: 1,
        ..tc.clone()
    };
    let trained = train_distributed(problem, cfg, Algorithm::OneD, p, model(), &tc);
    let inferred = infer_distributed(
        problem,
        cfg,
        &trained.weights,
        Algorithm::OneD,
        p,
        model(),
        &tc,
    );
    let forward: u64 = inferred
        .reports
        .iter()
        .map(|r| r.words(Cat::DenseComm))
        .sum();
    (forward, dense_words(&trained) - forward)
}

/// The tentpole communication claim: on a clustered graph a volume-aware
/// partition strictly lowers DenseComm words vs the natural-id block
/// distribution at `P > 1`, under both the sparsity-aware and cached
/// tiers, in each direction — the forward's row gathers and the
/// backward's reduce-scatters, whose send sets are the same needed rows
/// transposed — while keeping loss trajectories the right length and the
/// cap on epochs intact. An edge-cut partition never moves more words
/// than the block distribution in either direction.
#[test]
fn volume_partition_strictly_cuts_sparse_words_at_p_gt_1() {
    let (problem, cfg) = clustered_problem();
    let edgecut = PartitionConfig {
        objective: PartitionObjective::EdgeCut,
        ..volume_cfg()
    };
    for mode in [CommMode::SparsityAware, CommMode::Cached { refresh: 2 }] {
        for p in [2usize, 4, 8] {
            let block = train_distributed(
                &problem,
                &cfg,
                Algorithm::OneD,
                p,
                CostModel::summit_like(),
                &config(mode, None),
            );
            let vol = train_distributed(
                &problem,
                &cfg,
                Algorithm::OneD,
                p,
                CostModel::summit_like(),
                &config(mode, Some(PartitionSpec::Auto(volume_cfg()))),
            );
            assert_eq!(vol.losses.len(), block.losses.len(), "{mode:?} P={p}");
            assert!(
                dense_words(&vol) < dense_words(&block),
                "{mode:?} P={p}: partitioned words {} not below block words {}",
                dense_words(&vol),
                dense_words(&block)
            );
            let cut = train_distributed(
                &problem,
                &cfg,
                Algorithm::OneD,
                p,
                CostModel::summit_like(),
                &config(mode, Some(PartitionSpec::Auto(edgecut))),
            );
            assert!(
                dense_words(&cut) <= dense_words(&block),
                "{mode:?} P={p}: edge-cut words {} above block words {}",
                dense_words(&cut),
                dense_words(&block)
            );
            let words = |partition| epoch_words(&problem, &cfg, p, &config(mode, partition));
            let block = words(None);
            let vol = words(Some(PartitionSpec::Auto(volume_cfg())));
            let cut = words(Some(PartitionSpec::Auto(edgecut)));
            for (dir, b, v, c) in [
                ("forward", block.0, vol.0, cut.0),
                ("backward", block.1, vol.1, cut.1),
            ] {
                assert!(
                    v < b,
                    "{mode:?} P={p}: {dir} volume words {v} not below block {b}"
                );
                assert!(
                    c <= b,
                    "{mode:?} P={p}: {dir} edge-cut words {c} above block {b}"
                );
            }
        }
    }
}

/// One row group (P=1) makes relabeling the identity: the run must be
/// bit-identical to an unpartitioned one, embeddings included.
#[test]
fn partition_is_identity_at_one_row_group() {
    let (problem, cfg) = clustered_problem();
    let plain = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        1,
        CostModel::summit_like(),
        &config(CommMode::SparsityAware, None),
    );
    let part = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        1,
        CostModel::summit_like(),
        &config(
            CommMode::SparsityAware,
            Some(PartitionSpec::Auto(volume_cfg())),
        ),
    );
    assert_eq!(plain.losses, part.losses);
    assert_eq!(plain.weights, part.weights);
    assert_eq!(plain.embeddings, part.embeddings);
    let rl = part.relabeling.as_ref().map(|r| r.old_to_new.clone());
    assert_eq!(
        rl,
        Some((0..problem.vertices()).collect::<Vec<_>>()),
        "single part must relabel to the identity"
    );
}

/// Dense mode ships whole blocks regardless of content, and block sizes
/// depend only on `(n, p)` — so partitioning must leave Dense-mode word
/// counts exactly unchanged (the win exists only for the sparse tiers).
#[test]
fn dense_mode_words_unchanged_by_partition() {
    let (problem, cfg) = clustered_problem();
    let block = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        4,
        CostModel::summit_like(),
        &config(CommMode::Dense, None),
    );
    let part = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        4,
        CostModel::summit_like(),
        &config(CommMode::Dense, Some(PartitionSpec::Auto(volume_cfg()))),
    );
    assert_eq!(dense_words(&block), dense_words(&part));
    assert_eq!(block.losses.len(), part.losses.len());
}

#[test]
#[should_panic(expected = "explicit partition length")]
fn explicit_partition_wrong_length_panics() {
    let (problem, cfg) = clustered_problem();
    let _ = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        2,
        CostModel::summit_like(),
        &config(
            CommMode::Dense,
            Some(PartitionSpec::Explicit(vec![0usize; 7])),
        ),
    );
}

#[test]
#[should_panic(expected = "out of range")]
fn explicit_partition_bad_id_panics() {
    let (problem, cfg) = clustered_problem();
    let n = problem.vertices();
    let _ = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        2,
        CostModel::summit_like(),
        &config(CommMode::Dense, Some(PartitionSpec::Explicit(vec![5; n]))),
    );
}
