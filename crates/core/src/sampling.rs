//! Sampling-based training — the paper's future-work direction (§VII).
//!
//! The paper trains full-batch, argues (§I, citing ROC) that
//! "sampling based methods can lead to lower accuracy", and closes with
//! "we envision future work where our distributed training algorithms are
//! carefully combined with sophisticated sampling based methods". This
//! module provides the two standard sampling knobs so that trade-off can
//! be measured here:
//!
//! * **mini-batch loss masking** — each epoch draws a random subset of the
//!   training vertices into the loss (the paper's note that its
//!   algorithms "can be easily modified to operate on a mini-batch
//!   setting"); the graph computation stays full-graph.
//! * **neighbor sampling** (GraphSAGE-style) — each epoch keeps at most
//!   `k` uniformly-chosen neighbors per vertex, rescaled by `deg/k` so
//!   aggregate magnitudes stay unbiased, then re-normalizes. This is the
//!   mechanism that bounds the neighborhood-explosion memory the paper
//!   describes in §I — at the cost of gradient noise.
//!
//! The `sampling_tradeoff` example compares convergence against the
//! full-batch reference.

use crate::model::GcnConfig;
use crate::problem::Problem;
use crate::serial::SerialTrainer;
use cagnet_sparse::normalize::gcn_normalize;
use cagnet_sparse::{Coo, Csr};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sampling configuration.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Keep at most this many neighbors per vertex per epoch (`None` =
    /// use the full neighborhood).
    pub neighbor_cap: Option<usize>,
    /// Fraction of the training set included in each epoch's loss
    /// (1.0 = full batch).
    pub batch_fraction: f64,
    /// Base seed; each epoch derives its own stream.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            neighbor_cap: None,
            batch_fraction: 1.0,
            seed: 0,
        }
    }
}

/// Draw a neighbor-sampled sub-adjacency of a **raw** (unnormalized)
/// graph: each vertex keeps at most `cap` of its out-neighbors, chosen
/// uniformly without replacement, with kept edge weights scaled by
/// `deg/kept` (Horvitz–Thompson correction so the expected row sum is
/// preserved).
pub fn sample_neighbors(raw: &Csr, cap: usize, seed: u64) -> Csr {
    assert!(cap > 0, "neighbor cap must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = Coo::new(raw.rows(), raw.cols());
    let mut row: Vec<(usize, f64)> = Vec::new();
    for i in 0..raw.rows() {
        row.clear();
        row.extend(raw.row_entries(i));
        let deg = row.len();
        if deg <= cap {
            for &(j, v) in &row {
                coo.push(i, j, v);
            }
        } else {
            row.shuffle(&mut rng);
            let scale = deg as f64 / cap as f64;
            for &(j, v) in row.iter().take(cap) {
                coo.push(i, j, v * scale);
            }
        }
    }
    Csr::from_coo(coo)
}

/// Draw a per-epoch mini-batch mask: each training vertex enters with
/// probability `frac` (at least one is always kept).
pub fn sample_batch_mask(train_mask: &[bool], frac: f64, seed: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<bool> = train_mask
        .iter()
        .map(|&m| m && rng.gen::<f64>() < frac)
        .collect();
    if !out.iter().any(|&m| m) {
        if let Some(first) = train_mask.iter().position(|&m| m) {
            out[first] = true;
        }
    }
    out
}

/// Deterministic per-epoch seed derivation shared by the serial and
/// distributed sampled trainers (so they draw identical samples).
pub fn epoch_seed(base: u64, epoch: u64) -> u64 {
    base.wrapping_add(epoch.wrapping_mul(0x9E37_79B9))
}

/// Epoch `epoch`'s sampled problem, the one both the serial and the
/// distributed sampled trainers train on: the neighbor-capped adjacency
/// of `raw`, renormalized, and the mini-batch mask of `base`'s training
/// set — each only when `sampler` asks for it.
fn sampled_problem(raw: &Csr, base: &Problem, sampler: &SamplerConfig, epoch: u64) -> Problem {
    let seed = epoch_seed(sampler.seed, epoch);
    let adj = match sampler.neighbor_cap {
        Some(cap) => gcn_normalize(&sample_neighbors(raw, cap, seed)),
        None => base.adj.clone(),
    };
    let mask = if sampler.batch_fraction < 1.0 {
        sample_batch_mask(&base.train_mask, sampler.batch_fraction, seed ^ 0xB47C)
    } else {
        base.train_mask.clone()
    };
    Problem::new(
        adj,
        base.features.clone(),
        base.labels.clone(),
        mask,
        base.num_classes,
    )
}

/// Serial trainer with per-epoch sampling. Holds the **raw** graph and
/// regenerates a normalized sampled adjacency (and/or mini-batch mask)
/// every epoch.
pub struct SampledTrainer {
    raw: Csr,
    base: Problem,
    cfg: GcnConfig,
    sampler: SamplerConfig,
    weights: Vec<cagnet_dense::Mat>,
    epoch_counter: u64,
}

impl SampledTrainer {
    /// Build from the raw (unnormalized) graph and problem data.
    pub fn new(raw: Csr, base: Problem, cfg: GcnConfig, sampler: SamplerConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&sampler.batch_fraction) && sampler.batch_fraction > 0.0,
            "batch fraction must be in (0, 1]"
        );
        let weights = cfg.init_weights();
        SampledTrainer {
            raw,
            base,
            cfg,
            sampler,
            weights,
            epoch_counter: 0,
        }
    }

    /// One epoch on a fresh sample; returns the epoch's (sampled) loss.
    pub fn epoch(&mut self) -> f64 {
        let e = self.epoch_counter;
        self.epoch_counter += 1;
        let problem = sampled_problem(&self.raw, &self.base, &self.sampler, e);
        let mut t = SerialTrainer::new(&problem, self.cfg.clone());
        t.set_weights(std::mem::take(&mut self.weights));
        let loss = t.epoch();
        self.weights = t.weights().to_vec();
        loss
    }

    /// Train for `epochs` epochs; returns per-epoch sampled losses.
    pub fn train(&mut self, epochs: usize) -> Vec<f64> {
        (0..epochs).map(|_| self.epoch()).collect()
    }

    /// Evaluate the current model on the **full** graph and training
    /// mask: `(loss, accuracy)`. This is the fair comparison point
    /// against full-batch training.
    pub fn evaluate_full(&self) -> (f64, f64) {
        let mut t = SerialTrainer::new(&self.base, self.cfg.clone());
        t.set_weights(self.weights.clone());
        let loss = t.forward();
        let acc = t.accuracy();
        (loss, acc)
    }

    /// Current weights.
    pub fn weights(&self) -> &[cagnet_dense::Mat] {
        &self.weights
    }
}

/// §VII realized: the paper's distributed training algorithms "carefully
/// combined with sophisticated sampling based methods". Each epoch, every
/// rank deterministically draws the same sampled adjacency / mini-batch
/// mask (sampling is seed-synchronized, requiring no communication), sets
/// up the paper's 1D block-row trainer on the sampled graph with the
/// carried-over weights, and runs one epoch. Returns per-epoch sampled
/// losses, final weights, and per-rank timeline reports covering the
/// training communication (sampling itself is uncharged preprocessing,
/// like the paper's data loading).
///
/// Uses the 1D algorithm; the construction is identical for the other
/// geometries (the trainer is rebuilt per epoch because the sampled
/// sparsity pattern changes).
pub fn train_distributed_sampled(
    raw: &Csr,
    base: &Problem,
    cfg: &GcnConfig,
    sampler: SamplerConfig,
    p: usize,
    model: cagnet_comm::CostModel,
    epochs: usize,
) -> (
    Vec<f64>,
    Vec<cagnet_dense::Mat>,
    Vec<cagnet_comm::TimelineReport>,
) {
    use crate::dist::onedim::OneDimTrainer;
    let per_rank = cagnet_comm::Cluster::new(p).with_model(model).run(|ctx| {
        let mut weights: Option<Vec<cagnet_dense::Mat>> = None;
        let mut losses = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let problem = sampled_problem(raw, base, &sampler, e as u64);
            let mut t = OneDimTrainer::setup(ctx, &problem, cfg);
            if let Some(w) = weights.take() {
                t.set_weights(w);
            }
            losses.push(t.epoch(ctx));
            weights = Some(t.weights().to_vec());
        }
        let Some(weights) = weights else {
            panic!("sampled training needs at least one epoch")
        };
        (losses, weights, ctx.report())
    });
    let (losses, weights, _) = per_rank[0].0.clone();
    let reports = per_rank.iter().map(|((_, _, r), _)| *r).collect();
    (losses, weights, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_sparse::generate::erdos_renyi;

    fn setup(seed: u64) -> (Csr, Problem, GcnConfig) {
        let raw = erdos_renyi(60, 8.0, seed);
        let problem = Problem::synthetic(&raw, 8, 3, 1.0, seed + 1);
        let cfg = GcnConfig::three_layer(8, 6, 3);
        (raw, problem, cfg)
    }

    #[test]
    fn neighbor_sampling_caps_degree() {
        let (raw, _, _) = setup(61);
        let s = sample_neighbors(&raw, 3, 7);
        for i in 0..s.rows() {
            assert!(s.row_nnz(i) <= 3, "row {i} kept {} neighbors", s.row_nnz(i));
            assert!(s.row_nnz(i) <= raw.row_nnz(i));
        }
        assert!(s.nnz() < raw.nnz());
    }

    #[test]
    fn neighbor_sampling_preserves_expected_row_sums() {
        // Horvitz–Thompson scaling: sampled row sum equals the original
        // row sum in expectation; check the mean over many draws.
        let (raw, _, _) = setup(62);
        // The check needs a row the fanout-3 sampler actually truncates.
        // Take the highest-degree vertex and pin the precondition by
        // name: an Erdős–Rényi draw at mean degree 8 on 60 vertices
        // always has one, but a future seed or parameter change must
        // fail here, not in a bare `Option::unwrap`.
        let i = (0..raw.rows())
            .max_by_key(|&v| raw.row_nnz(v))
            .expect("test graph has no vertices");
        assert!(
            raw.row_nnz(i) >= 6,
            "test graph precondition: max degree {} < 6 — regenerate with a denser \
             erdos_renyi draw",
            raw.row_nnz(i)
        );
        let original: f64 = raw.row_entries(i).map(|(_, v)| v).sum();
        let draws = 200;
        let mean: f64 = (0..draws)
            .map(|d| {
                sample_neighbors(&raw, 3, d as u64)
                    .row_entries(i)
                    .map(|(_, v)| v)
                    .sum::<f64>()
            })
            .sum::<f64>()
            / draws as f64;
        assert!(
            (mean - original).abs() < 0.15 * original.max(1.0),
            "mean sampled row sum {mean} vs original {original}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (raw, _, _) = setup(63);
        assert_eq!(sample_neighbors(&raw, 2, 5), sample_neighbors(&raw, 2, 5));
        assert_ne!(sample_neighbors(&raw, 2, 5), sample_neighbors(&raw, 2, 6));
    }

    #[test]
    fn batch_mask_subsets_training_set() {
        let mask = vec![true, true, false, true, true, false];
        let b = sample_batch_mask(&mask, 0.5, 9);
        for (orig, sub) in mask.iter().zip(&b) {
            assert!(!sub | orig, "batch mask escaped the training set");
        }
        // Never empty.
        let b0 = sample_batch_mask(&mask, 1e-9, 10);
        assert!(b0.iter().any(|&m| m));
    }

    #[test]
    fn sampled_training_decreases_loss() {
        let (raw, problem, cfg) = setup(64);
        let mut t = SampledTrainer::new(
            raw,
            problem,
            cfg,
            SamplerConfig {
                neighbor_cap: Some(4),
                batch_fraction: 0.5,
                seed: 11,
            },
        );
        let (before, _) = t.evaluate_full();
        t.train(40);
        let (after, _) = t.evaluate_full();
        assert!(
            after < before,
            "sampled training failed to learn: {before} -> {after}"
        );
    }

    #[test]
    fn full_batch_config_matches_serial_exactly() {
        // neighbor_cap = None and batch_fraction = 1.0 degrade to plain
        // full-batch training.
        let (raw, problem, cfg) = setup(65);
        let mut sampled =
            SampledTrainer::new(raw, problem.clone(), cfg.clone(), SamplerConfig::default());
        let ls = sampled.train(5);
        let mut reference = SerialTrainer::new(&problem, cfg);
        let lr = reference.train(5);
        assert_eq!(ls, lr);
    }

    #[test]
    fn sampling_adds_gradient_noise() {
        // The paper's §I claim (after ROC) is statistical: sampling trades
        // approximation error for memory. Two measurable signatures on a
        // fixed instance: (1) aggressively-sampled training never beats
        // full batch by more than noise, averaged over seeds; (2) the
        // full-batch trajectory is monotone while the sampled one
        // fluctuates.
        let (raw, problem, cfg) = setup(66);
        let epochs = 50;
        let mut full = SerialTrainer::new(&problem, cfg.clone());
        let full_losses = full.train(epochs);
        let full_loss = full.forward();
        // (2) full-batch descent is monotone after warmup.
        assert!(full_losses.windows(2).skip(5).all(|w| w[1] <= w[0] + 1e-9));
        let mut sampled_mean = 0.0;
        let mut any_nonmonotone = false;
        let seeds = 5;
        for s in 0..seeds {
            let mut t = SampledTrainer::new(
                raw.clone(),
                problem.clone(),
                cfg.clone(),
                SamplerConfig {
                    neighbor_cap: Some(2),
                    batch_fraction: 1.0,
                    seed: 21 + s,
                },
            );
            let traj = t.train(epochs);
            any_nonmonotone |= traj.windows(2).skip(5).any(|w| w[1] > w[0] + 1e-9);
            sampled_mean += t.evaluate_full().0 / seeds as f64;
        }
        assert!(any_nonmonotone, "sampled trajectories should fluctuate");
        // (1) on average, sampling does not beat full batch.
        assert!(
            sampled_mean >= full_loss - 1e-3,
            "aggressive sampling beat full batch on average: {sampled_mean} < {full_loss}"
        );
    }
}
