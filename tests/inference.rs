//! Distributed inference (§I: "all of our algorithms are applicable to
//! GNN inference"): a forward pass with trained weights must reproduce the
//! serial model's outputs on every algorithm and geometry.

use cagnet::comm::{Cat, CostModel};
use cagnet::core::trainer::{infer_distributed, train_distributed, Algorithm, TrainConfig};
use cagnet::core::{GcnConfig, Problem, SerialTrainer};
use cagnet::dense::activation::Activation;
use cagnet::sparse::generate::erdos_renyi;

fn setup() -> (
    Problem,
    GcnConfig,
    Vec<cagnet::dense::Mat>,
    f64,
    cagnet::dense::Mat,
) {
    let g = erdos_renyi(50, 4.0, 51);
    let problem = Problem::synthetic(&g, 10, 4, 0.8, 52);
    let cfg = GcnConfig::three_layer(10, 8, 4);
    // Train serially for a few epochs to get a non-trivial model.
    let mut s = SerialTrainer::new(&problem, cfg.clone());
    s.train(10);
    let weights = s.weights().to_vec();
    let loss = s.forward();
    let emb = s.embeddings().clone();
    (problem, cfg, weights, loss, emb)
}

#[test]
fn inference_matches_serial_on_every_algorithm() {
    let (problem, cfg, weights, s_loss, s_emb) = setup();
    let tc = TrainConfig::default();
    for (algo, p) in [
        (Algorithm::OneD, 5),
        (Algorithm::OneDRow, 3),
        (Algorithm::One5D { c: 2 }, 6),
        (Algorithm::TwoD, 4),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
        (Algorithm::ThreeD, 8),
    ] {
        let r = infer_distributed(
            &problem,
            &cfg,
            &weights,
            algo,
            p,
            CostModel::summit_like(),
            &tc,
        );
        assert!(
            (r.loss - s_loss).abs() < 1e-9,
            "{} P={p}: loss {} vs serial {s_loss}",
            algo.name(),
            r.loss
        );
        let d = r.embeddings.max_abs_diff(&s_emb);
        assert!(d < 1e-9, "{} P={p}: embeddings differ by {d}", algo.name());
    }
}

#[test]
fn inference_moves_fewer_words_than_an_epoch() {
    // Inference is forward-only: strictly less communication than a full
    // forward+backward epoch under the same layout.
    let (problem, cfg, weights, _, _) = setup();
    let tc = TrainConfig {
        epochs: 1,
        collect_outputs: false,
        ..Default::default()
    };
    let inf = infer_distributed(
        &problem,
        &cfg,
        &weights,
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    );
    let train = train_distributed(
        &problem,
        &cfg,
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    );
    let wi: u64 = inf.reports.iter().map(|r| r.comm_words()).sum();
    let wt: u64 = train.reports.iter().map(|r| r.comm_words()).sum();
    assert!(
        wi < wt,
        "inference ({wi}) should move fewer words than an epoch ({wt})"
    );
    assert!(wi > 0, "inference still communicates (forward SUMMA)");
}

#[test]
fn inference_with_trained_distributed_weights_roundtrips() {
    // Train distributed (2D), infer distributed (3D) with those weights:
    // cross-algorithm weight portability.
    let (problem, cfg, _, _, _) = setup();
    let tc = TrainConfig {
        epochs: 10,
        ..Default::default()
    };
    let trained = train_distributed(
        &problem,
        &cfg,
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    );
    let r = infer_distributed(
        &problem,
        &cfg,
        &trained.weights,
        Algorithm::ThreeD,
        8,
        CostModel::summit_like(),
        &tc,
    );
    // Accuracy of the 3D inference equals the 2D training run's final
    // accuracy (same model, same data).
    assert!(
        (r.accuracy - trained.accuracy).abs() < 1e-12,
        "accuracy mismatch: {} vs {}",
        r.accuracy,
        trained.accuracy
    );
    // Sparse traffic present in the 3D forward (SUMMA broadcasts of A).
    assert!(r.reports.iter().any(|rep| rep.words(Cat::SparseComm) > 0));
}

#[test]
fn inference_honors_the_hidden_activation() {
    // A model trained with tanh hidden layers and served with the same
    // TrainConfig must run tanh at inference too: its embeddings are the
    // ones train_distributed gathers with the final weights, bit for bit.
    let (problem, cfg, _, _, _) = setup();
    let tc = TrainConfig {
        epochs: 4,
        activation: Activation::Tanh,
        ..Default::default()
    };
    for (algo, p) in [(Algorithm::OneD, 2), (Algorithm::TwoD, 4)] {
        let model = CostModel::summit_like();
        let trained = train_distributed(&problem, &cfg, algo, p, model.clone(), &tc);
        let served = infer_distributed(&problem, &cfg, &trained.weights, algo, p, model, &tc);
        let bits = |m: &cagnet::dense::Mat| -> Vec<u64> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(&served.embeddings),
            bits(&trained.embeddings),
            "{} P={p}: served embeddings must equal the trained run's",
            algo.name()
        );
        assert_eq!(served.accuracy, trained.accuracy, "{} P={p}", algo.name());
    }
}
