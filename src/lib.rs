//! # cagnet
//!
//! Facade crate for the CAGNET reproduction — *Reducing Communication in
//! Graph Neural Network Training* (Tripathy, Yelick, Buluç; SC 2020) —
//! re-exporting the four workspace crates:
//!
//! * [`dense`] — matrices, GEMM kernels, activations
//! * [`sparse`] — CSR/COO, SpMM, generators, partitioning
//! * [`comm`] — the simulated distributed runtime and α–β cost model
//! * [`core`] — the serial reference and the 1D/1.5D/2D/3D trainers
//!
//! ## Example: distributed training matches serial
//!
//! ```
//! use cagnet::comm::CostModel;
//! use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
//! use cagnet::core::{GcnConfig, Problem, SerialTrainer};
//! use cagnet::sparse::generate::erdos_renyi;
//!
//! // A small random graph with synthetic features and labels.
//! let graph = erdos_renyi(40, 3.0, 7);
//! let problem = Problem::synthetic(&graph, 8, 3, 1.0, 8);
//! let gcn = GcnConfig::three_layer(8, 6, 3);
//!
//! // Serial reference.
//! let mut serial = SerialTrainer::new(&problem, gcn.clone());
//! let serial_losses = serial.train(3);
//!
//! // The paper's 2D SUMMA algorithm on a simulated 4-GPU cluster.
//! let tc = TrainConfig { epochs: 3, ..Default::default() };
//! let dist = train_distributed(
//!     &problem, &gcn, Algorithm::TwoD, 4, CostModel::summit_like(), &tc,
//! );
//!
//! for (a, b) in serial_losses.iter().zip(&dist.losses) {
//!     assert!((a - b).abs() < 1e-8);
//! }
//! // ...and the communication ledger is populated.
//! assert!(dist.reports.iter().all(|r| r.comm_words() > 0));
//! ```
//!
//! ## Example: counting words against the paper's bounds
//!
//! ```
//! use cagnet::core::analysis::{self, Shape};
//!
//! let s = Shape::new(1 << 20, 16 << 20, 128, 3);
//! let w_1d = analysis::one_d(&s, 64, None).words;
//! let w_2d = analysis::two_d(&s, 64).words;
//! let w_3d = analysis::three_d(&s, 64).words;
//! assert!(w_2d < w_1d); // the O(√P) reduction
//! assert!(w_3d < w_2d); // the further O(P^(1/6))
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use cagnet_comm as comm;
pub use cagnet_core as core;
pub use cagnet_dense as dense;
pub use cagnet_sparse as sparse;
