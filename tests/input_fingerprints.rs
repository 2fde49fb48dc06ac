//! Bit-level fingerprints of every generated input the benchmark
//! workloads train on, captured before graph assembly stopped sorting
//! triplets. Each workload's words, charges and losses are a function of
//! these arrays, so the assembly path may change only if every
//! fingerprint below stays put: adjacency pattern and value bits, the
//! transpose, features, labels, train mask and — for the partitioned
//! workload — the relabeling.
//!
//! The parameter sets are the ones `benchmark/src/workloads.rs` builds at
//! its default seed.

use cagnet::core::Problem;
use cagnet::dense::Mat;
use cagnet::sparse::datasets::{self, DatasetSpec};
use cagnet::sparse::generate::{permute_symmetric, planted_partition, PlantedPartitionParams};
use cagnet::sparse::partitioner::{partition_greedy_bfs, PartitionConfig, PartitionObjective};
use cagnet::sparse::Csr;

const SEED: u64 = 0xBE7C;

/// FNV-1a over whole 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

fn csr_print(a: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.words([a.rows() as u64, a.cols() as u64]);
    h.words(a.row_ptr().iter().map(|&p| p as u64));
    h.words(a.col_idx().iter().map(|&c| c as u64));
    h.words(a.vals().iter().map(|v| v.to_bits()));
    h.0
}

fn mat_print(m: &Mat) -> u64 {
    let mut h = Fnv::new();
    h.words([m.rows() as u64, m.cols() as u64]);
    h.words(m.as_slice().iter().map(|v| v.to_bits()));
    h.0
}

/// `[adj, adj_t, features, labels + train mask + classes]`.
fn problem_print(p: &Problem) -> [u64; 4] {
    let mut rest = Fnv::new();
    rest.words(p.labels.iter().map(|&l| l as u64));
    rest.words(p.train_mask.iter().map(|&m| u64::from(m)));
    rest.word(p.num_classes as u64);
    [
        csr_print(&p.adj),
        csr_print(&p.adj_t),
        mat_print(&p.features),
        rest.0,
    ]
}

fn dataset_print(spec: &DatasetSpec, scale_down: usize, max_degree: usize) -> [u64; 4] {
    let ds = datasets::generate(spec, scale_down, max_degree, SEED);
    problem_print(&Problem::from_dataset(&ds, SEED))
}

#[test]
fn reddit_input_is_unchanged() {
    assert_eq!(
        dataset_print(&datasets::REDDIT, 14, 96),
        [
            0x376c_230b_f376_e46a,
            0xdca4_4423_33d1_326c,
            0xedc4_43fc_9c7f_8c9f,
            0xd5fb_b38c_c92a_8820,
        ]
    );
}

#[test]
fn amazon_input_is_unchanged() {
    assert_eq!(
        dataset_print(&datasets::AMAZON, 288, 25),
        [
            0xff26_7fb9_78aa_280f,
            0x3c87_5352_ea85_9f53,
            0x16fa_7edf_d75e_dfa1,
            0x53ae_5911_4b2b_28aa,
        ]
    );
}

#[test]
fn protein_input_is_unchanged() {
    assert_eq!(
        dataset_print(&datasets::PROTEIN, 267, 48),
        [
            0xed47_0504_ba2e_cf7e,
            0x1256_15ac_b5a7_defc,
            0x1e0c_78f3_8784_4f65,
            0x1aa2_e830_3161_bf4e,
        ]
    );
}

#[test]
fn planted_input_and_its_relabeling_are_unchanged() {
    let params = PlantedPartitionParams {
        communities: 64,
        degree_in: 12.0,
        degree_out: 1.0,
        hubs: 8,
        hub_degree: 200,
    };
    let raw = planted_partition(32_768, params, SEED);
    let (g, perm) = permute_symmetric(&raw, SEED ^ 0x5eed);
    let mut perm_print = Fnv::new();
    perm_print.words(perm.iter().map(|&v| v as u64));
    let problem = Problem::synthetic(&g, 128, 16, 1.0, SEED);
    // What the 1.5D c = 2 workload does before launch: a volume partition
    // into its two row groups, then the part-major relabeling.
    let cfg = PartitionConfig {
        num_parts: 2,
        objective: PartitionObjective::Volume,
        ..PartitionConfig::default()
    };
    let part = partition_greedy_bfs(&problem.adj, &cfg);
    let (relabeled, rl) = problem.relabeled(&part, 2);
    let mut rl_print = Fnv::new();
    rl_print.words(rl.old_to_new.iter().map(|&v| v as u64));
    rl_print.words(
        rl.part_ranges
            .iter()
            .flat_map(|&(lo, hi)| [lo as u64, hi as u64]),
    );

    let got = (
        [csr_print(&raw), csr_print(&g), perm_print.0],
        problem_print(&problem),
        problem_print(&relabeled),
        rl_print.0,
    );
    let want = (
        [
            0x2bc0_34a4_ee82_9a51,
            0x2405_ba85_c21d_c16b,
            0xca79_ec3c_0c0c_f441,
        ],
        [
            0x76d0_fbbe_f9c8_10b9,
            0xb7b8_9487_57e6_0bab,
            0x57af_a10f_36ea_901b,
            0x5d15_a182_0d85_0240,
        ],
        [
            0xd380_ac1c_7190_7365,
            0x3242_ee21_7058_919d,
            0x0ff3_4891_b72b_f6db,
            0x475d_5357_39d1_6c58,
        ],
        0xefee_af7a_ca56_ad43,
    );
    assert_eq!(got, want);
}
