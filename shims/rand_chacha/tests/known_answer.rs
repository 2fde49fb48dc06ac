//! Known-answer words of the ChaCha8 stream, captured before the refill
//! was widened to several blocks per call. Every synthetic graph,
//! feature matrix and label vector in the workspace is drawn from this
//! stream, so a change to how blocks are computed or buffered must leave
//! each word where it was. The indices straddle the one-block (16-word)
//! and eight-block (128-word) refill boundaries several times over.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Word positions checked per seed: both sides of the 16-, 128-, 256-,
/// 384- and 1024-word boundaries.
const AT: [usize; 13] = [
    0, 15, 16, 127, 128, 129, 255, 256, 383, 384, 1023, 1024, 1025,
];

/// `(seed, words at AT, FNV-1a of the first 100 000 words)`.
const KNOWN: [(u64, [u32; 13], u64); 3] = [
    (
        0,
        [
            0x2d8e_e5e8,
            0x95d5_3efa,
            0x94ef_af48,
            0x6dc2_8391,
            0x4f36_12bb,
            0xef97_d603,
            0x99bc_ac93,
            0xbf31_11ab,
            0x5989_7e23,
            0x9128_1941,
            0x0f83_1bf9,
            0x53d7_bfe9,
            0x5e2d_9663,
        ],
        0x4876_a6b8_e5f9_3a8f,
    ),
    (
        42,
        [
            0x87c9_1afc,
            0xaff5_425d,
            0x6b94_7e05,
            0x2f23_037d,
            0xd638_7e2e,
            0xc219_8d70,
            0x07ae_8bc4,
            0xae9a_bd63,
            0x9529_9639,
            0x5344_524b,
            0xb212_223e,
            0xfd2b_5088,
            0x0de9_fd96,
        ],
        0x59b1_e197_3d13_c253,
    ),
    (
        0xBE7C,
        [
            0x6eb1_e7e2,
            0xf182_b2c0,
            0xfa6c_e252,
            0x7ce0_ba93,
            0x4564_e5a0,
            0x213f_b93d,
            0xcd3c_71d5,
            0x564d_e4a2,
            0x636e_a1c0,
            0x85cc_f37c,
            0x65ff_6e78,
            0x7210_d65a,
            0x415f_3afa,
        ],
        0x8624_7538_cda9_c79a,
    ),
];

fn fnv(words: &[u32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn first_words(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u32()).collect()
}

#[test]
fn words_match_the_captured_stream() {
    for (seed, words, hash) in KNOWN {
        let stream = first_words(seed, 100_000);
        let got: Vec<u32> = AT.iter().map(|&i| stream[i]).collect();
        assert_eq!(got, words, "seed {seed:#x}");
        assert_eq!(fnv(&stream), hash, "seed {seed:#x}: first 100 000 words");
    }
}

#[test]
fn u64_draws_straddle_refills_in_word_order() {
    // One odd u32 first, so every later u64 pairs words (2k+1, 2k+2) and
    // the 16- and 128-word boundaries fall inside a u64.
    for (seed, _, _) in KNOWN {
        let stream = first_words(seed, 1100);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        assert_eq!(rng.next_u32(), stream[0]);
        for k in 0..549 {
            let (lo, hi) = (stream[2 * k + 1], stream[2 * k + 2]);
            let want = (u64::from(hi) << 32) | u64::from(lo);
            assert_eq!(rng.next_u64(), want, "seed {seed:#x}, u64 #{k}");
        }
    }
}

#[test]
fn clones_continue_the_same_stream_mid_buffer() {
    let mut a = ChaCha8Rng::seed_from_u64(0xBE7C);
    for _ in 0..200 {
        a.next_u32();
    }
    let mut b = a.clone();
    for _ in 0..300 {
        assert_eq!(a.next_u32(), b.next_u32());
    }
}
