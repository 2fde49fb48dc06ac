//! Model checkpointing: save/load a weight stack to a compact binary
//! file, so a model trained under one geometry can be served later (see
//! [`crate::trainer::infer_distributed`]) or training can resume.
//!
//! A checkpoint is the magic `CAGNETW1` followed by the stack in the
//! socket transport's codec ([`frame::encode`] of a `Vec<Mat>`), which
//! is, all little-endian:
//!
//! ```text
//! magic   8 bytes  "CAGNETW1"
//! count   u64      number of matrices
//! per matrix:
//!   rows  u64
//!   cols  u64
//!   data  rows*cols f64
//! ```
//!
//! Loading decodes with [`frame::decode`], whose count and dimension
//! checks reject a header that claims more data than the input holds
//! before anything is allocated.

use cagnet_comm::frame;
use cagnet_dense::Mat;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CAGNETW1";

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural failure (bad magic, truncated file, absurd sizes).
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Write a weight stack to any writer.
pub fn save_weights<W: Write>(mut writer: W, weights: &[Mat]) -> Result<(), CheckpointError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&frame::encode(&weights.to_vec()))?;
    writer.flush()?;
    Ok(())
}

/// Read a weight stack from any reader, to its end.
pub fn load_weights<R: Read>(mut reader: R) -> Result<Vec<Mat>, CheckpointError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Save a weight stack to a file path.
pub fn save_weights_file<P: AsRef<Path>>(path: P, weights: &[Mat]) -> Result<(), CheckpointError> {
    save_weights(std::fs::File::create(path)?, weights)
}

/// Load a weight stack from a file path.
pub fn load_weights_file<P: AsRef<Path>>(path: P) -> Result<Vec<Mat>, CheckpointError> {
    decode(&std::fs::read(path)?)
}

fn decode(bytes: &[u8]) -> Result<Vec<Mat>, CheckpointError> {
    let Some(body) = bytes.strip_prefix(MAGIC) else {
        let what = if bytes.len() < MAGIC.len() {
            "file too short for header"
        } else {
            "wrong magic bytes"
        };
        return Err(CheckpointError::Format(what.into()));
    };
    frame::decode(body).map_err(|e| CheckpointError::Format(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_dense::init::glorot_uniform;

    #[test]
    fn roundtrip_in_memory() {
        let weights = vec![
            glorot_uniform(10, 4, 1),
            glorot_uniform(4, 4, 2),
            glorot_uniform(4, 3, 3),
        ];
        let mut buf = Vec::new();
        save_weights(&mut buf, &weights).unwrap();
        let encoded = [&MAGIC[..], &frame::encode(&weights)].concat();
        assert_eq!(buf, encoded, "the magic, then the codec's bytes");
        let back = load_weights(&buf[..]).unwrap();
        assert_eq!(weights.len(), back.len());
        for (a, b) in weights.iter().zip(&back) {
            assert_eq!(a, b, "bitwise roundtrip");
        }
    }

    #[test]
    fn roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("cagnet_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.bin");
        let weights = vec![glorot_uniform(7, 5, 4)];
        save_weights_file(&path, &weights).unwrap();
        let back = load_weights_file(&path).unwrap();
        assert_eq!(weights[0], back[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_stack_and_empty_matrix() {
        let mut buf = Vec::new();
        save_weights(&mut buf, &[]).unwrap();
        assert!(load_weights(&buf[..]).unwrap().is_empty());
        let mut buf = Vec::new();
        save_weights(&mut buf, &[Mat::zeros(0, 5)]).unwrap();
        let back = load_weights(&buf[..]).unwrap();
        assert_eq!(back[0].shape(), (0, 5));
    }

    #[test]
    fn corruption_is_detected() {
        let weights = vec![glorot_uniform(3, 3, 5)];
        let mut buf = Vec::new();
        save_weights(&mut buf, &weights).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(load_weights(&bad[..]).is_err());
        // Truncated.
        let short = &buf[..buf.len() - 5];
        assert!(load_weights(short).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0xFF);
        assert!(load_weights(&long[..]).is_err());
        // Implausible header.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(load_weights(&huge[..]).is_err());
    }

    #[test]
    fn hostile_size_header_is_rejected_before_allocation() {
        // A 40-byte file claiming one 2^16 x 2^16 matrix: the 32 GiB of
        // data it implies cannot fit the remaining input, so the codec
        // refuses before reserving the matrix.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 16).to_le_bytes());
        buf.extend_from_slice(&(1u64 << 16).to_le_bytes());
        match load_weights(&buf[..]).unwrap_err() {
            CheckpointError::Format(m) => {
                assert!(m.contains("matrix data exceeds body"), "{m}")
            }
            e => panic!("expected Format error, got: {e}"),
        }
    }

    #[test]
    fn fuzzed_corruption_errors_cleanly() {
        // Deterministic xorshift byte-flipping over a valid checkpoint:
        // every mutation must yield Ok or CheckpointError — never a
        // panic, abort, or runaway allocation.
        let weights = vec![glorot_uniform(4, 3, 8), glorot_uniform(3, 2, 9)];
        let mut base = Vec::new();
        save_weights(&mut base, &weights).unwrap();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..1000 {
            let mut buf = base.clone();
            for _ in 0..=(rng() as usize % 3) {
                let pos = rng() as usize % buf.len();
                buf[pos] ^= (rng() % 255 + 1) as u8;
            }
            // Occasionally truncate too.
            if rng() % 4 == 0 {
                buf.truncate(rng() as usize % (base.len() + 1));
            }
            let _ = load_weights(&buf[..]);
        }
    }

    #[test]
    fn trained_model_roundtrips_through_checkpoint() {
        use crate::{GcnConfig, Problem, SerialTrainer};
        use cagnet_sparse::generate::erdos_renyi;
        let g = erdos_renyi(30, 3.0, 6);
        let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
        let cfg = GcnConfig::three_layer(6, 5, 3);
        let mut t = SerialTrainer::new(&problem, cfg.clone());
        t.train(10);
        let loss_before = t.forward();
        let mut buf = Vec::new();
        save_weights(&mut buf, t.weights()).unwrap();
        // Fresh trainer, loaded weights: identical loss.
        let mut t2 = SerialTrainer::new(&problem, cfg);
        t2.set_weights(load_weights(&buf[..]).unwrap());
        let loss_after = t2.forward();
        assert_eq!(loss_before, loss_after);
    }
}
