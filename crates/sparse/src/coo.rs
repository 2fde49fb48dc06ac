//! Coordinate-format (triplet) sparse matrix.
//!
//! COO is the input format of the file readers and of hand-built test
//! graphs: triplets in any order, duplicates allowed. [`Csr::from_coo`]
//! buckets them by row, sorts each row and sums duplicates in insertion
//! order (DESIGN.md §11); the generators assemble CSR the same way
//! without going through COO.
//!
//! [`Csr::from_coo`]: crate::csr::Csr::from_coo

/// A sparse matrix stored as `(row, col, value)` triplets.
#[derive(Clone, Debug)]
pub struct Coo {
    rows: usize,
    cols: usize,
    /// Unsorted, possibly-duplicated triplets.
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// New empty COO matrix with the given logical dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Build from a triplet list.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_entries(rows: usize, cols: usize, entries: Vec<(usize, usize, f64)>) -> Self {
        for &(r, c, _) in &entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of {rows}x{cols}");
        }
        Coo {
            rows,
            cols,
            entries,
        }
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "entry ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((r, c, v));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw triplets in insertion order (unsorted, may contain
    /// duplicates).
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Number of stored triplets (including duplicates).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    #[test]
    fn push_and_count() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        c.push(2, 2, 2.0);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn sum_duplicates_merges() {
        let c = Coo::from_entries(2, 2, vec![(0, 0, 1.0), (1, 1, 3.0), (0, 0, 2.0)]);
        assert_eq!(c.nnz(), 3, "COO keeps every triplet");
        let a = Csr::from_coo(c);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn duplicates_fold_in_insertion_order() {
        // Floating-point addition is not associative: left to right in
        // insertion order, (1 + 1e16) - 1e16 = 0 (the 1 is absorbed);
        // reversed, (-1e16 + 1e16) + 1 = 1.
        let c = Coo::from_entries(
            1,
            2,
            vec![(0, 1, 1.0), (0, 0, 7.0), (0, 1, 1e16), (0, 1, -1e16)],
        );
        let a = Csr::from_coo(c);
        assert_eq!(a.col_idx(), &[0, 1]);
        assert_eq!(a.vals()[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn symmetrize_mirrors_offdiagonal() {
        let c = Coo::from_entries(3, 3, vec![(0, 1, 1.0), (2, 2, 5.0)]);
        let s = Csr::from_coo(c).symmetrized();
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.get(2, 2), 5.0, "the diagonal is not doubled");
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn symmetrize_sums_existing_pairs() {
        let c = Coo::from_entries(2, 2, vec![(0, 1, 1.0), (1, 0, 2.0)]);
        let s = Csr::from_coo(c).symmetrized();
        // Each direction receives 1.0 + 2.0.
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(1, 0), 3.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_push_panics() {
        let mut c = Coo::new(2, 2);
        c.push(2, 0, 1.0);
    }
}
