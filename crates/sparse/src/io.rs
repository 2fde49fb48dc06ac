//! Graph and matrix I/O: Matrix Market (`.mtx`) coordinate files and
//! plain edge lists.
//!
//! The paper's datasets (Reddit/Amazon/Protein — the latter from the
//! HipMCL repository) ship in exactly these formats; this module is what
//! lets a user run the reproduction on the real files instead of the
//! seeded stand-ins. Supports the `matrix coordinate
//! real|integer|pattern general|symmetric` subset of the Matrix Market
//! spec, which covers the graph repositories (SuiteSparse, IMG/HipMCL).

use crate::coo::Coo;
use crate::csr::Csr;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from graph/matrix parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural/parse failure with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Whether a CSR row pointer over `n` rows (`n + 1` words) is
/// addressable. The readers check every size against it, so a hostile
/// size is a parse error rather than an overflow inside
/// [`Csr::from_coo`] or [`Csr::transpose`].
fn row_ptr_fits(n: usize) -> bool {
    n.checked_add(1)
        .and_then(|len| len.checked_mul(std::mem::size_of::<usize>()))
        .is_some_and(|bytes| bytes <= isize::MAX as usize)
}

/// Read a Matrix Market coordinate file from any reader.
///
/// Supported header: `%%MatrixMarket matrix coordinate
/// {real|integer|pattern} {general|symmetric}`. Symmetric inputs are
/// expanded (mirrored off-diagonal entries). Pattern inputs get weight
/// 1.0. Indices are 1-based per the spec.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, IoError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Header line.
    let (hline_no, header) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (no + 1, line);
                }
            }
            None => return Err(parse_err(0, "empty file")),
        }
    };
    let tokens: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(parse_err(hline_no, "missing %%MatrixMarket matrix header"));
    }
    if tokens[2] != "coordinate" {
        return Err(parse_err(hline_no, "only coordinate format is supported"));
    }
    let field = tokens[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(hline_no, format!("unsupported field '{field}'")));
    }
    let symmetry = tokens[4].as_str();
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(parse_err(
            hline_no,
            format!("unsupported symmetry '{symmetry}'"),
        ));
    }

    // Size line (first non-comment line).
    let (sline_no, size_line) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (no + 1, line);
                }
            }
            None => return Err(parse_err(0, "missing size line")),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(parse_err(sline_no, "size line must be 'rows cols nnz'"));
    }
    let rows: usize = dims[0]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad row count"))?;
    let cols: usize = dims[1]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad col count"))?;
    for (what, n) in [("row", rows), ("col", cols)] {
        if !row_ptr_fits(n) {
            return Err(parse_err(
                sline_no,
                format!("{what} count {n} is too large"),
            ));
        }
    }
    let nnz: usize = dims[2]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad nnz count"))?;

    let mut coo = Coo::new(rows, cols);
    let mut seen = 0usize;
    for (no, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let expect_vals = field != "pattern";
        if parts.len() < 2 + usize::from(expect_vals) {
            return Err(parse_err(no + 1, "entry needs 'row col [value]'"));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(no + 1, "bad row index"))?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(no + 1, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(no + 1, format!("index ({r},{c}) out of bounds")));
        }
        let v: f64 = if expect_vals {
            parts[2]
                .parse()
                .map_err(|_| parse_err(no + 1, "bad value"))?
        } else {
            1.0
        };
        coo.push(r - 1, c - 1, v);
        if symmetry == "symmetric" && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("size line promised {nnz} entries, file had {seen}"),
        ));
    }
    Ok(Csr::from_coo(coo))
}

/// Read a Matrix Market file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<Csr, IoError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a matrix as Matrix Market `coordinate real general`.
pub fn write_matrix_market<W: Write>(writer: W, a: &Csr) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by cagnet-sparse")?;
    writeln!(w, "{} {} {}", a.rows(), a.cols(), a.nnz())?;
    for i in 0..a.rows() {
        for (j, v) in a.row_entries(i) {
            writeln!(w, "{} {} {}", i + 1, j + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Write a Matrix Market file to disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(path: P, a: &Csr) -> Result<(), IoError> {
    write_matrix_market(std::fs::File::create(path)?, a)
}

/// Read a whitespace-separated edge list (`src dst [weight]` per line,
/// `#`-comments allowed). Vertex ids are 0-based; the vertex count is
/// `max id + 1` unless `num_vertices` pins it.
pub fn read_edge_list<R: Read>(reader: R, num_vertices: Option<usize>) -> Result<Csr, IoError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    // The largest vertex id and the line it first appears on.
    let (mut max_id, mut max_line) = (0usize, 0usize);
    for (no, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() < 2 {
            return Err(parse_err(no + 1, "edge needs 'src dst [weight]'"));
        }
        let s: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(no + 1, "bad source id"))?;
        let d: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(no + 1, "bad destination id"))?;
        let wgt: f64 = match parts.get(2) {
            Some(x) => x.parse().map_err(|_| parse_err(no + 1, "bad weight"))?,
            None => 1.0,
        };
        if s.max(d) > max_id {
            (max_id, max_line) = (s.max(d), no + 1);
        }
        edges.push((s, d, wgt));
    }
    let n = match num_vertices {
        Some(n) => {
            if max_id >= n && !edges.is_empty() {
                return Err(parse_err(
                    max_line,
                    format!("vertex id {max_id} >= n = {n}"),
                ));
            }
            n
        }
        None if edges.is_empty() => 0,
        None => max_id
            .checked_add(1)
            .filter(|&n| row_ptr_fits(n))
            .ok_or_else(|| parse_err(max_line, format!("vertex id {max_id} is too large")))?,
    };
    let mut coo = Coo::new(n, n);
    for (s, d, w) in edges {
        coo.push(s, d, w);
    }
    Ok(Csr::from_coo(coo))
}

/// Read an edge list from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    num_vertices: Option<usize>,
) -> Result<Csr, IoError> {
    read_edge_list(std::fs::File::open(path)?, num_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::erdos_renyi;

    #[test]
    fn matrix_market_roundtrip() {
        let a = erdos_renyi(50, 4.0, 1);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn parses_symmetric_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a triangle\n\
                    3 3 3\n\
                    2 1\n\
                    3 1\n\
                    3 2\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 6); // mirrored
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a, a.transpose());
    }

    #[test]
    fn parses_real_general_with_comments() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % comment\n\
                    \n\
                    2 3 2\n\
                    1 2 0.5\n\
                    % interior comment\n\
                    2 3 -1.25\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.get(0, 1), 0.5);
        assert_eq!(a.get(1, 2), -1.25);
    }

    #[test]
    fn rejects_bad_headers_and_indices() {
        assert!(read_matrix_market("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
                .is_err()
        );
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
        let count = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(count.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_basics() {
        let text = "# a comment\n0 1\n1 2 2.5\n\n2 0\n";
        let a = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 2.5);
        assert_eq!(a.get(2, 0), 1.0);
    }

    #[test]
    fn edge_list_pinned_vertex_count() {
        let a = read_edge_list("0 1\n".as_bytes(), Some(5)).unwrap();
        assert_eq!(a.rows(), 5);
        assert!(read_edge_list("0 9\n".as_bytes(), Some(5)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cagnet_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        let a = erdos_renyi(30, 3.0, 2);
        write_matrix_market_file(&path, &a).unwrap();
        let back = read_matrix_market_file(&path).unwrap();
        assert_eq!(a, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_edge_list_is_empty_graph() {
        let a = read_edge_list("# nothing\n".as_bytes(), None).unwrap();
        assert_eq!(a.rows(), 0);
        assert_eq!(a.nnz(), 0);
    }
}
