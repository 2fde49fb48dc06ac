//! Property tests for the I/O substrate: Matrix Market and edge-list
//! roundtrips over arbitrary sparse matrices.

use cagnet_sparse::io::{read_edge_list, read_matrix_market, write_matrix_market, IoError};
use cagnet_sparse::{Coo, Csr};
use proptest::prelude::*;

fn sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0..rows, 0..cols, -100.0f64..100.0), 0..max_nnz.max(1)).prop_map(
        move |entries| {
            let entries: Vec<_> = entries.into_iter().filter(|&(_, _, v)| v != 0.0).collect();
            Csr::from_coo(Coo::from_entries(rows, cols, entries))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn matrix_market_roundtrips_any_matrix(
        a in (1usize..20, 1usize..20).prop_flat_map(|(r, c)| sparse(r, c, 60))
    ) {
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn edge_list_roundtrips_weighted_digraphs(
        a in (2usize..20,).prop_flat_map(|(n,)| sparse(n, n, 50))
    ) {
        // Serialize as an edge list ourselves, then parse it back.
        let mut text = String::from("# roundtrip\n");
        for i in 0..a.rows() {
            for (j, v) in a.row_entries(i) {
                text.push_str(&format!("{i} {j} {v}\n"));
            }
        }
        let back = read_edge_list(text.as_bytes(), Some(a.rows())).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn matrix_market_header_sizes_are_authoritative(
        rows in 1usize..10, cols in 1usize..10,
    ) {
        // A file that promises more entries than it has must be rejected.
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{rows} {cols} 2\n1 1 1.0\n"
        );
        prop_assert!(read_matrix_market(text.as_bytes()).is_err());
    }
}

/// The line and message of a reader's parse error.
fn parse_error(result: Result<Csr, IoError>) -> (usize, String) {
    match result {
        Err(IoError::Parse { line, message }) => (line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn hostile_sizes_are_parse_errors_naming_line_and_value() {
    // `max_id + 1` overflows; one below, the row pointer past it does.
    for (text, line_no, id) in [
        ("0 18446744073709551615\n", 1, usize::MAX),
        (
            "# hostile\n0 1\n0 18446744073709551614\n",
            3,
            usize::MAX - 1,
        ),
    ] {
        let (line, message) = parse_error(read_edge_list(text.as_bytes(), None));
        assert_eq!(line, line_no, "{message}");
        assert!(message.contains(&id.to_string()), "{message}");
    }
    // `rows + 1` overflows in the row pointer `Csr::from_coo` builds;
    // further down, its byte size does.
    for rows in [usize::MAX, usize::MAX / 8] {
        let text = format!("%%MatrixMarket matrix coordinate real general\n{rows} 1 0\n");
        let (line, message) = parse_error(read_matrix_market(text.as_bytes()));
        assert_eq!(line, 2, "{message}");
        assert!(message.contains(&rows.to_string()), "{message}");
    }
}
