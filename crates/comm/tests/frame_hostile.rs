//! Hostile `DEPOSIT` bodies — as a client sends them and as the hub
//! forwards them — and row parts — a gather's served rows, a
//! reduce-scatter's rows of one block:
//! every prefix truncation and every inflated count field of a valid
//! body must be rejected as `Malformed`, with the codec's established
//! messages, and without a single allocation larger than the input — the
//! parsers locate payloads by range, so no count can drive a
//! reservation.
//!
//! Allocation sizes are observed through a counting global allocator,
//! which is why these cases live in their own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cagnet_check::fingerprint::{CollectiveKind, Fingerprint, Shape};
use cagnet_comm::frame::{
    encode, read_frame, write_frame, DepositMsg, FrameError, FrameKind, Precision, RowsPart, Wire,
    HEADER_LEN, VERSION,
};
use cagnet_dense::Mat;

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// cell was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only a
// const-initialised, destructor-free thread-local `Cell` and so neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and report the largest allocation it made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The messages the element-wise codec gave for short or inconsistent
/// bodies, and the ones the part table and served rows add; the
/// range-based parsers must not invent others.
const KNOWN: [&str; 17] = [
    "body truncated",
    "element count exceeds body",
    "string length exceeds body",
    "trailing bytes after value",
    "usize overflow",
    "string not UTF-8",
    "option tag out of range",
    "collective kind out of range",
    "shape tag out of range",
    "part table length differs from member count",
    "part ranges overlap",
    "part ranges leave a gap",
    "part range runs past the payload",
    "served rows exceed body",
    "precision tag out of range",
    "part holds more rows than its block",
    "row index out of order or past the block",
];

fn assert_rejected<T: std::fmt::Debug>(
    what: &str,
    input: &[u8],
    parsed: Result<T, FrameError>,
    largest: usize,
) {
    match parsed {
        Err(FrameError::Malformed(msg)) => {
            assert!(KNOWN.contains(&msg), "{what}: unfamiliar message '{msg}'")
        }
        other => panic!("{what}: expected Malformed, got {other:?}"),
    }
    assert!(
        largest <= input.len(),
        "{what}: allocated {largest} bytes for a {}-byte input",
        input.len()
    );
}

/// An unrooted collective's fingerprint: a small root's zero high bytes
/// would let a members count inflated by one re-parse the shifted head.
fn fingerprint(kind: CollectiveKind) -> Fingerprint {
    Fingerprint {
        kind,
        root: None,
        dtype: "cagnet_dense::matrix::Mat",
        shape: Shape::Dims(8, 16),
    }
}

/// Values an attacker would try in a count field of a body with
/// `remaining` bytes after it.
fn inflations(honest: u64, remaining: u64) -> [u64; 7] {
    [
        honest + 1,
        remaining,
        remaining + 1,
        1 << 32,
        1 << 40,
        u64::MAX / 8 + 1,
        u64::MAX,
    ]
}

/// Every 8-byte little-endian word of `body` that holds one of `counts`
/// is a count field of this fixture (the fixtures below keep their
/// counts distinct from every other word).
fn count_fields(body: &[u8], counts: &[u64]) -> Vec<(usize, u64)> {
    (0..body.len().saturating_sub(7))
        .filter_map(|at| {
            let word = u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
            counts.contains(&word).then_some((at, word))
        })
        .collect()
}

fn check_all<T: std::fmt::Debug>(
    name: &str,
    body: &[u8],
    counts: &[u64],
    expected_fields: usize,
    parse: impl Fn(&[u8]) -> Result<T, FrameError>,
) {
    // Warm the dtype interner so its one-off insert is not counted.
    parse(body).expect("the fixture itself is valid");

    for cut in 0..body.len() {
        let input = &body[..cut];
        let (parsed, largest) = largest_allocation(|| parse(input));
        assert_rejected(&format!("{name} cut at {cut}"), input, parsed, largest);
    }

    let fields = count_fields(body, counts);
    assert_eq!(fields.len(), expected_fields, "{name}: count fields found");
    for (at, honest) in fields {
        let remaining = (body.len() - at - 8) as u64;
        for value in inflations(honest, remaining) {
            if value == honest {
                continue;
            }
            let mut input = body.to_vec();
            input[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let (parsed, largest) = largest_allocation(|| parse(&input));
            let what = format!("{name} count at {at} inflated {honest} -> {value}");
            assert_rejected(&what, &input, parsed, largest);
        }
    }
}

#[test]
fn hostile_deposit_bodies_are_malformed_and_allocate_nothing_large() {
    // Counts: 5 members, the fingerprint's 25-byte dtype, a 3001-byte
    // payload.
    let body = allreduce_deposit();
    check_all("deposit", &body, &[5, 25, 3001], 3, DepositMsg::parse);
}

/// A 3001-byte all-reduce deposit of member 2 of five.
fn allreduce_deposit() -> Vec<u8> {
    let head = DepositMsg {
        comm: 0xC0_0000_0001,
        seq: 0x5E_0000_0002,
        my_idx: 2,
        members: vec![10, 11, 12, 13, 14],
        entry: 0.125,
        fp: fingerprint(CollectiveKind::AllreduceMat),
        parts: None,
    };
    head.encode(|out| out.resize(out.len() + 3001, 0xAB))
}

#[test]
fn deposit_heads_with_a_bad_fingerprint_are_refused_before_the_payload() {
    // The fingerprint is the head's one description of its collective. A
    // head cut inside it, or naming a collective kind or shape tag no
    // version defines, is refused by name, and nothing as large as the
    // payload is allocated.
    let body = allreduce_deposit();
    DepositMsg::parse(&body).expect("the fixture itself is valid");
    let head_len = body.len() - 3001;
    let fp = fingerprint(CollectiveKind::AllreduceMat);
    let fp_bytes = encode(&fp);
    let at = body
        .windows(fp_bytes.len())
        .position(|w| w == fp_bytes)
        .expect("the head holds its fingerprint");
    let refused = |what: &str, input: &[u8]| {
        let (parsed, largest) = largest_allocation(|| DepositMsg::parse(input));
        assert!(largest < head_len, "{what}: allocated {largest} bytes");
        match parsed {
            Err(FrameError::Malformed(msg)) => msg,
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    };
    for cut in at..at + fp_bytes.len() {
        let what = format!("fingerprint cut after {} bytes", cut - at);
        let msg = refused(&what, &body[..cut]);
        assert!(KNOWN.contains(&msg), "{what}: unfamiliar message '{msg}'");
    }
    let shape_at = at + fp_bytes.len() - encode(&fp.shape).len();
    let bad_tags = [
        (
            at,
            "collective kind out of range",
            vec![6u8, 7, 8, 9, 12, 13, 14, 16, 0xFF],
        ),
        (shape_at, "shape tag out of range", vec![3, 4, 0xFF]),
    ];
    for (tag_at, expected, tags) in bad_tags {
        for tag in tags {
            let mut input = body.clone();
            input[tag_at] = tag;
            let what = format!("tag {tag} at head byte {tag_at}");
            assert_eq!(refused(&what, &input), expected, "{what}");
        }
    }
}

#[test]
fn hostile_part_tables_are_malformed_and_allocate_nothing_large() {
    // The deposit above, parted: five members' parts tile the 3001-byte
    // payload. Counts: 5 members and 5 parts, the fingerprint's dtype,
    // the payload length, and every part boundary (1000 four times, 2000
    // twice, 3001 three times more) — moving any one breaks the tiling.
    let head = DepositMsg {
        comm: 0xC0_0000_0001,
        seq: 0x5E_0000_0002,
        my_idx: 2,
        members: vec![10, 11, 12, 13, 14],
        entry: 0.125,
        fp: fingerprint(CollectiveKind::ReduceScatterRows),
        parts: Some(vec![
            0..1000,
            1000..1000,
            1000..2000,
            2000..3001,
            3001..3001,
        ]),
    };
    let body = head.encode(|out| out.resize(out.len() + 3001, 0xAB));
    check_all(
        "parted deposit",
        &body,
        &[5, 25, 3001, 1000, 2000],
        13,
        DepositMsg::parse,
    );
}

#[test]
fn hostile_served_rows_are_malformed_and_allocate_nothing_large() {
    // Eleven rows of a 13-column block, at each wire precision. Counts:
    // the row count and the width; the block's row count is a shape,
    // not a count, and cannot be told wrong from the part alone.
    let block = Mat::from_fn(0xB10C, 13, |i, j| 0.25 + (i * 13 + j) as f64);
    let rows: Vec<usize> = (0..11).map(|i| 17 + 3 * i).collect();
    for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
        let mut part = Vec::new();
        RowsPart::put(&mut part, &block, &rows, precision);
        let name = format!("served {} rows", precision.name());
        check_all(&name, &part, &[11, 13], 2, RowsPart::parse);

        // What parses widens to exactly the requested rows.
        let head = RowsPart::parse(&part).expect("valid part");
        let mut out = Mat::zeros(0, 0);
        head.widen_into(&part, &mut out);
        let expect = block.select_rows(&rows).map(|x| precision.round_trip(x));
        assert_eq!(out, expect, "{name}");
    }
}

#[test]
fn hostile_reduced_rows_are_malformed_and_allocate_nothing_large() {
    // Eleven indexed rows of an 8192 × 13 block of a taller source, at
    // each wire precision. Counts: the row count and the width; the
    // indices are checked against the block, not counted.
    let src = Mat::from_fn(0xB10C, 13, |i, j| 0.25 + (i * 13 + j) as f64);
    let index: Vec<usize> = (0..11).map(|i| 17 + 3 * i).collect();
    for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
        let mut part = Vec::new();
        RowsPart::put_block(&mut part, &src, 0x100..0x2100, Some(&index), precision);
        let name = format!("reduced {} rows", precision.name());
        check_all(&name, &part, &[11, 13], 2, RowsPart::parse);

        // What parses adds exactly the indexed rows into the block.
        let head = RowsPart::parse(&part).expect("valid part");
        let mut out = Mat::zeros(0x2000, 13);
        head.add_into(&part, &mut out);
        let mut expect = Mat::zeros(0x2000, 13);
        for &r in &index {
            for (d, s) in expect.row_mut(r).iter_mut().zip(src.row(0x100 + r)) {
                *d = precision.round_trip(*s);
            }
        }
        assert_eq!(out, expect, "{name}");
    }
}

#[test]
fn frames_and_parts_of_the_previous_layout_are_refused() {
    // Version 3, 4 and 5 headers: refused before the body is read. A
    // version-5 `Deposit` head carried a kind and a dtype of its own
    // and an optional fingerprint.
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Hello, b"x").expect("write");
    for old in [3, 4, 5] {
        frame[4] = old;
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(FrameError::BadVersion(v)) if v == old
        ));
    }
    // Kind 4 was the retired hub → client `COLLECT`: refused from the
    // header alone, at the current version.
    frame[4] = VERSION;
    frame[5] = 4;
    assert!(matches!(
        read_frame(&mut &frame[..HEADER_LEN]),
        Err(FrameError::BadKind(4))
    ));
    // A version-3 row part had no index flag: the first value byte is
    // read as the flag, and the values then never fit.
    for first in [0u8, 1, 0x40] {
        let mut part = Vec::new();
        Precision::F64.put(&mut part);
        for word in [9usize, 2, 3] {
            word.put(&mut part);
        }
        part.push(first);
        part.resize(part.len() + 3 * 2 * 8 - 1, 0x3F);
        assert!(
            matches!(RowsPart::parse(&part), Err(FrameError::Malformed(_))),
            "a version-3 part starting {first:#x} must not parse"
        );
    }
}

#[test]
fn hostile_forwarded_deposit_bodies_are_malformed_and_allocate_nothing_large() {
    // What the hub forwards to member 2 of a reduce-scatter: the
    // sender's head without its part table, then only member 2's
    // 2000-byte part. Counts: 3 members, the fingerprint's 25-byte dtype, the
    // 2000-byte part.
    let forwarded = DepositMsg {
        comm: 0xC0_0000_0001,
        seq: 0x5E_0000_0002,
        my_idx: 0,
        members: vec![40, 41, 42],
        entry: 0.25,
        fp: fingerprint(CollectiveKind::ReduceScatterRows),
        parts: None,
    };
    let body = forwarded.encode(|out| out.resize(out.len() + 2000, 0xCD));
    check_all(
        "forwarded deposit",
        &body,
        &[3, 25, 2000],
        3,
        DepositMsg::parse,
    );
    // A barrier's forwarded unit: the shortest payload there is.
    let unit = DepositMsg {
        my_idx: 1,
        fp: fingerprint(CollectiveKind::Barrier),
        ..forwarded
    };
    let body = unit.encode(|out| ().put(out));
    check_all("forwarded unit", &body, &[3, 25], 2, DepositMsg::parse);
}
