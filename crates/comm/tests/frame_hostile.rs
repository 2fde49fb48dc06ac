//! Hostile `DEPOSIT` and `COLLECT` bodies and served row-gather parts:
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
use cagnet_comm::frame::{CollectMsg, DepositMsg, FrameError, Precision, RowsPart};
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
const KNOWN: [&str; 15] = [
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

fn fingerprint() -> Option<Fingerprint> {
    Some(Fingerprint {
        kind: CollectiveKind::Bcast,
        root: Some(1),
        partner: None,
        dtype: "cagnet_dense::matrix::Mat",
        shape: Shape::Dims(8, 16),
    })
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
    // Counts: 5 members, a 6-byte dtype, the fingerprint's 25-byte
    // dtype, a 3001-byte payload.
    let head = DepositMsg {
        comm: 0xC0_0000_0001,
        seq: 0x5E_0000_0002,
        kind: CollectiveKind::Bcast,
        my_idx: 2,
        members: vec![10, 11, 12, 13, 14],
        entry: 0.125,
        dtype: "matrix".to_string(),
        fp: fingerprint(),
        parts: None,
    };
    let body = head.encode(|out| out.resize(out.len() + 3001, 0xAB));
    check_all("deposit", &body, &[5, 6, 25, 3001], 4, DepositMsg::parse);
}

#[test]
fn hostile_part_tables_are_malformed_and_allocate_nothing_large() {
    // The deposit above, parted: five members' parts tile the 3001-byte
    // payload. Counts: 5 members and 5 parts, the two dtypes, the
    // payload length, and every part boundary (1000 four times, 2000
    // twice, 3001 three times more) — moving any one breaks the tiling.
    let head = DepositMsg {
        comm: 0xC0_0000_0001,
        seq: 0x5E_0000_0002,
        kind: CollectiveKind::GatherRows,
        my_idx: 2,
        members: vec![10, 11, 12, 13, 14],
        entry: 0.125,
        dtype: "matrix".to_string(),
        fp: fingerprint(),
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
        &[5, 6, 25, 3001, 1000, 2000],
        14,
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
fn hostile_collect_bodies_are_malformed_and_allocate_nothing_large() {
    // Counts: 3 members, the 25-byte fingerprint dtype twice, payloads
    // of 2000, 0 (the receiver's own) and 1000 bytes. The zero-length
    // slot is inflated like the rest but cannot be told from padding by
    // value, so it is located by construction.
    let mut body = Vec::new();
    CollectMsg::put_head(&mut body, 0xC0_0000_0001, 0x5E_0000_0002, 3);
    CollectMsg::put_entry(&mut body, 0.25, &fingerprint(), 2000);
    body.resize(body.len() + 2000, 0xAB);
    CollectMsg::put_entry(&mut body, 0.5, &None, 0);
    let own_len_at = body.len() - 8;
    CollectMsg::put_entry(&mut body, 0.75, &fingerprint(), 1000);
    body.resize(body.len() + 1000, 0xCD);
    check_all("collect", &body, &[3, 25, 2000, 1000], 5, CollectMsg::parse);

    let remaining = (body.len() - own_len_at - 8) as u64;
    for value in inflations(0, remaining) {
        let mut input = body.clone();
        input[own_len_at..own_len_at + 8].copy_from_slice(&value.to_le_bytes());
        let (parsed, largest) = largest_allocation(|| CollectMsg::parse(&input));
        let what = format!("collect own-payload length inflated 0 -> {value}");
        assert_rejected(&what, &input, parsed, largest);
    }
}
