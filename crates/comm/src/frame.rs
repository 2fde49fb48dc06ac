//! The wire codec of the socket transport: a length-prefixed binary
//! frame protocol plus the [`Wire`] serialization trait for every
//! payload type that can ride through a collective.
//!
//! **All raw socket I/O in `cagnet-comm` lives in this module** — the
//! rest of the transport layer (`proc.rs`, `transport.rs`) holds each
//! socket as a [`Conn`], which speaks only in [`Frame`]s. `Conn`
//! implements neither `Read` nor `Write`, so the compiler keeps partial
//! reads, header parsing, and allocation-size validation in exactly one
//! place.
//!
//! ## Frame format
//!
//! ```text
//! +--------+---------+------+----------+------------------+
//! | magic  | version | kind | body_len | body (body_len B)|
//! | 4 B    | 1 B     | 1 B  | 4 B LE   |                  |
//! +--------+---------+------+----------+------------------+
//! ```
//!
//! The header is validated **before** the body is allocated: bad magic,
//! unknown version/kind, or a length above [`MAX_FRAME`] is rejected
//! without reserving a byte — a truncated or corrupt header can never
//! drive an attacker-controlled allocation. [`decode`] treats a body the
//! same way: every element count and matrix dimension is checked
//! against the bytes left before capacity is reserved. Weight
//! checkpoints (`cagnet_core::checkpoint`) are a magic followed by
//! [`encode`] of the weight stack, so their loader inherits these checks.
//!
//! A `Deposit` body carries `{comm id, seq, rank, members, entry clock,
//! fingerprint, optional part table, payload}`. The fingerprint
//! (collective kind, root, dtype, shape) is the deposit's only
//! description of its collective: it piggybacks on the frame exactly as
//! it piggybacks on in-memory rendezvous deposits, and every receiver
//! verifies it, so a mismatched collective fails the same way over the
//! wire as in shared memory. A part table cuts the payload into
//! one byte range per member, tiling it in member order; the hub then
//! forwards each member only its own part (a row gather's served rows, a
//! request only the root reads, a reduce-scatter's rows of one member's
//! block). The hub forwards a deposit as a `Deposit` frame too: the same
//! head without a part table, then the receiver's part — or, unparted,
//! the whole payload — and never back to its sender.
//!
//! ## Copies
//!
//! Fixed-width runs (`u8`, `f64`, `usize`) are encoded and decoded in
//! bulk ([`Wire::put_run`] / [`Wire::take_run`]), a `Deposit` body is
//! built in one buffer ([`DepositMsg::encode`]), and its parser hands
//! back the payload's *byte range* in the received body instead of a
//! copy, which [`write_frame_parts`] can forward from where it lies.
//!
//! ## Determinism
//!
//! `f64` values cross the wire as `to_bits` (IEEE-754 bit patterns), so
//! entry clocks, matrix entries, and losses survive the round trip
//! bit-exactly — the foundation of the cross-backend bit-identity
//! guarantee.

use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};
use std::ops::Range;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::{Arc, OnceLock};
#[cfg(unix)]
use std::time::Duration;

use cagnet_check::fingerprint::{CollectiveKind, Fingerprint, Shape};
use cagnet_dense::Mat;
use cagnet_sparse::Csr;

use crate::cost::Cat;
use crate::lock::Lock;
use crate::trace::TraceEvent;

/// Frame header magic bytes (`CGNT`).
pub const MAGIC: [u8; 4] = *b"CGNT";
/// Wire protocol version (2: `Deposit` heads carry a part table; 3:
/// fingerprints drop the send/recv partner field; 4: a [`RowsPart`]
/// carries an index flag, and a reduce-scatter deposit is parted, one
/// [`RowsPart`] per member; 5: the hub forwards each `Deposit` at once,
/// `Wait` is a one-way notice, and the `Collect` kind is gone; 6: a
/// `Deposit` head always carries its fingerprint, and no separate kind
/// or dtype).
pub const VERSION: u8 = 6;
/// Maximum accepted frame body length (1 GiB). Validated before any
/// allocation happens.
pub const MAX_FRAME: u32 = 1 << 30;
/// Fixed header length in bytes: magic + version + kind + body length.
pub const HEADER_LEN: usize = 10;

/// A decoding or I/O failure at the frame layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/pipe error (includes EOF mid-frame).
    Io(std::io::Error),
    /// Header magic bytes did not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Declared body length exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Body failed structural validation while decoding.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversize(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME}-byte cap"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The role of a frame in the rendezvous protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → hub: identify `{rank, world size, run index}` right
    /// after connecting.
    Hello,
    /// Client → hub: one rank's deposit into a collective rendezvous.
    /// Hub → client: another member's deposit, forwarded as it arrived,
    /// carrying only the receiver's part of the payload.
    Deposit,
    /// Client → hub: a one-way notice that the rank waits on the
    /// rendezvous `{comm, seq}`, for the launcher's watchdog mirror. The
    /// hub never answers it.
    Wait,
    /// Client → hub: the rank's final `(result, timeline report)`.
    Result,
    /// Hub → client: the run cannot go on (peer death, abort, deadlock,
    /// a refused frame or `Hello`); the message names the failing rank
    /// where known.
    Error,
    /// Client → hub: the rank panicked; carries `{during, message}` so
    /// the launcher's first-panic record matches the thread backend.
    Panic,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Deposit => 2,
            FrameKind::Wait => 3,
            // 4 was the retired hub → client `Collect`.
            FrameKind::Result => 5,
            FrameKind::Error => 6,
            FrameKind::Panic => 7,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::Deposit,
            3 => FrameKind::Wait,
            5 => FrameKind::Result,
            6 => FrameKind::Error,
            7 => FrameKind::Panic,
            _ => return None,
        })
    }
}

/// One decoded frame: a kind tag plus its raw body bytes.
#[derive(Clone, Debug)]
pub struct Frame {
    /// What the frame means in the protocol.
    pub kind: FrameKind,
    /// The undecoded body; interpret with [`decode`] per kind.
    pub body: Vec<u8>,
}

/// Body parts shorter than this are copied behind the header into one
/// buffer and leave in a single write; longer ones are written from
/// where they lie.
const COALESCE_BELOW: usize = 8 << 10;

/// Write one frame (header + body) and flush.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> Result<(), FrameError> {
    write_frame_parts(w, kind, &[body])
}

/// Write one frame whose body is the concatenation of `parts`, and
/// flush. The summed length is checked against [`MAX_FRAME`] before a
/// byte is written, so a refused frame leaves the stream untouched.
pub fn write_frame_parts(
    w: &mut impl Write,
    kind: FrameKind,
    parts: &[&[u8]],
) -> Result<(), FrameError> {
    let total = parts
        .iter()
        .try_fold(0usize, |n, p| n.checked_add(p.len()))
        .and_then(|n| u32::try_from(n).ok())
        .ok_or(FrameError::Oversize(u32::MAX))?;
    if total > MAX_FRAME {
        return Err(FrameError::Oversize(total));
    }
    let mut small = Vec::with_capacity(HEADER_LEN + (total as usize).min(COALESCE_BELOW));
    small.extend_from_slice(&MAGIC);
    small.push(VERSION);
    small.push(kind.to_u8());
    small.extend_from_slice(&total.to_le_bytes());
    for part in parts {
        if part.len() < COALESCE_BELOW {
            small.extend_from_slice(part);
        } else {
            if !small.is_empty() {
                w.write_all(&small)?;
                small.clear();
            }
            w.write_all(part)?;
        }
    }
    if !small.is_empty() {
        w.write_all(&small)?;
    }
    w.flush()?;
    Ok(())
}

/// Read one frame. The header is fully validated — magic, version,
/// kind, and the body-length cap — **before** the body buffer is
/// allocated, so corrupt input cannot trigger an oversized allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let Some(kind) = FrameKind::from_u8(header[5]) else {
        return Err(FrameError::BadKind(header[5]));
    };
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Frame { kind, body })
}

/// One end of a socket-transport connection, which moves whole frames
/// only. It is wrapped around each `UnixStream` the moment it is
/// connected or accepted, and implements neither `Read` nor `Write`, so
/// no byte reaches the wire around [`read_frame`]'s header validation.
///
/// ```
/// use cagnet_comm::frame::{Conn, Frame, FrameError};
/// fn next(conn: &mut Conn) -> Result<Frame, FrameError> {
///     conn.read_frame()
/// }
/// ```
///
/// ```compile_fail
/// use cagnet_comm::frame::Conn;
/// fn raw(conn: &mut Conn, buf: &mut [u8]) -> std::io::Result<usize> {
///     std::io::Read::read(conn, buf)
/// }
/// ```
#[cfg(unix)]
#[derive(Debug)]
pub struct Conn(UnixStream);

#[cfg(unix)]
impl Conn {
    /// Wrap a freshly connected or accepted stream.
    pub(crate) fn new(stream: UnixStream) -> Conn {
        Conn(stream)
    }

    /// Read one frame ([`read_frame`]).
    pub fn read_frame(&mut self) -> Result<Frame, FrameError> {
        read_frame(&mut self.0)
    }

    /// Write one frame ([`write_frame`]).
    pub fn write_frame(&mut self, kind: FrameKind, body: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.0, kind, body)
    }

    /// Write one frame from the parts of its body ([`write_frame_parts`]).
    pub fn write_frame_parts(
        &mut self,
        kind: FrameKind,
        parts: &[&[u8]],
    ) -> Result<(), FrameError> {
        write_frame_parts(&mut self.0, kind, parts)
    }

    /// A second handle on the same connection, for a reader or writer
    /// thread of its own.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        self.0.try_clone().map(Conn)
    }

    /// Bound how long a read waits (`None`: forever) — the hub's limit
    /// on a fresh connection's `HELLO`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
}

/// Encode a [`Wire`] value into a fresh byte vector.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode a [`Wire`] value from `bytes`, requiring full consumption.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, FrameError> {
    let mut r = Reader::new(bytes);
    let v = T::take(&mut r)?;
    if r.remaining() != 0 {
        return Err(FrameError::Malformed("trailing bytes after value"));
    }
    Ok(v)
}

/// Bounds-checked cursor over a frame body.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed("body truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(le_u64(self.bytes(8)?))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// How many `T`s fit in as many bytes of memory as the body has
    /// left — the most a decoder may reserve on the word of a count.
    fn reservable<T>(&self) -> usize {
        self.remaining() / std::mem::size_of::<T>().max(1)
    }

    /// Consume a `u64` element count. Every [`Wire`] encoding is ≥ 1
    /// byte, so a valid count can never exceed the bytes left — reject
    /// it here, before anyone reserves capacity on its word.
    fn count(&mut self) -> Result<usize, FrameError> {
        let n = usize::take(self)?;
        if n > self.remaining() {
            return Err(FrameError::Malformed("element count exceeds body"));
        }
        Ok(n)
    }

    /// Consume a `u64` byte count and that many bytes, returning where
    /// in the buffer they lie — the zero-copy form of `Vec::<u8>::take`.
    fn counted_span(&mut self) -> Result<Range<usize>, FrameError> {
        let n = self.count()?;
        let start = self.pos;
        self.pos += n;
        Ok(start..self.pos)
    }
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

/// Append `xs` as 8-byte little-endian words: one `reserve`, then
/// block-wise conversion through a stack buffer so the inner loop is a
/// straight copy on little-endian hosts.
fn put_words<T: Copy>(xs: &[T], word: impl Fn(T) -> u64, out: &mut Vec<u8>) {
    const BLOCK: usize = 512;
    out.reserve(xs.len() * 8);
    let mut buf = [0u8; BLOCK * 8];
    for block in xs.chunks(BLOCK) {
        for (dst, &x) in buf.chunks_exact_mut(8).zip(block) {
            dst.copy_from_slice(&word(x).to_le_bytes());
        }
        out.extend_from_slice(&buf[..block.len() * 8]);
    }
}

/// The `n` 8-byte little-endian words at the reader's position. The
/// bytes are claimed before anything is allocated, so a count the body
/// cannot back fails as `body truncated`.
fn take_words<'a>(
    r: &mut Reader<'a>,
    n: usize,
) -> Result<impl ExactSizeIterator<Item = u64> + Clone + 'a, FrameError> {
    let nbytes = n
        .checked_mul(8)
        .ok_or(FrameError::Malformed("body truncated"))?;
    Ok(r.bytes(nbytes)?.chunks_exact(8).map(le_u64))
}

/// Wire serialization for collective payloads and protocol bodies.
///
/// Invariant relied on by the `Vec<T>` codec's pre-allocation guard:
/// **every encoding occupies at least one byte** (even `()` writes a
/// marker byte), so a declared element count can never exceed the
/// remaining body length.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError>;

    /// Append the encodings of `xs` back to back (no count prefix).
    /// Fixed-width types override this with a bulk copy; the bytes are
    /// those of element-wise [`Wire::put`] either way.
    fn put_run(xs: &[Self], out: &mut Vec<u8>) {
        for v in xs {
            v.put(out);
        }
    }

    /// Decode `n` values back to back. The caller has checked
    /// `n <= r.remaining()`. No implementation reserves more bytes than
    /// the body has left: this one caps its reservation, the overrides
    /// for fixed-width types claim their `n * width` bytes first.
    fn take_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        let mut out = Vec::with_capacity(n.min(r.reservable::<Self>()));
        for _ in 0..n {
            out.push(Self::take(r)?);
        }
        Ok(out)
    }
}

/// Append a `u64` element count and then the run — the encoding of a
/// `Vec<T>`, from a borrowed slice.
fn put_counted<T: Wire>(xs: &[T], out: &mut Vec<u8>) {
    (xs.len() as u64).put(out);
    T::put_run(xs, out);
}

impl Wire for () {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(0);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(()),
            _ => Err(FrameError::Malformed("unit marker")),
        }
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bool out of range")),
        }
    }
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.u8()
    }
    fn put_run(xs: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(xs);
    }
    fn take_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        Ok(r.bytes(n)?.to_vec())
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.u64()
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        usize::try_from(r.u64()?).map_err(|_| FrameError::Malformed("usize overflow"))
    }
    fn put_run(xs: &[Self], out: &mut Vec<u8>) {
        put_words(xs, |x| x as u64, out);
    }
    fn take_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        let words = take_words(r, n)?;
        // Range-check first (free where usize is 64 bits) so the
        // conversion below is infallible and allocates exactly once.
        if words.clone().any(|w| usize::try_from(w).is_err()) {
            return Err(FrameError::Malformed("usize overflow"));
        }
        Ok(words.map(|w| w as usize).collect())
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.f64()
    }
    fn put_run(xs: &[Self], out: &mut Vec<u8>) {
        put_words(xs, f64::to_bits, out);
    }
    fn take_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        Ok(take_words(r, n)?.map(f64::from_bits).collect())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = usize::take(r)?;
        if n > r.remaining() {
            return Err(FrameError::Malformed("string length exceeds body"));
        }
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("string not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            _ => Err(FrameError::Malformed("option tag out of range")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_counted(self, out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = r.count()?;
        T::take_run(r, n)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_ref().put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Arc::new(T::take(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((A::take(r)?, B::take(r)?, C::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
        self.3.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((A::take(r)?, B::take(r)?, C::take(r)?, D::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire, E: Wire> Wire for (A, B, C, D, E) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
        self.3.put(out);
        self.4.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((
            A::take(r)?,
            B::take(r)?,
            C::take(r)?,
            D::take(r)?,
            E::take(r)?,
        ))
    }
}

impl Wire for Mat {
    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(16 + 8 * self.len());
        self.rows().put(out);
        self.cols().put(out);
        f64::put_run(self.as_slice(), out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let rows = usize::take(r)?;
        let cols = usize::take(r)?;
        let n = rows
            .checked_mul(cols)
            .ok_or(FrameError::Malformed("matrix dims overflow"))?;
        let bytes = n
            .checked_mul(8)
            .ok_or(FrameError::Malformed("matrix dims overflow"))?;
        if bytes > r.remaining() {
            return Err(FrameError::Malformed("matrix data exceeds body"));
        }
        Ok(Mat::from_vec(rows, cols, f64::take_run(r, n)?))
    }
}

impl Wire for Csr {
    fn put(&self, out: &mut Vec<u8>) {
        self.rows().put(out);
        self.cols().put(out);
        put_counted(self.row_ptr(), out);
        put_counted(self.col_idx(), out);
        put_counted(self.vals(), out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let rows = usize::take(r)?;
        let cols = usize::take(r)?;
        let row_ptr = Vec::<usize>::take(r)?;
        let col_idx = Vec::<usize>::take(r)?;
        let vals = Vec::<f64>::take(r)?;
        let nnz = col_idx.len();
        if rows.checked_add(1) != Some(row_ptr.len())
            || nnz != vals.len()
            || row_ptr.last().copied() != Some(nnz)
        {
            return Err(FrameError::Malformed("inconsistent CSR arrays"));
        }
        // Everything `from_raw` asserts, as a typed error: the bytes
        // come from another process and must not be able to panic this
        // one.
        for w in row_ptr.windows(2) {
            if w[0] > w[1] || w[1] > nnz {
                return Err(FrameError::Malformed("CSR row_ptr not monotone within nnz"));
            }
            let row = &col_idx[w[0]..w[1]];
            if row.windows(2).any(|c| c[0] >= c[1]) {
                return Err(FrameError::Malformed(
                    "CSR columns not strictly increasing in a row",
                ));
            }
            if row.last().is_some_and(|&last| last >= cols) {
                return Err(FrameError::Malformed("CSR column index out of bounds"));
            }
        }
        Ok(Csr::from_raw(rows, cols, row_ptr, col_idx, vals))
    }
}

/// Wire precision of dense-matrix collective payloads (DESIGN.md §14).
///
/// Ranks always *compute* in `f64`; this selects how many bits each
/// value occupies while crossing a dense collective. [`Precision::F64`]
/// is the historical format and takes the exact pre-compression code
/// path — byte-for-byte identical frames. The narrow modes convert once
/// on the sending side and widen back to `f64` on receipt, so every
/// rank still holds identical `f64` replicas after a collective.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full 64-bit values: one value per 8-byte wire word (default).
    #[default]
    F64,
    /// IEEE-754 binary32: two values per wire word, β term halves.
    F32,
    /// Software bfloat16 (the high 16 bits of the binary32 encoding,
    /// round-to-nearest-even): four values per wire word.
    Bf16,
}

impl Precision {
    /// Parse a `--precision` flag value. Every rejection names the bad
    /// input and the accepted set, mirroring the other CLI enums.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "bf16" => Ok(Precision::Bf16),
            other => Err(format!(
                "unknown precision '{other}' (expected f64 | f32 | bf16)"
            )),
        }
    }

    /// The CLI spelling, the inverse of [`Precision::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }

    /// Bytes per value on the wire.
    pub fn bytes_per_value(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
            Precision::Bf16 => 2,
        }
    }

    /// Payload dtype recorded in collective fingerprints. Distinct per
    /// precision, so a precision-mismatched rank pair fails the
    /// fingerprint cross-check with a *named* dtype mismatch instead of
    /// a downcast panic.
    pub fn packed_dtype(self) -> &'static str {
        match self {
            Precision::F64 => "packed-f64",
            Precision::F32 => "packed-f32",
            Precision::Bf16 => "packed-bf16",
        }
    }

    /// Metering category for dense collectives at this precision.
    pub fn dense_cat(self) -> Cat {
        match self {
            Precision::F64 => Cat::DenseComm,
            Precision::F32 => Cat::DenseComm32,
            Precision::Bf16 => Cat::DenseComm16,
        }
    }

    /// The value a receiver holds after `x` crossed the wire at this
    /// precision: bit-identical to packing `x` and widening it again,
    /// which is how shared-memory receivers of a packed collective see
    /// the same rounding as socket receivers without any bytes.
    pub fn round_trip(self, x: f64) -> f64 {
        match self {
            Precision::F64 => x,
            Precision::F32 => f64::from(x as f32),
            Precision::Bf16 => bf16_to_f64(bf16_from_f32(x as f32)),
        }
    }
}

impl Wire for Precision {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Bf16 => 2,
        });
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => Precision::F64,
            1 => Precision::F32,
            2 => Precision::Bf16,
            _ => return Err(FrameError::Malformed("precision tag out of range")),
        })
    }
}

/// Round an `f32` to software bfloat16 (round-to-nearest-even), kept as
/// the high 16 bits of the binary32 encoding. NaN stays NaN.
fn bf16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Force a quiet-NaN mantissa bit so truncation can't yield inf.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Widen a software bfloat16 back to `f64` (exact).
fn bf16_to_f64(h: u16) -> f64 {
    f64::from(f32::from_bits(u32::from(h) << 16))
}

/// Append `xs` rounded to `precision`, `bytes_per_value` little-endian
/// bytes each — the value encoding of [`PackedMat`] and [`RowsPart`].
fn put_packed(xs: &[f64], precision: Precision, out: &mut Vec<u8>) {
    match precision {
        Precision::F64 => f64::put_run(xs, out),
        Precision::F32 => {
            for &x in xs {
                out.extend_from_slice(&(x as f32).to_bits().to_le_bytes());
            }
        }
        Precision::Bf16 => {
            for &x in xs {
                out.extend_from_slice(&bf16_from_f32(x as f32).to_le_bytes());
            }
        }
    }
}

/// Write the `rows × cols` values packed in `bytes` over `out` as `f64`,
/// reusing its allocation. `bytes` holds exactly `rows · cols` values.
fn widen_packed(bytes: &[u8], precision: Precision, rows: usize, cols: usize, out: &mut Mat) {
    match precision {
        Precision::F64 => out.assign(
            rows,
            cols,
            bytes.chunks_exact(8).map(|c| f64::from_bits(le_u64(c))),
        ),
        Precision::F32 => out.assign(
            rows,
            cols,
            bytes
                .chunks_exact(4)
                .map(|c| f64::from(f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))),
        ),
        Precision::Bf16 => out.assign(
            rows,
            cols,
            bytes
                .chunks_exact(2)
                .map(|c| bf16_to_f64(u16::from_le_bytes([c[0], c[1]]))),
        ),
    }
}

/// A dense matrix converted to a narrower wire precision — the payload
/// type dense collectives deposit when compression is on. The sender
/// rounds exactly once ([`PackedMat::pack`]); [`PackedMat::widen`] is
/// exact, so every receiving rank reconstructs identical `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedMat {
    precision: Precision,
    rows: usize,
    cols: usize,
    /// Little-endian packed values, `bytes_per_value` each, row-major.
    bytes: Vec<u8>,
}

impl PackedMat {
    /// Convert `m` for the wire, rounding each value to `precision`.
    pub fn pack(m: &Mat, precision: Precision) -> Self {
        let mut bytes = Vec::with_capacity(m.len() * precision.bytes_per_value());
        put_packed(m.as_slice(), precision, &mut bytes);
        PackedMat {
            precision,
            rows: m.rows(),
            cols: m.cols(),
            bytes,
        }
    }

    /// Reconstruct the `f64` matrix. Widening is exact — every `f32`
    /// and bf16 value is representable in `f64` — so all receivers of
    /// the same packed payload hold bit-identical replicas.
    pub fn widen(&self) -> Mat {
        let mut out = Mat::zeros(0, 0);
        widen_packed(&self.bytes, self.precision, self.rows, self.cols, &mut out);
        out
    }

    /// Wire precision of this payload.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Logical matrix shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// 8-byte wire words this payload occupies: packed values share
    /// words, so f32 halves — and bf16 quarters — the `f64` count.
    pub fn wire_words(&self) -> u64 {
        (self.bytes.len() as u64).div_ceil(8)
    }
}

impl Wire for PackedMat {
    fn put(&self, out: &mut Vec<u8>) {
        self.precision.put(out);
        self.rows.put(out);
        self.cols.put(out);
        out.extend_from_slice(&self.bytes);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let precision = Precision::take(r)?;
        let rows = usize::take(r)?;
        let cols = usize::take(r)?;
        let n = rows
            .checked_mul(cols)
            .ok_or(FrameError::Malformed("packed matrix dims overflow"))?;
        let nbytes = n
            .checked_mul(precision.bytes_per_value())
            .ok_or(FrameError::Malformed("packed matrix dims overflow"))?;
        if nbytes > r.remaining() {
            return Err(FrameError::Malformed("packed matrix data exceeds body"));
        }
        let bytes = r.bytes(nbytes)?.to_vec();
        Ok(PackedMat {
            precision,
            rows,
            cols,
            bytes,
        })
    }
}

/// One member's part of a parted row collective (DESIGN.md §9): the
/// shape of the block the rows belong to, then `rows` of its rows, back
/// to back, at the wire precision — optionally preceded by their row
/// indices within the block.
///
/// ```text
/// precision (1 B) | block rows | block cols | rows | indexed (1 B)
///   | rows indices (8 B each, when indexed) | rows · cols values
/// ```
///
/// A row gather serves each receiver an unindexed part holding the rows
/// it requested, in request order, straight from the root's block. A
/// reduce-scatter sends each member a part of that member's row block:
/// unindexed, the whole block; indexed, only the rows the sender's
/// contribution can make nonzero, in ascending order. The receiver
/// [parses](RowsPart::parse) the head in place and widens the values
/// straight into its operand buffer ([`RowsPart::widen_into`]) or adds
/// them into its reduced block ([`RowsPart::add_into`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RowsPart {
    /// Wire precision of the values.
    pub precision: Precision,
    /// Dimensions of the block the rows were taken from.
    pub block: (usize, usize),
    /// How many rows the part carries.
    pub rows: usize,
    /// Where the row indices lie within the parsed bytes, when indexed.
    pub index: Option<Range<usize>>,
    /// Where the values lie within the parsed bytes.
    pub values: Range<usize>,
}

impl RowsPart {
    /// Bytes before the indices (or, unindexed, the values).
    const HEAD_LEN: usize = 26;

    /// Encoded length of a part carrying `rows` rows of width `cols`,
    /// with their indices when `indexed`.
    pub(crate) fn encoded_len(
        rows: usize,
        cols: usize,
        precision: Precision,
        indexed: bool,
    ) -> usize {
        Self::HEAD_LEN + rows * (8 * usize::from(indexed) + cols * precision.bytes_per_value())
    }

    /// Append the unindexed part holding rows `rows` of `block`, in that
    /// order, rounded to `precision` — a row gather's served rows.
    pub fn put(out: &mut Vec<u8>, block: &Mat, rows: &[usize], precision: Precision) {
        Self::put_head(out, precision, block.shape(), rows.len(), None);
        for &r in rows {
            put_packed(block.row(r), precision, out);
        }
    }

    /// Append the part for the row block `block` of `src`, rounded to
    /// `precision`: with `index`, only those rows of the block (ascending
    /// offsets into it) and their indices; without, the whole block.
    pub fn put_block(
        out: &mut Vec<u8>,
        src: &Mat,
        block: Range<usize>,
        index: Option<&[usize]>,
        precision: Precision,
    ) {
        let (r0, cols) = (block.start, src.cols());
        let rows = index.map_or(block.len(), <[usize]>::len);
        Self::put_head(out, precision, (block.len(), cols), rows, index);
        match index {
            Some(index) => {
                for &r in index {
                    put_packed(src.row(r0 + r), precision, out);
                }
            }
            None => put_packed(&src.as_slice()[r0 * cols..block.end * cols], precision, out),
        }
    }

    fn put_head(
        out: &mut Vec<u8>,
        precision: Precision,
        block: (usize, usize),
        rows: usize,
        index: Option<&[usize]>,
    ) {
        precision.put(out);
        block.0.put(out);
        block.1.put(out);
        rows.put(out);
        index.is_some().put(out);
        if let Some(index) = index {
            usize::put_run(index, out);
        }
    }

    /// Parse a part's head, check that it holds no more rows than its
    /// block, that an index is ascending and inside the block, and that
    /// exactly the values follow; no value is read or copied.
    pub fn parse(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(bytes);
        let precision = Precision::take(&mut r)?;
        let block = (usize::take(&mut r)?, usize::take(&mut r)?);
        let rows = usize::take(&mut r)?;
        if rows > block.0 {
            return Err(FrameError::Malformed("part holds more rows than its block"));
        }
        let index = if bool::take(&mut r)? {
            let start = r.pos;
            let mut next = 0;
            for i in take_words(&mut r, rows)? {
                if i < next || i >= block.0 as u64 {
                    return Err(FrameError::Malformed(
                        "row index out of order or past the block",
                    ));
                }
                next = i + 1;
            }
            Some(start..r.pos)
        } else {
            None
        };
        let len = rows
            .checked_mul(block.1)
            .and_then(|n| n.checked_mul(precision.bytes_per_value()))
            .ok_or(FrameError::Malformed("served rows exceed body"))?;
        if len > r.remaining() {
            return Err(FrameError::Malformed("served rows exceed body"));
        }
        if len < r.remaining() {
            return Err(FrameError::Malformed("trailing bytes after value"));
        }
        Ok(RowsPart {
            precision,
            block,
            rows,
            index,
            values: r.pos..bytes.len(),
        })
    }

    /// Write the part's rows over `out` as a `rows × cols` `f64` matrix,
    /// reusing its allocation. `bytes` are the bytes this part was
    /// parsed from.
    pub fn widen_into(&self, bytes: &[u8], out: &mut Mat) {
        widen_packed(
            &bytes[self.values.clone()],
            self.precision,
            self.rows,
            self.block.1,
            out,
        );
    }

    /// Add the part's rows into `out`, the block they belong to — row
    /// `i` of the part into the block row its index names, or into row
    /// `i` when unindexed. `bytes` are the bytes this part was parsed
    /// from.
    ///
    /// # Panics
    /// When `out` is not the part's block shape.
    pub fn add_into(&self, bytes: &[u8], out: &mut Mat) {
        assert_eq!(out.shape(), self.block, "a part adds into its own block");
        let cols = self.block.1;
        let width = cols * self.precision.bytes_per_value();
        if cols == 0 {
            return;
        }
        let values = bytes[self.values.clone()].chunks_exact(width);
        let mut add = |row: usize, packed: &[u8]| match self.precision {
            Precision::F64 => {
                add_widened(out.row_mut(row), packed, 8, |c| f64::from_bits(le_u64(c)))
            }
            Precision::F32 => add_widened(out.row_mut(row), packed, 4, |c| {
                f64::from(f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            }),
            Precision::Bf16 => add_widened(out.row_mut(row), packed, 2, |c| {
                bf16_to_f64(u16::from_le_bytes([c[0], c[1]]))
            }),
        };
        match &self.index {
            Some(index) => bytes[index.clone()]
                .chunks_exact(8)
                .zip(values)
                .for_each(|(i, packed)| add(le_u64(i) as usize, packed)),
            None => values
                .enumerate()
                .for_each(|(row, packed)| add(row, packed)),
        }
    }
}

/// `dst[j] += widen(packed value j)`, the values `width` bytes each.
fn add_widened(dst: &mut [f64], packed: &[u8], width: usize, widen: impl Fn(&[u8]) -> f64) {
    for (d, c) in dst.iter_mut().zip(packed.chunks_exact(width)) {
        *d += widen(c);
    }
}

impl Wire for CollectiveKind {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            CollectiveKind::Barrier => 0,
            CollectiveKind::Bcast => 1,
            CollectiveKind::Allgather => 2,
            CollectiveKind::AllreduceMat => 3,
            CollectiveKind::AllreduceScalar => 4,
            CollectiveKind::ReduceScatterRows => 5,
            CollectiveKind::GatherRows => 10,
            CollectiveKind::Split => 11,
            // Tag 6 named the retired all-to-all; 7, 8 and 9 the rooted
            // gather, rooted scatter and paired point-to-point exchange;
            // 12, 13, 14 and 16 the retired split-phase twins of bcast,
            // gather_rows, allreduce_mat and the refresh gather. They
            // decode as out of range.
            CollectiveKind::GatherRowsRefresh => 15,
        };
        out.push(tag);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => CollectiveKind::Barrier,
            1 => CollectiveKind::Bcast,
            2 => CollectiveKind::Allgather,
            3 => CollectiveKind::AllreduceMat,
            4 => CollectiveKind::AllreduceScalar,
            5 => CollectiveKind::ReduceScatterRows,
            10 => CollectiveKind::GatherRows,
            11 => CollectiveKind::Split,
            15 => CollectiveKind::GatherRowsRefresh,
            _ => return Err(FrameError::Malformed("collective kind out of range")),
        })
    }
}

impl Wire for Shape {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Shape::Unknown => out.push(0),
            Shape::Words(w) => {
                out.push(1);
                w.put(out);
            }
            Shape::Dims(r, c) => {
                out.push(2);
                r.put(out);
                c.put(out);
            } // Tag 3 was the retired all-to-all's part count; it decodes
              // as out of range.
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => Shape::Unknown,
            1 => Shape::Words(u64::take(r)?),
            2 => Shape::Dims(usize::take(r)?, usize::take(r)?),
            _ => return Err(FrameError::Malformed("shape tag out of range")),
        })
    }
}

impl Wire for Fingerprint {
    fn put(&self, out: &mut Vec<u8>) {
        self.kind.put(out);
        self.root.put(out);
        self.dtype.to_string().put(out);
        self.shape.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Fingerprint {
            kind: CollectiveKind::take(r)?,
            root: <Option<usize> as Wire>::take(r)?,
            dtype: intern(String::take(r)?),
            shape: Shape::take(r)?,
        })
    }
}

impl Wire for Cat {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let idx = r.u8()? as usize;
        crate::cost::ALL_CATS
            .get(idx)
            .copied()
            .ok_or(FrameError::Malformed("category out of range"))
    }
}

impl Wire for TraceEvent {
    fn put(&self, out: &mut Vec<u8>) {
        self.cat.put(out);
        // Names are &'static str; almost all are the category label or
        // one of the two fixed wait/overlap markers, so a tag byte
        // avoids shipping strings for the common cases.
        if self.name == self.cat.label() {
            out.push(0);
        } else if self.name == "wait" {
            out.push(1);
        } else if self.name == "ovlp" {
            out.push(2);
        } else {
            out.push(3);
            self.name.to_string().put(out);
        }
        self.start.put(out);
        self.end.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let cat = Cat::take(r)?;
        let name: &'static str = match r.u8()? {
            0 => cat.label(),
            1 => "wait",
            2 => "ovlp",
            3 => intern(String::take(r)?),
            _ => return Err(FrameError::Malformed("trace name tag out of range")),
        };
        Ok(TraceEvent {
            name,
            cat,
            start: f64::take(r)?,
            end: f64::take(r)?,
        })
    }
}

/// Intern a decoded string as `&'static str`. The set of distinct
/// strings crossing the wire (dtype names, trace labels) is small and
/// fixed by the program text, so the leaked total is bounded.
fn intern(s: String) -> &'static str {
    static SET: OnceLock<Lock<HashSet<&'static str>>> = OnceLock::new();
    let set = SET.get_or_init(|| Lock::new("frame.intern", HashSet::new()));
    set.with(|set| {
        if let Some(&existing) = set.get(s.as_str()) {
            return existing;
        }
        let leaked: &'static str = Box::leak(s.into_boxed_str());
        set.insert(leaked);
        leaked
    })
}

// ---------------------------------------------------------------------
// Protocol message bodies.
// ---------------------------------------------------------------------

/// `Hello` body: who is connecting.
#[derive(Clone, Debug, PartialEq)]
pub struct HelloMsg {
    /// World rank of the connecting client.
    pub rank: usize,
    /// Expected world size (cross-checked by the hub).
    pub world: usize,
    /// Index of the cluster run this connection serves.
    pub run: u64,
}

impl Wire for HelloMsg {
    fn put(&self, out: &mut Vec<u8>) {
        self.rank.put(out);
        self.world.put(out);
        self.run.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(HelloMsg {
            rank: usize::take(r)?,
            world: usize::take(r)?,
            run: u64::take(r)?,
        })
    }
}

impl Wire for Range<usize> {
    fn put(&self, out: &mut Vec<u8>) {
        self.start.put(out);
        self.end.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(usize::take(r)?..usize::take(r)?)
    }
}

/// `Deposit` body head: one rank's contribution to a rendezvous — the
/// wire twin of the in-memory deposit tuple, its fingerprint the one
/// description of the collective. On the wire the head is followed by a
/// `u64` byte count and the [`Wire`]-encoded payload, which runs to the
/// end of the body.
#[derive(Clone, Debug, PartialEq)]
pub struct DepositMsg {
    /// Communicator id.
    pub comm: u64,
    /// Per-communicator collective sequence number.
    pub seq: u64,
    /// Depositor's index within the communicator.
    pub my_idx: usize,
    /// World ranks of all communicator members, ascending.
    pub members: Vec<usize>,
    /// Depositor's modeled entry clock (bit-exact via `to_bits`).
    pub entry: f64,
    /// The collective the rank claims to be entering.
    pub fp: Fingerprint,
    /// Per-member parts of the payload, as byte ranges relative to its
    /// start that tile it in member order: member `i` is forwarded only
    /// part `i`. `None` forwards the whole payload to every member.
    pub parts: Option<Vec<Range<usize>>>,
}

impl DepositMsg {
    /// Build the whole `Deposit` body in one buffer: the head, an
    /// 8-byte length slot, then whatever `payload` appends — so the
    /// payload is encoded once, straight into the frame body.
    pub fn encode(&self, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = self.head(0);
        let slot = out.len() - 8;
        payload(&mut out);
        let len = (out.len() - slot - 8) as u64;
        out[slot..slot + 8].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// The body up to the payload of a deposit whose payload is
    /// `payload_len` bytes: the head and the length.
    pub(crate) fn head(&self, payload_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.comm.put(&mut out);
        self.seq.put(&mut out);
        self.my_idx.put(&mut out);
        self.members.put(&mut out);
        self.entry.put(&mut out);
        self.fp.put(&mut out);
        self.parts.put(&mut out);
        payload_len.put(&mut out);
        out
    }

    /// Parse a `Deposit` body into its head and the byte range of the
    /// payload within `body`; no payload byte is read or copied. A part
    /// table must hold one range per member, tiling the payload in
    /// member order.
    pub fn parse(body: &[u8]) -> Result<(Self, Range<usize>), FrameError> {
        let mut r = Reader::new(body);
        let head = DepositMsg {
            comm: u64::take(&mut r)?,
            seq: u64::take(&mut r)?,
            my_idx: usize::take(&mut r)?,
            members: Vec::<usize>::take(&mut r)?,
            entry: f64::take(&mut r)?,
            fp: Fingerprint::take(&mut r)?,
            parts: <Option<Vec<Range<usize>>> as Wire>::take(&mut r)?,
        };
        let payload = r.counted_span()?;
        if r.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after value"));
        }
        if let Some(parts) = &head.parts {
            check_tiling(parts, head.members.len(), payload.len())?;
        }
        Ok((head, payload))
    }
}

/// Check that `parts` holds one range per member and that the ranges
/// tile `0..len` in order — no member is forwarded bytes outside the
/// payload, or bytes another member is also forwarded.
fn check_tiling(parts: &[Range<usize>], members: usize, len: usize) -> Result<(), FrameError> {
    if parts.len() != members {
        return Err(FrameError::Malformed(
            "part table length differs from member count",
        ));
    }
    let mut at = 0;
    for part in parts {
        if part.start < at || part.end < part.start {
            return Err(FrameError::Malformed("part ranges overlap"));
        }
        if part.start > at {
            return Err(FrameError::Malformed("part ranges leave a gap"));
        }
        if part.end > len {
            return Err(FrameError::Malformed("part range runs past the payload"));
        }
        at = part.end;
    }
    if at != len {
        return Err(FrameError::Malformed("part ranges leave a gap"));
    }
    Ok(())
}

/// `Wait` body: the rank waits on the rendezvous `{comm, seq}`.
#[derive(Clone, Debug)]
pub struct WaitMsg {
    /// Communicator id.
    pub comm: u64,
    /// Collective sequence number being awaited.
    pub seq: u64,
    /// Collective kind (for the hub's wait-for-graph mirror).
    pub kind: CollectiveKind,
    /// Waiter's index within the communicator.
    pub my_idx: usize,
    /// World ranks of all communicator members, ascending.
    pub members: Vec<usize>,
}

impl Wire for WaitMsg {
    fn put(&self, out: &mut Vec<u8>) {
        self.comm.put(out);
        self.seq.put(out);
        self.kind.put(out);
        self.my_idx.put(out);
        self.members.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(WaitMsg {
            comm: u64::take(r)?,
            seq: u64::take(r)?,
            kind: CollectiveKind::take(r)?,
            my_idx: usize::take(r)?,
            members: Vec::<usize>::take(r)?,
        })
    }
}

/// `Error` body: why the run cannot go on.
#[derive(Clone, Debug)]
pub struct ErrorMsg {
    /// Human-readable failure, naming the responsible rank when known.
    pub message: String,
}

impl Wire for ErrorMsg {
    fn put(&self, out: &mut Vec<u8>) {
        self.message.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(ErrorMsg {
            message: String::take(r)?,
        })
    }
}

/// `Panic` body: a worker rank's panic, mirrored into the launcher's
/// first-panic record.
#[derive(Clone, Debug)]
pub struct PanicMsg {
    /// The collective (or phase) the rank was in when it panicked.
    pub during: String,
    /// The original panic message.
    pub message: String,
}

impl Wire for PanicMsg {
    fn put(&self, out: &mut Vec<u8>) {
        self.during.put(out);
        self.message.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(PanicMsg {
            during: String::take(r)?,
            message: String::take(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert!(!bytes.is_empty(), "every encoding must occupy >= 1 byte");
        let back: T = decode(&bytes).expect("roundtrip decode");
        assert_eq!(back, v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(42u8);
        roundtrip(u64::MAX);
        roundtrip(12345usize);
        roundtrip(-1.5e-300f64);
        roundtrip(String::from("héllo"));
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1.0f64, -2.0, f64::MIN_POSITIVE]);
        roundtrip((1u64, 2.0f64, String::from("x")));
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let bytes = encode(&v);
            let back: f64 = decode(&bytes).expect("decode");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn mat_roundtrips() {
        let m = Mat::from_fn(3, 4, |i, j| (i * 10 + j) as f64 / 7.0);
        let bytes = encode(&m);
        let back: Mat = decode(&bytes).expect("decode");
        assert_eq!(back.shape(), m.shape());
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn csr_roundtrips() {
        let c = Csr::from_raw(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 2.5, -3.0]);
        let bytes = encode(&c);
        let back: Csr = decode(&bytes).expect("decode");
        assert_eq!(back.rows(), 3);
        assert_eq!(back.nnz(), 3);
        assert_eq!(back.vals(), c.vals());
        assert_eq!(back.col_idx(), c.col_idx());
    }

    #[test]
    fn fingerprint_roundtrips() {
        let fp = Fingerprint {
            kind: CollectiveKind::GatherRows,
            root: Some(3),
            dtype: "cagnet_dense::matrix::Mat",
            shape: Shape::Dims(8, 16),
        };
        let bytes = encode(&fp);
        let back: Fingerprint = decode(&bytes).expect("decode");
        assert_eq!(back, fp);
    }

    #[test]
    fn trace_event_roundtrips() {
        for ev in [
            TraceEvent {
                name: "spmm",
                cat: Cat::Spmm,
                start: 0.25,
                end: 0.5,
            },
            TraceEvent {
                name: "wait",
                cat: Cat::Idle,
                start: 1.0,
                end: 2.0,
            },
            TraceEvent {
                name: "ovlp",
                cat: Cat::Overlapped,
                start: 0.0,
                end: 0.125,
            },
        ] {
            let bytes = encode(&ev);
            let back: TraceEvent = decode(&bytes).expect("decode");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn frame_roundtrips_through_a_stream() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, FrameKind::Deposit, b"hello").expect("write");
        write_frame(&mut buf, FrameKind::Wait, b"").expect("write");
        let mut cursor = &buf[..];
        let f1 = read_frame(&mut cursor).expect("read 1");
        assert_eq!(f1.kind, FrameKind::Deposit);
        assert_eq!(f1.body, b"hello");
        let f2 = read_frame(&mut cursor).expect("read 2");
        assert_eq!(f2.kind, FrameKind::Wait);
        assert!(f2.body.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, b"x").expect("write");
        buf[0] = b'X';
        let err = read_frame(&mut &buf[..]).expect_err("must reject");
        assert!(matches!(err, FrameError::BadMagic(_)), "{err}");
    }

    #[test]
    fn bad_version_and_kind_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, b"x").expect("write");
        let mut v = buf.clone();
        v[4] = 99;
        assert!(matches!(
            read_frame(&mut &v[..]).expect_err("version"),
            FrameError::BadVersion(99)
        ));
        let mut k = buf;
        k[5] = 200;
        assert!(matches!(
            read_frame(&mut &k[..]).expect_err("kind"),
            FrameError::BadKind(200)
        ));
    }

    #[test]
    fn retired_collective_kind_tags_are_out_of_range() {
        // 6 named the all-to-all; 7, 8 and 9 the rooted gather, the
        // rooted scatter and the paired point-to-point exchange; 12, 13,
        // 14 and 16 the split-phase twins of bcast, gather_rows,
        // allreduce_mat and the refresh gather; 17 was never assigned.
        for tag in [6u8, 7, 8, 9, 12, 13, 14, 16, 17] {
            match decode::<CollectiveKind>(&[tag]) {
                Err(FrameError::Malformed("collective kind out of range")) => {}
                other => panic!("tag {tag}: expected out of range, got {other:?}"),
            }
        }
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::AllreduceMat,
            CollectiveKind::GatherRows,
            CollectiveKind::GatherRowsRefresh,
        ] {
            assert_eq!(decode::<CollectiveKind>(&encode(&kind)).ok(), Some(kind));
        }
        // Shape tag 3 was the all-to-all's part count.
        let mut count = vec![3u8];
        4usize.put(&mut count);
        assert!(matches!(
            decode::<Shape>(&count),
            Err(FrameError::Malformed("shape tag out of range"))
        ));
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        // A header declaring a body near u32::MAX must be rejected from
        // the 10 header bytes alone — no body allocation, no read.
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = 2; // Deposit
        header[6..10].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &header[..]).expect_err("must reject");
        assert!(matches!(err, FrameError::Oversize(_)), "{err}");
    }

    #[test]
    fn truncated_header_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, b"abc").expect("write");
        let cut = &buf[..HEADER_LEN - 3];
        let err = read_frame(&mut &cut[..]).expect_err("must reject");
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn truncated_body_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, b"abcdef").expect("write");
        let cut = &buf[..buf.len() - 2];
        let err = read_frame(&mut &cut[..]).expect_err("must reject");
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn hostile_vec_length_rejected_before_allocation() {
        // A Vec<f64> body claiming u64::MAX elements in a 16-byte body
        // must fail the remaining-bytes guard, not attempt a reserve.
        let mut body = Vec::new();
        u64::MAX.put(&mut body);
        body.extend_from_slice(&[0u8; 8]);
        let err = decode::<Vec<f64>>(&body).expect_err("must reject");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn hostile_mat_dims_rejected() {
        let mut body = Vec::new();
        usize::MAX.put(&mut body);
        2usize.put(&mut body);
        let err = decode::<Mat>(&body).expect_err("must reject");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    fn sample_deposit() -> DepositMsg {
        DepositMsg {
            comm: 1,
            seq: 7,
            my_idx: 2,
            members: vec![0, 1, 2, 3],
            entry: 0.125,
            fp: Fingerprint {
                kind: CollectiveKind::Bcast,
                root: Some(0),
                dtype: "f64",
                shape: Shape::Words(1),
            },
            parts: None,
        }
    }

    #[test]
    fn deposit_msg_roundtrips() {
        let msg = sample_deposit();
        let body = msg.encode(|out| out.extend_from_slice(&[1, 2, 3]));
        let (back, payload) = DepositMsg::parse(&body).expect("parse");
        assert_eq!(back, msg);
        assert_eq!(&body[payload], &[1, 2, 3]);

        let parted = DepositMsg {
            parts: Some(vec![0..1, 1..1, 1..3, 3..3]),
            ..sample_deposit()
        };
        let body = parted.encode(|out| out.extend_from_slice(&[1, 2, 3]));
        let (back, payload) = DepositMsg::parse(&body).expect("parse parted");
        assert_eq!(back, parted);
        assert_eq!(&body[payload], &[1, 2, 3]);
    }

    #[test]
    fn part_tables_must_tile_the_payload_in_member_order() {
        let refused = |parts: Vec<Range<usize>>| {
            let msg = DepositMsg {
                parts: Some(parts),
                ..sample_deposit()
            };
            match DepositMsg::parse(&msg.encode(|out| out.extend_from_slice(&[0; 6]))) {
                Err(FrameError::Malformed(why)) => why,
                other => panic!("expected Malformed, got {other:?}"),
            }
        };
        // Four members, six payload bytes.
        assert_eq!(
            refused(vec![0..2, 2..4, 4..6]),
            "part table length differs from member count"
        );
        assert_eq!(
            refused(vec![0..2, 2..4, 4..6, 6..6, 6..6]),
            "part table length differs from member count"
        );
        assert_eq!(refused(vec![0..3, 2..4, 4..6, 6..6]), "part ranges overlap");
        let reversed = Range { start: 2, end: 1 };
        assert_eq!(
            refused(vec![0..2, reversed, 1..6, 6..6]),
            "part ranges overlap"
        );
        assert_eq!(
            refused(vec![0..2, 3..4, 4..6, 6..6]),
            "part ranges leave a gap"
        );
        assert_eq!(
            refused(vec![0..2, 2..4, 4..5, 5..5]),
            "part ranges leave a gap"
        );
        assert_eq!(
            refused(vec![0..2, 2..4, 4..6, 6..7]),
            "part range runs past the payload"
        );
    }

    #[test]
    fn rows_parts_carry_the_requested_rows_at_their_precision() {
        let block = Mat::from_fn(7, 3, |i, j| odd(i * 3 + j) + i as f64 / 3.0);
        let rows = [0, 4, 6];
        for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
            let mut bytes = vec![0xEE];
            RowsPart::put(&mut bytes, &block, &rows, precision);
            let part = &bytes[1..];
            assert_eq!(part.len(), RowsPart::encoded_len(3, 3, precision, false));
            let head = RowsPart::parse(part).expect("parse");
            assert_eq!(
                (head.precision, head.block, head.rows),
                (precision, (7, 3), 3)
            );
            let mut out = Mat::filled(9, 9, 1.0);
            head.widen_into(part, &mut out);
            // Bit-identical to packing the whole block, widening it and
            // selecting the rows — and to the shared-memory round trip.
            let expect = PackedMat::pack(&block, precision)
                .widen()
                .select_rows(&rows);
            let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(out.shape(), (3, 3));
            assert_eq!(bits(&out), bits(&expect), "{precision:?}");
            let shared = block.select_rows(&rows).map(|x| precision.round_trip(x));
            assert_eq!(bits(&shared), bits(&expect), "{precision:?}");
        }
        // Zero rows, and zero columns.
        for (m, rows) in [(Mat::zeros(4, 2), vec![]), (Mat::zeros(4, 0), vec![1, 3])] {
            let mut part = Vec::new();
            RowsPart::put(&mut part, &m, &rows, Precision::F64);
            let head = RowsPart::parse(&part).expect("parse");
            let mut out = Mat::filled(2, 2, 1.0);
            head.widen_into(&part, &mut out);
            assert_eq!(out.shape(), (rows.len(), m.cols()));
        }
    }

    #[test]
    fn block_parts_add_their_rows_into_the_block() {
        // Rows 3..8 of a 10 × 3 source: indexed, only block rows 0, 2
        // and 4; unindexed, the whole block.
        let src = Mat::from_fn(10, 3, |i, j| odd(i * 3 + j) + i as f64 / 3.0);
        let index = [0, 2, 4];
        for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
            for index in [Some(&index[..]), None] {
                let mut part = Vec::new();
                RowsPart::put_block(&mut part, &src, 3..8, index, precision);
                let rows = index.map_or(5, <[usize]>::len);
                let len = RowsPart::encoded_len(rows, 3, precision, index.is_some());
                assert_eq!(part.len(), len);
                let head = RowsPart::parse(&part).expect("parse");
                assert_eq!((head.block, head.rows), ((5, 3), rows));
                let mut out = Mat::filled(5, 3, 0.5);
                head.add_into(&part, &mut out);
                let mut expect = Mat::filled(5, 3, 0.5);
                for r in index.map_or((0..5).collect(), <[usize]>::to_vec) {
                    for (d, s) in expect.row_mut(r).iter_mut().zip(src.row(3 + r)) {
                        *d += precision.round_trip(*s);
                    }
                }
                let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expect), "{precision:?} {index:?}");
            }
        }
        // An index out of order, repeated or past the block, a flag that
        // is no bool, and more rows than the block are all refused.
        let refused = |index: &[usize], flag: u8, block_rows: usize| {
            let mut part = Vec::new();
            Precision::F64.put(&mut part);
            block_rows.put(&mut part);
            1usize.put(&mut part);
            index.len().put(&mut part);
            part.push(flag);
            if flag == 1 {
                usize::put_run(index, &mut part);
            }
            part.resize(part.len() + 8 * index.len(), 0);
            match RowsPart::parse(&part) {
                Err(FrameError::Malformed(why)) => why,
                other => panic!("{index:?}: expected Malformed, got {other:?}"),
            }
        };
        let bad_index = "row index out of order or past the block";
        assert_eq!(refused(&[2, 1], 1, 4), bad_index);
        assert_eq!(refused(&[1, 1], 1, 4), bad_index);
        assert_eq!(refused(&[0, 4], 1, 4), bad_index);
        assert_eq!(refused(&[0, 1], 2, 4), "bool out of range");
        assert_eq!(
            refused(&[0, 1, 2], 0, 2),
            "part holds more rows than its block"
        );
    }

    /// The element-wise encoders the bulk codecs replaced, kept as the
    /// reference their bytes are held to.
    mod reference {
        use super::super::*;

        pub fn vec<T: Wire>(xs: &[T]) -> Vec<u8> {
            let mut out = Vec::new();
            (xs.len() as u64).put(&mut out);
            for v in xs {
                v.put(&mut out);
            }
            out
        }

        pub fn mat(m: &Mat) -> Vec<u8> {
            let mut out = Vec::new();
            m.rows().put(&mut out);
            m.cols().put(&mut out);
            for x in m.as_slice() {
                x.put(&mut out);
            }
            out
        }

        pub fn csr(c: &Csr) -> Vec<u8> {
            let mut out = Vec::new();
            c.rows().put(&mut out);
            c.cols().put(&mut out);
            out.extend(vec(c.row_ptr()));
            out.extend(vec(c.col_idx()));
            out.extend(vec(c.vals()));
            out
        }

        pub fn packed(p: &PackedMat) -> Vec<u8> {
            let mut out = Vec::new();
            p.precision.put(&mut out);
            p.rows.put(&mut out);
            p.cols.put(&mut out);
            for b in &p.bytes {
                b.put(&mut out);
            }
            out
        }
    }

    /// Bit patterns a lossy or value-based copy would disturb: ±0,
    /// smallest and largest subnormal, quiet and signalling NaNs with
    /// payloads, infinities.
    const ODD_BITS: [u64; 9] = [
        0,
        0x8000_0000_0000_0000,
        1,
        0x000F_FFFF_FFFF_FFFF,
        0x7FF8_0000_0000_0001,
        0xFFF4_0000_DEAD_BEEF,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
        0x3FF0_0000_0000_0000,
    ];

    fn odd(i: usize) -> f64 {
        f64::from_bits(ODD_BITS[i % ODD_BITS.len()] ^ ((i / ODD_BITS.len()) as u64))
    }

    /// 0×n, n×0, 1×1, and shapes whose runs end before, on and after
    /// the bulk encoder's 512-word block boundaries.
    fn odd_mats() -> Vec<Mat> {
        [(0, 5), (5, 0), (1, 1), (3, 4), (1, 511), (2, 256), (37, 29)]
            .iter()
            .map(|&(r, c)| Mat::from_fn(r, c, |i, j| odd(i * c + j)))
            .collect()
    }

    #[test]
    fn bulk_mat_codec_matches_elementwise_reference() {
        for m in odd_mats() {
            let bytes = encode(&m);
            assert_eq!(bytes, reference::mat(&m), "{:?}", m.shape());
            let back: Mat = decode(&bytes).expect("decode");
            assert_eq!(back.shape(), m.shape());
            let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&m), "{:?}", m.shape());
        }
    }

    #[test]
    fn bulk_packed_codec_matches_elementwise_reference() {
        for m in odd_mats() {
            for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
                let p = PackedMat::pack(&m, precision);
                let bytes = encode(&p);
                assert_eq!(
                    bytes,
                    reference::packed(&p),
                    "{:?} {precision:?}",
                    m.shape()
                );
                assert_eq!(decode::<PackedMat>(&bytes).expect("decode"), p);
            }
        }
    }

    #[test]
    fn bulk_csr_codec_matches_elementwise_reference() {
        let wide = 600;
        let cases = [
            Csr::from_raw(0, 5, vec![0], vec![], vec![]),
            Csr::from_raw(5, 0, vec![0; 6], vec![], vec![]),
            Csr::from_raw(1, 1, vec![0, 1], vec![0], vec![odd(4)]),
            Csr::from_raw(
                3,
                3,
                vec![0, 2, 2, 3],
                vec![0, 2, 1],
                vec![odd(1), odd(2), odd(5)],
            ),
            Csr::from_raw(
                wide,
                wide,
                (0..=wide).collect(),
                (0..wide).map(|i| wide - 1 - i).collect(),
                (0..wide).map(odd).collect(),
            ),
        ];
        for c in &cases {
            let bytes = encode(c);
            assert_eq!(bytes, reference::csr(c), "{}x{}", c.rows(), c.cols());
            let back: Csr = decode(&bytes).expect("decode");
            assert_eq!((back.rows(), back.cols()), (c.rows(), c.cols()));
            assert_eq!(back.row_ptr(), c.row_ptr());
            assert_eq!(back.col_idx(), c.col_idx());
            let bits = |c: &Csr| c.vals().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(c));
        }
    }

    #[test]
    fn bulk_run_codecs_match_elementwise_reference() {
        let usizes: [Vec<usize>; 4] = [
            vec![],
            vec![0],
            vec![usize::MAX, 0, 1],
            (0..1500).map(|i| i * 7919).collect(),
        ];
        for v in &usizes {
            let bytes = encode(v);
            assert_eq!(bytes, reference::vec(v));
            assert_eq!(&decode::<Vec<usize>>(&bytes).expect("decode"), v);
        }
        let byte_runs: [Vec<u8>; 3] = [
            vec![],
            vec![0],
            (0..20_000).map(|i| (i % 251) as u8).collect(),
        ];
        for v in &byte_runs {
            let bytes = encode(v);
            assert_eq!(bytes, reference::vec(v));
            assert_eq!(&decode::<Vec<u8>>(&bytes).expect("decode"), v);
        }
        let floats: Vec<f64> = (0..1100).map(odd).collect();
        let bytes = encode(&floats);
        assert_eq!(bytes, reference::vec(&floats));
        let back: Vec<f64> = decode(&bytes).expect("decode");
        assert!(back
            .iter()
            .zip(&floats)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// A CSR body with the given arrays, valid or not.
    fn csr_body(
        rows: usize,
        cols: usize,
        row_ptr: &[usize],
        col_idx: &[usize],
        vals: &[f64],
    ) -> Vec<u8> {
        let mut body = Vec::new();
        rows.put(&mut body);
        cols.put(&mut body);
        body.extend(reference::vec(row_ptr));
        body.extend(reference::vec(col_idx));
        body.extend(reference::vec(vals));
        body
    }

    #[test]
    fn hostile_csr_structure_is_malformed_not_a_panic() {
        let bad = [
            // row_ptr runs past nnz before coming back (slice index panic).
            csr_body(2, 3, &[0, 2, 1], &[0], &[1.0]),
            // row_ptr decreases.
            csr_body(2, 3, &[1, 0, 1], &[0], &[1.0]),
            // Repeated and descending columns within a row.
            csr_body(1, 3, &[0, 2], &[1, 1], &[1.0, 2.0]),
            csr_body(1, 3, &[0, 2], &[2, 0], &[1.0, 2.0]),
            // Column index out of range.
            csr_body(1, 3, &[0, 2], &[0, 3], &[1.0, 2.0]),
            // `rows + 1` overflows.
            csr_body(usize::MAX, 3, &[0], &[], &[]),
            // Array lengths disagree.
            csr_body(1, 3, &[0, 1], &[0], &[]),
        ];
        for body in &bad {
            let err = decode::<Csr>(body).expect_err("must reject");
            assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        }
    }

    /// A writer that records the size of every `write` it is handed.
    struct WriteLog(Vec<usize>, Vec<u8>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_parts_write_the_same_bytes_as_one_body() {
        let small = vec![1u8; 100];
        let large = vec![2u8; COALESCE_BELOW + 1];
        let parts: [&[u8]; 5] = [&small, &[], &large, &small, &small];
        let mut log = WriteLog(Vec::new(), Vec::new());
        write_frame_parts(&mut log, FrameKind::Deposit, &parts).expect("write");
        let mut whole = Vec::new();
        write_frame(&mut whole, FrameKind::Deposit, &parts.concat()).expect("write");
        assert_eq!(log.1, whole);
        // Header and leading small parts leave together, the large part
        // is written from where it lies, the trailing small parts leave
        // together.
        assert_eq!(log.0, [HEADER_LEN + 100, large.len(), 200]);

        let mut log = WriteLog(Vec::new(), Vec::new());
        write_frame(&mut log, FrameKind::Wait, &small).expect("write");
        assert_eq!(log.0, [HEADER_LEN + 100], "a small frame is one write");
    }

    #[test]
    fn frame_parts_over_the_cap_are_refused_before_any_write() {
        // Never touched, so the zero pages cost no memory.
        let half = vec![0u8; (MAX_FRAME as usize >> 1) + 1];
        let mut log = WriteLog(Vec::new(), Vec::new());
        let err = write_frame_parts(&mut log, FrameKind::Deposit, &[&half, &half])
            .expect_err("must refuse");
        assert!(
            matches!(err, FrameError::Oversize(n) if n == MAX_FRAME + 2),
            "{err}"
        );
        assert!(log.0.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&42u64);
        bytes.push(0);
        assert!(decode::<u64>(&bytes).is_err());
    }
}
