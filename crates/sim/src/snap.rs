//! `xpass-snap/v9` — a versioned, zero-dependency binary snapshot format.
//!
//! Snapshots make long runs durable: the engine can serialize its complete
//! state mid-run, and a later process can restore it and continue with
//! **byte-identical** results (`tests/fences.rs` and
//! `tests/snapshot_determinism.rs` are the fences). The format is hand-rolled in the same spirit as
//! [`crate::json`]: no external crates, fully deterministic output, and
//! errors that carry enough context to debug a bad file.
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       10    magic  b"xpass-snap"
//! 10      4     version (u32 LE, currently 9 — see [`VERSION`])
//! 14      4     CRC-32 (IEEE) of the body
//! 18      8     body length (u64 LE)
//! 26      ..    body
//! ```
//!
//! The body is a flat stream of little-endian primitives, written and read
//! back through [`SnapIo`], the one codec. There is no per-field
//! tagging — the layout is whatever order each type's `persist` visits its
//! fields in — but every read is bounds-checked and every sequence length
//! is validated against the remaining bytes, so a truncated or bit-flipped
//! file produces a [`SnapError`] (with the byte offset and a dotted context
//! path), never a panic, hang, or huge allocation.
//!
//! ## Contract
//!
//! * Each snapshotted type has **one** traversal,
//!   `persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError>`. Every
//!   [`SnapIo`] primitive takes the field by `&mut`: writing appends its
//!   value, reading reads it, validates it and overwrites the field. One
//!   line serves both directions, so the write and read layouts cannot
//!   drift apart.
//! * Writing changes nothing: a run that snapshots continues exactly like
//!   one that does not. Work that only a read needs (rebuilding derived
//!   state, refusing a mismatch) is guarded by [`SnapIo::reading`].
//! * `persist` covers the *dynamic* state of a value; static configuration
//!   is rebuilt by re-running deterministic setup and is **not**
//!   serialized. A read overlays the snapshot onto that freshly built value
//!   and consumes exactly the bytes the write produced.
//! * **No wall-clock state** ever goes into a snapshot (`Instant`,
//!   `Duration`-since-start, events/sec): restores happen at a different
//!   wall time by definition, and byte-identity of results must not depend
//!   on when a run executed.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes at offset 0 of every snapshot file.
pub const MAGIC: [u8; 10] = *b"xpass-snap";
/// Current format version. v9 (one credit FIFO per port): a credit queue
/// writes one packet sequence with no class count, a packet and a flow no
/// traffic class, and a data queue no byte count — a read sums its
/// packets — while a checkpoint's meta records the CRC-32 of the ingest
/// groups its run had admitted (none without a journal), so a restart
/// arms only a snapshot its own journal begins with.
/// v8 (each per-flow fact once): a flow writes no
/// credit counts — credit accounting is run-wide, in the network's
/// counters — and the settled section no aborted-flow count, which the
/// counters also hold. v7 (wakes held, not queued): each port writes
/// the wake position it holds — when, its sequence number, whether it is
/// queued or only reserved, and whether an enqueue at that instant asked
/// for it — in place of v6's deferred-wake sequence number, and its
/// pending meter wake carries the head credit's size it was computed for.
/// v6 (each fact counted once): a data queue's
/// statistics are its tail drops and time-weighted occupancy only (no
/// accepted or marked counts, no separate maximum), a credit queue writes
/// no statistics — the network's counters hold its drops — and a port no
/// payload-byte count. v5 (one fault layer): the network writes no
/// `routing` section — the fault layer rebuilds its live routes from the
/// restored links — and a checkpoint's meta records the metering (off, or
/// on with its interval) so `--resume` can refuse a mismatch before the
/// run. v4 (flows live for the whole run): the arena
/// writes no slot occupancy, generation or free list, the timer section
/// only the per-host generations, a queued timer no flow generation, and
/// the event queue and per-kind event counts drop v3's always-empty
/// reserved slots. v3 (no sample events): the figure-series sampler holds
/// a reserved queue position where a queued sample event used to be, and
/// event tag 6 is retired. v2 (reserved queue positions)
/// added the event queue's horizon, each port's deferred wake and the
/// window sender's carried RTO deadline. Older files are refused with the
/// version-mismatch error — a snapshot resumes the run that wrote it, and
/// an older run's queue holds events this one never pushes.
pub const VERSION: u32 = 9;
/// Bytes of header before the body starts.
pub const HEADER_LEN: usize = 10 + 4 + 4 + 8;

/// A structured snapshot decoding error: absolute byte offset, dotted
/// context path (e.g. `network.ports[3].bucket`), and a message that spells
/// out expected vs found where applicable. Its fields live behind one box,
/// so every `Result<(), SnapError>` a traversal returns is one word wide;
/// they read as `e.at`, `e.path` and `e.msg` through `Deref`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(Box<SnapErrorDetail>);

/// The fields of a [`SnapError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapErrorDetail {
    /// Absolute byte offset in the snapshot file where decoding failed.
    pub at: usize,
    /// Dotted path of the value being decoded when the error hit.
    pub path: String,
    /// Human-readable description (includes expected vs found values).
    pub msg: String,
}

impl SnapError {
    /// An error at absolute offset `at` in the value named by `path`.
    #[cold]
    fn new(at: usize, path: impl Into<String>, msg: impl Into<String>) -> SnapError {
        SnapError(Box::new(SnapErrorDetail {
            at,
            path: path.into(),
            msg: msg.into(),
        }))
    }
}

impl std::ops::Deref for SnapError {
    type Target = SnapErrorDetail;
    fn deref(&self) -> &SnapErrorDetail {
        &self.0
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "snapshot error at byte {}: {}", self.at, self.msg)
        } else {
            write!(
                f,
                "snapshot error at byte {} in {}: {}",
                self.at, self.path, self.msg
            )
        }
    }
}

impl std::error::Error for SnapError {}

/// A growing snapshot body: what [`SnapIo::Write`] appends to.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the body bytes.
    pub fn into_body(self) -> Vec<u8> {
        self.buf
    }

    /// Append a length-prefixed byte string.
    fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v);
    }
}

/// A body being read back: what [`SnapIo::Read`] takes fields from, with
/// bounds checking and a context-path stack for error reporting.
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Added to `pos` in reported offsets, so errors point at absolute
    /// file offsets even though the reader only sees the body.
    base: usize,
    /// The context path with a leading dot (`.a.b.c`), one buffer for
    /// every segment: each [`SnapIo::within`] appends `.segment` and cuts
    /// it off again.
    ctx: String,
}

impl<'a> SnapReader<'a> {
    /// Reader over a body slice; `base` is the body's offset within the
    /// file (use [`HEADER_LEN`] for a full snapshot file, 0 for raw data).
    pub fn new(data: &'a [u8], base: usize) -> SnapReader<'a> {
        SnapReader {
            data,
            pos: 0,
            base,
            ctx: String::new(),
        }
    }

    /// Absolute offset of the next byte to be read.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// An error at absolute offset `at` with the current context path.
    fn err_at(&self, at: usize, msg: impl Into<String>) -> SnapError {
        SnapError::new(at, self.ctx.get(1..).unwrap_or(""), msg)
    }

    /// An error at the current offset with the current context path.
    fn err(&self, msg: impl Into<String>) -> SnapError {
        self.err_at(self.offset(), msg)
    }

    /// Fail unless the stream is fully consumed (trailing garbage check).
    fn expect_end(&self) -> Result<(), SnapError> {
        if self.pos != self.data.len() {
            return Err(self.err(format!(
                "expected end of snapshot, found {} trailing byte(s)",
                self.remaining()
            )));
        }
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated: {what} needs {n} byte(s), {} remain",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `N` bytes as an array, for a fixed-width little-endian value.
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SnapError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// A usize (stored as u64); fails if it overflows the platform.
    #[inline]
    fn usize(&mut self) -> Result<usize, SnapError> {
        let v = u64::from_le_bytes(self.array("u64")?);
        usize::try_from(v).map_err(|_| self.err(format!("usize out of range: {v}")))
    }

    /// A sequence length, validated as [`SnapIo::seq_len`] describes.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if n > cap {
            return Err(self.err(format!(
                "sequence length {n} impossible: only {} byte(s) remain \
                     (≥ {} needed per element)",
                self.remaining(),
                min_elem_bytes.max(1)
            )));
        }
        Ok(n)
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.seq_len(1)?;
        self.take(n, "byte string")
    }
}

/// The sequences [`SnapIo::seq`] persists, element by element.
pub trait SnapSeq: Default {
    /// The element type.
    type Item: Default;
    /// Number of elements.
    fn count(&self) -> usize;
    /// Append one element.
    fn push_back(&mut self, item: Self::Item);
    /// The elements in order.
    fn items(&mut self) -> impl Iterator<Item = &mut Self::Item>;
}

impl<T: Default> SnapSeq for Vec<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn push_back(&mut self, item: T) {
        self.push(item);
    }
    fn items(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut()
    }
}

impl<T: Default> SnapSeq for VecDeque<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn push_back(&mut self, item: T) {
        VecDeque::push_back(self, item);
    }
    fn items(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut()
    }
}

/// One traversal, either direction: the handle every `persist` takes, and
/// the only codec a snapshot body is written and read with.
///
/// Writing appends each field to a [`SnapWriter`]; reading takes it from a
/// [`SnapReader`], validates it, and overwrites the field in place. Context
/// segments ([`within`](Self::within)) and presence/count checks only act
/// when reading — a write has nothing to report.
pub enum SnapIo<'a> {
    /// Appending fields to a body.
    Write(&'a mut SnapWriter),
    /// Overlaying a body's fields onto freshly built values.
    Read(SnapReader<'a>),
}

impl<'a> SnapIo<'a> {
    /// True when fields are read into the values (a restore).
    #[inline]
    pub fn reading(&self) -> bool {
        matches!(self, SnapIo::Read(_))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.push(*v),
            SnapIo::Read(r) => *v = r.take(1, "u8")?[0],
        }
        Ok(())
    }

    /// A bool as one byte; anything but 0/1 is refused.
    #[inline]
    pub fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.push(*v as u8),
            SnapIo::Read(r) => {
                *v = match r.take(1, "bool")?[0] {
                    0 => false,
                    1 => true,
                    b => {
                        let msg = format!("invalid bool: expected 0 or 1, found {b}");
                        return Err(r.err_at(r.offset() - 1, msg));
                    }
                }
            }
        }
        Ok(())
    }

    /// A u32, little-endian.
    #[inline]
    pub fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.extend_from_slice(&v.to_le_bytes()),
            SnapIo::Read(r) => *v = u32::from_le_bytes(r.array("u32")?),
        }
        Ok(())
    }

    /// A u64, little-endian.
    #[inline]
    pub fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.extend_from_slice(&v.to_le_bytes()),
            SnapIo::Read(r) => *v = u64::from_le_bytes(r.array("u64")?),
        }
        Ok(())
    }

    /// A u128, little-endian.
    #[inline]
    pub fn u128(&mut self, v: &mut u128) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.extend_from_slice(&v.to_le_bytes()),
            SnapIo::Read(r) => *v = u128::from_le_bytes(r.array("u128")?),
        }
        Ok(())
    }

    /// A usize as u64; a value that overflows the platform is refused.
    #[inline]
    pub fn usize(&mut self, v: &mut usize) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.buf.extend_from_slice(&(*v as u64).to_le_bytes()),
            SnapIo::Read(r) => *v = r.usize()?,
        }
        Ok(())
    }

    /// An f64 by its bit pattern (exact, NaN payloads and signed zero).
    #[inline]
    pub fn f64(&mut self, v: &mut f64) -> Result<(), SnapError> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.put_bytes(v),
            SnapIo::Read(r) => *v = r.bytes()?.to_vec(),
        }
        Ok(())
    }

    /// A length-prefixed UTF-8 string; invalid UTF-8 is refused.
    pub fn str(&mut self, v: &mut String) -> Result<(), SnapError> {
        match self {
            SnapIo::Write(w) => w.put_bytes(v.as_bytes()),
            SnapIo::Read(r) => {
                let at = r.offset();
                let b = r.bytes()?;
                *v = std::str::from_utf8(b)
                    .map_err(|e| r.err_at(at, format!("invalid UTF-8 in string: {e}")))?
                    .to_string();
            }
        }
        Ok(())
    }

    /// Run `f` inside the context segment `name` (shows up in a read
    /// error's path as `a.b.c`; formatted only when reading).
    pub fn within<T>(
        &mut self,
        name: impl fmt::Display,
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let mark = match self {
            SnapIo::Read(r) => {
                let mark = r.ctx.len();
                let _ = write!(r.ctx, ".{name}");
                mark
            }
            SnapIo::Write(_) => 0,
        };
        let out = f(self)?;
        if let SnapIo::Read(r) = self {
            r.ctx.truncate(mark);
        }
        Ok(out)
    }

    /// An error at the current offset with the current context path.
    pub fn err(&self, msg: impl Into<String>) -> SnapError {
        match self {
            SnapIo::Read(r) => r.err(msg),
            SnapIo::Write(w) => SnapError::new(w.len(), "", msg),
        }
    }

    /// When reading, fail unless the body is fully consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        match self {
            SnapIo::Read(r) => r.expect_end(),
            SnapIo::Write(_) => Ok(()),
        }
    }

    /// A sequence length: writes `len`, or reads one validated against the
    /// bytes left: each element needs at least `min_elem_bytes`, so a
    /// corrupted length cannot trigger a huge allocation or an unbounded
    /// loop. Returns the length either way.
    pub fn seq_len(&mut self, len: usize, min_elem_bytes: usize) -> Result<usize, SnapError> {
        match self {
            SnapIo::Write(w) => {
                w.buf.extend_from_slice(&(len as u64).to_le_bytes());
                Ok(len)
            }
            SnapIo::Read(r) => r.seq_len(min_elem_bytes),
        }
    }

    /// The length of a sequence the setup rebuilt with `configured`
    /// elements: reading any other length is an error naming `what`. The
    /// caller then persists each element in place.
    pub fn seq_len_of(
        &mut self,
        what: &str,
        configured: usize,
        min_elem_bytes: usize,
    ) -> Result<(), SnapError> {
        let n = self.seq_len(configured, min_elem_bytes)?;
        if n != configured {
            return Err(self.err(format!(
                "{what} count mismatch: configuration has {configured}, snapshot has {n}"
            )));
        }
        Ok(())
    }

    /// A `Vec` or `VecDeque`: its length, then each element through `f`.
    /// Reading rebuilds the sequence from default elements.
    pub fn seq<C: SnapSeq>(
        &mut self,
        items: &mut C,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self, &mut C::Item) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let n = self.seq_len(items.count(), min_elem_bytes)?;
        if self.reading() {
            *items = C::default();
            for _ in 0..n {
                let mut x = C::Item::default();
                f(self, &mut x)?;
                items.push_back(x);
            }
        } else {
            items.items().try_for_each(|x| f(self, x))?;
        }
        Ok(())
    }

    /// An ordered map: its length, then each entry through `f`. Writing
    /// hands `f` a copy of the key; reading rebuilds the map from default
    /// entries.
    pub fn map<K, V>(
        &mut self,
        map: &mut BTreeMap<K, V>,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self, &mut K, &mut V) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        K: Ord + Copy + Default,
        V: Default,
    {
        let n = self.seq_len(map.len(), min_elem_bytes)?;
        if self.reading() {
            map.clear();
            for _ in 0..n {
                let (mut k, mut v) = (K::default(), V::default());
                f(self, &mut k, &mut v)?;
                map.insert(k, v);
            }
        } else {
            for (k, v) in map.iter_mut() {
                f(self, &mut k.clone(), v)?;
            }
        }
        Ok(())
    }

    /// `Some`/`None` as a bool, then the payload through `f`. Reading
    /// builds a present payload from `T::default()`.
    pub fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        f: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        self.opt_with(v, T::default, f)
    }

    /// [`opt`](Self::opt) whose present payload is read onto `init()`.
    pub fn opt_with<T>(
        &mut self,
        v: &mut Option<T>,
        init: impl FnOnce() -> T,
        f: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if self.reading() {
            *v = some.then(init);
        }
        match v {
            Some(x) => f(self, x),
            None => Ok(()),
        }
    }

    /// An `Option` *onto* a value the deterministic setup may or may not
    /// have built: the snapshot must carry a payload exactly when
    /// `installed` is there to take it, and `f` then persists it. `what`
    /// names the value in the mismatch error.
    pub fn opt_onto<T: ?Sized>(
        &mut self,
        what: &str,
        installed: Option<&mut T>,
        f: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut present = installed.is_some();
        self.bool(&mut present)?;
        match (installed, present) {
            (Some(v), true) => f(self, v),
            (None, false) => Ok(()),
            (cfg, _) => {
                let (cfg, snap) = if cfg.is_some() {
                    ("has one", "has none")
                } else {
                    ("has none", "has one")
                };
                Err(self.err(format!(
                    "{what} presence mismatch: configuration {cfg}, snapshot {snap}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table generated at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice — the body checksum in the file header.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_from(0, data)
}

/// CRC-32 of the bytes whose CRC-32 is `prev` followed by `data`.
pub fn crc32_from(prev: u32, data: &[u8]) -> u32 {
    let mut c = !prev;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// File envelope.
// ---------------------------------------------------------------------------

/// Wrap a body in the `xpass-snap/v9` envelope (magic, version, checksum,
/// length).
pub fn encode_file(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validate a snapshot file's envelope and return the body slice.
///
/// Errors name the offset and spell out expected vs found magic/version,
/// so a CLI can print an actionable diagnostic.
pub fn decode_file(file: &[u8]) -> Result<&[u8], SnapError> {
    let fail = |at: usize, msg: String| SnapError::new(at, "header", msg);
    if file.len() < HEADER_LEN {
        return Err(fail(
            0,
            format!(
                "file truncated: {} byte(s), the header alone needs {HEADER_LEN}",
                file.len()
            ),
        ));
    }
    if file[..10] != MAGIC {
        return Err(fail(
            0,
            format!(
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(&MAGIC),
                String::from_utf8_lossy(&file[..10])
            ),
        ));
    }
    let version = u32::from_le_bytes(file[10..14].try_into().unwrap());
    if version != VERSION {
        return Err(fail(
            10,
            format!("unsupported version: expected {VERSION}, found {version}"),
        ));
    }
    let want_crc = u32::from_le_bytes(file[14..18].try_into().unwrap());
    let body_len = u64::from_le_bytes(file[18..26].try_into().unwrap());
    let avail = (file.len() - HEADER_LEN) as u64;
    if body_len != avail {
        return Err(fail(
            18,
            format!("body length mismatch: header says {body_len} byte(s), file has {avail}"),
        ));
    }
    let body = &file[HEADER_LEN..];
    let got_crc = crc32(body);
    if got_crc != want_crc {
        return Err(fail(
            14,
            format!("checksum mismatch: expected {want_crc:#010x}, computed {got_crc:#010x}"),
        ));
    }
    Ok(body)
}

/// Read a snapshot file from disk, validate the envelope, and return the
/// body. I/O errors are reported as a [`SnapError`] at offset 0.
pub fn load(path: &Path) -> Result<Vec<u8>, SnapError> {
    let file = std::fs::read(path)
        .map_err(|e| SnapError::new(0, "io", format!("cannot read {}: {e}", path.display())))?;
    let body = decode_file(&file)?;
    Ok(body.to_vec())
}

/// Atomically write `body` (wrapped in the envelope) to `path`: write to a
/// temporary sibling, fsync, then rename over the target. A crash mid-write
/// leaves either the old file or the new one, never a torn snapshot.
pub fn write_atomic(path: &Path, body: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&encode_file(body))?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Best effort: persist the rename itself.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body `f` writes.
    fn written(f: impl FnOnce(&mut SnapIo) -> Result<(), SnapError>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        f(&mut SnapIo::Write(&mut w)).unwrap();
        w.into_body()
    }

    type Primitives = (u8, bool, u32, u64, u128, f64, f64, String, Vec<u8>, usize);

    fn persist_primitives(io: &mut SnapIo, v: &mut Primitives) -> Result<(), SnapError> {
        io.u8(&mut v.0)?;
        io.bool(&mut v.1)?;
        io.u32(&mut v.2)?;
        io.u64(&mut v.3)?;
        io.u128(&mut v.4)?;
        io.f64(&mut v.5)?;
        io.f64(&mut v.6)?;
        io.str(&mut v.7)?;
        io.bytes(&mut v.8)?;
        io.usize(&mut v.9)
    }

    #[test]
    fn primitives_round_trip() {
        let mut donor: Primitives = (
            7,
            true,
            0xDEAD_BEEF,
            u64::MAX,
            u128::MAX - 1,
            -0.0,
            f64::INFINITY,
            "hello κόσμε".into(),
            vec![1, 2, 3],
            1 << 40,
        );
        let body = written(|io| persist_primitives(io, &mut donor));
        // Little-endian, fixed width; strings and bytes carry a u64 length.
        assert_eq!(
            body.len(),
            1 + 1 + 4 + 8 + 16 + 8 + 8 + (8 + 16) + (8 + 3) + 8
        );
        assert_eq!(body[2..6], 0xDEAD_BEEFu32.to_le_bytes());

        let mut twin = Primitives::default();
        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        persist_primitives(&mut r, &mut twin).unwrap();
        r.expect_end().unwrap();
        assert_eq!(twin, donor);
        assert_eq!(twin.5.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn malformed_primitives_are_refused_where_they_start() {
        let mut r = SnapIo::Read(SnapReader::new(&[2], 26));
        let e = r.bool(&mut false).unwrap_err();
        assert_eq!(e.at, 26);
        assert!(
            e.msg.contains("invalid bool: expected 0 or 1, found 2"),
            "{e}"
        );

        let body = written(|io| io.bytes(&mut vec![0xff, 0xfe]));
        let mut r = SnapIo::Read(SnapReader::new(&body, 26));
        let e = r.str(&mut String::new()).unwrap_err();
        assert_eq!(e.at, 26);
        assert!(e.msg.contains("invalid UTF-8"), "{e}");
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let body = written(|io| io.u64(&mut 1));
        let mut r = SnapIo::Read(SnapReader::new(&body[..4], 0));
        let e = r.u64(&mut 0).unwrap_err();
        assert!(e.msg.contains("truncated"), "{e}");
    }

    #[test]
    fn sequence_length_is_sanity_checked() {
        let body = written(|io| io.usize(&mut (1 << 40))); // absurd length
        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        let e = r.seq_len(0, 8).unwrap_err();
        assert!(e.msg.contains("impossible"), "{e}");
    }

    #[test]
    fn error_paths_carry_context() {
        let mut r = SnapIo::Read(SnapReader::new(&[], 26));
        let e = r
            .within("network", |r| r.within("ports[3]", |r| r.u64(&mut 0)))
            .unwrap_err();
        assert_eq!(e.path, "network.ports[3]");
        assert_eq!(e.at, 26);
        assert!(e.to_string().contains("network.ports[3]"), "{e}");
    }

    #[test]
    fn opt_onto_overlays_or_names_the_mismatch() {
        let body = written(|io| {
            io.opt(&mut Some(5u64), |io, v| io.u64(v))?;
            io.opt(&mut None::<u64>, |io, v| io.u64(v))
        });
        let read = |io: &mut SnapIo, v: &mut u64| io.u64(v);

        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        let mut v = 0u64;
        r.within("a", |r| r.opt_onto("value", Some(&mut v), read))
            .unwrap();
        assert_eq!(v, 5);
        r.opt_onto("value", None, read).unwrap();
        r.expect_end().unwrap();

        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        let e = r
            .within("a", |r| r.opt_onto("value", None, read))
            .unwrap_err();
        assert_eq!(e.path, "a");
        assert!(
            e.msg
                .contains("value presence mismatch: configuration has none, snapshot has one"),
            "{e}"
        );
        let mut r = SnapIo::Read(SnapReader::new(&body[9..], 0));
        let e = r.opt_onto("value", Some(&mut v), read).unwrap_err();
        assert!(
            e.msg.contains("configuration has one, snapshot has none"),
            "{e}"
        );
    }

    #[test]
    fn one_traversal_writes_what_it_reads() {
        // A value with one field of each shape `persist` bodies use.
        #[derive(Debug, Default, PartialEq)]
        struct Probe {
            tag: u8,
            live: bool,
            count: u64,
            rate: f64,
            armed: Option<u64>,
            queue: Vec<(u32, u64)>,
            index: BTreeMap<u64, u32>,
            fixed: [u64; 3],
        }
        impl Probe {
            fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
                io.u8(&mut self.tag)?;
                io.bool(&mut self.live)?;
                io.u64(&mut self.count)?;
                io.f64(&mut self.rate)?;
                io.opt(&mut self.armed, |io, g| io.u64(g))?;
                io.within("queue", |io| {
                    io.seq(&mut self.queue, 12, |io, (a, b)| {
                        io.u32(a)?;
                        io.u64(b)
                    })
                })?;
                io.map(&mut self.index, 12, |io, k, v| {
                    io.u64(k)?;
                    io.u32(v)
                })?;
                io.seq_len_of("fixed", self.fixed.len(), 8)?;
                self.fixed.iter_mut().try_for_each(|x| io.u64(x))
            }
        }
        let mut donor = Probe {
            tag: 7,
            live: true,
            count: u64::MAX,
            rate: -0.0,
            armed: Some(3),
            queue: vec![(1, 10), (2, 20)],
            index: [(5, 50), (6, 60)].into_iter().collect(),
            fixed: [1, 2, 3],
        };
        let mut w = SnapWriter::new();
        donor.persist(&mut SnapIo::Write(&mut w)).unwrap();
        let body = w.into_body();

        let mut twin = Probe::default();
        let mut r = SnapIo::Read(SnapReader::new(&body, 0));
        twin.persist(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(twin, donor);
        assert_eq!(twin.rate.to_bits(), (-0.0f64).to_bits());
        // Reading through the same traversal writes the same bytes back.
        let mut w = SnapWriter::new();
        twin.persist(&mut SnapIo::Write(&mut w)).unwrap();
        assert_eq!(w.into_body(), body);

        // Every strict prefix is refused, never a panic.
        for cut in 0..body.len() {
            let mut r = SnapIo::Read(SnapReader::new(&body[..cut], 0));
            assert!(Probe::default().persist(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn envelope_round_trips() {
        let body = b"some snapshot body".to_vec();
        let file = encode_file(&body);
        assert_eq!(decode_file(&file).unwrap(), &body[..]);
    }

    #[test]
    fn envelope_rejects_bad_magic() {
        let mut file = encode_file(b"x");
        file[0] = b'X';
        let e = decode_file(&file).unwrap_err();
        assert_eq!(e.at, 0);
        assert!(e.msg.contains("expected") && e.msg.contains("found"), "{e}");
    }

    #[test]
    fn envelope_rejects_bad_version() {
        let mut file = encode_file(b"x");
        file[10] = 99;
        let e = decode_file(&file).unwrap_err();
        assert_eq!(e.at, 10);
        assert!(
            e.msg.contains("expected 9") && e.msg.contains("found 99"),
            "{e}"
        );
        // The previous version's files are refused alike.
        file[10] = 8;
        let e = decode_file(&file).unwrap_err();
        assert!(e.msg.contains("expected 9, found 8"), "{e}");
    }

    #[test]
    fn envelope_rejects_flipped_body_bit() {
        let mut file = encode_file(b"checksummed body");
        let last = file.len() - 1;
        file[last] ^= 0x10;
        let e = decode_file(&file).unwrap_err();
        assert!(e.msg.contains("checksum"), "{e}");
    }

    #[test]
    fn envelope_rejects_truncation_everywhere() {
        let file = encode_file(b"a longer snapshot body for truncation");
        for cut in 0..file.len() {
            let e = decode_file(&file[..cut]).unwrap_err();
            assert!(!e.msg.is_empty(), "cut at {cut} must error");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("xpass-snap-test-{}", std::process::id()));
        let path = dir.join("a/b/ck.snap");
        write_atomic(&path, b"body bytes").unwrap();
        assert_eq!(load(&path).unwrap(), b"body bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let e = load(Path::new("/nonexistent/xpass.snap")).unwrap_err();
        assert!(e.msg.contains("cannot read"), "{e}");
    }
}
