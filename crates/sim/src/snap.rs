//! `xpass-snap/v5` — a versioned, zero-dependency binary snapshot format.
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
//! 10      4     version (u32 LE, currently 5)
//! 14      4     CRC-32 (IEEE) of the body
//! 18      8     body length (u64 LE)
//! 26      ..    body
//! ```
//!
//! The body is a flat stream of little-endian primitives written by
//! [`SnapWriter`] and read back by [`SnapReader`]. There is no per-field
//! tagging — layout is defined by the [`Snapshot`]/[`Restore`]
//! implementations, which must mirror each other exactly — but every read
//! is bounds-checked and every sequence length is validated against the
//! remaining bytes, so a truncated or bit-flipped file produces a
//! [`SnapError`] (with the byte offset and a dotted context path), never a
//! panic, hang, or huge allocation.
//!
//! ## Contract
//!
//! * [`Snapshot::snap`] writes the *dynamic* state of a value; static
//!   configuration is rebuilt by re-running deterministic setup and is
//!   **not** serialized.
//! * [`Restore::restore`] overlays that state onto a freshly-built value
//!   (`&mut self`), consuming exactly the bytes `snap` wrote.
//! * **No wall-clock state** ever goes into a snapshot (`Instant`,
//!   `Duration`-since-start, events/sec): restores happen at a different
//!   wall time by definition, and byte-identity of results must not depend
//!   on when a run executed.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes at offset 0 of every snapshot file.
pub const MAGIC: [u8; 10] = *b"xpass-snap";
/// Current format version. v5 (one fault layer): the network writes no
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
pub const VERSION: u32 = 5;
/// Bytes of header before the body starts.
pub const HEADER_LEN: usize = 10 + 4 + 4 + 8;

/// A value that can serialize its dynamic state into a snapshot body.
pub trait Snapshot {
    /// Append this value's state to the writer.
    fn snap(&self, w: &mut SnapWriter);
}

/// A value that can overlay previously-snapshotted state onto itself.
///
/// The value is first rebuilt by deterministic setup (constructors,
/// topology, config); `restore` then replaces its dynamic state with the
/// snapshot's. Implementations must consume exactly the bytes the matching
/// [`Snapshot::snap`] wrote.
pub trait Restore {
    /// Overlay state from the reader; errors carry offset and context.
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// A structured snapshot decoding error: absolute byte offset, dotted
/// context path (e.g. `network.ports[3].bucket`), and a message that spells
/// out expected vs found where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Absolute byte offset in the snapshot file where decoding failed.
    pub at: usize,
    /// Dotted path of the value being decoded when the error hit.
    pub path: String,
    /// Human-readable description (includes expected vs found values).
    pub msg: String,
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

/// Appends little-endian primitives to a growing body buffer.
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

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a u32, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a u64, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a u128, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an f64 as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and signed zero).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write `Some`/`None` plus the payload via a closure.
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut SnapWriter, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Write a sequence: length prefix, then each element via the closure.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut SnapWriter, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
}

/// Reads the primitives [`SnapWriter`] writes, with bounds checking and a
/// context-path stack for error reporting.
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Added to `pos` in reported offsets, so errors point at absolute
    /// file offsets even though the reader only sees the body.
    base: usize,
    ctx: Vec<String>,
}

impl<'a> SnapReader<'a> {
    /// Reader over a body slice; `base` is the body's offset within the
    /// file (use [`HEADER_LEN`] for a full snapshot file, 0 for raw data).
    pub fn new(data: &'a [u8], base: usize) -> SnapReader<'a> {
        SnapReader {
            data,
            pos: 0,
            base,
            ctx: Vec::new(),
        }
    }

    /// Absolute offset of the next byte to be read.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Push a context segment (shows up in error paths as `a.b.c`).
    pub fn enter(&mut self, name: impl Into<String>) {
        self.ctx.push(name.into());
    }

    /// Pop the innermost context segment.
    pub fn leave(&mut self) {
        self.ctx.pop();
    }

    /// Run `f` inside the context segment `name` (left again on success;
    /// an error has already captured its path).
    pub fn within<T>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        self.enter(name);
        let out = f(self)?;
        self.leave();
        Ok(out)
    }

    /// Build an error at the current offset with the current context path.
    pub fn err(&self, msg: impl Into<String>) -> SnapError {
        SnapError {
            at: self.offset(),
            path: self.ctx.join("."),
            msg: msg.into(),
        }
    }

    /// Fail unless the stream is fully consumed (trailing garbage check).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.pos != self.data.len() {
            return Err(self.err(format!(
                "expected end of snapshot, found {} trailing byte(s)",
                self.remaining()
            )));
        }
        Ok(())
    }

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

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a bool; anything but 0/1 is a format error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError {
                at: self.base + self.pos - 1,
                path: self.ctx.join("."),
                msg: format!("invalid bool: expected 0 or 1, found {b}"),
            }),
        }
    }

    /// Read a u32, little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a u64, little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a u128, little-endian.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let b = self.take(16, "u128")?;
        Ok(u128::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a usize (stored as u64); fails if it overflows the platform.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("usize out of range: {v}")))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a sequence length written by [`SnapWriter::seq`], validated
    /// against the bytes remaining: each element needs at least
    /// `min_elem_bytes`, so a corrupted length cannot trigger a huge
    /// allocation or an unbounded loop.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
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

    /// [`seq_len`](Self::seq_len) of a sequence the setup rebuilt with
    /// `configured` elements: any other length is an error naming `what`.
    pub fn seq_len_of(
        &mut self,
        what: &str,
        configured: usize,
        min_elem_bytes: usize,
    ) -> Result<(), SnapError> {
        let n = self.seq_len(min_elem_bytes)?;
        if n != configured {
            return Err(self.err(format!(
                "{what} count mismatch: configuration has {configured}, snapshot has {n}"
            )));
        }
        Ok(())
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.seq_len(1)?;
        Ok(self.take(n, "byte string")?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let at = self.offset();
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|e| SnapError {
            at,
            path: self.ctx.join("."),
            msg: format!("invalid UTF-8 in string: {e}"),
        })
    }

    /// Read an `Option` written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read an `Option` written by [`SnapWriter::opt`] *onto* a value the
    /// deterministic setup may or may not have built: the snapshot must
    /// carry a payload exactly when `installed` is there to take it, and
    /// `restore` then overlays it. `what` names the value in the mismatch
    /// error.
    pub fn opt_onto<T: ?Sized>(
        &mut self,
        what: &str,
        installed: Option<&mut T>,
        restore: impl FnOnce(&mut T, &mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        match (installed, self.bool()?) {
            (Some(v), true) => restore(v, self),
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
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// File envelope.
// ---------------------------------------------------------------------------

/// Wrap a body in the `xpass-snap/v5` envelope (magic, version, checksum,
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
    let fail = |at: usize, msg: String| SnapError {
        at,
        path: "header".to_string(),
        msg,
    };
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
    let file = std::fs::read(path).map_err(|e| SnapError {
        at: 0,
        path: "io".to_string(),
        msg: format!("cannot read {}: {e}", path.display()),
    })?;
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

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::INFINITY);
        w.str("hello κόσμε");
        w.bytes(&[1, 2, 3]);
        w.opt(Some(&42u64), |w, v| w.u64(*v));
        w.opt::<u64>(None, |w, v| w.u64(*v));
        w.seq(&[10u64, 20, 30], |w, v| w.u64(*v));
        let body = w.into_body();

        let mut r = SnapReader::new(&body, 0);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.str().unwrap(), "hello κόσμε");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(42));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        let n = r.seq_len(8).unwrap();
        let v: Vec<u64> = (0..n).map(|_| r.u64().unwrap()).collect();
        assert_eq!(v, vec![10, 20, 30]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let body = w.into_body();
        let mut r = SnapReader::new(&body[..4], 0);
        let e = r.u64().unwrap_err();
        assert!(e.msg.contains("truncated"), "{e}");
    }

    #[test]
    fn sequence_length_is_sanity_checked() {
        let mut w = SnapWriter::new();
        w.usize(1 << 40); // absurd length
        let body = w.into_body();
        let mut r = SnapReader::new(&body, 0);
        let e = r.seq_len(8).unwrap_err();
        assert!(e.msg.contains("impossible"), "{e}");
    }

    #[test]
    fn error_paths_carry_context() {
        let mut r = SnapReader::new(&[], 26);
        r.enter("network");
        r.enter("ports[3]");
        let e = r.u64().unwrap_err();
        assert_eq!(e.path, "network.ports[3]");
        assert_eq!(e.at, 26);
        assert!(e.to_string().contains("network.ports[3]"), "{e}");
    }

    #[test]
    fn opt_onto_overlays_or_names_the_mismatch() {
        let mut w = SnapWriter::new();
        w.opt(Some(&5u64), |w, v| w.u64(*v));
        w.opt::<u64>(None, |w, v| w.u64(*v));
        let body = w.into_body();
        let read = |v: &mut u64, r: &mut SnapReader| {
            *v = r.u64()?;
            Ok(())
        };

        let mut r = SnapReader::new(&body, 0);
        let mut v = 0u64;
        r.within("a", |r| r.opt_onto("value", Some(&mut v), read))
            .unwrap();
        assert_eq!(v, 5);
        r.opt_onto("value", None, read).unwrap();
        r.expect_end().unwrap();

        let mut r = SnapReader::new(&body, 0);
        let e = r
            .within("a", |r| r.opt_onto("value", None, read))
            .unwrap_err();
        assert_eq!(e.path, "a");
        assert!(
            e.msg
                .contains("value presence mismatch: configuration has none, snapshot has one"),
            "{e}"
        );
        let mut r = SnapReader::new(&body[9..], 0);
        let e = r.opt_onto("value", Some(&mut v), read).unwrap_err();
        assert!(
            e.msg.contains("configuration has one, snapshot has none"),
            "{e}"
        );
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
            e.msg.contains("expected 5") && e.msg.contains("found 99"),
            "{e}"
        );
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
