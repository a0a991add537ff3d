//! The one byte codec under every HyperTap binary format.
//!
//! Snapshots serialize *private* state owned by many modules across several
//! crates. Rather than widening every type's public API with state-view
//! structs, each module implements its own `save`/`load` against the small
//! writer/reader pair defined here. The same pair carries the HTRC event
//! traces, the HTRZ compressed wrapper, `.htfr` flight dumps, HTFL fleet
//! archives and `.htsp` machine snapshots.
//!
//! The wire format: a 4-byte magic plus varint version ([`SnapWriter::header`]),
//! LEB128 varints for unsigned integers, zigzag + varint for signed ones,
//! length-prefixed strings and byte blobs, and a byte-oriented run-length
//! scheme ([`rle_compress`]) for frame payloads and compressed traces.
//! Errors are structured ([`SnapError`]) and every decode path is total —
//! truncated or corrupt input must return an error, never panic, and no
//! untrusted length may size an allocation beyond what the input can hold.

use std::fmt;

/// Structured decode/encode errors for every format built on this codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not the one this decoder understands.
    UnsupportedVersion(u64),
    /// The buffer ended in the middle of a field.
    UnexpectedEof {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// A varint ran past its maximum encodable length.
    VarintOverflow {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A tag byte had no defined meaning.
    BadTag {
        /// Byte offset of the tag.
        offset: usize,
        /// The unrecognized tag value.
        tag: u8,
    },
    /// A decoded value was structurally invalid.
    BadValue {
        /// Byte offset of the value.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadString {
        /// Byte offset of the string.
        offset: usize,
    },
    /// Decoding finished but bytes remained.
    TrailingGarbage {
        /// Byte offset of the first unconsumed byte.
        offset: usize,
    },
    /// The live state contains something that cannot be serialized
    /// (e.g. a closure-backed guest program with no save protocol).
    Unsupported {
        /// Human-readable description of the unsupported state.
        what: String,
    },
    /// Compressed frame data was malformed.
    CorruptCompression,
    /// A section or blob decoded to a different length than declared.
    LengthMismatch,
    /// A trace does not end with its `HTRE` trailer.
    BadTrailer,
    /// A trace delta record referenced a vCPU with no snapshot base since
    /// the last sync barrier.
    MissingSnapshotBase {
        /// Byte offset of the record.
        offset: usize,
        /// The vCPU the record named.
        vcpu: usize,
    },
    /// A trace index entry does not point at its barrier record.
    BadIndexEntry {
        /// The record ordinal the entry claimed.
        ordinal: u64,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => f.write_str("bad magic"),
            SnapError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            SnapError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at offset {offset}")
            }
            SnapError::VarintOverflow { offset } => {
                write!(f, "varint overflow at offset {offset}")
            }
            SnapError::BadTag { offset, tag } => {
                write!(f, "unknown tag {tag:#04x} at offset {offset}")
            }
            SnapError::BadValue { offset, what } => {
                write!(f, "invalid {what} at offset {offset}")
            }
            SnapError::BadString { offset } => {
                write!(f, "invalid UTF-8 string at offset {offset}")
            }
            SnapError::TrailingGarbage { offset } => {
                write!(f, "trailing garbage at offset {offset}")
            }
            SnapError::Unsupported { what } => write!(f, "state not snapshottable: {what}"),
            SnapError::CorruptCompression => f.write_str("corrupt run-length compression"),
            SnapError::LengthMismatch => {
                f.write_str("decoded length differs from the declared one")
            }
            SnapError::BadTrailer => f.write_str("trace trailer missing (want HTRE)"),
            SnapError::MissingSnapshotBase { offset, vcpu } => {
                write!(f, "delta for vcpu{vcpu} without snapshot base at offset {offset}")
            }
            SnapError::BadIndexEntry { ordinal } => {
                write!(f, "index entry for record {ordinal} does not match its barrier record")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Maps `n` to an unsigned value with small magnitudes near zero.
#[inline]
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append-only writer for every format built on this codec.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a format header: the 4-byte magic, then the version varint.
    pub fn header(&mut self, magic: &[u8; 4], version: u64) {
        self.raw(magic);
        self.varint(version);
    }

    /// Writes one raw byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Writes raw bytes with no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an unsigned integer as a LEB128 varint.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Writes a signed integer as zigzag + varint.
    #[inline]
    pub fn svarint(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes `None` as a 0 byte or `Some(v)` as a 1 byte followed by a
    /// varint.
    pub fn opt_varint(&mut self, v: Option<u64>) {
        match v {
            None => self.byte(0),
            Some(v) => {
                self.byte(1);
                self.varint(v);
            }
        }
    }
}

/// Position-tracked reader for every format built on this codec.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { bytes, pos: 0 }
    }

    /// Current byte offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fails with [`SnapError::TrailingGarbage`] unless every byte was
    /// consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(SnapError::TrailingGarbage { offset: self.pos })
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Checks the 4-byte magic written by [`SnapWriter::header`].
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), SnapError> {
        if self.take(4)? != magic {
            return Err(SnapError::BadMagic);
        }
        Ok(())
    }

    /// Checks a header written by [`SnapWriter::header`]: the magic, then
    /// a version that must equal `version`.
    pub fn header(&mut self, magic: &[u8; 4], version: u64) -> Result<(), SnapError> {
        self.magic(magic)?;
        match self.varint()? {
            v if v == version => Ok(()),
            v => Err(SnapError::UnsupportedVersion(v)),
        }
    }

    /// Reads one raw byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, SnapError> {
        let b = *self.bytes.get(self.pos).ok_or(SnapError::UnexpectedEof { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapError::UnexpectedEof { offset: self.pos })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, SnapError> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        for i in 0..10 {
            let b = self.byte()?;
            let payload = (b & 0x7f) as u64;
            if i == 9 && payload > 1 {
                return Err(SnapError::VarintOverflow { offset: start });
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(SnapError::VarintOverflow { offset: start })
    }

    /// Reads a zigzag-encoded signed integer.
    #[inline]
    pub fn svarint(&mut self) -> Result<i64, SnapError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    pub fn boolean(&mut self) -> Result<bool, SnapError> {
        let start = self.pos;
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue { offset: start, what: "boolean" }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapError> {
        let start = self.pos;
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadString { offset: start })
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.varint()? as usize;
        self.take(len)
    }

    /// Reads an optional varint written by [`SnapWriter::opt_varint`].
    pub fn opt_varint(&mut self) -> Result<Option<u64>, SnapError> {
        let start = self.pos;
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.varint()?)),
            _ => Err(SnapError::BadValue { offset: start, what: "option tag" }),
        }
    }

    /// Reads an element count bounded by `max` and by the bytes left (every
    /// element takes at least one byte), guarding collection preallocation
    /// against corrupt lengths.
    pub fn count(&mut self, max: usize, what: &'static str) -> Result<usize, SnapError> {
        let start = self.pos;
        let n = self.varint()?;
        if n > max.min(self.remaining()) as u64 {
            return Err(SnapError::BadValue { offset: start, what });
        }
        Ok(n as usize)
    }
}

/// Byte-oriented run-length compression for frame payloads and HTRZ
/// traces: a control byte `< 0x80` introduces a literal run of `c + 1`
/// bytes; a control byte `>= 0x80` repeats the following byte
/// `(c & 0x7f) + 3` times. Zero-filled guest frames collapse to a few bytes.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        // Measure the run of equal bytes starting here.
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 0x7f + 3 {
            run += 1;
        }
        if run >= 3 {
            out.push(0x80 | (run - 3) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal run: scan forward until a compressible repeat starts.
        let start = i;
        while i < data.len() && i - start < 0x80 {
            let b = data[i];
            let mut run = 1;
            while i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            if run >= 3 {
                break;
            }
            i += run;
        }
        let end = usize::min(i, start + 0x80);
        i = end;
        out.push((end - start - 1) as u8);
        out.extend_from_slice(&data[start..end]);
    }
    out
}

/// Inverse of [`rle_compress`]; `expected_len` bounds the output so corrupt
/// input cannot balloon memory. It may be untrusted: the preallocation is
/// capped at what `data` can expand to (a 2-byte repeat yields 130 bytes).
pub fn rle_decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>, SnapError> {
    let mut out = Vec::with_capacity(expected_len.min(data.len().saturating_mul(65)));
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            if i + n > data.len() {
                return Err(SnapError::CorruptCompression);
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else {
            let n = (c & 0x7f) as usize + 3;
            let b = *data.get(i).ok_or(SnapError::CorruptCompression)?;
            i += 1;
            out.extend(std::iter::repeat_n(b, n));
        }
        if out.len() > expected_len {
            return Err(SnapError::CorruptCompression);
        }
    }
    if out.len() != expected_len {
        return Err(SnapError::LengthMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = SnapWriter::new();
        for v in values {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn svarint_round_trip() {
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -1000, 1000];
        let mut w = SnapWriter::new();
        for v in values {
            w.svarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.svarint().unwrap(), v);
        }
    }

    #[test]
    fn string_bytes_bool_round_trip() {
        let mut w = SnapWriter::new();
        w.string("héllo");
        w.bytes(&[1, 2, 3]);
        w.boolean(true);
        w.boolean(false);
        w.opt_varint(None);
        w.opt_varint(Some(42));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.boolean().unwrap());
        assert!(!r.boolean().unwrap());
        assert_eq!(r.opt_varint().unwrap(), None);
        assert_eq!(r.opt_varint().unwrap(), Some(42));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_always_a_structured_error() {
        let mut w = SnapWriter::new();
        w.varint(u64::MAX);
        w.string("hello world");
        w.bytes(&[9; 40]);
        w.svarint(-123456789);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let res = (|| -> Result<(), SnapError> {
                r.varint()?;
                r.string()?;
                r.bytes()?;
                r.svarint()?;
                r.finish()
            })();
            assert!(res.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn bad_boolean_is_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.boolean(), Err(SnapError::BadValue { .. })));
    }

    #[test]
    fn varint_overflow_detected() {
        let bytes = [0xffu8; 11];
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.varint(), Err(SnapError::VarintOverflow { .. })));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut w = SnapWriter::new();
        w.varint(5);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        let mut r = SnapReader::new(&bytes);
        r.varint().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::TrailingGarbage { .. })));
    }

    #[test]
    fn rle_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 4096],
            vec![1, 2, 3, 4, 5],
            vec![7; 3],
            vec![7; 2],
            (0..=255u8).cycle().take(5000).collect(),
            {
                let mut v = vec![0u8; 4096];
                v[100] = 1;
                v[4000] = 2;
                v
            },
        ];
        for case in cases {
            let packed = rle_compress(&case);
            let unpacked = rle_decompress(&packed, case.len()).unwrap();
            assert_eq!(unpacked, case);
        }
    }

    #[test]
    fn zero_frame_compresses_small() {
        let packed = rle_compress(&[0u8; 4096]);
        assert!(packed.len() <= 64, "zero page should collapse, got {}", packed.len());
    }

    #[test]
    fn corrupt_rle_is_an_error_not_a_panic() {
        // Literal run claims more bytes than remain.
        assert!(rle_decompress(&[0x10, 1, 2], 32).is_err());
        // Repeat with missing payload byte.
        assert!(rle_decompress(&[0x85], 8).is_err());
        // Output longer than expected.
        assert!(rle_decompress(&[0x83, 9], 2).is_err());
        // Output shorter than expected.
        assert!(rle_decompress(&[0x00, 5], 9).is_err());
    }

    #[test]
    fn count_guard_rejects_huge_lengths() {
        let mut w = SnapWriter::new();
        w.varint(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.count(1024, "frames"), Err(SnapError::BadValue { .. })));
    }

    #[test]
    fn huge_blob_length_is_an_error_not_an_overflow() {
        // `pos + len` once wrapped (release) or overflowed (debug) here.
        let mut w = SnapWriter::new();
        w.varint(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        let eof = SnapError::UnexpectedEof { offset: 10 };
        assert_eq!(SnapReader::new(&bytes).bytes(), Err(eof.clone()));
        assert_eq!(SnapReader::new(&bytes).string(), Err(eof));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut r = SnapReader::new(&[3, 0, 0]);
        assert!(matches!(r.count(1024, "items"), Err(SnapError::BadValue { offset: 0, .. })));
        let mut r = SnapReader::new(&[2, 0, 0]);
        assert_eq!(r.count(1024, "items"), Ok(2));
    }

    #[test]
    fn header_checks_magic_then_version() {
        let mut w = SnapWriter::new();
        w.header(b"HTXX", 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, b"HTXX\x03");
        assert_eq!(SnapReader::new(&bytes).header(b"HTXX", 3), Ok(()));
        assert_eq!(SnapReader::new(&bytes).header(b"HTYY", 3), Err(SnapError::BadMagic));
        assert_eq!(
            SnapReader::new(&bytes).header(b"HTXX", 2),
            Err(SnapError::UnsupportedVersion(3))
        );
        assert!(SnapReader::new(b"HTX").header(b"HTXX", 3).is_err());
    }

    #[test]
    fn rle_decompress_does_not_trust_the_expected_length() {
        // A 2-byte repeat claiming 2^62 output bytes must fail cleanly
        // instead of preallocating the claim.
        assert_eq!(rle_decompress(&[0xff, 0], 1 << 62), Err(SnapError::LengthMismatch));
    }
}
