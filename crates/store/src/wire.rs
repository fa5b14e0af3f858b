//! Low-level wire primitives shared by every binary codec in the
//! workspace: fixed-width little-endian integers, LEB128 varints,
//! length-prefixed byte strings, the FNV-1a checksum, and checksummed
//! stream frames.
//!
//! Writers are free functions over `Vec<u8>`; reads go through [`Reader`],
//! an offset-tracking cursor whose errors ([`WireError`]) name the byte
//! where decoding failed. The trace serializer
//! (`confluence_trace::serialize`), the result-store codec, and the
//! experiment-service frame protocol (`confluence_serve`) are all built
//! on these helpers, so framing bugs get fixed in one place.
//!
//! The stream half ([`write_frame`]/[`read_frame`]) wraps an opaque
//! payload in the envelope `u32 len | payload | u64 fnv1a(payload)` over
//! any `io::Read`/`io::Write`. A frame either arrives whole and verified
//! or fails with a typed [`FrameError`]; after a corrupt frame the stream
//! cannot be resynchronized and must be closed. [`put_frame`] builds the
//! same envelope in memory, so a writer can send several frames in one
//! write; a reader should go through a buffer (`io::BufReader`), since
//! [`read_frame`] makes three reads per frame.

use std::error::Error;
use std::fmt;
use std::io;

/// Error returned when decoding a malformed buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode failed at byte {}: {}", self.offset, self.reason)
    }
}

impl Error for WireError {}

/// Offset-tracking read cursor over a byte buffer.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Current byte offset from the start of the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`WireError`] at the current offset.
    pub fn error(&self, reason: &'static str) -> WireError {
        WireError {
            offset: self.pos,
            reason,
        }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Errors if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.error("truncated"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Errors if the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a fixed-width little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Errors if fewer than 4 bytes remain.
    pub fn u32_le(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Errors if fewer than 8 bytes remain.
    pub fn u64_le(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern (bit-exact,
    /// which is what makes stored results byte-identical to fresh ones).
    ///
    /// # Errors
    ///
    /// Errors if fewer than 8 bytes remain.
    pub fn f64_bits(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Errors on truncation or a value that overflows 64 bits.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8().map_err(|_| WireError {
                offset: start,
                reason: "truncated varint",
            })?;
            let chunk = (byte & 0x7F) as u64;
            if shift == 63 && chunk > 1 {
                return Err(WireError {
                    offset: start,
                    reason: "varint overflows u64",
                });
            }
            value |= chunk << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError {
            offset: start,
            reason: "varint overflows u64",
        })
    }

    /// Reads a varint that must fit a `usize`.
    ///
    /// # Errors
    ///
    /// Errors on truncation, overflow, or a value wider than `usize`.
    pub fn usize_varint(&mut self) -> Result<usize, WireError> {
        let start = self.pos;
        usize::try_from(self.varint()?).map_err(|_| WireError {
            offset: start,
            reason: "varint overflows usize",
        })
    }

    /// Reads a varint-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Errors if the prefix is malformed or the body is truncated.
    pub fn length_prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.usize_varint()?;
        self.bytes(len)
    }
}

/// Appends a fixed-width little-endian `u32`.
pub fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a fixed-width little-endian `u64`.
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64_le(out, v.to_bits());
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a `usize` as a varint.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_varint(out, v as u64);
}

/// Appends a varint-length-prefixed byte string.
pub fn put_length_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Why a stream frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (no bytes of a next
    /// frame had arrived) — the peer closed the connection.
    Closed,
    /// The underlying transport failed, including an EOF that cut a
    /// frame in half.
    Io(io::Error),
    /// The frame failed verification: an oversized length prefix or a
    /// checksum mismatch. The stream cannot be resynchronized past this.
    Corrupt(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed at a frame boundary"),
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::Corrupt(reason) => write!(f, "corrupt frame: {reason}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Appends one stream frame to `out`: `u32 len | payload | u64
/// fnv1a(payload)`. The checksum covers the payload only; the
/// fixed-width length makes the envelope self-delimiting without
/// touching the payload's encoding.
///
/// # Errors
///
/// Errors, leaving `out` unchanged, if the payload is longer than a
/// `u32` can say.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    out.reserve(payload.len() + 12);
    put_u32_le(out, len);
    out.extend_from_slice(payload);
    put_u64_le(out, fnv1a(payload));
    Ok(())
}

/// Writes one stream frame (the [`put_frame`] envelope) in a single
/// `write_all`, then flushes: on an unbuffered socket a frame costs one
/// write, not one per envelope field.
///
/// # Errors
///
/// Errors if the payload is too long for the envelope or the transport
/// rejects the write.
pub fn write_frame<W: io::Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    put_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one stream frame written by [`write_frame`], returning its
/// verified payload. `max_len` bounds the length prefix so a garbled
/// (or hostile) peer cannot demand an arbitrary allocation.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF between frames, [`FrameError::Io`]
/// on transport failure or mid-frame EOF, [`FrameError::Corrupt`] on an
/// oversized length or checksum mismatch.
pub fn read_frame<R: io::Read>(r: &mut R, max_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish "peer closed between frames" from "frame cut short":
    // only a zero-byte first read is a clean close.
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > max_len {
        return Err(FrameError::Corrupt("frame length exceeds cap"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut checksum_bytes = [0u8; 8];
    r.read_exact(&mut checksum_bytes)?;
    if fnv1a(&payload) != u64::from_le_bytes(checksum_bytes) {
        return Err(FrameError::Corrupt("frame checksum mismatch"));
    }
    Ok(payload)
}

/// 64-bit FNV-1a over `data` — the store's key hash and entry checksum.
/// Not cryptographic; collisions are tolerated because entries embed the
/// full key and are compared before use.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v, "value {v}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_is_minimal_for_small_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf, vec![127]);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf, vec![0x80, 0x01]);
    }

    #[test]
    fn truncated_varint_errors_at_its_start() {
        let err = Reader::new(&[0x80]).varint().unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.to_string().contains("truncated varint"));
    }

    #[test]
    fn overlong_varint_errors() {
        // 11 continuation bytes can never terminate inside 64 bits.
        let buf = [0xFF; 11];
        let err = Reader::new(&buf).varint().unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn length_prefixed_roundtrips() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        put_length_prefixed(&mut buf, b"");
        let mut r = Reader::new(&buf);
        assert_eq!(r.length_prefixed().unwrap(), b"hello");
        assert_eq!(r.length_prefixed().unwrap(), b"");
        assert!(r.is_empty());
    }

    #[test]
    fn length_prefix_beyond_buffer_errors() {
        let mut buf = Vec::new();
        put_usize(&mut buf, 100);
        buf.extend_from_slice(b"short");
        assert!(Reader::new(&buf).length_prefixed().is_err());
    }

    #[test]
    fn fixed_width_reads_track_offsets() {
        let mut buf = Vec::new();
        put_u32_le(&mut buf, 0xDEAD_BEEF);
        put_u64_le(&mut buf, 42);
        put_f64(&mut buf, -0.5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.offset(), 4);
        assert_eq!(r.u64_le().unwrap(), 42);
        assert_eq!(r.f64_bits().unwrap(), -0.5);
        assert!(r.is_empty());
        assert_eq!(r.u8().unwrap_err().reason, "truncated");
    }

    #[test]
    fn stream_frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"first");
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"");
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"third frame");
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Closed)));
    }

    /// Golden bytes of the envelope, `u32 len | payload | u64 fnv1a`,
    /// whether it is written to a stream or built in memory for a burst.
    #[test]
    fn envelope_bytes_are_pinned() {
        let golden = "0200000061626a9845b507449c08";
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let mut written = Vec::new();
        write_frame(&mut written, b"ab").unwrap();
        assert_eq!(hex(&written), golden);
        let mut burst = Vec::new();
        put_frame(&mut burst, b"ab").unwrap();
        assert_eq!(hex(&burst), golden);
    }

    /// Counts the writes that reach it, as an unbuffered socket would.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.writes, 1);
        let mut r = std::io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"payload");
    }

    #[test]
    fn truncated_stream_frame_is_io_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Every strict prefix that cuts into the frame is an I/O error
        // (mid-frame EOF), never a clean close and never a panic.
        for keep in 1..buf.len() {
            let mut r = std::io::Cursor::new(&buf[..keep]);
            assert!(
                matches!(read_frame(&mut r, 1024), Err(FrameError::Io(_))),
                "kept {keep} of {} bytes",
                buf.len()
            );
        }
    }

    #[test]
    fn every_frame_bit_flip_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"sensitive").unwrap();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut garbled = buf.clone();
                garbled[byte] ^= 1 << bit;
                let mut r = std::io::Cursor::new(&garbled);
                // A flip in the length prefix turns into a cap, EOF, or
                // checksum failure; a flip in payload or checksum fails
                // verification. None may yield the clean payload.
                match read_frame(&mut r, 64) {
                    Ok(payload) => {
                        panic!("flip byte {byte} bit {bit} returned {payload:?}")
                    }
                    Err(FrameError::Closed) => {
                        panic!("flip byte {byte} bit {bit} read as clean close")
                    }
                    Err(FrameError::Io(_) | FrameError::Corrupt(_)) => {}
                }
            }
        }
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameError::Corrupt("frame length exceeds cap"))
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
