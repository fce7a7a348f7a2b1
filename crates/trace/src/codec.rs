//! Compact binary trace codec.
//!
//! The CVP-1 traces the paper uses are delta-compressed binary files; this
//! module provides an equivalent on-disk representation so generated suites
//! can be materialised once and replayed across policy runs. The format is:
//!
//! ```text
//! magic   : 4 bytes  "CHRP"
//! version : u8       (currently 1)
//! count   : u64 LE   number of records
//! records : count × { kind:u8, flags:u8, pc:varint-delta,
//!                     [ea:varint], [target:varint] }
//! ```
//!
//! PCs are encoded as zig-zag deltas from the previous record's PC, which
//! makes sequential code nearly free to store. Effective addresses and
//! targets are encoded only when the kind requires them (flag-driven).

use crate::packed::{PackedTrace, PackedTraceBuilder};
use crate::record::{InstrKind, TraceRecord};
use bytes::{BufMut, BytesMut};
use std::fmt;

const MAGIC: &[u8; 4] = b"CHRP";
const VERSION: u8 = 1;

/// Smallest encoded record: kind, flags and a one-byte PC delta.
const MIN_RECORD_BYTES: usize = 3;

const FLAG_TAKEN: u8 = 1 << 0;
const FLAG_HAS_EA: u8 = 1 << 1;
const FLAG_HAS_TARGET: u8 = 1 << 2;

/// Errors produced while decoding a trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the `CHRP` magic.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u8),
    /// The buffer ended before the declared record count was reached.
    Truncated,
    /// A record carried an unknown [`InstrKind`] discriminant.
    BadKind(u8),
    /// A varint ran past its maximum length.
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "trace buffer does not begin with CHRP magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace buffer ended before declared record count"),
            CodecError::BadKind(k) => write!(f, "unknown instruction kind discriminant {k}"),
            CodecError::BadVarint => write!(f, "malformed varint in trace buffer"),
        }
    }
}

impl std::error::Error for CodecError {}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Internal byte source for decoding: slice cursors (the in-memory decode
/// paths) and `io::Read` adapters (the chunked streaming path) feed the
/// same record decoder, so the two paths cannot diverge. End-of-source
/// must surface as [`CodecError::Truncated`] (possibly wrapped in the
/// source's error type).
trait ByteSource {
    /// The error decoding through this source produces.
    type Error: From<CodecError>;

    /// The next byte, or `Truncated` at end of source.
    fn get_u8(&mut self) -> Result<u8, Self::Error>;

    /// Fills `out` exactly, or fails with `Truncated`.
    fn fill_exact(&mut self, out: &mut [u8]) -> Result<(), Self::Error>;
}

/// Cursor over an in-memory buffer.
struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl ByteSource for SliceSource<'_> {
    type Error = CodecError;

    #[inline]
    fn get_u8(&mut self) -> Result<u8, CodecError> {
        let byte = *self.data.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    fn fill_exact(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        let end = self.pos.checked_add(out.len()).ok_or(CodecError::Truncated)?;
        if end > self.data.len() {
            return Err(CodecError::Truncated);
        }
        out.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        Ok(())
    }
}

/// Bytes [`ReaderSource`] pulls from its reader per refill.
const READ_BLOCK_BYTES: usize = 64 * 1024;

/// Adapter over any `io::Read` that owns a fixed block buffer: the
/// decoder indexes bytes out of the block and only goes back to the
/// reader (one `read` of up to [`READ_BLOCK_BYTES`]) when it runs dry, so
/// the per-byte cost is an index and a compare. Callers need not wrap the
/// reader in a `BufReader`.
struct ReaderSource<R: std::io::Read> {
    inner: R,
    buf: Box<[u8]>,
    /// Next unread byte in `buf`.
    pos: usize,
    /// End of the valid bytes in `buf`.
    end: usize,
}

impl<R: std::io::Read> ReaderSource<R> {
    fn new(inner: R) -> ReaderSource<R> {
        ReaderSource { inner, buf: vec![0; READ_BLOCK_BYTES].into_boxed_slice(), pos: 0, end: 0 }
    }

    /// Replaces the drained block with the reader's next bytes. A reader
    /// at end of stream is `Truncated` (the caller needed another byte).
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Result<(), ChunkedDecodeError> {
        debug_assert_eq!(self.pos, self.end, "refill of a non-empty block");
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => return Err(CodecError::Truncated.into()),
                Ok(n) => {
                    self.pos = 0;
                    self.end = n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ChunkedDecodeError::Io(e)),
            }
        }
    }
}

impl<R: std::io::Read> ByteSource for ReaderSource<R> {
    type Error = ChunkedDecodeError;

    #[inline]
    fn get_u8(&mut self) -> Result<u8, ChunkedDecodeError> {
        if self.pos == self.end {
            self.refill()?;
        }
        let byte = self.buf[self.pos];
        self.pos += 1;
        Ok(byte)
    }

    fn fill_exact(&mut self, out: &mut [u8]) -> Result<(), ChunkedDecodeError> {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == self.end {
                self.refill()?;
            }
            let n = (self.end - self.pos).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }
}

fn get_varint<S: ByteSource>(src: &mut S) -> Result<u64, S::Error> {
    let mut shift = 0u32;
    let mut out = 0u64;
    for _ in 0..10 {
        let byte = src.get_u8()?;
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
    Err(CodecError::BadVarint.into())
}

/// Serialises a trace into the compact binary format.
///
/// ```
/// use chirp_trace::{read_trace, write_trace, TraceRecord};
///
/// let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000_0000)];
/// let bytes = write_trace(&trace);
/// assert_eq!(read_trace(&bytes)?, trace);
/// # Ok::<(), chirp_trace::CodecError>(())
/// ```
pub fn write_trace(records: &[TraceRecord]) -> Vec<u8> {
    encode(records.len(), records.iter().copied())
}

/// Serialises a [`PackedTrace`] into the same binary format as
/// [`write_trace`] — the encoding depends only on the record sequence, not
/// on the in-memory representation.
pub fn write_trace_packed(trace: &PackedTrace) -> Vec<u8> {
    encode(trace.len(), trace.iter())
}

fn encode<I: Iterator<Item = TraceRecord>>(count: usize, records: I) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(16 + count * 4);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(count as u64);
    let mut prev_pc = 0u64;
    for rec in records {
        let mut flags = 0u8;
        if rec.taken {
            flags |= FLAG_TAKEN;
        }
        let has_ea = rec.kind.is_memory();
        let has_target = rec.kind.is_branch();
        if has_ea {
            flags |= FLAG_HAS_EA;
        }
        if has_target {
            flags |= FLAG_HAS_TARGET;
        }
        buf.put_u8(rec.kind as u8);
        buf.put_u8(flags);
        put_varint(&mut buf, zigzag_encode(rec.pc.wrapping_sub(prev_pc) as i64));
        prev_pc = rec.pc;
        if has_ea {
            put_varint(&mut buf, rec.effective_address);
        }
        if has_target {
            put_varint(&mut buf, rec.target);
        }
    }
    buf.to_vec()
}

/// Record-level decode state shared by every decode path: header
/// validation up front, then one record per [`DecoderCore::next_record`]
/// call. [`read_trace`], [`read_trace_packed`] and [`ChunkedDecoder`] all
/// drive this, so the paths cannot diverge.
struct DecoderCore {
    remaining: usize,
    prev_pc: u64,
}

impl DecoderCore {
    fn read_header<S: ByteSource>(src: &mut S) -> Result<DecoderCore, S::Error> {
        let mut magic = [0u8; 4];
        src.fill_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CodecError::BadMagic.into());
        }
        let version = src.get_u8()?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version).into());
        }
        let mut count = [0u8; 8];
        src.fill_exact(&mut count)?;
        Ok(DecoderCore { remaining: u64::from_le_bytes(count) as usize, prev_pc: 0 })
    }

    fn next_record<S: ByteSource>(&mut self, src: &mut S) -> Result<Option<TraceRecord>, S::Error> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let kind_byte = src.get_u8()?;
        let kind = InstrKind::from_u8(kind_byte).ok_or(CodecError::BadKind(kind_byte))?;
        let flags = src.get_u8()?;
        let delta = zigzag_decode(get_varint(src)?);
        let pc = self.prev_pc.wrapping_add(delta as u64);
        self.prev_pc = pc;
        let effective_address = if flags & FLAG_HAS_EA != 0 { get_varint(src)? } else { 0 };
        let target = if flags & FLAG_HAS_TARGET != 0 { get_varint(src)? } else { 0 };
        Ok(Some(TraceRecord {
            pc,
            kind,
            effective_address,
            target,
            taken: flags & FLAG_TAKEN != 0,
        }))
    }
}

/// Slice-backed decoder driving [`DecoderCore`]; the engine behind
/// [`read_trace`] and [`read_trace_packed`].
struct Decoder<'a> {
    src: SliceSource<'a>,
    core: DecoderCore,
}

impl<'a> Decoder<'a> {
    fn new(data: &'a [u8]) -> Result<Decoder<'a>, CodecError> {
        // Historical contract: an undersized buffer is Truncated even when
        // its first bytes would also fail the magic check.
        if data.len() < 4 + 1 + 8 {
            return Err(CodecError::Truncated);
        }
        let mut src = SliceSource { data, pos: 0 };
        let core = DecoderCore::read_header(&mut src)?;
        Ok(Decoder { src, core })
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        self.core.next_record(&mut self.src)
    }

    /// Records to reserve up front: the declared count, capped at what
    /// the undecoded bytes can hold, so a header declaring billions of
    /// records cannot make the caller allocate for them.
    fn capacity_hint(&self) -> usize {
        let undecoded = self.src.data.len() - self.src.pos;
        self.core.remaining.min(undecoded / MIN_RECORD_BYTES)
    }
}

/// Errors produced by the chunked (reader-backed) decode path: either a
/// malformed encoding or an I/O failure from the underlying reader.
#[derive(Debug)]
pub enum ChunkedDecodeError {
    /// The byte stream is not a valid `CHRP` encoding.
    Codec(CodecError),
    /// The underlying reader failed (not end-of-stream — a premature EOF
    /// surfaces as `Codec(Truncated)`).
    Io(std::io::Error),
}

impl From<CodecError> for ChunkedDecodeError {
    fn from(e: CodecError) -> Self {
        ChunkedDecodeError::Codec(e)
    }
}

impl fmt::Display for ChunkedDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkedDecodeError::Codec(e) => write!(f, "{e}"),
            ChunkedDecodeError::Io(e) => write!(f, "trace stream read failed: {e}"),
        }
    }
}

impl std::error::Error for ChunkedDecodeError {}

/// Chunked decode path over any [`std::io::Read`]: records come out in
/// bounded [`PackedTrace`] batches, so peak decode memory is O(chunk)
/// instead of O(trace). Drives the same decoder core as the in-memory
/// paths, so the decoded record sequence is bit-identical to
/// [`read_trace_packed`] on the concatenated chunks.
///
/// The decoder reads its source in blocks of 64 KiB into a buffer it
/// owns, so pass file readers unwrapped: a `BufReader` would only add a
/// second copy.
///
/// ```
/// use chirp_trace::{codec::ChunkedDecoder, write_trace, TraceRecord};
///
/// let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000)];
/// let bytes = write_trace(&trace);
/// let mut dec = ChunkedDecoder::new(&bytes[..])?;
/// assert_eq!(dec.remaining(), 2);
/// let chunk = dec.next_chunk(1)?.expect("first record");
/// assert_eq!(chunk.len(), 1);
/// # Ok::<(), chirp_trace::codec::ChunkedDecodeError>(())
/// ```
pub struct ChunkedDecoder<R: std::io::Read> {
    src: ReaderSource<R>,
    core: DecoderCore,
}

impl<R: std::io::Read> ChunkedDecoder<R> {
    /// Reads and validates the `CHRP` header, leaving the reader
    /// positioned at the first record.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic/version, a header cut short
    /// (`Codec(Truncated)`), or a reader I/O error.
    pub fn new(reader: R) -> Result<ChunkedDecoder<R>, ChunkedDecodeError> {
        let mut src = ReaderSource::new(reader);
        let core = DecoderCore::read_header(&mut src)?;
        Ok(ChunkedDecoder { src, core })
    }

    /// Records not yet decoded (per the header's declared count).
    pub fn remaining(&self) -> usize {
        self.core.remaining
    }

    /// Decodes up to `max` records into a fresh [`PackedTrace`]; `None`
    /// once the declared record count is exhausted.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`read_trace`], plus reader I/O errors. After
    /// an error the decoder is poisoned — further calls are unspecified
    /// (the stream position is mid-record).
    pub fn next_chunk(&mut self, max: usize) -> Result<Option<PackedTrace>, ChunkedDecodeError> {
        if self.core.remaining == 0 {
            return Ok(None);
        }
        let take = max.max(1).min(self.core.remaining);
        let mut builder = PackedTraceBuilder::with_capacity(take);
        for _ in 0..take {
            match self.core.next_record(&mut self.src)? {
                Some(rec) => builder.push(rec),
                None => break,
            }
        }
        Ok(Some(builder.finish()))
    }

    /// Consumes the decoder, returning the underlying reader — lets a
    /// checksumming reader be inspected once decoding is done. The reader
    /// has been read up to the end of the last block the decoder pulled:
    /// bytes buffered but not yet decoded are dropped here, after the
    /// reader (and any wrapper counting what passes through it) saw them.
    pub fn into_inner(self) -> R {
        self.src.inner
    }
}

/// Deserialises a trace previously produced by [`write_trace`].
///
/// # Errors
///
/// Returns a [`CodecError`] if the buffer is truncated, carries an unknown
/// version or kind, or contains a malformed varint.
pub fn read_trace(data: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
    let mut decoder = Decoder::new(data)?;
    let mut out = Vec::with_capacity(decoder.capacity_hint());
    while let Some(rec) = decoder.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

/// Reads the record count out of a `CHRP` header without decoding any
/// records — lets a client declare a trace's size (for server-side
/// admission control) from the first 13 bytes of the file.
///
/// # Errors
///
/// Rejects buffers whose header is truncated, carries the wrong magic or
/// an unsupported version. The records themselves are not validated.
pub fn peek_record_count(data: &[u8]) -> Result<u64, CodecError> {
    if data.len() < 4 + 1 + 8 {
        return Err(CodecError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if data[4] != VERSION {
        return Err(CodecError::UnsupportedVersion(data[4]));
    }
    Ok(u64::from_le_bytes(data[5..13].try_into().expect("8-byte slice")))
}

/// Deserialises a trace directly into [`PackedTrace`] form, never
/// materialising the flat 40-byte-per-record vector — the suite runner's
/// archive-decode path. Accepts exactly the buffers [`read_trace`] accepts
/// and yields the identical record sequence.
///
/// # Errors
///
/// Same failure modes as [`read_trace`].
pub fn read_trace_packed(data: &[u8]) -> Result<PackedTrace, CodecError> {
    let mut decoder = Decoder::new(data)?;
    let mut builder = PackedTraceBuilder::with_capacity(decoder.capacity_hint());
    while let Some(rec) = decoder.next_record()? {
        builder.push(rec);
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_trace(&[]);
        assert_eq!(read_trace(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn mixed_trace_roundtrips() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::store(0x400008, 0x1_0000_0000),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::cond_branch(0x40000c, 0x400010, false),
            TraceRecord::call(0x400010, 0x500000),
            TraceRecord::ret(0x500040, 0x400014),
            TraceRecord::indirect_jump(0x400014, 0x600000),
        ];
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn backward_pc_deltas_roundtrip() {
        // Returns jump backwards; zig-zag must handle negative deltas.
        let trace = vec![TraceRecord::alu(0x9000_0000), TraceRecord::alu(0x400000)];
        assert_eq!(read_trace(&write_trace(&trace)).unwrap(), trace);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[0] = b'X';
        assert_eq!(read_trace(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[4] = 99;
        assert_eq!(read_trace(&bytes), Err(CodecError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            assert!(read_trace(&bytes[..cut]).is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(4)]);
        // kind byte of first record sits right after the 13-byte header
        bytes[13] = 42;
        assert_eq!(read_trace(&bytes), Err(CodecError::BadKind(42)));
    }

    #[test]
    fn packed_write_matches_flat_write() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::ret(0x500040, 0x400014),
        ];
        let packed = crate::packed::PackedTrace::from_records(&trace);
        assert_eq!(write_trace_packed(&packed), write_trace(&trace));
    }

    #[test]
    fn packed_read_matches_flat_read() {
        let trace = vec![
            TraceRecord::store(0x400008, 0x1_0000_0000),
            TraceRecord::indirect_jump(0x400014, 0x600000),
            TraceRecord::alu(0x400018),
        ];
        let bytes = write_trace(&trace);
        let packed = read_trace_packed(&bytes).unwrap();
        assert_eq!(packed.to_records(), trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn packed_read_rejects_what_flat_read_rejects() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[0] = b'X';
        assert_eq!(read_trace_packed(&bytes), Err(CodecError::BadMagic));
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            assert!(read_trace_packed(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn peek_reads_count_without_decoding() {
        let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000)];
        let bytes = write_trace(&trace);
        assert_eq!(peek_record_count(&bytes), Ok(2));
        // Header-only prefix still answers; shorter prefixes are truncated.
        assert_eq!(peek_record_count(&bytes[..13]), Ok(2));
        assert_eq!(peek_record_count(&bytes[..12]), Err(CodecError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(peek_record_count(&bad), Err(CodecError::BadMagic));
        let mut bad = bytes;
        bad[4] = 7;
        assert_eq!(peek_record_count(&bad), Err(CodecError::UnsupportedVersion(7)));
    }

    #[test]
    fn chunked_decode_matches_whole_buffer_decode() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::call(0x400010, 0x500000),
            TraceRecord::ret(0x500040, 0x400014),
        ];
        let bytes = write_trace(&trace);
        for chunk in [1usize, 2, 3, 5, 64] {
            let mut dec = ChunkedDecoder::new(&bytes[..]).unwrap();
            let mut got = Vec::new();
            while let Some(batch) = dec.next_chunk(chunk).unwrap() {
                assert!(batch.len() <= chunk);
                got.extend(batch.iter());
            }
            assert_eq!(got, trace, "chunk size {chunk}");
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn chunked_decode_rejects_what_whole_buffer_decode_rejects() {
        let mut bad = write_trace(&[TraceRecord::alu(0)]);
        bad[0] = b'X';
        assert!(matches!(
            ChunkedDecoder::new(&bad[..]),
            Err(ChunkedDecodeError::Codec(CodecError::BadMagic))
        ));
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            let drained = ChunkedDecoder::new(&bytes[..cut]).and_then(|mut dec| {
                while dec.next_chunk(4)?.is_some() {}
                Ok(())
            });
            assert!(drained.is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn chunked_decode_empty_trace_yields_no_chunks() {
        let bytes = write_trace(&[]);
        let mut dec = ChunkedDecoder::new(&bytes[..]).unwrap();
        assert_eq!(dec.remaining(), 0);
        assert!(dec.next_chunk(16).unwrap().is_none());
    }

    /// A reader that hands out at most a few bytes per call, cycling the
    /// read size through `1..=max`, so the decoder's block refills land
    /// mid-record. Every third call fails with `Interrupted` when
    /// `interrupt` is set.
    struct ShortReads<'a> {
        data: &'a [u8],
        max: usize,
        calls: usize,
        interrupt: bool,
    }

    impl ShortReads<'_> {
        fn new(data: &[u8], max: usize) -> ShortReads<'_> {
            ShortReads { data, max, calls: 0, interrupt: false }
        }
    }

    impl std::io::Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = (self.calls % self.max + 1).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Drains a chunked decoder, returning every record it produced.
    fn drain<R: std::io::Read>(
        mut dec: ChunkedDecoder<R>,
        chunk: usize,
    ) -> Result<Vec<TraceRecord>, ChunkedDecodeError> {
        let mut got = Vec::new();
        while let Some(batch) = dec.next_chunk(chunk)? {
            got.extend(batch.iter());
        }
        Ok(got)
    }

    /// An encoding several decode blocks long, mixing every record shape.
    fn multi_block_trace() -> Vec<TraceRecord> {
        let mut trace = Vec::new();
        let mut pc = 0x40_0000u64;
        for i in 0..40_000u64 {
            pc = pc.wrapping_add(4 + (i % 7) * 0x1000);
            trace.push(match i % 5 {
                0 => TraceRecord::alu(pc),
                1 => TraceRecord::load(pc, 0x7fff_0000_0000 + i * 64),
                2 => TraceRecord::cond_branch(pc, pc ^ 0xfff0, i.is_multiple_of(3)),
                3 => TraceRecord::store(pc, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                _ => TraceRecord::ret(pc, pc.wrapping_sub(0x123_4567)),
            });
        }
        trace
    }

    #[test]
    fn header_declaring_billions_of_records_is_truncated_not_an_abort() {
        for count in [4_000_000_000u64, u64::MAX] {
            let mut bytes = write_trace(&[TraceRecord::alu(0x400000)]);
            bytes[5..13].copy_from_slice(&count.to_le_bytes());
            bytes.truncate(16);
            assert_eq!(read_trace(&bytes), Err(CodecError::Truncated), "count {count}");
            assert_eq!(read_trace_packed(&bytes), Err(CodecError::Truncated), "count {count}");
            let streamed = ChunkedDecoder::new(&bytes[..]).and_then(|dec| drain(dec, 4096));
            assert!(
                matches!(streamed, Err(ChunkedDecodeError::Codec(CodecError::Truncated))),
                "count {count}: {streamed:?}"
            );
        }
    }

    #[test]
    fn multi_block_stream_matches_slice_decode_at_any_read_size() {
        let trace = multi_block_trace();
        let bytes = write_trace(&trace);
        assert!(bytes.len() > 3 * READ_BLOCK_BYTES, "only {} bytes", bytes.len());
        let whole = ChunkedDecoder::new(&bytes[..]).and_then(|dec| drain(dec, 4_093)).unwrap();
        assert_eq!(whole, trace, "full-block reads");
        for (max, interrupt) in [(1usize, false), (7, true), (4_099, false), (70_000, true)] {
            let reader = ShortReads { interrupt, ..ShortReads::new(&bytes, max) };
            let got = ChunkedDecoder::new(reader).and_then(|dec| drain(dec, 1_000)).unwrap();
            assert_eq!(got, trace, "reads of at most {max} bytes, interrupt {interrupt}");
        }
    }

    #[test]
    fn reader_failures_surface_as_io_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::PermissionDenied.into())
            }
        }
        assert!(matches!(ChunkedDecoder::new(Failing), Err(ChunkedDecodeError::Io(_))));
        // The failure can also strike after the header, mid-record.
        let bytes = write_trace(&multi_block_trace());
        let failing_tail = std::io::Read::chain(&bytes[..READ_BLOCK_BYTES + 100], Failing);
        let outcome = ChunkedDecoder::new(failing_tail).and_then(|dec| drain(dec, 512));
        assert!(matches!(outcome, Err(ChunkedDecodeError::Io(_))), "{outcome:?}");
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff_ffff] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Any encodable record: the codec stores effective addresses only
        /// for memory kinds and targets only for branch kinds, so those
        /// fields are zeroed where the format does not carry them.
        fn arb_record() -> impl Strategy<Value = TraceRecord> {
            (0usize..InstrKind::ALL.len(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>())
                .prop_map(|(k, pc, ea, target, taken)| {
                    let kind = InstrKind::ALL[k];
                    TraceRecord {
                        pc,
                        kind,
                        effective_address: if kind.is_memory() { ea } else { 0 },
                        target: if kind.is_branch() { target } else { 0 },
                        taken,
                    }
                })
        }

        proptest! {
            #[test]
            fn arbitrary_streams_roundtrip(trace in vec(arb_record(), 0..200usize)) {
                let bytes = write_trace(&trace);
                prop_assert_eq!(read_trace(&bytes).as_ref(), Ok(&trace));
            }

            #[test]
            fn every_strict_prefix_is_rejected(
                trace in vec(arb_record(), 0..40usize),
                max_read in 1usize..16,
            ) {
                // The header declares a record count, so no strict prefix
                // of a valid encoding may decode successfully, on either
                // path.
                let bytes = write_trace(&trace);
                for cut in 0..bytes.len() {
                    prop_assert!(
                        read_trace(&bytes[..cut]).is_err(),
                        "prefix of length {} decoded",
                        cut
                    );
                    let streamed = ChunkedDecoder::new(ShortReads::new(&bytes[..cut], max_read))
                        .and_then(|dec| drain(dec, 8));
                    prop_assert!(
                        matches!(streamed, Err(ChunkedDecodeError::Codec(_))),
                        "prefix of length {} streamed",
                        cut
                    );
                }
            }

            #[test]
            fn packed_and_flat_decoders_agree(trace in vec(arb_record(), 0..200usize)) {
                let bytes = write_trace(&trace);
                let packed = read_trace_packed(&bytes).unwrap();
                prop_assert_eq!(packed.to_records(), trace.clone());
                prop_assert_eq!(write_trace_packed(&packed), bytes);
            }

            #[test]
            fn chunked_decode_agrees_with_flat_decode(
                trace in vec(arb_record(), 0..300usize),
                chunk in 1usize..64,
                max_read in 1usize..24,
            ) {
                // Reads of a few bytes split records at every refill.
                let bytes = write_trace(&trace);
                let got = ChunkedDecoder::new(ShortReads::new(&bytes, max_read))
                    .and_then(|dec| drain(dec, chunk))
                    .unwrap();
                prop_assert_eq!(got, trace);
            }

            #[test]
            fn chunked_decode_of_random_bytes_errs_without_panicking(
                body in vec(any::<u8>(), 0..400usize),
                count in 0u64..1_000,
                max_read in 1usize..32,
            ) {
                // A valid header over random record bytes: reaches the
                // record decoder, which must fail cleanly or decode.
                let mut bytes = write_trace(&[]);
                bytes[5..13].copy_from_slice(&count.to_le_bytes());
                bytes.extend_from_slice(&body);
                let streamed = ChunkedDecoder::new(ShortReads::new(&bytes, max_read))
                    .and_then(|dec| drain(dec, 16));
                let sliced = read_trace_packed(&bytes).map(|t| t.to_records());
                prop_assert_eq!(streamed.is_ok(), sliced.is_ok());
                if let (Ok(streamed), Ok(sliced)) = (streamed, sliced) {
                    prop_assert_eq!(streamed, sliced);
                }
                // Pure noise, header included.
                let noise = ChunkedDecoder::new(&body[..]).and_then(|dec| drain(dec, 16));
                prop_assert!(noise.is_err() || body.starts_with(MAGIC));
            }

            #[test]
            fn chunked_decode_of_bit_flips_matches_slice_decode(
                trace in vec(arb_record(), 1..80usize),
                at in any::<u64>(),
                bit in 0u8..8,
            ) {
                // A flipped bit may still decode (an unused flag bit, a
                // different PC); the streamed path must then agree with
                // the packed slice path (both keep only the fields the
                // record's kind carries), and fail exactly when it fails.
                let mut bytes = write_trace(&trace);
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << bit;
                let streamed = ChunkedDecoder::new(ShortReads::new(&bytes, 9))
                    .and_then(|dec| drain(dec, 16));
                let sliced = read_trace_packed(&bytes).map(|t| t.to_records());
                prop_assert_eq!(streamed.is_ok(), sliced.is_ok());
                if let (Ok(streamed), Ok(sliced)) = (streamed, sliced) {
                    prop_assert_eq!(streamed, sliced);
                }
            }

            #[test]
            fn version_byte_is_enforced(trace in vec(arb_record(), 0..8usize), v in any::<u8>()) {
                let mut bytes = write_trace(&trace);
                bytes[4] = v;
                if v == VERSION {
                    prop_assert!(read_trace(&bytes).is_ok());
                } else {
                    prop_assert_eq!(read_trace(&bytes), Err(CodecError::UnsupportedVersion(v)));
                }
            }
        }
    }
}
