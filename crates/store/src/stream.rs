//! Archive-backed trace streaming.
//!
//! [`ArchiveTraceStream`] decodes an archived `.chrp` file in bounded
//! batches through the codec's chunked path, so replaying an archived
//! trace never materialises it: peak residency is O(chunk) plus the
//! decoder's 64 KiB block buffer. Integrity matches the materialized
//! archive path — the file's FNV-1a checksum is accumulated as the
//! decoder reads the file and verified against the manifest entry before
//! the final batch is handed out, so a consumer that receives every batch
//! has replayed a checksum-clean file. On any failure (I/O, decode,
//! checksum) callers treat the entry as corrupt and regenerate, exactly
//! like [`TraceArchive::decode_file`](crate::TraceArchive::decode_file)
//! returning `None`.
//!
//! The hasher sits directly on the `File`, under the decoder's block
//! buffer, so it sees each byte of the file exactly once, in file order,
//! whole 64 KiB reads at a time. Bytes the decoder has buffered but not
//! yet decoded were hashed when they were read; verification then drains
//! whatever the decoder never asked for, so length and checksum always
//! cover exactly the file.
//!
//! Locking discipline mirrors the materialized path: probe
//! `entry_meta`/`trace_path` under the archive lock, then open and drain
//! the stream with the lock released.

use crate::archive::EntryMeta;
use crate::hash::Fnv64;
use chirp_trace::codec::ChunkedDecoder;
use chirp_trace::stream::{StreamError, TraceStream};
use chirp_trace::PackedTrace;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A reader adapter that checksums and counts every byte read through
/// it. Wraps the file itself, so the count and hash are those of the
/// bytes read from the file so far.
#[derive(Debug)]
struct HashingReader<R> {
    inner: R,
    hasher: Fnv64,
    consumed: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> HashingReader<R> {
        HashingReader { inner, hasher: Fnv64::new(), consumed: 0 }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        self.consumed += n as u64;
        Ok(n)
    }
}

/// Streams an archived trace file in bounded [`PackedTrace`] batches,
/// verifying the manifest checksum over the whole file as a side effect
/// of consumption.
pub struct ArchiveTraceStream {
    decoder: Option<ChunkedDecoder<HashingReader<File>>>,
    meta: EntryMeta,
    chunk: usize,
    len: usize,
}

impl std::fmt::Debug for ArchiveTraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArchiveTraceStream")
            .field("meta", &self.meta)
            .field("chunk", &self.chunk)
            .field("len", &self.len)
            .finish()
    }
}

impl ArchiveTraceStream {
    /// Opens the archived file at `path` for streaming against its
    /// manifest metadata. `chunk` bounds the records per batch.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened or its header is invalid;
    /// callers treat any error as a corrupt entry and regenerate.
    pub fn open(
        path: &Path,
        meta: EntryMeta,
        chunk: usize,
    ) -> Result<ArchiveTraceStream, StreamError> {
        let file = File::open(path)?;
        let decoder = ChunkedDecoder::new(HashingReader::new(file))?;
        let len = decoder.remaining();
        Ok(ArchiveTraceStream { decoder: Some(decoder), meta, chunk: chunk.max(1), len })
    }

    /// Drains the rest of the file through the hasher and checks length
    /// and checksum against the manifest entry.
    fn verify_checksum(&mut self) -> Result<(), StreamError> {
        let Some(decoder) = self.decoder.take() else { return Ok(()) };
        // Bytes still in the decoder's block were hashed when read.
        let mut reader = decoder.into_inner();
        // The record section may be followed by trailing bytes (a corrupt
        // or tampered file) the decoder never read; they are part of the
        // checksummed length, so consume to EOF before comparing.
        std::io::copy(&mut reader, &mut std::io::sink())?;
        if reader.consumed != self.meta.bytes {
            return Err(StreamError::Corrupt(format!(
                "archived trace is {} bytes, manifest says {}",
                reader.consumed, self.meta.bytes
            )));
        }
        let checksum = reader.hasher.finish();
        if checksum != self.meta.checksum {
            return Err(StreamError::Corrupt(format!(
                "archived trace checksum {checksum:016x} != manifest {:016x}",
                self.meta.checksum
            )));
        }
        Ok(())
    }
}

impl TraceStream for ArchiveTraceStream {
    fn len(&self) -> usize {
        self.len
    }

    fn chunk_records(&self) -> usize {
        self.chunk
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        let Some(decoder) = self.decoder.as_mut() else { return Ok(None) };
        match decoder.next_chunk(self.chunk) {
            Ok(Some(batch)) => {
                if decoder.remaining() == 0 {
                    // Verify before handing out the last batch, so a
                    // consumer never finishes a corrupt replay cleanly.
                    self.verify_checksum()?;
                }
                Ok(Some(batch))
            }
            Ok(None) => {
                self.verify_checksum()?;
                Ok(None)
            }
            Err(e) => {
                self.decoder = None;
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TraceArchive;
    use crate::{fnv64, TempDir};
    use chirp_trace::stream::collect_stream;
    use chirp_trace::suite::{build_suite, SuiteConfig};
    use chirp_trace::{read_trace_packed, write_trace, CodecError, TraceRecord};
    use proptest::TestRng;
    use std::fs;

    /// The codec's decode block size: files larger than a few of these
    /// make block refills split records.
    const BLOCK: u64 = 64 * 1024;
    /// Records in an archived trace spanning more than three blocks.
    const MULTI_BLOCK_RECORDS: usize = 60_000;

    fn archived(root: &TempDir, len: usize) -> (TraceArchive, u64, PackedTrace) {
        let spec = build_suite(&SuiteConfig { benchmarks: 3 }).remove(1);
        let mut archive = TraceArchive::open(root.path()).unwrap();
        let (trace, _) = archive.get_or_generate_packed(&spec, len).unwrap();
        let key = TraceArchive::content_key(&spec, len);
        (archive, key, trace)
    }

    #[test]
    fn streamed_archive_matches_materialized_decode() {
        let root = TempDir::new("archive-stream-ok");
        // The larger trace spans several decode blocks, so block refills
        // split records; unaligned chunk sizes split batches elsewhere.
        let cases = [
            (6_000, [1usize, 497, 4096, 10_000]),
            (MULTI_BLOCK_RECORDS, [1, 1_999, 4_097, 65_537]),
        ];
        for (len, chunks) in cases {
            let (archive, key, want) = archived(&root, len);
            let meta = archive.entry_meta(key).unwrap();
            assert!(
                len < MULTI_BLOCK_RECORDS || meta.bytes > 3 * BLOCK,
                "only {} bytes",
                meta.bytes
            );
            for chunk in chunks {
                let mut stream =
                    ArchiveTraceStream::open(&archive.trace_path(key), meta, chunk).unwrap();
                assert_eq!(stream.len(), len);
                let got = collect_stream(&mut stream).unwrap();
                assert_eq!(got.to_records(), want.to_records(), "len {len}, chunk {chunk}");
            }
        }
    }

    #[test]
    fn trailing_garbage_fails_checksum() {
        let root = TempDir::new("archive-stream-trailing");
        let (archive, key, _) = archived(&root, 2_000);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        fs::write(&path, &bytes).unwrap();

        let outcome = ArchiveTraceStream::open(&path, meta, 512)
            .and_then(|mut stream| collect_stream(&mut stream).map(|_| ()));
        assert!(matches!(outcome, Err(StreamError::Corrupt(_))), "got {outcome:?}");
    }

    /// Overwrites `path` with `bytes` and streams it against `meta`.
    fn stream_bytes(
        path: &Path,
        meta: EntryMeta,
        bytes: &[u8],
        chunk: usize,
    ) -> Result<PackedTrace, StreamError> {
        fs::write(path, bytes).unwrap();
        ArchiveTraceStream::open(path, meta, chunk)
            .and_then(|mut stream| collect_stream(&mut stream))
    }

    /// Positions around every block boundary of a `len`-byte file, plus
    /// the header and the last byte.
    fn block_edges(len: u64) -> Vec<usize> {
        let mut at: Vec<u64> = (0..13).chain([len - 1]).collect();
        for k in 1..=len / BLOCK {
            at.extend([k * BLOCK - 1, k * BLOCK, k * BLOCK + 1]);
        }
        at.into_iter().filter(|&p| p < len).map(|p| p as usize).collect()
    }

    #[test]
    fn corrupt_file_fails_before_the_stream_completes() {
        // FNV-1a maps any one-byte change to a different checksum, so a
        // flip anywhere — header, mid-record, astride a block refill —
        // must fail, whether or not the flipped bytes still decode.
        let root = TempDir::new("archive-stream-corrupt");
        let (archive, key, _) = archived(&root, MULTI_BLOCK_RECORDS);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let clean = fs::read(&path).unwrap();
        let mut rng = TestRng::from_env();
        let mut positions = block_edges(meta.bytes);
        positions.extend((0..40).map(|_| rng.below(meta.bytes) as usize));
        for at in positions {
            let mask = 1 + rng.below(255) as u8;
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            let outcome = stream_bytes(&path, meta, &bytes, 4_097);
            assert!(
                outcome.is_err(),
                "flip {mask:#04x} at byte {at} streamed cleanly (seed {})",
                rng.seed
            );
        }
    }

    #[test]
    fn truncated_file_fails() {
        let root = TempDir::new("archive-stream-trunc");
        let (archive, key, _) = archived(&root, MULTI_BLOCK_RECORDS);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let clean = fs::read(&path).unwrap();
        let mut rng = TestRng::from_env();
        let mut cuts = block_edges(meta.bytes);
        cuts.extend((0..20).map(|_| rng.below(meta.bytes) as usize));
        for cut in cuts {
            let outcome = stream_bytes(&path, meta, &clean[..cut], 4_097);
            assert!(outcome.is_err(), "prefix of {cut} bytes streamed cleanly (seed {})", rng.seed);
        }
    }

    #[test]
    fn random_files_never_stream() {
        let root = TempDir::new("archive-stream-noise");
        let (archive, key, _) = archived(&root, 100);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let header = fs::read(&path).unwrap()[..13].to_vec();
        let mut rng = TestRng::from_env();
        let seed = rng.seed;
        for round in 0..20u32 {
            let len = rng.below(3 * BLOCK) as usize;
            let mut noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if round.is_multiple_of(2) && len >= 13 {
                // Keep a valid header so the record decoder sees the noise.
                noise[..13].copy_from_slice(&header);
            }
            // Against the real manifest entry: always corrupt.
            let outcome = stream_bytes(&path, meta, &noise, 4_097);
            assert!(outcome.is_err(), "{len} random bytes streamed (seed {seed})");
            // Against a manifest entry that matches the noise, only the
            // decoder stands guard: it must agree with the slice decoder.
            let honest = EntryMeta { checksum: fnv64(&noise), bytes: len as u64 };
            let streamed = stream_bytes(&path, honest, &noise, 4_097);
            let sliced = read_trace_packed(&noise);
            assert_eq!(streamed.is_ok(), sliced.is_ok(), "{len} random bytes (seed {seed})");
        }
    }

    #[test]
    fn header_declaring_billions_of_records_is_an_error() {
        let root = TempDir::new("archive-stream-bomb");
        let path = root.path().join("bomb.chrp");
        let mut bytes = write_trace(&[TraceRecord::alu(0x400000)]);
        bytes[5..13].copy_from_slice(&4_000_000_000u64.to_le_bytes());
        let meta = EntryMeta { checksum: fnv64(&bytes), bytes: bytes.len() as u64 };
        let outcome = stream_bytes(&path, meta, &bytes, 65_536);
        assert!(
            matches!(outcome, Err(StreamError::Codec(CodecError::Truncated))),
            "got {outcome:?}"
        );
    }

    #[test]
    fn missing_file_is_an_open_error() {
        let root = TempDir::new("archive-stream-missing");
        let meta = EntryMeta { checksum: 0, bytes: 0 };
        assert!(ArchiveTraceStream::open(&root.path().join("nope.chrp"), meta, 64).is_err());
    }
}
