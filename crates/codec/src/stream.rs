//! The codec-stream format's shared pieces and its reader.
//!
//! The ATC compressor streams addresses one at a time, so it needs
//! `std::io::Write`/`Read` front ends over the block codecs. A
//! [`CodecWriter`] buffers raw bytes up to a segment size, compresses each
//! segment, and frames it as `varint(compressed_len) ++ compressed bytes`; a
//! zero-length varint terminates the stream, allowing multiple logical
//! streams to share one file. [`CodecReader`] mirrors this, decoding on
//! the calling thread or — given `threads > 1` — ahead of it as engine
//! tasks.
//!
//! Adapters hold the codec behind an [`Arc`], so long-lived containers (the
//! ATC directory writer, the TCgen baseline) can share one codec across
//! many concurrent streams without lifetime gymnastics.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//! use atc_codec::{Bzip, Codec, CodecReader, CodecWriter};
//!
//! let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
//! let mut w = CodecWriter::new(Vec::new(), Arc::clone(&codec));
//! w.write_all(b"stream me")?;
//! let file = w.finish()?;
//!
//! let mut r = CodecReader::new(&file[..], codec);
//! let mut back = String::new();
//! r.read_to_string(&mut back)?;
//! assert_eq!(back, "stream me");
//! # Ok(())
//! # }
//! ```
//!
//! [`CodecWriter`]: crate::CodecWriter

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use atc_engine::{panic_message, Engine};

use crate::error::CodecError;
use crate::parallel::{Pool, IN_FLIGHT_PER_WORKER};
use crate::varint;
use crate::Codec;

/// Default raw-bytes-per-segment for streaming adapters.
pub const DEFAULT_SEGMENT_SIZE: usize = 1 << 20;

/// Where one sealed segment landed in the compressed stream: the byte
/// offset of its `varint(compressed_len)` header, the framed length
/// (header + payload), and how many raw bytes it decodes to.
///
/// The stream writer records one of these per sealed segment — for free,
/// since both values are already on hand when the segment is framed — and
/// hands the list back from [`CodecWriter::finish_with_segments`].
/// Containers persist it as a seek sidecar so readers can jump to any
/// segment without decoding the prefix.
///
/// [`CodecWriter::finish_with_segments`]:
///     crate::CodecWriter::finish_with_segments
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Byte offset of the segment's varint header in the codec stream.
    pub file_offset: u64,
    /// Framed length on disk: varint header plus compressed payload.
    pub compressed_len: u64,
    /// Raw (decoded) length of the segment.
    pub raw_len: u64,
}

/// Reusable buffers of one codec stream: the raw segment accumulator and
/// the compressed-segment scratch.
///
/// A [`CodecWriter`] owns these internally; workloads that open many
/// short streams back to back (the lossy container writes one stream per
/// chunk file) can thread a `StreamScratch` through
/// [`CodecWriter::with_scratch`] / [`CodecWriter::finish_with_scratch`] so
/// every stream after the first reuses the same allocations.
///
/// [`CodecWriter`]: crate::CodecWriter
/// [`CodecWriter::with_scratch`]: crate::CodecWriter::with_scratch
/// [`CodecWriter::finish_with_scratch`]: crate::CodecWriter::finish_with_scratch
#[derive(Debug, Default)]
pub struct StreamScratch {
    pub(crate) buf: Vec<u8>,
    /// The writer's pool of compressed-segment buffers (one deep inline).
    pub(crate) packed: Vec<Vec<u8>>,
}

impl StreamScratch {
    /// Heap capacity currently held, in bytes (diagnostics only).
    pub fn capacity(&self) -> usize {
        self.buf.capacity() + self.packed.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// Reads one framed segment (`varint(len) ++ len bytes`) into `packed`;
/// `Ok(false)` is the zero-length end-of-stream marker.
///
/// The length is untrusted, so `packed` grows in steps of at most
/// [`DEFAULT_SEGMENT_SIZE`] as bytes actually arrive: an honest segment
/// is one `resize` and a few reads, and a lying length costs a
/// corrupt-segment error after buffering what the input really holds,
/// never an allocation of the claimed size. Only an end of input before
/// the length varint stays an `UnexpectedEof`, the clean end a frame
/// reader may stop at; an end inside a segment is
/// [`CodecError::Corrupt`].
pub(crate) fn read_segment<R: Read>(inner: &mut R, packed: &mut Vec<u8>) -> io::Result<bool> {
    packed.clear();
    let seg_len = usize::try_from(varint::read_u64(inner)?).map_err(|_| {
        io::Error::from(CodecError::Corrupt(
            "segment length exceeds address space".into(),
        ))
    })?;
    while packed.len() < seg_len {
        let mut got = packed.len();
        // bounded: DEFAULT_SEGMENT_SIZE more bytes per step, each step
        // filled by bytes that really arrived before the next one.
        packed.resize(got + (seg_len - got).min(DEFAULT_SEGMENT_SIZE), 0);
        while got < packed.len() {
            match inner.read(&mut packed[got..]) {
                Ok(0) => {
                    return Err(io::Error::from(CodecError::Corrupt(format!(
                        "segment truncated: got {got} of {seg_len} bytes"
                    ))))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(seg_len > 0)
}

/// Decompresses one packed segment into `out`, refusing the zero-raw-byte
/// segment no writer produces. `out` is left empty on error, so a reader
/// that decodes into its live buffer never exposes a corrupt segment's
/// partial output.
fn decode_segment(codec: &dyn Codec, packed: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    if let Err(e) = codec.decompress_into(packed, out) {
        out.clear();
        return Err(io::Error::from(e));
    }
    if out.is_empty() {
        return Err(io::Error::from(CodecError::Corrupt("empty segment".into())));
    }
    Ok(())
}

/// A `Read` adapter that decompresses a [`CodecWriter`](crate::CodecWriter)
/// stream, on the calling thread or ahead of it on the shared engine.
///
/// Built with [`CodecReader::new`] (or any constructor given
/// `threads <= 1`) every segment is read and decoded on the calling
/// thread, into one reused buffer, when the previous one is used up.
/// `threads > 1` attaches a readahead window that the *consumer* drives:
/// each refill frames further packed segments off the input and submits
/// their decodes as engine tasks until `threads × `[`IN_FLIGHT_PER_WORKER`]
/// segments are undelivered, then takes the next segment in stream order
/// out of an ordered reassembly map. Nothing is submitted except from a
/// refill, so a consumer that stops reading holds at most one window of
/// segments, and no thread but the caller's ever touches `R`.
///
/// The first error — framing, CRC, a panicking decode task — is delivered
/// after all good data before it and then latches: every later `read` /
/// `fill_buf` fails with it rather than decaying into a clean EOF.
/// Packed and decoded buffers are reused across segments in both modes,
/// so steady-state reads perform no per-segment allocation.
///
/// Also implements [`BufRead`]: [`BufRead::fill_buf`] hands out the
/// not-yet-consumed tail of the *decoded segment buffer itself*, so
/// frame-granular consumers can parse decoded bytes in place instead of
/// paying the `Read::read` copy into their own buffer.
#[derive(Debug)]
pub struct CodecReader<R: Read> {
    inner: R,
    codec: Arc<dyn Codec>,
    /// The inline mode's packed-segment scratch.
    packed: Vec<u8>,
    current: Vec<u8>,
    pos: usize,
    /// Nothing more will be framed off `inner`: the end-of-stream marker
    /// (or a framing error) was read.
    finished: bool,
    segments_decoded: u64,
    /// First error seen, replayed on every subsequent read.
    error: Option<(io::ErrorKind, String)>,
    window: Option<Window>,
}

/// The readahead state of an engine-backed [`CodecReader`].
#[derive(Debug)]
struct Window {
    pool: Pool,
    /// Decoded segments (or failures) that arrived ahead of their turn.
    pending: BTreeMap<u64, io::Result<Vec<u8>>>,
    /// Sequence number of the next segment to submit.
    next_submit: u64,
    /// Sequence number of the next segment to hand to the consumer.
    next_seq: u64,
    /// Packed buffers returned by finished tasks, for the next frames.
    packed_pool: Vec<Vec<u8>>,
    /// Decoded buffers the consumer is done with, for the next tasks.
    out_pool: Vec<Vec<u8>>,
}

impl Window {
    /// Submits the decode of `packed` as the next segment in sequence.
    fn submit(&mut self, packed: Vec<u8>, codec: &Arc<dyn Codec>) {
        let seq = self.next_submit;
        self.next_submit += 1;
        let mut out = self.out_pool.pop().unwrap_or_default();
        let codec = Arc::clone(codec);
        let tx = self.pool.tx.clone();
        self.pool.engine.submit(move || {
            // A panicking codec must surface as a latched error, not a
            // segment the consumer waits for forever: catch and convert.
            let decoded = catch_unwind(AssertUnwindSafe(|| {
                decode_segment(&*codec, &packed, &mut out)
            }));
            let result = match decoded {
                Ok(r) => r.map(|()| out),
                Err(p) => Err(io::Error::other(format!(
                    "decompression task panicked: {}",
                    panic_message(&*p)
                ))),
            };
            // The reader may already be dropped, its window with it.
            let _ = tx.send((seq, packed, result));
        });
    }

    /// Blocks until segment `next_seq` has arrived and takes it: only
    /// that segment may leave the reassembly map.
    fn take_next(&mut self) -> io::Result<Vec<u8>> {
        let result = loop {
            if let Some(result) = self.pending.remove(&self.next_seq) {
                break result;
            }
            match self.pool.results.recv() {
                Ok((seq, packed, result)) => {
                    self.packed_pool.push(packed);
                    self.pending.insert(seq, result);
                }
                // The window holds its own Sender, so this is
                // unreachable; keep the guard anyway.
                Err(_) => break Err(io::Error::other("decode result channel closed")),
            }
        };
        self.next_seq += 1;
        result
    }
}

impl<R: Read> CodecReader<R> {
    /// Creates an inline reader over a terminated codec stream: no
    /// engine, channel or task is involved.
    pub fn new(inner: R, codec: Arc<dyn Codec>) -> Self {
        Self::build(inner, codec, None)
    }

    /// Creates a reader decoding up to `threads` segments at a time ahead
    /// of the consumer on the process-wide engine (grown to at least
    /// `threads` workers; `0`/`1` = inline).
    pub fn with_threads(inner: R, codec: Arc<dyn Codec>, threads: usize) -> Self {
        let pool = (threads > 1).then(|| Pool::attach(Engine::global_with(threads), threads));
        Self::build(inner, codec, pool)
    }

    /// Like [`CodecReader::with_threads`], but submitting the decode
    /// tasks to an explicit `engine` (the injection point for tests and
    /// multi-stream containers; `threads` only bounds this reader's
    /// window, and `0`/`1` still means inline).
    pub fn with_engine(inner: R, codec: Arc<dyn Codec>, threads: usize, engine: Engine) -> Self {
        let pool = (threads > 1).then(|| Pool::attach(engine, threads));
        Self::build(inner, codec, pool)
    }

    fn build(inner: R, codec: Arc<dyn Codec>, pool: Option<Pool>) -> Self {
        Self {
            inner,
            codec,
            packed: Vec::new(),
            current: Vec::new(),
            pos: 0,
            finished: false,
            segments_decoded: 0,
            error: None,
            window: pool.map(|pool| Window {
                pool,
                pending: BTreeMap::new(),
                next_submit: 0,
                next_seq: 0,
                packed_pool: Vec::new(),
                out_pool: Vec::new(),
            }),
        }
    }

    /// Consumes the adapter and returns the inner reader, positioned just
    /// after the end-of-stream marker if the stream was fully read.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Number of segments decompressed and delivered so far — the work
    /// counter a seek implementation uses to prove it skipped the prefix
    /// instead of decoding through it.
    pub fn segments_decoded(&self) -> u64 {
        self.segments_decoded
    }

    /// Makes the next segment current; `Ok(false)` at clean end of
    /// stream. The first error latches.
    fn refill(&mut self) -> io::Result<bool> {
        if let Some((kind, msg)) = &self.error {
            return Err(io::Error::new(*kind, msg.clone()));
        }
        let result = self.next_segment();
        match &result {
            Ok(true) => self.segments_decoded += 1,
            Ok(false) => {}
            Err(e) => self.error = Some((e.kind(), e.to_string())),
        }
        result
    }

    fn next_segment(&mut self) -> io::Result<bool> {
        let Some(window) = &mut self.window else {
            if self.finished || !read_segment(&mut self.inner, &mut self.packed)? {
                self.finished = true;
                return Ok(false);
            }
            // Reset the consumer view *before* decoding into the live
            // buffer: a decode error empties `current`, and a stale `pos`
            // past its end would make the next `fill_buf` slice panic.
            self.pos = 0;
            decode_segment(&*self.codec, &self.packed, &mut self.current)?;
            return Ok(true);
        };
        // Top the window up before waiting on it, so the workers are
        // busy while this thread blocks for its segment.
        let cap = (window.pool.threads * IN_FLIGHT_PER_WORKER) as u64;
        while !self.finished && window.next_submit - window.next_seq < cap {
            let mut packed = window.packed_pool.pop().unwrap_or_default();
            match read_segment(&mut self.inner, &mut packed) {
                Ok(true) => window.submit(packed, &self.codec),
                Ok(false) => self.finished = true,
                Err(e) => {
                    // Filed under the next unused sequence number, the
                    // error sorts after every submitted segment: the
                    // consumer sees all good data, then the failure —
                    // exactly the inline ordering.
                    window.pending.insert(window.next_submit, Err(e));
                    window.next_submit += 1;
                    self.finished = true;
                }
            }
        }
        if window.next_seq == window.next_submit {
            return Ok(false);
        }
        let consumed = std::mem::replace(&mut self.current, window.take_next()?);
        window.out_pool.push(consumed);
        self.pos = 0;
        Ok(true)
    }
}

impl<R: Read> Read for CodecReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl<R: Read> BufRead for CodecReader<R> {
    /// Returns the unconsumed tail of the current decoded segment, making
    /// the next segment current if it is exhausted. An empty slice means
    /// clean end of stream. Errors latch exactly like `read`.
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.pos == self.current.len() {
            if !self.refill()? {
                return Ok(&[]);
            }
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.current.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bzip, CodecWriter, Lz, Store};
    use std::io::Write;

    fn roundtrip(codec: Arc<dyn Codec>, data: &[u8], segment: usize) {
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), segment);
        w.write_all(data).unwrap();
        let file = w.finish().unwrap();
        let mut r = CodecReader::new(&file[..], codec);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_stream() {
        let codecs: [Arc<dyn Codec>; 3] = [
            Arc::new(Store),
            Arc::new(Bzip::default()),
            Arc::new(Lz::default()),
        ];
        for codec in codecs {
            roundtrip(codec, b"", 4096);
        }
    }

    #[test]
    fn cross_codec_matrix() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 97) as u8).collect();
        let codecs: [Arc<dyn Codec>; 3] = [
            Arc::new(Store),
            Arc::new(Bzip::with_block_size(4096)),
            Arc::new(Lz::default()),
        ];
        for codec in codecs {
            for segment in [1usize, 100, 4096, 100_000] {
                roundtrip(Arc::clone(&codec), &data, segment);
            }
        }
    }

    /// Regression test: a decode error in a later segment must not leave
    /// `pos` pointing into the (reused, now shorter) segment buffer — a
    /// retried `read` used to underflow `current.len() - pos` and panic,
    /// or hand out bytes of the corrupt segment.
    #[test]
    fn read_after_decode_error_never_panics_or_leaks() {
        let codec: Arc<dyn Codec> = Arc::new(Lz::default());
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 101) as u8).collect();
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 3000);
        w.write_all(&data).unwrap();
        let mut file = w.finish().unwrap();
        // Corrupt the second segment's payload, deep enough that framing
        // still parses (CRC/structure check fails instead).
        let first_len = {
            let mut cursor = &file[..];
            let len = varint::read_u64(&mut cursor).unwrap() as usize;
            (file.len() - cursor.len()) + len
        };
        let pos = file.len() - 8;
        assert!(pos > first_len, "corruption must land in segment 2");
        file[pos] ^= 0x40;

        let mut r = CodecReader::new(&file[..], Arc::clone(&codec));
        let mut back = Vec::new();
        assert!(r.read_to_end(&mut back).is_err());
        // First segment was delivered intact before the error.
        assert_eq!(back, data[..3000]);
        // Retried reads must not panic; any bytes they return would be
        // corrupt-segment leakage, so only Err or clean EOF is allowed.
        let mut byte = [0u8; 1];
        for _ in 0..3 {
            assert!(matches!(r.read(&mut byte), Err(_) | Ok(0)));
        }
    }

    #[test]
    fn unterminated_stream_errors() {
        let mut file = Vec::new();
        varint::write_u64(&mut file, 4).unwrap();
        file.extend_from_slice(b"da"); // segment promises 4, delivers 2
        let mut r = CodecReader::new(&file[..], Arc::new(Store) as Arc<dyn Codec>);
        let mut back = Vec::new();
        assert!(r.read_to_end(&mut back).is_err());

        // A length of 2^62 over two bytes of payload: the same error, not
        // an allocation of the claimed size.
        let mut file = Vec::new();
        varint::write_u64(&mut file, 1 << 62).unwrap();
        file.extend_from_slice(b"da");
        let mut r = CodecReader::new(&file[..], Arc::new(Store) as Arc<dyn Codec>);
        let err = r.read_to_end(&mut back).unwrap_err();
        // A short segment is corrupt, never the clean end of a stream.
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("segment truncated: got 2 of 4611686018427387904 bytes"),
            "{err}"
        );
    }

    /// An end of input before a length varint is the clean end a frame
    /// reader may stop at; an end after a length, however many payload
    /// bytes arrived, is a corrupt segment.
    #[test]
    fn read_segment_eof_is_clean_only_before_a_length() {
        let mut packed = Vec::new();
        let err = read_segment(&mut &b""[..], &mut packed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        for (len, payload) in [(4u64, &b""[..]), (4, b"da"), (5, b"data")] {
            let mut file = Vec::new();
            varint::write_u64(&mut file, len).unwrap();
            file.extend_from_slice(payload);
            let err = read_segment(&mut &file[..], &mut packed).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
            let expect = format!("segment truncated: got {} of {len} bytes", payload.len());
            assert!(err.to_string().contains(&expect), "{err}");
        }

        let mut file = Vec::new();
        varint::write_u64(&mut file, 4).unwrap();
        file.extend_from_slice(b"data");
        assert!(read_segment(&mut &file[..], &mut packed).unwrap());
        assert_eq!(packed, b"data");
    }

    #[test]
    fn segment_longer_than_one_read_step_roundtrips() {
        // A packed segment of 2.5 read steps arrives in three reads.
        let data: Vec<u8> = (0..DEFAULT_SEGMENT_SIZE * 5 / 2)
            .map(|i| (i % 241) as u8)
            .collect();
        roundtrip(Arc::new(Store), &data, data.len());
    }

    #[test]
    fn trailing_bytes_preserved_for_inner() {
        // Two logical streams back to back in one file.
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::new(Vec::new(), Arc::clone(&codec));
        w.write_all(b"first").unwrap();
        let mut file = w.finish().unwrap();
        let mut w2 = CodecWriter::new(Vec::new(), Arc::clone(&codec));
        w2.write_all(b"second").unwrap();
        file.extend_from_slice(&w2.finish().unwrap());

        let mut r = CodecReader::new(&file[..], Arc::clone(&codec));
        let mut a = Vec::new();
        r.read_to_end(&mut a).unwrap();
        assert_eq!(a, b"first");
        let mut rest = r.into_inner();
        let mut r2 = CodecReader::new(&mut rest, codec);
        let mut b = Vec::new();
        r2.read_to_end(&mut b).unwrap();
        assert_eq!(b, b"second");
    }

    #[test]
    fn scratch_threads_through_streams() {
        // Two streams sharing one scratch: the second must reuse the
        // first's capacity and produce an independent, correct stream.
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 193) as u8).collect();

        let mut w = CodecWriter::with_scratch(
            Vec::new(),
            Arc::clone(&codec),
            4096,
            StreamScratch::default(),
        );
        w.write_all(&data).unwrap();
        let (file1, scratch) = w.finish_with_scratch().unwrap();
        let cap_after_first = scratch.capacity();
        assert!(cap_after_first > 0);

        let mut w = CodecWriter::with_scratch(Vec::new(), Arc::clone(&codec), 4096, scratch);
        w.write_all(&data).unwrap();
        let (file2, scratch) = w.finish_with_scratch().unwrap();
        assert_eq!(file1, file2, "scratch reuse must not change the stream");
        assert!(scratch.capacity() >= cap_after_first);

        let mut r = CodecReader::new(&file2[..], codec);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn bufread_hands_out_decoded_segments_in_place() {
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 4096);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();

        let mut r = CodecReader::new(&file[..], codec);
        let mut back = Vec::new();
        loop {
            let buf = r.fill_buf().unwrap();
            if buf.is_empty() {
                break; // clean EOF
            }
            // The in-place view matches the stream position exactly.
            assert_eq!(buf, &data[back.len()..back.len() + buf.len()]);
            // Consume in odd-sized bites to exercise partial consumes.
            let n = buf.len().min(1000);
            back.extend_from_slice(&buf[..n]);
            r.consume(n);
        }
        assert_eq!(back, data);
        // fill_buf after EOF stays empty; consume past the end is a no-op.
        assert!(r.fill_buf().unwrap().is_empty());
        r.consume(10_000);
    }

    #[test]
    fn segment_records_describe_the_stream_exactly() {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 199) as u8).collect();
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 4096);
        w.write_all(&data).unwrap();
        let (file, segs) = w.finish_with_segments().unwrap();

        // 10_000 bytes over 4096-byte segments: 4096 + 4096 + 1808.
        assert_eq!(
            segs.iter().map(|s| s.raw_len).collect::<Vec<_>>(),
            vec![4096, 4096, 1808]
        );
        // Records tile the file: contiguous, starting at 0, ending just
        // before the EOS marker, and each one frames a decodable segment.
        let mut off = 0u64;
        for s in &segs {
            assert_eq!(s.file_offset, off);
            let framed = &file[s.file_offset as usize..(s.file_offset + s.compressed_len) as usize];
            let mut cursor = framed;
            let payload_len = varint::read_u64(&mut cursor).unwrap() as usize;
            assert_eq!(cursor.len(), payload_len);
            let raw = codec.decompress(cursor).unwrap();
            assert_eq!(raw.len() as u64, s.raw_len);
            assert_eq!(raw, data[off_raw(&segs, s)..off_raw(&segs, s) + raw.len()]);
            off += s.compressed_len;
        }
        // Only the EOS varint (one zero byte) follows the last record.
        assert_eq!(off as usize, file.len() - 1);
        assert_eq!(file[off as usize], 0);

        fn off_raw(segs: &[SegmentRecord], target: &SegmentRecord) -> usize {
            segs.iter()
                .take_while(|s| s.file_offset < target.file_offset)
                .map(|s| s.raw_len as usize)
                .sum()
        }
    }

    #[test]
    fn reader_counts_decoded_segments() {
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 1000);
        w.write_all(&[3u8; 2500]).unwrap();
        let file = w.finish().unwrap();
        for mut r in [
            CodecReader::new(&file[..], Arc::clone(&codec)),
            CodecReader::with_engine(&file[..], Arc::clone(&codec), 2, Engine::new(2)),
        ] {
            assert_eq!(r.segments_decoded(), 0);
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back.len(), 2500);
            assert_eq!(r.segments_decoded(), 3);
        }
    }

    #[test]
    fn byte_counters() {
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::new(Vec::new(), codec);
        w.write_all(&[7u8; 100]).unwrap();
        assert_eq!(w.raw_bytes(), 100);
        let compressed = w.finish().unwrap().len() as u64;
        assert!(compressed >= 100); // store codec + framing
    }
}
