//! Streaming ATC decompression (the original tool's `atc_open('d') /
//! atc_decode / atc_close`).

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use atc_cache::{trace_id, SegmentCache};
use atc_codec::{codec_by_name, varint, Codec, CodecReader, DEFAULT_SEGMENT_SIZE};
use atc_engine::Engine;

use crate::bytesort::BytesortInverse;
use crate::error::{AtcError, Result};
use crate::format::{self, FrameReadStats, IntervalRecord, Meta};
use crate::hist::translate_addr;

/// Tuning knobs for [`AtcReader::open_with`].
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Decompression parallelism. `0`/`1` decode on the calling thread
    /// (the original behavior); `n > 1` reads payload streams (and lossy
    /// chunk files) through a consumer-driven readahead window: whenever
    /// `decode`/`decode_all` need the next segment, the calling thread
    /// first frames further segments off the file and submits their
    /// decodes as engine tasks until `2n` are undelivered (no batch
    /// barrier, no extra thread), then takes the next one in stream
    /// order — so up to `n` segments decompress concurrently with the
    /// consumer, and a reader nobody reads from holds at most one window.
    /// Works on any trace — the on-disk format does not record thread
    /// counts.
    pub threads: usize,
    /// Explicit execution engine for the decode tasks. `None` (the
    /// default) uses the process-wide engine, grown to at least
    /// `threads` workers; tests and multi-stream containers (the sharded
    /// store) inject one so many readers share a worker set and isolated
    /// counters.
    pub engine: Option<Engine>,
    /// Decoded-frame cache (the type name predates the unit: it once
    /// held decoded segment bytes), usually [`SegmentCache::global`].
    /// A lossless trace with a seek sidecar looks every frame up by
    /// number before anything is decoded, and a miss inserts the frame it
    /// parsed — so each frame is decoded and un-bytesorted at most once
    /// per process while cached, every reader of a hot trace reuses the
    /// others' work, and a warm [`AtcReader::seek`] opens no payload
    /// file at all; lossless traces without a sidecar ignore the cache
    /// and read linearly. A lossy trace keeps its decoded chunks here,
    /// keyed by each chunk file's own trace id, so they never alias a
    /// lossless frame. `None`: lossless traces read uncached, and a
    /// lossy reader gets a private cache of eight intervals
    /// (`8 × interval_len × 8` bytes).
    pub segment_cache: Option<Arc<SegmentCache>>,
}

impl Default for ReadOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            engine: None,
            segment_cache: None,
        }
    }
}

/// Where a reader's bytes come from and how they decode: the trace
/// directory, its codec, and the [`ReadOptions`] parallelism every
/// front-to-back stream (payload, lossy chunk files) is opened with.
#[derive(Debug)]
struct Source {
    dir: PathBuf,
    codec: Arc<dyn Codec>,
    threads: usize,
    engine: Option<Engine>,
}

impl Source {
    /// Opens the trace's file `name` read front to back through the one
    /// codec-stream reader (inline, or decoding ahead on the engine).
    /// Open failures keep their `io::Error` (so callers can still
    /// distinguish e.g. `NotFound`) — wrap with context at the call site
    /// where useful.
    fn open_linear(&self, name: &str) -> std::io::Result<CodecReader<BufReader<File>>> {
        let file = BufReader::new(File::open(self.dir.join(name))?);
        let codec = Arc::clone(&self.codec);
        Ok(match &self.engine {
            Some(e) => CodecReader::with_engine(file, codec, self.threads, e.clone()),
            None => CodecReader::with_threads(file, codec, self.threads),
        })
    }
}

/// Upper bound on the up-front reservation for one decoded segment. Every
/// writer seals segments at [`DEFAULT_SEGMENT_SIZE`] raw bytes, so an
/// honest sidecar never declares more; a forged `raw_len` reserves at most
/// this much before the decode (and the length check after it) refuses it.
const SEGMENT_PREALLOC_CAP: usize = DEFAULT_SEGMENT_SIZE;

/// A payload stream that decodes one segment at a time. Segment
/// boundaries come from the seek sidecar, so the stream can start (and
/// `seek_to_raw` restart) at any raw offset by decoding at most the one
/// segment containing it.
#[derive(Debug)]
struct TableSegmentStream {
    file: File,
    codec: Arc<dyn Codec>,
    table: Arc<format::SeekTable>,
    /// Decoded bytes of the segment currently being consumed (segment
    /// `next_seg - 1` whenever non-empty).
    current: Vec<u8>,
    /// Read position within `current`.
    pos: usize,
    /// Index of the next segment to load once `current` is drained.
    next_seg: usize,
    /// Segments decompressed by this stream.
    decoded: u64,
}

impl TableSegmentStream {
    /// Reads and decodes segment `idx`.
    fn load_segment(&mut self, idx: usize) -> std::io::Result<Vec<u8>> {
        let rec = self.table.segments()[idx];
        let framed = usize::try_from(rec.compressed_len)
            .map_err(|_| invalid_data(format!("segment {idx} length overflows usize")))?;
        // bounded: load_seek_table checked the table's compressed lengths
        // sum to at most the payload file's size.
        let mut buf = vec![0u8; framed];
        self.file.seek(SeekFrom::Start(rec.file_offset))?;
        self.file.read_exact(&mut buf)?;
        let mut cur = &buf[..];
        let payload = varint::read_u64(&mut cur)? as usize;
        if payload != cur.len() {
            return Err(invalid_data(format!(
                "segment {idx} frames {payload} payload bytes but the sidecar spans {}",
                cur.len()
            )));
        }
        // bounded: SEGMENT_PREALLOC_CAP up front; the decode checks the
        // declared raw_len after it.
        let mut raw = Vec::with_capacity(rec.raw_len.min(SEGMENT_PREALLOC_CAP as u64) as usize);
        self.codec
            .decompress_into(cur, &mut raw)
            .map_err(|e| invalid_data(format!("segment {idx}: {e}")))?;
        if raw.len() as u64 != rec.raw_len {
            return Err(invalid_data(format!(
                "segment {idx} decoded to {} bytes, sidecar says {}",
                raw.len(),
                rec.raw_len
            )));
        }
        self.decoded += 1;
        Ok(raw)
    }

    /// Repositions the stream to `raw_offset` bytes into the decoded
    /// payload, loading at most the one segment containing it — none
    /// when that segment is the one already loaded.
    fn seek_to_raw(&mut self, raw_offset: u64) -> std::io::Result<()> {
        let idx = self.table.locate(raw_offset).ok_or_else(|| {
            invalid_data(format!(
                "raw offset {raw_offset} is past the sidecar's segments"
            ))
        })?;
        if self.current.is_empty() || self.next_seg != idx + 1 {
            self.current = self.load_segment(idx)?;
        }
        self.pos = (raw_offset - self.table.raw_start(idx)) as usize;
        self.next_seg = idx + 1;
        Ok(())
    }
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Read for TableSegmentStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for TableSegmentStream {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        while self.pos >= self.current.len() {
            if self.next_seg >= self.table.len() {
                return Ok(&[]);
            }
            let idx = self.next_seg;
            self.current = self.load_segment(idx)?;
            self.pos = 0;
            self.next_seg = idx + 1;
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.current.len());
    }
}

/// Frame-at-a-time access to a lossless trace by its seek sidecar: the
/// path of every reader opened with a [`SegmentCache`] and of every
/// [`AtcReader::seek`] on a trace with a usable sidecar. With a cache,
/// frame `k` is looked up under `(trace_id, k)` first; only a miss (or
/// no cache) touches the payload — through a [`TableSegmentStream`]
/// positioned at the frame's raw offset on demand — and the cache gets
/// a copy of what the miss parsed.
#[derive(Debug)]
struct SidecarFrames {
    /// The cache and this trace's id in its keys.
    cache: Option<(Arc<SegmentCache>, u64)>,
    table: Arc<format::SeekTable>,
    /// The payload stream and the frame number its next parse yields:
    /// opened on the first miss, dropped by every seek.
    stream: Option<(TableSegmentStream, u64)>,
    /// The current frame when it is shared with the cache (a hit, or a
    /// miss the cache admitted); `None`: the bytesort inverse's output
    /// buffer holds it.
    shared: Option<Arc<[u64]>>,
}

impl SidecarFrames {
    fn new(cache: Option<Arc<SegmentCache>>, dir: &Path, table: Arc<format::SeekTable>) -> Self {
        Self {
            cache: cache.map(|c| (c, trace_id(dir))),
            table,
            stream: None,
            shared: None,
        }
    }

    /// Makes the frame starting at trace address `produced` current and
    /// returns its length; `Ok(None)` when the payload holds nothing
    /// more. Every frame of a sidecar trace but the last is `buffer`
    /// addresses long, so `produced` is always frame-aligned (or the
    /// trace's count) here, and a parsed frame of any other length is
    /// corruption, never cached.
    fn advance(
        &mut self,
        meta: &Meta,
        produced: u64,
        source: &Source,
        inverse: &mut BytesortInverse,
        scratch: &mut Vec<u8>,
        stats: &mut FrameReadStats,
    ) -> Result<Option<usize>> {
        // At the trace's count this is the one-past-the-end frame.
        let frame_no = produced.div_ceil(meta.buffer);
        let expect = meta.count.saturating_sub(produced).min(meta.buffer);
        self.shared = None;
        if let Some((cache, trace)) = &self.cache {
            if expect > 0 {
                if let Some(frame) = cache
                    .get((*trace, frame_no))
                    .filter(|f| f.len() as u64 == expect)
                {
                    stats.frames += 1;
                    return Ok(Some(self.shared.insert(frame).len()));
                }
            }
        }
        let stream = match self.stream.take() {
            Some((stream, at)) if at == frame_no => stream,
            old => {
                let raw = frame_raw_offset(meta, frame_no)?;
                check_sidecar_span(&self.table, frame_no, raw)?;
                if raw == self.table.total_raw_bytes() {
                    // Nothing follows: no payload file to open.
                    self.stream = old;
                    return Ok(None);
                }
                let mut stream = match old {
                    Some((stream, _)) => stream,
                    None => TableSegmentStream {
                        file: File::open(source.dir.join(format::DATA_FILE))?,
                        codec: Arc::clone(&source.codec),
                        table: Arc::clone(&self.table),
                        current: Vec::new(),
                        pos: 0,
                        next_seg: 0,
                        decoded: 0,
                    },
                };
                stream.seek_to_raw(raw)?;
                stream
            }
        };
        let (stream, at) = self.stream.insert((stream, frame_no));
        // Empty frames are legal in the format: parse past them, as the
        // linear path does. Each one consumes a byte, so this ends.
        loop {
            if !format::read_frame_borrowed(stream, inverse, scratch, stats)? {
                return Ok(None);
            }
            if !inverse.finish()?.is_empty() {
                break;
            }
        }
        *at = frame_no + 1;
        let frame = inverse.finish()?;
        if frame.len() as u64 != expect {
            return Err(AtcError::Format(format!(
                "frame {frame_no} holds {} addresses where the trace's {}-address \
                 frames put {expect}",
                frame.len(),
                meta.buffer
            )));
        }
        if let Some((cache, trace)) = &self.cache {
            // Copy only what the cache will keep.
            if cache.admits(frame.len()) {
                let shared = self.shared.insert(Arc::from(frame));
                cache.insert((*trace, frame_no), Arc::clone(shared));
            }
        }
        Ok(Some(frame.len()))
    }

    /// Segments decoded since open or the last seek (cache hits decode
    /// nothing).
    fn segments_decoded(&self) -> u64 {
        self.stream.as_ref().map_or(0, |(s, _)| s.decoded)
    }
}

/// Interval-at-a-time access to a lossy trace: interval `k` is the
/// trace's frame `k`. Every interval but the last is `interval_len`
/// addresses long, so interval `k` starts at address `k × interval_len`
/// and a seek is arithmetic, exactly as for lossless frames. The chunks
/// the intervals name are entries of the reader's [`SegmentCache`],
/// keyed `(trace_id(chunk file), 0)`, so a chunk never aliases a
/// lossless frame.
#[derive(Debug)]
struct LossyFrames {
    /// The interval trace, decoded and validated at open: interval `k`
    /// is `records[k]`.
    records: Vec<IntervalRecord>,
    cache: Arc<SegmentCache>,
    /// The chunk the current interval reads, kept so a run of imitations
    /// of one chunk never decodes it again, even when the cache cannot
    /// admit it.
    last: Option<(u64, Arc<[u64]>)>,
    /// Whether the current interval is `last`'s chunk as stored (a new
    /// chunk, or an imitation without translations); otherwise the
    /// reader's `frame` buffer holds the translated copy.
    shared: bool,
}

impl LossyFrames {
    /// Makes the interval starting at trace address `produced` current
    /// and returns its length; `Ok(None)` past the last interval.
    /// `produced` is always interval-aligned (or the trace's count) here.
    fn advance(
        &mut self,
        meta: &Meta,
        produced: u64,
        source: &Source,
        inverse: &mut BytesortInverse,
        scratch: &mut Vec<u8>,
        frame: &mut Vec<u64>,
    ) -> Result<Option<usize>> {
        // Nonzero: `Meta::parse` refuses a lossy interval_len=0.
        let k = usize::try_from(produced.div_ceil(meta.interval_len)).unwrap_or(usize::MAX);
        let Some(record) = self.records.get(k) else {
            return Ok(None);
        };
        let (IntervalRecord::NewChunk { chunk_id: id, .. }
        | IntervalRecord::Imitate { chunk_id: id, .. }) = *record;
        let chunk = match &self.last {
            Some((last, chunk)) if *last == id => Arc::clone(chunk),
            _ => {
                // `load_intervals` checked every interval's length.
                let len = (meta.count - produced).min(meta.interval_len);
                let name = format::chunk_file_name(id);
                let key = (trace_id(&source.dir.join(&name)), 0);
                let chunk = match self.cache.get(key).filter(|c| c.len() as u64 == len) {
                    Some(chunk) => chunk,
                    None => {
                        let chunk = decode_chunk(source, &name, len, inverse, scratch)?;
                        self.cache.insert(key, Arc::clone(&chunk));
                        chunk
                    }
                };
                self.last = Some((id, Arc::clone(&chunk)));
                chunk
            }
        };
        self.shared = match &self.records[k] {
            IntervalRecord::Imitate { translations, .. }
                if translations.iter().any(Option::is_some) =>
            {
                frame.clear();
                frame.extend(chunk.iter().map(|&a| translate_addr(a, translations)));
                false
            }
            _ => true,
        };
        Ok(Some(chunk.len()))
    }
}

/// Decodes chunk file `name`, which must hold exactly `len` addresses.
fn decode_chunk(
    source: &Source,
    name: &str,
    len: u64,
    inverse: &mut BytesortInverse,
    scratch: &mut Vec<u8>,
) -> Result<Arc<[u64]>> {
    let mut stream = source.open_linear(name).map_err(|e| {
        AtcError::Format(format!("cannot open {}/{name}: {e}", source.dir.display()))
    })?;
    // bounded: FRAME_MAX_ADDRS addresses up front at most; the loop
    // stops one frame past the interval's validated length `len`.
    let mut addrs = Vec::with_capacity(len.min(format::FRAME_MAX_ADDRS) as usize);
    let mut stats = FrameReadStats::default();
    while (addrs.len() as u64) <= len
        && format::read_frame_borrowed(&mut stream, inverse, scratch, &mut stats)?
    {
        addrs.extend_from_slice(inverse.finish()?);
    }
    if addrs.len() as u64 != len {
        return Err(AtcError::Format(format!(
            "{name} holds {} addresses where its interval holds {len}",
            addrs.len()
        )));
    }
    // One copy per chunk load, where every interval used to be one.
    Ok(Arc::from(addrs))
}

/// Decodes and validates a lossy trace's interval trace once, at open.
/// Interval `k` must hold exactly `min(L, count − k·L)` addresses, so
/// there are ⌈count / L⌉ of them — the cap on the records kept — and
/// their lengths sum to `count`. Stored chunks are numbered in order, and
/// an imitation names a chunk an earlier interval stored. That chunk is
/// then a full `L` long: a shorter one would have had to be the last.
fn load_intervals(source: &Source, meta: &Meta) -> Result<Vec<IntervalRecord>> {
    // Nonzero: `Meta::parse` refuses a lossy interval_len=0.
    let (l, count) = (meta.interval_len, meta.count);
    let cap = count.div_ceil(l);
    let file = BufReader::new(File::open(source.dir.join(format::INFO_FILE))?);
    // The interval trace is tiny: always decoded inline.
    let mut info = CodecReader::new(file, Arc::clone(&source.codec));
    // bounded: 1024 records up front at most; the loop refuses record
    // `cap` + 1, and each record is at least 3 bytes of `info.atc`.
    let mut records = Vec::with_capacity(cap.min(1024) as usize);
    let mut chunks = 0u64;
    while let Some(record) = IntervalRecord::read(&mut info)? {
        let k = records.len() as u64;
        let (id, len, stored) = match record {
            IntervalRecord::NewChunk { chunk_id, len } => {
                chunks += 1;
                (chunk_id, len, chunk_id == chunks - 1)
            }
            IntervalRecord::Imitate { chunk_id, .. } => (chunk_id, l, chunk_id < chunks),
        };
        // `k < cap` means `k·L < count`.
        if !stored || k == cap || len != (count - k * l).min(l) {
            return Err(AtcError::Format(format!(
                "interval {k} (chunk {id}, {len} addresses) does not fit an interval trace \
                 of {count} addresses in intervals of {l} with chunks stored in order"
            )));
        }
        records.push(record);
    }
    if records.len() as u64 != cap {
        return Err(AtcError::Format(format!(
            "interval trace covers {} of {count} addresses",
            (records.len() as u64).saturating_mul(l).min(count)
        )));
    }
    Ok(records)
}

/// A streaming ATC decompressor over a trace directory.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use atc_core::{AtcReader, AtcWriter, Mode};
///
/// let dir = std::env::temp_dir().join("atc-reader-doc");
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut w = AtcWriter::create(&dir, Mode::Lossless)?;
/// w.code_all([64, 128, 192])?;
/// w.finish()?;
///
/// let mut r = AtcReader::open(&dir)?;
/// assert_eq!(r.decode()?, Some(64));
/// assert_eq!(r.decode()?, Some(128));
/// assert_eq!(r.decode()?, Some(192));
/// assert_eq!(r.decode()?, None);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AtcReader {
    meta: Meta,
    source: Source,
    state: State,
    /// Addresses in the frames parsed so far (or skipped by a seek).
    produced: u64,
    /// Values of the current frame not yet handed out: [`AtcReader::decode`]
    /// takes one, [`AtcReader::next_frame`] takes the rest.
    remaining: usize,
    /// Streaming bytesort decoder; its output buffer is the current frame
    /// of a lossless trace.
    inverse: BytesortInverse,
    /// The current interval of a lossy trace when it is translated.
    frame: Vec<u64>,
    /// Scratch for columns that straddle a segment boundary.
    col_scratch: Vec<u8>,
    frame_stats: FrameReadStats,
    /// First error's message; once set, every later `decode`/`next_frame`
    /// fails. The codec stream latches its own errors, but a format
    /// error found above it (a short frame, a count mismatch) leaves the
    /// byte stream mid-frame, so anything "decoded" past it would be
    /// garbage that happens to parse — fail fast instead.
    poisoned: Option<String>,
    /// Set once [`load_seek_table`] found no usable sidecar, so later
    /// seeks neither re-read it nor re-validate it. (A usable one lives
    /// in [`State::Sidecar`] from then on.)
    no_sidecar: bool,
    /// The missing-sidecar fallback warns once per reader, not per call.
    warned_linear: bool,
}

#[derive(Debug)]
enum State {
    /// Lossless, read front to back.
    Linear(CodecReader<BufReader<File>>),
    /// Lossless, read frame by frame off a usable seek sidecar: opened
    /// with a [`SegmentCache`], or seeked.
    Sidecar(SidecarFrames),
    /// Lossy, read interval by interval.
    Lossy(LossyFrames),
}

impl AtcReader {
    /// Opens a trace directory written by [`crate::AtcWriter`].
    ///
    /// # Errors
    ///
    /// Fails if the directory, `meta` file, or payload files are missing or
    /// malformed, or the recorded codec is unknown.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::open_with(dir, ReadOptions::default())
    }

    /// Opens a trace directory with explicit [`ReadOptions`] (frame
    /// cache, decompression thread count and engine). A lossy trace's
    /// interval trace is decoded and validated here, once.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcReader::open`].
    pub fn open_with<P: AsRef<Path>>(dir: P, options: ReadOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta_text = std::fs::read_to_string(dir.join(format::META_FILE)).map_err(|e| {
            AtcError::Format(format!(
                "cannot read {}/{}: {e}",
                dir.display(),
                format::META_FILE
            ))
        })?;
        let meta = Meta::parse(&meta_text)?;
        let codec = codec_by_name(&meta.codec)
            .ok_or_else(|| AtcError::Format(format!("unknown codec {:?}", meta.codec)))?;
        let source = Source {
            dir,
            codec: Arc::from(codec),
            threads: options.threads.max(1),
            engine: options.engine,
        };
        let mut no_sidecar = false;
        let state = match meta.mode.as_str() {
            "lossless" => {
                let table = options.segment_cache.as_ref().and_then(|_| {
                    let table = load_seek_table(&source.dir, &meta);
                    no_sidecar = table.is_none();
                    table
                });
                match (options.segment_cache, table) {
                    (Some(cache), Some(table)) => {
                        State::Sidecar(SidecarFrames::new(Some(cache), &source.dir, table))
                    }
                    // No cache requested, or no usable sidecar to number
                    // frames by: plain streaming decode.
                    _ => State::Linear(source.open_linear(format::DATA_FILE)?),
                }
            }
            "lossy" => State::Lossy(LossyFrames {
                records: load_intervals(&source, &meta)?,
                cache: options.segment_cache.unwrap_or_else(|| {
                    SegmentCache::isolated(meta.interval_len.saturating_mul(8 * 8))
                }),
                last: None,
                shared: false,
            }),
            other => {
                return Err(AtcError::Format(format!("unknown mode {other:?}")));
            }
        };
        Ok(Self {
            meta,
            source,
            state,
            produced: 0,
            remaining: 0,
            inverse: BytesortInverse::default(),
            frame: Vec::new(),
            col_scratch: Vec::new(),
            frame_stats: FrameReadStats::default(),
            poisoned: None,
            no_sidecar,
            warned_linear: false,
        })
    }

    /// The trace header.
    pub fn meta(&self) -> &Meta {
        &self.meta
    }

    /// Decodes the next value; `Ok(None)` at end of trace (the original
    /// `atc_decode` returning 0). A cursor over [`AtcReader::next_frame`]'s
    /// frames: it parses a frame when the current one is used up and
    /// otherwise just indexes into it.
    ///
    /// # Errors
    ///
    /// Propagates I/O, codec, and format errors.
    pub fn decode(&mut self) -> Result<Option<u64>> {
        self.check_poisoned()?;
        // Empty frames are legal in the format: keep parsing past them.
        while self.remaining == 0 {
            if !self.advance()? {
                return Ok(None);
            }
        }
        let frame = self.current()?;
        let v = frame[frame.len() - self.remaining];
        self.remaining -= 1;
        Ok(Some(v))
    }

    /// Decodes the next whole frame — one bytesort buffer (lossless mode)
    /// or one interval (lossy mode) — and hands it out as a borrowed
    /// slice, valid until the next call on this reader.
    ///
    /// This is the one way bytes become addresses: in lossless mode,
    /// columns are fed to the bytesort inverse straight out of the
    /// stream's decoded segment buffer (at every
    /// [`ReadOptions::threads`]) instead of first being copied
    /// through `Read::read` into an owned buffer —
    /// [`AtcReader::frame_stats`] counts borrowed vs copied column bytes.
    /// A lossy interval that is a stored chunk as-is (a new chunk, or an
    /// imitation without translations) is handed out straight from the
    /// cached chunk; only a translated interval is written into a buffer.
    ///
    /// `next_frame` and [`AtcReader::decode`] may be interleaved: after
    /// `decode` took part of a frame, `next_frame` hands out the rest of
    /// it. The concatenation of all frames is exactly the `decode` value
    /// sequence; `Ok(None)` means clean end of trace. Errors (including a
    /// mid-stream integrity failure) latch on both entry points: every
    /// later call keeps failing rather than decaying into a clean end of
    /// trace.
    ///
    /// # Errors
    ///
    /// Propagates I/O, codec, and format errors.
    pub fn next_frame(&mut self) -> Result<Option<&[u64]>> {
        self.check_poisoned()?;
        if self.remaining == 0 && !self.advance()? {
            return Ok(None);
        }
        let taken = std::mem::take(&mut self.remaining);
        let frame = self.current()?;
        Ok(Some(&frame[frame.len() - taken..]))
    }

    /// The current frame (meaningful only while `remaining > 0`, or right
    /// after a successful [`AtcReader::advance`]).
    fn current(&self) -> Result<&[u64]> {
        match &self.state {
            State::Sidecar(SidecarFrames {
                shared: Some(frame),
                ..
            }) => Ok(frame),
            State::Lossy(LossyFrames {
                last: Some((_, chunk)),
                shared: true,
                ..
            }) => Ok(chunk),
            State::Lossy(_) => Ok(&self.frame),
            _ => self.inverse.finish(),
        }
    }

    /// Parses the next on-disk frame into the current-frame buffer;
    /// `Ok(false)` at clean end of trace. Latches errors.
    fn advance(&mut self) -> Result<bool> {
        let result = self.advance_inner();
        self.latch(result)
    }

    fn advance_inner(&mut self) -> Result<bool> {
        let len = match &mut self.state {
            State::Linear(stream) => {
                if format::read_frame_borrowed(
                    stream,
                    &mut self.inverse,
                    &mut self.col_scratch,
                    &mut self.frame_stats,
                )? {
                    Some(self.inverse.finish()?.len())
                } else {
                    None
                }
            }
            State::Sidecar(frames) => frames.advance(
                &self.meta,
                self.produced,
                &self.source,
                &mut self.inverse,
                &mut self.col_scratch,
                &mut self.frame_stats,
            )?,
            State::Lossy(lossy) => {
                let len = lossy.advance(
                    &self.meta,
                    self.produced,
                    &self.source,
                    &mut self.inverse,
                    &mut self.col_scratch,
                    &mut self.frame,
                )?;
                self.frame_stats.frames += u64::from(len.is_some());
                len
            }
        };
        let Some(len) = len else {
            if self.produced != self.meta.count {
                return Err(AtcError::Format(format!(
                    "trace ended after {} of {} addresses",
                    self.produced, self.meta.count
                )));
            }
            return Ok(false);
        };
        self.remaining = len;
        self.produced += len as u64;
        Ok(true)
    }

    /// Accounting for the frames parsed so far: frames decoded and column
    /// bytes borrowed in place vs copied through scratch.
    pub fn frame_stats(&self) -> FrameReadStats {
        self.frame_stats
    }

    /// Fails if an earlier `decode`/`next_frame`/`seek` call errored.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(msg) => Err(AtcError::Format(format!(
                "reader poisoned by earlier error: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// Records the first error so every later call keeps failing.
    fn latch<T>(&mut self, result: Result<T>) -> Result<T> {
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    /// Decodes the remainder of the trace into a vector.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`AtcReader::next_frame`].
    pub fn decode_all(&mut self) -> Result<Vec<u64>> {
        // bounded: 2^24 addresses (128 MiB) up front — the header's
        // count is untrusted until the trace is fully read — and beyond
        // that the vector grows only with frames actually decoded.
        let left = self.meta.count.saturating_sub(self.produced) + self.remaining as u64;
        let mut out = Vec::with_capacity(left.min(1 << 24) as usize);
        while let Some(frame) = self.next_frame()? {
            out.extend_from_slice(frame);
        }
        Ok(out)
    }

    /// Repositions the reader so the next value decoded is the first
    /// address of frame `frame_no` — address number `frame_no ×
    /// meta.buffer` on a lossless trace, `frame_no × meta.interval_len`
    /// on a lossy one, whose frames are its intervals.
    ///
    /// A lossy seek only moves the cursor: the interval trace was
    /// decoded at open, and the next read takes the target interval's
    /// chunk from the cache (or decodes that one chunk file). A lossless
    /// seek is O(log segments) when the trace carries a seek sidecar: the
    /// seek only records the target, and the next read finds the target
    /// segment by binary search and decodes at most that one segment
    /// before the target — never the megabytes in front of it. Lossless
    /// traces written before the sidecar existed still work: the reader
    /// warns once on stderr and falls back to a linear decode-and-discard
    /// up to the target.
    ///
    /// Seeking is frame-granular because frames are the compression
    /// unit; [`AtcReader::seek_to_value`] adds the in-frame step for
    /// callers wanting address granularity. Seeking to the
    /// one-past-the-end frame is allowed and behaves like a fully drained
    /// reader. After a lossless seek the payload decodes on the calling
    /// thread ([`ReadOptions::threads`] accelerates linear scans, which a
    /// seek is not). With a [`ReadOptions::segment_cache`] the next read
    /// looks the target frame up first, so a seek onto a hot frame opens
    /// no payload file and decodes nothing.
    ///
    /// # Errors
    ///
    /// Fails on targets past the end of the trace and on the usual
    /// I/O/codec/format errors. Errors latch like every other path.
    pub fn seek(&mut self, frame_no: u64) -> Result<()> {
        self.check_poisoned()?;
        let result = self.seek_inner(frame_no);
        self.latch(result)
    }

    /// Repositions the reader so the next value decoded is address number
    /// `pos` of the trace, lossless or lossy: a frame [`AtcReader::seek`]
    /// plus, when `pos` falls inside a frame, parsing that frame and
    /// skipping its first `pos % frame length` values in one step (the
    /// frame length is `meta.buffer`, or `meta.interval_len` for lossy).
    ///
    /// # Errors
    ///
    /// Fails on `pos` past the trace's count and on anything
    /// [`AtcReader::seek`] can fail on. Errors latch.
    pub fn seek_to_value(&mut self, pos: u64) -> Result<()> {
        self.check_poisoned()?;
        let result = self.seek_to_value_inner(pos);
        self.latch(result)
    }

    fn seek_to_value_inner(&mut self, pos: u64) -> Result<()> {
        if pos > self.meta.count {
            return Err(AtcError::Format(format!(
                "seek target {pos} is past the trace's {} addresses",
                self.meta.count
            )));
        }
        let frame_len = self.frame_len();
        self.seek_inner(pos / frame_len)?;
        let skip = pos % frame_len;
        if skip > 0 {
            if !self.advance_inner()? || (self.remaining as u64) < skip {
                return Err(AtcError::Format(format!(
                    "trace ended while seeking to its address {pos}"
                )));
            }
            self.remaining -= skip as usize;
        }
        Ok(())
    }

    /// Addresses per frame: the bytesort buffer, or a lossy trace's
    /// interval length. Nonzero: `Meta::parse` refuses either being 0.
    fn frame_len(&self) -> u64 {
        match self.state {
            State::Lossy(_) => self.meta.interval_len,
            _ => self.meta.buffer,
        }
    }

    fn seek_inner(&mut self, frame_no: u64) -> Result<()> {
        let frame_len = self.frame_len();
        if frame_no > self.meta.count.div_ceil(frame_len) {
            return Err(AtcError::Format(format!(
                "seek target frame {frame_no} is past the end of the trace \
                 ({} addresses in frames of {frame_len})",
                self.meta.count
            )));
        }
        self.remaining = 0;
        if !matches!(self.state, State::Lossy(_)) {
            self.seek_lossless(frame_no)?;
        }
        self.produced = frame_no.saturating_mul(frame_len).min(self.meta.count);
        Ok(())
    }

    /// Positions the payload stream of a lossless trace at frame
    /// `frame_no` (at most one past its last).
    fn seek_lossless(&mut self, frame_no: u64) -> Result<()> {
        let target_raw = frame_raw_offset(&self.meta, frame_no)?;
        if !matches!(self.state, State::Sidecar(_)) && !self.no_sidecar {
            match load_seek_table(&self.source.dir, &self.meta) {
                Some(table) => {
                    self.state = State::Sidecar(SidecarFrames::new(None, &self.source.dir, table));
                }
                None => self.no_sidecar = true,
            }
        }
        if let State::Sidecar(frames) = &mut self.state {
            check_sidecar_span(&frames.table, frame_no, target_raw)?;
            // The next advance finds the target frame by number.
            frames.stream = None;
        } else {
            // Random access degrades to a linear decode-and-discard: warn
            // once per reader.
            if !std::mem::replace(&mut self.warned_linear, true) {
                eprintln!(
                    "atc: warning: {} has no usable seek sidecar ({}); falling back to linear decode",
                    self.source.dir.display(),
                    format::SEEK_FILE
                );
            }
            let mut stream = self.source.open_linear(format::DATA_FILE)?;
            let skipped = std::io::copy(&mut (&mut stream).take(target_raw), &mut std::io::sink())?;
            if skipped != target_raw {
                return Err(AtcError::Format(format!(
                    "payload ended after {skipped} of the {target_raw} bytes before the seek target"
                )));
            }
            self.state = State::Linear(stream);
        }
        Ok(())
    }

    /// Compressed segments decoded by the current payload stream (since
    /// open or the last [`AtcReader::seek`]) and delivered to this
    /// reader, at any [`ReadOptions::threads`]: `None` for lossy traces,
    /// which have no single payload stream. This is the observable
    /// behind seek's O(1)-decode promise — after a seek, reading one
    /// frame costs at most two segment decodes (zero when the frame is
    /// cached).
    pub fn segments_decoded(&self) -> Option<u64> {
        match &self.state {
            State::Linear(stream) => Some(stream.segments_decoded()),
            State::Sidecar(frames) => Some(frames.segments_decoded()),
            State::Lossy(_) => None,
        }
    }
}

/// Loads and validates the trace's seek sidecar; `None` means "no usable
/// sidecar" (absent, unreadable, malformed, disagreeing with `meta`, or
/// describing more compressed bytes than the payload file holds) — the
/// caller falls back to linear decoding, it is never a hard error.
fn load_seek_table(dir: &Path, meta: &Meta) -> Option<Arc<format::SeekTable>> {
    let bytes = std::fs::read(dir.join(format::SEEK_FILE)).ok()?;
    let table = format::SeekTable::decode(&bytes).ok()?;
    if let Some(n) = meta.seek_segments {
        if n != table.len() as u64 {
            return None;
        }
    }
    // Segment reads size their buffers from the table, so a forged length
    // must not reach them: everything the table spans has to exist.
    let data_len = std::fs::metadata(dir.join(format::DATA_FILE)).ok()?.len();
    let spanned = table
        .segments()
        .last()
        .map_or(0, |s| s.file_offset + s.compressed_len);
    if spanned > data_len {
        return None;
    }
    Some(Arc::new(table))
}

/// Raw (decoded payload) byte offset at which frame `frame_no` starts,
/// for a frame at most one past the last. A frame is `varint(len)` plus 8
/// bytes per address, and every frame in front of the target is full
/// (`buffer` addresses) but a partial tail in front of the one-past-the-end
/// frame, so the offset is arithmetic — no index of frame offsets is
/// needed.
fn frame_raw_offset(meta: &Meta, frame_no: u64) -> Result<u64> {
    // Nonzero: `Meta::parse` refuses buffer=0.
    let (buffer, count) = (meta.buffer, meta.count);
    let full = frame_no.min(count / buffer);
    let tail = count % buffer;
    let tail_header = if frame_no > full && tail > 0 {
        varint_len(tail)
    } else {
        0
    };
    // `full × varint_len(buffer)` ≤ count: a varint byte holds 7 bits.
    frame_no
        .saturating_mul(buffer)
        .min(count)
        .checked_mul(8)
        .and_then(|columns| columns.checked_add(full * varint_len(buffer) + tail_header))
        .ok_or_else(|| {
            AtcError::Format(format!(
                "frame {frame_no} of a {count}-address trace starts past 2^64 raw bytes"
            ))
        })
}

/// Fails if frame `frame_no`'s raw offset lies past what the sidecar's
/// segments decode to.
fn check_sidecar_span(table: &format::SeekTable, frame_no: u64, raw: u64) -> Result<()> {
    if raw > table.total_raw_bytes() {
        return Err(AtcError::Format(format!(
            "seek sidecar spans {} raw bytes but frame {frame_no} starts at {raw}",
            table.total_raw_bytes()
        )));
    }
    Ok(())
}

/// Encoded length of `varint(value)` in bytes (LEB128, 7 bits per byte).
fn varint_len(value: u64) -> u64 {
    u64::from((64 - value.leading_zeros()).max(1)).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::LossyConfig;
    use crate::writer::{AtcOptions, AtcWriter, Mode};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-reader-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drains the reader through the per-value cursor (`decode_all` rides
    /// `next_frame`, so the decode-vs-frame tests need this).
    fn decode_each(r: &mut AtcReader) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(v) = r.decode().unwrap() {
            out.push(v);
        }
        out
    }

    #[test]
    fn lossless_roundtrip_multi_buffer() {
        let dir = tmp("lossless");
        let addrs: Vec<u64> = (0..2500u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 1000, // 3 frames: 1000 + 1000 + 500,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.meta().mode, "lossless");
        assert_eq!(r.decode_all().unwrap(), addrs);
        assert_eq!(r.decode().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_identical_intervals_roundtrip_exactly() {
        let dir = tmp("lossy-exact");
        let interval: Vec<u64> = (0..200u64).map(|i| i * 64).collect();
        let cfg = LossyConfig {
            interval_len: 200,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 128,
                threads: 1,
            },
        )
        .unwrap();
        for _ in 0..4 {
            w.code_all(interval.iter().copied()).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 1);

        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        assert_eq!(out.len(), 800);
        for lap in 0..4 {
            assert_eq!(&out[lap * 200..(lap + 1) * 200], &interval[..], "lap {lap}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_translation_reproduces_shifted_regions() {
        let dir = tmp("lossy-shift");
        // Four intervals, each a sweep of a different region: the paper's
        // perfect-imitation case.
        let cfg = LossyConfig {
            interval_len: 256,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 256,
                threads: 1,
            },
        )
        .unwrap();
        let mut expected = Vec::new();
        for region in [0xF2u64, 0xF3, 0xA1, 0xB7] {
            let interval: Vec<u64> = (0..256u64).map(|i| (region << 8) + i).collect();
            w.code_all(interval.iter().copied()).unwrap();
            expected.extend(interval);
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 1, "one chunk imitated by all others");
        assert_eq!(stats.imitations, 3);

        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.decode_all().unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_partial_final_interval() {
        let dir = tmp("lossy-partial");
        let cfg = LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 50,
                threads: 1,
            },
        )
        .unwrap();
        let addrs: Vec<u64> = (0..250u64).collect(); // 2.5 intervals
        w.code_all(addrs.iter().copied()).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.intervals, 3);

        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        assert_eq!(out.len(), 250);
        // The final partial interval is stored losslessly.
        assert_eq!(&out[200..], &addrs[200..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(AtcReader::open("/nonexistent/atc/dir").is_err());
    }

    #[test]
    fn threaded_lossless_writer_is_byte_identical_and_readable() {
        let addrs: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let write = |threads: usize| {
            let dir = tmp(&format!("mt-lossless-{threads}"));
            let mut w = AtcWriter::with_options(
                &dir,
                Mode::Lossless,
                AtcOptions {
                    codec: "bzip".into(),
                    buffer: 1000,
                    threads,
                },
            )
            .unwrap();
            w.code_all(addrs.iter().copied()).unwrap();
            w.finish().unwrap();
            dir
        };
        let serial_dir = write(1);
        let serial_data = std::fs::read(serial_dir.join(format::DATA_FILE)).unwrap();
        for threads in [2usize, 4, 8] {
            let dir = write(threads);
            let data = std::fs::read(dir.join(format::DATA_FILE)).unwrap();
            assert_eq!(data, serial_data, "threads={threads}");
            // Cross-read: serial reader on threaded output and vice versa.
            let mut serial_read = AtcReader::open(&dir).unwrap();
            assert_eq!(serial_read.decode_all().unwrap(), addrs);
            let mut threaded_read = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            assert_eq!(threaded_read.decode_all().unwrap(), addrs);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&serial_dir).unwrap();
    }

    #[test]
    fn threaded_lossy_roundtrip_matches_serial() {
        let cfg = || LossyConfig {
            interval_len: 500,
            ..LossyConfig::default()
        };
        // Distinct regions per lap force several stored chunks, exercising
        // the background chunk pool.
        let mut addrs = Vec::new();
        for lap in 0..20u64 {
            for i in 0..500u64 {
                addrs.push(((lap % 5) << 32) + i * 64 + (lap / 5));
            }
        }
        let write = |threads: usize| {
            let dir = tmp(&format!("mt-lossy-{threads}"));
            let mut w = AtcWriter::with_options(
                &dir,
                Mode::Lossy(cfg()),
                AtcOptions {
                    codec: "bzip".into(),
                    buffer: 200,
                    threads,
                },
            )
            .unwrap();
            w.code_all(addrs.iter().copied()).unwrap();
            let stats = w.finish().unwrap();
            (dir, stats)
        };
        let (serial_dir, serial_stats) = write(1);
        let mut serial_out = AtcReader::open(&serial_dir).unwrap();
        let expect = serial_out.decode_all().unwrap();
        assert_eq!(expect.len(), addrs.len());
        for threads in [2usize, 4] {
            let (dir, stats) = write(threads);
            assert_eq!(stats.chunks, serial_stats.chunks, "threads={threads}");
            assert_eq!(stats.imitations, serial_stats.imitations);
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.decode_all().unwrap(), expect, "threads={threads}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&serial_dir).unwrap();
    }

    #[test]
    fn next_frame_agrees_with_decode_lossless() {
        let addrs: Vec<u64> = (0..25_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("frames-lossless");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 1000,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        for threads in [1usize, 4] {
            let open = || {
                AtcReader::open_with(
                    &dir,
                    ReadOptions {
                        threads,
                        ..ReadOptions::default()
                    },
                )
                .unwrap()
            };
            let expect = decode_each(&mut open());
            let mut by_frames = open();
            let mut got = Vec::new();
            let mut frames = 0u64;
            while let Some(frame) = by_frames.next_frame().unwrap() {
                got.extend_from_slice(frame);
                frames += 1;
            }
            assert_eq!(got, expect, "threads={threads}");
            assert_eq!(got, addrs, "threads={threads}");
            assert_eq!(frames, 25, "threads={threads}");
            // Clean end of trace is sticky, not an error.
            assert!(by_frames.next_frame().unwrap().is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_borrows_segments_without_copy() {
        // 10k addresses in 512-address frames = ~80 KiB of column bytes:
        // well inside one 1 MiB codec segment, so every column must ride
        // the borrowed path — the counter test pinning that next_frame
        // eliminates the per-segment copy the read() path pays.
        let addrs: Vec<u64> = (0..10_000u64).map(|i| i * 64).collect();
        let dir = tmp("frames-zero-copy");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 512,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        for threads in [1usize, 2] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            let mut got = Vec::new();
            while let Some(frame) = r.next_frame().unwrap() {
                got.extend_from_slice(frame);
            }
            assert_eq!(got, addrs, "threads={threads}");
            let stats = r.frame_stats();
            assert_eq!(stats.frames, 20, "threads={threads}");
            assert_eq!(stats.borrowed_bytes, 10_000 * 8, "threads={threads}");
            assert_eq!(stats.copied_bytes, 0, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_agrees_with_decode_lossy() {
        let dir = tmp("frames-lossy");
        let cfg = LossyConfig {
            interval_len: 256,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 128,
                threads: 1,
            },
        )
        .unwrap();
        for region in [0xF2u64, 0xF3, 0xA1, 0xB7] {
            w.code_all((0..256u64).map(|i| (region << 8) + i)).unwrap();
        }
        w.code_all((0..100u64).map(|i| i * 8)).unwrap(); // partial tail
        w.finish().unwrap();

        let expect = decode_each(&mut AtcReader::open(&dir).unwrap());
        let mut by_frames = AtcReader::open(&dir).unwrap();
        let mut got = Vec::new();
        let mut sizes = Vec::new();
        while let Some(frame) = by_frames.next_frame().unwrap() {
            sizes.push(frame.len());
            got.extend_from_slice(frame);
        }
        assert_eq!(got, expect);
        assert_eq!(
            sizes,
            vec![256, 256, 256, 256, 100],
            "one frame per interval"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_interleaves_with_decode() {
        // Take k values through decode(), then a frame: next_frame must
        // hand out exactly the rest of the current frame (or the next
        // whole frame once it is used up), for every k in one frame, and
        // the two cursors together must reproduce the value sequence.
        const FRAME: usize = 64;
        let lossless: Vec<u64> = (0..160u64).map(|i| i * 13).collect();
        let lossless_dir = tmp("frames-interleave");
        write_segmented(&lossless_dir, &lossless, "store", FRAME);

        let lossy_dir = tmp("frames-interleave-lossy");
        let cfg = LossyConfig {
            interval_len: FRAME,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &lossy_dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 32,
                threads: 1,
            },
        )
        .unwrap();
        for region in [0xF2u64, 0xF3, 0xA1] {
            w.code_all((0..FRAME as u64).map(|i| (region << 8) + i))
                .unwrap();
        }
        w.finish().unwrap();
        let lossy = AtcReader::open(&lossy_dir).unwrap().decode_all().unwrap();
        assert_eq!(lossy.len(), 3 * FRAME);

        for (dir, expect) in [(&lossless_dir, &lossless), (&lossy_dir, &lossy)] {
            for k in 0..=FRAME {
                let mut r = AtcReader::open(dir).unwrap();
                let mut got = Vec::new();
                for _ in 0..k {
                    got.push(r.decode().unwrap().unwrap());
                }
                let frame = r.next_frame().unwrap().unwrap();
                let want = if k == FRAME { FRAME } else { FRAME - k };
                assert_eq!(frame.len(), want, "k={k}");
                got.extend_from_slice(frame);
                // Back to decode mid-stream, then frames to the end.
                got.extend(r.decode().unwrap());
                while let Some(frame) = r.next_frame().unwrap() {
                    got.extend_from_slice(frame);
                }
                assert_eq!(&got, expect, "k={k}");
                assert_eq!(r.decode().unwrap(), None, "k={k}");
            }
        }
        std::fs::remove_dir_all(&lossless_dir).unwrap();
        std::fs::remove_dir_all(&lossy_dir).unwrap();
    }

    #[test]
    fn next_frame_latches_mid_stream_errors() {
        // Corrupt the *middle* of data.atc so framing still parses but a
        // later segment fails its integrity check: next_frame must
        // deliver the early frames, then fail, then keep failing — at
        // every thread count (the readahead latch regression shape).
        // 300k addresses = 2.4 MB raw = 3 codec segments, so the flipped
        // bit lands mid-stream with good frames before and after it.
        let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
        let dir = tmp("frames-latch");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "lz".into(),
                buffer: 1000,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();
        let data_path = dir.join(format::DATA_FILE);
        let mut data = std::fs::read(&data_path).unwrap();
        let flip = data.len() - data.len() / 4;
        data[flip] ^= 0x40;
        std::fs::write(&data_path, &data).unwrap();

        for threads in [1usize, 2, 4] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            let mut got = Vec::new();
            let err = loop {
                match r.next_frame() {
                    Ok(Some(frame)) => got.extend_from_slice(frame),
                    Ok(None) => panic!("corruption must not decay into clean EOF"),
                    Err(e) => break e,
                }
            };
            let _ = err;
            // Everything delivered before the failure is intact and
            // frame-aligned.
            assert!(got.len() < addrs.len(), "threads={threads}");
            assert_eq!(got.len() % 1000, 0, "threads={threads}");
            assert_eq!(got, addrs[..got.len()], "threads={threads}");
            // The error latches on both entry points: later calls must
            // keep failing.
            for _ in 0..3 {
                assert!(r.next_frame().is_err(), "threads={threads}");
                assert!(r.decode().is_err(), "threads={threads}");
            }

            // Same stream through the value cursor: intact prefix, then a
            // latched failure that next_frame sees too.
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            let mut n = 0usize;
            while let Ok(v) = r.decode() {
                assert_eq!(v, Some(addrs[n]), "threads={threads}");
                n += 1;
            }
            assert_eq!(n, got.len(), "threads={threads}");
            assert!(r.decode().is_err(), "threads={threads}");
            assert!(r.next_frame().is_err(), "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a multi-segment lossless trace: small segments force many
    /// sidecar entries so seeks have something to skip.
    fn write_segmented(dir: &PathBuf, addrs: &[u64], codec: &str, buffer: usize) {
        let mut w = AtcWriter::with_options(
            dir,
            Mode::Lossless,
            AtcOptions {
                codec: codec.into(),
                buffer,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn seek_matches_linear_decode_at_every_offset() {
        // ~470 KB raw in 1 MiB segments would be one segment; lz at
        // buffer 700 over 60k addresses still spans multiple segments
        // because DEFAULT_SEGMENT_SIZE cuts on raw bytes (480 KB < 1 MiB:
        // single segment). Use enough data for several segments.
        let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("seek-offsets");
        write_segmented(&dir, &addrs, "lz", 700);
        let mut linear = AtcReader::open(&dir).unwrap();
        let expect = linear.decode_all().unwrap();

        let mut r = AtcReader::open(&dir).unwrap();
        let frames = addrs.len().div_ceil(700) as u64;
        for frame_no in [0u64, 1, frames / 2, frames - 1, frames] {
            r.seek(frame_no).unwrap();
            let rest = r.decode_all().unwrap();
            let at = ((frame_no * 700) as usize).min(expect.len());
            assert_eq!(rest, &expect[at..], "frame {frame_no}");
        }
        // Past-the-end seeks fail cleanly (and latch).
        assert!(r.seek(frames + 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_to_value_matches_linear_decode() {
        let addrs: Vec<u64> = (0..2_500u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("seek-value");
        write_segmented(&dir, &addrs, "lz", 700); // 700 + 700 + 700 + 400
        let mut r = AtcReader::open(&dir).unwrap();
        for pos in [0u64, 1, 699, 700, 701, 2_099, 2_100, 2_499, 2_500, 13] {
            r.seek_to_value(pos).unwrap();
            // The value cursor and the frame path agree on where we are.
            if pos < 2_500 {
                assert_eq!(r.decode().unwrap(), Some(addrs[pos as usize]), "pos {pos}");
                let rest = r.decode_all().unwrap();
                assert_eq!(rest, &addrs[pos as usize + 1..], "pos {pos}");
            }
            assert_eq!(r.decode().unwrap(), None, "pos {pos}");
        }
        assert!(r.seek_to_value(2_501).is_err());
        assert!(r.decode().is_err(), "a failed seek latches");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_decodes_at_most_one_segment_before_target() {
        let addrs: Vec<u64> = (0..500_000u64).map(|i| i * 64).collect();
        let dir = tmp("seek-one-segment");
        write_segmented(&dir, &addrs, "lz", 1000);
        let mut r = AtcReader::open(&dir).unwrap();
        let table = load_seek_table(&dir, r.meta()).expect("sidecar written");
        assert!(table.len() >= 3, "need a multi-segment trace");

        // Seek deep into the trace: the seek itself decodes nothing, and
        // the read after it only the segment(s) holding the target frame,
        // not the ones in front of it.
        r.seek(400).unwrap();
        assert_eq!(r.segments_decoded(), Some(0));
        assert_eq!(r.decode().unwrap(), Some(addrs[400 * 1000]));
        assert!(
            r.segments_decoded().unwrap() <= 2,
            "target frame spans at most 2 segments"
        );

        // A front-to-back read counts every segment, inline or ahead.
        for threads in [1usize, 2] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.decode_all().unwrap(), addrs, "threads={threads}");
            assert_eq!(r.segments_decoded(), Some(table.len() as u64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_falls_back_linearly_without_sidecar() {
        let addrs: Vec<u64> = (0..120_000u64).map(|i| i.wrapping_mul(13)).collect();
        let dir = tmp("seek-fallback");
        write_segmented(&dir, &addrs, "lz", 1000);
        std::fs::remove_file(dir.join(format::SEEK_FILE)).unwrap();
        for threads in [1usize, 4] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            r.seek(57).unwrap();
            let rest = r.decode_all().unwrap();
            assert_eq!(rest, &addrs[57_000..], "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a lossy trace of 100-address intervals that stores several
    /// chunks and imitates them with and without translations, plus a
    /// 37-address partial last interval; returns its linear decode.
    fn write_lossy(dir: &PathBuf) -> Vec<u64> {
        let cfg = LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "lz".into(),
                buffer: 32,
                threads: 1,
            },
        )
        .unwrap();
        for lap in 0..12u64 {
            w.code_all(
                (0..100u64).map(|i| ((lap % 3) << 32) + i * ((lap % 3) + 1) * 64 + (lap / 3)),
            )
            .unwrap();
        }
        w.code_all((0..37u64).map(|i| i * 8)).unwrap();
        let stats = w.finish().unwrap();
        assert!(stats.chunks >= 3 && stats.imitations >= 6, "{stats:?}");
        let out = AtcReader::open(dir).unwrap().decode_all().unwrap();
        assert_eq!(out.len(), 1_237);
        out
    }

    #[test]
    fn lossy_seek_matches_linear_decode() {
        let dir = tmp("seek-lossy");
        let expect = write_lossy(&dir);
        let n = expect.len() as u64;
        let mut r = AtcReader::open(&dir).unwrap();
        // Every interval start, the partial last one and one past the end.
        for k in 0..=13u64 {
            r.seek(k).unwrap();
            let at = (k * 100).min(n) as usize;
            assert_eq!(r.decode_all().unwrap(), &expect[at..], "interval {k}");
        }
        assert!(r.seek(14).is_err(), "past the end");
        assert!(r.decode().is_err(), "a failed seek latches");

        // Mid-interval offsets, backwards as well as forwards.
        let mut r = AtcReader::open(&dir).unwrap();
        let mut positions: Vec<u64> = (0..=13u64)
            .flat_map(|k| [k * 100, k * 100 + 1, k * 100 + 57, k * 100 + 99])
            .filter(|&p| p <= n)
            .collect();
        positions.extend([n - 1, n, 640, 3]);
        for pos in positions {
            r.seek_to_value(pos).unwrap();
            if pos < n {
                assert_eq!(r.decode().unwrap(), Some(expect[pos as usize]), "pos {pos}");
                assert_eq!(
                    r.decode_all().unwrap(),
                    &expect[pos as usize + 1..],
                    "pos {pos}"
                );
            }
            assert_eq!(r.decode().unwrap(), None, "pos {pos}");
        }
        assert!(r.seek_to_value(n + 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn cached(cache: &Arc<SegmentCache>) -> ReadOptions {
        ReadOptions {
            segment_cache: Some(Arc::clone(cache)),
            ..ReadOptions::default()
        }
    }

    #[test]
    fn cached_reads_are_byte_identical_and_record_hits() {
        // 200 full frames plus a 500-address tail frame.
        let addrs: Vec<u64> = (0..200_500u64).map(|i| i.wrapping_mul(0x517C)).collect();
        let dir = tmp("cached-reads");
        write_segmented(&dir, &addrs, "lz", 1000);
        let cache = SegmentCache::isolated(64 << 20);

        // Cold pass decodes, parses and inserts every frame; the warm
        // pass must hand out the very same values from the cache without
        // decoding a segment.
        let mut cold = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert_eq!(cold.decode_all().unwrap(), addrs);
        assert!(cold.segments_decoded().unwrap() >= 2, "multi-segment trace");
        let frames = cold.frame_stats().frames;
        assert_eq!(frames, 201);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, frames));
        assert_eq!(stats.bytes, addrs.len() as u64 * 8, "8 bytes per address");

        let mut warm = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert_eq!(warm.decode_all().unwrap(), addrs);
        assert_eq!(warm.segments_decoded(), Some(0), "every frame was cached");
        assert_eq!(warm.frame_stats().frames, frames);
        assert_eq!(cache.stats().hits, frames);

        // Warm seeks decode nothing either, the tail frame included.
        let mut seeker = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        seeker.seek(150).unwrap();
        assert_eq!(seeker.decode().unwrap(), Some(addrs[150_000]));
        seeker.seek(200).unwrap();
        assert_eq!(seeker.decode_all().unwrap(), &addrs[200_000..]);
        assert_eq!(seeker.segments_decoded(), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_seek_to_value_mid_frame_decodes_nothing() {
        let addrs: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("cached-seek-value");
        write_segmented(&dir, &addrs, "lz", 700);
        let cache = SegmentCache::isolated(64 << 20);
        AtcReader::open_with(&dir, cached(&cache))
            .unwrap()
            .decode_all()
            .unwrap();
        let mut r = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        for pos in [35_350u64, 1, 699, 49_999, 20_000] {
            r.seek_to_value(pos).unwrap();
            assert_eq!(r.decode().unwrap(), Some(addrs[pos as usize]), "pos {pos}");
            assert_eq!(r.segments_decoded(), Some(0), "pos {pos}");
        }
        let hits = cache.stats().hits;
        // The in-frame skip then frames to the end, all from the cache.
        r.seek_to_value(48_999).unwrap();
        assert_eq!(r.decode_all().unwrap(), &addrs[48_999..]);
        assert_eq!(r.segments_decoded(), Some(0));
        assert!(cache.stats().hits > hits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equal_frame_numbers_of_two_traces_never_alias() {
        let a: Vec<u64> = (0..5_000u64).map(|i| i * 64).collect();
        let b: Vec<u64> = (0..5_000u64).map(|i| (i * 64) ^ 0xDEAD_0000).collect();
        let (dir_a, dir_b) = (tmp("cached-alias-a"), tmp("cached-alias-b"));
        write_segmented(&dir_a, &a, "lz", 1000);
        write_segmented(&dir_b, &b, "lz", 1000);
        let cache = SegmentCache::isolated(64 << 20);
        for _ in 0..2 {
            for (dir, want) in [(&dir_a, &a), (&dir_b, &b)] {
                let mut r = AtcReader::open_with(dir, cached(&cache)).unwrap();
                assert_eq!(&r.decode_all().unwrap(), want);
                r.seek(3).unwrap();
                assert_eq!(r.decode().unwrap(), Some(want[3000]));
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 10, "each trace's 5 frames miss once");
        assert_eq!(stats.bytes, 10_000 * 8);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn corrupt_first_frame_inserts_nothing_and_latches() {
        let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
        let dir = tmp("cached-corrupt");
        write_segmented(&dir, &addrs, "lz", 1000);
        let table = load_seek_table(&dir, &AtcReader::open(&dir).unwrap().meta).unwrap();
        let first = table.segments()[0];
        let data_path = dir.join(format::DATA_FILE);
        let mut data = std::fs::read(&data_path).unwrap();
        data[(first.file_offset + first.compressed_len / 2) as usize] ^= 0x40;
        std::fs::write(&data_path, &data).unwrap();

        let cache = SegmentCache::isolated(64 << 20);
        let mut r = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert!(r.next_frame().is_err());
        for _ in 0..3 {
            assert!(r.next_frame().is_err(), "the error latches");
            assert!(r.decode().is_err(), "the error latches");
        }
        assert_eq!(cache.stats().bytes, 0, "a failed parse inserts nothing");
        // A seek into the corrupt segment fails the same way.
        let mut r = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert!(r.seek_to_value(10).is_err());
        assert!(r.decode().is_err());
        assert_eq!(cache.stats().bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cap_below_one_frame_caches_nothing_and_reads_correctly() {
        let addrs: Vec<u64> = (0..20_500u64).map(|i| i * 8).collect();
        let dir = tmp("cached-tiny-cap");
        write_segmented(&dir, &addrs, "lz", 1000);
        // A 1000-address frame charges 8000 bytes; only the tail fits.
        let cache = SegmentCache::isolated(7_999);
        for _ in 0..2 {
            let mut r = AtcReader::open_with(&dir, cached(&cache)).unwrap();
            assert_eq!(r.decode_all().unwrap(), addrs);
            r.seek_to_value(12_345).unwrap();
            assert_eq!(r.decode_all().unwrap(), &addrs[12_345..]);
        }
        let stats = cache.stats();
        assert_eq!(stats.bytes, 500 * 8, "only the 500-address tail frame fits");
        assert_eq!(stats.evictions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_warm_read_misses_nothing() {
        let dir = tmp("cached-lossy-warm");
        let expect = write_lossy(&dir);
        let cache = SegmentCache::isolated(64 << 20);
        let mut cold = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert_eq!(cold.decode_all().unwrap(), expect);
        let stats = cache.stats();
        assert!(stats.misses >= 3, "every chunk missed once: {stats:?}");
        assert_eq!(
            stats.bytes,
            8 * ((stats.misses - 1) * 100 + 37),
            "{stats:?}"
        );

        let mut warm = AtcReader::open_with(&dir, cached(&cache)).unwrap();
        assert_eq!(warm.decode_all().unwrap(), expect);
        warm.seek_to_value(555).unwrap();
        assert_eq!(warm.decode_all().unwrap(), &expect[555..]);
        let warm_stats = cache.stats().since(&stats);
        assert_eq!(warm_stats.misses, 0, "{warm_stats:?}");
        assert!(warm_stats.hits > 0, "{warm_stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_chunk_larger_than_the_cap_reads_correctly() {
        let dir = tmp("cached-lossy-tiny-cap");
        let expect = write_lossy(&dir);
        // A 100-address chunk charges 800 bytes; nothing fits.
        let cache = SegmentCache::isolated(799);
        for _ in 0..2 {
            let mut r = AtcReader::open_with(&dir, cached(&cache)).unwrap();
            assert_eq!(r.decode_all().unwrap(), expect);
            r.seek_to_value(1_001).unwrap();
            assert_eq!(r.decode_all().unwrap(), &expect[1_001..]);
        }
        let stats = cache.stats();
        assert_eq!(stats.bytes, 37 * 8, "only the 37-address last chunk fits");
        assert_eq!(stats.evictions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_and_lossless_traces_share_one_cache_without_aliasing() {
        let (lossy_dir, lossless_dir) = (tmp("cached-mixed-lossy"), tmp("cached-mixed-lossless"));
        let lossy = write_lossy(&lossy_dir);
        let lossless: Vec<u64> = (0..3_000u64).map(|i| i * 64).collect();
        write_segmented(&lossless_dir, &lossless, "lz", 100);
        let cache = SegmentCache::isolated(64 << 20);
        for _ in 0..2 {
            for (dir, want) in [(&lossy_dir, &lossy), (&lossless_dir, &lossless)] {
                let mut r = AtcReader::open_with(dir, cached(&cache)).unwrap();
                assert_eq!(&r.decode_all().unwrap(), want);
                // Frame 0 of the lossless trace and chunk 0 of the lossy
                // one are both `(_, 0)` keys.
                r.seek(0).unwrap();
                assert_eq!(r.decode().unwrap(), Some(want[0]));
            }
        }
        let stats = cache.stats();
        let chunks = AtcReader::open(&lossy_dir).unwrap().meta().chunks;
        assert_eq!(
            stats.misses,
            30 + chunks,
            "each frame and chunk misses once"
        );
        assert_eq!(stats.bytes, 8 * (3_000 + (chunks - 1) * 100 + 37));
        std::fs::remove_dir_all(&lossy_dir).unwrap();
        std::fs::remove_dir_all(&lossless_dir).unwrap();
    }

    #[test]
    fn seek_then_next_frame_continues_borrowed_path() {
        let addrs: Vec<u64> = (0..100_000u64).map(|i| i * 7).collect();
        let dir = tmp("seek-frames");
        write_segmented(&dir, &addrs, "lz", 1000);
        let mut r = AtcReader::open(&dir).unwrap();
        r.seek(42).unwrap();
        let mut got = Vec::new();
        while let Some(frame) = r.next_frame().unwrap() {
            got.extend_from_slice(frame);
        }
        assert_eq!(got, &addrs[42_000..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_count_detected() {
        let dir = tmp("truncated");
        let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        w.code_all((0..10u64).map(|i| i * 64)).unwrap();
        w.finish().unwrap();
        // Tamper: claim more addresses than stored.
        let meta_path = dir.join("meta");
        let text = std::fs::read_to_string(&meta_path).unwrap();
        std::fs::write(&meta_path, text.replace("count=10", "count=11")).unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
