//! On-disk container format.
//!
//! An ATC trace is a *directory*, mirroring the original tool (Figure 8 of
//! the paper shows `foobar/1.bz2` + `foobar/INFO.bz2`):
//!
//! ```text
//! trace.atc/
//!   meta              plain-text key=value header (mode, codec, counts …)
//!   data.atc          lossless mode: the whole bytesorted trace, one codec stream
//!   chunk-000000.atc  lossy mode: one file per stored chunk
//!   info.atc          lossy mode: the compressed interval trace (records below)
//! ```
//!
//! Every `.atc` payload is a [`atc_codec::CodecWriter`] stream of the codec
//! named in `meta`. Address payloads are sequences of *frames*:
//! `varint(n) ++ bytesort columns (8·n bytes)`; a frame holds one buffer of
//! at most `buffer` addresses (the paper's `B`).
//!
//! The interval trace (`info.atc`) is a sequence of records:
//!
//! ```text
//! 0x01  varint(chunk_id) varint(len)            -- NewChunk
//! 0x02  varint(chunk_id) u8(mask) [256 B]*      -- Imitate (tables for set bits, ascending j)
//! ```

use std::io::{BufRead, Read, Write};

use atc_codec::{varint, SegmentRecord};

use crate::bytesort::{self, BytesortInverse};
use crate::error::{AtcError, Result};
use crate::hist::{Translation, COLUMNS};

/// Format version recorded in `meta`.
pub const FORMAT_VERSION: u32 = 1;

/// Name of the plain-text header file.
pub const META_FILE: &str = "meta";
/// Name of the lossless payload file.
pub const DATA_FILE: &str = "data.atc";
/// Name of the interval-trace file (lossy mode).
pub const INFO_FILE: &str = "info.atc";
/// Name of the per-trace seek sidecar (lossless mode, written by current
/// tools; tolerated absent on old archives).
pub const SEEK_FILE: &str = "seek.atc";

/// File name for chunk `id`.
pub fn chunk_file_name(id: u64) -> String {
    format!("chunk-{id:06}.atc")
}

/// Record tag: a new chunk was stored.
const TAG_CHUNK: u8 = 0x01;
/// Record tag: an interval imitates an existing chunk.
const TAG_IMITATE: u8 = 0x02;

/// One interval-trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntervalRecord {
    /// The interval was stored as chunk `chunk_id` (`len` addresses).
    NewChunk {
        /// Id of the stored chunk (also names the chunk file).
        chunk_id: u64,
        /// Number of addresses in the chunk.
        len: u64,
    },
    /// The interval is imitated by translating chunk `chunk_id`.
    Imitate {
        /// Id of the imitated chunk.
        chunk_id: u64,
        /// Per-column translations; `None` = identity (raw histograms
        /// already within threshold, the paper's "only if necessary" rule).
        translations: Box<[Option<Translation>; COLUMNS]>,
    },
}

impl IntervalRecord {
    /// Serializes the record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            IntervalRecord::NewChunk { chunk_id, len } => {
                w.write_all(&[TAG_CHUNK])?;
                varint::write_u64(w, *chunk_id)?;
                varint::write_u64(w, *len)?;
            }
            IntervalRecord::Imitate {
                chunk_id,
                translations,
            } => {
                w.write_all(&[TAG_IMITATE])?;
                varint::write_u64(w, *chunk_id)?;
                let mut mask = 0u8;
                for (j, t) in translations.iter().enumerate() {
                    if t.is_some() {
                        mask |= 1 << j;
                    }
                }
                w.write_all(&[mask])?;
                for t in translations.iter().flatten() {
                    w.write_all(t.table())?;
                }
            }
        }
        Ok(())
    }

    /// Reads the next record; `Ok(None)` at clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on unknown tags or invalid translation
    /// tables, and [`AtcError::Io`] on truncated input.
    pub fn read<R: Read>(r: &mut R) -> Result<Option<Self>> {
        let mut tag = [0u8; 1];
        match r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        match tag[0] {
            TAG_CHUNK => {
                let chunk_id = varint::read_u64(r)?;
                let len = varint::read_u64(r)?;
                Ok(Some(IntervalRecord::NewChunk { chunk_id, len }))
            }
            TAG_IMITATE => {
                let chunk_id = varint::read_u64(r)?;
                let mut mask = [0u8; 1];
                r.read_exact(&mut mask)?;
                let mut translations: Box<[Option<Translation>; COLUMNS]> = Box::default();
                for j in 0..COLUMNS {
                    if mask[0] & (1 << j) != 0 {
                        let mut table = [0u8; 256];
                        r.read_exact(&mut table)?;
                        let t = Translation::from_table(table).ok_or_else(|| {
                            AtcError::Format(format!(
                                "translation table for byte {j} is not a permutation"
                            ))
                        })?;
                        translations[j] = Some(t);
                    }
                }
                Ok(Some(IntervalRecord::Imitate {
                    chunk_id,
                    translations,
                }))
            }
            other => Err(AtcError::Format(format!("unknown record tag {other:#x}"))),
        }
    }
}

/// Hard cap on a single frame's declared address count.
///
/// A frame holds one writer buffer (the paper's `B`, typically a few
/// hundred to a few thousand addresses), so 16Mi addresses is far beyond
/// any legitimate trace while still bounding what a forged length can
/// make a reader allocate up front (~24 bytes per address across the
/// column buffers and the bytesort inverse's permutation arrays).
pub const FRAME_MAX_ADDRS: u64 = 1 << 24;

/// Validates a declared frame address count before anything is allocated.
fn check_frame_addrs(n: u64) -> Result<usize> {
    if n > FRAME_MAX_ADDRS {
        return Err(AtcError::Format(format!(
            "declared frame length {n} exceeds the {FRAME_MAX_ADDRS} address cap"
        )));
    }
    Ok(n as usize)
}

/// Writes one bytesorted frame: `varint(n)` followed by the eight columns.
///
/// # Errors
///
/// Propagates I/O errors from `w`; returns [`AtcError::Format`] for a
/// frame above [`FRAME_MAX_ADDRS`] (readers refuse it, so writing it
/// would only produce an unreadable trace).
pub fn write_frame<W: Write>(w: &mut W, addrs: &[u64]) -> Result<()> {
    if addrs.len() as u64 > FRAME_MAX_ADDRS {
        return Err(AtcError::Format(format!(
            "frame of {} addresses exceeds the {FRAME_MAX_ADDRS} cap",
            addrs.len()
        )));
    }
    varint::write_u64(w, addrs.len() as u64)?;
    let cols = bytesort::bytesort_forward(addrs);
    for c in &cols {
        w.write_all(c)?;
    }
    Ok(())
}

/// Reads one bytesorted frame into an owned vector; `Ok(None)` at clean
/// end of stream. A one-shot convenience over [`read_frame_borrowed`]
/// (the one frame parser) for callers that do not keep decoder state
/// across frames.
///
/// # Errors
///
/// Returns [`AtcError::Io`] on truncated frames and [`AtcError::Format`] on
/// structurally invalid ones.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<Vec<u64>>> {
    let mut inverse = BytesortInverse::default();
    let mut stats = FrameReadStats::default();
    if !read_frame_borrowed(r, &mut inverse, &mut Vec::new(), &mut stats)? {
        return Ok(None);
    }
    inverse.into_addrs().map(Some)
}

/// Accounting for the borrowed (zero-copy) frame-read path
/// ([`read_frame_borrowed`]): how many column bytes were consumed in place
/// versus copied. The analogue of
/// [`atc_codec::CodecWriter::scratch_stats`] for the decode side —
/// regression tests pin `copied_bytes == 0` whenever frames do not
/// straddle segment boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameReadStats {
    /// Frames decoded.
    pub frames: u64,
    /// Column bytes fed to the bytesort inverse borrowed straight from
    /// the stream's decoded segment buffer (no copy).
    pub borrowed_bytes: u64,
    /// Column bytes copied into scratch first because the column
    /// straddled a segment boundary.
    pub copied_bytes: u64,
}

/// Reads one bytesorted frame through a buffered stream, feeding each
/// column to `inverse` *borrowed from the stream's internal decoded
/// buffer* whenever the column is contiguous in it; only columns that
/// straddle a segment boundary are copied (into `scratch`, which is
/// reused). Returns `Ok(false)` at clean end of stream; on `Ok(true)` the
/// decoded addresses are in `inverse` (see [`BytesortInverse::finish`]).
///
/// This is the zero-copy path behind `AtcReader::next_frame`: with an
/// engine-backed [`atc_codec::CodecReader`] as the stream, decoded
/// segments travel worker → reassembly map → bytesort inverse with no
/// intermediate copy into a caller-owned buffer.
///
/// # Errors
///
/// Same failure modes as [`read_frame`].
pub fn read_frame_borrowed<R: BufRead>(
    r: &mut R,
    inverse: &mut BytesortInverse,
    scratch: &mut Vec<u8>,
    stats: &mut FrameReadStats,
) -> Result<bool> {
    let n = match try_read_varint(r)? {
        Some(n) => check_frame_addrs(n)?,
        None => return Ok(false),
    };
    inverse.begin(n);
    for _ in 0..COLUMNS {
        let buf = r.fill_buf()?;
        if buf.len() >= n {
            // The whole column is visible in the decoded segment buffer:
            // hand it over in place.
            inverse.push_column(&buf[..n])?;
            r.consume(n);
            stats.borrowed_bytes += n as u64;
        } else {
            // The column straddles a segment boundary (or the stream is
            // truncated): stitch it together through the reused scratch.
            // resize alone suffices — shrinking is free and only growth
            // zero-fills, so a warm scratch pays no redundant memset.
            // bounded: n was checked against FRAME_MAX_ADDRS above.
            scratch.resize(n, 0);
            r.read_exact(scratch)?;
            inverse.push_column(scratch)?;
            stats.copied_bytes += n as u64;
        }
    }
    inverse.finish()?;
    stats.frames += 1;
    Ok(true)
}

/// Reads a varint, mapping clean EOF (before the first byte) to `None`.
fn try_read_varint<R: Read>(r: &mut R) -> Result<Option<u64>> {
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    if first[0] & 0x80 == 0 {
        return Ok(Some(first[0] as u64));
    }
    let mut value = (first[0] & 0x7F) as u64;
    let mut shift = 7u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        value |= ((byte[0] & 0x7F) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        if shift > 63 {
            return Err(AtcError::Format("varint longer than 10 bytes".into()));
        }
    }
}

/// The plain-text `meta` header.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    /// Format version.
    pub version: u32,
    /// `"lossless"` or `"lossy"`.
    pub mode: String,
    /// Back-end codec name (see [`atc_codec::codec_by_name`]).
    pub codec: String,
    /// Bytesort buffer size `B` in addresses.
    pub buffer: u64,
    /// Interval length `L` (lossy mode; 0 in lossless mode).
    pub interval_len: u64,
    /// Similarity threshold ε (lossy mode; 0 in lossless mode).
    pub threshold: f64,
    /// Total number of addresses in the trace.
    pub count: u64,
    /// Number of stored chunks.
    pub chunks: u64,
    /// Number of segments recorded in the trace's [`SEEK_FILE`] sidecar
    /// (`None` = no sidecar: lossy traces, and lossless archives written
    /// before seek support — readers fall back to linear decode).
    pub seek_segments: Option<u64>,
}

impl Meta {
    /// Serializes as `key=value` lines.
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "version={}\nmode={}\ncodec={}\nbuffer={}\ninterval_len={}\nthreshold={}\ncount={}\nchunks={}\n",
            self.version,
            self.mode,
            self.codec,
            self.buffer,
            self.interval_len,
            self.threshold,
            self.count,
            self.chunks
        );
        if let Some(n) = self.seek_segments {
            text.push_str(&format!("seek_segments={n}\n"));
        }
        text
    }

    /// Parses the `meta` file contents.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on missing or malformed keys.
    pub fn parse(text: &str) -> Result<Self> {
        let mut map = std::collections::HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| AtcError::Format(format!("malformed meta line {line:?}")))?;
            map.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| {
            map.get(k)
                .cloned()
                .ok_or_else(|| AtcError::Format(format!("meta key {k:?} missing")))
        };
        let parse_u64 = |k: &str| -> Result<u64> {
            get(k)?
                .parse()
                .map_err(|_| AtcError::Format(format!("meta key {k:?} is not an integer")))
        };
        // No writer can produce a zero buffer, a buffer above the frame
        // cap or a lossy zero interval, and frame arithmetic (seek)
        // divides by the frame length.
        let buffer = parse_u64("buffer")?;
        if buffer == 0 || buffer > FRAME_MAX_ADDRS {
            return Err(AtcError::Format(format!(
                "meta records buffer={buffer}, outside 1..={FRAME_MAX_ADDRS}"
            )));
        }
        let mode = get("mode")?;
        let interval_len = parse_u64("interval_len")?;
        if mode == "lossy" && interval_len == 0 {
            return Err(AtcError::Format(
                "meta records a lossy trace with interval_len=0".into(),
            ));
        }
        Ok(Meta {
            version: parse_u64("version")? as u32,
            mode,
            codec: get("codec")?,
            buffer,
            interval_len,
            threshold: get("threshold")?
                .parse()
                .map_err(|_| AtcError::Format("meta key \"threshold\" is not a number".into()))?,
            count: parse_u64("count")?,
            chunks: parse_u64("chunks")?,
            // Optional: absent in archives written before seek support
            // (old parsers ignore unknown keys, so this is symmetric).
            seek_segments: map
                .get("seek_segments")
                .map(|v| {
                    v.parse().map_err(|_| {
                        AtcError::Format("meta key \"seek_segments\" is not an integer".into())
                    })
                })
                .transpose()?,
        })
    }
}

/// Magic prefix of an encoded [`SeekTable`] (the [`SEEK_FILE`] sidecar).
const SEEK_MAGIC: &[u8; 8] = b"ATCSEEK1";

/// The per-stream seek index: one [`SegmentRecord`] per sealed codec
/// segment, in stream order, mapping raw (decoded) byte ranges to the
/// file range holding their compressed form.
///
/// Written as the [`SEEK_FILE`] sidecar next to `data.atc` — for free,
/// since the stream writers already know every segment's offsets as they
/// seal it — and used by readers to jump to any frame in O(log segments)
/// instead of decoding from frame 0. The sidecar is an *optimization*,
/// not part of the trace's integrity story: readers tolerate its absence
/// (old archives) and fall back to linear decode.
///
/// Encoded layout: `"ATCSEEK1"` magic, `varint(segment_count)`, then per
/// segment `varint(compressed_len) varint(raw_len)`, and a little-endian
/// CRC-32 of all preceding bytes. File offsets and raw starts are prefix
/// sums from zero, so they are derived at decode time rather than stored.
///
/// # Examples
///
/// ```
/// use atc_codec::SegmentRecord;
/// use atc_core::format::SeekTable;
///
/// let table = SeekTable::from_records(vec![
///     SegmentRecord { file_offset: 0, compressed_len: 100, raw_len: 4096 },
///     SegmentRecord { file_offset: 100, compressed_len: 80, raw_len: 1000 },
/// ]).unwrap();
/// assert_eq!(table.locate(4095), Some(0));
/// assert_eq!(table.locate(4096), Some(1));
/// assert_eq!(table.locate(5096), None); // past the end
/// assert_eq!(SeekTable::decode(&table.encode()).unwrap(), table);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeekTable {
    segments: Vec<SegmentRecord>,
    /// Raw byte offset where each segment starts (prefix sums of
    /// `raw_len`), kept alongside for binary search.
    raw_starts: Vec<u64>,
}

impl SeekTable {
    /// Builds a table from the records a stream writer handed back
    /// ([`atc_codec::CodecWriter::finish_with_segments`]).
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] if the records are not contiguous
    /// from file offset 0 or contain a zero-raw-length segment — either
    /// means they do not describe one writer's stream.
    pub fn from_records(segments: Vec<SegmentRecord>) -> Result<Self> {
        // bounded: sized by the caller's in-memory records, not by wire
        // input — decode() is the path that reads untrusted bytes.
        let mut raw_starts = Vec::with_capacity(segments.len());
        let mut file_offset = 0u64;
        let mut raw_start = 0u64;
        for (i, s) in segments.iter().enumerate() {
            if s.file_offset != file_offset {
                return Err(AtcError::Format(format!(
                    "seek table: segment {i} starts at file offset {}, expected {file_offset}",
                    s.file_offset
                )));
            }
            if s.raw_len == 0 || s.compressed_len == 0 {
                return Err(AtcError::Format(format!(
                    "seek table: segment {i} has a zero length"
                )));
            }
            raw_starts.push(raw_start);
            // Lengths come from the sidecar on the decode() path: a forged
            // pair must not overflow the prefix sums.
            let overflow =
                || AtcError::Format(format!("seek table: segment {i} overflows the offsets"));
            file_offset = file_offset
                .checked_add(s.compressed_len)
                .ok_or_else(overflow)?;
            raw_start = raw_start.checked_add(s.raw_len).ok_or_else(overflow)?;
        }
        Ok(Self {
            segments,
            raw_starts,
        })
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the stream sealed no segments (an empty trace).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The per-segment records, stream order.
    pub fn segments(&self) -> &[SegmentRecord] {
        &self.segments
    }

    /// Raw byte offset at which segment `index` starts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn raw_start(&self, index: usize) -> u64 {
        self.raw_starts[index]
    }

    /// Total decoded bytes across all segments.
    pub fn total_raw_bytes(&self) -> u64 {
        self.raw_starts.last().map_or(0, |&s| s) + self.segments.last().map_or(0, |s| s.raw_len)
    }

    /// Index of the segment containing raw (decoded) byte `raw_offset`,
    /// or `None` when the offset is at or past the end of the stream.
    /// O(log segments).
    pub fn locate(&self, raw_offset: u64) -> Option<usize> {
        if raw_offset >= self.total_raw_bytes() {
            return None;
        }
        Some(self.raw_starts.partition_point(|&s| s <= raw_offset) - 1)
    }

    /// Serializes the table (see the type docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        // bounded: sized by this table's own in-memory segments — the
        // untrusted direction is decode(), which checks its counts.
        let mut out = Vec::with_capacity(12 + self.segments.len() * 4);
        out.extend_from_slice(SEEK_MAGIC);
        // atclint: allow(library-unwrap) -- infallible: io::Write on a
        // Vec<u8> never errors (the three expects below are the same
        // writer; covered by the file-level reasoning here).
        varint::write_u64(&mut out, self.segments.len() as u64).expect("vec write");
        for s in &self.segments {
            // atclint: allow(library-unwrap) -- infallible: vec write.
            varint::write_u64(&mut out, s.compressed_len).expect("vec write");
            // atclint: allow(library-unwrap) -- infallible: vec write.
            varint::write_u64(&mut out, s.raw_len).expect("vec write");
        }
        let crc = atc_codec::crc::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses [`SeekTable::encode`] output.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on bad magic, CRC mismatch, truncated
    /// or trailing bytes, zero-length segments, or an absurd segment
    /// count. A failed parse means the sidecar is unusable, not that the
    /// trace is — callers fall back to linear decode.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let bad = |what: &str| AtcError::Format(format!("seek table: {what}"));
        if bytes.len() < SEEK_MAGIC.len() + 4 {
            return Err(bad("truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        // atclint: allow(library-unwrap) -- infallible: split_at above
        // guarantees crc_bytes is exactly 4 bytes.
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if atc_codec::crc::crc32(body) != crc {
            return Err(bad("checksum mismatch"));
        }
        let mut cur = body;
        if &cur[..SEEK_MAGIC.len()] != SEEK_MAGIC {
            return Err(bad("bad magic"));
        }
        cur = &cur[SEEK_MAGIC.len()..];
        let count =
            varint::read_u64(&mut cur).map_err(|_| bad("truncated segment count"))? as usize;
        // 2 bytes minimum per encoded segment: reject absurd counts
        // before reserving memory for them.
        if count > body.len() / 2 {
            return Err(bad("segment count exceeds encoded size"));
        }
        // bounded: count was checked against the encoded size above.
        let mut segments = Vec::with_capacity(count);
        let mut file_offset = 0u64;
        for _ in 0..count {
            let compressed_len =
                varint::read_u64(&mut cur).map_err(|_| bad("truncated compressed length"))?;
            let raw_len = varint::read_u64(&mut cur).map_err(|_| bad("truncated raw length"))?;
            if compressed_len == 0 || raw_len == 0 {
                return Err(bad("zero-length segment"));
            }
            segments.push(SegmentRecord {
                file_offset,
                compressed_len,
                raw_len,
            });
            file_offset = file_offset
                .checked_add(compressed_len)
                .ok_or_else(|| bad("segment lengths overflow"))?;
        }
        if !cur.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Self::from_records(segments)
    }
}

/// Name of the plain-text manifest file at the root of a sharded store.
pub const STORE_MANIFEST_FILE: &str = "store-manifest";

/// Store-manifest format version written by the current tool.
///
/// Version 2 added the optional [`InterleaveTrack`] section; version-1
/// manifests (no track) remain readable — readers fall back to shard
/// concatenation for non-round-robin policies, exactly the pre-track
/// behavior (see `docs/ARCHITECTURE.md`, "The sharded store", for the
/// merge-mode table).
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Lower-case hex encoding (the manifest is a plain-text file, so binary
/// sections ride as hex lines).
fn hex_encode(bytes: &[u8]) -> String {
    // bounded: sized by the caller's in-memory bytes (encode direction).
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        // atclint: allow(library-unwrap) -- infallible: both nibbles are
        // masked to 0..=15, always a valid base-16 digit.
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        // atclint: allow(library-unwrap) -- infallible: ditto.
        out.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    out
}

/// Inverse of [`hex_encode`].
fn hex_decode(text: &str) -> Result<Vec<u8>> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(AtcError::Format("hex section has odd length".into()));
    }
    let digit = |c: char| {
        c.to_digit(16)
            .ok_or_else(|| AtcError::Format(format!("invalid hex digit {c:?}")))
    };
    // bounded: half the input's own length — cannot exceed it.
    let mut out = Vec::with_capacity(text.len() / 2);
    let mut chars = text.chars();
    while let (Some(hi), Some(lo)) = (chars.next(), chars.next()) {
        out.push(((digit(hi)? << 4) | digit(lo)?) as u8);
    }
    Ok(out)
}

/// The compressed record of a store writer's per-address routing
/// decisions: consecutive addresses routed to the same shard collapse to
/// one run, and the run list `(shard_id, run_len)…` is varint-encoded
/// (the same LEB128 as every other on-disk integer) into the manifest's
/// `interleave=` section.
///
/// With this track a [`StoreReader`](../../atc_store/struct.StoreReader.html)
/// replays the *global* arrival order exactly for **every**
/// `ShardPolicy`, not just round-robin: the merge loop takes `run_len`
/// values from `shard_id`, run by run. Round-robin needs no recorded
/// track — its interleaving is the degenerate constant-run rotation
/// `(0,1) (1,1) … (N-1,1) (0,1) …`, which the reader synthesizes — so
/// writers only record the track for data-dependent policies
/// (`addr-range`, `thread-id`).
///
/// Encoded layout: `varint(run_count)` followed by `run_count` pairs
/// `varint(shard_id) varint(run_len)`.
///
/// # Examples
///
/// ```
/// use atc_core::format::InterleaveTrack;
///
/// let mut t = InterleaveTrack::default();
/// for shard in [0u32, 0, 1, 1, 1, 0] {
///     t.record(shard);
/// }
/// assert_eq!(t.runs(), &[(0, 2), (1, 3), (0, 1)]);
/// let back = InterleaveTrack::decode(&t.encode()).unwrap();
/// assert_eq!(back, t);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterleaveTrack {
    /// `(shard_id, run_len)` pairs in arrival order.
    runs: Vec<(u32, u64)>,
}

impl InterleaveTrack {
    /// Appends one routing decision, merging it into the last run when
    /// the shard repeats (the RLE step — this is the only way runs are
    /// built, so zero-length runs never exist in a recorded track).
    pub fn record(&mut self, shard: u32) {
        match self.runs.last_mut() {
            Some((s, len)) if *s == shard => *len += 1,
            _ => self.runs.push((shard, 1)),
        }
    }

    /// The recorded `(shard_id, run_len)` runs, arrival order.
    pub fn runs(&self) -> &[(u32, u64)] {
        &self.runs
    }

    /// Total addresses covered by the track (the sum of all run lengths).
    pub fn addresses(&self) -> u64 {
        self.runs.iter().map(|&(_, len)| len).sum()
    }

    /// Length in bytes of [`InterleaveTrack::encode`]'s output, without
    /// materializing it (diagnostics like `atcstore stat` print this for
    /// tracks that may hold millions of runs).
    pub fn encoded_len(&self) -> usize {
        fn varint_len(v: u64) -> usize {
            ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
        }
        varint_len(self.runs.len() as u64)
            + self
                .runs
                .iter()
                .map(|&(shard, len)| varint_len(shard as u64) + varint_len(len))
                .sum::<usize>()
    }

    /// Serializes the track (varint run count, then varint pairs).
    pub fn encode(&self) -> Vec<u8> {
        // bounded: sized by this track's own in-memory runs — the
        // untrusted direction is decode(), which checks its counts.
        let mut out = Vec::with_capacity(2 + self.runs.len() * 3);
        // atclint: allow(library-unwrap) -- infallible: io::Write on a
        // Vec<u8> never errors.
        varint::write_u64(&mut out, self.runs.len() as u64).expect("vec write");
        for &(shard, len) in &self.runs {
            // atclint: allow(library-unwrap) -- infallible: vec write.
            varint::write_u64(&mut out, shard as u64).expect("vec write");
            // atclint: allow(library-unwrap) -- infallible: vec write.
            varint::write_u64(&mut out, len).expect("vec write");
        }
        out
    }

    /// Parses [`InterleaveTrack::encode`] output.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on truncated input, trailing bytes,
    /// zero-length runs, or shard ids beyond `u32`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut cur = bytes;
        let bad = |what: &str| AtcError::Format(format!("interleave track: {what}"));
        let run_count =
            varint::read_u64(&mut cur).map_err(|_| bad("truncated run count"))? as usize;
        // 2 bytes minimum per encoded run: reject absurd counts before
        // reserving memory for them.
        if run_count > bytes.len() / 2 {
            return Err(bad("run count exceeds encoded size"));
        }
        // bounded: run_count was checked against the encoded size above.
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let shard = varint::read_u64(&mut cur).map_err(|_| bad("truncated shard id"))?;
            let shard = u32::try_from(shard).map_err(|_| bad("shard id exceeds u32"))?;
            let len = varint::read_u64(&mut cur).map_err(|_| bad("truncated run length"))?;
            if len == 0 {
                return Err(bad("zero-length run"));
            }
            runs.push((shard, len));
        }
        if !cur.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(Self { runs })
    }

    /// Checks the track against the manifest's per-shard counts: every
    /// run must name a known shard and each shard's run lengths must sum
    /// to exactly its recorded address count.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] describing the first disagreement.
    pub fn validate(&self, shard_counts: &[u64]) -> Result<()> {
        // bounded: one counter per shard the caller's manifest already
        // holds in memory — not a wire-declared length.
        let mut sums = vec![0u64; shard_counts.len()];
        for &(shard, len) in &self.runs {
            let slot = sums.get_mut(shard as usize).ok_or_else(|| {
                AtcError::Format(format!(
                    "interleave track names shard {shard}, store has {}",
                    shard_counts.len()
                ))
            })?;
            *slot += len;
        }
        for (i, (&got, &expect)) in sums.iter().zip(shard_counts).enumerate() {
            if got != expect {
                return Err(AtcError::Format(format!(
                    "interleave track routes {got} addresses to shard {i}, \
                     manifest says {expect}"
                )));
            }
        }
        Ok(())
    }
}

/// Directory name for shard `index` inside a store root.
pub fn shard_dir_name(index: usize) -> String {
    format!("shard-{index:03}")
}

/// The plain-text `store-manifest` header of a sharded multi-trace store:
/// the multi-directory analogue of [`Meta`].
///
/// A store is a root directory holding one complete ATC trace directory
/// per shard ([`shard_dir_name`]) plus this manifest, which records how
/// addresses were routed so a reader can reassemble the stream:
///
/// ```text
/// store.atc/
///   store-manifest    this header (+ optional interleave= hex section)
///   shard-000/        a complete ATC trace directory (meta, data.atc | chunks)
///   shard-001/
///   ...
/// ```
///
/// Version ≥ 2 manifests may carry an `interleave=` section — the
/// RLE+varint [`InterleaveTrack`] of the writer's routing decisions —
/// which lets the reader replay the exact global arrival order under
/// *any* policy. Manifests without it (version 1, or round-robin at any
/// version) still read: round-robin merges by synthesized rotation, the
/// data-dependent policies by shard concatenation. The full merge-mode
/// table lives in `docs/ARCHITECTURE.md` ("The sharded store").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreManifest {
    /// Manifest format version (see [`STORE_FORMAT_VERSION`]).
    pub version: u32,
    /// Shard-routing policy name, e.g. `"round-robin"`, `"addr-range:12"`,
    /// `"thread-id"` (parsed by the store layer).
    pub policy: String,
    /// Total number of addresses across all shards.
    pub count: u64,
    /// Per-shard address counts, shard 0 first; its length is the shard
    /// count.
    pub shard_counts: Vec<u64>,
    /// Recorded routing interleave (version ≥ 2, data-dependent policies
    /// only): drives exact global-order merged read-back. `None` in old
    /// manifests and for round-robin, whose rotation the reader
    /// synthesizes.
    pub interleave: Option<InterleaveTrack>,
}

impl StoreManifest {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_counts.len()
    }

    /// Serializes as `key=value` lines (the interleave section, when
    /// present, rides as one hex line so the file stays plain text).
    pub fn to_text(&self) -> String {
        let counts: Vec<String> = self.shard_counts.iter().map(u64::to_string).collect();
        let mut text = format!(
            "version={}\npolicy={}\ncount={}\nshard_counts={}\n",
            self.version,
            self.policy,
            self.count,
            counts.join(",")
        );
        if let Some(track) = &self.interleave {
            text.push_str("interleave=");
            text.push_str(&hex_encode(&track.encode()));
            text.push('\n');
        }
        text
    }

    /// Parses the `store-manifest` file contents.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on missing or malformed keys, or if
    /// the per-shard counts do not sum to `count`.
    pub fn parse(text: &str) -> Result<Self> {
        let mut map = std::collections::HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| AtcError::Format(format!("malformed manifest line {line:?}")))?;
            map.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| {
            map.get(k)
                .cloned()
                .ok_or_else(|| AtcError::Format(format!("manifest key {k:?} missing")))
        };
        let version: u64 = get("version")?
            .parse()
            .map_err(|_| AtcError::Format("manifest key \"version\" is not an integer".into()))?;
        let count: u64 = get("count")?
            .parse()
            .map_err(|_| AtcError::Format("manifest key \"count\" is not an integer".into()))?;
        let counts_text = get("shard_counts")?;
        let shard_counts: Vec<u64> = if counts_text.is_empty() {
            Vec::new()
        } else {
            counts_text
                .split(',')
                .map(|t| {
                    t.trim().parse().map_err(|_| {
                        AtcError::Format(format!("manifest shard count {t:?} is not an integer"))
                    })
                })
                .collect::<Result<_>>()?
        };
        if shard_counts.is_empty() {
            return Err(AtcError::Format("manifest lists no shards".into()));
        }
        let sum = shard_counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or_else(|| AtcError::Format("manifest shard counts overflow".into()))?;
        if sum != count {
            return Err(AtcError::Format(format!(
                "manifest shard counts sum to {sum}, count says {count}"
            )));
        }
        if version > STORE_FORMAT_VERSION as u64 {
            return Err(AtcError::Format(format!(
                "manifest version {version} is newer than this tool's \
                 {STORE_FORMAT_VERSION}"
            )));
        }
        // Absent in version-1 manifests (and for round-robin at any
        // version): readers fall back to their track-less merge.
        let interleave = match map.get("interleave") {
            Some(hex) => {
                let track = InterleaveTrack::decode(&hex_decode(hex)?)?;
                track.validate(&shard_counts)?;
                Some(track)
            }
            None => None,
        };
        Ok(StoreManifest {
            version: version as u32,
            policy: get("policy")?,
            count,
            shard_counts,
            interleave,
        })
    }
}

// ---------------------------------------------------------------------------
// Network protocol (`atcd`)
// ---------------------------------------------------------------------------
//
// The trace service speaks a small length-prefixed binary protocol over
// TCP. A connection opens with a magic exchange (server banner first,
// then the client's copy), after which both directions carry *frames*:
//
// ```text
// varint(len) ++ body          len = body length in bytes, body[0] = tag
// ```
//
// The first request on a connection must be [`NetRequest::Hello`]; the
// server answers [`NetResponse::Hello`] and then serves requests until
// the client closes the socket. Range and shard queries answer with zero
// or more [`NetResponse::Data`] frames followed by one
// [`NetResponse::Done`]; every failure is a [`NetResponse::Error`].
//
// A declared frame length above [`NET_MAX_FRAME`] is a protocol error:
// readers reject it *before* allocating, so a hostile length cannot
// balloon server or client memory.

/// Magic banner exchanged at the start of every `atcd` connection.
pub const NET_MAGIC: [u8; 7] = *b"ATCNET1";

/// Protocol version carried by the `Hello` exchange.
pub const NET_PROTOCOL_VERSION: u32 = 1;

/// Hard cap on any declared frame length (body bytes). Data frames are
/// sized by the server's send window, which is far below this; anything
/// larger is a malformed or hostile frame and is rejected unread.
pub const NET_MAX_FRAME: u64 = 8 << 20;

const NET_REQ_HELLO: u8 = 0x01;
const NET_REQ_STAT: u8 = 0x02;
const NET_REQ_READ_RANGE: u8 = 0x03;
const NET_REQ_STREAM_SHARD: u8 = 0x04;

const NET_RESP_HELLO: u8 = 0x81;
const NET_RESP_STAT: u8 = 0x82;
const NET_RESP_DATA: u8 = 0x83;
const NET_RESP_DONE: u8 = 0x84;
const NET_RESP_ERROR: u8 = 0xFF;

/// Longest `Error` message the encoder will emit (longer ones truncate).
const NET_MAX_ERROR_LEN: usize = 4096;

/// Writes one protocol frame: `varint(body.len()) ++ body`.
///
/// # Errors
///
/// Propagates I/O errors from `w`; refuses bodies above [`NET_MAX_FRAME`].
pub fn write_net_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<()> {
    if body.len() as u64 > NET_MAX_FRAME {
        return Err(AtcError::Format(format!(
            "refusing to send a {} byte frame (cap {NET_MAX_FRAME})",
            body.len()
        )));
    }
    varint::write_u64(w, body.len() as u64)?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one protocol frame body. `Ok(None)` on clean end of stream
/// (EOF before the first length byte).
///
/// # Errors
///
/// Returns [`AtcError::Format`] when the declared length exceeds
/// [`NET_MAX_FRAME`] or the body is empty, and [`AtcError::Io`] on
/// truncated input.
pub fn read_net_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = if first[0] & 0x80 == 0 {
        u64::from(first[0])
    } else {
        // Continue the varint whose first byte is already consumed.
        let mut value = u64::from(first[0] & 0x7F);
        let mut shift = 7u32;
        loop {
            let mut byte = [0u8; 1];
            r.read_exact(&mut byte)?;
            value |= u64::from(byte[0] & 0x7F) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 63 {
                return Err(AtcError::Format("frame length varint overflows".into()));
            }
        }
        value
    };
    net_check_frame_len(len)?;
    // bounded: len was checked against NET_MAX_FRAME just above.
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Validates a declared frame length before anything is allocated.
///
/// # Errors
///
/// Returns [`AtcError::Format`] for empty frames and for lengths above
/// [`NET_MAX_FRAME`].
pub fn net_check_frame_len(len: u64) -> Result<()> {
    if len == 0 {
        return Err(AtcError::Format("empty protocol frame".into()));
    }
    if len > NET_MAX_FRAME {
        return Err(AtcError::Format(format!(
            "declared frame length {len} exceeds the {NET_MAX_FRAME} byte cap"
        )));
    }
    Ok(())
}

/// A client-to-server request record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRequest {
    /// Opens the session; must be the first request on a connection.
    Hello {
        /// Client protocol version (see [`NET_PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Asks for the store's manifest summary and cache counters.
    StatStore,
    /// Asks for global merged positions `start..end` (half-open).
    ReadRange {
        /// First merged position wanted.
        start: u64,
        /// One past the last merged position wanted.
        end: u64,
    },
    /// Streams shard `shard`'s sub-stream starting at its value `from`.
    StreamShard {
        /// Shard index within the store.
        shard: u32,
        /// First shard-local value position wanted.
        from: u64,
    },
}

impl NetRequest {
    /// Serializes the request as one frame into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> Result<()> {
        let mut body = Vec::with_capacity(24);
        match self {
            NetRequest::Hello { version } => {
                body.push(NET_REQ_HELLO);
                varint::write_u64(&mut body, u64::from(*version))?;
            }
            NetRequest::StatStore => body.push(NET_REQ_STAT),
            NetRequest::ReadRange { start, end } => {
                body.push(NET_REQ_READ_RANGE);
                varint::write_u64(&mut body, *start)?;
                varint::write_u64(&mut body, *end)?;
            }
            NetRequest::StreamShard { shard, from } => {
                body.push(NET_REQ_STREAM_SHARD);
                varint::write_u64(&mut body, u64::from(*shard))?;
                varint::write_u64(&mut body, *from)?;
            }
        }
        write_net_frame(w, &body)
    }

    /// Parses a request from a frame body.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on unknown tags, truncated fields,
    /// out-of-range values, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self> {
        let bad = |what: &str| AtcError::Format(format!("net request: {what}"));
        let (&tag, mut cur) = body.split_first().ok_or_else(|| bad("empty frame"))?;
        let req = match tag {
            NET_REQ_HELLO => {
                let version = varint::read_u64(&mut cur).map_err(|_| bad("truncated hello"))?;
                NetRequest::Hello {
                    version: u32::try_from(version)
                        .map_err(|_| bad("hello version exceeds u32"))?,
                }
            }
            NET_REQ_STAT => NetRequest::StatStore,
            NET_REQ_READ_RANGE => NetRequest::ReadRange {
                start: varint::read_u64(&mut cur).map_err(|_| bad("truncated range start"))?,
                end: varint::read_u64(&mut cur).map_err(|_| bad("truncated range end"))?,
            },
            NET_REQ_STREAM_SHARD => NetRequest::StreamShard {
                shard: u32::try_from(
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated shard index"))?,
                )
                .map_err(|_| bad("shard index exceeds u32"))?,
                from: varint::read_u64(&mut cur).map_err(|_| bad("truncated shard offset"))?,
            },
            other => return Err(bad(&format!("unknown request tag {other:#04x}"))),
        };
        if !cur.is_empty() {
            return Err(bad(&format!("{} trailing bytes", cur.len())));
        }
        Ok(req)
    }
}

/// The manifest-summary payload of [`NetResponse::Stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStat {
    /// Store manifest version.
    pub manifest_version: u32,
    /// Shard-routing policy name from the manifest.
    pub policy: String,
    /// Total merged addresses in the store.
    pub count: u64,
    /// Per-shard address counts (length = shard count).
    pub shard_counts: Vec<u64>,
    /// Whether the merged read-back replays exact arrival order.
    pub exact_merge: bool,
    /// Frame-cache hits accumulated since the server started.
    pub cache_hits: u64,
    /// Frame-cache misses accumulated since the server started.
    pub cache_misses: u64,
}

/// A server-to-client response record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetResponse {
    /// Session accepted; carries the server's protocol version.
    Hello {
        /// Server protocol version (see [`NET_PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Manifest summary + cache counters (answers `StatStore`).
    Stat(NetStat),
    /// One window of payload values, little-endian `u64`s.
    Data(Vec<u64>),
    /// Terminates a `Data` stream; `values` totals the preceding frames.
    Done {
        /// Number of values sent across the whole response.
        values: u64,
    },
    /// The request failed; the connection may or may not survive.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

impl NetResponse {
    /// Serializes the response as one frame into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`; a `Data` frame larger than
    /// [`NET_MAX_FRAME`] is refused (chunk before encoding).
    pub fn write<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            NetResponse::Hello { version } => {
                let mut body = Vec::with_capacity(8);
                body.push(NET_RESP_HELLO);
                varint::write_u64(&mut body, u64::from(*version))?;
                write_net_frame(w, &body)
            }
            NetResponse::Stat(stat) => {
                // bounded: sized by the server's own policy string (a
                // short name, never wire input) plus a fixed header.
                let mut body = Vec::with_capacity(64 + stat.policy.len());
                body.push(NET_RESP_STAT);
                varint::write_u64(&mut body, u64::from(stat.manifest_version))?;
                varint::write_u64(&mut body, stat.count)?;
                body.push(u8::from(stat.exact_merge));
                varint::write_u64(&mut body, stat.shard_counts.len() as u64)?;
                for &c in &stat.shard_counts {
                    varint::write_u64(&mut body, c)?;
                }
                varint::write_u64(&mut body, stat.cache_hits)?;
                varint::write_u64(&mut body, stat.cache_misses)?;
                varint::write_u64(&mut body, stat.policy.len() as u64)?;
                body.extend_from_slice(stat.policy.as_bytes());
                write_net_frame(w, &body)
            }
            NetResponse::Data(values) => Self::write_values_frame(w, values),
            NetResponse::Done { values } => {
                let mut body = Vec::with_capacity(12);
                body.push(NET_RESP_DONE);
                varint::write_u64(&mut body, *values)?;
                write_net_frame(w, &body)
            }
            NetResponse::Error { message } => {
                let trimmed = if message.len() > NET_MAX_ERROR_LEN {
                    let mut end = NET_MAX_ERROR_LEN;
                    while !message.is_char_boundary(end) {
                        end -= 1;
                    }
                    &message[..end]
                } else {
                    message.as_str()
                };
                // bounded: trimmed was capped at NET_MAX_ERROR_LEN above.
                let mut body = Vec::with_capacity(1 + trimmed.len());
                body.push(NET_RESP_ERROR);
                body.extend_from_slice(trimmed.as_bytes());
                write_net_frame(w, &body)
            }
        }
    }

    /// Writes one `Data` frame straight from a value slice — the server's
    /// hot path, which never materializes an intermediate byte buffer
    /// beyond the frame itself.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`; refuses slices whose encoding
    /// would exceed [`NET_MAX_FRAME`].
    pub fn write_values_frame<W: Write>(w: &mut W, values: &[u64]) -> Result<()> {
        let body_len = 1 + values.len() as u64 * 8;
        net_check_frame_len(body_len.min(NET_MAX_FRAME + 1))?;
        if body_len > NET_MAX_FRAME {
            return Err(AtcError::Format(format!(
                "data frame of {} values exceeds the frame cap",
                values.len()
            )));
        }
        varint::write_u64(w, body_len)?;
        w.write_all(&[NET_RESP_DATA])?;
        for v in values {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Parses a response from a frame body.
    ///
    /// # Errors
    ///
    /// Returns [`AtcError::Format`] on unknown tags, truncated fields,
    /// misaligned data payloads, non-UTF-8 error text, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self> {
        let bad = |what: &str| AtcError::Format(format!("net response: {what}"));
        let (&tag, mut cur) = body.split_first().ok_or_else(|| bad("empty frame"))?;
        let resp = match tag {
            NET_RESP_HELLO => NetResponse::Hello {
                version: u32::try_from(
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated hello"))?,
                )
                .map_err(|_| bad("hello version exceeds u32"))?,
            },
            NET_RESP_STAT => {
                let manifest_version = u32::try_from(
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated stat version"))?,
                )
                .map_err(|_| bad("manifest version exceeds u32"))?;
                let count = varint::read_u64(&mut cur).map_err(|_| bad("truncated count"))?;
                let mut flag = [0u8; 1];
                cur.read_exact(&mut flag)
                    .map_err(|_| bad("truncated merge flag"))?;
                let shards =
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated shard count"))?;
                if shards > NET_MAX_FRAME {
                    return Err(bad("absurd shard count"));
                }
                // bounded: the declared count is range-checked above and
                // the reservation is additionally clamped to 64Ki slots;
                // beyond that the Vec grows only as varints actually parse.
                let mut shard_counts = Vec::with_capacity(shards.min(1 << 16) as usize);
                for _ in 0..shards {
                    shard_counts.push(
                        varint::read_u64(&mut cur).map_err(|_| bad("truncated shard counts"))?,
                    );
                }
                let cache_hits =
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated cache hits"))?;
                let cache_misses =
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated cache misses"))?;
                let policy_len =
                    varint::read_u64(&mut cur).map_err(|_| bad("truncated policy length"))?;
                if policy_len != cur.len() as u64 {
                    return Err(bad("policy length disagrees with frame"));
                }
                let policy = std::str::from_utf8(cur)
                    .map_err(|_| bad("policy is not UTF-8"))?
                    .to_string();
                cur = &[];
                NetResponse::Stat(NetStat {
                    manifest_version,
                    policy,
                    count,
                    shard_counts,
                    exact_merge: flag[0] != 0,
                    cache_hits,
                    cache_misses,
                })
            }
            NET_RESP_DATA => {
                if cur.len() % 8 != 0 {
                    return Err(bad(&format!(
                        "data payload of {} bytes is not a whole number of values",
                        cur.len()
                    )));
                }
                let values = cur
                    .chunks_exact(8)
                    // atclint: allow(library-unwrap) -- infallible:
                    // chunks_exact(8) yields only 8-byte slices.
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                cur = &[];
                NetResponse::Data(values)
            }
            NET_RESP_DONE => NetResponse::Done {
                values: varint::read_u64(&mut cur).map_err(|_| bad("truncated done count"))?,
            },
            NET_RESP_ERROR => {
                let message = std::str::from_utf8(cur)
                    .map_err(|_| bad("error text is not UTF-8"))?
                    .to_string();
                cur = &[];
                NetResponse::Error { message }
            }
            other => return Err(bad(&format!("unknown response tag {other:#04x}"))),
        };
        if !cur.is_empty() {
            return Err(bad(&format!("{} trailing bytes", cur.len())));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let addrs: Vec<u64> = (0..777u64).map(|i| i * 997).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &addrs).unwrap();
        write_frame(&mut buf, &addrs[..10]).unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), addrs);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), &addrs[..10]);
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn empty_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn forged_frame_length_is_rejected_before_allocation() {
        // A forged varint declaring 2^40 addresses must be refused by the
        // length check, not by an attempted ~24 TiB allocation.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1u64 << 40).unwrap();
        buf.extend_from_slice(&[0u8; 64]);
        let mut cur = &buf[..];
        match read_frame(&mut cur) {
            Err(AtcError::Format(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        // Exactly at the cap the count itself is acceptable (the read then
        // fails only because the columns are missing, i.e. truncation).
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, FRAME_MAX_ADDRS).unwrap();
        let mut cur = &buf[..];
        assert!(matches!(read_frame(&mut cur), Err(AtcError::Io(_))));
    }

    #[test]
    fn oversized_frame_is_refused_at_write() {
        // Faking the length via a zero-copy slice would need 128 MiB of
        // real addresses; assert on the check with a length-1 slice is not
        // possible, so exercise the boundary arithmetic directly instead.
        assert!(check_frame_addrs(FRAME_MAX_ADDRS).is_ok());
        assert!(check_frame_addrs(FRAME_MAX_ADDRS + 1).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let addrs: Vec<u64> = (0..100u64).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &addrs).unwrap();
        buf.truncate(buf.len() - 5);
        let mut cur = &buf[..];
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn record_roundtrip_chunk() {
        let rec = IntervalRecord::NewChunk {
            chunk_id: 42,
            len: 1_000_000,
        };
        let mut buf = Vec::new();
        rec.write(&mut buf).unwrap();
        let mut cur = &buf[..];
        assert_eq!(IntervalRecord::read(&mut cur).unwrap().unwrap(), rec);
        assert!(IntervalRecord::read(&mut cur).unwrap().is_none());
    }

    #[test]
    fn record_roundtrip_imitate() {
        let mut translations: Box<[Option<Translation>; COLUMNS]> = Box::default();
        let mut table = [0u8; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as u8).wrapping_add(1);
        }
        translations[2] = Some(Translation::from_table(table).unwrap());
        translations[5] = Some(Translation::identity());
        let rec = IntervalRecord::Imitate {
            chunk_id: 7,
            translations,
        };
        let mut buf = Vec::new();
        rec.write(&mut buf).unwrap();
        // 1 tag + 1 id + 1 mask + 2*256 tables
        assert_eq!(buf.len(), 3 + 512);
        let mut cur = &buf[..];
        assert_eq!(IntervalRecord::read(&mut cur).unwrap().unwrap(), rec);
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [0xEEu8];
        let mut cur = &buf[..];
        assert!(IntervalRecord::read(&mut cur).is_err());
    }

    #[test]
    fn non_permutation_table_rejected() {
        let mut buf = vec![TAG_IMITATE, 1, 0b0000_0001];
        buf.extend_from_slice(&[7u8; 256]); // constant table: not a permutation
        let mut cur = &buf[..];
        assert!(IntervalRecord::read(&mut cur).is_err());
    }

    #[test]
    fn borrowed_frame_read_matches_copying_read() {
        let addrs: Vec<u64> = (0..777u64).map(|i| i * 997).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &addrs).unwrap();
        write_frame(&mut buf, &addrs[..10]).unwrap();
        write_frame(&mut buf, &[]).unwrap();

        // A `&[u8]` is a BufRead whose fill_buf exposes everything at
        // once: every column must ride the borrowed path.
        let mut cur = &buf[..];
        let mut inv = BytesortInverse::default();
        let mut scratch = Vec::new();
        let mut stats = FrameReadStats::default();
        assert!(read_frame_borrowed(&mut cur, &mut inv, &mut scratch, &mut stats).unwrap());
        assert_eq!(inv.finish().unwrap(), &addrs[..]);
        assert!(read_frame_borrowed(&mut cur, &mut inv, &mut scratch, &mut stats).unwrap());
        assert_eq!(inv.finish().unwrap(), &addrs[..10]);
        assert!(read_frame_borrowed(&mut cur, &mut inv, &mut scratch, &mut stats).unwrap());
        assert_eq!(inv.finish().unwrap(), &[] as &[u64]);
        assert!(!read_frame_borrowed(&mut cur, &mut inv, &mut scratch, &mut stats).unwrap());
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.borrowed_bytes, (777 + 10) * 8);
        assert_eq!(stats.copied_bytes, 0);

        // A tiny BufReader window forces every column through the
        // stitching path; the decoded frames must be identical.
        let mut small = std::io::BufReader::with_capacity(7, &buf[..]);
        let mut stats = FrameReadStats::default();
        assert!(read_frame_borrowed(&mut small, &mut inv, &mut scratch, &mut stats).unwrap());
        assert_eq!(inv.finish().unwrap(), &addrs[..]);
        assert!(stats.copied_bytes > 0);
    }

    #[test]
    fn borrowed_frame_read_detects_truncation() {
        let addrs: Vec<u64> = (0..100u64).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &addrs).unwrap();
        buf.truncate(buf.len() - 5);
        let mut cur = &buf[..];
        let mut inv = BytesortInverse::default();
        let mut scratch = Vec::new();
        let mut stats = FrameReadStats::default();
        assert!(read_frame_borrowed(&mut cur, &mut inv, &mut scratch, &mut stats).is_err());
    }

    #[test]
    fn store_manifest_roundtrip() {
        let m = StoreManifest {
            version: FORMAT_VERSION,
            policy: "addr-range:12".into(),
            count: 60,
            shard_counts: vec![10, 20, 30],
            interleave: None,
        };
        let back = StoreManifest::parse(&m.to_text()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.shards(), 3);
    }

    #[test]
    fn store_manifest_roundtrips_interleave_track() {
        let mut track = InterleaveTrack::default();
        for shard in [0u32, 0, 0, 2, 2, 1, 0] {
            track.record(shard);
        }
        let m = StoreManifest {
            version: STORE_FORMAT_VERSION,
            policy: "addr-range:12".into(),
            count: 7,
            shard_counts: vec![4, 1, 2],
            interleave: Some(track.clone()),
        };
        let text = m.to_text();
        assert!(text.contains("interleave="), "track rides as a hex line");
        let back = StoreManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.interleave.unwrap().runs(), track.runs());
    }

    #[test]
    fn store_manifest_rejects_bad_input() {
        assert!(StoreManifest::parse("version=1\n").is_err(), "missing keys");
        let no_shards = "version=1\npolicy=round-robin\ncount=0\nshard_counts=\n";
        assert!(StoreManifest::parse(no_shards).is_err(), "no shards");
        let bad_sum = "version=1\npolicy=round-robin\ncount=5\nshard_counts=1,2\n";
        assert!(StoreManifest::parse(bad_sum).is_err(), "counts don't sum");
        // u64::MAX + 300001 wraps to exactly the declared count.
        let wraps = "version=1\npolicy=round-robin\ncount=300000\n\
                     shard_counts=18446744073709551615,300001\n";
        assert!(StoreManifest::parse(wraps).is_err(), "wrapping sum");
        let future = "version=99\npolicy=round-robin\ncount=3\nshard_counts=1,2\n";
        assert!(StoreManifest::parse(future).is_err(), "future version");
        let bad_hex = "version=2\npolicy=thread-id\ncount=3\nshard_counts=1,2\ninterleave=zz\n";
        assert!(StoreManifest::parse(bad_hex).is_err(), "bad hex");
        // Track routes 3 addresses to shard 0; shard_counts disagree.
        let mut t = InterleaveTrack::default();
        for _ in 0..3 {
            t.record(0);
        }
        let lying = format!(
            "version=2\npolicy=thread-id\ncount=3\nshard_counts=1,2\ninterleave={}\n",
            hex_encode(&t.encode())
        );
        assert!(
            StoreManifest::parse(&lying).is_err(),
            "track/count disagreement"
        );
    }

    #[test]
    fn interleave_track_records_and_roundtrips() {
        let mut t = InterleaveTrack::default();
        assert_eq!(t.addresses(), 0);
        assert_eq!(InterleaveTrack::decode(&t.encode()).unwrap(), t);
        for shard in [3u32, 3, 3, 0, 1, 1, 3] {
            t.record(shard);
        }
        assert_eq!(t.runs(), &[(3, 3), (0, 1), (1, 2), (3, 1)]);
        assert_eq!(t.addresses(), 7);
        assert_eq!(InterleaveTrack::decode(&t.encode()).unwrap(), t);
        assert_eq!(t.encoded_len(), t.encode().len());
        // Multi-byte varints (shard 300, run length 5 M) count correctly.
        let mut wide = InterleaveTrack::default();
        for _ in 0..5_000_000u64 {
            wide.record(300);
        }
        wide.record(0);
        assert_eq!(wide.encoded_len(), wide.encode().len());
        assert_eq!(InterleaveTrack::default().encoded_len(), 1);
        assert!(t.validate(&[1, 2, 0, 4]).is_ok());
        assert!(t.validate(&[1, 2, 0]).is_err(), "unknown shard id");
        assert!(t.validate(&[2, 2, 0, 4]).is_err(), "per-shard sum mismatch");
    }

    #[test]
    fn interleave_track_decode_rejects_malformed() {
        let mut t = InterleaveTrack::default();
        t.record(1);
        t.record(2);
        let good = t.encode();
        assert!(InterleaveTrack::decode(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(InterleaveTrack::decode(&trailing).is_err());
        // varint(1 run), shard 0, run length 0.
        assert!(InterleaveTrack::decode(&[1, 0, 0]).is_err(), "zero run");
        // Claimed run count far beyond the bytes backing it.
        let mut absurd = Vec::new();
        varint::write_u64(&mut absurd, u64::MAX).unwrap();
        assert!(InterleaveTrack::decode(&absurd).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
    }

    #[test]
    fn shard_names_sortable() {
        assert_eq!(shard_dir_name(0), "shard-000");
        assert_eq!(shard_dir_name(999), "shard-999");
        assert!(shard_dir_name(1) < shard_dir_name(2));
    }

    #[test]
    fn meta_roundtrip() {
        let m = Meta {
            version: FORMAT_VERSION,
            mode: "lossy".into(),
            codec: "bzip".into(),
            buffer: 1_000_000,
            interval_len: 10_000_000,
            threshold: 0.1,
            count: 123_456_789,
            chunks: 17,
            seek_segments: None,
        };
        let text = m.to_text();
        assert!(
            !text.contains("seek_segments"),
            "sidecar-less meta stays byte-identical to the old format"
        );
        assert_eq!(Meta::parse(&text).unwrap(), m);
        let with_seek = Meta {
            seek_segments: Some(42),
            ..m
        };
        assert_eq!(Meta::parse(&with_seek.to_text()).unwrap(), with_seek);
        assert!(Meta::parse("version=1\nmode=lossless\ncodec=bzip\nbuffer=1\ninterval_len=0\nthreshold=0\ncount=0\nchunks=0\nseek_segments=x\n").is_err());
    }

    #[test]
    fn seek_table_roundtrips_and_locates() {
        let recs = vec![
            SegmentRecord {
                file_offset: 0,
                compressed_len: 1000,
                raw_len: 4096,
            },
            SegmentRecord {
                file_offset: 1000,
                compressed_len: 7,
                raw_len: 4096,
            },
            SegmentRecord {
                file_offset: 1007,
                compressed_len: 300,
                raw_len: 1809,
            },
        ];
        let t = SeekTable::from_records(recs.clone()).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.segments(), &recs[..]);
        assert_eq!(t.total_raw_bytes(), 4096 + 4096 + 1809);
        assert_eq!(t.raw_start(0), 0);
        assert_eq!(t.raw_start(1), 4096);
        assert_eq!(t.raw_start(2), 8192);
        assert_eq!(t.locate(0), Some(0));
        assert_eq!(t.locate(4095), Some(0));
        assert_eq!(t.locate(4096), Some(1));
        assert_eq!(t.locate(8192), Some(2));
        assert_eq!(t.locate(10_000), Some(2));
        assert_eq!(t.locate(10_001), None);
        assert_eq!(SeekTable::decode(&t.encode()).unwrap(), t);

        let empty = SeekTable::default();
        assert!(empty.is_empty());
        assert_eq!(empty.total_raw_bytes(), 0);
        assert_eq!(empty.locate(0), None);
        assert_eq!(SeekTable::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn seek_table_rejects_malformed() {
        let t = SeekTable::from_records(vec![SegmentRecord {
            file_offset: 0,
            compressed_len: 10,
            raw_len: 100,
        }])
        .unwrap();
        let good = t.encode();
        assert!(SeekTable::decode(&good[..good.len() - 1]).is_err(), "short");
        let mut flipped = good.clone();
        flipped[9] ^= 1;
        assert!(SeekTable::decode(&flipped).is_err(), "crc catches edits");
        let mut trailing = good.clone();
        let crc_at = trailing.len() - 4;
        trailing.insert(crc_at, 0);
        assert!(SeekTable::decode(&trailing).is_err(), "trailing bytes");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(SeekTable::decode(&bad_magic).is_err(), "bad magic");
        assert!(SeekTable::decode(b"").is_err(), "empty input");

        // Builder-side validation: gaps and zero lengths are rejected.
        assert!(SeekTable::from_records(vec![SegmentRecord {
            file_offset: 5,
            compressed_len: 10,
            raw_len: 100,
        }])
        .is_err());
        assert!(SeekTable::from_records(vec![SegmentRecord {
            file_offset: 0,
            compressed_len: 10,
            raw_len: 0,
        }])
        .is_err());
    }

    #[test]
    fn meta_missing_key() {
        assert!(Meta::parse("version=1\n").is_err());
        assert!(Meta::parse("not a line\n").is_err());
        let meta = |mode: &str, buffer: u64, interval_len: u64| {
            Meta::parse(&format!("version=1\nmode={mode}\ncodec=bzip\nbuffer={buffer}\ninterval_len={interval_len}\nthreshold=0\ncount=0\nchunks=0\n"))
        };
        for (mode, buffer, interval_len, needle) in [
            ("lossless", 0, 0, "buffer=0"),
            ("lossless", u64::MAX, 0, "buffer=18446744073709551615"),
            ("lossy", FRAME_MAX_ADDRS + 1, 10, "buffer=16777217"),
            ("lossy", 1000, 0, "interval_len=0"),
        ] {
            let err = meta(mode, buffer, interval_len).unwrap_err();
            assert!(
                matches!(&err, AtcError::Format(m) if m.contains(needle)),
                "{err}"
            );
        }
        assert!(meta("lossless", FRAME_MAX_ADDRS, 0).is_ok());
        assert!(meta("lossy", 1000, 1).is_ok());
    }

    #[test]
    fn chunk_names_sortable() {
        assert_eq!(chunk_file_name(0), "chunk-000000.atc");
        assert_eq!(chunk_file_name(999_999), "chunk-999999.atc");
        assert!(chunk_file_name(1) < chunk_file_name(2));
    }

    fn req_roundtrip(req: &NetRequest) -> NetRequest {
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        let mut cur = buf.as_slice();
        let body = read_net_frame(&mut cur).unwrap().unwrap();
        assert!(cur.is_empty(), "one frame, nothing after");
        NetRequest::decode(&body).unwrap()
    }

    fn resp_roundtrip(resp: &NetResponse) -> NetResponse {
        let mut buf = Vec::new();
        resp.write(&mut buf).unwrap();
        let mut cur = buf.as_slice();
        let body = read_net_frame(&mut cur).unwrap().unwrap();
        assert!(cur.is_empty(), "one frame, nothing after");
        NetResponse::decode(&body).unwrap()
    }

    #[test]
    fn net_request_roundtrip() {
        for req in [
            NetRequest::Hello {
                version: NET_PROTOCOL_VERSION,
            },
            NetRequest::StatStore,
            NetRequest::ReadRange { start: 0, end: 0 },
            NetRequest::ReadRange {
                start: 12_345,
                end: u64::MAX,
            },
            NetRequest::StreamShard {
                shard: u32::MAX,
                from: 1 << 40,
            },
        ] {
            assert_eq!(req_roundtrip(&req), req);
        }
    }

    #[test]
    fn net_response_roundtrip() {
        for resp in [
            NetResponse::Hello {
                version: NET_PROTOCOL_VERSION,
            },
            NetResponse::Stat(NetStat {
                manifest_version: 1,
                policy: "addr-range:6".into(),
                count: 1 << 33,
                shard_counts: vec![3, 0, 1 << 33],
                exact_merge: true,
                cache_hits: 17,
                cache_misses: 4,
            }),
            NetResponse::Data(vec![]),
            NetResponse::Data(vec![0, u64::MAX, 0xdead_beef]),
            NetResponse::Done { values: 987 },
            NetResponse::Error {
                message: "no such shard".into(),
            },
        ] {
            assert_eq!(resp_roundtrip(&resp), resp);
        }
    }

    #[test]
    fn net_frame_clean_eof_vs_truncation() {
        // EOF before any length byte: a clean close.
        assert!(read_net_frame(&mut &[][..]).unwrap().is_none());
        // A declared length with a short body: an error, not a clean close.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 10).unwrap();
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_net_frame(&mut buf.as_slice()).is_err());
        // Truncated mid-varint likewise.
        assert!(read_net_frame(&mut &[0x80u8][..]).is_err());
    }

    #[test]
    fn net_frame_rejects_oversized_and_empty_lengths() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, NET_MAX_FRAME + 1).unwrap();
        let err = read_net_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        let mut zero = Vec::new();
        varint::write_u64(&mut zero, 0).unwrap();
        assert!(read_net_frame(&mut zero.as_slice()).is_err());
        // The writer refuses to produce an oversized frame too.
        let big = vec![0u8; NET_MAX_FRAME as usize + 1];
        assert!(write_net_frame(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn net_decode_rejects_malformed_bodies() {
        // Unknown tags, both directions.
        assert!(NetRequest::decode(&[0x7E]).is_err());
        assert!(NetResponse::decode(&[0x42]).is_err());
        // Empty bodies.
        assert!(NetRequest::decode(&[]).is_err());
        assert!(NetResponse::decode(&[]).is_err());
        // Truncated fields.
        assert!(NetRequest::decode(&[NET_REQ_READ_RANGE, 0x05]).is_err());
        assert!(NetResponse::decode(&[NET_RESP_DONE]).is_err());
        // Trailing bytes after a complete record.
        assert!(NetRequest::decode(&[NET_REQ_STAT, 0x00]).is_err());
        let mut done = vec![NET_RESP_DONE];
        varint::write_u64(&mut done, 3).unwrap();
        done.push(0xEE);
        assert!(NetResponse::decode(&done).is_err());
        // Data payload not a multiple of 8.
        assert!(NetResponse::decode(&[NET_RESP_DATA, 1, 2, 3]).is_err());
        // Error text must be UTF-8.
        assert!(NetResponse::decode(&[NET_RESP_ERROR, 0xFF, 0xFE]).is_err());
    }

    #[test]
    fn net_error_messages_truncate() {
        let resp = NetResponse::Error {
            message: "x".repeat(10_000),
        };
        match resp_roundtrip(&resp) {
            NetResponse::Error { message } => assert_eq!(message.len(), 4096),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn net_data_frame_matches_write_values_frame() {
        let values = [5u64, 6, 7];
        let mut via_enum = Vec::new();
        NetResponse::Data(values.to_vec())
            .write(&mut via_enum)
            .unwrap();
        let mut via_slice = Vec::new();
        NetResponse::write_values_frame(&mut via_slice, &values).unwrap();
        assert_eq!(via_enum, via_slice);
    }
}
