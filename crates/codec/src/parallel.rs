//! The codec-stream writer: [`CodecWriter`] frames segments inline or as
//! engine tasks — one stream format either way — and lends its engine
//! attachment to the reader's readahead window.
//!
//! A [`CodecWriter`] buffers raw bytes up to a segment size, compresses
//! each segment, and frames it as `varint(compressed_len) ++ compressed
//! bytes`; a zero-length varint terminates the stream, allowing multiple
//! logical streams to share one file. Built without an engine
//! ([`CodecWriter::new`]) it compresses every segment on the producer
//! thread. Built with `threads > 1` it instead submits full segments as
//! tasks to the shared [`Engine`] and writes the frames back
//! **in submission order**, so the on-disk bytes are identical at every
//! worker count — readers cannot tell the two modes apart. This is the
//! shape proven by rr's `CompressedWriter`: independent blocks, ordered
//! reassembly, bounded in-flight buffering for backpressure.
//!
//! Both adapters are streaming-first: segments are compressed with
//! [`Codec::compress_into`] / decompressed with [`Codec::decompress_into`]
//! into *owned scratch buffers that cycle through the pipeline* (producer
//! → engine task → reassembly → back to the producer), so the steady
//! state performs no per-segment allocation on either side.
//!
//! [`CodecReader`](crate::CodecReader) mirrors the writer on the consume
//! side, and like it the calling thread drives: a refill frames the next
//! packed segments off the input and submits their decodes until one
//! window (`threads × `[`IN_FLIGHT_PER_WORKER`]) is undelivered, then
//! takes the next segment in stream order out of an ordered reassembly
//! map. Workers only decode; nothing is read ahead unless the consumer
//! asks for more, so a stalled consumer holds at most one window.
//!
//! Neither adapter owns threads. By default they share the process-wide
//! engine ([`Engine::global_with`], grown to the requested `threads`);
//! tests and multi-stream containers (the sharded store) inject an
//! explicit [`Engine`] instead, so many streams feed one worker set and
//! an idle stream's capacity is stolen by a busy one.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//! use atc_codec::{Bzip, Codec, CodecReader, CodecWriter, DEFAULT_SEGMENT_SIZE};
//!
//! let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
//! let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), DEFAULT_SEGMENT_SIZE, 4);
//! w.write_all(b"stream me from four workers")?;
//! let file = w.finish()?;
//!
//! // The inline reader and the engine-backed one decode the same bytes.
//! for mut r in [
//!     CodecReader::new(&file[..], Arc::clone(&codec)),
//!     CodecReader::with_threads(&file[..], Arc::clone(&codec), 4),
//! ] {
//!     let mut back = String::new();
//!     r.read_to_string(&mut back)?;
//!     assert_eq!(back, "stream me from four workers");
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use atc_engine::{panic_message, Engine};

use crate::stream::{SegmentRecord, StreamScratch, DEFAULT_SEGMENT_SIZE};
use crate::varint;
use crate::Codec;

/// Upper bound on segments queued or in flight per configured thread.
///
/// Bounds memory to roughly `2 * threads * segment_size` raw bytes while
/// keeping every worker busy (one segment compressing, one queued).
pub const IN_FLIGHT_PER_WORKER: usize = 2;

/// A shared cap on buffered bytes across many engine-backed writers.
///
/// One writer's in-flight window already bounds *its* memory
/// (`threads × `[`IN_FLIGHT_PER_WORKER`]` segments`), but a container
/// running many writers — the sharded store feeds one
/// [`CodecWriter`] per shard — compounds those windows to
/// `writers × threads × 2` segments. A `ByteBudget` is the global gate:
/// every writer [`acquire`](ByteBudget::acquire)s a payload's bytes
/// before handing it to the engine and releases them when the engine
/// task is done with the buffer, so the *sum* of buffered bytes across
/// all sharing writers stays at or under `cap`.
///
/// Deadlock-freedom: releases are performed by engine workers (never by
/// the blocked producer), and an `acquire` larger than the whole cap is
/// admitted once the budget is empty — so a single oversized payload
/// can always make progress and the producer can never sleep on a
/// budget nobody will refill.
#[derive(Debug)]
pub struct ByteBudget {
    cap: u64,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

#[derive(Debug, Default)]
struct BudgetState {
    in_use: u64,
    peak: u64,
}

impl ByteBudget {
    /// Creates a budget admitting up to `cap` buffered bytes (clamped to
    /// at least 1 so a zero cap cannot wedge the gate).
    pub fn new(cap: u64) -> Self {
        Self {
            cap: cap.max(1),
            state: Mutex::new(BudgetState::default()),
            freed: Condvar::new(),
        }
    }

    /// The configured cap in bytes.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Blocks until `n` bytes fit under the cap, then takes them. An `n`
    /// exceeding the whole cap is admitted as soon as the budget is
    /// empty (overshoot beats deadlock; the cap is restored once the
    /// oversized payload releases).
    pub fn acquire(&self, n: u64) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while s.in_use > 0 && s.in_use + n > self.cap {
            s = self.freed.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.in_use += n;
        s.peak = s.peak.max(s.in_use);
    }

    /// Returns `n` bytes to the budget and wakes blocked acquirers.
    pub fn release(&self, n: u64) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(s.in_use >= n, "budget release exceeds acquires");
        s.in_use = s.in_use.saturating_sub(n);
        drop(s);
        // lock-held: not required here — `in_use` was decremented under
        // the `state` mutex above, so a blocked `acquire` is either
        // already in `wait` (and receives this notify) or has yet to
        // take the lock (and will see the new budget when it does);
        // notifying after the drop just spares the woken thread an
        // immediate block on a still-held mutex.
        self.freed.notify_all();
    }

    /// Bytes currently held.
    pub fn in_use(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).in_use
    }

    /// High-water mark of held bytes over the budget's lifetime — the
    /// number the store's memory-cap tests pin against `cap` (plus at
    /// most one overshooting oversized payload).
    pub fn peak(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).peak
    }
}

/// Scratch-buffer accounting for a [`CodecWriter`] (see
/// [`CodecWriter::scratch_stats`]).
///
/// Steady state, `fresh` stays bounded by the in-flight window
/// (`threads * 2 + 1` per buffer kind) no matter how many segments the
/// stream carries — the assertion the scratch-reuse tests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Segment buffers newly allocated because no recycled one was free.
    pub fresh: u64,
    /// Segment buffers reused from the cycling pool.
    pub recycled: u64,
}

/// A `Write` adapter that compresses through a [`Codec`], inline or on
/// the shared engine.
///
/// Segments are framed as `varint(compressed_len) ++ compressed bytes`,
/// terminated by a zero-length varint, emitted in submission order.
/// Without an engine ([`CodecWriter::new`], or any constructor given
/// `threads <= 1`) every segment is compressed on the caller thread with
/// no tasks at all; `threads > 1` bounds the writer's in-flight window
/// and, when no engine is injected, grows the process-wide engine to
/// that worker count. The bytes are the same in every mode.
///
/// Raw-segment and compressed-segment buffers are owned `Vec<u8>`s that
/// cycle producer → engine task → reassembly → producer, so the
/// steady-state write path allocates nothing per segment (see
/// [`CodecWriter::scratch_stats`]); workloads that open many short
/// streams back to back can carry them from one stream to the next as a
/// [`StreamScratch`].
///
/// Call [`CodecWriter::finish`] to drain the in-flight segments, write
/// the end-of-stream marker, and recover the inner writer; dropping
/// without `finish` leaves the stream unterminated (readers will report
/// truncation).
#[derive(Debug)]
pub struct CodecWriter<W: Write> {
    inner: W,
    codec: Arc<dyn Codec>,
    buf: Vec<u8>,
    segment_size: usize,
    raw_bytes: u64,
    compressed_bytes: u64,
    pool: Option<Pool>,
    /// Sequence number of the next segment to submit.
    next_seq: u64,
    /// Sequence number of the next segment to write to `inner`.
    next_write: u64,
    /// Completed segments (or task failures) that arrived ahead of their
    /// turn.
    done: BTreeMap<u64, io::Result<Vec<u8>>>,
    /// Segments submitted but not yet written out.
    in_flight: usize,
    /// Recycled raw-segment buffers (returned by tasks with results).
    raw_pool: Vec<Vec<u8>>,
    /// Recycled compressed-segment buffers (drained after frame writes).
    packed_pool: Vec<Vec<u8>>,
    stats: ScratchStats,
    /// Shared cap on raw bytes handed to the engine and not yet returned
    /// (None = only this writer's own window bounds it).
    budget: Option<Arc<ByteBudget>>,
    /// First inner-writer (or task) error; once set, every later call
    /// fails with it. A failed frame write may have landed partially, so
    /// retrying would silently corrupt the stream — fail fast instead.
    poisoned: Option<(io::ErrorKind, String)>,
    /// One record per segment written out, in stream order.
    segments: Vec<SegmentRecord>,
    /// Raw length of each submitted-but-unwritten segment, keyed by
    /// sequence number; drained into `segments` at ordered write time.
    raw_lens: BTreeMap<u64, u64>,
}

/// One stream's engine attachment, writer or reader: where its tasks go
/// and where their results come back.
#[derive(Debug)]
pub(crate) struct Pool {
    pub(crate) engine: Engine,
    /// Configured parallelism: bounds the in-flight window.
    pub(crate) threads: usize,
    /// `(seq, the task's input buffer back for recycling, its output
    /// segment or failure)`.
    pub(crate) results: Receiver<(u64, Vec<u8>, io::Result<Vec<u8>>)>,
    pub(crate) tx: Sender<(u64, Vec<u8>, io::Result<Vec<u8>>)>,
}

impl Pool {
    pub(crate) fn attach(engine: Engine, threads: usize) -> Self {
        let (tx, results) = mpsc::channel();
        Self {
            engine,
            threads,
            results,
            tx,
        }
    }
}

impl<W: Write> CodecWriter<W> {
    /// Creates an inline writer with the default segment size.
    pub fn new(inner: W, codec: Arc<dyn Codec>) -> Self {
        Self::with_segment_size(inner, codec, DEFAULT_SEGMENT_SIZE)
    }

    /// Creates an inline writer that compresses every `segment_size` raw
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is zero.
    pub fn with_segment_size(inner: W, codec: Arc<dyn Codec>, segment_size: usize) -> Self {
        Self::with_scratch(inner, codec, segment_size, StreamScratch::default())
    }

    /// Creates an inline writer that reuses `scratch` from an earlier
    /// stream (see [`StreamScratch`]).
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is zero.
    pub fn with_scratch(
        inner: W,
        codec: Arc<dyn Codec>,
        segment_size: usize,
        scratch: StreamScratch,
    ) -> Self {
        Self::build(inner, codec, segment_size, None, None, scratch)
    }

    /// Creates a writer compressing every `segment_size` raw bytes with
    /// up to `threads` segments in flight on the process-wide engine
    /// (grown to at least `threads` workers; `0`/`1` = inline).
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is zero.
    pub fn with_threads(
        inner: W,
        codec: Arc<dyn Codec>,
        segment_size: usize,
        threads: usize,
    ) -> Self {
        let pool = (threads > 1).then(|| Pool::attach(Engine::global_with(threads), threads));
        Self::build(
            inner,
            codec,
            segment_size,
            pool,
            None,
            StreamScratch::default(),
        )
    }

    /// Creates a writer submitting its segments to an explicit `engine`
    /// (the injection point for tests and multi-stream containers; the
    /// engine's worker count is whatever it was created with — `threads`
    /// only bounds this writer's in-flight window, and `0`/`1` still
    /// means inline).
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is zero.
    pub fn with_engine(
        inner: W,
        codec: Arc<dyn Codec>,
        segment_size: usize,
        threads: usize,
        engine: Engine,
    ) -> Self {
        Self::with_engine_budget(inner, codec, segment_size, threads, engine, None)
    }

    /// Like [`CodecWriter::with_engine`], but drawing every in-flight raw
    /// segment from a shared [`ByteBudget`] — the gate a multi-writer
    /// container (the sharded store) uses to bound the *sum* of all
    /// writers' buffered bytes instead of letting the per-writer windows
    /// compound.
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is zero.
    pub fn with_engine_budget(
        inner: W,
        codec: Arc<dyn Codec>,
        segment_size: usize,
        threads: usize,
        engine: Engine,
        budget: Option<Arc<ByteBudget>>,
    ) -> Self {
        let pool = (threads > 1).then(|| Pool::attach(engine, threads));
        Self::build(
            inner,
            codec,
            segment_size,
            pool,
            budget,
            StreamScratch::default(),
        )
    }

    fn build(
        inner: W,
        codec: Arc<dyn Codec>,
        segment_size: usize,
        pool: Option<Pool>,
        budget: Option<Arc<ByteBudget>>,
        scratch: StreamScratch,
    ) -> Self {
        assert!(segment_size > 0, "segment size must be positive");
        let StreamScratch { mut buf, packed } = scratch;
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(segment_size.min(1 << 22));
        }
        Self {
            inner,
            codec,
            buf,
            segment_size,
            raw_bytes: 0,
            compressed_bytes: 0,
            pool,
            next_seq: 0,
            next_write: 0,
            done: BTreeMap::new(),
            in_flight: 0,
            raw_pool: Vec::new(),
            packed_pool: packed,
            stats: ScratchStats::default(),
            budget,
            poisoned: None,
            segments: Vec::new(),
            raw_lens: BTreeMap::new(),
        }
    }

    /// Fails if a previous frame write errored (the stream may hold a
    /// partial frame, so no further writes can be trusted).
    fn check_poisoned(&self) -> io::Result<()> {
        match &self.poisoned {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    /// Raw bytes accepted so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Compressed bytes emitted so far (excluding data still buffered or
    /// in flight on the engine).
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Configured parallelism: the in-flight window in segments (0 =
    /// inline, no engine tasks).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.threads)
    }

    /// Segment-buffer allocation accounting: how many buffers were newly
    /// allocated vs reused from the cycling pool. After warm-up, `fresh`
    /// stops growing — every later segment rides recycled buffers.
    pub fn scratch_stats(&self) -> ScratchStats {
        self.stats
    }

    /// Pops a recycled buffer (or allocates one of `capacity`), keeping
    /// the fresh/recycled accounting.
    fn take_buffer(pool: &mut Vec<Vec<u8>>, stats: &mut ScratchStats, capacity: usize) -> Vec<u8> {
        match pool.pop() {
            Some(buf) => {
                stats.recycled += 1;
                buf
            }
            None => {
                stats.fresh += 1;
                Vec::with_capacity(capacity)
            }
        }
    }

    fn write_frame(&mut self, packed: &[u8]) -> io::Result<()> {
        // Header and payload as two writes: no copy of the compressed
        // bytes on the one thread serializing all output. Partial
        // landings are handled by the poison latch.
        let mut header = [0u8; 10];
        let mut cursor = &mut header[..];
        varint::write_u64(&mut cursor, packed.len() as u64)?;
        let header_len = 10 - cursor.len();
        let result = self
            .inner
            .write_all(&header[..header_len])
            .and_then(|()| self.inner.write_all(packed));
        if let Err(e) = result {
            self.poisoned = Some((e.kind(), e.to_string()));
            return Err(e);
        }
        self.compressed_bytes += (header_len + packed.len()) as u64;
        Ok(())
    }

    /// Writes every completed segment that is next in line, recycling its
    /// buffer afterwards. A failed *task* (compression panicked) poisons
    /// the writer when its turn comes up, preserving everything emitted
    /// before it.
    fn drain_ready(&mut self) -> io::Result<()> {
        while let Some(result) = self.done.remove(&self.next_write) {
            match result {
                Ok(packed) => {
                    let file_offset = self.compressed_bytes;
                    if let Err(e) = self.write_frame(&packed) {
                        // Keep the accounting consistent (no deadlock
                        // waiting for a result that was already consumed);
                        // the poison latch set by write_frame stops any
                        // further writes.
                        self.done.insert(self.next_write, Ok(packed));
                        return Err(e);
                    }
                    let raw_len = self
                        .raw_lens
                        .remove(&self.next_write)
                        // atclint: allow(library-unwrap) -- infallible: the
                        // submit path inserts into raw_lens under the same seq
                        // it sends to the engine, before in_flight is bumped,
                        // and each seq drains here exactly once.
                        .expect("every submitted segment recorded its raw length");
                    self.segments.push(SegmentRecord {
                        file_offset,
                        compressed_len: self.compressed_bytes - file_offset,
                        raw_len,
                    });
                    self.next_write += 1;
                    self.in_flight -= 1;
                    self.recycle_packed(packed);
                }
                Err(e) => {
                    // The segment can never be produced: the stream is
                    // unfinishable from here on.
                    self.next_write += 1;
                    self.in_flight -= 1;
                    self.poisoned = Some((e.kind(), e.to_string()));
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn recycle_packed(&mut self, mut packed: Vec<u8>) {
        packed.clear();
        self.packed_pool.push(packed);
    }

    fn recycle_raw(&mut self, mut raw: Vec<u8>) {
        raw.clear();
        self.raw_pool.push(raw);
    }

    /// Files one task result: the raw buffer re-enters the cycle, the
    /// compressed segment (or the task's failure) waits for its turn.
    fn file_result(&mut self, seq: u64, raw: Vec<u8>, result: io::Result<Vec<u8>>) {
        self.recycle_raw(raw);
        self.done.insert(seq, result);
    }

    /// Receives one completed segment from the engine, blocking.
    fn recv_one(&mut self) -> io::Result<()> {
        // atclint: allow(library-unwrap) -- infallible: recv_one is only
        // reached with in_flight > 0, and segments are only put in flight
        // through the pool-holding submit path.
        let pool = self.pool.as_ref().expect("recv_one requires a pool");
        match pool.results.recv() {
            Ok((seq, raw, result)) => {
                self.file_result(seq, raw, result);
                Ok(())
            }
            // The writer holds its own Sender, so this is unreachable;
            // keep the guard anyway.
            Err(_) => Err(io::Error::other("compression result channel closed")),
        }
    }

    fn flush_segment(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        if self.buf.is_empty() {
            return Ok(());
        }
        if self.pool.is_none() {
            // Inline path: compress on this thread, with the packed
            // scratch cycling through a one-deep pool.
            let raw_len = self.buf.len() as u64;
            let file_offset = self.compressed_bytes;
            let mut out = Self::take_buffer(&mut self.packed_pool, &mut self.stats, 0);
            self.codec.compress_into(&self.buf, &mut out);
            self.buf.clear();
            let result = self.write_frame(&out);
            self.recycle_packed(out);
            if result.is_ok() {
                self.segments.push(SegmentRecord {
                    file_offset,
                    compressed_len: self.compressed_bytes - file_offset,
                    raw_len,
                });
            }
            return result;
        }

        // Backpressure: cap segments in flight so memory stays bounded
        // even when compression is slower than production. Drain before
        // blocking on the engine: after a transient write error the
        // next-in-line frame sits in `done` with no result left to wait
        // for, and recv_one would block forever.
        let max_in_flight = (self.threads() * IN_FLIGHT_PER_WORKER).max(1);
        while self.in_flight >= max_in_flight {
            self.drain_ready()?;
            if self.in_flight < max_in_flight {
                break;
            }
            self.recv_one()?;
        }

        // The shared gate (if any) admits this segment's raw bytes before
        // the engine sees them; engine workers release, so a producer
        // blocked here always wakes once any sharing writer's in-flight
        // work lands.
        let raw_len = self.buf.len() as u64;
        if let Some(budget) = &self.budget {
            budget.acquire(raw_len);
        }
        let raw_capacity = self.segment_size.min(1 << 22);
        let replacement = Self::take_buffer(&mut self.raw_pool, &mut self.stats, raw_capacity);
        let raw = std::mem::replace(&mut self.buf, replacement);
        let mut out = Self::take_buffer(&mut self.packed_pool, &mut self.stats, 0);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.raw_lens.insert(seq, raw_len);
        // atclint: allow(library-unwrap) -- infallible: this function's
        // inline branch returned already when self.pool is None.
        let pool = self.pool.as_ref().expect("pool checked above");
        let tx = pool.tx.clone();
        let codec = Arc::clone(&self.codec);
        let budget = self.budget.clone();
        pool.engine.submit(move || {
            // A panicking codec must not strand the writer waiting for a
            // result that will never come: catch it and deliver the
            // failure through the ordered reassembly path instead.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                codec.compress_into(&raw, &mut out);
            }));
            // The raw bytes leave the budget the moment compression is
            // over (panic included): the compressed copy is the small
            // one, and it is bounded by the per-writer window.
            if let Some(budget) = &budget {
                budget.release(raw_len);
            }
            let result = match outcome {
                Ok(()) => Ok(out),
                Err(p) => Err(io::Error::other(format!(
                    "compression task panicked: {}",
                    panic_message(&*p)
                ))),
            };
            // The writer may already be dropped; an unfinished stream is
            // unterminated either way, so a dead receiver is fine.
            let _ = tx.send((seq, raw, result));
        });
        self.in_flight += 1;

        // Opportunistically collect finished segments without blocking.
        while let Ok((seq, raw, result)) = self
            .pool
            .as_ref()
            // atclint: allow(library-unwrap) -- infallible: same
            // pool-is-Some branch as the submit a few lines up.
            .expect("pool checked above")
            .results
            .try_recv()
        {
            self.file_result(seq, raw, result);
        }
        self.drain_ready()
    }

    /// Flushes the final segment, drains the in-flight tasks, writes the
    /// end-of-stream marker, and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer and task failures.
    pub fn finish(self) -> io::Result<W> {
        self.finish_parts().map(|(inner, _, _)| inner)
    }

    /// Like [`CodecWriter::finish`], but also hands back the stream's
    /// scratch buffers for reuse by a later [`CodecWriter::with_scratch`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer and task failures.
    pub fn finish_with_scratch(self) -> io::Result<(W, StreamScratch)> {
        self.finish_parts()
            .map(|(inner, scratch, _)| (inner, scratch))
    }

    /// Like [`CodecWriter::finish`], but also hands back one
    /// [`SegmentRecord`] per sealed segment, in stream order — the raw
    /// material for a seek sidecar. The records do not depend on the
    /// thread count, since the frames are written in submission order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer and task failures.
    pub fn finish_with_segments(self) -> io::Result<(W, Vec<SegmentRecord>)> {
        self.finish_parts().map(|(inner, _, segs)| (inner, segs))
    }

    fn finish_parts(mut self) -> io::Result<(W, StreamScratch, Vec<SegmentRecord>)> {
        self.check_poisoned()?;
        self.flush_segment()?;
        while self.in_flight > 0 {
            // Same ordering as the backpressure loop: retry anything
            // already buffered in `done` before blocking on the engine.
            self.drain_ready()?;
            if self.in_flight == 0 {
                break;
            }
            self.recv_one()?;
        }
        debug_assert!(self.done.is_empty());
        self.pool.take();
        let mut eos = [0u8; 10];
        let mut cursor = &mut eos[..];
        varint::write_u64(&mut cursor, 0)?;
        let eos_len = 10 - cursor.len();
        self.inner.write_all(&eos[..eos_len])?;
        self.compressed_bytes += eos_len as u64;
        self.inner.flush()?;
        let scratch = StreamScratch {
            buf: self.buf,
            packed: self.packed_pool,
        };
        Ok((self.inner, scratch, self.segments))
    }
}

impl<W: Write> Write for CodecWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.check_poisoned()?;
        let mut rest = data;
        while !rest.is_empty() {
            let room = self.segment_size - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == self.segment_size {
                self.flush_segment()?;
            }
        }
        self.raw_bytes += data.len() as u64;
        Ok(data.len())
    }

    /// Flushes the inner writer only. Buffered raw bytes are *not* forced
    /// into a short segment (that would hurt the compression ratio), and
    /// in-flight segments keep compressing; both are emitted by
    /// [`CodecWriter::finish`].
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bzip, CodecError, CodecReader, CodecWriter, Lz, Store};
    use std::io::{BufRead, Read};

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// Thread counts exercised by the identity tests; override with
    /// `ATC_TEST_THREADS` (single value or comma list) to pin the counts
    /// on a CI matrix runner.
    fn test_threads() -> Vec<usize> {
        match std::env::var("ATC_TEST_THREADS") {
            Ok(s) => {
                let parsed: Vec<usize> = s
                    .split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&t| (1..=64).contains(&t))
                    .collect();
                if parsed.is_empty() {
                    vec![1, 2, 4, 8]
                } else {
                    parsed
                }
            }
            Err(_) => vec![1, 2, 4, 8],
        }
    }

    #[test]
    fn output_byte_identical_to_serial() {
        let data = sample(300_000);
        let mut threads_axis = vec![0usize];
        threads_axis.extend(test_threads());
        for threads in threads_axis {
            let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(4096));
            let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 10_000);
            serial.write_all(&data).unwrap();
            let expect = serial.finish().unwrap();

            let mut parallel =
                CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 10_000, threads);
            parallel.write_all(&data).unwrap();
            let got = parallel.finish().unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn output_byte_identical_across_engine_worker_counts() {
        // The submitter window (threads) and the engine worker count are
        // now independent; the bytes must not depend on either.
        let data = sample(150_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(4096));
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 9000);
        serial.write_all(&data).unwrap();
        let expect = serial.finish().unwrap();
        for workers in [1usize, 2, 4, 8] {
            let engine = Engine::new(workers);
            let mut w = CodecWriter::with_engine(Vec::new(), Arc::clone(&codec), 9000, 4, engine);
            w.write_all(&data).unwrap();
            assert_eq!(w.finish().unwrap(), expect, "workers={workers}");
        }
    }

    #[test]
    fn segment_records_identical_to_serial_at_every_thread_count() {
        let data = sample(120_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(4096));
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 10_000);
        serial.write_all(&data).unwrap();
        let (_, expect) = serial.finish_with_segments().unwrap();
        assert_eq!(expect.len(), 12);
        let mut threads_axis = vec![0usize];
        threads_axis.extend(test_threads());
        for threads in threads_axis {
            let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 10_000, threads);
            w.write_all(&data).unwrap();
            let (_, segs) = w.finish_with_segments().unwrap();
            assert_eq!(segs, expect, "threads={threads}");
        }
    }

    #[test]
    fn roundtrip_through_serial_reader() {
        let data = sample(120_000);
        for codec in [
            Arc::new(Store) as Arc<dyn Codec>,
            Arc::new(Lz::default()),
            Arc::new(Bzip::with_block_size(2048)),
        ] {
            let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 7000, 4);
            w.write_all(&data).unwrap();
            let file = w.finish().unwrap();
            let mut r = CodecReader::new(&file[..], codec);
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn readahead_reads_serial_stream() {
        let data = sample(200_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 9000);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();
        for threads in test_threads() {
            let mut r = CodecReader::with_threads(
                std::io::Cursor::new(file.clone()),
                Arc::clone(&codec),
                threads,
            );
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, data, "threads={threads}");
        }
    }

    #[test]
    fn readahead_many_small_segments_stay_ordered() {
        // Far more segments than any in-flight window: exercises the
        // reorder map under sustained load, including with fewer engine
        // workers than the requested parallelism. The input is a borrow
        // of a local — it compiles only because no task or thread ever
        // holds `R`.
        let data = sample(64_000);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 64);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();
        for (threads, workers) in [(2usize, 2usize), (4, 1), (8, 3)] {
            let engine = Engine::new(workers);
            let mut r = CodecReader::with_engine(&file[..], Arc::clone(&codec), threads, engine);
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, data, "threads={threads} workers={workers}");
        }
    }

    /// The window is bounded by construction: decodes are submitted only
    /// from a refill, so one byte read costs exactly one window of tasks
    /// however long the consumer then stalls, and a full read costs one
    /// task per segment.
    #[test]
    fn readahead_window_bounds_submitted_decodes() {
        let data = sample(40 * 512);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 512);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap(); // 40 segments
        let engine = Engine::new(2);
        let window = (2 * IN_FLIGHT_PER_WORKER) as u64;
        let mut r = CodecReader::with_engine(&file[..], Arc::clone(&codec), 2, engine.clone());
        assert_eq!(engine.stats().submitted, 0, "nothing runs before a read");
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte).unwrap();
        assert_eq!(engine.stats().submitted, window);
        while engine.stats().tasks_run < window {
            std::thread::yield_now();
        }
        assert_eq!(engine.stats().tasks_run, window, "stalled consumer");
        let mut back = byte.to_vec();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(engine.stats().tasks_run, 40);
        assert_eq!(r.segments_decoded(), 40);
    }

    #[test]
    fn empty_stream() {
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), DEFAULT_SEGMENT_SIZE, 4);
        let file = w.finish().unwrap();
        let mut r = CodecReader::with_threads(std::io::Cursor::new(file), codec, 4);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn readahead_reports_truncation() {
        let mut file = Vec::new();
        varint::write_u64(&mut file, 4).unwrap();
        file.extend_from_slice(b"da"); // segment promises 4, delivers 2
        let mut r = CodecReader::with_threads(
            std::io::Cursor::new(file),
            Arc::new(Store) as Arc<dyn Codec>,
            2,
        );
        let mut back = Vec::new();
        assert!(r.read_to_end(&mut back).is_err());
        // The error persists: further reads must not look like clean EOF.
        let mut byte = [0u8; 1];
        assert!(r.read(&mut byte).is_err());
        assert!(r.read(&mut byte).is_err());

        // A forged 2^62 length is the same truncation, not an allocation
        // of the claimed size.
        let mut file = Vec::new();
        varint::write_u64(&mut file, 1 << 62).unwrap();
        file.extend_from_slice(b"da");
        let mut r = CodecReader::with_threads(
            std::io::Cursor::new(file),
            Arc::new(Store) as Arc<dyn Codec>,
            2,
        );
        let err = r.read_to_end(&mut back).unwrap_err();
        // A short segment is corrupt, never the clean end of a stream.
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("segment truncated: got 2 of 4611686018427387904 bytes"),
            "{err}"
        );
    }

    /// Regression test: a CRC failure in a *middle* segment must deliver
    /// the earlier segments intact, then fail — and keep failing on every
    /// subsequent `read` call, at every thread count, instead of decaying
    /// into a clean EOF once the erroring batch has drained.
    #[test]
    fn mid_stream_crc_error_latches_forever() {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let segment = 5000usize;
        let data = sample(segment * 6);
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), segment);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();

        // Walk the varint framing to find the 4th segment's payload and
        // flip a bit deep inside it (past the block header), so framing
        // still parses but the CRC check fails.
        let mut corrupted = file.clone();
        let mut cursor = &file[..];
        let mut offset = 0usize;
        for _ in 0..3 {
            let before = cursor.len();
            let len = varint::read_u64(&mut cursor).unwrap() as usize;
            offset += before - cursor.len() + len;
            cursor = &cursor[len..];
        }
        let before = cursor.len();
        let len = varint::read_u64(&mut cursor).unwrap() as usize;
        offset += before - cursor.len();
        corrupted[offset + len - 8] ^= 0x40;

        for threads in [1usize, 2, 4, 8] {
            let mut r = CodecReader::with_threads(
                std::io::Cursor::new(corrupted.clone()),
                Arc::clone(&codec),
                threads,
            );
            let mut back = Vec::new();
            let err = r.read_to_end(&mut back).unwrap_err();
            // Everything before the corrupt segment is delivered, in
            // order, before the error surfaces.
            assert_eq!(back.len(), segment * 3, "threads={threads}");
            assert_eq!(back, data[..segment * 3], "threads={threads}");
            let kind = err.kind();
            // The latch replays the same error on every later call.
            let mut byte = [0u8; 1];
            for _ in 0..3 {
                let again = r.read(&mut byte).unwrap_err();
                assert_eq!(again.kind(), kind, "threads={threads}");
            }
        }
    }

    /// A codec that panics on a marked segment — stands in for any bug in
    /// a compression task. The engine must catch the panic and convert it
    /// into a latched stream error on both sides.
    #[derive(Debug)]
    struct PanicCodec {
        /// Panic when the segment's first byte equals this marker.
        marker: u8,
    }

    impl Codec for PanicCodec {
        fn name(&self) -> &'static str {
            "panic-test"
        }

        fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) -> usize {
            assert!(
                data.first() != Some(&self.marker),
                "injected compression panic"
            );
            out.clear();
            out.extend_from_slice(data);
            data.len()
        }

        fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<usize, CodecError> {
            assert!(
                data.first() != Some(&self.marker),
                "injected decompression panic"
            );
            out.clear();
            out.extend_from_slice(data);
            Ok(data.len())
        }
    }

    #[test]
    fn compress_task_panic_latches_writer() {
        // Segment 3 (first byte 0xEE) panics inside the engine task; the
        // writer must surface an error (on write or finish) and every
        // later call must keep failing instead of hanging or emitting a
        // corrupt stream.
        let codec: Arc<dyn Codec> = Arc::new(PanicCodec { marker: 0xEE });
        let engine = Engine::new(2);
        let mut w = CodecWriter::with_engine(Vec::new(), Arc::clone(&codec), 100, 4, engine);
        let mut data = vec![0u8; 700];
        data[300] = 0xEE; // first byte of segment 3
        let write_err = w.write_all(&data).err();
        let finish_err = w.finish().err();
        let e = write_err.or(finish_err).expect("panic must surface");
        assert!(
            e.to_string().contains("panicked"),
            "error should name the panic: {e}"
        );
    }

    #[test]
    fn decode_task_panic_latches_reader() {
        // Build a valid stream with the identity half of PanicCodec, then
        // read it back with a marker that trips on the third segment: the
        // reader must deliver segments 0-1, error on 2, and latch.
        let good: Arc<dyn Codec> = Arc::new(PanicCodec { marker: 0xFF });
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&good), 100);
        let mut data = vec![0u8; 600];
        data[200] = 0xEE; // first byte of segment 2 (the decode marker)
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();

        let trip: Arc<dyn Codec> = Arc::new(PanicCodec { marker: 0xEE });
        for workers in [1usize, 2] {
            let engine = Engine::new(workers);
            let mut r = CodecReader::with_engine(
                std::io::Cursor::new(file.clone()),
                Arc::clone(&trip),
                4,
                engine,
            );
            let mut back = Vec::new();
            let err = r.read_to_end(&mut back).unwrap_err();
            assert!(err.to_string().contains("panicked"), "workers={workers}");
            assert_eq!(back, data[..200], "segments before the panic arrive");
            let mut byte = [0u8; 1];
            assert!(r.read(&mut byte).is_err(), "error must latch");
            assert!(r.read(&mut byte).is_err(), "error must stay latched");
        }
    }

    #[test]
    fn bufread_matches_read_and_latches_errors() {
        // fill_buf/consume must walk the same bytes as read(), and a
        // truncated stream must keep erroring through the BufRead face.
        let data = sample(50_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 3000);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();
        for threads in [1usize, 4] {
            let mut r = CodecReader::with_threads(
                std::io::Cursor::new(file.clone()),
                Arc::clone(&codec),
                threads,
            );
            let mut back = Vec::new();
            loop {
                let buf = r.fill_buf().unwrap();
                if buf.is_empty() {
                    break;
                }
                let n = buf.len().min(777);
                back.extend_from_slice(&buf[..n]);
                r.consume(n);
            }
            assert_eq!(back, data, "threads={threads}");
            assert!(r.fill_buf().unwrap().is_empty());
        }

        let mut truncated = Vec::new();
        varint::write_u64(&mut truncated, 4).unwrap();
        truncated.extend_from_slice(b"da");
        let mut r = CodecReader::with_threads(
            std::io::Cursor::new(truncated),
            Arc::new(Store) as Arc<dyn Codec>,
            2,
        );
        assert!(r.fill_buf().is_err());
        assert!(r.fill_buf().is_err(), "error must latch for BufRead too");
    }

    /// Regression test for the degenerate-parallelism window: `threads`
    /// of 0 or 1 must never construct a zero-width in-flight window
    /// (`threads * IN_FLIGHT_PER_WORKER == 0` would make the
    /// backpressure loop wait for a result that was never submitted).
    /// Writer and reader must both run inline — no task ever reaches
    /// even an explicitly injected engine — and terminate with the inline
    /// stream's bytes, through every constructor.
    #[test]
    fn threads_zero_and_one_run_inline_without_deadlock() {
        let data = sample(40_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 3000);
        serial.write_all(&data).unwrap();
        let expect = serial.finish().unwrap();

        for threads in [0usize, 1] {
            let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 3000, threads);
            w.write_all(&data).unwrap();
            assert_eq!(w.threads(), 0, "threads={threads} must be inline");
            assert_eq!(w.finish().unwrap(), expect, "threads={threads}");

            // An explicit engine must not resurrect a zero-width window.
            let engine = Engine::new(2);
            let mut w = CodecWriter::with_engine(
                Vec::new(),
                Arc::clone(&codec),
                3000,
                threads,
                engine.clone(),
            );
            w.write_all(&data).unwrap();
            assert_eq!(w.finish().unwrap(), expect, "engine threads={threads}");

            let mut r = CodecReader::with_threads(
                std::io::Cursor::new(expect.clone()),
                Arc::clone(&codec),
                threads,
            );
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, data, "reader threads={threads}");

            let mut r = CodecReader::with_engine(
                std::io::Cursor::new(expect.clone()),
                Arc::clone(&codec),
                threads,
                engine.clone(),
            );
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, data, "engine reader threads={threads}");
            assert_eq!(engine.stats().submitted, 0, "threads={threads} is inline");
        }
    }

    /// The shared byte budget must gate segments across writers without
    /// wedging a single writer: peak usage stays at the cap, the output
    /// is unchanged, and an oversized payload (cap smaller than one
    /// segment) still makes progress via the empty-budget overshoot.
    #[test]
    fn byte_budget_bounds_in_flight_raw_bytes() {
        let data = sample(64_000);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 4096);
        serial.write_all(&data).unwrap();
        let expect = serial.finish().unwrap();

        let budget = Arc::new(ByteBudget::new(2 * 4096));
        let mut w = CodecWriter::with_engine_budget(
            Vec::new(),
            Arc::clone(&codec),
            4096,
            4,
            Engine::new(2),
            Some(Arc::clone(&budget)),
        );
        w.write_all(&data).unwrap();
        assert_eq!(w.finish().unwrap(), expect);
        assert!(budget.peak() <= 2 * 4096, "peak {}", budget.peak());
        assert_eq!(budget.in_use(), 0, "finish returns every byte");

        // Cap below one segment: the empty-budget overshoot admits each
        // segment alone instead of deadlocking.
        let tiny = Arc::new(ByteBudget::new(100));
        let mut w = CodecWriter::with_engine_budget(
            Vec::new(),
            Arc::clone(&codec),
            4096,
            4,
            Engine::new(2),
            Some(Arc::clone(&tiny)),
        );
        w.write_all(&data).unwrap();
        assert_eq!(w.finish().unwrap(), expect);
        assert!(
            tiny.peak() <= 4096,
            "one segment at a time: {}",
            tiny.peak()
        );
        assert_eq!(tiny.in_use(), 0);
    }

    #[test]
    fn drop_without_finish_reaps_tasks() {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut w = CodecWriter::with_threads(Vec::new(), codec, 4096, 4);
        w.write_all(&sample(100_000)).unwrap();
        drop(w); // must not hang or leak threads
    }

    /// Dropping a reader whose window is full of undelivered segments
    /// (one read filled it, nobody took the rest) must not hang: the
    /// tasks finish into a closed channel.
    #[test]
    fn drop_unread_readahead_with_full_window_does_not_hang() {
        let data = sample(300_000);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 1024);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap(); // ~300 segments >> any window
        for threads in [1usize, 4] {
            let mut r = CodecReader::with_threads(
                std::io::Cursor::new(file.clone()),
                Arc::clone(&codec),
                threads,
            );
            let mut byte = [0u8; 1];
            r.read_exact(&mut byte).unwrap();
            drop(r); // must not hang
        }
    }

    #[test]
    fn drop_readahead_mid_stream_reaps_threads() {
        // Consumer walks away after one segment: at most the one window
        // already submitted still decodes, never the rest of the stream,
        // and the engine it ran on serves a fresh reader to completion.
        let data = sample(400_000);
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 4096);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();
        let engine = Engine::new(2);
        let mut r = CodecReader::with_engine(&file[..], Arc::clone(&codec), 4, engine.clone());
        let mut first = vec![0u8; 1000];
        r.read_exact(&mut first).unwrap();
        assert_eq!(first, data[..1000]);
        drop(r); // must not hang
        assert_eq!(engine.stats().submitted, (4 * IN_FLIGHT_PER_WORKER) as u64);

        let mut r = CodecReader::with_engine(&file[..], codec, 4, engine);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn byte_counters_match_serial() {
        let data = sample(50_000);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 8192);
        serial.write_all(&data).unwrap();

        let mut parallel = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 8192, 3);
        parallel.write_all(&data).unwrap();
        assert_eq!(parallel.raw_bytes(), 50_000);
        let serial_len = serial.finish().unwrap().len();
        let parallel_out = parallel.finish().unwrap();
        assert_eq!(parallel_out.len(), serial_len);
    }

    #[test]
    fn steady_state_allocates_no_fresh_buffers() {
        // 100 segments with a 3-deep window: fresh buffers stop at the
        // in-flight window; the rest of the stream rides recycled buffers.
        let data = sample(100 * 1024);
        let codec: Arc<dyn Codec> = Arc::new(Store);
        let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 1024, 3);
        w.write_all(&data).unwrap();
        let stats = w.scratch_stats();
        let window = 3 * IN_FLIGHT_PER_WORKER;
        // Two buffer kinds (raw + packed) per in-flight slot, plus the
        // writer's own accumulator slack.
        let fresh_cap = (2 * (window + 1)) as u64;
        assert!(
            stats.fresh <= fresh_cap,
            "fresh {} exceeds warm-up bound {fresh_cap}",
            stats.fresh
        );
        assert!(
            stats.recycled >= 2 * 100 - fresh_cap,
            "recycled only {} of ~200 buffer uses",
            stats.recycled
        );
        w.finish().unwrap();

        // Inline path: one fresh packed buffer total.
        let mut w = CodecWriter::with_threads(Vec::new(), Arc::clone(&codec), 1024, 1);
        w.write_all(&data).unwrap();
        let stats = w.scratch_stats();
        assert_eq!(stats.fresh, 1, "inline path allocates one packed scratch");
        assert_eq!(stats.recycled, 99);
        w.finish().unwrap();
    }
}
