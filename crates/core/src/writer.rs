//! Streaming ATC compression (the original tool's `atc_open('c'|'k') /
//! atc_code / atc_close`).

use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use atc_codec::{codec_by_name, ByteBudget, Codec, CodecWriter, StreamScratch};
use atc_engine::{panic_message, Engine, WorkerLocal};

use crate::error::{AtcError, Result};
use crate::format::{self, IntervalRecord, Meta, FORMAT_VERSION};
use crate::lossy::{Classification, LossyConfig, PhaseClassifier};

/// Compression mode, mirroring the original tool's `'c'` / `'k'` open modes.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Lossless: bytesort + back-end codec only (`'c'`).
    Lossless,
    /// Lossy: phase-based interval imitation (`'k'`), with the given
    /// parameters. `Mode::Lossy(LossyConfig::default())` reproduces the
    /// paper's settings.
    Lossy(LossyConfig),
}

/// Tuning knobs shared by both modes.
#[derive(Debug, Clone)]
pub struct AtcOptions {
    /// Back-end codec name (`"bzip"`, `"lz"`, `"store"`); the analogue of
    /// the compressor command string passed to the original `atc_open`.
    pub codec: String,
    /// Bytesort buffer size `B` in addresses (the paper evaluates 1 M and
    /// 10 M).
    pub buffer: usize,
    /// Compression parallelism. `0`/`1` keep every byte on the producer
    /// thread (the original single-threaded behavior); `n > 1` submits
    /// full segments (lossless mode) or interval classification + whole
    /// chunk files (lossy mode) as tasks to the shared engine, growing
    /// the process-wide engine to at least `n` workers
    /// (tests inject an explicit engine through
    /// [`AtcWriter::with_options_engine`] instead). The on-disk format is
    /// byte-identical at every thread and worker count, so readers never
    /// need to know.
    pub threads: usize,
}

impl Default for AtcOptions {
    /// `bzip` back end with a 1 M-address buffer — the configuration the
    /// paper uses for lossy chunks ("all chunks are compressed with the
    /// bytesort method … using a buffer size of 1 million addresses") —
    /// and single-threaded compression.
    fn default() -> Self {
        Self {
            codec: "bzip".into(),
            buffer: 1_000_000,
            threads: 1,
        }
    }
}

/// Statistics returned by [`AtcWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtcStats {
    /// Addresses compressed.
    pub count: u64,
    /// Intervals processed (lossy mode; 0 in lossless mode).
    pub intervals: u64,
    /// Chunks stored on disk.
    pub chunks: u64,
    /// Intervals recorded as imitations.
    pub imitations: u64,
    /// Total size of the output directory in bytes.
    pub compressed_bytes: u64,
}

impl AtcStats {
    /// Average compressed bits per address (the paper's BPA metric).
    pub fn bits_per_address(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 * 8.0 / self.count as f64
        }
    }

    /// Compression ratio versus raw 8-byte addresses.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            (self.count * 8) as f64 / self.compressed_bytes as f64
        }
    }
}

/// A streaming ATC compressor writing a trace directory.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use atc_core::{AtcWriter, Mode};
///
/// let dir = std::env::temp_dir().join("atc-writer-doc");
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut w = AtcWriter::create(&dir, Mode::Lossless)?;
/// for a in 0..100u64 {
///     w.code(a * 64)?;
/// }
/// let stats = w.finish()?;
/// assert_eq!(stats.count, 100);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AtcWriter {
    dir: PathBuf,
    codec: Arc<dyn Codec>,
    codec_name: String,
    buffer: usize,
    count: u64,
    state: State,
}

#[derive(Debug)]
enum State {
    Lossless {
        out: Box<CodecWriter<BufWriter<File>>>,
        buf: Vec<u64>,
    },
    Lossy {
        /// The interval currently being accumulated by the producer.
        interval: Vec<u64>,
        /// Interval length `L` (cached here so the hot `code` path never
        /// touches the classifier, which may live behind the pipeline).
        interval_len: usize,
        back: LossyBack,
    },
}

/// Where lossy classification runs.
#[derive(Debug)]
enum LossyBack {
    /// `threads <= 1`: classify and compress on the producer thread (the
    /// original single-threaded behavior).
    Inline(Box<LossyCore>),
    /// `threads > 1`: finished intervals queue to a serialized classifier
    /// *actor task* on the engine; chunk payloads fan out as independent
    /// chunk tasks. The producer thread only accumulates addresses.
    Engine(LossyPipeline),
}

/// Worker-error latch: `Failed(e)` until the error is handed out, then
/// `Poisoned` forever.
#[derive(Debug, Default)]
enum ErrorLatch {
    #[default]
    Ok,
    Failed(AtcError),
    Poisoned,
}

impl ErrorLatch {
    fn record(&mut self, e: AtcError) {
        if matches!(self, ErrorLatch::Ok) {
            *self = ErrorLatch::Failed(e);
        }
    }

    /// The original error on first call, a generic poisoned error after.
    fn surface(&mut self) -> Result<()> {
        match std::mem::replace(self, ErrorLatch::Poisoned) {
            ErrorLatch::Ok => {
                *self = ErrorLatch::Ok;
                Ok(())
            }
            ErrorLatch::Failed(e) => Err(e),
            ErrorLatch::Poisoned => Err(AtcError::Format(
                "lossy compression pipeline failed earlier; the trace is incomplete".into(),
            )),
        }
    }
}

/// Producer ↔ actor ↔ chunk-task handoff state.
#[derive(Debug, Default)]
struct LossyQueue {
    /// Finished intervals awaiting classification, in arrival order.
    intervals: VecDeque<Vec<u64>>,
    /// An actor task is scheduled or running.
    actor_live: bool,
    /// Chunk-compression tasks in flight.
    pending_chunks: usize,
    /// Recycled interval buffers for the producer.
    spare: Vec<Vec<u64>>,
    /// Mirror of the error latch, checkable without taking the actor lock.
    failed: bool,
}

/// Classifier-side state — the *one* copy of the classification and
/// record-writing logic, owned by the producer thread in inline mode
/// and by the serialized actor task in engine mode, so the two paths
/// cannot drift apart (their byte-identity is a format invariant).
#[derive(Debug)]
struct LossyCore {
    classifier: PhaseClassifier,
    /// `Some` until `finish` takes it to terminate the stream.
    info: Option<CodecWriter<BufWriter<File>>>,
    next_chunk_id: u64,
    intervals: u64,
    imitations: u64,
}

/// What [`LossyCore::classify_and_record`] decided about the payload.
enum Recorded {
    /// The interval became chunk `id`: compress `addrs` into its file.
    StoreChunk { id: u64, addrs: Vec<u64> },
    /// The interval was recorded as an imitation; `addrs` is free for
    /// reuse.
    Imitated { addrs: Vec<u64> },
}

impl LossyCore {
    /// Classifies one finished interval and writes its
    /// [`IntervalRecord`]; the caller decides how to store a chunk
    /// payload (inline write vs engine task).
    fn classify_and_record(&mut self, interval: Vec<u64>, interval_len: usize) -> Result<Recorded> {
        self.intervals += 1;
        let full = interval.len() == interval_len;
        let classification = if full {
            self.classifier.classify(&interval, self.next_chunk_id)
        } else {
            // Final partial interval: always stored (imitating with a
            // chunk of different length would change the trace length).
            Classification::NewChunk
        };
        // atclint: allow(library-unwrap) -- infallible: `info` is Some from
        // construction until finish() takes it, and no interval is submitted
        // after finish.
        let info = self.info.as_mut().expect("info stream lives until finish");
        match classification {
            Classification::NewChunk => {
                let id = self.next_chunk_id;
                self.next_chunk_id += 1;
                let len = interval.len() as u64;
                IntervalRecord::NewChunk { chunk_id: id, len }.write(info)?;
                Ok(Recorded::StoreChunk {
                    id,
                    addrs: interval,
                })
            }
            Classification::Imitate {
                chunk_id,
                translations,
                ..
            } => {
                self.imitations += 1;
                IntervalRecord::Imitate {
                    chunk_id,
                    translations,
                }
                .write(info)?;
                Ok(Recorded::Imitated { addrs: interval })
            }
        }
    }
}

/// Everything the engine-backed lossy pipeline shares across tasks.
#[derive(Debug)]
struct LossyShared {
    queue: Mutex<LossyQueue>,
    /// Signaled on every queue transition: the producer waits here for
    /// room, `finish` waits here for quiescence.
    changed: Condvar,
    /// Only the single live actor task (and `finish`, after quiescence)
    /// locks this, so classification never contends with the producer.
    actor: Mutex<LossyCore>,
    latch: Mutex<ErrorLatch>,
    /// Shared gate on queued/classifying/chunk-writing interval bytes
    /// (None = only this writer's interval-count cap bounds it).
    budget: Option<Arc<ByteBudget>>,
    // Immutable pipeline parameters.
    dir: PathBuf,
    codec: Arc<dyn Codec>,
    buffer: usize,
    interval_len: usize,
}

impl LossyShared {
    fn queue(&self) -> MutexGuard<'_, LossyQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fail(&self, e: AtcError) {
        self.latch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(e);
        self.queue().failed = true;
        // lock-held: not required — `failed` was set under the queue
        // mutex above, so a thread blocked in `changed.wait` (which
        // re-checks under that same mutex) either receives this notify
        // or has yet to take the lock and sees the flag directly.
        self.changed.notify_all();
    }

    fn surface(&self) -> Result<()> {
        self.latch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .surface()
    }

    /// Recycles a drained interval buffer for the producer, returning its
    /// bytes to the shared budget. Every buffer arriving here was
    /// admitted by [`LossyPipeline::submit_interval`] with its length
    /// intact, so the release mirrors that acquire exactly.
    fn recycle(&self, mut buf: Vec<u64>, cap: usize) {
        if let Some(budget) = &self.budget {
            budget.release(buf.len() as u64 * 8);
        }
        buf.clear();
        let mut q = self.queue();
        if q.spare.len() < cap {
            q.spare.push(buf);
        }
    }

    /// Returns budgeted bytes for an interval that was *dropped* instead
    /// of recycled (classification error/panic paths, where the buffer
    /// dies inside the failing call).
    fn release_interval_bytes(&self, bytes: u64) {
        if let Some(budget) = &self.budget {
            budget.release(bytes);
        }
    }
}

/// The engine-backed lossy write pipeline (see [`LossyBack::Engine`]).
#[derive(Debug)]
struct LossyPipeline {
    engine: Engine,
    shared: Arc<LossyShared>,
    /// Per-worker [`StreamScratch`] threaded through every chunk file a
    /// worker writes, so only its first chunk pays the segment-buffer
    /// allocations.
    scratch: Arc<WorkerLocal<StreamScratch>>,
    /// Queue bound in intervals (producer blocks past it): each queued
    /// interval holds a whole `L`-address buffer, so the queue is the
    /// dominant memory cost.
    cap: usize,
}

impl LossyPipeline {
    fn new(engine: Engine, shared: Arc<LossyShared>, threads: usize) -> Self {
        let scratch = Arc::new(WorkerLocal::new(&engine));
        Self {
            engine,
            shared,
            scratch,
            cap: threads.max(1) * 2,
        }
    }

    /// Hands a finished interval to the pipeline, swapping a recycled
    /// buffer into `interval`. Blocks while the queue is full.
    fn submit_interval(&self, interval: &mut Vec<u64>) -> Result<()> {
        let shared = &self.shared;
        let bytes = interval.len() as u64 * 8;
        // Admit the interval's bytes before taking the queue lock: the
        // budget is released by engine tasks (recycle), which never need
        // this queue's lock to make progress.
        if let Some(budget) = &shared.budget {
            budget.acquire(bytes);
        }
        let mut q = shared.queue();
        // The bound counts queued intervals AND chunk tasks in flight:
        // each holds a whole L-address buffer, so this is the writer's
        // memory cap. The producer is the only blocker — the actor
        // converts queued intervals to pending chunks one-for-one and
        // chunk tasks only ever decrement, so no engine task waits here.
        while q.intervals.len() + q.pending_chunks >= self.cap && !q.failed {
            q = shared.changed.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.failed {
            drop(q);
            shared.release_interval_bytes(bytes);
            return shared.surface();
        }
        let replacement = q
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(shared.interval_len.min(1 << 24)));
        q.intervals
            .push_back(std::mem::replace(interval, replacement));
        let schedule = !q.actor_live;
        if schedule {
            q.actor_live = true;
        }
        drop(q);
        if schedule {
            let engine = self.engine.clone();
            let shared = Arc::clone(shared);
            let scratch = Arc::clone(&self.scratch);
            self.engine
                .submit(move || run_actor(engine, shared, scratch));
        }
        Ok(())
    }

    /// Blocks until the queue is drained, the actor retired, and every
    /// chunk task landed; then surfaces any pipeline failure.
    fn quiesce(&self) -> Result<()> {
        let shared = &self.shared;
        let mut q = shared.queue();
        while q.actor_live || !q.intervals.is_empty() || q.pending_chunks > 0 {
            q = shared.changed.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        drop(q);
        shared.surface()
    }
}

/// Actor-task body: drains queued intervals strictly in arrival order —
/// classification is stateful (the chunk table), so it is serialized as
/// one live task rather than fanned out; the heavy per-interval work
/// still runs on the engine, off the producer thread, and the chunk
/// payloads it discovers fan out as independent tasks.
fn run_actor(engine: Engine, shared: Arc<LossyShared>, scratch: Arc<WorkerLocal<StreamScratch>>) {
    loop {
        let (interval, failed) = {
            let mut q = shared.queue();
            match q.intervals.pop_front() {
                Some(iv) => {
                    let failed = q.failed;
                    drop(q);
                    // lock-held: not required — the pop happened under
                    // the queue mutex just above; producers blocked in
                    // `changed.wait` re-check queue depth under that
                    // same mutex, so the freed slot cannot be missed.
                    shared.changed.notify_all();
                    (iv, failed)
                }
                None => {
                    q.actor_live = false;
                    drop(q);
                    // lock-held: not required — `actor_live` was cleared
                    // under the queue mutex above; `quiesce` waits on
                    // that flag under the same mutex.
                    shared.changed.notify_all();
                    return;
                }
            }
        };
        if failed {
            // Drain cheaply once poisoned; finish() replays the error.
            shared.recycle(interval, usize::MAX);
            continue;
        }
        let bytes = interval.len() as u64 * 8;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            classify_one(&engine, &shared, &scratch, interval)
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // The interval buffer died inside the failing call (no
                // recycle ran): hand its bytes back so a producer blocked
                // on the budget wakes to observe the failure.
                shared.fail(e);
                shared.release_interval_bytes(bytes);
            }
            Err(p) => {
                shared.fail(AtcError::Format(format!(
                    "interval classification panicked: {}",
                    panic_message(&*p)
                )));
                shared.release_interval_bytes(bytes);
            }
        }
    }
}

/// Classifies one interval and writes its record; on `NewChunk`, fans the
/// chunk payload out as an engine task.
fn classify_one(
    engine: &Engine,
    shared: &Arc<LossyShared>,
    scratch: &Arc<WorkerLocal<StreamScratch>>,
    interval: Vec<u64>,
) -> Result<()> {
    let mut actor = shared.actor.lock().unwrap_or_else(|e| e.into_inner());
    match actor.classify_and_record(interval, shared.interval_len)? {
        Recorded::StoreChunk { id, addrs } => {
            let path = shared.dir.join(format::chunk_file_name(id));
            shared.queue().pending_chunks += 1;
            let shared = Arc::clone(shared);
            let scratch = Arc::clone(scratch);
            engine.submit(move || run_chunk(shared, scratch, path, addrs));
        }
        Recorded::Imitated { addrs } => shared.recycle(addrs, 8),
    }
    Ok(())
}

/// Chunk-task body: compresses one chunk file through this worker's
/// reused [`StreamScratch`]. Chunk files are independent of each other
/// and of the interval trace, so they need no ordering — only completion
/// before `finish`.
fn run_chunk(
    shared: Arc<LossyShared>,
    scratch: Arc<WorkerLocal<StreamScratch>>,
    path: PathBuf,
    addrs: Vec<u64>,
) {
    let failed = shared.queue().failed;
    if !failed {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scratch.with(|s| write_chunk_file_with(&shared.codec, &path, &addrs, shared.buffer, s))
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => shared.fail(e),
            Err(p) => shared.fail(AtcError::Format(format!(
                "chunk compression panicked: {}",
                panic_message(&*p)
            ))),
        }
    }
    shared.recycle(addrs, 8);
    let mut q = shared.queue();
    q.pending_chunks -= 1;
    drop(q);
    // lock-held: not required — the decrement happened under the queue
    // mutex above; `quiesce` re-checks `pending_chunks` under that same
    // mutex, so this wakeup cannot race past an unseen update.
    shared.changed.notify_all();
}

/// Compresses one chunk file (inline path, no scratch carried over).
fn write_chunk_file(
    codec: &Arc<dyn Codec>,
    path: &Path,
    addrs: &[u64],
    buffer: usize,
) -> Result<()> {
    let mut scratch = StreamScratch::default();
    write_chunk_file_with(codec, path, addrs, buffer, &mut scratch)
}

/// Compresses one chunk file, cycling `scratch` through the stream so a
/// worker writing many chunks reuses its segment buffers (shared by the
/// inline path and the engine chunk tasks).
fn write_chunk_file_with(
    codec: &Arc<dyn Codec>,
    path: &Path,
    addrs: &[u64],
    buffer: usize,
    scratch: &mut StreamScratch,
) -> Result<()> {
    let file = BufWriter::new(File::create(path)?);
    let mut out = CodecWriter::with_scratch(
        file,
        Arc::clone(codec),
        atc_codec::DEFAULT_SEGMENT_SIZE,
        std::mem::take(scratch),
    );
    for chunk in addrs.chunks(buffer) {
        format::write_frame(&mut out, chunk)?;
    }
    // On success the stream's buffers come back for the next chunk; on
    // error they are dropped with the failed stream (the pipeline is
    // poisoned at that point anyway).
    let (_, reclaimed) = out.finish_with_scratch()?;
    *scratch = reclaimed;
    Ok(())
}

impl AtcWriter {
    /// Creates a trace directory with default options.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, already contains a trace,
    /// or the options are invalid.
    pub fn create<P: AsRef<Path>>(dir: P, mode: Mode) -> Result<Self> {
        Self::with_options(dir, mode, AtcOptions::default())
    }

    /// Creates a trace directory with explicit options, running any
    /// parallel work on the process-wide engine.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, already contains a trace,
    /// the codec name is unknown, `buffer` is zero, or the lossy
    /// configuration is invalid.
    pub fn with_options<P: AsRef<Path>>(dir: P, mode: Mode, options: AtcOptions) -> Result<Self> {
        Self::build(dir, mode, options, None, None)
    }

    /// Like [`AtcWriter::with_options`], but submits parallel work to an
    /// explicit `engine` — the injection point for tests and for
    /// containers (the sharded store) that feed many writers into one
    /// worker set so an idle writer's capacity serves a busy one.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcWriter::with_options`].
    pub fn with_options_engine<P: AsRef<Path>>(
        dir: P,
        mode: Mode,
        options: AtcOptions,
        engine: Engine,
    ) -> Result<Self> {
        Self::build(dir, mode, options, Some(engine), None)
    }

    /// Like [`AtcWriter::with_options_engine`], but drawing all pipeline
    /// buffering (lossless raw segments, lossy queued intervals) from a
    /// shared [`ByteBudget`] — how the sharded store caps the *sum* of
    /// its shard writers' buffered bytes instead of letting each
    /// writer's window compound.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcWriter::with_options`].
    pub fn with_options_engine_budget<P: AsRef<Path>>(
        dir: P,
        mode: Mode,
        options: AtcOptions,
        engine: Engine,
        budget: Arc<ByteBudget>,
    ) -> Result<Self> {
        Self::build(dir, mode, options, Some(engine), Some(budget))
    }

    fn build<P: AsRef<Path>>(
        dir: P,
        mode: Mode,
        options: AtcOptions,
        engine: Option<Engine>,
        budget: Option<Arc<ByteBudget>>,
    ) -> Result<Self> {
        if options.buffer == 0 {
            return Err(AtcError::Format("buffer size must be positive".into()));
        }
        // Every full frame holds `buffer` addresses: refuse now what
        // `write_frame` would refuse only after buffering that many.
        if options.buffer as u64 > format::FRAME_MAX_ADDRS {
            return Err(AtcError::Format(format!(
                "buffer size {} exceeds the {} address frame cap",
                options.buffer,
                format::FRAME_MAX_ADDRS
            )));
        }
        let codec: Arc<dyn Codec> = Arc::from(
            codec_by_name(&options.codec)
                .ok_or_else(|| AtcError::Format(format!("unknown codec {:?}", options.codec)))?,
        );
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(format::META_FILE).exists() {
            return Err(AtcError::Format(format!(
                "directory {} already contains an ATC trace",
                dir.display()
            )));
        }

        let threads = options.threads.max(1);
        let engine = if threads > 1 {
            Some(engine.unwrap_or_else(|| Engine::global_with(threads)))
        } else {
            None
        };
        let state = match mode {
            Mode::Lossless => {
                let file = BufWriter::new(File::create(dir.join(format::DATA_FILE))?);
                // threads <= 1 compresses inline on this thread; the
                // bytes are the same either way.
                let out = match engine {
                    Some(e) => CodecWriter::with_engine_budget(
                        file,
                        Arc::clone(&codec),
                        atc_codec::DEFAULT_SEGMENT_SIZE,
                        threads,
                        e,
                        budget,
                    ),
                    None => CodecWriter::new(file, Arc::clone(&codec)),
                };
                State::Lossless {
                    out: Box::new(out),
                    buf: Vec::with_capacity(options.buffer.min(1 << 24)),
                }
            }
            Mode::Lossy(cfg) => {
                cfg.validate().map_err(AtcError::Format)?;
                let interval_len = cfg.interval_len;
                let file = BufWriter::new(File::create(dir.join(format::INFO_FILE))?);
                let info = CodecWriter::new(file, Arc::clone(&codec));
                let classifier = PhaseClassifier::new(cfg);
                let back = match engine {
                    Some(e) => {
                        let shared = Arc::new(LossyShared {
                            queue: Mutex::new(LossyQueue::default()),
                            changed: Condvar::new(),
                            actor: Mutex::new(LossyCore {
                                classifier,
                                info: Some(info),
                                next_chunk_id: 0,
                                intervals: 0,
                                imitations: 0,
                            }),
                            latch: Mutex::new(ErrorLatch::default()),
                            budget,
                            dir: dir.clone(),
                            codec: Arc::clone(&codec),
                            buffer: options.buffer,
                            interval_len,
                        });
                        LossyBack::Engine(LossyPipeline::new(e, shared, threads))
                    }
                    None => LossyBack::Inline(Box::new(LossyCore {
                        classifier,
                        info: Some(info),
                        next_chunk_id: 0,
                        intervals: 0,
                        imitations: 0,
                    })),
                };
                State::Lossy {
                    interval: Vec::with_capacity(interval_len.min(1 << 24)),
                    interval_len,
                    back,
                }
            }
        };
        Ok(Self {
            dir,
            codec,
            codec_name: options.codec,
            buffer: options.buffer,
            count: 0,
            state,
        })
    }

    /// Compresses one 64-bit value (the original `atc_code`).
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec errors.
    pub fn code(&mut self, value: u64) -> Result<()> {
        self.count += 1;
        let buffer = self.buffer;
        match &mut self.state {
            State::Lossless { out, buf } => {
                buf.push(value);
                if buf.len() == buffer {
                    format::write_frame(out, buf)?;
                    buf.clear();
                }
                Ok(())
            }
            State::Lossy {
                interval,
                interval_len,
                ..
            } => {
                interval.push(value);
                if interval.len() == *interval_len {
                    self.end_interval()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Compresses every value from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`AtcWriter::code`].
    pub fn code_all<I: IntoIterator<Item = u64>>(&mut self, values: I) -> Result<()> {
        for v in values {
            self.code(v)?;
        }
        Ok(())
    }

    /// Number of addresses accepted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finishes the interval currently buffered (lossy mode only).
    fn end_interval(&mut self) -> Result<()> {
        let State::Lossy {
            interval,
            interval_len,
            back,
        } = &mut self.state
        else {
            unreachable!("end_interval is only called in lossy mode");
        };
        if interval.is_empty() {
            return Ok(());
        }
        match back {
            LossyBack::Engine(pipeline) => pipeline.submit_interval(interval),
            LossyBack::Inline(core) => {
                let mut addrs =
                    match core.classify_and_record(std::mem::take(interval), *interval_len)? {
                        Recorded::StoreChunk { id, addrs } => {
                            let path = self.dir.join(format::chunk_file_name(id));
                            write_chunk_file(&self.codec, &path, &addrs, self.buffer)?;
                            addrs
                        }
                        Recorded::Imitated { addrs } => addrs,
                    };
                // The payload buffer cycles back as the next interval's
                // accumulator.
                addrs.clear();
                *interval = addrs;
                Ok(())
            }
        }
    }

    /// Flushes buffered data, writes the `meta` header, and returns the
    /// compression statistics (the original `atc_close`).
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec errors.
    pub fn finish(mut self) -> Result<AtcStats> {
        if matches!(self.state, State::Lossy { .. }) {
            self.end_interval()?;
        }

        let mut seek_segments = None;
        let (intervals, chunks, imitations, interval_len, threshold) = match self.state {
            State::Lossless { mut out, buf } => {
                if !buf.is_empty() {
                    format::write_frame(&mut out, &buf)?;
                }
                // The writer has every segment's offsets on hand as it
                // seals them, so the seek sidecar is free: persist it and
                // record the segment count in `meta`.
                let (_, segments) = out.finish_with_segments()?;
                let table = format::SeekTable::from_records(segments)?;
                seek_segments = Some(table.len() as u64);
                fs::write(self.dir.join(format::SEEK_FILE), table.encode())?;
                (0, 0, 0, 0u64, 0.0)
            }
            State::Lossy {
                interval_len, back, ..
            } => match back {
                LossyBack::Inline(mut inline) => {
                    // atclint: allow(library-unwrap) -- infallible: finish()
                    // consumes self, so this take is the only one.
                    let info = inline.info.take().expect("info lives until finish");
                    info.finish()?;
                    (
                        inline.intervals,
                        inline.next_chunk_id,
                        inline.imitations,
                        interval_len as u64,
                        inline.classifier.config().threshold,
                    )
                }
                LossyBack::Engine(pipeline) => {
                    // All interval records and chunk files must be on
                    // disk before the header is written and the
                    // directory size measured.
                    pipeline.quiesce()?;
                    let mut actor = pipeline
                        .shared
                        .actor
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    // atclint: allow(library-unwrap) -- infallible: finish()
                    // consumes self and quiesce() stopped the actor, so this
                    // is the only take of the actor's info stream.
                    let info = actor.info.take().expect("info lives until finish");
                    info.finish()?;
                    (
                        actor.intervals,
                        actor.next_chunk_id,
                        actor.imitations,
                        interval_len as u64,
                        actor.classifier.config().threshold,
                    )
                }
            },
        };

        let meta = Meta {
            version: FORMAT_VERSION,
            mode: if interval_len == 0 {
                "lossless"
            } else {
                "lossy"
            }
            .into(),
            codec: self.codec_name.clone(),
            buffer: self.buffer as u64,
            interval_len,
            threshold,
            count: self.count,
            chunks,
            seek_segments,
        };
        fs::write(self.dir.join(format::META_FILE), meta.to_text())?;

        let compressed_bytes = dir_size(&self.dir)?;
        Ok(AtcStats {
            count: self.count,
            intervals,
            chunks,
            imitations,
            compressed_bytes,
        })
    }
}

/// Total size in bytes of all files directly inside `dir`.
pub(crate) fn dir_size(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-writer-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lossless_creates_layout() {
        let dir = tmp("layout");
        let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        w.code_all((0..1000u64).map(|i| i * 64)).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.count, 1000);
        assert!(dir.join("meta").exists());
        assert!(dir.join("data.atc").exists());
        assert!(stats.compressed_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_creates_chunks_and_info() {
        let dir = tmp("lossy");
        let cfg = LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 64,
                threads: 1,
            },
        )
        .unwrap();
        // 5 identical intervals: 1 chunk + 4 imitations.
        for _ in 0..5 {
            w.code_all((0..100u64).map(|i| i * 64)).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.count, 500);
        assert_eq!(stats.intervals, 5);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.imitations, 4);
        assert!(dir.join("chunk-000000.atc").exists());
        assert!(dir.join("info.atc").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_engine_pipeline_matches_inline_bytes() {
        // The classifier actor + chunk tasks must produce a directory
        // byte-identical to the inline path, at several worker counts
        // including workers < requested parallelism.
        let cfg = || LossyConfig {
            interval_len: 300,
            ..LossyConfig::default()
        };
        let mut addrs = Vec::new();
        for lap in 0..12u64 {
            for i in 0..300u64 {
                addrs.push(((lap % 4) << 32) + i * 64);
            }
        }
        addrs.extend((0..50u64).map(|i| i * 8)); // partial tail interval
        let write = |name: &str, threads: usize, engine: Option<Engine>| {
            let dir = tmp(name);
            let options = AtcOptions {
                codec: "bzip".into(),
                buffer: 128,
                threads,
            };
            let mut w = match engine {
                Some(e) => {
                    AtcWriter::with_options_engine(&dir, Mode::Lossy(cfg()), options, e).unwrap()
                }
                None => AtcWriter::with_options(&dir, Mode::Lossy(cfg()), options).unwrap(),
            };
            w.code_all(addrs.iter().copied()).unwrap();
            let stats = w.finish().unwrap();
            (dir, stats)
        };
        let (inline_dir, inline_stats) = write("lossy-eng-inline", 1, None);
        let read_all = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
                .iter()
                .map(|n| (n.clone(), fs::read(dir.join(n)).unwrap()))
                .collect::<Vec<_>>()
        };
        let expect = read_all(&inline_dir);
        for workers in [1usize, 2, 4] {
            let (dir, stats) = write(
                &format!("lossy-eng-{workers}"),
                4,
                Some(Engine::new(workers)),
            );
            assert_eq!(stats.chunks, inline_stats.chunks, "workers={workers}");
            assert_eq!(stats.imitations, inline_stats.imitations);
            assert_eq!(stats.intervals, inline_stats.intervals);
            assert_eq!(read_all(&dir), expect, "workers={workers}");
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::remove_dir_all(&inline_dir).unwrap();
    }

    #[test]
    fn refuses_double_create() {
        let dir = tmp("double");
        let w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        w.finish().unwrap();
        assert!(AtcWriter::create(&dir, Mode::Lossless).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_options() {
        let dir = tmp("badopt");
        assert!(AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "nope".into(),
                buffer: 10,
                threads: 1,
            }
        )
        .is_err());
        assert!(AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "store".into(),
                buffer: 0,
                threads: 1,
            }
        )
        .is_err());
        let too_big = format::FRAME_MAX_ADDRS as usize + 1;
        let err = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "store".into(),
                buffer: too_big,
                threads: 1,
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, AtcError::Format(m) if m.contains(&too_big.to_string())),
            "{err}"
        );
        assert!(!dir.exists(), "a refused create writes nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_bpa() {
        let s = AtcStats {
            count: 1000,
            intervals: 0,
            chunks: 0,
            imitations: 0,
            compressed_bytes: 250,
        };
        assert!((s.bits_per_address() - 2.0).abs() < 1e-12);
        assert!((s.ratio() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let dir = tmp("empty");
        let w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.bits_per_address(), 0.0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
