//! One child process: set-up, then pack passes, scan passes and serve
//! rounds of a single workload taking turns, every output checked
//! against the oracle.
//!
//! A run is split over several fresh child processes (see README,
//! "Noise"); each child prints its raw samples as one JSON line and the
//! parent (`report.rs`) pools them.

use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use atc_cache::{CacheFilter, SegmentCache};
use atc_core::{AtcOptions, ReadOptions};
use atc_engine::Engine;
use atc_net::{AtcClient, NetServer, ServeOptions, ServerStats};
use atc_store::{AtcStore, StoreOptions, StoreReader, StoreService, StoreStats};
use atc_trace::Access;

use crate::json::Json;
use crate::pin;
use crate::replay::stage_replay;
use crate::span::Tracer;
use crate::spec::{
    ServeOp, Workload, BLOCK_VALUES, BUFFER, PHASE_SPLIT, RANGE_VALUES, REFERENCE_SEED,
    SERVE_MIN_OPS, SERVE_ROUND_SECONDS, SERVE_WARMUP_CYCLES,
};
use crate::stats::{median, percentile};

/// How long a child measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// This many timed seconds, split over the phases by
    /// [`PHASE_SPLIT`].
    Seconds(f64),
    /// `--quick`: a warm-up and two timed passes per phase; a serve
    /// round is two cycles of the op mix (20 timed ops on the range
    /// workloads).
    Quick,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Passes, replays and served ops attempted.
    pub attempted: u64,
    /// Those whose output failed its check, errored, or was refused.
    pub failed: u64,
    /// Reasons (capped; the count above is exact).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` is a failed operation.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Order-sensitive 64-bit checksum of a value stream.
pub fn checksum(values: &[u64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

/// splitmix64: seeds the serve-position offsets.
struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The workload's inputs and oracle.
#[derive(Debug)]
pub struct Inputs {
    /// Raw byte addresses (access kinds dropped, as `--filter` ingest
    /// sees them).
    pub raw: Vec<u64>,
    /// The serially filtered trace: what every lossless read must equal.
    pub reference: Vec<u64>,
    /// [`checksum`] of `reference`.
    pub checksum: u64,
    /// Whole set-up time.
    pub setup_s: f64,
    /// Time spent generating `raw`.
    pub generate_s: f64,
    /// Time spent in `CacheFilter::filter_batch` building `reference`.
    pub filter_s: f64,
}

/// Block buffers reused across pack passes.
#[derive(Debug, Default)]
pub struct Bufs {
    accesses: Vec<Access>,
    survivors: Vec<u64>,
}

/// The first `n_raw` byte addresses of the workload's profile at `seed`.
fn raw_addresses(w: &Workload, seed: u64) -> Result<Vec<u64>, String> {
    let profile =
        atc_trace::spec::profile(w.profile).ok_or_else(|| format!("no profile {}", w.profile))?;
    Ok(profile
        .workload(seed)
        .take(w.n_raw)
        .map(|a| a.addr)
        .collect())
}

/// Builds the inputs from `seed`.
///
/// # Errors
///
/// Fails on an unknown profile name.
pub fn setup(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let start = Instant::now();
    let raw = raw_addresses(w, seed)?;
    let generate_s = start.elapsed().as_secs_f64();

    let mut filter = CacheFilter::paper();
    let mut bufs = Bufs::default();
    let mut reference = Vec::with_capacity(raw.len() / 2);
    let mut filter_time = Duration::ZERO;
    for block in raw.chunks(BLOCK_VALUES) {
        bufs.accesses.clear();
        bufs.accesses.extend(block.iter().map(|&a| Access::read(a)));
        bufs.survivors.clear();
        let t = Instant::now();
        filter.filter_batch(&bufs.accesses, &mut bufs.survivors);
        filter_time += t.elapsed();
        reference.extend_from_slice(&bufs.survivors);
    }
    let checksum = checksum(&reference);
    Ok(Inputs {
        raw,
        reference,
        checksum,
        setup_s: start.elapsed().as_secs_f64(),
        generate_s,
        filter_s: filter_time.as_secs_f64(),
    })
}

/// One pack pass: exactly the `atcstore pack --filter` loop, timed from
/// `AtcStore::create` to `finish`.
///
/// # Errors
///
/// Propagates store errors as text.
pub fn pack_pass(
    w: &Workload,
    raw: &[u64],
    root: &Path,
    bufs: &mut Bufs,
    tr: &mut Tracer,
    op: u64,
) -> Result<(f64, StoreStats), String> {
    let _ = std::fs::remove_dir_all(root);
    let options = StoreOptions {
        shards: w.shards,
        policy: w.policy,
        atc: AtcOptions {
            codec: w.codec.into(),
            buffer: BUFFER,
            threads: w.threads,
        },
        max_buffered_bytes: None,
    };
    let engine = (w.threads > 1).then(|| Engine::new(w.threads));
    let mut filter = CacheFilter::paper();
    let pass = tr.enter("pack.pass", op);
    let start = Instant::now();
    let result = (|| {
        let s = tr.enter("store.create", op);
        let mut store = match engine {
            Some(e) => AtcStore::create_with_engine(root, w.mode(), options, e),
            None => AtcStore::create(root, w.mode(), options),
        }?;
        tr.exit(s);
        for block in raw.chunks(BLOCK_VALUES) {
            let s = tr.enter("ingest.to_access", op);
            bufs.accesses.clear();
            bufs.accesses.extend(block.iter().map(|&a| Access::read(a)));
            tr.exit(s);
            let s = tr.enter("cache.filter_batch", op);
            bufs.survivors.clear();
            filter.filter_batch(&bufs.accesses, &mut bufs.survivors);
            tr.exit(s);
            let s = tr.enter("store.code_all", op);
            store.code_all(bufs.survivors.iter().copied())?;
            tr.exit(s);
        }
        let s = tr.enter("store.finish", op);
        let stats = store.finish()?;
        tr.exit(s);
        Ok(stats)
    })();
    let secs = start.elapsed().as_secs_f64();
    tr.exit(pass);
    result
        .map(|stats| (secs, stats))
        .map_err(|e: atc_core::AtcError| e.to_string())
}

/// `bits_per_address` of the workload packed from the trace of
/// [`REFERENCE_SEED`] under `dir`: one untimed pack pass whose result
/// does not depend on `--seed`.
///
/// # Errors
///
/// Propagates profile and store errors as text.
pub fn reference_bits(w: &Workload, dir: &Path) -> Result<f64, String> {
    let raw = raw_addresses(w, REFERENCE_SEED)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let root = dir.join(format!("tmp-{}-reference-{}", w.name, std::process::id()));
    let packed = pack_pass(w, &raw, &root, &mut Bufs::default(), &mut Tracer::off(), 0);
    let _ = std::fs::remove_dir_all(&root);
    packed.map(|(_, stats)| stats.bits_per_address())
}

/// One scan pass: `StoreReader::open_with` + `decode_all`, a full merged
/// replay. Returns the seconds and the decoded stream.
///
/// # Errors
///
/// Propagates reader errors as text (a corrupt store lands here).
pub fn scan_pass(
    w: &Workload,
    root: &Path,
    tr: &mut Tracer,
    op: u64,
) -> Result<(f64, Vec<u64>), String> {
    let options = ReadOptions {
        threads: w.threads,
        engine: (w.threads > 1).then(|| Engine::new(w.threads)),
        ..ReadOptions::default()
    };
    let pass = tr.enter("scan.pass", op);
    let start = Instant::now();
    let result = (|| {
        let s = tr.enter("store.open", op);
        let mut reader = StoreReader::open_with(root, options)?;
        tr.exit(s);
        let s = tr.enter("store.decode_all", op);
        let values = reader.decode_all()?;
        tr.exit(s);
        Ok(values)
    })();
    let secs = start.elapsed().as_secs_f64();
    tr.exit(pass);
    result
        .map(|values| (secs, values))
        .map_err(|e: atc_core::AtcError| e.to_string())
}

/// A scan pass with its output check: lossless streams must equal the
/// reference (length and checksum); lossy ones must have its length and
/// repeat the first pass's checksum, kept in `lossy_sum`. Any reader
/// error or mismatch is an `Err`, which the caller counts as a failed
/// operation.
///
/// # Errors
///
/// See above; the text names what differed.
pub fn checked_scan(
    w: &Workload,
    inputs: &Inputs,
    root: &Path,
    tr: &mut Tracer,
    op: u64,
    lossy_sum: &mut Option<u64>,
) -> Result<f64, String> {
    let (secs, values) = scan_pass(w, root, tr, op)?;
    if values.len() != inputs.reference.len() {
        return Err(format!(
            "decoded {} values, filtered trace has {}",
            values.len(),
            inputs.reference.len()
        ));
    }
    let sum = checksum(&values);
    let expect = if w.lossy {
        *lossy_sum.get_or_insert(sum)
    } else {
        inputs.checksum
    };
    if sum == expect {
        Ok(secs)
    } else {
        Err(format!("checksum {sum:#x}, expected {expect:#x}"))
    }
}

/// A served operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `ReadRange` over merged positions.
    Range(Range<u64>),
    /// `StreamShard{shard, from: 0}`.
    Shard(u32),
}

/// The seeded op sequence of one client. A run's clients are numbered
/// across its children (`lane`), so no two issue the same sequence.
///
/// Range starts are *stratified*, not independent draws: the k-th start
/// of a stream is `frac(u + k·φ)` of its span (the golden-ratio
/// Kronecker sequence), with only the offset `u` drawn from the seed.
/// Any prefix of the sequence covers the span evenly, so every seed
/// sees the same mix of frame and segment alignments and the latency
/// percentiles measure the system rather than the luck of the draw.
#[derive(Debug)]
pub struct OpGen {
    serve: ServeOp,
    count: u64,
    shards: u64,
    lane: u64,
    issued: u64,
    /// Seeded offsets of the two start streams (hot or only, cold).
    offsets: [u64; 2],
    /// Starts drawn so far from each stream.
    drawn: [u64; 2],
}

impl OpGen {
    /// The sequence for client `lane` over a store of `count` values.
    pub fn new(w: &Workload, seed: u64, lane: u64, count: u64) -> OpGen {
        let mut rng = SplitMix::new(seed, lane + 1);
        OpGen {
            serve: w.serve,
            count,
            shards: w.shards as u64,
            lane,
            issued: 0,
            offsets: [rng.draw(), rng.draw()],
            drawn: [0, 0],
        }
    }

    /// The next stratified point of `stream`, scaled to `0..span`.
    fn point(&mut self, stream: usize, span: u64) -> u64 {
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / golden ratio
        let x = self.offsets[stream].wrapping_add(self.drawn[stream].wrapping_mul(PHI));
        self.drawn[stream] += 1;
        ((u128::from(x) * u128::from(span)) >> 64) as u64
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let i = self.issued;
        self.issued += 1;
        let len = RANGE_VALUES.min(self.count);
        let starts = self.count - len + 1;
        let (stream, span) = match self.serve {
            ServeOp::StreamShards => {
                return Some(Op::Shard(((i + self.lane) % self.shards) as u32))
            }
            // A fixed cadence, not a coin flip per op: the cold share
            // is exactly a fifth on every seed.
            ServeOp::RangeHotCold if i % 5 == 4 => (1, starts),
            ServeOp::RangeHotCold => (0, self.count / 10),
            ServeOp::RangePrefix { prefix } => (0, prefix),
        };
        let start = self.point(stream, span.clamp(1, starts));
        Some(Op::Range(start..start + len))
    }
}

/// What each served op must return.
enum Expect<'a> {
    /// Lossless: the reference slice.
    Reference(&'a [u64]),
    /// Lossy: per-shard (length, checksum) of the local shard decode.
    Shards(Vec<(usize, u64)>),
}

impl Expect<'_> {
    fn check(&self, op: &Op, got: &[u64]) -> Result<(), String> {
        match (self, op) {
            (Expect::Reference(r), Op::Range(range)) => {
                if got == &r[range.start as usize..range.end as usize] {
                    Ok(())
                } else {
                    Err(format!("range {range:?} differs from the reference slice"))
                }
            }
            (Expect::Shards(s), Op::Shard(i)) => {
                if s.get(*i as usize) == Some(&(got.len(), checksum(got))) {
                    Ok(())
                } else {
                    Err(format!("shard {i} stream differs from the local decode"))
                }
            }
            _ => Err("op does not fit the store's mode".into()),
        }
    }
}

/// One closed-loop client connection and its op sequence.
struct Lane {
    client: AtcClient,
    ops: OpGen,
    /// Ops issued so far (the span `op` of the next one).
    issued: u64,
    connect_us: f64,
    /// Records the traced rounds' `net.client_op` spans.
    tracer: Tracer,
}

/// What one lane measured in one round.
struct LaneRound {
    lat_ms: Vec<f64>,
    values: u64,
    tally: Tally,
    /// The lane lost its connection and could not get a new one.
    dead: bool,
}

impl Lane {
    /// Whole cycles of `cycle` ops until `cycles` are done and
    /// `seconds` have passed.
    fn round(
        &mut self,
        addr: SocketAddr,
        expect: &Expect<'_>,
        cycle: usize,
        cycles: usize,
        seconds: f64,
        traced: bool,
    ) -> LaneRound {
        let mut out = LaneRound {
            lat_ms: Vec::new(),
            values: 0,
            tally: Tally::default(),
            dead: false,
        };
        let mut off = Tracer::off();
        let tr = if traced { &mut self.tracer } else { &mut off };
        let start = Instant::now();
        let mut done = 0;
        loop {
            // Stop on a cycle boundary: every round holds the op mix.
            if done % cycle == 0
                && done >= cycles * cycle
                && start.elapsed().as_secs_f64() >= seconds
            {
                break;
            }
            let Some(op) = self.ops.next() else { break };
            let span = tr.enter("net.client_op", self.issued);
            self.issued += 1;
            done += 1;
            let t = Instant::now();
            let got = match &op {
                Op::Range(r) => self.client.read_range(r.clone()),
                Op::Shard(s) => self.client.stream_shard(*s, 0),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.exit(span);
            let checked = got
                .map_err(|e| e.to_string())
                .and_then(|v| expect.check(&op, &v).map(|()| v.len() as u64));
            if let Some(n) = out.tally.record("served op", checked) {
                out.lat_ms.push(ms);
                out.values += n;
            } else {
                // A transport error poisons the connection; a fresh one
                // keeps the remaining ops meaningful.
                match AtcClient::connect(addr) {
                    Ok(c) => self.client = c,
                    Err(_) => {
                        out.dead = true;
                        break;
                    }
                }
            }
        }
        out
    }
}

/// What the serve side of a child measured.
struct ServeOut {
    lat_ms: Vec<f64>,
    round_mvalues_s: Vec<f64>,
    connect_us: Vec<f64>,
    stat_us: Vec<f64>,
    server: ServerStats,
}

/// A packed store and the ops to run against it.
struct ServeJob<'a> {
    w: &'a Workload,
    root: &'a Path,
    expect: Expect<'a>,
    /// Values in the store (the filtered count).
    count: u64,
    seed: u64,
    /// Lane of this child's first client.
    first_lane: u64,
    /// `--quick`: rounds of exactly [`ServeJob::cycles`] cycles.
    quick: bool,
}

impl ServeJob<'_> {
    /// Ops of one cycle of the op mix: four hot and one cold range, or
    /// one stream of every shard.
    fn cycle(&self) -> usize {
        match self.w.serve {
            ServeOp::StreamShards => self.w.shards,
            ServeOp::RangeHotCold | ServeOp::RangePrefix { .. } => 5,
        }
    }

    /// Fewest cycles of a round.
    fn cycles(&self) -> usize {
        if self.quick {
            2
        } else {
            1
        }
    }

    /// Seconds a round lasts at least.
    fn round_seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            SERVE_ROUND_SECONDS
        }
    }
}

/// The serve side of a child: an in-process `NetServer` on an ephemeral
/// loopback port and `w.clients` connected closed-loop clients, which
/// serve *rounds* of ops between the pack and scan passes.
struct Serving<'a> {
    job: &'a ServeJob<'a>,
    addr: SocketAddr,
    handle: atc_net::ServerHandle,
    accept: std::thread::JoinHandle<atc_core::Result<ServerStats>>,
    lanes: Vec<Lane>,
    lat_ms: Vec<f64>,
    round_mvalues_s: Vec<f64>,
}

impl<'a> Serving<'a> {
    /// Binds the server, connects the clients and serves
    /// [`SERVE_WARMUP_CYCLES`] untimed cycles.
    fn start(job: &'a ServeJob<'a>, tally: &mut Tally, tr: &Tracer) -> Result<Self, String> {
        let err = |e: atc_core::AtcError| e.to_string();
        let server = NetServer::bind(
            job.root,
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                segment_cache: Some(SegmentCache::isolated(job.w.segment_cache_bytes)),
                ..ServeOptions::default()
            },
        )
        .map_err(err)?;
        let addr = server.local_addr().map_err(err)?;
        let handle = server.handle();
        let accept = std::thread::spawn(move || server.run());
        let mut serving = Serving {
            job,
            addr,
            handle,
            accept,
            lanes: Vec::new(),
            lat_ms: Vec::new(),
            round_mvalues_s: Vec::new(),
        };
        for c in 0..job.w.clients as u64 {
            let t = Instant::now();
            let connected = AtcClient::connect(addr).map_err(err);
            let connect_us = t.elapsed().as_secs_f64() * 1e6;
            let Some(client) = tally.record("connect", connected) else {
                let _ = serving.stop();
                return Err("no connection to the server".into());
            };
            serving.lanes.push(Lane {
                client,
                ops: OpGen::new(job.w, job.seed, job.first_lane + c, job.count),
                issued: 0,
                connect_us,
                tracer: tr.for_thread(c as u32 + 1),
            });
        }
        // Warm-up ops are neither timed nor counted, but a failing one
        // is still a failure of the run.
        let warm = serving.run_round(SERVE_WARMUP_CYCLES, 0.0, false);
        for lane in warm {
            tally.merge(Tally {
                attempted: lane.tally.failed,
                ..lane.tally
            });
        }
        Ok(serving)
    }

    /// One round on every lane at once.
    fn run_round(&mut self, cycles: usize, seconds: f64, traced: bool) -> Vec<LaneRound> {
        let (addr, expect, cycle) = (self.addr, &self.job.expect, self.job.cycle());
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    scope.spawn(move || lane.round(addr, expect, cycle, cycles, seconds, traced))
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// One timed round: its ops' latencies and its throughput (values
    /// delivered per second of op time, summed over the lanes) are
    /// kept. Returns the round's op seconds, `None` when a lane died.
    fn round(&mut self, tally: &mut Tally, traced: bool) -> Option<f64> {
        let lanes = self.run_round(self.job.cycles(), self.job.round_seconds(), traced);
        let (mut secs, mut mvalues_s, mut dead) = (0f64, 0.0, false);
        for lane in lanes {
            let op_s = lane.lat_ms.iter().sum::<f64>() / 1e3;
            secs = secs.max(op_s);
            if op_s > 0.0 {
                mvalues_s += lane.values as f64 / op_s / 1e6;
            }
            dead |= lane.dead;
            if !traced {
                self.lat_ms.extend(lane.lat_ms);
            }
            tally.merge(lane.tally);
        }
        if !traced {
            self.round_mvalues_s.push(mvalues_s);
        }
        (!dead).then_some(secs)
    }

    /// Ops a timed round holds at least.
    fn round_ops(&self) -> usize {
        self.job.cycle() * self.job.cycles() * self.lanes.len()
    }

    fn stop(self) -> Result<ServerStats, String> {
        self.handle.shutdown();
        self.accept
            .join()
            .expect("server thread panicked")
            .map_err(|e| e.to_string())
    }

    /// Closes the clients and stops the server. `tr` takes the lanes'
    /// spans and, when recording, the protocol floor is probed first.
    fn finish(mut self, tr: &mut Tracer) -> Result<ServeOut, String> {
        let mut connect_us = Vec::new();
        // Dropping a lane closes its connection and frees its worker.
        for lane in std::mem::take(&mut self.lanes) {
            connect_us.push(lane.connect_us);
            tr.absorb(lane.tracer);
        }
        // The protocol floor, read only on traced runs: StatStore round
        // trips on a fresh connection, after the load has ended.
        let mut stat_us = Vec::new();
        if tr.enabled() {
            if let Ok(mut probe) = AtcClient::connect(self.addr) {
                for _ in 0..50 {
                    let t = Instant::now();
                    if probe.stat().is_ok() {
                        stat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
        }
        let lat_ms = std::mem::take(&mut self.lat_ms);
        let round_mvalues_s = std::mem::take(&mut self.round_mvalues_s);
        Ok(ServeOut {
            lat_ms,
            round_mvalues_s,
            connect_us,
            stat_us,
            server: self.stop()?,
        })
    }
}

/// The local twin of the serve ops (traced runs only): the same op
/// sequence against a `StoreService` over the same kind of cache —
/// exactly the store-layer calls `NetServer` makes per request, without
/// the wire. Median µs per op.
fn local_ops_us(job: &ServeJob<'_>) -> Result<f64, String> {
    let err = |e: atc_core::AtcError| e.to_string();
    let service = StoreService::open_with(
        job.root,
        ReadOptions {
            segment_cache: Some(SegmentCache::isolated(job.w.segment_cache_bytes)),
            ..ReadOptions::default()
        },
    )
    .map_err(err)?;
    let mut us = Vec::new();
    let mut got = Vec::new();
    let warmup = SERVE_WARMUP_CYCLES * job.cycle();
    let timed = if job.quick { 20 } else { SERVE_MIN_OPS };
    let ops = OpGen::new(job.w, job.seed, job.first_lane, job.count).take(warmup + timed);
    for (i, op) in ops.enumerate() {
        got.clear();
        let sink = |chunk: &[u64]| {
            got.extend_from_slice(chunk);
            Ok(())
        };
        let t = Instant::now();
        match &op {
            Op::Range(r) => service.read_range_chunked(r.clone(), BLOCK_VALUES, sink),
            Op::Shard(s) => service.stream_shard_chunked(*s as usize, 0, BLOCK_VALUES, sink),
        }
        .map_err(err)?;
        let elapsed = t.elapsed();
        job.expect.check(&op, &got)?;
        if i >= warmup {
            us.push(elapsed.as_secs_f64() * 1e6);
        }
    }
    Ok(median(&us))
}

/// One of the phases [`interleaved_passes`] alternates between.
struct Phase<'a> {
    /// Timed seconds this phase is due.
    seconds: f64,
    /// Fewest timed passes, however long one takes.
    min_passes: usize,
    /// Runs pass number `op` (a pack pass, a scan pass or a serve
    /// round), tallies its operations and returns its seconds; `None`
    /// when it failed in a way that would fail every later pass too.
    pass: &'a mut dyn FnMut(&mut Tally, u64) -> Option<f64>,
    /// Seconds of the timed passes so far.
    secs: Vec<f64>,
}

impl Phase<'_> {
    /// How far the phase is through its budget: 1 when done.
    fn progress(&self, budget: Budget) -> f64 {
        match budget {
            Budget::Quick => (self.secs.len() as f64 / 2.0).min(1.0),
            Budget::Seconds(_) => (self.secs.len() as f64 / self.min_passes as f64)
                .min(self.secs.iter().sum::<f64>() / self.seconds),
        }
    }
}

/// Timed passes of whichever phase is furthest behind its budget, until
/// each phase has spent its seconds and has its fewest passes; `Quick`
/// runs exactly two timed passes each. The caller has warmed every
/// phase up.
///
/// Alternating spreads every phase's samples over the child's whole
/// window. The reference host runs at two speeds 28 % apart for seconds
/// at a time; a phase measured in one short block can fall wholly
/// inside one such episode, and its median then reads the other speed
/// (README, "Noise").
fn interleaved_passes(budget: Budget, tally: &mut Tally, phases: &mut [Phase<'_>]) {
    loop {
        let next = phases
            .iter_mut()
            .min_by(|a, b| a.progress(budget).total_cmp(&b.progress(budget)));
        let Some(p) = next.filter(|p| p.progress(budget) < 1.0) else {
            return;
        };
        let op = p.secs.len() as u64 + 1;
        // A failing pass would fail forever: stop, the tally has it.
        let Some(s) = (p.pass)(tally, op) else {
            return;
        };
        p.secs.push(s);
    }
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unreadable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// What a child is asked to do.
#[derive(Debug, Clone)]
pub struct ChildConfig {
    /// The workload (already at quick size if `budget` is `Quick`).
    pub workload: Workload,
    /// Seed of the trace and of the serve positions.
    pub seed: u64,
    /// Index of this child within its run: the run's children share the
    /// trace but each serves its own positions, so pooling them samples
    /// the store more evenly.
    pub child: u64,
    /// How long to measure.
    pub budget: Budget,
    /// Traced run: extra traced passes, the stage replay and the local
    /// and protocol probes; writes `trace-<workload>.json` under `out`.
    pub trace: bool,
    /// Directory for store roots and the trace file.
    pub out: PathBuf,
}

/// Runs one child and returns its samples as the JSON the parent pools.
pub fn run_child(cfg: &ChildConfig) -> Json {
    let w = &cfg.workload;
    let mut tally = Tally::default();
    let mut report = Json::obj();
    let tmp = cfg
        .out
        .join(format!("tmp-{}-{}", w.name, std::process::id()));
    // A serial workload runs on one CPU (README, "Noise"): its serve
    // phase is a client and a server thread that hand each other the
    // socket, and whether the host runs them side by side or wakes one
    // vCPU for the other is a state that lasts minutes.
    if w.threads == 1 && w.clients == 1 {
        if let Some(cpu) = pin::to_one_cpu(cfg.child as usize) {
            report.set("pinned_cpu", cpu as u64);
        }
    }
    let result = child_phases(cfg, &tmp, &mut tally, &mut report);
    if let Err(e) = result {
        tally.record::<()>("child", Err(e));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    report.set("peak_rss_kib", peak_rss_kib());
    report.set("attempted", tally.attempted);
    report.set("failed", tally.failed);
    report.set(
        "failures",
        tally
            .failures
            .into_iter()
            .map(Json::Str)
            .collect::<Vec<_>>(),
    );
    report
}

fn child_phases(
    cfg: &ChildConfig,
    tmp: &Path,
    tally: &mut Tally,
    report: &mut Json,
) -> Result<(), String> {
    let w = &cfg.workload;
    let seconds = match cfg.budget {
        Budget::Seconds(s) => s,
        Budget::Quick => 0.0,
    };
    let traced_passes = if cfg.budget == Budget::Quick { 1 } else { 3 };
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut off = Tracer::off();
    let mut tracer = Tracer::recording(Instant::now(), 0);
    let mut layer = Json::obj();

    let inputs = setup(w, cfg.seed)?;
    let filtered = inputs.reference.len() as u64;
    report.set("setup_s", inputs.setup_s);
    report.set("n_raw", inputs.raw.len() as u64);
    report.set("filtered", filtered);

    // Pack. The first pass (the warm-up) writes the store the scans
    // replay and the server serves; timed passes write a root of their
    // own, fresh each time, while that one stays open.
    let root = tmp.join("store");
    let pack_root = tmp.join("pack");
    let mut bufs = Bufs::default();
    let mut last: Option<StoreStats> = None;
    let mut pack = |tr: &mut Tracer, op: u64, root: &Path| -> Result<f64, String> {
        let (secs, stats) = pack_pass(w, &inputs.raw, root, &mut bufs, tr, op)?;
        if stats.count != filtered {
            return Err(format!(
                "packed {} values, filter passes {filtered}",
                stats.count
            ));
        }
        if stats.engine.is_some() != (w.threads > 1) {
            return Err("StoreStats.engine does not match the thread count".into());
        }
        if let Some(prev) = &last {
            if prev.compressed_bytes != stats.compressed_bytes {
                return Err(format!(
                    "store is {} bytes, previous pass wrote {}",
                    stats.compressed_bytes, prev.compressed_bytes
                ));
            }
        }
        last = Some(stats);
        Ok(secs)
    };
    tally
        .record("pack pass", pack(&mut off, 0, &root))
        .ok_or("the first pack pass failed")?;

    // Scan: replays of the store the first pack pass wrote.
    let mut lossy_sum = None;
    let mut scan =
        |tr: &mut Tracer, op: u64| checked_scan(w, &inputs, &root, tr, op, &mut lossy_sum);
    tally
        .record("scan pass", scan(&mut off, 0))
        .ok_or("the first scan pass failed")?;

    // Serve: the same store, behind a server that stays up while the
    // three phases take turns.
    let expect = if w.lossy {
        let shards = StoreReader::open(&root)
            .map_err(|e| e.to_string())?
            .into_shards();
        let mut sums = Vec::new();
        for mut shard in shards {
            let values = shard.decode_all().map_err(|e| e.to_string())?;
            sums.push((values.len(), checksum(&values)));
        }
        Expect::Shards(sums)
    } else {
        Expect::Reference(&inputs.reference)
    };
    let job = ServeJob {
        w,
        root: &root,
        expect,
        count: filtered,
        seed: cfg.seed,
        first_lane: cfg.child * w.clients as u64,
        quick: cfg.budget == Budget::Quick,
    };
    let mut serving = Serving::start(&job, tally, &tracer)?;
    let serve_rounds = SERVE_MIN_OPS.div_ceil(serving.round_ops());

    let mut phases = [
        Phase {
            seconds: seconds * PHASE_SPLIT[0],
            min_passes: 2,
            pass: &mut |tally, op| {
                tally.record("pack pass", pack(&mut Tracer::off(), op, &pack_root))
            },
            secs: Vec::new(),
        },
        Phase {
            seconds: seconds * PHASE_SPLIT[1],
            min_passes: 2,
            pass: &mut |tally, op| tally.record("scan pass", scan(&mut Tracer::off(), op)),
            secs: Vec::new(),
        },
        Phase {
            seconds: seconds * PHASE_SPLIT[2],
            min_passes: serve_rounds,
            pass: &mut |tally, _| serving.round(tally, false),
            secs: Vec::new(),
        },
    ];
    interleaved_passes(cfg.budget, tally, &mut phases);
    let [pack_s, scan_s, _] = phases.map(|p| p.secs);
    report.set("pack_s", pack_s);
    report.set("scan_s", scan_s);

    // Traced passes alternate with untraced twins, so the overhead
    // figure compares passes that saw the same machine state.
    let (mut pack_traced, mut pack_twin) = (Vec::new(), Vec::new());
    let (mut scan_traced, mut scan_twin) = (Vec::new(), Vec::new());
    let served = if cfg.trace {
        for op in 0..traced_passes {
            pack_twin.extend(tally.record("pack pass", pack(&mut off, op, &pack_root)));
            pack_traced.extend(tally.record("traced pack pass", pack(&mut tracer, op, &pack_root)));
        }
        for op in 0..traced_passes {
            scan_twin.extend(tally.record("scan pass", scan(&mut off, op)));
            scan_traced.extend(tally.record("traced scan pass", scan(&mut tracer, op)));
        }
        let phase = tracer.enter("serve.phase", 0);
        for _ in 0..traced_passes {
            serving.round(tally, true);
        }
        let served = serving.finish(&mut tracer);
        tracer.exit(phase);
        served
    } else {
        serving.finish(&mut off)
    }?;
    let stats = last.ok_or("no pack pass succeeded")?;
    report.set("bits_per_address", stats.bits_per_address());
    report.set("serve_ms", served.lat_ms.clone());
    report.set("serve_round_mvalues_s", served.round_mvalues_s.clone());

    if !cfg.trace {
        return Ok(());
    }

    // Per-layer metrics: spans of the traced passes, counters the
    // layers already keep, then the stage replay.
    let n_raw = inputs.raw.len() as f64;
    let n = filtered as f64;
    let passes = pack_traced.len().max(1) as f64;
    let per_pass = |name: &str| tracer.total_s(name) / passes;
    layer.set(
        "trace.generate_ns_per_addr",
        inputs.generate_s * 1e9 / n_raw,
    );
    layer.set(
        "cache.filter_ns_per_raw_addr",
        inputs.filter_s * 1e9 / n_raw,
    );
    layer.set("cache.filter_survival_ratio", n / n_raw);
    layer.set(
        "cache.filter_pack_share",
        per_pass("cache.filter_batch") / per_pass("pack.pass"),
    );
    let cache = served.server.cache;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    layer.set("cache.segment_hit_ratio", cache.hits as f64 / lookups);
    layer.set("cache.segment_evictions", cache.evictions);
    let intervals: u64 = stats.shards.iter().map(|s| s.intervals).sum();
    let imitations: u64 = stats.shards.iter().map(|s| s.imitations).sum();
    layer.set(
        "core.lossy_imitation_share",
        imitations as f64 / intervals.max(1) as f64,
    );
    let engine = stats.engine.unwrap_or_default();
    layer.set("engine.submitted", engine.submitted);
    layer.set("engine.tasks_run", engine.tasks_run);
    layer.set("engine.steals", engine.steals);
    layer.set(
        "engine.scratch_reused_share",
        engine.scratch_reused as f64 / (engine.scratch_reused + engine.scratch_fresh).max(1) as f64,
    );
    let store_pack =
        per_pass("store.create") + per_pass("store.code_all") + per_pass("store.finish");
    layer.set("store.pack_ns_per_addr", store_pack * 1e9 / n);
    let scans = scan_traced.len().max(1) as f64;
    layer.set("store.open_us", tracer.total_s("store.open") / scans * 1e6);
    layer.set(
        "store.scan_ns_per_addr",
        tracer.total_s("store.decode_all") / scans * 1e9 / n,
    );
    let local_us = tally
        .record("local serve ops", local_ops_us(&job))
        .unwrap_or(0.0);
    layer.set("store.read_range_local_us", local_us);
    let manifest = StoreReader::open(&root)
        .map_err(|e| e.to_string())?
        .manifest()
        .clone();
    layer.set(
        "store.interleave_runs",
        manifest.interleave.map_or(0, |t| t.runs().len()) as u64,
    );
    layer.set(
        "store.peak_buffered_bytes",
        stats.peak_buffered_bytes.unwrap_or(0),
    );
    layer.set("io.store_bytes", stats.compressed_bytes);
    layer.set("net.connect_us", median(&served.connect_us));
    layer.set("net.stat_rtt_us", median(&served.stat_us));
    layer.set(
        "net.range_overhead_us",
        median(&served.lat_ms) * 1e3 - local_us,
    );
    layer.set("net.serve_op_p90_ms", percentile(&served.lat_ms, 90.0));
    layer.set("net.server_requests", served.server.requests);
    layer.set("net.proto_errors", served.server.proto_errors);
    layer.set("net.dropped", served.server.dropped);
    let untraced = median(&pack_twin) + median(&scan_twin);
    layer.set(
        "trace_overhead_pct",
        (median(&pack_traced) + median(&scan_traced) - untraced) / untraced * 100.0,
    );
    if let Some(stages) = tally.record(
        "stage replay",
        stage_replay(w, &inputs.reference, &tmp.join("replay")),
    ) {
        for (name, value) in stages {
            layer.set(name, value);
        }
    }
    report.set("layer", layer);

    let path = cfg.out.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, format!("{}\n", tracer.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}
