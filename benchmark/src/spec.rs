//! The four workloads and the metric names, in one place.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds for the driver; `tests/quick.rs` asserts the
//! two stay identical.

use atc_core::{LossyConfig, Mode};
use atc_store::ShardPolicy;

/// Values per ingest block, as in `examples/cli_util/filter.rs`.
pub const BLOCK_VALUES: usize = 1 << 16;

/// Values per served range.
pub const RANGE_VALUES: u64 = 1 << 16;

/// Bytesort buffer (lossless) and lossy interval length, in addresses.
pub const BUFFER: usize = 100_000;

/// Timed seconds of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Share of a child's timed seconds given to pack, scan and serve.
/// Serve gets the most: its ops differ in cost (hot, cold, per shard),
/// so its figures need the most samples to settle.
pub const PHASE_SPLIT: [f64; 3] = [0.30, 0.20, 0.50];

/// Bytes of the server's isolated segment cache (a quarter of the
/// issue's 16 MiB, like the traces; see README, "Sizes").
pub const SEGMENT_CACHE_BYTES: u64 = 4 << 20;

/// Seed of the trace `bits_per_address` is reported on, whatever
/// `--seed` is: compression of one fixed trace repeats exactly, so the
/// metric can carry a 0.1 % bound.
pub const REFERENCE_SEED: u64 = 1;

/// Fresh child processes one run is split over (see README, "Noise").
pub const CHILDREN: usize = 3;

/// Untimed cycles of the serve op mix per child before the timed
/// rounds: enough to fill the segment cache with the hot set.
pub const SERVE_WARMUP_CYCLES: usize = 2;

/// Seconds a serve round lasts at least (it ends on the next whole
/// cycle of the op mix): about the length of a scan pass, so the three
/// phases take turns at the same grain.
pub const SERVE_ROUND_SECONDS: f64 = 0.25;

/// Fewest timed serve ops per child: with [`CHILDREN`] children a run
/// has ≥ 100 timed ops.
pub const SERVE_MIN_OPS: usize = 34;

/// What one serve-phase operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// `ReadRange` of [`RANGE_VALUES`]: four of every five ops start in
    /// the first tenth of the store (hot set fits the segment cache),
    /// the fifth starts anywhere (cold: must decode).
    RangeHotCold,
    /// `ReadRange` of [`RANGE_VALUES`] with starts uniform over the
    /// first `prefix` addresses (everything fits the segment cache).
    RangePrefix {
        /// Addresses the starts are drawn from.
        prefix: u64,
    },
    /// `StreamShard{shard, from: 0}` over the shards in rotation.
    StreamShards,
}

/// One workload: the inputs, the store configuration and the serve op.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name (cited by later issues).
    pub name: &'static str,
    /// One-line reason the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// `atc_trace::spec` profile the raw addresses come from.
    pub profile: &'static str,
    /// Raw byte addresses per pack pass.
    pub n_raw: usize,
    /// Whether the store is lossy (interval [`BUFFER`], ε 0.1).
    pub lossy: bool,
    /// Back-end codec name.
    pub codec: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Shard routing.
    pub policy: ShardPolicy,
    /// `AtcOptions.threads`, `ReadOptions.threads`; above 1 the pack
    /// pass also injects `Engine::new(threads)`.
    pub threads: usize,
    /// Closed-loop client connections in the serve phase.
    pub clients: usize,
    /// The serve op.
    pub serve: ServeOp,
    /// Bytes of the server's isolated segment cache
    /// ([`SEGMENT_CACHE_BYTES`], less at `--quick` size).
    pub segment_cache_bytes: u64,
}

/// The lossy mode's configuration: interval [`BUFFER`], ε 0.1.
pub fn lossy_config() -> LossyConfig {
    LossyConfig {
        interval_len: BUFFER,
        threshold: 0.1,
        ..LossyConfig::default()
    }
}

impl Workload {
    /// The store's compression mode.
    pub fn mode(&self) -> Mode {
        if self.lossy {
            Mode::Lossy(lossy_config())
        } else {
            Mode::Lossless
        }
    }

    /// The same workload at `--quick` size: `n_raw` ÷ 8 and a
    /// proportionally smaller cache and serve prefix.
    pub fn quick(&self) -> Workload {
        let mut w = self.clone();
        w.n_raw /= 8;
        w.segment_cache_bytes /= 8;
        if let ServeOp::RangePrefix { prefix } = &mut w.serve {
            *prefix /= 8;
        }
        w
    }
}

/// The four workloads, in reporting order.
///
/// Sizes are a quarter of the issue's sizing probe (the lossy workload
/// a half, the segment cache a quarter of its 16 MiB) so that a whole
/// run — three child processes, each with its own set-up and warm-ups —
/// fits the driver's per-run time cap. See README, "Sizes".
pub fn workloads() -> Vec<Workload> {
    let mixed = Workload {
        name: "mixed_lossless_bzip",
        why: "paper default (482.sphinx3, lossless bzip, 2 rr shards): the block codec owns pack, scan and cold serves; filter <15% of pack",
        profile: "482.sphinx3",
        n_raw: 4 << 20,
        lossy: false,
        codec: "bzip",
        shards: 2,
        policy: ShardPolicy::RoundRobin,
        threads: 1,
        clients: 1,
        serve: ServeOp::RangeHotCold,
        segment_cache_bytes: SEGMENT_CACHE_BYTES,
    };
    let mixed_mt = Workload {
        name: "mixed_lossless_bzip_mt",
        why: "same data and bytes on disk with threads 2 and 2 clients: ParallelCodecWriter, ReadaheadReader and the engine replace the inline path",
        threads: 2,
        clients: 2,
        ..mixed.clone()
    };
    let stream = Workload {
        name: "stream_lossless_lz",
        why: "462.libquantum, cheap lz codec, addr-range shards: filter, bytesort, framing, track merge and seek_to dominate; BWT never runs; serve all cache hits",
        profile: "462.libquantum",
        n_raw: 12 << 20,
        lossy: false,
        codec: "lz",
        shards: 2,
        policy: ShardPolicy::AddressRange { shift: 14 },
        threads: 1,
        clients: 1,
        serve: ServeOp::RangePrefix { prefix: 256 << 10 },
        segment_cache_bytes: SEGMENT_CACHE_BYTES,
    };
    let lossy = Workload {
        name: "stationary_lossy_bzip",
        why: "429.mcf in lossy mode (~95% imitated intervals), 4 rr shards: histograms, classifier and filter own pack, chunk cache owns scan, bulk streaming owns serve",
        profile: "429.mcf",
        n_raw: 16 << 20,
        lossy: true,
        codec: "bzip",
        shards: 4,
        policy: ShardPolicy::RoundRobin,
        threads: 1,
        clients: 1,
        serve: ServeOp::StreamShards,
        segment_cache_bytes: SEGMENT_CACHE_BYTES,
    };
    vec![mixed, mixed_mt, stream, lossy]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// One metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics (untraced run). `serve_op_p90_ms` is not
/// among them: see README, "Why p90 is not bounded".
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("pack_raw_maddr_s", "Maddr/s"),
    m("scan_maddr_s", "Maddr/s"),
    m("serve_mvalues_s", "Mvalues/s"),
    m("serve_op_p50_ms", "ms"),
    m("bits_per_address", "bits/addr"),
    m("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (traced run), grouped by crate.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.generate_ns_per_addr", "ns/addr"),
    m("cache.filter_ns_per_raw_addr", "ns/addr"),
    m("cache.filter_survival_ratio", "ratio"),
    m("cache.filter_pack_share", "ratio"),
    m("cache.segment_hit_ratio", "ratio"),
    m("cache.segment_evictions", "count"),
    m("core.bytesort_fwd_ns_per_addr", "ns/addr"),
    m("core.bytesort_inv_ns_per_addr", "ns/addr"),
    m("core.hist_ns_per_addr", "ns/addr"),
    m("core.classify_ns_per_addr", "ns/addr"),
    m("core.lossy_imitation_share", "ratio"),
    m("core.writer_ns_per_addr", "ns/addr"),
    m("core.reader_frame_ns_per_addr", "ns/addr"),
    m("core.reader_value_ns_per_addr", "ns/addr"),
    m("core.frame_copied_bytes", "bytes"),
    m("codec.crc_ns_per_addr", "ns/addr"),
    m("codec.bwt_fwd_ns_per_addr", "ns/addr"),
    m("codec.mtf_enc_ns_per_addr", "ns/addr"),
    m("codec.rle_enc_ns_per_addr", "ns/addr"),
    m("codec.huffman_enc_ns_per_addr", "ns/addr"),
    m("codec.huffman_dec_ns_per_addr", "ns/addr"),
    m("codec.rle_dec_ns_per_addr", "ns/addr"),
    m("codec.mtf_dec_ns_per_addr", "ns/addr"),
    m("codec.bwt_inv_ns_per_addr", "ns/addr"),
    m("codec.compress_ns_per_addr", "ns/addr"),
    m("codec.decompress_ns_per_addr", "ns/addr"),
    m("codec.stage_coverage", "ratio"),
    m("codec.replay_matches", "count"),
    m("codec.framing_ns_per_addr", "ns/addr"),
    m("engine.submitted", "count"),
    m("engine.tasks_run", "count"),
    m("engine.steals", "count"),
    m("engine.scratch_reused_share", "ratio"),
    m("store.pack_ns_per_addr", "ns/addr"),
    m("store.open_us", "us"),
    m("store.scan_ns_per_addr", "ns/addr"),
    m("store.read_range_local_us", "us"),
    m("store.interleave_runs", "count"),
    m("store.peak_buffered_bytes", "bytes"),
    m("io.store_bytes", "bytes"),
    m("net.connect_us", "us"),
    m("net.stat_rtt_us", "us"),
    m("net.range_overhead_us", "us"),
    m("net.serve_op_p90_ms", "ms"),
    m("net.server_requests", "count"),
    m("net.proto_errors", "count"),
    m("net.dropped", "count"),
    m("trace_overhead_pct", "%"),
];
