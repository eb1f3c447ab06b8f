//! The sharded store writer.

use std::fs;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use atc_codec::{ByteBudget, DEFAULT_SEGMENT_SIZE, IN_FLIGHT_PER_WORKER};
use atc_core::format::{
    shard_dir_name, InterleaveTrack, StoreManifest, STORE_FORMAT_VERSION, STORE_MANIFEST_FILE,
};
use atc_core::{AtcError, AtcOptions, AtcStats, AtcWriter, Mode, Result};
use atc_engine::{Engine, EngineStats};

use crate::policy::ShardPolicy;

/// Tuning knobs for [`AtcStore::create`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Number of shard trace directories (must be at least 1).
    pub shards: usize,
    /// How addresses are routed across shards (recorded in the manifest,
    /// together with the interleave track that makes the merged read-back
    /// order-exact for the data-dependent policies).
    pub policy: ShardPolicy,
    /// Per-trace options (codec, bytesort buffer). `atc.threads` is the
    /// store's *total* compression parallelism: **all shard writers feed
    /// one shared engine** with that many workers, so a shard with
    /// nothing queued automatically donates its capacity to a busy one
    /// (no static per-shard split). Each shard writer keeps the full
    /// in-flight window; the engine's worker count is the actual
    /// concurrency cap.
    pub atc: AtcOptions,
    /// Cap on buffered pipeline bytes summed **across all shard
    /// writers** (raw lossless segments handed to the engine, queued
    /// lossy intervals). Per-writer windows alone compound to
    /// `shards × threads × 2` payloads; this shared gate keeps skewed
    /// routing — where one busy shard could otherwise fill every
    /// window — under one bound. `None` keeps exactly that compound
    /// bound as the default cap, so untouched configurations behave as
    /// before; the gate only changes behavior when set tighter. Ignored
    /// when `atc.threads <= 1` (inline writers buffer at most one
    /// payload each).
    pub max_buffered_bytes: Option<u64>,
}

impl Default for StoreOptions {
    /// One round-robin shard with [`AtcOptions::default`] — behaves like
    /// a plain [`AtcWriter`] wrapped in a store directory.
    fn default() -> Self {
        Self {
            shards: 1,
            policy: ShardPolicy::default(),
            atc: AtcOptions::default(),
            max_buffered_bytes: None,
        }
    }
}

/// Statistics returned by [`AtcStore::finish`].
#[derive(Debug, Clone)]
pub struct StoreStats {
    /// Addresses accepted across all shards.
    pub count: u64,
    /// Per-shard compression statistics, shard 0 first.
    pub shards: Vec<AtcStats>,
    /// Total size of the store (all shard directories + manifest).
    pub compressed_bytes: u64,
    /// Counters of the engine the shard writers fed (None when the store
    /// ran fully inline with `threads <= 1`).
    pub engine: Option<EngineStats>,
    /// High-water mark of pipeline bytes buffered across all shard
    /// writers, as seen by the shared byte-budget gate
    /// ([`StoreOptions::max_buffered_bytes`]; None when the store ran
    /// inline and no gate existed).
    pub peak_buffered_bytes: Option<u64>,
}

impl StoreStats {
    /// Average compressed bits per address across the whole store.
    pub fn bits_per_address(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 * 8.0 / self.count as f64
        }
    }
}

/// A sharded multi-trace store writer: one root directory holding `N`
/// complete ATC trace directories (`shard-000/`, `shard-001/`, …) plus a
/// `store-manifest` recording how the stream was routed.
///
/// Every shard is an ordinary trace — any shard directory opens with
/// [`atc_core::AtcReader`] — so the store composes with everything the
/// single-trace layer already does: lossless or lossy mode, any codec,
/// and the parallel write pipeline. All shard writers submit their
/// segment/classification/chunk tasks to **one shared engine** (created
/// from `atc.threads`, or injected via
/// [`AtcStore::create_with_engine`]), so the thread budget is pooled:
/// an idle shard's capacity is stolen by a busy one instead of sitting
/// behind a static per-shard split.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use atc_core::Mode;
/// use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};
///
/// let root = std::env::temp_dir().join("atc-store-doc");
/// # let _ = std::fs::remove_dir_all(&root);
/// let mut store = AtcStore::create(
///     &root,
///     Mode::Lossless,
///     StoreOptions { shards: 3, ..StoreOptions::default() },
/// )?;
/// store.code_all((0..1000u64).map(|i| i * 64))?;
/// let stats = store.finish()?;
/// assert_eq!(stats.count, 1000);
///
/// let mut r = StoreReader::open(&root)?;
/// assert_eq!(r.decode_all()?, (0..1000u64).map(|i| i * 64).collect::<Vec<_>>());
/// # std::fs::remove_dir_all(&root)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AtcStore {
    root: PathBuf,
    policy: ShardPolicy,
    writers: Vec<AtcWriter>,
    /// The engine every shard writer feeds (None = fully inline).
    engine: Option<Engine>,
    /// The shared byte-budget gate all shard writers draw from (None =
    /// fully inline, nothing buffered beyond one payload per writer).
    budget: Option<Arc<ByteBudget>>,
    /// Routing decisions as RLE runs — recorded only for the
    /// data-dependent policies; round-robin's rotation is synthesized by
    /// the reader, so recording it would cost one run per address for
    /// nothing.
    track: InterleaveTrack,
    /// Global arrival index of the next address.
    seq: u64,
}

impl AtcStore {
    /// Creates a store root with `options.shards` shard trace
    /// directories, all feeding one engine with `options.atc.threads`
    /// workers (the process-wide engine, grown to that count).
    ///
    /// # Errors
    ///
    /// Fails if `shards` is zero, the root already contains a store, or
    /// any shard writer cannot be created (same failure modes as
    /// [`AtcWriter::with_options`]).
    pub fn create<P: AsRef<Path>>(root: P, mode: Mode, options: StoreOptions) -> Result<Self> {
        let engine = (options.atc.threads > 1).then(|| Engine::global_with(options.atc.threads));
        Self::build(root, mode, options, engine)
    }

    /// Like [`AtcStore::create`], but every shard writer submits to the
    /// given `engine` — the injection point for tests that pin worker
    /// counts or read isolated counters.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcStore::create`].
    pub fn create_with_engine<P: AsRef<Path>>(
        root: P,
        mode: Mode,
        options: StoreOptions,
        engine: Engine,
    ) -> Result<Self> {
        Self::build(root, mode, options, Some(engine))
    }

    fn build<P: AsRef<Path>>(
        root: P,
        mode: Mode,
        options: StoreOptions,
        engine: Option<Engine>,
    ) -> Result<Self> {
        let StoreOptions {
            shards,
            policy,
            atc,
            max_buffered_bytes,
        } = options;
        if shards == 0 {
            return Err(AtcError::Format("store needs at least one shard".into()));
        }
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        if root.join(STORE_MANIFEST_FILE).exists() {
            return Err(AtcError::Format(format!(
                "directory {} already contains a store",
                root.display()
            )));
        }
        // No manifest but shard directories present means an interrupted
        // pack: silently reusing the root could leave stale shards from
        // the aborted run next to (or beyond) the new ones. Refuse, like
        // the single-trace writer refuses a populated trace directory.
        for entry in fs::read_dir(&root)? {
            let name = entry?.file_name();
            if name.to_string_lossy().starts_with("shard-") {
                return Err(AtcError::Format(format!(
                    "directory {} holds leftover shard directories (interrupted pack?); \
                     remove them or use a fresh root",
                    root.display()
                )));
            }
        }
        // One shared byte gate for every shard writer. The default cap is
        // exactly the old compound bound (shards × threads × 2 payloads,
        // where a payload is a raw segment in lossless mode and an
        // L-address interval in lossy mode), so stores that never set
        // `max_buffered_bytes` keep their previous buffering behavior —
        // the gate only bites when configured tighter.
        let budget = engine.as_ref().map(|_| {
            let payload = match &mode {
                Mode::Lossless => DEFAULT_SEGMENT_SIZE as u64,
                Mode::Lossy(cfg) => cfg.interval_len as u64 * 8,
            };
            let old_bound = shards as u64
                * atc.threads.max(1) as u64
                * IN_FLIGHT_PER_WORKER as u64
                * payload.max(1);
            Arc::new(ByteBudget::new(max_buffered_bytes.unwrap_or(old_bound)))
        });
        let writers = (0..shards)
            .map(|i| {
                let shard_options = AtcOptions {
                    codec: atc.codec.clone(),
                    buffer: atc.buffer,
                    threads: atc.threads,
                };
                let dir = root.join(shard_dir_name(i));
                match (&engine, &budget) {
                    // One engine and one byte budget for all shards: the
                    // whole thread budget is a shared pool, and so is the
                    // buffered-memory bound.
                    (Some(e), Some(b)) => AtcWriter::with_options_engine_budget(
                        dir,
                        mode.clone(),
                        shard_options,
                        e.clone(),
                        Arc::clone(b),
                    ),
                    (Some(e), None) => {
                        AtcWriter::with_options_engine(dir, mode.clone(), shard_options, e.clone())
                    }
                    (None, _) => AtcWriter::with_options(dir, mode.clone(), shard_options),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            root,
            policy,
            writers,
            engine,
            budget,
            track: InterleaveTrack::default(),
            seq: 0,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.writers.len()
    }

    /// The routing policy.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Addresses accepted so far.
    pub fn count(&self) -> u64 {
        self.seq
    }

    /// Counters of the shared engine the shard writers feed (None when
    /// the store runs fully inline).
    pub fn engine_stats(&self) -> Option<EngineStats> {
        self.engine.as_ref().map(Engine::stats)
    }

    /// Routes one address (stream key 0) to its shard and compresses it.
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec errors from the shard writer.
    pub fn code(&mut self, addr: u64) -> Result<()> {
        self.code_from(0, addr)
    }

    /// Routes one address carrying an explicit stream `key` (thread id,
    /// core id, …). Only [`ShardPolicy::ThreadId`] inspects the key; the
    /// other policies ignore it.
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec errors from the shard writer.
    pub fn code_from(&mut self, key: u64, addr: u64) -> Result<()> {
        let shard = self.policy.route(self.seq, key, addr, self.writers.len());
        self.writers[shard].code(addr)?;
        // Routing happens here, on the producer, in arrival order — the
        // engine's shard tasks may complete out of order but they never
        // decide routing, so the run record needs no synchronization.
        // Round-robin is skipped: its track is the derivable rotation,
        // and recording it would be one run per address.
        if !self.policy.merge_is_exact() {
            self.track.record(shard as u32);
        }
        self.seq += 1;
        Ok(())
    }

    /// Compresses every value from an iterator (stream key 0).
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`AtcStore::code`].
    pub fn code_all<I: IntoIterator<Item = u64>>(&mut self, values: I) -> Result<()> {
        for v in values {
            self.code(v)?;
        }
        Ok(())
    }

    /// Finishes every shard trace, writes the store manifest, and returns
    /// the aggregate statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first shard writer failure; the manifest is only
    /// written after every shard landed completely.
    pub fn finish(self) -> Result<StoreStats> {
        let mut shard_counts = Vec::with_capacity(self.writers.len());
        let mut shard_stats = Vec::with_capacity(self.writers.len());
        for w in self.writers {
            shard_counts.push(w.count());
            shard_stats.push(w.finish()?);
        }
        // Round-robin stores carry no recorded track (the reader
        // synthesizes the rotation); every other policy ships its RLE
        // interleave so any reader can replay the exact arrival order.
        let interleave = (!self.policy.merge_is_exact()).then_some(self.track);
        let manifest = StoreManifest {
            version: STORE_FORMAT_VERSION,
            policy: self.policy.to_name(),
            count: self.seq,
            shard_counts,
            interleave,
        };
        let manifest_text = manifest.to_text();
        fs::write(self.root.join(STORE_MANIFEST_FILE), &manifest_text)?;
        let compressed_bytes = shard_stats.iter().map(|s| s.compressed_bytes).sum::<u64>()
            + manifest_text.len() as u64;
        Ok(StoreStats {
            count: self.seq,
            shards: shard_stats,
            compressed_bytes,
            engine: self.engine.as_ref().map(Engine::stats),
            peak_buffered_bytes: self.budget.as_ref().map(|b| b.peak()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-store-w-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn creates_shard_layout_and_manifest() {
        let root = tmp("layout");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 3,
                policy: ShardPolicy::RoundRobin,
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 64,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        s.code_all(0..100u64).unwrap();
        let stats = s.finish().unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.shards.len(), 3);
        // Round-robin over 100 addresses: 34 + 33 + 33.
        assert_eq!(stats.shards[0].count, 34);
        assert_eq!(stats.shards[1].count, 33);
        assert_eq!(stats.shards[2].count, 33);
        assert!(stats.engine.is_none(), "inline store runs without engine");
        let manifest =
            StoreManifest::parse(&fs::read_to_string(root.join(STORE_MANIFEST_FILE)).unwrap())
                .unwrap();
        assert_eq!(manifest.policy, "round-robin");
        assert_eq!(manifest.shard_counts, vec![34, 33, 33]);
        for i in 0..3 {
            assert!(root.join(shard_dir_name(i)).join("meta").exists());
        }
        assert!(stats.bits_per_address() > 0.0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_zero_shards_and_double_create() {
        let root = tmp("guards");
        assert!(AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 0,
                ..StoreOptions::default()
            }
        )
        .is_err());
        let s = AtcStore::create(&root, Mode::Lossless, StoreOptions::default()).unwrap();
        s.finish().unwrap();
        assert!(AtcStore::create(&root, Mode::Lossless, StoreOptions::default()).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_leftover_shards_from_interrupted_pack() {
        // Shard directories but no manifest: an aborted pack. Re-packing
        // (possibly with fewer shards) must refuse rather than leave
        // stale shard dirs beside the new ones.
        let root = tmp("interrupted");
        fs::create_dir_all(root.join(shard_dir_name(2))).unwrap();
        assert!(AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                ..StoreOptions::default()
            }
        )
        .is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shared_engine_runs_all_shards() {
        // 5-worker engine over 2 shards: no static split — both writers
        // submit to the same pool and the output matches serial exactly
        // (pinned by the proptests; this exercises the path end to end).
        let root = tmp("budget");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                policy: ShardPolicy::RoundRobin,
                atc: AtcOptions {
                    codec: "bzip".into(),
                    buffer: 500,
                    threads: 5,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        s.code_all((0..10_000u64).map(|i| i * 64)).unwrap();
        let stats = s.finish().unwrap();
        assert_eq!(stats.count, 10_000);
        let engine = stats.engine.expect("threaded store reports engine stats");
        assert!(engine.submitted > 0, "segments must ride the engine");
        fs::remove_dir_all(&root).unwrap();
    }

    /// Capacity donation: with *every* address routed to shard 0
    /// (skewed addr-range routing) and one of the two engine workers
    /// parked on a gate, the other worker must run all of shard 0's
    /// segments — `finish()` returns while the gate is still shut.
    #[test]
    fn idle_shard_capacity_donated_to_busy_shard() {
        let root = tmp("donate");
        let engine = Engine::new(2);
        let (parked_tx, parked) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel::<()>();
        let gave_up = Arc::new(AtomicBool::new(false));
        {
            let gave_up = Arc::clone(&gave_up);
            engine.submit(move || {
                parked_tx.send(()).unwrap();
                // Returns once the test drops `gate`.
                let timeout = gate_rx.recv_timeout(Duration::from_secs(60));
                gave_up.store(
                    timeout == Err(mpsc::RecvTimeoutError::Timeout),
                    Ordering::Relaxed,
                );
            });
        }
        parked.recv().unwrap();
        let mut s = AtcStore::create_with_engine(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                // Shift 62: every realistic address lands in region 0 →
                // shard 0; shard 1 never sees a byte.
                policy: ShardPolicy::AddressRange { shift: 62 },
                atc: AtcOptions {
                    codec: "lz".into(),
                    buffer: 50_000,
                    threads: 2,
                },
                max_buffered_bytes: None,
            },
            engine.clone(),
        )
        .unwrap();
        // 2 M addresses = 16 MiB raw = 16 one-MiB segments, all from
        // shard 0, all run by the one worker that is not parked.
        s.code_all((0..2_000_000u64).map(|i| (i % 50_000) * 64))
            .unwrap();
        let stats = s.finish().unwrap();
        assert!(
            !gave_up.load(Ordering::Relaxed),
            "finish() returned only after the gate gave up"
        );
        drop(gate);
        assert_eq!(stats.shards[0].count, 2_000_000, "routing must be skewed");
        assert_eq!(stats.shards[1].count, 0);
        let engine_stats = stats.engine.expect("engine stats present");
        assert!(
            engine_stats.tasks_run > 16,
            "the free worker must run every segment (tasks_run={})",
            engine_stats.tasks_run
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn data_dependent_policies_record_interleave_track() {
        let root = tmp("track");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                policy: ShardPolicy::AddressRange { shift: 8 },
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 64,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        // 3 addresses in region 0, then 2 in region 1, then 1 in region 0.
        for addr in [0u64, 8, 16, 0x100, 0x108, 24] {
            s.code(addr).unwrap();
        }
        s.finish().unwrap();
        let manifest =
            StoreManifest::parse(&fs::read_to_string(root.join(STORE_MANIFEST_FILE)).unwrap())
                .unwrap();
        assert_eq!(manifest.version, STORE_FORMAT_VERSION);
        let track = manifest.interleave.expect("addr-range records the track");
        assert_eq!(track.runs(), &[(0, 3), (1, 2), (0, 1)]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn round_robin_needs_no_recorded_track() {
        let root = tmp("rr-no-track");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 3,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        s.code_all(0..100u64).unwrap();
        s.finish().unwrap();
        let text = fs::read_to_string(root.join(STORE_MANIFEST_FILE)).unwrap();
        assert!(
            !text.contains("interleave="),
            "rotation is synthesized, not recorded: {text}"
        );
        assert_eq!(StoreManifest::parse(&text).unwrap().interleave, None);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The shared byte-budget pin: with every address routed to shard 0
    /// and a cap of two segments, the busy shard would happily queue its
    /// whole window (2 threads × 2 = 4 MiB-segments) — the gate must hold
    /// the store-wide high-water mark at the configured cap instead.
    #[test]
    fn byte_budget_caps_buffered_bytes_under_skewed_routing() {
        let root = tmp("budget-cap");
        let cap = 2 * atc_codec::DEFAULT_SEGMENT_SIZE as u64;
        let engine = Engine::new(2);
        let mut s = AtcStore::create_with_engine(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                // Shift 62: everything lands in shard 0.
                policy: ShardPolicy::AddressRange { shift: 62 },
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 100_000,
                    threads: 2,
                },
                max_buffered_bytes: Some(cap),
            },
            engine,
        )
        .unwrap();
        // 1 M addresses = 8 MiB raw = 8 one-MiB segments through a 2 MiB
        // budget.
        s.code_all((0..1_000_000u64).map(|i| i * 64)).unwrap();
        let stats = s.finish().unwrap();
        assert_eq!(stats.shards[0].count, 1_000_000, "routing must be skewed");
        let peak = stats.peak_buffered_bytes.expect("threaded store is gated");
        assert!(
            peak <= cap,
            "peak buffered bytes {peak} exceed the configured cap {cap}"
        );
        assert!(peak > 0, "the gate must actually have admitted segments");
        // The store still reads back exactly.
        let mut r = crate::StoreReader::open(&root).unwrap();
        assert_eq!(r.decode_all().unwrap().len(), 1_000_000);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn thread_id_policy_splits_by_key() {
        let root = tmp("tid");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards: 2,
                policy: ShardPolicy::ThreadId,
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 64,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        for i in 0..60u64 {
            s.code_from(i % 3, 0x1000 + i).unwrap();
        }
        let stats = s.finish().unwrap();
        // Keys 0 and 2 land in shard 0 (40 addresses), key 1 in shard 1.
        assert_eq!(stats.shards[0].count, 40);
        assert_eq!(stats.shards[1].count, 20);
        fs::remove_dir_all(&root).unwrap();
    }
}
