//! The sharded store reader: merged and per-shard cursors.

use std::path::{Path, PathBuf};

use atc_core::format::{shard_dir_name, StoreManifest, STORE_MANIFEST_FILE};
use atc_core::{AtcError, AtcReader, ReadOptions, Result};
use atc_engine::Engine;

use crate::policy::ShardPolicy;

/// One shard's decoded-but-unmerged values: a flat buffer plus a consume
/// cursor, so refills are single `extend_from_slice` copies of whole
/// frames and the zippers read plain slices (no deque bookkeeping per
/// value).
#[derive(Debug, Default)]
struct ShardBuf {
    vals: Vec<u64>,
    head: usize,
}

impl ShardBuf {
    fn is_empty(&self) -> bool {
        self.head == self.vals.len()
    }

    /// Values buffered and not yet consumed.
    fn available(&self) -> usize {
        self.vals.len() - self.head
    }

    /// Appends one decoded frame, reclaiming the buffer first if it was
    /// fully consumed (the steady state, so the buffer never grows past
    /// a frame plus the current leftover).
    fn push_frame(&mut self, frame: &[u64]) {
        if self.is_empty() {
            self.vals.clear();
            self.head = 0;
        }
        self.vals.extend_from_slice(frame);
    }
}

/// How the merged cursor reassembles the global stream (decided once at
/// open from the policy and the manifest's interleave section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMode {
    /// Round-robin: exact arrival order from the synthesized constant-run
    /// rotation — the degenerate interleave track that never needs to be
    /// recorded.
    Rotation,
    /// Replays a list of `(shard, run length)` runs: the manifest's
    /// recorded [`InterleaveTrack`](atc_core::format::InterleaveTrack)
    /// (exact arrival order; data-dependent policies, manifest version
    /// ≥ 2), or — for a version-1 manifest with no track — one synthesized
    /// run per shard, i.e. shard concatenation.
    Runs,
}

/// A reader over a store written by [`AtcStore`](crate::AtcStore).
///
/// Two read shapes:
///
/// * **Merged** ([`StoreReader::next_block`], and [`StoreReader::decode`]
///   / [`StoreReader::decode_all`] / [`StoreReader::read_range`] over it)
///   — one logical stream across all shards, replayed in the *exact*
///   original arrival order whenever the order is knowable: round-robin
///   derives it from the rotation, and every other policy replays the
///   manifest's recorded interleave track (manifest version ≥ 2). Only a
///   track-less old manifest under a data-dependent policy falls back to
///   shard *concatenation* (each shard's sub-stream stays exact, the
///   global interleaving is lost) — [`StoreReader::merge_is_exact`]
///   reports which shape this store gets.
/// * **Per-shard** ([`StoreReader::shard`] / [`StoreReader::into_shards`])
///   — direct access to each shard's [`AtcReader`] cursor, e.g. to fan
///   shards out to analysis threads.
///
/// Shard payloads refill through [`AtcReader::next_frame`], so the merged
/// cursor reads the decoded segment buffers in place (decoded ahead of
/// it when [`ReadOptions::threads`] > 1); every shard's decode tasks
/// share one engine (injected through [`ReadOptions::engine`], or the
/// process-wide default).
///
/// The merged cursor works a block at a time: it fills a flat merged
/// buffer in bulk — frame-sized stretches of the rotation for
/// round-robin, whole run slices otherwise — so the per-value cost of a
/// `decode()` loop is an indexed read.
#[derive(Debug)]
pub struct StoreReader {
    manifest: StoreManifest,
    policy: ShardPolicy,
    mode: MergeMode,
    /// Whether the merge replays the exact arrival order.
    exact: bool,
    shards: Vec<AtcReader>,
    /// Per-shard decoded values not yet merged out.
    bufs: Vec<ShardBuf>,
    /// The current merged block.
    merged: Vec<u64>,
    /// Values of `merged` already handed out.
    merged_pos: usize,
    /// Addresses merged so far (handed out, or waiting in `merged`).
    produced: u64,
    /// The `(shard, length)` runs [`MergeMode::Runs`] replays.
    runs: Vec<(u32, u64)>,
    /// Current run in `runs`.
    run_idx: usize,
    /// Values already replayed from the current run.
    run_off: u64,
    /// Whether the end-of-store drain check already passed.
    end_verified: bool,
}

impl StoreReader {
    /// Opens a store root with default [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreReader::open_with`].
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self> {
        Self::open_with(root, ReadOptions::default())
    }

    /// Opens a store root. `options.segment_cache` applies to every shard
    /// reader (lossless frames and lossy chunks alike; without one, each
    /// lossy shard keeps a private cache of eight intervals);
    /// `options.threads` is the store's *total* decompression
    /// parallelism: all shard readers submit their decode tasks to **one
    /// shared engine** with that many workers (injected through
    /// [`ReadOptions::engine`], or the process-wide default grown to
    /// `threads`), so a drained shard's capacity serves the shards still
    /// decoding instead of sitting behind a static per-shard split. With
    /// `threads <= 1` every shard reads serially and no pipeline spawns
    /// at all.
    ///
    /// # Errors
    ///
    /// Fails if the manifest is missing/malformed, names an unknown
    /// policy, or any shard trace fails to open.
    pub fn open_with<P: AsRef<Path>>(root: P, options: ReadOptions) -> Result<Self> {
        let root: PathBuf = root.as_ref().to_path_buf();
        let manifest_text =
            std::fs::read_to_string(root.join(STORE_MANIFEST_FILE)).map_err(|e| {
                AtcError::Format(format!(
                    "cannot read {}/{STORE_MANIFEST_FILE}: {e}",
                    root.display()
                ))
            })?;
        let manifest = StoreManifest::parse(&manifest_text)?;
        let policy = ShardPolicy::parse(&manifest.policy).ok_or_else(|| {
            AtcError::Format(format!("unknown shard policy {:?}", manifest.policy))
        })?;
        // One engine for every shard's decode tasks (None stays None for
        // the serial path, where no tasks are submitted at all).
        let engine = (options.threads > 1).then(|| {
            options
                .engine
                .clone()
                .unwrap_or_else(|| Engine::global_with(options.threads))
        });
        let shards = (0..manifest.shards())
            .map(|i| {
                AtcReader::open_with(
                    root.join(shard_dir_name(i)),
                    ReadOptions {
                        engine: engine.clone(),
                        ..options.clone()
                    },
                )
            })
            .collect::<Result<Vec<_>>>()?;
        // The manifest's per-shard counts must agree with what each shard
        // records about itself — a tampered manifest whose counts merely
        // sum correctly would otherwise make `stat` (and the merge
        // bookkeeping) report fabricated numbers.
        for (i, shard) in shards.iter().enumerate() {
            if shard.meta().count != manifest.shard_counts[i] {
                return Err(AtcError::Format(format!(
                    "manifest says shard {i} holds {} addresses, its trace says {}",
                    manifest.shard_counts[i],
                    shard.meta().count
                )));
            }
        }
        let bufs = shards.iter().map(|_| ShardBuf::default()).collect();
        // Merge-mode table (also in docs/ARCHITECTURE.md): round-robin is
        // always exact (synthesized rotation); other policies are exact
        // when the manifest recorded the interleave track, and fall back
        // to concatenation for old track-less manifests.
        let (mode, exact, runs) = if policy.merge_is_exact() {
            (MergeMode::Rotation, true, Vec::new())
        } else if let Some(track) = &manifest.interleave {
            // The track was validated against shard_counts at parse time,
            // and shard_counts against each shard's meta above, so every
            // run below names a real shard holding enough addresses.
            (MergeMode::Runs, true, track.runs().to_vec())
        } else {
            let whole_shards = manifest.shard_counts.iter().enumerate();
            let runs = whole_shards.map(|(i, &c)| (i as u32, c)).collect();
            (MergeMode::Runs, false, runs)
        };
        Ok(Self {
            manifest,
            policy,
            mode,
            exact,
            shards,
            bufs,
            merged: Vec::new(),
            merged_pos: 0,
            produced: 0,
            runs,
            run_idx: 0,
            run_off: 0,
            end_verified: false,
        })
    }

    /// Whether the merged cursor replays the exact global arrival order.
    /// `true` for round-robin and for any store whose manifest carries
    /// the interleave track; `false` only for track-less old manifests
    /// under `addr-range` / `thread-id`, which merge as shard
    /// concatenation.
    pub fn merge_is_exact(&self) -> bool {
        self.exact
    }

    /// The store manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The routing policy recorded in the manifest.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard cursor for shard `index`.
    ///
    /// Reading through it advances that shard; the merged cursor and the
    /// per-shard cursors share position, so use one shape per reader.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.shards()`.
    pub fn shard(&mut self, index: usize) -> &mut AtcReader {
        &mut self.shards[index]
    }

    /// Splits the store into its per-shard cursors (shard 0 first), e.g.
    /// to hand each shard to its own analysis thread.
    pub fn into_shards(self) -> Vec<AtcReader> {
        self.shards
    }

    /// Hands out the next block of the merged stream — the store's
    /// analogue of [`AtcReader::next_frame`] — as a borrowed slice, valid
    /// until the next call on this reader; `Ok(None)` at clean end of
    /// store. Blocks are never empty, their sizes are an implementation
    /// detail (roughly a frame), and after a partial
    /// [`StoreReader::decode`] the block is the rest of the current one.
    ///
    /// # Errors
    ///
    /// Propagates shard reader errors, and reports a store whose shards
    /// end before — or hold data beyond — the manifest's count.
    pub fn next_block(&mut self) -> Result<Option<&[u64]>> {
        if self.merged_pos == self.merged.len() && !self.refill_merged()? {
            return Ok(None);
        }
        let from = std::mem::replace(&mut self.merged_pos, self.merged.len());
        Ok(Some(&self.merged[from..]))
    }

    /// Decodes the next merged value; `Ok(None)` at clean end of store.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreReader::next_block`].
    pub fn decode(&mut self) -> Result<Option<u64>> {
        if self.merged_pos == self.merged.len() && !self.refill_merged()? {
            return Ok(None);
        }
        let v = self.merged[self.merged_pos];
        self.merged_pos += 1;
        Ok(Some(v))
    }

    /// Decodes the remainder of the merged stream into a vector.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`StoreReader::next_block`].
    pub fn decode_all(&mut self) -> Result<Vec<u64>> {
        let unread = (self.merged.len() - self.merged_pos) as u64;
        let left = self.manifest.count.saturating_sub(self.produced) + unread;
        let mut out = Vec::with_capacity(left.min(1 << 24) as usize);
        while let Some(block) = self.next_block()? {
            out.extend_from_slice(block);
        }
        Ok(out)
    }

    /// Repositions the merged cursor to global position `pos` (the next
    /// `decode` returns the store's `pos`-th address) without decoding
    /// the stream in front of it: the target is translated into a
    /// per-shard consumed count — a division for round-robin, a prefix
    /// walk over the runs otherwise — and each shard then seeks its own
    /// trace through [`AtcReader::seek_to_value`]: the sidecar fast path
    /// on a lossless shard (decoding at most one segment, plus the one
    /// frame holding the target), interval arithmetic on a lossy one
    /// (decoding at most the one chunk the target interval reads). The
    /// run cursor is restored mid-run, so replay continues
    /// exactly where the writer was.
    ///
    /// # Errors
    ///
    /// Fails on targets past the manifest count and on shard seek
    /// errors.
    pub fn seek_to(&mut self, pos: u64) -> Result<()> {
        if pos > self.manifest.count {
            return Err(AtcError::Format(format!(
                "seek target {pos} is past the store's {} addresses",
                self.manifest.count
            )));
        }
        let n = self.shards.len() as u64;
        let mut consumed = vec![0u64; self.shards.len()];
        let mut run_idx = 0usize;
        let mut run_off = 0u64;
        match self.mode {
            MergeMode::Rotation => {
                for (i, c) in consumed.iter_mut().enumerate() {
                    *c = pos / n + u64::from((i as u64) < pos % n);
                }
            }
            MergeMode::Runs => {
                let mut acc = 0u64;
                run_idx = self.runs.len();
                for (i, &(shard, len)) in self.runs.iter().enumerate() {
                    if acc + len <= pos {
                        consumed[shard as usize] += len;
                        acc += len;
                        continue;
                    }
                    consumed[shard as usize] += pos - acc;
                    run_idx = i;
                    run_off = pos - acc;
                    break;
                }
            }
        }
        for ((shard, buf), &at) in self.shards.iter_mut().zip(&mut self.bufs).zip(&consumed) {
            shard.seek_to_value(at)?;
            buf.vals.clear();
            buf.head = 0;
        }
        self.merged.clear();
        self.merged_pos = 0;
        self.run_idx = run_idx;
        self.run_off = run_off;
        self.produced = pos;
        self.end_verified = false;
        Ok(())
    }

    /// Reads the half-open global range `range` of the merged stream:
    /// [`StoreReader::seek_to`] the start, then take exactly
    /// `range.end - range.start` values, leaving the cursor at
    /// `range.end`. The result is byte-identical to that slice of a full
    /// linear [`StoreReader::decode_all`].
    ///
    /// # Errors
    ///
    /// Fails on inverted or out-of-bounds ranges and on anything
    /// [`StoreReader::seek_to`] / [`StoreReader::next_block`] can fail on.
    pub fn read_range(&mut self, range: std::ops::Range<u64>) -> Result<Vec<u64>> {
        if range.start > range.end || range.end > self.manifest.count {
            return Err(AtcError::Format(format!(
                "range {}..{} does not fit the store's {} addresses",
                range.start, range.end, self.manifest.count
            )));
        }
        self.seek_to(range.start)?;
        let want = (range.end - range.start) as usize;
        let mut out = Vec::with_capacity(want.min(1 << 24));
        while out.len() < want {
            let block = self.next_block()?.ok_or_else(|| {
                AtcError::Format(format!(
                    "store ended inside the range {}..{}",
                    range.start, range.end
                ))
            })?;
            let take = block.len().min(want - out.len());
            out.extend_from_slice(&block[..take]);
            // Hand the part of the block past the range back.
            self.merged_pos -= block.len() - take;
        }
        Ok(out)
    }

    /// Merges the next block into `merged`; `Ok(false)` once the
    /// manifest's count has been produced and every shard is drained.
    fn refill_merged(&mut self) -> Result<bool> {
        if self.produced == self.manifest.count {
            self.verify_drained()?;
            return Ok(false);
        }
        self.merged.clear();
        self.merged_pos = 0;
        match self.mode {
            MergeMode::Rotation => self.zip_rotation()?,
            MergeMode::Runs => self.zip_runs()?,
        }
        self.produced += self.merged.len() as u64;
        Ok(true)
    }

    /// Replays whole run slices into the flat merged buffer: each step
    /// bulk-copies `min(run remainder, shard buffer)` values, refilling a
    /// shard only when the merged buffer is still empty (so a value
    /// already decoded is never held hostage to another shard's I/O).
    fn zip_runs(&mut self) -> Result<()> {
        /// Merged values per block — frame-order magnitude, so the hot
        /// loop amortizes run bookkeeping the way the rotation zipper
        /// amortizes the modulo.
        const TARGET: usize = 4096;
        while self.merged.len() < TARGET {
            let Some(&(shard, len)) = self.runs.get(self.run_idx) else {
                break;
            };
            if self.run_off == len {
                self.run_idx += 1;
                self.run_off = 0;
                continue;
            }
            let shard = shard as usize;
            if self.bufs[shard].is_empty() {
                if !self.merged.is_empty() {
                    // Hand out what we already merged; the refill happens
                    // on the next call.
                    break;
                }
                self.refill_or_ended(shard)?;
            }
            let buf = &mut self.bufs[shard];
            let take = (len - self.run_off)
                .min((TARGET - self.merged.len()) as u64)
                .min(buf.available() as u64) as usize;
            self.merged
                .extend_from_slice(&buf.vals[buf.head..buf.head + take]);
            buf.head += take;
            self.run_off += take as u64;
        }
        if self.merged.is_empty() {
            // Unreachable for a validated track (run lengths sum to the
            // manifest count, and the caller checked addresses remain);
            // kept as a hard error rather than an index panic.
            return Err(AtcError::Format(format!(
                "interleave runs ended after {} of {} store addresses",
                self.produced, self.manifest.count
            )));
        }
        Ok(())
    }

    /// Zips the rotation (one value per shard, in shard order) into the
    /// flat merged buffer, as far as every shard's buffered values reach
    /// — frame-sized in the steady state — starting at whatever lane the
    /// cursor is on (a seek can land mid-rotation) and stopping at the
    /// manifest's count (the last rotation can be partial).
    fn zip_rotation(&mut self) -> Result<()> {
        let n = self.shards.len();
        let left = self.manifest.count - self.produced;
        let first = (self.produced % n as u64) as usize;
        // Lane j (the j-th value from here) reads shard `first + j`, then
        // every n-th value after it; only lanes below `left` are needed.
        let lanes = n.min(usize::try_from(left).unwrap_or(usize::MAX));
        let mut len = left;
        for lane in 0..lanes {
            let shard = (first + lane) % n;
            if self.bufs[shard].is_empty() {
                self.refill_or_ended(shard)?;
            }
            // `a` buffered values carry this lane through position
            // lane + (a - 1) * n, so the block may hold lane + a * n.
            let reach = lane as u64 + self.bufs[shard].available() as u64 * n as u64;
            len = len.min(reach);
        }
        // Every lane has a value buffered, so `len >= lanes`; and it fits
        // a usize because it is bounded by the buffered values.
        let len = len as usize;
        self.merged.resize(len, 0);
        // Strided transpose: each shard's slice is read sequentially and
        // scattered to its rotation lane in one pass.
        for lane in 0..lanes {
            let buf = &mut self.bufs[(first + lane) % n];
            let take = (len - lane).div_ceil(n);
            let mut idx = lane;
            for &v in &buf.vals[buf.head..buf.head + take] {
                self.merged[idx] = v;
                idx += n;
            }
            buf.head += take;
        }
        Ok(())
    }

    /// Confirms every shard is exactly drained once the manifest's count
    /// has been handed out: leftover data means the manifest undercounts
    /// (the mirror of the "ended early" checks), and silently dropping
    /// it would hide tampering or truncated-manifest bugs.
    fn verify_drained(&mut self) -> Result<()> {
        if self.end_verified {
            return Ok(());
        }
        for shard in 0..self.shards.len() {
            if !self.bufs[shard].is_empty() || self.refill(shard)? {
                return Err(AtcError::Format(format!(
                    "shard {shard} holds addresses beyond the manifest count {}",
                    self.manifest.count
                )));
            }
        }
        self.end_verified = true;
        Ok(())
    }

    /// Pulls the next frame of `shard` into its merge buffer; `Ok(false)`
    /// at that shard's clean end.
    fn refill(&mut self, shard: usize) -> Result<bool> {
        // Empty frames are legal in the format (never written by the
        // store): keep pulling so one never masquerades as end-of-shard.
        loop {
            match self.shards[shard].next_frame()? {
                Some(frame) => {
                    self.bufs[shard].push_frame(frame);
                    if !self.bufs[shard].is_empty() {
                        return Ok(true);
                    }
                }
                None => return Ok(false),
            }
        }
    }

    /// [`StoreReader::refill`] for a shard the merge still needs values
    /// from: its clean end is the store ending early.
    fn refill_or_ended(&mut self, shard: usize) -> Result<()> {
        if self.refill(shard)? {
            return Ok(());
        }
        Err(AtcError::Format(format!(
            "shard {shard} ended after {} of {} store addresses",
            self.produced, self.manifest.count
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{AtcStore, StoreOptions};
    use atc_core::{AtcOptions, LossyConfig, Mode};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-store-r-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(shards: usize, policy: ShardPolicy, threads: usize) -> StoreOptions {
        StoreOptions {
            shards,
            policy,
            atc: AtcOptions {
                codec: "bzip".into(),
                buffer: 500,
                threads,
            },
            max_buffered_bytes: None,
        }
    }

    /// Drains the merged stream through the per-value cursor
    /// (`decode_all` rides `next_block`).
    fn decode_each(r: &mut StoreReader) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(v) = r.decode().unwrap() {
            out.push(v);
        }
        out
    }

    #[test]
    fn round_robin_merged_read_is_exact() {
        // Counts leave `count % shards` in {0, 1, 2} — for 3 shards, 7000
        // and 7001 pin the zipper's partial last rotation at both widths
        // — and the tiny ones leave whole shards empty.
        for count in [1u64, 2, 7000, 7001] {
            let addrs: Vec<u64> = (0..count).map(|i| i.wrapping_mul(0x9E37)).collect();
            for shards in [1usize, 2, 3, 5] {
                let root = tmp(&format!("rr-{shards}-{count}"));
                let mut s = AtcStore::create(
                    &root,
                    Mode::Lossless,
                    opts(shards, ShardPolicy::RoundRobin, 1),
                )
                .unwrap();
                s.code_all(addrs.iter().copied()).unwrap();
                s.finish().unwrap();
                let mut r = StoreReader::open(&root).unwrap();
                assert_eq!(r.shards(), shards);
                assert_eq!(r.decode_all().unwrap(), addrs, "{shards}/{count}");
                assert_eq!(r.decode().unwrap(), None, "end is sticky");
                let mut by_value = StoreReader::open(&root).unwrap();
                assert_eq!(decode_each(&mut by_value), addrs, "{shards}/{count}");
                std::fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    #[test]
    fn next_block_interleaves_with_decode() {
        // k values through decode(), then blocks: the first block is the
        // rest of the current one and the sequence stays exact.
        let addrs: Vec<u64> = (0..5000u64).map(|i| i * 7).collect();
        let root = tmp("blocks");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::RoundRobin, 1)).unwrap();
        s.code_all(addrs.iter().copied()).unwrap();
        s.finish().unwrap();
        for k in [0usize, 1, 2, 499, 1500, 1501, 4999, 5000] {
            let mut r = StoreReader::open(&root).unwrap();
            let mut got = Vec::new();
            for _ in 0..k {
                got.push(r.decode().unwrap().unwrap());
            }
            while let Some(block) = r.next_block().unwrap() {
                assert!(!block.is_empty(), "k={k}");
                got.extend_from_slice(block);
            }
            assert_eq!(got, addrs, "k={k}");
            assert!(r.next_block().unwrap().is_none(), "end is sticky");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn addr_range_merged_read_replays_exact_interleave() {
        // Two regions interleaved; addr-range routing splits them apart,
        // and the recorded interleave track zips them back in the exact
        // arrival order — through both the block and the per-value cursor.
        let root = tmp("ar");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        let mut expect = Vec::new();
        for i in 0..2000u64 {
            let a = i * 8; // region 0
            let b = (1 << 16) + i * 8; // region 1
            s.code(a).unwrap();
            s.code(b).unwrap();
            expect.push(a);
            expect.push(b);
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.merge_is_exact(), "recorded track makes the merge exact");
        assert_eq!(r.decode_all().unwrap(), expect);
        assert_eq!(r.decode().unwrap(), None, "end is sticky");
        let mut by_value = StoreReader::open(&root).unwrap();
        assert_eq!(decode_each(&mut by_value), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn thread_id_merged_read_replays_exact_interleave() {
        let root = tmp("tid-exact");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        let mut expect = Vec::new();
        for i in 0..500u64 {
            // Bursty keys so runs have varied lengths.
            let key = (i / 7) % 5;
            let addr = 0x9000 + i * 8;
            s.code_from(key, addr).unwrap();
            expect.push(addr);
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.merge_is_exact());
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn old_manifest_without_track_reads_as_concatenation() {
        // Strip the interleave section and rewind the version — the
        // fixture for stores packed before the track existed. The reader
        // must fall back to shard concatenation (each shard exact, global
        // order lost) instead of refusing the store.
        let root = tmp("old-manifest");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for i in 0..1500u64 {
            let a = i * 8; // region 0 -> shard 0
            let b = (1 << 16) + i * 8; // region 1 -> shard 1
            s.code(a).unwrap();
            s.code(b).unwrap();
            lo.push(a);
            hi.push(b);
        }
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("interleave="), "new manifests carry a track");
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("interleave="))
            .map(|l| {
                if l.starts_with("version=") {
                    "version=1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        std::fs::write(&path, old).unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(!r.merge_is_exact(), "track-less store merges by shard");
        let mut expect = lo.clone();
        expect.extend(&hi);
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn per_shard_cursors_see_their_substreams() {
        let root = tmp("cursors");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        for i in 0..300u64 {
            s.code_from(i % 3, 0x4000 + i).unwrap();
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        for shard in 0..3 {
            let expect: Vec<u64> = (0..300u64)
                .filter(|i| i % 3 == shard)
                .map(|i| 0x4000 + i)
                .collect();
            assert_eq!(r.shard(shard as usize).decode_all().unwrap(), expect);
        }
        // into_shards hands out independent readers.
        let r2 = StoreReader::open(&root).unwrap();
        let mut shards = r2.into_shards();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].decode_all().unwrap().len(), 100);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn range_reads_match_linear_slices_for_every_policy() {
        // The acceptance shape: for each shard policy, read_range(A..B)
        // must be byte-identical to the same slice of the full linear
        // merged decode — including ranges starting mid-frame, mid-run,
        // and mid-rotation.
        let policies = [
            ("rr", ShardPolicy::RoundRobin),
            ("ar", ShardPolicy::AddressRange { shift: 14 }),
            ("tid", ShardPolicy::ThreadId),
        ];
        for (tag, policy) in policies {
            let root = tmp(&format!("range-{tag}"));
            let mut s = AtcStore::create(&root, Mode::Lossless, opts(3, policy, 1)).unwrap();
            for i in 0..20_000u64 {
                // Bursty keys and spread addresses so runs and ranges vary.
                s.code_from((i / 11) % 7, (i % 5) << 14 | (i * 8)).unwrap();
            }
            s.finish().unwrap();

            let mut linear = StoreReader::open(&root).unwrap();
            let expect = linear.decode_all().unwrap();

            let mut r = StoreReader::open(&root).unwrap();
            let count = expect.len() as u64;
            let ranges = [
                (0u64, 100u64),
                (1, 502),
                (777, 3003),
                (count / 2 - 1, count / 2 + 1777),
                (count - 499, count),
                (count, count),
            ];
            for (a, b) in ranges {
                let got = r.read_range(a..b).unwrap();
                assert_eq!(got, &expect[a as usize..b as usize], "{tag} range {a}..{b}");
            }
            // Ranges can revisit earlier positions (the reader re-seeks).
            assert_eq!(r.read_range(5..25).unwrap(), &expect[5..25], "{tag}");
            let inverted = std::ops::Range { start: 3, end: 1 };
            assert!(r.read_range(inverted).is_err(), "{tag} inverted range");
            assert!(r.read_range(0..count + 1).is_err(), "{tag} out of bounds");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn range_reads_work_on_trackless_concat_stores() {
        // Old-manifest fallback: strip the track, rewind the version, and
        // range-read the concatenation order.
        let root = tmp("range-concat");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        for i in 0..3000u64 {
            s.code(i * 8).unwrap();
            s.code((1 << 16) + i * 8).unwrap();
        }
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("interleave="))
            .map(|l| {
                if l.starts_with("version=") {
                    "version=1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        std::fs::write(&path, old).unwrap();

        let mut linear = StoreReader::open(&root).unwrap();
        let expect = linear.decode_all().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        for (a, b) in [(0u64, 64u64), (2999, 3001), (3100, 5500), (5999, 6000)] {
            assert_eq!(
                r.read_range(a..b).unwrap(),
                &expect[a as usize..b as usize],
                "range {a}..{b}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seek_to_then_decode_continues_to_end() {
        let root = tmp("seek-continue");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        for i in 0..9000u64 {
            s.code_from(i % 4, 0x1000 + i * 16).unwrap();
        }
        s.finish().unwrap();
        let mut linear = StoreReader::open(&root).unwrap();
        let expect = linear.decode_all().unwrap();

        let mut r = StoreReader::open(&root).unwrap();
        r.seek_to(4321).unwrap();
        let rest = r.decode_all().unwrap();
        assert_eq!(rest, &expect[4321..]);
        // Clean end after a seek still passes the drain check.
        assert_eq!(r.decode().unwrap(), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lossy_store_roundtrips_stationary_trace() {
        // Lossy shards: each shard sees a stationary sub-stream, so every
        // shard collapses to imitations — the store composes with the
        // paper's phase machinery unchanged.
        let root = tmp("lossy");
        let interval: Vec<u64> = (0..200u64).map(|i| i * 64).collect();
        let cfg = LossyConfig {
            interval_len: 200,
            ..LossyConfig::default()
        };
        let mut s = AtcStore::create(
            &root,
            Mode::Lossy(cfg),
            StoreOptions {
                shards: 2,
                policy: ShardPolicy::RoundRobin,
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 128,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        let mut expect = Vec::new();
        for _ in 0..8 {
            s.code_all(interval.iter().copied()).unwrap();
            expect.extend(&interval);
        }
        let stats = s.finish().unwrap();
        assert_eq!(stats.count, 1600);
        let mut r = StoreReader::open(&root).unwrap();
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_rejects_missing_or_bad_manifest() {
        assert!(StoreReader::open("/nonexistent/store/root").is_err());
        let root = tmp("badpolicy");
        let s = AtcStore::create(&root, Mode::Lossless, StoreOptions::default()).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("round-robin", "mystery")).unwrap();
        assert!(StoreReader::open(&root).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn undercounted_manifest_detected() {
        // Tamper the manifest to claim one *fewer* address per shard (sum
        // check still passes): open must reject the manifest/meta
        // disagreement rather than let the tail values be dropped.
        let root = tmp("undercount");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(2, ShardPolicy::RoundRobin, 1)).unwrap();
        s.code_all(0..10u64).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("count=10", "count=8")
                .replace("shard_counts=5,5", "shard_counts=4,4"),
        )
        .unwrap();
        assert!(StoreReader::open(&root).is_err());

        // Deeper tamper: shard metas adjusted to match the shrunken
        // manifest, so open's cross-check passes — the end-of-store drain
        // check must still refuse to silently drop the real tail data.
        for shard in 0..2 {
            let meta_path = root.join(shard_dir_name(shard)).join("meta");
            let meta_text = std::fs::read_to_string(&meta_path).unwrap();
            std::fs::write(&meta_path, meta_text.replace("count=5", "count=4")).unwrap();
        }
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_shard_detected() {
        // Tamper with the manifest to claim one more address than stored:
        // open must reject the manifest/meta disagreement.
        let root = tmp("truncated");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(2, ShardPolicy::RoundRobin, 1)).unwrap();
        s.code_all(0..10u64).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("count=10", "count=11")
                .replace("shard_counts=5,5", "shard_counts=6,5"),
        )
        .unwrap();
        assert!(StoreReader::open(&root).is_err());

        // Deeper tamper: shard 0's meta inflated to match, so open's
        // cross-check passes — the shard reader's own end-of-trace check
        // must still catch the shortfall mid-merge.
        let meta_path = root.join(shard_dir_name(0)).join("meta");
        let meta_text = std::fs::read_to_string(&meta_path).unwrap();
        std::fs::write(&meta_path, meta_text.replace("count=5", "count=6")).unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
