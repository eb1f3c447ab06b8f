//! Process-wide decoded-frame cache for the random-access read path.
//!
//! `AtcReader::seek` and every range read land on a frame — the one
//! unit `next_frame()` hands out. Reaching a frame cold costs a segment
//! decode *and* a whole-frame bytesort inverse; when N concurrent readers
//! hammer the same hot trace (the access pattern of a trace-serving
//! daemon or SimPoint-style sampling), each would redo both over and
//! over. A shared [`SegmentCache`] keeps the finished frames, so a warm
//! read is a pointer clone followed by whatever copy its consumer makes.
//!
//! The name predates the unit: entries used to be decoded codec
//! segments (the *input* to the bytesort inverse). They are now decoded
//! frames, keyed by `(trace_id, frame_no)` — [`trace_id`] hashes the
//! canonicalized trace directory path, so two readers of the same
//! directory agree on the key while distinct traces never collide in
//! practice — and held behind an `Arc<[u64]>`, so a hit is a clone of a
//! pointer, not a copy of a frame.
//!
//! Capacity is bytes, not entries (a frame of `n` addresses charges
//! `8 × n`), accounted through the same [`ByteBudget`] the write
//! pipeline uses for its buffering gate: least-recently-used entries are
//! evicted until an insert fits, and an entry larger than the whole cap
//! bypasses the cache entirely (caching it would evict everything for
//! one reader's benefit). Hit, miss, and eviction counters — one lookup
//! per frame — are exposed for `atcstat`/`atcstore stat`/`atcd`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use atc_codec::ByteBudget;

/// Cache key: `(trace_id, frame_no)` (see [`trace_id`]).
pub type SegmentKey = (u64, u64);

/// Default byte capacity of the process-wide cache ([`SegmentCache::global`]).
pub const DEFAULT_SEGMENT_CACHE_BYTES: u64 = 256 << 20;

/// Counter snapshot of a [`SegmentCache`] (see [`SegmentCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCacheStats {
    /// Frame lookups served from the cache.
    pub hits: u64,
    /// Frame lookups that found nothing.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Bytes of decoded frames currently held (8 per address).
    pub bytes: u64,
    /// Configured byte capacity.
    pub cap: u64,
}

impl SegmentCacheStats {
    /// Counter deltas accumulated since `base` was snapshotted (gauges —
    /// `bytes`, `cap` — are taken from `self` as-is).
    ///
    /// This is how long-lived services report *their* cache traffic off
    /// a shared cache: snapshot at start, subtract on report. Counters
    /// are monotonic, but `saturating_sub` keeps a mismatched baseline
    /// (e.g. from a different cache instance) from panicking in debug
    /// builds.
    #[must_use]
    pub fn since(&self, base: &SegmentCacheStats) -> SegmentCacheStats {
        SegmentCacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            bytes: self.bytes,
            cap: self.cap,
        }
    }
}

/// A byte-budgeted, true-LRU cache of decoded frames shared by every
/// reader in the process (named for the segments it held before frames
/// became the read unit).
///
/// Thread-safe; lookups and inserts take one short mutex-protected pass
/// over an MRU-ordered list. The entry payload is `Arc<[u64]>`, so
/// readers keep using a frame after it is evicted — eviction only
/// releases the cache's byte accounting, the memory follows the last
/// reader.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use atc_cache::SegmentCache;
///
/// let cache = SegmentCache::new(1 << 20);
/// assert!(cache.get((7, 0)).is_none());
/// cache.insert((7, 0), Arc::from([1u64, 2, 3]));
/// assert_eq!(&cache.get((7, 0)).unwrap()[..], &[1, 2, 3]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.bytes), (1, 1, 24));
/// ```
#[derive(Debug)]
pub struct SegmentCache {
    budget: ByteBudget,
    /// `(key, decoded frame)`, least recently used first.
    entries: Mutex<Vec<(SegmentKey, Arc<[u64]>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// Creates a cache holding up to `cap_bytes` of decoded frames
    /// (clamped to at least 1).
    pub fn new(cap_bytes: u64) -> Self {
        Self {
            budget: ByteBudget::new(cap_bytes),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every reader shares by default
    /// ([`DEFAULT_SEGMENT_CACHE_BYTES`] capacity), created on first use.
    pub fn global() -> Arc<SegmentCache> {
        static GLOBAL: OnceLock<Arc<SegmentCache>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(SegmentCache::new(DEFAULT_SEGMENT_CACHE_BYTES))))
    }

    /// A private cache with its own counters, shaped for sharing
    /// (`Arc`-wrapped like [`SegmentCache::global`]).
    ///
    /// [`global`](SegmentCache::global)'s counters are process-wide: two
    /// tests (or a server and an unrelated reader) observing `stats()`
    /// see each other's traffic. Code that asserts on hit/miss counts —
    /// or a server that reports *its* cache efficiency — should own an
    /// isolated instance instead.
    pub fn isolated(cap_bytes: u64) -> Arc<SegmentCache> {
        Arc::new(SegmentCache::new(cap_bytes))
    }

    /// Looks up a decoded frame, refreshing its recency on a hit.
    pub fn get(&self, key: SegmentKey) -> Option<Arc<[u64]>> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                // Move to MRU (the end); the list is short enough that a
                // rotate beats a linked structure's pointer chasing.
                let entry = entries.remove(i);
                let frame = Arc::clone(&entry.1);
                entries.push(entry);
                drop(entries);
                // ordering: Relaxed — observability counter only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(frame)
            }
            None => {
                drop(entries);
                // ordering: Relaxed — observability counter only.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a decoded frame, charging 8 bytes per
    /// address and evicting from the LRU end until it fits. A frame
    /// larger than the whole capacity is not cached at all — admitting it
    /// would flush every other entry for a single reader's benefit.
    pub fn insert(&self, key: SegmentKey, frame: Arc<[u64]>) {
        if !self.admits(frame.len()) {
            return;
        }
        let len = charge(&frame);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            // Already cached (two readers raced on the same miss): keep
            // the incumbent frame, just refresh recency.
            let entry = entries.remove(i);
            entries.push(entry);
            return;
        }
        // Evict before acquiring so the (blocking) budget acquire is
        // always immediate: after this loop `in_use + len <= cap` holds.
        while self.budget.in_use() + len > self.budget.cap() {
            let (_, evicted) = entries.remove(0);
            self.budget.release(charge(&evicted));
            // ordering: Relaxed — observability counter only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.budget.acquire(len);
        entries.push((key, frame));
    }

    /// Whether [`SegmentCache::insert`] would keep a frame of `addresses`
    /// addresses (it bypasses frames larger than the whole capacity), so
    /// a reader can skip building the copy it would insert.
    pub fn admits(&self, addresses: usize) -> bool {
        (addresses as u64).saturating_mul(8) <= self.budget.cap()
    }

    /// Drops every entry (the counters survive; `bytes` returns to 0).
    pub fn clear(&self) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for (_, frame) in entries.drain(..) {
            self.budget.release(charge(&frame));
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SegmentCacheStats {
        SegmentCacheStats {
            // ordering: Relaxed — monotonic counters; a snapshot needs
            // no cross-counter consistency. (All three loads below.)
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.budget.in_use(),
            cap: self.budget.cap(),
        }
    }
}

/// Bytes a cached frame is charged against the budget.
fn charge(frame: &[u64]) -> u64 {
    frame.len() as u64 * 8
}

/// Stable identifier of a trace directory for [`SegmentKey`]s: an
/// FNV-1a hash of the canonicalized path (falling back to the path as
/// given when canonicalization fails, e.g. the directory vanished), so
/// every reader of one on-disk trace lands on the same id no matter how
/// its path was spelled.
pub fn trace_id(dir: &Path) -> u64 {
    let canonical = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in canonical.to_string_lossy().as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame of `n` addresses (charged `8 × n` bytes), all `fill`.
    fn frame(n: usize, fill: u64) -> Arc<[u64]> {
        vec![fill; n].into()
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = SegmentCache::new(8000);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), frame(400, 0xA));
        c.insert((1, 1), frame(400, 0xB));
        assert_eq!(c.get((1, 0)).unwrap().len(), 400);
        // (1,1) is now LRU; a 400-address insert must evict it, not (1,0).
        c.insert((1, 2), frame(400, 0xC));
        assert!(c.get((1, 1)).is_none(), "LRU entry evicted");
        assert!(c.get((1, 0)).is_some(), "recently used entry survives");
        assert!(c.get((1, 2)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 800 * 8, "8 bytes per cached address");
        assert_eq!(s.cap, 8000);
    }

    #[test]
    fn oversized_entries_bypass() {
        let c = SegmentCache::new(800);
        c.insert((0, 0), frame(50, 1));
        c.insert((0, 1), frame(101, 2)); // 808 bytes: larger than the cap
        assert!(c.get((0, 1)).is_none());
        assert!(c.admits(100) && !c.admits(101), "admits agrees with insert");
        assert!(c.get((0, 0)).is_some(), "bypass must not evict anything");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().bytes, 400);
        c.insert((0, 2), frame(50, 3)); // exactly fills the cap
        assert_eq!(c.stats().bytes, 800);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn duplicate_insert_keeps_incumbent_and_accounting() {
        let c = SegmentCache::new(8000);
        c.insert((3, 7), frame(100, 1));
        c.insert((3, 7), frame(100, 2)); // racing reader's copy
        assert_eq!(c.stats().bytes, 800, "one entry's bytes, not two");
        assert_eq!(c.get((3, 7)).unwrap()[0], 1, "first insert wins");
    }

    #[test]
    fn clear_releases_bytes() {
        let c = SegmentCache::new(8000);
        c.insert((0, 0), frame(600, 1));
        c.clear();
        assert_eq!(c.stats().bytes, 0);
        assert!(c.get((0, 0)).is_none());
        c.insert((0, 1), frame(900, 2)); // full capacity is available again
        assert_eq!(c.stats().bytes, 7200);
    }

    #[test]
    fn evicted_entries_stay_alive_for_holders() {
        let c = SegmentCache::new(800);
        c.insert((0, 0), frame(80, 7));
        let held = c.get((0, 0)).unwrap();
        c.insert((0, 1), frame(80, 8)); // evicts (0,0)
        assert!(c.get((0, 0)).is_none());
        assert_eq!(held.len(), 80, "the Arc keeps an evicted frame alive");
        assert!(held.iter().all(|&v| v == 7));
    }

    #[test]
    fn isolated_instances_do_not_share_counters() {
        let a = SegmentCache::isolated(1 << 20);
        let b = SegmentCache::isolated(1 << 20);
        a.insert((1, 0), frame(64, 1));
        assert!(a.get((1, 0)).is_some());
        assert!(b.get((1, 0)).is_none(), "no entry sharing");
        assert_eq!(a.stats().hits, 1);
        assert_eq!(b.stats().hits, 0, "no counter bleed");
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn stats_since_subtracts_counters_keeps_gauges() {
        let c = SegmentCache::isolated(1 << 20);
        c.insert((1, 0), frame(64, 1));
        c.get((1, 9));
        let base = c.stats();
        c.get((1, 0));
        c.get((1, 0));
        c.get((1, 7));
        let delta = c.stats().since(&base);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.evictions, 0);
        assert_eq!(delta.bytes, 512, "bytes is a gauge, not a delta");
        assert_eq!(delta.cap, 1 << 20);
        // A baseline from elsewhere saturates instead of underflowing.
        let skewed = SegmentCacheStats {
            hits: u64::MAX,
            ..base
        };
        assert_eq!(c.stats().since(&skewed).hits, 0);
    }

    #[test]
    fn trace_id_stable_across_spellings() {
        let dir = std::env::temp_dir().join(format!("atc-seg-id-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spelled = dir
            .parent()
            .unwrap()
            .join(format!("./{}", dir.file_name().unwrap().to_string_lossy()));
        assert_eq!(trace_id(&dir), trace_id(&spelled));
        assert_ne!(trace_id(&dir), trace_id(Path::new("/nonexistent/other")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(SegmentCache::new(1 << 20));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let key = (1, i % 8);
                        match c.get(key) {
                            Some(f) => assert_eq!(f.len(), 64),
                            None => c.insert(key, frame(64, t)),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.stats().bytes <= 8 * 64 * 8);
    }
}
