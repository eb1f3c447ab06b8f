//! Property-based pins for the filter front end.
//!
//! * **Batch boundaries are invisible** — `filter_batch` over any
//!   re-chunking of a stream and the iterator adapter produce the
//!   identical filtered trace, with and without write-back emission.
//! * **Per-set clocks replay the global clock** — LRU victim choice
//!   only compares stamps within one set, so replacing the old global
//!   access counter with per-set counters must be observationally
//!   invisible. Proved against an independent global-clock LRU model on
//!   adversarial streams that concentrate all traffic in a single set
//!   (where stamp arithmetic is exercised hardest).

use proptest::collection::vec;
use proptest::prelude::*;

use atc_cache::{Cache, CacheConfig, CacheFilter};
use atc_trace::Access;

/// Decodes a raw u64 into an access: low bits pick the address (within
/// a window small enough to produce real conflict misses on the tiny
/// test geometries), top bits pick the kind.
fn decode_access(raw: u64, span_blocks: u64) -> Access {
    let addr = (raw >> 8) % (span_blocks * 64);
    match raw % 4 {
        0 => Access::fetch(addr),
        1 | 2 => Access::read(addr),
        _ => Access::write(addr),
    }
}

/// An independent global-clock true-LRU model (one monotonic counter
/// across all sets, linear scans), deliberately written in the most
/// obvious way possible: the oracle the SoA cache's per-set clocks and
/// fused probe are judged against.
struct GlobalClockLru {
    sets: usize,
    ways: usize,
    /// `(tag, last_use, dirty)` per slot; `None` = invalid.
    slots: Vec<Option<(u64, u64, bool)>>,
    clock: u64,
}

impl GlobalClockLru {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            slots: vec![None; sets * ways],
            clock: 0,
        }
    }

    /// Returns `(hit, evicted dirty block)`.
    fn access(&mut self, block: u64, is_write: bool) -> (bool, Option<u64>) {
        self.clock += 1;
        let base = (block as usize & (self.sets - 1)) * self.ways;
        let set = &mut self.slots[base..base + self.ways];
        for (tag, stamp, dirty) in set.iter_mut().flatten() {
            if *tag == block {
                *stamp = self.clock;
                *dirty |= is_write;
                return (true, None);
            }
        }
        // First invalid way, else the way with the globally smallest
        // last-use stamp (first on ties, though stamps are unique).
        let victim = match set.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let mut best = 0;
                for (w, slot) in set.iter().enumerate() {
                    let stamp = slot.expect("no invalid ways").1;
                    if stamp < set[best].expect("no invalid ways").1 {
                        let _ = w;
                        best = w;
                    }
                }
                best
            }
        };
        let writeback = match set[victim] {
            Some((tag, _, true)) => Some(tag),
            _ => None,
        };
        set[victim] = Some((block, self.clock, is_write));
        (false, writeback)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 8 }))]

    /// The batched filter entry point and the iterator adapter are the
    /// same function: identical output for identical streams, wherever
    /// the batch boundaries fall.
    #[test]
    fn filter_batch_matches_iterator(
        raw in vec(any::<u64>(), 0..4000),
        batch in 1usize..3000,
    ) {
        let accesses: Vec<Access> =
            raw.iter().map(|&r| decode_access(r, 512)).collect();
        let cfg = CacheConfig { sets: 8, ways: 2, block_shift: 6 };
        for emit in [false, true] {
            let mut a = CacheFilter::new(cfg, cfg);
            a.set_emit_writebacks(emit);
            let want: Vec<u64> = a.filter(accesses.iter().copied()).collect();
            let mut b = CacheFilter::new(cfg, cfg);
            b.set_emit_writebacks(emit);
            let mut got = Vec::new();
            for chunk in accesses.chunks(batch) {
                b.filter_batch(chunk, &mut got);
            }
            prop_assert_eq!(&got, &want, "emit={} batch={}", emit, batch);
        }
    }

    /// Per-set stamps replay the global clock exactly on adversarial
    /// streams that force every access into one set (plus a trickle into
    /// a second set so cross-set clock skew exists at all): hits,
    /// victims, and write-backs must match the global-clock model
    /// access by access.
    #[test]
    fn per_set_clock_is_observationally_global(
        raw in vec(any::<u64>(), 1..5000),
        ways in 1usize..9,
    ) {
        let sets = 4usize;
        let cfg = CacheConfig { sets, ways, block_shift: 6 };
        let mut cache = Cache::new(cfg);
        let mut model = GlobalClockLru::new(sets, ways);
        for (i, &r) in raw.iter().enumerate() {
            // All blocks land in set 1, except every 13th which goes to
            // set 3 — the same-set stream LRU depends on, with enough
            // cross-set traffic to desynchronize a global counter from
            // any per-set one.
            let set = if r % 13 == 0 { 3u64 } else { 1 };
            let block = ((r >> 8) % (ways as u64 * 3)) * sets as u64 + set;
            let is_write = r & 1 == 1;
            let got = cache.access(block, is_write);
            let (hit, writeback) = model.access(block, is_write);
            prop_assert_eq!(got.hit, hit, "op {}: hit divergence", i);
            prop_assert_eq!(got.writeback, writeback, "op {}: victim divergence", i);
        }
    }
}
