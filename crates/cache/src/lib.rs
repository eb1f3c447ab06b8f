//! Cache substrate for the ATC reproduction.
//!
//! Three pieces, each standing in for a tool from the paper's workflow:
//!
//! * [`Cache`] / [`CacheConfig`] — a set-associative true-LRU cache (the
//!   paper's 32 KB 4-way L1 geometry is [`CacheConfig::paper_l1`]).
//! * [`CacheFilter`] — produces *cache-filtered* traces: the interleaved
//!   instruction/data block addresses that miss in L1, which are exactly
//!   the traces ATC compresses (§2, §4.2 of the paper).
//! * [`StackSim`] — a Mattson LRU stack-distance simulator giving the miss
//!   ratio of every associativity in one pass per set count; this replaces
//!   the Cheetah simulator used for Figure 3.
//! * [`SegmentCache`] — not a simulation subject but a *production*
//!   component: the process-wide, byte-budgeted LRU of decoded frames
//!   (its name predates the unit) that the random-access read path
//!   shares across concurrent readers of a hot trace.
//!
//! Every raw access goes through the filter front end before the codec
//! sees anything, so it has a batched fast path
//! ([`CacheFilter::filter_batch`]). It stays serial: at 5–11 ns per raw
//! address against a codec that costs ~40× more per surviving one, the
//! parallelism that pays is per codec segment, downstream. See
//! `docs/ARCHITECTURE.md`, "Filter front end".
//!
//! # Examples
//!
//! ```
//! use atc_cache::{filtered_trace, StackSim};
//! use atc_trace::spec;
//!
//! let p = spec::profile("462.libquantum").unwrap();
//! let trace = filtered_trace(p.workload(42), 10_000);
//!
//! let mut sim = StackSim::new(64, 8);
//! sim.run(trace.iter().copied());
//! let curve = sim.miss_curve();
//! assert_eq!(curve.len(), 8);
//! ```

#![warn(missing_docs)]

mod cache;
mod filter;
mod segment;
mod stack;

pub use cache::{AccessResult, Cache, CacheConfig};
pub use filter::{block_of, filtered_trace, is_writeback, CacheFilter, Filtered, WRITEBACK_BIT};
pub use segment::{
    trace_id, SegmentCache, SegmentCacheStats, SegmentKey, DEFAULT_SEGMENT_CACHE_BYTES,
};
pub use stack::StackSim;
