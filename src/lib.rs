//! # ATC — Online compression of cache-filtered address traces
//!
//! A full Rust reproduction of Pierre Michaud's ISPASS 2009 paper
//! *Online compression of cache-filtered address traces*, including every
//! substrate the evaluation depends on. This facade crate re-exports the
//! workspace:
//!
//! * [`core`] (`atc-core`) — the paper's contribution: the **bytesort**
//!   reversible transformation, **sorted byte-histogram** phase analysis,
//!   and the streaming **ATC** lossless/lossy compressor with its on-disk
//!   directory format.
//! * [`codec`] (`atc-codec`) — byte-level back ends: a bzip2-class
//!   BWT+MTF+RLE+Huffman block codec, a gzip-class LZSS codec, bit I/O,
//!   CRC-32, varints.
//! * [`trace`] (`atc-trace`) — synthetic SPEC-like workload generators and
//!   raw trace I/O (the Pin/SPEC substitute).
//! * [`cache`] (`atc-cache`) — set-associative LRU caches, the L1 cache
//!   filter, and a Mattson stack simulator (the Cheetah substitute).
//! * [`tcgen`] (`atc-tcgen`) — a TCgen/VPC-class value-prediction
//!   compressor, the paper's lossless baseline.
//! * [`prefetch`] (`atc-prefetch`) — the C/DC GHB address predictor used to
//!   assess lossy fidelity.
//! * [`store`] (`atc-store`) — the sharded multi-trace store: N ATC trace
//!   directories under one root with pluggable shard routing and merged
//!   or per-shard read-back.
//! * [`engine`] (`atc-engine`) — the shared execution
//!   runtime every parallel layer (codec segments, readahead decode,
//!   lossy classification/chunks, all store shards) submits its tasks
//!   to.
//! * [`net`] (`atc-net`) — the trace service: the `atcd` daemon serving
//!   packed store roots to many clients over TCP, and the blocking
//!   client.
//!
//! # Quick start
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use atc::core::{AtcReader, AtcWriter, Mode};
//!
//! let dir = std::env::temp_dir().join("atc-doc-quickstart");
//! # let _ = std::fs::remove_dir_all(&dir);
//!
//! // Compress a little trace losslessly ('c' mode in the original tool).
//! let mut w = AtcWriter::create(&dir, Mode::Lossless)?;
//! for addr in 0..1000u64 {
//!     w.code(addr * 64)?;
//! }
//! w.finish()?;
//!
//! // Decompress it back.
//! let mut r = AtcReader::open(&dir)?;
//! let mut out = Vec::new();
//! while let Some(v) = r.decode()? {
//!     out.push(v);
//! }
//! assert_eq!(out, (0..1000u64).map(|a| a * 64).collect::<Vec<_>>());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

pub use atc_cache as cache;
pub use atc_codec as codec;
pub use atc_core as core;
pub use atc_engine as engine;
pub use atc_net as net;
pub use atc_prefetch as prefetch;
pub use atc_store as store;
pub use atc_tcgen as tcgen;
pub use atc_trace as trace;
