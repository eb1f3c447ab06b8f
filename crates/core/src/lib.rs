//! # atc-core — the ATC address-trace compressor
//!
//! Implementation of the two contributions of Pierre Michaud's ISPASS 2009
//! paper *Online compression of cache-filtered address traces*, combined in
//! a streaming compressor with the original tool's four-call shape:
//!
//! * **Bytesort** ([`bytesort`]) — a reversible transformation on buffers
//!   of 64-bit addresses that exposes cross-region regularity to byte-level
//!   compressors (§4 of the paper).
//! * **Sorted byte-histograms** ([`hist`]) — interval signatures, the
//!   `D(A,B)` distance, and byte translations that defeat the
//!   myopic-interval problem (§5.1).
//! * **Lossy phase compression** ([`lossy`]) — single-pass online interval
//!   classification with a FIFO chunk table (§5.2).
//! * **The ATC container** ([`AtcWriter`] / [`AtcReader`], [`mod@format`]) —
//!   the directory format (chunk files + interval trace + header) with a
//!   pluggable byte-level back end from [`atc_codec`].
//!
//! # Examples
//!
//! Lossy-compress a trace whose intervals repeat (the paper's Figure 8
//! scenario — a stationary trace collapses to one chunk):
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use atc_core::{AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode};
//!
//! let dir = std::env::temp_dir().join("atc-lib-doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let cfg = LossyConfig { interval_len: 1000, ..LossyConfig::default() };
//! let mut w = AtcWriter::with_options(&dir, Mode::Lossy(cfg), AtcOptions::default())?;
//! for lap in 0..10u64 {
//!     let _ = lap;
//!     for i in 0..1000u64 {
//!         w.code(0x4000_0000 + i * 64)?;
//!     }
//! }
//! let stats = w.finish()?;
//! assert_eq!(stats.chunks, 1);
//! assert_eq!(stats.imitations, 9);
//!
//! let mut r = AtcReader::open(&dir)?;
//! assert_eq!(r.decode_all()?.len(), 10_000);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bytesort;
mod error;
pub mod format;
pub mod hist;
pub mod lossy;
mod reader;
mod verify;
mod writer;

pub use error::{AtcError, Result};
pub use format::{FrameReadStats, StoreManifest};
pub use lossy::{Classification, LossyConfig, PhaseClassifier};
pub use reader::{AtcReader, ReadOptions};
pub use verify::{verify, VerifyReport};
pub use writer::{AtcOptions, AtcStats, AtcWriter, Mode};
