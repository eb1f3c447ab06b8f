//! Shared L1 cache-filter front end for the ingest CLIs (`bin2atc`,
//! `atcstore pack`), included via `#[path]`.
//!
//! With `--filter`, stdin's raw 64-bit byte addresses are run through
//! the paper's 32 KB 4-way L1 geometry (§4.2) before compression, so
//! the written trace contains only the cache-filtered block addresses —
//! the exact streams ATC was designed for.

use std::error::Error;
use std::io::Read;

use atc::cache::CacheFilter;
use atc::trace::Access;

/// Values per ingest block: big enough to amortize the batch dispatch,
/// small enough to stay cache-friendly.
const BLOCK_VALUES: usize = 1 << 16;

/// Parsed `--filter*` flags.
pub struct FilterOptions {
    /// Whether filtering is enabled at all.
    pub enabled: bool,
    /// Emit tagged write-back records after the misses that caused them.
    pub writebacks: bool,
}

impl FilterOptions {
    /// Reads `--filter` and `--filter-writebacks` from the raw argument
    /// list; `--filter-writebacks` implies `--filter` on its own.
    pub fn parse(args: &[String]) -> Self {
        let writebacks = args.iter().any(|a| a == "--filter-writebacks");
        let enabled = writebacks || args.iter().any(|a| a == "--filter");
        Self {
            enabled,
            writebacks,
        }
    }
}

/// Streams stdin through the configured L1 filter in
/// [`BLOCK_VALUES`]-value blocks, handing each block of surviving trace
/// records (block addresses, plus tagged write-backs when enabled) to
/// `sink`. Trailing bytes that do not fill a full 64-bit value are
/// dropped, matching the unfiltered ingest loops. Prints filter
/// statistics to stderr when done.
pub fn run<F>(opts: &FilterOptions, mut sink: F) -> Result<(), Box<dyn Error>>
where
    F: FnMut(&[u64]) -> Result<(), Box<dyn Error>>,
{
    let mut front = if opts.writebacks {
        CacheFilter::paper_with_writebacks()
    } else {
        CacheFilter::paper()
    };
    let mut stdin = std::io::stdin().lock();
    let mut bytes = vec![0u8; BLOCK_VALUES * 8];
    let mut accesses = Vec::with_capacity(BLOCK_VALUES);
    let mut out = Vec::with_capacity(BLOCK_VALUES);
    loop {
        let n = read_block(&mut stdin, &mut bytes)?;
        if n < 8 {
            break;
        }
        accesses.clear();
        accesses.extend(bytes[..n - n % 8].chunks_exact(8).map(|c| {
            // Raw ingest carries no instruction/data split: treat every
            // value as a data read, the conservative choice (one shared
            // D-side geometry, no spurious write-back traffic).
            Access::read(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        }));
        out.clear();
        front.filter_batch(&accesses, &mut out);
        sink(&out)?;
        if n < bytes.len() {
            break;
        }
    }
    eprintln!(
        "filter: {} accesses -> {} misses ({:.4} miss ratio), {} write-backs",
        front.accesses(),
        front.misses(),
        front.miss_ratio(),
        front.writebacks()
    );
    Ok(())
}

/// Fills `buf` from `r` as far as possible; short counts mean EOF.
fn read_block<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}
