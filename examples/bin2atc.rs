//! `bin2atc` — the paper's Figure 6 program: read 64-bit values from stdin,
//! write an ATC-compressed trace directory.
//!
//! ```text
//! # lossy (the paper's 'k' mode, default) — Figure 8's demonstration:
//! head -c 8000000 /dev/urandom | cargo run --release --example bin2atc -- foobar
//!
//! # lossless ('c' mode):
//! cat trace.bin | cargo run --release --example bin2atc -- foobar --lossless
//!
//! # L1-filter the raw addresses first (the paper's trace collection,
//! # §4.2):
//! cat accesses.bin | cargo run --release --example bin2atc -- foobar \
//!     --lossless --filter
//! ```

use std::error::Error;
use std::io::Read;

use atc::core::{AtcOptions, AtcWriter, LossyConfig, Mode};

#[path = "cli_util/mod.rs"]
mod cli_util;
use cli_util::{positional, reject_unknown_flags};
#[path = "cli_util/filter.rs"]
mod cli_filter;
use cli_filter::FilterOptions;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_flags = ["--interval", "--buffer", "--codec", "--threads"];
    let bool_flags = ["--lossless", "--filter", "--filter-writebacks"];
    reject_unknown_flags(&args, &bool_flags, &value_flags)?;
    let dir = positional(&args, &value_flags).ok_or(
        "usage: bin2atc <dir> [--lossless] [--interval N] [--buffer N] [--codec NAME] \
             [--threads N] [--filter] [--filter-writebacks]",
    )?;
    let lossless = args.iter().any(|a| a == "--lossless");
    let get = |key: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let interval = get("--interval", 10_000_000); // the paper's L
    let buffer = get("--buffer", 1_000_000); // the paper's chunk B
    let threads = get("--threads", 1); // compression worker pool
    let codec = args
        .iter()
        .position(|a| a == "--codec")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "bzip".into());

    let mode = if lossless {
        Mode::Lossless
    } else {
        Mode::Lossy(LossyConfig {
            interval_len: interval,
            ..LossyConfig::default()
        })
    };
    let mut w = AtcWriter::with_options(
        dir,
        mode,
        AtcOptions {
            codec,
            buffer,
            threads,
        },
    )?;

    let filter = FilterOptions::parse(&args);
    if filter.enabled {
        // Filtered ingest: stdin values are raw byte addresses; only the
        // L1-missing block addresses reach the compressor, in blocks.
        cli_filter::run(&filter, |values| {
            w.code_all(values.iter().copied()).map_err(Into::into)
        })?;
    } else {
        // The Figure 6 loop: fread 8 bytes at a time, atc_code each value.
        let mut stdin = std::io::stdin().lock();
        let mut buf = [0u8; 8];
        loop {
            match stdin.read_exact(&mut buf) {
                Ok(()) => w.code(u64::from_le_bytes(buf))?,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
        }
    }
    let stats = w.finish()?;
    eprintln!(
        "{} addresses -> {} bytes ({:.3} bits/address, {} chunks)",
        stats.count,
        stats.compressed_bytes,
        stats.bits_per_address(),
        stats.chunks
    );
    Ok(())
}
