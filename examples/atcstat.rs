//! `atcstat` — inspect and verify an ATC trace directory.
//!
//! Prints the header, walks the whole container (every checksum, every
//! chunk reference), and reports size breakdown and compression ratio.
//! With `--threads N` (N > 1) it additionally drains the trace through
//! the parallel read pipeline on a private execution engine and reports
//! the engine/worker counters (`tasks run`, `scratch reuse`)
//! alongside the reader's `frame_stats()`.
//!
//! With `--seek FRAME` it becomes a random-access extractor instead:
//! seek to that frame — on a lossless trace through the seek sidecar
//! (decoding at most one segment before the target; linear fallback
//! with a warning on traces without a sidecar), on a lossy trace to that
//! interval (decoding at most its one chunk) — then dump the remaining
//! addresses as raw little-endian 64-bit values on stdout. Frame-cache
//! and decode counters go to stderr.
//!
//! ```text
//! cargo run --release --example atcstat -- foobar
//! cargo run --release --example atcstat -- foobar --threads 4
//! cargo run --release --example atcstat -- foobar --seek 42 > tail.bin
//! ```

use std::error::Error;
use std::io::Write;

use atc::cache::SegmentCache;
use atc::core::{verify, AtcReader, ReadOptions};
use atc::engine::Engine;

#[path = "cli_util/mod.rs"]
mod cli_util;
use cli_util::positional;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = positional(&args, &["--threads", "--seek"])
        .cloned()
        .ok_or("usage: atcstat <dir> [--threads N] [--seek FRAME]")?;
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let dir = std::path::PathBuf::from(dir);

    if let Some(i) = args.iter().position(|a| a == "--seek") {
        let frame: u64 = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or("--seek takes a frame number")?;
        let cache = SegmentCache::global();
        let mut r = AtcReader::open_with(
            &dir,
            ReadOptions {
                threads,
                segment_cache: Some(cache.clone()),
                ..ReadOptions::default()
            },
        )?;
        r.seek(frame)?;
        let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
        while let Some(frame) = r.next_frame()? {
            for v in frame {
                stdout.write_all(&v.to_le_bytes())?;
            }
        }
        stdout.flush()?;
        if let Some(decoded) = r.segments_decoded() {
            eprintln!("seek: frame {frame}, {decoded} segments decoded");
        }
        let s = cache.stats();
        eprintln!(
            "frame cache: {} frame hits, {} frame misses, {} evictions, {}/{} bytes",
            s.hits, s.misses, s.evictions, s.bytes, s.cap
        );
        return Ok(());
    }

    let meta_text = std::fs::read_to_string(dir.join("meta"))?;
    println!("header:");
    for line in meta_text.lines() {
        println!("  {line}");
    }

    let report = verify(&dir)?;
    println!("\nverification: OK");
    println!("  mode:       {}", report.mode);
    println!("  addresses:  {}", report.addresses);
    if report.mode == "lossy" {
        println!("  intervals:  {}", report.intervals);
        println!("  chunks:     {}", report.chunks);
        if !report.orphan_chunks.is_empty() {
            println!("  orphans:    {:?}", report.orphan_chunks);
        }
    }

    let mut total = 0u64;
    let mut files: Vec<(String, u64)> = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let len = entry.metadata()?.len();
            total += len;
            files.push((entry.file_name().to_string_lossy().into_owned(), len));
        }
    }
    files.sort();
    println!("\nfiles:");
    for (name, len) in &files {
        println!("  {len:>12} {name}");
    }
    println!("  {total:>12} total");
    if report.addresses > 0 {
        println!(
            "\n{:.3} bits per address ({:.1}x vs raw 64-bit values)",
            total as f64 * 8.0 / report.addresses as f64,
            report.addresses as f64 * 8.0 / total as f64
        );
    }

    if threads > 1 {
        // Drain the trace again through the parallel pipeline on a
        // private engine, so the counters below describe exactly this
        // trace (the process-wide engine would mix in other streams).
        let engine = Engine::new(threads);
        let start = std::time::Instant::now();
        let mut r = AtcReader::open_with(
            &dir,
            ReadOptions {
                threads,
                engine: Some(engine.clone()),
                ..ReadOptions::default()
            },
        )?;
        let mut frames = 0u64;
        while let Some(frame) = r.next_frame()? {
            let _ = frame;
            frames += 1;
        }
        let elapsed = start.elapsed();
        let fs = r.frame_stats();
        let es = engine.stats();
        println!(
            "\nthreaded drain ({threads} requested, {} engine workers, {elapsed:.2?}):",
            engine.workers()
        );
        println!("  frames:          {frames}");
        println!("  borrowed bytes:  {}", fs.borrowed_bytes);
        println!("  copied bytes:    {}", fs.copied_bytes);
        println!("engine:");
        println!("  tasks run:       {}", es.tasks_run);
        println!(
            "  scratch reuse:   {} reused / {} fresh",
            es.scratch_reused, es.scratch_fresh
        );
    }
    Ok(())
}
