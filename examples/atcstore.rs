//! `atcstore` — the sharded-store CLI: the multi-trace analogue of
//! `bin2atc`/`atc2bin`.
//!
//! ```text
//! # shard 64-bit values from stdin across 4 round-robin shards, 4 threads:
//! atcstore pack store.atc --shards 4 --threads 4 --lossless < trace.bin
//!
//! # keep address regions shard-local instead:
//! atcstore pack store.atc --shards 4 --policy addr-range:22 --lossless < trace.bin
//!
//! # merged read-back (exact arrival order under every policy — the
//! # manifest's interleave track drives the merge; only track-less old
//! # manifests fall back to shard concatenation):
//! atcstore unpack store.atc --threads 4 > out.bin
//!
//! # one shard only:
//! atcstore unpack store.atc --shard 2 > shard2.bin
//!
//! # random access: global addresses A..B of the merged stream, without
//! # decoding the stream in front of them (per-shard seek sidecars +
//! # mid-run interleave replay; falls back to linear skip with a
//! # warning on legacy shards without sidecars):
//! atcstore read store.atc --range 1000000..1001000 > window.bin
//!
//! # manifest + per-shard summary (add --threads N for a verification
//! # drain with engine/worker counters):
//! atcstore stat store.atc --threads 4
//!
//! # the same random-access window, but served by a remote `atcd`
//! # daemon instead of a local directory (see `examples/atcd.rs`):
//! atcstore fetch --addr 127.0.0.1:9409 --range 1000000..1001000 > window.bin
//!
//! # one shard's sub-stream from value offset 5000 onward, remotely:
//! atcstore fetch --addr 127.0.0.1:9409 --shard 2 --from 5000 > tail.bin
//! ```
//!
//! `pack` and `unpack` with `--threads N` run their work on a private
//! N-worker execution engine and report its counters (`tasks run`,
//! `scratch reuse`) to stderr.

use std::error::Error;
use std::io::{Read, Write};

use atc::cache::SegmentCache;
use atc::core::format::shard_dir_name;
use atc::core::{AtcOptions, AtcReader, LossyConfig, Mode, ReadOptions};
use atc::engine::{Engine, EngineStats};
use atc::net::AtcClient;
use atc::store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};

#[path = "cli_util/mod.rs"]
mod cli_util;
use cli_util::{positional, reject_unknown_flags};
#[path = "cli_util/filter.rs"]
mod cli_filter;
use cli_filter::FilterOptions;

const USAGE: &str = "usage: atcstore <pack|unpack|read|stat> <root> \
    [--shards N] [--policy round-robin|addr-range:SHIFT] \
    [--lossless] [--interval N] [--buffer N] [--codec NAME] [--threads N] [--shard I] \
    [--filter] [--filter-writebacks] \
    [--range A..B] \
    | atcstore fetch --addr HOST:PORT (--range A..B | --shard I [--from N])";

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_flags = [
        "--shards",
        "--policy",
        "--interval",
        "--buffer",
        "--codec",
        "--threads",
        "--shard",
        "--range",
        "--addr",
        "--from",
    ];
    let bool_flags = ["--lossless", "--filter", "--filter-writebacks"];
    reject_unknown_flags(&args, &bool_flags, &value_flags)?;
    let command = positional(&args, &value_flags).ok_or(USAGE)?.clone();
    if command == "fetch" {
        // Remote verb: talks to an `atcd` daemon, takes no store root.
        return fetch(&args);
    }
    let rest: Vec<String> = args
        .iter()
        .skip_while(|a| **a != command)
        .skip(1)
        .cloned()
        .collect();
    let root = positional(&rest, &value_flags).ok_or(USAGE)?.clone();

    let get = |key: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let get_str = |key: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.into())
    };
    let threads = get("--threads", 1);
    // One private engine per invocation so the counters printed below
    // describe exactly this command's work.
    let engine = (threads > 1).then(|| Engine::new(threads));
    let print_engine_stats = |stats: EngineStats| {
        eprintln!(
            "engine: {} tasks run, scratch {} reused / {} fresh",
            stats.tasks_run, stats.scratch_reused, stats.scratch_fresh
        );
    };
    // Full scans (`unpack`, the `stat` drain) read every frame once, so
    // they attach no frame cache: it could only add a copy per frame,
    // and they keep the `--threads` readahead of the linear path.
    let read_options = || ReadOptions {
        threads,
        engine: engine.clone(),
        ..ReadOptions::default()
    };

    match command.as_str() {
        "pack" => {
            let policy = ShardPolicy::parse(&get_str("--policy", "round-robin"))
                .ok_or("unknown --policy (round-robin | addr-range:SHIFT | thread-id)")?;
            if policy == ShardPolicy::ThreadId {
                // The stdin format is bare 8-byte addresses: there is no
                // stream key to route by, so every value would land in
                // shard 0 while the other writers sit idle.
                return Err(
                    "--policy thread-id needs keyed records, which the raw stdin \
                     format does not carry; use round-robin or addr-range:SHIFT here \
                     (thread-id routing is available through AtcStore::code_from)"
                        .into(),
                );
            }
            let mode = if args.iter().any(|a| a == "--lossless") {
                Mode::Lossless
            } else {
                Mode::Lossy(LossyConfig {
                    interval_len: get("--interval", 10_000_000),
                    ..LossyConfig::default()
                })
            };
            let store_options = StoreOptions {
                shards: get("--shards", 4),
                policy,
                atc: AtcOptions {
                    codec: get_str("--codec", "bzip"),
                    buffer: get("--buffer", 1_000_000),
                    threads,
                },
                max_buffered_bytes: None,
            };
            let mut store = match &engine {
                Some(e) => AtcStore::create_with_engine(&root, mode, store_options, e.clone())?,
                None => AtcStore::create(&root, mode, store_options)?,
            };
            let filter = FilterOptions::parse(&args);
            if filter.enabled {
                // Filtered ingest: only L1-missing block addresses (and
                // tagged write-backs, if enabled) reach the shards.
                cli_filter::run(&filter, |values| {
                    store.code_all(values.iter().copied()).map_err(Into::into)
                })?;
            } else {
                let mut stdin = std::io::stdin().lock();
                let mut buf = [0u8; 8];
                loop {
                    match stdin.read_exact(&mut buf) {
                        Ok(()) => store.code(u64::from_le_bytes(buf))?,
                        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            let stats = store.finish()?;
            eprintln!(
                "{} addresses -> {} bytes over {} shards ({:.3} bits/address)",
                stats.count,
                stats.compressed_bytes,
                stats.shards.len(),
                stats.bits_per_address()
            );
            if let Some(peak) = stats.peak_buffered_bytes {
                eprintln!("buffered-memory gate: peak {peak} bytes");
            }
            if let Some(engine_stats) = stats.engine {
                print_engine_stats(engine_stats);
            }
        }
        "unpack" => {
            let options = read_options();
            let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
            if let Some(i) = args.iter().position(|a| a == "--shard") {
                let shard: usize = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--shard takes an index")?;
                // A shard is an ordinary trace directory: open it alone
                // (with the full thread budget) instead of spinning up a
                // reader per shard just to drain one.
                let mut r = AtcReader::open_with(
                    std::path::Path::new(&root).join(shard_dir_name(shard)),
                    options,
                )?;
                while let Some(frame) = r.next_frame()? {
                    for v in frame {
                        stdout.write_all(&v.to_le_bytes())?;
                    }
                }
            } else {
                let mut r = StoreReader::open_with(&root, options)?;
                while let Some(v) = r.decode()? {
                    stdout.write_all(&v.to_le_bytes())?;
                }
            }
            stdout.flush()?;
            if let Some(engine) = &engine {
                print_engine_stats(engine.stats());
            }
        }
        "read" => {
            let range_arg = args
                .iter()
                .position(|a| a == "--range")
                .and_then(|i| args.get(i + 1))
                .ok_or("read needs --range A..B (global merged positions)")?;
            let (a, b) = range_arg
                .split_once("..")
                .ok_or("--range takes A..B, e.g. --range 1000..2000")?;
            let start: u64 = a.parse().map_err(|_| "--range start is not a number")?;
            let end: u64 = b.parse().map_err(|_| "--range end is not a number")?;
            // The process-wide decoded-frame cache: shards carrying a seek
            // sidecar decode each frame the range touches at most once.
            let options = ReadOptions {
                segment_cache: Some(SegmentCache::global()),
                ..read_options()
            };
            let mut r = StoreReader::open_with(&root, options)?;
            let window = r.read_range(start..end)?;
            let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
            for v in &window {
                stdout.write_all(&v.to_le_bytes())?;
            }
            stdout.flush()?;
            eprintln!("read {} addresses from {start}..{end}", window.len());
            let s = SegmentCache::global().stats();
            eprintln!(
                "frame cache: {} frame hits, {} frame misses, {} evictions, {}/{} bytes",
                s.hits, s.misses, s.evictions, s.bytes, s.cap
            );
            if let Some(engine) = &engine {
                print_engine_stats(engine.stats());
            }
        }
        "stat" => {
            let mut r = StoreReader::open(&root)?;
            let m = r.manifest().clone();
            println!(
                "policy={} shards={} count={} version={}",
                m.policy,
                m.shards(),
                m.count,
                m.version
            );
            // The merge-mode line: where the merged read-back's order
            // comes from, and — for recorded tracks — what the track
            // costs on disk.
            match &m.interleave {
                Some(track) => println!(
                    "merge=exact (interleave track: {} runs, {} encoded bytes)",
                    track.runs().len(),
                    track.encoded_len()
                ),
                None if r.merge_is_exact() => {
                    println!("merge=exact (round-robin rotation, no track needed)")
                }
                None => {
                    println!("merge=concatenation (shard order)");
                    eprintln!(
                        "warning: no interleave track in the manifest (packed by an \
                         older writer); the merged read-back concatenates shards \
                         instead of replaying the original arrival order"
                    );
                }
            }
            for (i, count) in m.shard_counts.iter().enumerate() {
                let meta = r.shard(i).meta().clone();
                println!(
                    "  shard {i}: {count} addresses, mode={}, codec={}, chunks={}",
                    meta.mode, meta.codec, meta.chunks
                );
            }
            if let Some(engine) = &engine {
                // Verification drain through the shared engine: proves
                // every shard decodes and reports the worker counters.
                drop(r);
                let mut r = StoreReader::open_with(&root, read_options())?;
                let start = std::time::Instant::now();
                let mut n = 0u64;
                while r.decode()?.is_some() {
                    n += 1;
                }
                println!(
                    "drained {n} addresses through {} engine workers in {:.2?}",
                    engine.workers(),
                    start.elapsed()
                );
                print_engine_stats(engine.stats());
            }
        }
        _ => return Err(USAGE.into()),
    }
    Ok(())
}

/// `atcstore fetch`: the `read`/`unpack --shard` verbs, served by a
/// remote `atcd` instead of a local directory. Output is the same LE
/// 64-bit stream, so local and remote reads `cmp` byte-identical.
fn fetch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let get_val = |key: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
    };
    let addr = get_val("--addr").ok_or("fetch needs --addr HOST:PORT")?;
    let mut client = AtcClient::connect(addr.as_str())?;
    let values = if let Some(range_arg) = get_val("--range") {
        let (a, b) = range_arg
            .split_once("..")
            .ok_or("--range takes A..B, e.g. --range 1000..2000")?;
        let start: u64 = a.parse().map_err(|_| "--range start is not a number")?;
        let end: u64 = b.parse().map_err(|_| "--range end is not a number")?;
        let values = client.read_range(start..end)?;
        eprintln!(
            "fetched {} addresses from {start}..{end} at {addr}",
            values.len()
        );
        values
    } else if let Some(shard_arg) = get_val("--shard") {
        let shard: u32 = shard_arg.parse().map_err(|_| "--shard takes an index")?;
        let from: u64 = match get_val("--from") {
            Some(v) => v.parse().map_err(|_| "--from takes a value offset")?,
            None => 0,
        };
        let values = client.stream_shard(shard, from)?;
        eprintln!(
            "fetched {} addresses of shard {shard} from offset {from} at {addr}",
            values.len()
        );
        values
    } else {
        return Err("fetch needs --range A..B or --shard I [--from N]".into());
    };
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    for v in &values {
        stdout.write_all(&v.to_le_bytes())?;
    }
    stdout.flush()?;
    let stat = client.stat()?;
    eprintln!(
        "server: {} addresses over {} shards ({}), frame cache {} hits / {} misses",
        stat.count,
        stat.shard_counts.len(),
        stat.policy,
        stat.cache_hits,
        stat.cache_misses
    );
    Ok(())
}
