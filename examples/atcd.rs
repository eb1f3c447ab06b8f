//! `atcd` — the trace-service daemon: serve one packed store root to
//! many clients over TCP (protocol in `atc::core::format`, `ATCNET1`).
//!
//! ```text
//! # serve a packed store on the default port:
//! atcd serve store.atc --addr 127.0.0.1:9409 --workers 8
//!
//! # fetch ranges from another machine (or a fleet of simulators):
//! atcstore fetch --addr host:9409 --range 1000000..1001000 > window.bin
//! ```
//!
//! SIGTERM/SIGINT shut the daemon down cleanly: the accept loop stops,
//! in-flight connections finish their current request, and the final
//! counters print to stderr before exit 0.

use std::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use atc::cache::SegmentCache;
use atc::net::{NetServer, ServeOptions};

#[path = "cli_util/mod.rs"]
mod cli_util;
use cli_util::positional;

const USAGE: &str = "usage: atcd serve <root> [--addr HOST:PORT] [--workers N] \
    [--window BYTES] [--timeout-ms N]";

/// Set by the signal handler; polled by the main thread.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // The example avoids external crates, so the handler goes through
    // libc's `signal` directly: the handler only stores to an atomic,
    // which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::Release);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` installs an `extern "C" fn(i32)` handler, which
    // matches libc's expected prototype; the handler itself only touches
    // a static AtomicBool, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_flags = ["--addr", "--workers", "--window", "--timeout-ms"];
    let command = positional(&args, &value_flags).ok_or(USAGE)?.clone();
    if command != "serve" {
        return Err(USAGE.into());
    }
    let rest: Vec<String> = args
        .iter()
        .skip_while(|a| **a != command)
        .skip(1)
        .cloned()
        .collect();
    let root = positional(&rest, &value_flags).ok_or(USAGE)?.clone();
    let get = |key: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
    };
    let addr = get("--addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:9409".into());
    let mut options = ServeOptions::default();
    if let Some(v) = get("--workers") {
        options.workers = v.parse().map_err(|_| "--workers takes a count")?;
    }
    if let Some(v) = get("--window") {
        options.window_bytes = v.parse().map_err(|_| "--window takes bytes")?;
    }
    if let Some(v) = get("--timeout-ms") {
        options.io_timeout =
            Duration::from_millis(v.parse().map_err(|_| "--timeout-ms takes milliseconds")?);
    }
    options.segment_cache = Some(SegmentCache::global());

    install_signal_handlers();
    let server = NetServer::bind(&root, addr.as_str(), options)?;
    let local = server.local_addr()?;
    let handle = server.handle();
    eprintln!("atcd: serving {root} on {local}");
    let join = std::thread::spawn(move || server.run());

    // The daemon's main thread just watches for signals (and for the
    // server dying on its own, e.g. a listener error).
    while !STOP.load(Ordering::Acquire) && !join.is_finished() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    let stats = join.join().map_err(|_| "server thread panicked")??;
    eprintln!(
        "atcd: stopped; {} connections, {} requests, {} protocol errors, {} dropped",
        stats.connections, stats.requests, stats.proto_errors, stats.dropped
    );
    eprintln!(
        "atcd: frame cache {} frame hits, {} frame misses, {} evictions",
        stats.cache.hits, stats.cache.misses, stats.cache.evictions
    );
    Ok(())
}
