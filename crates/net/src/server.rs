//! The `atcd` server loop: one engine task per connection.

use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atc_cache::{SegmentCache, SegmentCacheStats};
use atc_codec::ByteBudget;
use atc_core::format::{
    net_check_frame_len, NetRequest, NetResponse, NetStat, NET_MAGIC, NET_PROTOCOL_VERSION,
};
use atc_core::{AtcError, ReadOptions, Result};
use atc_engine::Engine;
use atc_store::StoreService;

/// How often a blocked read re-checks the shutdown flag.
const STOP_POLL: Duration = Duration::from_millis(25);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Tuning knobs for [`NetServer::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Engine workers, which is also the **maximum number of concurrent
    /// connections**: each connection occupies one long-lived engine
    /// task, and further accepts queue until a worker frees up.
    pub workers: usize,
    /// Per-connection send window in bytes: the cap on values decoded
    /// but not yet handed to the socket, metered through a
    /// [`ByteBudget`]. Also sizes the `Data` frames (half a window).
    pub window_bytes: u64,
    /// Deadline for mid-frame reads, the opening handshake, and socket
    /// writes. A peer that stalls past it loses its connection; *idle*
    /// connections (between requests) are not subject to it.
    pub io_timeout: Duration,
    /// Decoded-frame cache shared by every connection's reader (the
    /// field and type names predate the unit: it once held decoded
    /// segment bytes), so a range another connection already read is a
    /// pointer clone per shard, not a decode plus a bytesort inverse.
    /// `None` uses [`SegmentCache::global`]; tests and embedders inject
    /// an isolated instance ([`SegmentCache::isolated`]) so the stats
    /// the server reports are its own traffic only.
    pub segment_cache: Option<Arc<SegmentCache>>,
    /// Engine running the connection tasks. `None` (the default) spins
    /// up a dedicated engine with `workers` workers, so connection
    /// tasks never compete with decode pipelines on the process-wide
    /// engine.
    pub engine: Option<Engine>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            window_bytes: 1 << 20,
            io_timeout: Duration::from_secs(5),
            segment_cache: None,
            engine: None,
        }
    }
}

/// Counter snapshot of a server (see [`ServerHandle::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (including ones answered with an `Error`).
    pub requests: u64,
    /// Connections closed for protocol violations (bad magic, unknown
    /// tags, oversized frames, truncated requests).
    pub proto_errors: u64,
    /// Connections dropped for I/O trouble (timeouts, resets, stalled
    /// readers, mid-stream failures).
    pub dropped: u64,
    /// Frame-cache traffic attributable to this server (delta since
    /// bind; one lookup per frame, cross-connection reuse shows up as
    /// `cache.hits`).
    pub cache: SegmentCacheStats,
}

/// State shared between the accept loop, connection tasks, and handles.
#[derive(Debug)]
struct Shared {
    service: StoreService,
    cache: Arc<SegmentCache>,
    cache_base: SegmentCacheStats,
    window: u64,
    io_timeout: Duration,
    stop: AtomicBool,
    active: AtomicUsize,
    connections: AtomicU64,
    requests: AtomicU64,
    proto_errors: AtomicU64,
    dropped: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            // ordering: Relaxed — monotonic observability counters; a
            // snapshot needs no cross-counter consistency. (Applies to
            // the four loads below.)
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            proto_errors: self.proto_errors.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            cache: self.cache.stats().since(&self.cache_base),
        }
    }

    fn stopping(&self) -> bool {
        // ordering: Acquire — pairs with shutdown's Release store so
        // whatever the stopping thread wrote before requesting shutdown
        // is visible to loops that observe the flag and wind down.
        self.stop.load(Ordering::Acquire)
    }
}

/// A cloneable remote control for a running [`NetServer`]: request
/// shutdown and read counters from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Asks the server to stop: the accept loop exits, idle connections
    /// close at their next stop poll (~25 ms), and [`NetServer::run`]
    /// returns once every connection has finished.
    pub fn shutdown(&self) {
        // ordering: Release — pairs with the Acquire in stopping();
        // publishes any state the requester wrote before the flag.
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Current counter snapshot (valid during and after the run).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

/// A bound-but-not-yet-running trace server (see the crate docs for the
/// protocol and an end-to-end example).
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    engine: Engine,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Binds `addr` and validates the store under `root` (a bad
    /// manifest fails here, not on the first request). Port 0 picks an
    /// ephemeral port — read it back with [`NetServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Fails on bind errors and on anything
    /// [`StoreService::open_with`] can fail on.
    pub fn bind<P: AsRef<Path>, A: ToSocketAddrs>(
        root: P,
        addr: A,
        options: ServeOptions,
    ) -> Result<Self> {
        let cache = options.segment_cache.unwrap_or_else(SegmentCache::global);
        // Connections decode serially (threads: 1): each already has a
        // whole engine task to itself, and nested decode tasks could
        // deadlock a worker pool full of blocked connections.
        let service = StoreService::open_with(
            root,
            ReadOptions {
                threads: 1,
                segment_cache: Some(Arc::clone(&cache)),
                ..ReadOptions::default()
            },
        )?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = options.workers.max(1);
        let engine = options.engine.unwrap_or_else(|| Engine::new(workers));
        let cache_base = cache.stats();
        Ok(Self {
            listener,
            engine,
            shared: Arc::new(Shared {
                service,
                cache,
                cache_base,
                window: options.window_bytes.max(64),
                io_timeout: options.io_timeout.max(Duration::from_millis(1)),
                stop: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                proto_errors: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (the real port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A remote control usable from other threads while `run` blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until [`ServerHandle::shutdown`], then waits for the
    /// in-flight connections to finish and returns the final counters.
    ///
    /// # Errors
    ///
    /// Fails only on accept-loop I/O errors (individual connection
    /// failures are counted, never fatal).
    pub fn run(self) -> Result<ServerStats> {
        while !self.shared.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // ordering: Relaxed — observability counter only.
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    // ordering: AcqRel — `active` gates shutdown: the
                    // increment must be visible before the connection
                    // does work, and the matching decrement (below, in
                    // Leave::drop) must publish the connection's effects
                    // to the Acquire drain loop at the end of run().
                    self.shared.active.fetch_add(1, Ordering::AcqRel);
                    let shared = Arc::clone(&self.shared);
                    self.engine.submit(move || {
                        // Decrement on every exit path, panics included,
                        // or shutdown would wait forever.
                        struct Leave<'a>(&'a Shared);
                        impl Drop for Leave<'_> {
                            fn drop(&mut self) {
                                // ordering: AcqRel — the Release half
                                // publishes this connection's counter
                                // updates to run()'s Acquire drain loop.
                                self.0.active.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        let _leave = Leave(&shared);
                        serve_connection(stream, &shared);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // ordering: Acquire — pairs with Leave::drop's AcqRel decrement
        // so the final stats snapshot sees every connection's counters.
        while self.shared.active.load(Ordering::Acquire) > 0 {
            std::thread::sleep(ACCEPT_POLL);
        }
        Ok(self.shared.stats())
    }
}

/// Is this error a read/write that merely hit its timeout?
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fills `buf` from a socket carrying a short poll timeout, giving up at
/// `deadline`. Unlike `read_exact`, a timeout mid-way surfaces as
/// `TimedOut` only after the deadline truly lapsed — short pauses under
/// the deadline just keep reading.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How a connection ended (drives which counter it lands in).
enum ConnExit {
    /// Peer closed cleanly, or the server is shutting down.
    Clean,
    /// Protocol violation: bad magic, malformed or oversized frames.
    Protocol,
    /// I/O trouble: timeouts, resets, stalled reader, mid-stream abort.
    Io,
}

/// Serves one connection to completion, filing its exit in the stats.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let exit = match drive_connection(stream, shared) {
        Ok(exit) => exit,
        // Socket trouble (timeouts, resets, truncation) files under
        // `dropped`; anything else that escaped as an error was the
        // peer speaking the protocol wrong.
        Err(AtcError::Io(_)) => ConnExit::Io,
        Err(_) => ConnExit::Protocol,
    };
    match exit {
        ConnExit::Clean => {}
        ConnExit::Protocol => {
            // ordering: Relaxed — observability counter; published to
            // the final snapshot by Leave::drop's AcqRel decrement.
            shared.proto_errors.fetch_add(1, Ordering::Relaxed);
        }
        ConnExit::Io => {
            // ordering: Relaxed — ditto.
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The connection state machine: handshake, then a request loop.
fn drive_connection(mut stream: TcpStream, shared: &Shared) -> Result<ConnExit> {
    stream.set_nodelay(true).ok();
    // Reads poll in short slices so the stop flag is never more than
    // ~STOP_POLL away; writes block up to the full I/O deadline.
    stream.set_read_timeout(Some(STOP_POLL))?;
    stream.set_write_timeout(Some(shared.io_timeout))?;
    let mut writer = BufWriter::new(stream.try_clone()?);

    // Handshake: banner out, the client's banner + Hello back in, both
    // under the I/O deadline (a connect-and-ignore peer must not pin a
    // worker forever).
    writer.get_mut().write_all(&NET_MAGIC)?;
    writer.get_mut().flush()?;
    let deadline = Instant::now() + shared.io_timeout;
    let mut magic = [0u8; NET_MAGIC.len()];
    read_full(&mut stream, &mut magic, deadline)?;
    if magic != NET_MAGIC {
        send_error(&mut writer, "bad magic: this is an ATCNET1 trace service");
        return Ok(ConnExit::Protocol);
    }
    match checked_frame(&mut stream, shared, Some(deadline), &mut writer)? {
        None => return Ok(ConnExit::Clean),
        Some(Err(exit)) => return Ok(exit),
        Some(Ok(body)) => match NetRequest::decode(&body) {
            Ok(NetRequest::Hello { version }) if version <= NET_PROTOCOL_VERSION => {
                NetResponse::Hello {
                    version: NET_PROTOCOL_VERSION,
                }
                .write(&mut writer)?;
                writer.flush()?;
            }
            Ok(NetRequest::Hello { version }) => {
                send_error(
                    &mut writer,
                    &format!("unsupported protocol version {version}"),
                );
                return Ok(ConnExit::Protocol);
            }
            Ok(_) => {
                send_error(&mut writer, "expected Hello as the first request");
                return Ok(ConnExit::Protocol);
            }
            Err(e) => {
                send_error(&mut writer, &e.to_string());
                return Ok(ConnExit::Protocol);
            }
        },
    }

    // Request loop: idle waits are unbounded (but stop-aware), bodies
    // must arrive within the I/O deadline once their length starts.
    loop {
        let body = match checked_frame(&mut stream, shared, None, &mut writer)? {
            None => return Ok(ConnExit::Clean),
            Some(Err(exit)) => return Ok(exit),
            Some(Ok(body)) => body,
        };
        // ordering: Relaxed — observability counter; published to the
        // final snapshot by Leave::drop's AcqRel decrement.
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let request = match NetRequest::decode(&body) {
            Ok(request) => request,
            Err(e) => {
                send_error(&mut writer, &e.to_string());
                return Ok(ConnExit::Protocol);
            }
        };
        match request {
            NetRequest::Hello { .. } => {
                // A repeat Hello is harmless; answer it again.
                NetResponse::Hello {
                    version: NET_PROTOCOL_VERSION,
                }
                .write(&mut writer)?;
                writer.flush()?;
            }
            NetRequest::StatStore => {
                let manifest = shared.service.manifest();
                let cache = shared.cache.stats().since(&shared.cache_base);
                NetResponse::Stat(NetStat {
                    manifest_version: manifest.version,
                    policy: manifest.policy.clone(),
                    count: manifest.count,
                    shard_counts: manifest.shard_counts.clone(),
                    exact_merge: shared.service.merge_is_exact(),
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                })
                .write(&mut writer)?;
                writer.flush()?;
            }
            NetRequest::ReadRange { start, end } => {
                let keep = stream_response(shared, &mut writer, |chunk, sink| {
                    shared.service.read_range_chunked(start..end, chunk, sink)
                })?;
                if !keep {
                    return Ok(ConnExit::Io);
                }
            }
            NetRequest::StreamShard { shard, from } => {
                let keep = stream_response(shared, &mut writer, |chunk, sink| {
                    shared
                        .service
                        .stream_shard_chunked(shard as usize, from, chunk, sink)
                })?;
                if !keep {
                    return Ok(ConnExit::Io);
                }
            }
        }
    }
}

/// Runs one streaming query through the send window and writes its
/// `Data*`/`Done` (or `Error`) frames. Returns whether the connection
/// is still healthy enough to keep serving:
///
/// * query rejected before any data (bad range/shard) — `Error` frame,
///   keep the connection;
/// * failure after data went out, or during shutdown — best-effort
///   `Error` frame, drop the connection (the client's stream is torn
///   mid-way and cannot be resynchronized);
/// * socket errors propagate as `Err` (the peer is gone).
fn stream_response<W, Q>(shared: &Shared, writer: &mut BufWriter<W>, query: Q) -> Result<bool>
where
    W: Write,
    Q: FnOnce(usize, &mut dyn FnMut(&[u64]) -> Result<()>) -> Result<()>,
{
    // Half-window data frames: the window always holds the frame being
    // built plus the previous one still in flight.
    let chunk_values = ((shared.window / 2) / 8).clamp(1, 1 << 19) as usize;
    let budget = ByteBudget::new(shared.window);
    let mut sent_values = 0u64;
    let mut socket_error: Option<std::io::Error> = None;
    let result = query(chunk_values, &mut |chunk: &[u64]| {
        if shared.stopping() {
            return Err(AtcError::Format("server is shutting down".into()));
        }
        let bytes = chunk.len() as u64 * 8;
        // The budget meters decoded-but-unflushed bytes: once the next
        // chunk would overflow the window, the flush below blocks on
        // the client actually draining the socket — that stall *is*
        // the backpressure, and a reader stalled past the write
        // timeout surfaces here as an I/O error.
        if budget.in_use() > 0 && budget.in_use() + bytes > budget.cap() {
            if let Err(e) = writer.flush() {
                socket_error = Some(e);
                return Err(AtcError::Format("socket write failed".into()));
            }
            budget.release(budget.in_use());
        }
        budget.acquire(bytes);
        if let Err(e) = write_values(writer, chunk) {
            socket_error = Some(e);
            return Err(AtcError::Format("socket write failed".into()));
        }
        sent_values += chunk.len() as u64;
        Ok(())
    });
    if let Some(io) = socket_error {
        return Err(io.into());
    }
    match result {
        Ok(()) => {
            NetResponse::Done {
                values: sent_values,
            }
            .write(writer)?;
            writer.flush()?;
            Ok(true)
        }
        Err(e) => {
            send_error(writer, &e.to_string());
            // Before any data went out the reply is a clean one-frame
            // Error and the session can continue; after, the stream is
            // torn and the connection must go.
            Ok(sent_values == 0)
        }
    }
}

/// Writes one `Data` frame, unwrapping the error back to `io::Error` so
/// the caller can distinguish socket trouble from store trouble.
fn write_values<W: Write>(writer: &mut W, values: &[u64]) -> std::io::Result<()> {
    NetResponse::write_values_frame(writer, values).map_err(|e| match e {
        AtcError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    })
}

/// Best-effort `Error` frame: the peer may already be gone, and the
/// connection is usually about to close anyway.
fn send_error<W: Write>(writer: &mut BufWriter<W>, message: &str) {
    let _ = NetResponse::Error {
        message: message.to_string(),
    }
    .write(writer);
    let _ = writer.flush();
}

/// [`read_request_frame`] with the protocol errors answered: a frame
/// the peer framed wrong (oversized declared length, overlong varint,
/// zero length) gets a best-effort `Error` frame before the close,
/// surfaced as `Some(Err(exit))`; socket errors still propagate.
fn checked_frame<W: Write>(
    stream: &mut TcpStream,
    shared: &Shared,
    deadline: Option<Instant>,
    writer: &mut BufWriter<W>,
) -> Result<Option<std::result::Result<Vec<u8>, ConnExit>>> {
    match read_request_frame(stream, shared, deadline) {
        Ok(None) => Ok(None),
        Ok(Some(body)) => Ok(Some(Ok(body))),
        Err(AtcError::Io(io)) => Err(AtcError::Io(io)),
        Err(e) => {
            send_error(writer, &e.to_string());
            Ok(Some(Err(ConnExit::Protocol)))
        }
    }
}

/// Reads one request frame. The wait for the *first* byte is unbounded
/// when `deadline` is `None` (an idle client costs nothing but its
/// socket) yet re-checks the stop flag every [`STOP_POLL`]; once a
/// length byte arrives, the rest of the frame must land within the
/// server's I/O deadline. `Ok(None)` means a clean close (EOF at a
/// frame boundary, or shutdown).
fn read_request_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Option<Vec<u8>>> {
    let first = loop {
        if shared.stopping() {
            return Ok(None);
        }
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => break byte[0],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if let Some(deadline) = deadline {
                    if Instant::now() >= deadline {
                        return Err(AtcError::Io(ErrorKind::TimedOut.into()));
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    };
    let deadline = Instant::now() + shared.io_timeout;
    // Finish the length varint whose first byte is already consumed.
    let len = if first & 0x80 == 0 {
        u64::from(first)
    } else {
        let mut value = u64::from(first & 0x7F);
        let mut shift = 7u32;
        loop {
            let mut byte = [0u8; 1];
            read_full(stream, &mut byte, deadline)?;
            value |= u64::from(byte[0] & 0x7F) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 63 {
                return Err(AtcError::Format("frame length varint overflows".into()));
            }
        }
        value
    };
    net_check_frame_len(len)?;
    // bounded: len was checked against NET_MAX_FRAME just above.
    let mut body = vec![0u8; len as usize];
    read_full(stream, &mut body, deadline)?;
    Ok(Some(body))
}
