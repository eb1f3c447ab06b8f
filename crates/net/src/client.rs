//! The blocking trace-service client.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

use atc_core::format::{
    read_net_frame, NetRequest, NetResponse, NetStat, NET_MAGIC, NET_PROTOCOL_VERSION,
};
use atc_core::{AtcError, Result};

/// Tuning knobs for [`AtcClient::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Per-attempt TCP connect deadline.
    pub connect_timeout: Duration,
    /// Deadline for every read and write on the established connection.
    pub io_timeout: Duration,
    /// Extra connect attempts after the first fails. The generous
    /// default doubles as "wait for the daemon to come up" in scripts
    /// that start `atcd` in the background.
    pub connect_retries: u32,
    /// Pause between connect attempts.
    pub retry_delay: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(10),
            connect_retries: 20,
            retry_delay: Duration::from_millis(250),
        }
    }
}

/// A blocking connection to an `atcd` trace server.
///
/// One request is in flight at a time (the protocol has no request
/// pipelining); open more clients for concurrency — the server decodes
/// each hot segment only once across all of them. Any transport or
/// protocol error poisons the connection: subsequent calls keep
/// failing, reconnect to recover. A server-side *query* rejection (bad
/// range, unknown shard) is returned as [`AtcError::Format`] with the
/// server's message and does **not** poison the connection.
#[derive(Debug)]
pub struct AtcClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    server_version: u32,
}

impl AtcClient {
    /// Connects with [`ClientOptions::default`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcClient::connect_with`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects to `addr`, retrying per `options`, and runs the magic +
    /// `Hello` handshake.
    ///
    /// # Errors
    ///
    /// Fails when every connect attempt fails, on handshake I/O errors,
    /// and when the peer is not an ATCNET1 server (wrong banner) or
    /// speaks an unsupported protocol version.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, options: ClientOptions) -> Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(AtcError::Format("address resolved to nothing".into()));
        }
        let mut last: Option<std::io::Error> = None;
        let mut stream = None;
        'attempts: for attempt in 0..=options.connect_retries {
            if attempt > 0 {
                std::thread::sleep(options.retry_delay);
            }
            for a in &addrs {
                match TcpStream::connect_timeout(a, options.connect_timeout) {
                    Ok(s) => {
                        stream = Some(s);
                        break 'attempts;
                    }
                    Err(e) => last = Some(e),
                }
            }
        }
        let stream = stream.ok_or_else(|| {
            AtcError::Io(last.unwrap_or_else(|| ErrorKind::ConnectionRefused.into()))
        })?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(options.io_timeout))?;
        stream.set_write_timeout(Some(options.io_timeout))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);

        // Banner in, banner + Hello out, Hello back.
        let mut magic = [0u8; NET_MAGIC.len()];
        reader.read_exact(&mut magic)?;
        if magic != NET_MAGIC {
            return Err(AtcError::Format(
                "peer did not present the ATCNET1 banner".into(),
            ));
        }
        let mut client = Self {
            reader,
            writer,
            server_version: 0,
        };
        client.writer.write_all(&NET_MAGIC)?;
        client.send(&NetRequest::Hello {
            version: NET_PROTOCOL_VERSION,
        })?;
        match client.receive()? {
            NetResponse::Hello { version } => client.server_version = version,
            NetResponse::Error { message } => {
                return Err(AtcError::Format(format!("server: {message}")))
            }
            other => return Err(AtcError::Format(format!("expected Hello, got {other:?}"))),
        }
        Ok(client)
    }

    /// The protocol version the server announced in its `Hello`.
    pub fn server_version(&self) -> u32 {
        self.server_version
    }

    /// Fetches the store's manifest summary and the server's cache
    /// counters.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and server-reported errors.
    pub fn stat(&mut self) -> Result<NetStat> {
        self.send(&NetRequest::StatStore)?;
        match self.receive()? {
            NetResponse::Stat(stat) => Ok(stat),
            NetResponse::Error { message } => Err(AtcError::Format(format!("server: {message}"))),
            other => Err(AtcError::Format(format!("expected Stat, got {other:?}"))),
        }
    }

    /// Fetches merged global positions `range.start..range.end`; the
    /// result equals the local
    /// [`StoreReader::read_range`](atc_store::StoreReader::read_range)
    /// over the same store.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and server-reported errors (inverted
    /// or out-of-bounds ranges are rejected by the server).
    pub fn read_range(&mut self, range: Range<u64>) -> Result<Vec<u64>> {
        let expect = range.end.saturating_sub(range.start);
        self.send(&NetRequest::ReadRange {
            start: range.start,
            end: range.end,
        })?;
        self.collect_stream(expect)
    }

    /// Streams shard `shard`'s sub-stream from its value position
    /// `from` to the shard's end, lossless or lossy.
    ///
    /// # Errors
    ///
    /// Fails on transport errors and server-reported errors (unknown
    /// shards, offsets past the shard).
    pub fn stream_shard(&mut self, shard: u32, from: u64) -> Result<Vec<u64>> {
        self.send(&NetRequest::StreamShard { shard, from })?;
        self.collect_stream(u64::MAX)
    }

    fn send(&mut self, request: &NetRequest) -> Result<()> {
        request.write(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<NetResponse> {
        let body = read_net_frame(&mut self.reader)?
            .ok_or_else(|| AtcError::Format("server closed the connection".into()))?;
        NetResponse::decode(&body)
    }

    /// Drains one `Data*`/`Done` stream. `expect` is a sanity bound on
    /// the value count when the caller knows it (`u64::MAX` otherwise).
    fn collect_stream(&mut self, expect: u64) -> Result<Vec<u64>> {
        // bounded: the reservation is clamped to 16Mi values (128 MiB)
        // even when the caller passes u64::MAX; beyond the clamp the Vec
        // grows only as frames actually arrive, and the `expect` check
        // below rejects streams that overrun the declared count.
        let mut out = Vec::with_capacity(expect.min(1 << 24) as usize);
        loop {
            match self.receive()? {
                NetResponse::Data(values) => {
                    if out.len() as u64 + values.len() as u64 > expect {
                        return Err(AtcError::Format(format!(
                            "server sent more than the {expect} values asked for"
                        )));
                    }
                    out.extend_from_slice(&values);
                }
                NetResponse::Done { values } => {
                    if values != out.len() as u64 {
                        return Err(AtcError::Format(format!(
                            "server says it sent {values} values, received {}",
                            out.len()
                        )));
                    }
                    return Ok(out);
                }
                NetResponse::Error { message } => {
                    if !out.is_empty() {
                        return Err(AtcError::Format(format!(
                            "server aborted mid-stream: {message}"
                        )));
                    }
                    return Err(AtcError::Format(format!("server: {message}")));
                }
                other => {
                    return Err(AtcError::Format(format!(
                        "expected Data/Done, got {other:?}"
                    )))
                }
            }
        }
    }
}
