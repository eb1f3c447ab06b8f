//! # atc-net — the trace service
//!
//! The paper's point is that cache-filtered traces become small enough to
//! *move and share*; this crate closes that loop by putting a packed
//! [`atc_store`] root on the wire. [`NetServer`] is a `std::net` daemon
//! (the `atcd` example binary) that answers merged-range and per-shard
//! stream queries for many concurrent clients; [`AtcClient`] is the
//! blocking client with connect retries and I/O timeouts.
//!
//! The wire protocol lives in [`atc_core::format`] next to the on-disk
//! formats: a `ATCNET1` magic exchange, then varint length-prefixed
//! request/response frames ([`atc_core::format::NetRequest`] /
//! [`atc_core::format::NetResponse`]). Values travel as little-endian
//! `u64`s in bounded `Data` frames, so a response is byte-identical to
//! the local [`atc_store::StoreReader::read_range`] over the same range.
//!
//! Three pieces make many-client service cheap:
//!
//! * each connection is one long-lived [`atc_engine::Engine`] task, so
//!   the worker count bounds concurrent connections without a
//!   thread-per-connection explosion;
//! * every connection's reader shares one
//!   [`SegmentCache`](atc_cache::SegmentCache) of decoded frames, so
//!   concurrent clients hitting the same region decode and un-bytesort
//!   each frame once;
//! * each connection meters its decoded-but-unsent bytes through a
//!   [`ByteBudget`](atc_codec::ByteBudget) send window, so a slow or
//!   stalled client bounds its own memory and eventually gets dropped
//!   instead of wedging the server.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use atc_core::Mode;
//! use atc_net::{AtcClient, NetServer, ServeOptions};
//! use atc_store::{AtcStore, StoreOptions};
//!
//! let root = std::env::temp_dir().join("atc-net-lib-doc");
//! # let _ = std::fs::remove_dir_all(&root);
//! let mut store = AtcStore::create(&root, Mode::Lossless, StoreOptions::default())?;
//! store.code_all(0..4_000u64)?;
//! store.finish()?;
//!
//! let server = NetServer::bind(&root, "127.0.0.1:0", ServeOptions::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.handle();
//! // The accept loop blocks, so the *application* gives it a thread —
//! // the library itself never spawns: connections run on the shared
//! // engine (see the `rogue-thread-spawn` invariant in docs/LINTS.md).
//! let join = std::thread::spawn(move || server.run());
//!
//! let mut client = AtcClient::connect(addr)?;
//! assert_eq!(client.read_range(100..110)?, (100..110u64).collect::<Vec<_>>());
//! assert_eq!(client.stat()?.count, 4_000);
//!
//! handle.shutdown();
//! let stats = join.join().unwrap()?;
//! assert_eq!(stats.connections, 1);
//! # std::fs::remove_dir_all(&root)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod client;
mod server;

pub use client::{AtcClient, ClientOptions};
pub use server::{NetServer, ServeOptions, ServerHandle, ServerStats};
