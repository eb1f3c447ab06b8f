//! A `Send`-able request-service facade over the store.
//!
//! [`StoreReader`] is a stateful cursor: it owns per-shard readers, a
//! merged buffer, and a position, so sharing one across concurrent
//! requests would serialize everything behind a mutex *and* make every
//! request pay for the previous one's cursor. [`StoreService`] flips the
//! ownership: it holds only the validated root, the parsed manifest, and
//! the [`ReadOptions`] template, and opens a **fresh reader per request**.
//! That makes the service trivially `Send + Sync` (hand one `Arc` to N
//! connection tasks) while the shared
//! [`SegmentCache`](ReadOptions::segment_cache) keeps repeat opens cheap:
//! every frame a request decodes is a cache hit for every later request
//! that touches it, across connections.
//!
//! Responses are produced in *chunks* through a callback rather than one
//! flat vector, so a network server can bound its decoded-but-unsent
//! memory (its send window) no matter how large the requested range is.

use std::ops::Range;
use std::path::{Path, PathBuf};

use atc_core::format::StoreManifest;
use atc_core::{AtcError, ReadOptions, Result};

use crate::reader::StoreReader;

/// A shared, `Send + Sync` facade that answers range and shard-stream
/// queries against one store root (see the module docs for the
/// reader-per-request design).
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use atc_core::Mode;
/// use atc_store::{AtcStore, StoreOptions, StoreService};
///
/// let root = std::env::temp_dir().join("atc-store-service-doc");
/// # let _ = std::fs::remove_dir_all(&root);
/// let mut store = AtcStore::create(&root, Mode::Lossless, StoreOptions::default())?;
/// store.code_all(0..5_000u64)?;
/// store.finish()?;
///
/// let service = StoreService::open(&root)?;
/// let mut got = Vec::new();
/// service.read_range_chunked(10..20, 4, |chunk| {
///     got.extend_from_slice(chunk);
///     Ok(())
/// })?;
/// assert_eq!(got, (10..20u64).collect::<Vec<_>>());
/// # std::fs::remove_dir_all(&root)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StoreService {
    root: PathBuf,
    options: ReadOptions,
    manifest: StoreManifest,
    exact: bool,
}

impl StoreService {
    /// Opens a service over `root` with default [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreService::open_with`].
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self> {
        Self::open_with(root, ReadOptions::default())
    }

    /// Opens a service over `root`; `options` is the template every
    /// per-request reader opens with (share a
    /// [`segment_cache`](ReadOptions::segment_cache) here to make
    /// concurrent requests reuse each other's decoded frames).
    ///
    /// The store is fully opened once up front, so a bad manifest or
    /// unreadable shard fails here, not on the first request.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreReader::open_with`].
    pub fn open_with<P: AsRef<Path>>(root: P, options: ReadOptions) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        let probe = StoreReader::open_with(&root, options.clone())?;
        let exact = probe.merge_is_exact();
        let manifest = probe.manifest().clone();
        Ok(Self {
            root,
            options,
            manifest,
            exact,
        })
    }

    /// The store manifest as validated at open.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// Whether merged reads replay the exact global arrival order (see
    /// [`StoreReader::merge_is_exact`]).
    pub fn merge_is_exact(&self) -> bool {
        self.exact
    }

    /// The store root this service answers for.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads the half-open merged range `range`, handing the values to
    /// `sink` in chunks of at most `chunk_values` (clamped to at least
    /// 1). The concatenation of every chunk equals
    /// [`StoreReader::read_range`] over the same range; a `sink` error
    /// aborts the read and propagates.
    ///
    /// # Errors
    ///
    /// Fails on inverted or out-of-bounds ranges (reported *before* any
    /// chunk is produced, so a server can still answer with a clean
    /// protocol error), on shard read errors, and on `sink` errors.
    pub fn read_range_chunked<F>(
        &self,
        range: Range<u64>,
        chunk_values: usize,
        mut sink: F,
    ) -> Result<()>
    where
        F: FnMut(&[u64]) -> Result<()>,
    {
        if range.start > range.end || range.end > self.manifest.count {
            return Err(AtcError::Format(format!(
                "range {}..{} does not fit the store's {} addresses",
                range.start, range.end, self.manifest.count
            )));
        }
        let mut reader = StoreReader::open_with(&self.root, self.options.clone())?;
        reader.seek_to(range.start)?;
        let mut remaining = range.end - range.start;
        let mut chunker = Chunker::new(chunk_values, remaining, &mut sink);
        while remaining > 0 {
            let block = reader.next_block()?.ok_or_else(|| {
                AtcError::Format(format!(
                    "store ended with {remaining} of {}..{} unread",
                    range.start, range.end
                ))
            })?;
            let take = block
                .len()
                .min(usize::try_from(remaining).unwrap_or(usize::MAX));
            chunker.push(&block[..take])?;
            remaining -= take as u64;
        }
        chunker.finish()
    }

    /// Streams shard `shard`'s sub-stream from its value position `from`
    /// to its end, in chunks of at most `chunk_values` (clamped to at
    /// least 1). `from > 0` seeks the shard with
    /// [`atc_core::AtcReader::seek_to_value`], lossless or lossy.
    ///
    /// # Errors
    ///
    /// Fails on unknown shards, on `from` past the shard's count, on
    /// seek/decode errors, and on `sink` errors.
    pub fn stream_shard_chunked<F>(
        &self,
        shard: usize,
        from: u64,
        chunk_values: usize,
        mut sink: F,
    ) -> Result<()>
    where
        F: FnMut(&[u64]) -> Result<()>,
    {
        let counts = &self.manifest.shard_counts;
        if shard >= counts.len() {
            return Err(AtcError::Format(format!(
                "no shard {shard} in a {}-shard store",
                counts.len()
            )));
        }
        if from > counts[shard] {
            return Err(AtcError::Format(format!(
                "offset {from} is past shard {shard}'s {} addresses",
                counts[shard]
            )));
        }
        let mut reader = StoreReader::open_with(&self.root, self.options.clone())?;
        let cursor = reader.shard(shard);
        if from > 0 {
            cursor.seek_to_value(from)?;
        }
        // A frame is the natural unit the shard reader already hands out.
        let mut chunker = Chunker::new(chunk_values, counts[shard] - from, &mut sink);
        while let Some(frame) = cursor.next_frame()? {
            chunker.push(frame)?;
        }
        chunker.finish()
    }
}

/// Regroups borrowed blocks of values into chunks of exactly
/// `chunk_values` (the last one may be short) for a sink.
struct Chunker<'s, F> {
    chunk: Vec<u64>,
    chunk_values: usize,
    sink: &'s mut F,
}

impl<'s, F: FnMut(&[u64]) -> Result<()>> Chunker<'s, F> {
    /// `expected` (how many values the caller means to push) only sizes
    /// the buffer, so a short read does not reserve a whole chunk.
    fn new(chunk_values: usize, expected: u64, sink: &'s mut F) -> Self {
        let chunk_values = chunk_values.max(1);
        let capacity = chunk_values.min(usize::try_from(expected).unwrap_or(usize::MAX));
        Self {
            chunk: Vec::with_capacity(capacity),
            chunk_values,
            sink,
        }
    }

    /// Bulk-copies `values` into the chunk, sinking each time it fills.
    fn push(&mut self, mut values: &[u64]) -> Result<()> {
        while !values.is_empty() {
            let take = (self.chunk_values - self.chunk.len()).min(values.len());
            self.chunk.extend_from_slice(&values[..take]);
            values = &values[take..];
            if self.chunk.len() == self.chunk_values {
                (self.sink)(&self.chunk)?;
                self.chunk.clear();
            }
        }
        Ok(())
    }

    /// Sinks the final partial chunk.
    fn finish(self) -> Result<()> {
        if !self.chunk.is_empty() {
            (self.sink)(&self.chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShardPolicy;
    use crate::writer::{AtcStore, StoreOptions};
    use atc_core::{AtcOptions, Mode};
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-store-svc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build(root: &Path, shards: usize, policy: ShardPolicy, n: u64) -> Vec<u64> {
        let mut s = AtcStore::create(
            root,
            Mode::Lossless,
            StoreOptions {
                shards,
                policy,
                atc: AtcOptions {
                    codec: "lz".into(),
                    buffer: 250,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        let mut addrs = Vec::new();
        for i in 0..n {
            let a = (i % 3) << 14 | (i * 8);
            s.code_from((i / 13) % 5, a).unwrap();
            addrs.push(a);
        }
        s.finish().unwrap();
        addrs
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreService>();
    }

    #[test]
    fn chunked_range_matches_reader_read_range() {
        let root = tmp("range");
        build(&root, 3, ShardPolicy::ThreadId, 8000);
        let service = StoreService::open(&root).unwrap();
        let mut reader = StoreReader::open(&root).unwrap();
        for (a, b) in [(0u64, 1u64), (0, 500), (777, 3003), (7999, 8000), (42, 42)] {
            let expect = reader.read_range(a..b).unwrap();
            let mut got = Vec::new();
            let mut chunks = 0usize;
            service
                .read_range_chunked(a..b, 100, |c| {
                    assert!(c.len() <= 100 && !c.is_empty());
                    chunks += 1;
                    got.extend_from_slice(c);
                    Ok(())
                })
                .unwrap();
            assert_eq!(got, expect, "range {a}..{b}");
            assert_eq!(chunks, (b - a).div_ceil(100) as usize, "range {a}..{b}");
        }
    }

    #[test]
    fn warm_cached_ranges_match_reader_read_range() {
        for (tag, policy) in [
            ("cached-rr", ShardPolicy::RoundRobin),
            ("cached-addr", ShardPolicy::AddressRange { shift: 14 }),
        ] {
            let root = tmp(tag);
            build(&root, 3, policy, 8000);
            let cache = atc_cache::SegmentCache::isolated(64 << 20);
            let options = ReadOptions {
                segment_cache: Some(Arc::clone(&cache)),
                ..ReadOptions::default()
            };
            let service = StoreService::open_with(&root, options).unwrap();
            let mut reader = StoreReader::open(&root).unwrap();
            let ranges = [(0u64, 1u64), (0, 500), (777, 3003), (7999, 8000), (42, 42)];
            // Pass 0 fills the cache, pass 1 reads every range warm.
            for pass in 0..2 {
                let before = cache.stats();
                for (a, b) in ranges {
                    let expect = reader.read_range(a..b).unwrap();
                    let mut got = Vec::new();
                    service
                        .read_range_chunked(a..b, 100, |c| {
                            got.extend_from_slice(c);
                            Ok(())
                        })
                        .unwrap();
                    assert_eq!(got, expect, "{tag} pass {pass} range {a}..{b}");
                }
                if pass == 1 {
                    let warm = cache.stats().since(&before);
                    assert!(warm.hits > 0, "{tag}: warm ranges hit");
                    assert_eq!(warm.misses, 0, "{tag}: every frame was cached");
                }
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn range_errors_before_any_chunk() {
        let root = tmp("range-err");
        build(&root, 2, ShardPolicy::RoundRobin, 100);
        let service = StoreService::open(&root).unwrap();
        // The inverted range is deliberate: it must be rejected.
        #[allow(clippy::reversed_empty_ranges)]
        for bad in [5..3u64, 50..101, 101..101] {
            let mut called = false;
            let err = service.read_range_chunked(bad.clone(), 8, |_| {
                called = true;
                Ok(())
            });
            assert!(err.is_err(), "range {bad:?}");
            assert!(!called, "no chunk before validation, range {bad:?}");
        }
        // A sink error aborts and propagates.
        let err = service
            .read_range_chunked(0..100, 8, |_| Err(AtcError::Format("sink says no".into())))
            .unwrap_err();
        assert!(err.to_string().contains("sink says no"));
    }

    #[test]
    fn chunked_shard_stream_matches_per_shard_cursor() {
        let root = tmp("shard");
        build(&root, 3, ShardPolicy::ThreadId, 6000);
        let service = StoreService::open(&root).unwrap();
        for shard in 0..3usize {
            let mut r = StoreReader::open(&root).unwrap();
            let expect = r.shard(shard).decode_all().unwrap();
            for from in [0u64, 1, 249, 250, 251, expect.len() as u64] {
                let mut got = Vec::new();
                service
                    .stream_shard_chunked(shard, from, 64, |c| {
                        got.extend_from_slice(c);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(got, &expect[from as usize..], "shard {shard} from {from}");
            }
        }
    }

    #[test]
    fn shard_stream_rejects_bad_coordinates() {
        let root = tmp("shard-err");
        build(&root, 2, ShardPolicy::RoundRobin, 100);
        let service = StoreService::open(&root).unwrap();
        assert!(service.stream_shard_chunked(2, 0, 8, |_| Ok(())).is_err());
        assert!(service.stream_shard_chunked(0, 51, 8, |_| Ok(())).is_err());
        // from == shard count: legal, empty.
        let mut any = false;
        service
            .stream_shard_chunked(0, 50, 8, |_| {
                any = true;
                Ok(())
            })
            .unwrap();
        assert!(!any);
    }

    #[test]
    fn open_validates_up_front() {
        assert!(StoreService::open("/nonexistent/store/root").is_err());
        let root = tmp("meta");
        build(&root, 2, ShardPolicy::RoundRobin, 10);
        let service = StoreService::open(&root).unwrap();
        assert_eq!(service.manifest().count, 10);
        assert!(service.merge_is_exact());
        assert_eq!(service.root(), root.as_path());
    }
}
