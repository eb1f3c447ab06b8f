//! Sharded-store benchmarks: shard-count axis through the store
//! write/merged-read paths, and the borrowed `next_frame` read against
//! the materializing `decode_all`.
//!
//! Like the thread-axis benches, the shard axis can only show
//! sharding ≈ serial on a single-core host; the speedup materializes on
//! multi-core runners because shards share no state.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atc_bench::workloads::filtered_trace;
use atc_core::{AtcOptions, AtcReader, AtcWriter, Mode, ReadOptions};
use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};
use atc_trace::spec;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("atc-bench-store-{tag}-{}", std::process::id()))
}

fn bench_store_shards(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    let n = 400_000usize;
    let p = spec::profile("482.sphinx3").unwrap();
    let trace = filtered_trace(p, n, 7);
    g.throughput(Throughput::Elements(n as u64));

    let opts = |shards: usize| StoreOptions {
        shards,
        policy: ShardPolicy::RoundRobin,
        atc: AtcOptions {
            codec: "bzip".into(),
            buffer: 50_000,
            threads: 4,
        },
        max_buffered_bytes: None,
    };

    for shards in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("write", shards), &trace, |b, t| {
            b.iter_batched(
                || {
                    let root = scratch(&format!("w-{shards}"));
                    let _ = std::fs::remove_dir_all(&root);
                    root
                },
                |root| {
                    let mut s = AtcStore::create(&root, Mode::Lossless, opts(shards)).unwrap();
                    s.code_all(t.iter().copied()).unwrap();
                    black_box(s.finish().unwrap())
                },
                BatchSize::LargeInput,
            );
        });
        let _ = std::fs::remove_dir_all(scratch(&format!("w-{shards}")));

        // Merged read-back over a prepared store.
        let root = scratch(&format!("r-{shards}"));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = AtcStore::create(&root, Mode::Lossless, opts(shards)).unwrap();
        s.code_all(trace.iter().copied()).unwrap();
        s.finish().unwrap();
        g.bench_function(BenchmarkId::new("read", shards), |b| {
            b.iter(|| {
                let mut r = StoreReader::open_with(
                    &root,
                    ReadOptions {
                        threads: 4,
                        ..ReadOptions::default()
                    },
                )
                .unwrap();
                black_box(r.decode_all().unwrap().len())
            });
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    // Track-driven exact merge under data-dependent routing: the same
    // trace packed by address region, read back in exact arrival order
    // from the recorded interleave track (vs the rotation zipper above).
    for shards in [2usize, 4] {
        let root = scratch(&format!("tr-{shards}"));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                policy: ShardPolicy::AddressRange { shift: 14 },
                ..opts(shards)
            },
        )
        .unwrap();
        s.code_all(trace.iter().copied()).unwrap();
        s.finish().unwrap();
        g.bench_function(BenchmarkId::new("read_interleave", shards), |b| {
            b.iter(|| {
                let mut r = StoreReader::open_with(
                    &root,
                    ReadOptions {
                        threads: 4,
                        ..ReadOptions::default()
                    },
                )
                .unwrap();
                assert!(r.merge_is_exact());
                black_box(r.decode_all().unwrap().len())
            });
        });
        let _ = std::fs::remove_dir_all(&root);
    }
    g.finish();
}

/// The two read shapes on one trace: `decode` materializes the whole
/// trace (`decode_all`, i.e. `next_frame` + extend), `next_frame` only
/// borrows each frame.
fn bench_read_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("atc_read_path");
    g.sample_size(10);
    let n = 400_000usize;
    let p = spec::profile("482.sphinx3").unwrap();
    let trace = filtered_trace(p, n, 7);
    g.throughput(Throughput::Elements(n as u64));

    let dir = scratch("paths");
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossless,
        AtcOptions {
            codec: "bzip".into(),
            buffer: 50_000,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();

    for threads in [1usize, 4] {
        let open = |threads: usize| {
            AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap()
        };
        g.bench_function(BenchmarkId::new("decode", threads), |b| {
            b.iter(|| {
                let mut r = open(threads);
                black_box(r.decode_all().unwrap().len())
            });
        });
        g.bench_function(BenchmarkId::new("next_frame", threads), |b| {
            b.iter(|| {
                let mut r = open(threads);
                let mut total = 0usize;
                let mut sum = 0u64;
                while let Some(frame) = r.next_frame().unwrap() {
                    total += frame.len();
                    // Touch the data so the borrow is not optimized away.
                    sum = sum.wrapping_add(frame[0]);
                }
                black_box((total, sum))
            });
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group!(benches, bench_store_shards, bench_read_paths);
criterion_main!(benches);
