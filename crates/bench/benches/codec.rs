//! Micro-benchmarks for the byte-level back ends (bzip2-class vs gzip-class
//! vs store).
//!
//! Backs Tables 1 and 2: the codec dominates compression time and
//! contributes 50–65% of decompression time in the paper's measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atc_codec::{Bzip, Codec, Lz, Store};

/// Bytesorted-trace-like input: long runs with embedded counters.
fn structured(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| match i * 8 / n {
            0..=3 => 0u8,         // high columns: zeros
            4 => 0xF2,            // region byte
            5 => (i / 256) as u8, // slow counter
            _ => (i % 251) as u8, // fast counter
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(10);
    let n = 1 << 20;
    let data = structured(n);
    g.throughput(Throughput::Bytes(n as u64));

    let codecs: Vec<(&str, Box<dyn Codec>)> = vec![
        ("bzip", Box::new(Bzip::default())),
        ("lz", Box::new(Lz::default())),
        ("store", Box::new(Store)),
    ];
    for (name, codec) in &codecs {
        g.bench_with_input(BenchmarkId::new("compress", name), &data, |b, d| {
            b.iter(|| black_box(codec.compress(black_box(d))));
        });
        // Streaming entry point with a reused scratch buffer: the
        // steady-state segment path of the writers (no per-call Vec).
        g.bench_with_input(BenchmarkId::new("compress_into", name), &data, |b, d| {
            let mut scratch = Vec::new();
            b.iter(|| black_box(codec.compress_into(black_box(d), &mut scratch)));
        });
        let packed = codec.compress(&data);
        g.bench_with_input(BenchmarkId::new("decompress", name), &packed, |b, p| {
            b.iter(|| black_box(codec.decompress(black_box(p)).unwrap()));
        });
        g.bench_with_input(
            BenchmarkId::new("decompress_into", name),
            &packed,
            |b, p| {
                let mut scratch = Vec::new();
                b.iter(|| black_box(codec.decompress_into(black_box(p), &mut scratch).unwrap()));
            },
        );
    }
    g.finish();
}

/// Thread-count axis for the reader's consumer-driven readahead window
/// over a many-segment stream (1 = inline): workers decode the window's
/// segments as they finish (no batch barrier), so decode throughput
/// should track the thread count on multi-core hosts.
fn bench_readahead(c: &mut Criterion) {
    use atc_codec::{CodecReader, CodecWriter};
    use std::io::{Read, Write};
    use std::sync::Arc;

    let mut g = c.benchmark_group("readahead");
    g.sample_size(10);
    let n = 8 << 20;
    let data = structured(n);
    g.throughput(Throughput::Bytes(n as u64));

    let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
    let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 1 << 20);
    w.write_all(&data).unwrap();
    let file = w.finish().unwrap();

    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("bzip", threads), &file, |b, f| {
            b.iter(|| {
                let mut r = CodecReader::with_threads(&f[..], Arc::clone(&codec), threads);
                let mut back = Vec::with_capacity(n);
                r.read_to_end(&mut back).unwrap();
                black_box(back.len())
            });
        });
    }
    g.finish();
}

/// Thread-count axis for the streaming writer: segments compress on the
/// worker pool while the producer keeps feeding.
fn bench_parallel_writer(c: &mut Criterion) {
    use atc_codec::{CodecWriter, DEFAULT_SEGMENT_SIZE};
    use std::io::Write;
    use std::sync::Arc;

    let mut g = c.benchmark_group("parallel_writer");
    g.sample_size(10);
    let n = 8 << 20;
    let data = structured(n);
    g.throughput(Throughput::Bytes(n as u64));
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("bzip", threads), &data, |b, d| {
            let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
            b.iter(|| {
                let mut w = CodecWriter::with_threads(
                    Vec::with_capacity(1 << 20),
                    Arc::clone(&codec),
                    DEFAULT_SEGMENT_SIZE,
                    threads,
                );
                w.write_all(black_box(d)).unwrap();
                black_box(w.finish().unwrap())
            });
        });
    }
    g.finish();
}

/// CRC-32 over a 1 MiB block: every compressed block pays this on both
/// the write and the verify path, so it must run at SIMD-width speed.
fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    let n = 1 << 20;
    let data = structured(n);
    g.throughput(Throughput::Bytes(n as u64));
    g.bench_function("crc32", |b| {
        b.iter(|| black_box(atc_codec::crc::crc32(black_box(&data))));
    });
    g.finish();
}

fn bench_bwt(c: &mut Criterion) {
    let mut g = c.benchmark_group("bwt");
    g.sample_size(10);
    let n = 1 << 19;
    let data = structured(n);
    g.throughput(Throughput::Bytes(n as u64));
    g.bench_function("forward", |b| {
        b.iter(|| black_box(atc_codec::bwt::bwt_forward(black_box(&data))));
    });
    let (last, primary) = atc_codec::bwt::bwt_forward(&data);
    g.bench_function("inverse", |b| {
        b.iter(|| black_box(atc_codec::bwt::bwt_inverse(black_box(&last), primary).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_parallel_writer,
    bench_readahead,
    bench_crc,
    bench_bwt
);
criterion_main!(benches);
