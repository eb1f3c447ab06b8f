//! Micro-benchmarks for the cache substrate (filter + stack simulator).
//!
//! Backs Figures 3 and 4: the stack simulator runs 5 set counts x 2 traces
//! per benchmark, so its per-access cost bounds the experiment wall time —
//! and the cache filter runs in front of *every* ingest path, so its
//! single-thread speed caps end-to-end compression throughput.
//!
//! Axes: `cache_filter/filter_200k_accesses` (the gated headline number:
//! one filter pass over a pre-generated access stream) and
//! `cache_filter/batch/N` (batch-size sensitivity of the batched entry
//! point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atc_cache::{Cache, CacheConfig, CacheFilter, StackSim};
use atc_trace::{spec, Access};

fn bench_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_filter");
    g.sample_size(10);
    let n = 200_000usize;
    let p = spec::profile("482.sphinx3").unwrap();
    // Generate once: the bench measures the filter, not the workload
    // generator it used to share its loop with.
    let accesses: Vec<Access> = p.workload(7).take(n).collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("filter_200k_accesses", |b| {
        let mut out = Vec::with_capacity(n);
        b.iter(|| {
            let mut f = CacheFilter::paper();
            out.clear();
            f.filter_batch(&accesses, &mut out);
            black_box(out.len())
        });
    });
    // Batch-size sensitivity: how small can an ingest adapter's read
    // chunks get before per-batch overhead shows up?
    for batch in [1_024usize, 16_384, 65_536] {
        g.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                let mut f = CacheFilter::paper();
                out.clear();
                for chunk in accesses.chunks(batch) {
                    f.filter_batch(chunk, &mut out);
                }
                black_box(out.len())
            });
        });
    }
    g.finish();
}

fn bench_stack_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_sim");
    g.sample_size(10);
    let n = 500_000usize;
    let trace: Vec<u64> = {
        let mut f = CacheFilter::paper();
        let p = spec::profile("429.mcf").unwrap();
        f.filter(p.workload(7)).take(n).collect()
    };
    g.throughput(Throughput::Elements(n as u64));
    for sets in [64usize, 1024, 16384] {
        g.bench_with_input(BenchmarkId::new("assoc_1_to_32", sets), &trace, |b, t| {
            b.iter(|| {
                let mut sim = StackSim::new(sets, 32);
                sim.run(t.iter().copied());
                black_box(sim.miss_ratio(32))
            });
        });
    }
    g.bench_with_input(
        BenchmarkId::new("explicit_lru_4way", 128),
        &trace,
        |b, t| {
            b.iter(|| {
                let mut cache = Cache::new(CacheConfig::paper_l1());
                black_box(cache.access_batch(t));
                black_box(cache.miss_ratio())
            });
        },
    );
    g.finish();
}

criterion_group!(benches, bench_filter, bench_stack_sim);
criterion_main!(benches);
