//! Engine micro-benchmarks: fire-and-forget task throughput from one
//! producer at several worker counts.
//!
//! Like the thread-axis benches, a single-core host can only show
//! multi-worker ≈ serial plus scheduling overhead; the point of the
//! worker axis is the CI runner, where the same ids land in the
//! `BENCH_ci` artifact and the `engine/` gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::mpsc;

use atc_engine::Engine;

/// A few hundred cycles of integer work — enough that a task is not pure
/// scheduler overhead, small enough that submission cost still shows.
fn spin(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
    for _ in 0..256 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let tasks = 4096usize;
    g.throughput(Throughput::Elements(tasks as u64));

    for workers in [1usize, 2, 4] {
        let engine = Engine::new(workers);

        // Fire-and-forget submit → result channel.
        g.bench_with_input(BenchmarkId::new("submit", workers), &engine, |b, engine| {
            b.iter(|| {
                let (tx, rx) = mpsc::channel::<u64>();
                for i in 0..tasks {
                    let tx = tx.clone();
                    engine.submit(move || {
                        let _ = tx.send(spin(i as u64));
                    });
                }
                drop(tx);
                black_box(rx.iter().fold(0u64, u64::wrapping_add))
            });
        });
    }

    // One producer, four workers: every worker pops the one shared
    // queue, so none idles while the producer has a backlog (a static
    // per-producer split would leave 3 of 4 idle). The id is kept so the
    // `engine/` gate keeps comparing against the same baseline entry.
    let engine = Engine::new(4);
    g.bench_with_input(BenchmarkId::new("steal_skewed", 4), &engine, |b, engine| {
        b.iter(|| {
            let (tx, rx) = mpsc::channel::<u64>();
            for i in 0..tasks {
                let tx = tx.clone();
                engine.submit(move || {
                    let _ = tx.send(spin(i as u64));
                });
            }
            drop(tx);
            black_box(rx.iter().fold(0u64, u64::wrapping_add))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
