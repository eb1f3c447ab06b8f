//! Property-based tests for the sharded store: sharded write → merged
//! read must reproduce the input stream exactly for every (shard count,
//! thread count, engine worker count) combination — including engines
//! oversubscribed with more shards than workers — and per-key sub-streams
//! must survive thread-id routing byte-for-byte.

use proptest::collection::vec;
use proptest::prelude::*;

use atc_core::{AtcOptions, Mode, ReadOptions};
use atc_engine::Engine;
use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atc-store-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drains the merged stream through the per-value cursor (`decode_all`
/// rides `next_block`).
fn decode_each(r: &mut StoreReader) -> Vec<u64> {
    let mut out = Vec::new();
    while let Some(v) = r.decode().unwrap() {
        out.push(v);
    }
    out
}

/// The (shard count, thread count) grid the roundtrip invariants run on:
/// 1 (degenerate), 2 (even), 7 (odd, larger than the thread budget) ×
/// serial and 4-thread pipelines.
const SHARDS: [usize; 3] = [1, 2, 7];
const THREADS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn round_robin_roundtrip_exact_for_all_shard_thread_combos(
        addrs in vec(any::<u64>(), 0..4000),
        buffer in 1usize..700,
    ) {
        for shards in SHARDS {
            for threads in THREADS {
                let root = tmp(&format!("rr-{shards}-{threads}"));
                let mut s = AtcStore::create(
                    &root,
                    Mode::Lossless,
                    StoreOptions {
                        shards,
                        policy: ShardPolicy::RoundRobin,
                        atc: AtcOptions {
                            codec: "bzip".into(),
                            buffer,
                            threads,
                        },
                        max_buffered_bytes: None,
                    },
                )
                .unwrap();
                s.code_all(addrs.iter().copied()).unwrap();
                let stats = s.finish().unwrap();
                prop_assert_eq!(stats.count, addrs.len() as u64);

                // Read back at the same thread count and serially: the
                // on-disk store never records threading.
                for read_threads in [1usize, threads] {
                    let mut r = StoreReader::open_with(
                        &root,
                        ReadOptions {
                            threads: read_threads,
                            ..ReadOptions::default()
                        },
                    )
                    .unwrap();
                    let back = r.decode_all().unwrap();
                    prop_assert_eq!(
                        &back,
                        &addrs,
                        "shards={} threads={} read_threads={}",
                        shards,
                        threads,
                        read_threads
                    );
                    prop_assert!(r.decode().unwrap().is_none());
                }
                std::fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    /// Engine-oversubscription pin: the on-disk bytes of every shard must
    /// be identical whether the store runs inline (threads = 1), or
    /// submits to an engine with fewer workers than shards (7 shards on 1
    /// or 2 workers), or with more workers than the submitter window —
    /// and the merged read must be exact on equally mismatched read-side
    /// engines.
    #[test]
    fn roundtrip_exact_at_every_engine_worker_count(
        addrs in vec(any::<u64>(), 1..3000),
        buffer in 1usize..500,
    ) {
        for shards in SHARDS {
            // Reference: fully inline store (no engine at all).
            let serial_root = tmp(&format!("eng-ref-{shards}"));
            let mut s = AtcStore::create(
                &serial_root,
                Mode::Lossless,
                StoreOptions {
                    shards,
                    policy: ShardPolicy::RoundRobin,
                    atc: AtcOptions {
                        codec: "bzip".into(),
                        buffer,
                        threads: 1,
                    },
                    max_buffered_bytes: None,
                },
            )
            .unwrap();
            s.code_all(addrs.iter().copied()).unwrap();
            s.finish().unwrap();
            let shard_bytes = |root: &std::path::Path| -> Vec<Vec<u8>> {
                (0..shards)
                    .map(|i| {
                        std::fs::read(
                            root.join(atc_core::format::shard_dir_name(i)).join("data.atc"),
                        )
                        .unwrap()
                    })
                    .collect()
            };
            let expect_bytes = shard_bytes(&serial_root);

            for workers in [1usize, 2, 4, 8] {
                let root = tmp(&format!("eng-{shards}-{workers}"));
                let engine = Engine::new(workers);
                let mut s = AtcStore::create_with_engine(
                    &root,
                    Mode::Lossless,
                    StoreOptions {
                        shards,
                        policy: ShardPolicy::RoundRobin,
                        atc: AtcOptions {
                            codec: "bzip".into(),
                            buffer,
                            threads: 4,
                        },
                        max_buffered_bytes: None,
                    },
                    engine,
                )
                .unwrap();
                s.code_all(addrs.iter().copied()).unwrap();
                s.finish().unwrap();
                prop_assert_eq!(
                    &shard_bytes(&root),
                    &expect_bytes,
                    "on-disk bytes must not depend on engine workers \
                     (shards={} workers={})",
                    shards,
                    workers
                );

                // Merged read back through an equally mismatched engine.
                let mut r = StoreReader::open_with(
                    &root,
                    ReadOptions {
                        threads: 4,
                        engine: Some(Engine::new(workers)),
                        ..ReadOptions::default()
                    },
                )
                .unwrap();
                prop_assert_eq!(
                    &r.decode_all().unwrap(),
                    &addrs,
                    "shards={} workers={}",
                    shards,
                    workers
                );
                prop_assert!(r.decode().unwrap().is_none());
                std::fs::remove_dir_all(&root).unwrap();
            }
            std::fs::remove_dir_all(&serial_root).unwrap();
        }
    }

    /// The round-robin zipper read a block at a time (`decode_all`) and
    /// stepped a value at a time (`decode`) must both hand out the input
    /// (including the final partial rotation and single-shard stores).
    #[test]
    fn zipper_matches_stepwise_merge(
        addrs in vec(any::<u64>(), 0..3000),
        buffer in 1usize..400,
    ) {
        for shards in SHARDS {
            let root = tmp(&format!("zip-{shards}"));
            let mut s = AtcStore::create(
                &root,
                Mode::Lossless,
                StoreOptions {
                    shards,
                    policy: ShardPolicy::RoundRobin,
                    atc: AtcOptions {
                        codec: "store".into(),
                        buffer,
                        threads: 1,
                    },
                    max_buffered_bytes: None,
                },
            )
            .unwrap();
            s.code_all(addrs.iter().copied()).unwrap();
            s.finish().unwrap();

            let mut zipped = StoreReader::open(&root).unwrap();
            let mut stepwise = StoreReader::open(&root).unwrap();
            let a = zipped.decode_all().unwrap();
            let b = decode_each(&mut stepwise);
            prop_assert_eq!(&a, &addrs, "zipper exact (shards={})", shards);
            prop_assert_eq!(&b, &addrs, "stepwise exact (shards={})", shards);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn thread_id_substreams_survive_sharding(
        addrs in vec(any::<u64>(), 1..2000),
        keys in 1u64..5,
    ) {
        for shards in SHARDS {
            let root = tmp(&format!("tid-{shards}"));
            let mut s = AtcStore::create(
                &root,
                Mode::Lossless,
                StoreOptions {
                    shards,
                    policy: ShardPolicy::ThreadId,
                    atc: AtcOptions {
                        codec: "lz".into(),
                        buffer: 256,
                        threads: 1,
                    },
                    max_buffered_bytes: None,
                },
            )
            .unwrap();
            for (i, &a) in addrs.iter().enumerate() {
                s.code_from(i as u64 % keys, a).unwrap();
            }
            s.finish().unwrap();

            // Each shard must hold exactly the concatenation of its
            // keys' sub-streams, in arrival order.
            let mut r = StoreReader::open(&root).unwrap();
            for shard in 0..shards {
                let expect: Vec<u64> = addrs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (*i as u64 % keys) % shards as u64 == shard as u64)
                    .map(|(_, &a)| a)
                    .collect();
                let got = r.shard(shard).decode_all().unwrap();
                prop_assert_eq!(&got, &expect, "shards={} shard={}", shards, shard);
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn addr_range_merged_read_replays_arrival_order(
        addrs in vec(any::<u64>(), 0..2000),
        shift in 4u32..40,
    ) {
        // The recorded interleave track makes the data-dependent policy
        // merge exact; stripping it (the old-manifest fixture) falls
        // back to shard concatenation.
        let shards = 3usize;
        let policy = ShardPolicy::AddressRange { shift };
        let root = tmp("ar");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            StoreOptions {
                shards,
                policy,
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 128,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        s.code_all(addrs.iter().copied()).unwrap();
        s.finish().unwrap();

        let mut r = StoreReader::open(&root).unwrap();
        prop_assert!(r.merge_is_exact());
        prop_assert_eq!(&r.decode_all().unwrap(), &addrs);

        // Old-manifest fixture: drop the track, rewind the version.
        let path = root.join(atc_core::format::STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("interleave="))
            .map(|l| if l.starts_with("version=") { "version=1" } else { l })
            .collect::<Vec<_>>()
            .join("\n") + "\n";
        std::fs::write(&path, old).unwrap();
        let mut expect = Vec::new();
        for shard in 0..shards {
            expect.extend(
                addrs
                    .iter()
                    .filter(|&&a| policy.route(0, 0, a, shards) == shard),
            );
        }
        let mut r = StoreReader::open(&root).unwrap();
        prop_assert!(!r.merge_is_exact());
        prop_assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

// The interleave-track acceptance grid: byte-identical replay of the
// merged stream versus the pre-shard input for the data-dependent
// policies over shards {1, 2, 7} × engine workers {1, 2, 8}, through
// both the block and the per-value cursor. Fewer cases than the blocks
// above — each case walks 2 policies × 9 (shards, workers) stores.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn exact_interleave_replay_for_data_dependent_policies(
        addrs in vec(any::<u64>(), 1..1500),
        shift in 2u32..24,
        buffer in 1usize..300,
    ) {
        for shards in SHARDS {
            for workers in [1usize, 2, 8] {
                for policy in [
                    ShardPolicy::AddressRange { shift },
                    ShardPolicy::ThreadId,
                ] {
                    let root = tmp(&format!(
                        "ix-{shards}-{workers}-{}",
                        policy.to_name().replace(':', "_")
                    ));
                    let engine = Engine::new(workers);
                    let mut s = AtcStore::create_with_engine(
                        &root,
                        Mode::Lossless,
                        StoreOptions {
                            shards,
                            policy,
                            atc: AtcOptions {
                                codec: "lz".into(),
                                buffer,
                                threads: 4,
                            },
                            max_buffered_bytes: None,
                        },
                        engine,
                    )
                    .unwrap();
                    for (i, &a) in addrs.iter().enumerate() {
                        // Thread-id routing needs keys; the other
                        // policies ignore them.
                        s.code_from(i as u64 % 5, a).unwrap();
                    }
                    s.finish().unwrap();

                    let mut r = StoreReader::open_with(
                        &root,
                        ReadOptions {
                            threads: 4,
                            engine: Some(Engine::new(workers)),
                            ..ReadOptions::default()
                        },
                    )
                    .unwrap();
                    prop_assert!(r.merge_is_exact());
                    prop_assert_eq!(
                        &r.decode_all().unwrap(),
                        &addrs,
                        "policy={} shards={} workers={}",
                        policy.to_name(),
                        shards,
                        workers
                    );
                    prop_assert!(r.decode().unwrap().is_none());

                    let mut stepwise = StoreReader::open(&root).unwrap();
                    prop_assert_eq!(
                        &decode_each(&mut stepwise),
                        &addrs,
                        "stepwise policy={} shards={} workers={}",
                        policy.to_name(),
                        shards,
                        workers
                    );
                    std::fs::remove_dir_all(&root).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Lossy stores are range-addressable too: a shard's intervals are its
    // frames, so under every policy a `read_range` (forwards, then back
    // to the start) equals the slice of the store's own linear decode —
    // lossy output is not the input, so the decode is the reference.
    #[test]
    fn lossy_read_range_matches_linear_slice(
        lines in vec(0u64..256, 1..3000),
        interval in 1usize..300,
        buffer in 1usize..200,
        start_sel in any::<u64>(),
        len_sel in any::<u64>(),
    ) {
        // Lines of four 16 MiB regions: new chunks, identity and
        // translated imitations.
        let addrs: Vec<u64> = lines.iter().map(|&v| ((v >> 6) << 24) | ((v & 63) << 6)).collect();
        let n = addrs.len() as u64;
        let start = start_sel % (n + 1);
        let end = start + len_sel % (n - start + 1);
        for policy in [
            ShardPolicy::RoundRobin,
            ShardPolicy::AddressRange { shift: 24 },
            ShardPolicy::ThreadId,
        ] {
            let root = tmp(&format!("lossy-{}", policy.to_name().replace(':', "_")));
            let mut s = AtcStore::create(
                &root,
                Mode::Lossy(atc_core::LossyConfig {
                    interval_len: interval,
                    ..atc_core::LossyConfig::default()
                }),
                StoreOptions {
                    shards: 3,
                    policy,
                    atc: AtcOptions {
                        codec: "lz".into(),
                        buffer,
                        threads: 1,
                    },
                    max_buffered_bytes: None,
                },
            )
            .unwrap();
            for (i, &a) in addrs.iter().enumerate() {
                s.code_from(i as u64 % 5, a).unwrap();
            }
            s.finish().unwrap();

            let linear = StoreReader::open(&root).unwrap().decode_all().unwrap();
            prop_assert_eq!(linear.len(), addrs.len());
            let mut r = StoreReader::open(&root).unwrap();
            let (s, e) = (start as usize, end as usize);
            prop_assert_eq!(&r.read_range(start..end).unwrap(), &linear[s..e], "policy={}", policy.to_name());
            prop_assert_eq!(&r.read_range(0..end).unwrap(), &linear[..e], "policy={}", policy.to_name());
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
