//! Property-based tests over the public API: round-trip identities and
//! structural invariants that must hold for *arbitrary* inputs, not just
//! the well-behaved traces the experiments use.

use proptest::collection::vec;
use proptest::prelude::*;

use atc::core::bytesort::{bytesort_forward, bytesort_inverse, unshuffle, unshuffle_inverse};
use atc::core::hist::{translate_addr, ByteHistograms, Translation};
use atc::core::{AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode};

fn scratch(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atc-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Thread count override for the threaded container proptests.
///
/// The CI thread matrix sets `ATC_TEST_THREADS` (a single value, or a
/// comma list whose first entry is used here) so the byte-identity
/// invariant is exercised at a pinned parallelism on real multi-core
/// runners; unset, the proptest strategy picks the count.
fn env_threads() -> Option<usize> {
    std::env::var("ATC_TEST_THREADS")
        .ok()?
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .find(|&t| (1..=64).contains(&t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytesort_roundtrip(addrs in vec(any::<u64>(), 0..2000)) {
        let cols = bytesort_forward(&addrs);
        prop_assert_eq!(bytesort_inverse(&cols).unwrap(), addrs);
    }

    #[test]
    fn unshuffle_roundtrip(addrs in vec(any::<u64>(), 0..2000)) {
        let cols = unshuffle(&addrs);
        prop_assert_eq!(unshuffle_inverse(&cols).unwrap(), addrs);
    }

    #[test]
    fn bytesort_is_column_permutation(addrs in vec(any::<u64>(), 1..500)) {
        // Every output column is a permutation of the corresponding input
        // byte column (sorting reorders, never alters, bytes).
        let cols = bytesort_forward(&addrs);
        for (j, col) in cols.iter().enumerate() {
            let mut expect: Vec<u8> =
                addrs.iter().map(|&a| (a >> (8 * (7 - j))) as u8).collect();
            let mut got = col.clone();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect, "column {}", j);
        }
    }

    #[test]
    fn histogram_distance_properties(
        a in vec(any::<u64>(), 1..500),
        b in vec(any::<u64>(), 1..500),
    ) {
        let sa = ByteHistograms::from_addrs(&a).sorted();
        let sb = ByteHistograms::from_addrs(&b).sorted();
        let dab = sa.distance(&sb);
        let dba = sb.distance(&sa);
        prop_assert!((dab - dba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=2.0).contains(&dab), "bounds: {}", dab);
        prop_assert_eq!(sa.distance(&sa), 0.0, "identity");
    }

    #[test]
    fn translations_are_permutations(
        a in vec(any::<u64>(), 1..300),
        b in vec(any::<u64>(), 1..300),
    ) {
        let sa = ByteHistograms::from_addrs(&a).sorted();
        let sb = ByteHistograms::from_addrs(&b).sorted();
        for j in 0..8 {
            let t = Translation::between(sa.permutation(j), sb.permutation(j));
            prop_assert!(Translation::from_table(*t.table()).is_some());
        }
    }

    #[test]
    fn translation_preserves_distinctness(
        addrs in vec(any::<u64>(), 1..300),
        other in vec(any::<u64>(), 1..300),
    ) {
        // Byte translation maps distinct addresses to distinct addresses
        // (the paper: "permutations t[j] map each unique address of
        // interval A to a unique address").
        let sa = ByteHistograms::from_addrs(&addrs).sorted();
        let sb = ByteHistograms::from_addrs(&other).sorted();
        let mut translations: [Option<Translation>; 8] = Default::default();
        for (j, slot) in translations.iter_mut().enumerate() {
            *slot = Some(Translation::between(sa.permutation(j), sb.permutation(j)));
        }
        let mut uniq_in: Vec<u64> = addrs.clone();
        uniq_in.sort_unstable();
        uniq_in.dedup();
        let mut uniq_out: Vec<u64> = addrs
            .iter()
            .map(|&x| translate_addr(x, &translations))
            .collect();
        uniq_out.sort_unstable();
        uniq_out.dedup();
        prop_assert_eq!(uniq_in.len(), uniq_out.len());
    }

    #[test]
    fn atc_lossless_roundtrip_arbitrary_values(
        values in vec(any::<u64>(), 0..3000),
        buffer in 1usize..500,
        seed in any::<u64>(),
    ) {
        let dir = scratch(seed);
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions { codec: "bzip".into(), buffer, threads: 1 },
        ).unwrap();
        w.code_all(values.iter().copied()).unwrap();
        w.finish().unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(out, values);
    }

    #[test]
    fn atc_lossy_preserves_length(
        values in vec(any::<u64>(), 0..3000),
        interval in 1usize..400,
        seed in any::<u64>(),
    ) {
        let dir = scratch(seed.wrapping_add(1));
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(LossyConfig {
                interval_len: interval,
                ..LossyConfig::default()
            }),
            AtcOptions { codec: "bzip".into(), buffer: (interval / 2).max(1), threads: 1 },
        ).unwrap();
        w.code_all(values.iter().copied()).unwrap();
        let stats = w.finish().unwrap();
        prop_assert_eq!(stats.count, values.len() as u64);
        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(out.len(), values.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The whole container, written and read at several thread counts,
    // must reproduce arbitrary value streams exactly — and the
    // multi-threaded writer's stats must match the serial writer's.
    #[test]
    fn atc_threaded_container_matches_serial(
        values in vec(any::<u64>(), 0..3000),
        buffer in 1usize..500,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let threads = env_threads().unwrap_or(threads);
        let write = |threads: usize, tag: u64| {
            let dir = scratch(tag);
            let mut w = AtcWriter::with_options(
                &dir,
                Mode::Lossless,
                AtcOptions { codec: "bzip".into(), buffer, threads },
            ).unwrap();
            w.code_all(values.iter().copied()).unwrap();
            let stats = w.finish().unwrap();
            (dir, stats)
        };
        let (serial_dir, serial_stats) = write(1, seed.wrapping_add(101));
        let (threaded_dir, threaded_stats) = write(threads, seed.wrapping_add(202));
        prop_assert_eq!(serial_stats, threaded_stats);

        let mut r = atc::core::AtcReader::open_with(
            &threaded_dir,
            atc::core::ReadOptions { threads, ..Default::default() },
        ).unwrap();
        let out = r.decode_all().unwrap();
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&threaded_dir);
        prop_assert_eq!(out, values);
    }

    // Random access must agree with the linear decode at every frame
    // boundary, for every codec and worker count — including frames that
    // land mid-segment and the one-past-the-end park position (small
    // buffers over multi-segment traces cross segment boundaries).
    #[test]
    fn seek_matches_linear_decode(
        values in vec(any::<u64>(), 0..3000),
        buffer in 1usize..500,
        codec_idx in 0usize..3,
        threads_sel in 0usize..2,
        frame_sel in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let codec = ["bzip", "lz", "store"][codec_idx];
        let threads = [1usize, 4][threads_sel];
        let dir = scratch(seed.wrapping_add(303));
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions { codec: codec.into(), buffer, threads: 1 },
        ).unwrap();
        w.code_all(values.iter().copied()).unwrap();
        w.finish().unwrap();

        let buffer = buffer as u64;
        let total_frames = (values.len() as u64).div_ceil(buffer);
        let frame = frame_sel % (total_frames + 1);
        let mut r = atc::core::AtcReader::open_with(
            &dir,
            atc::core::ReadOptions { threads, ..Default::default() },
        ).unwrap();
        r.seek(frame).unwrap();
        let rest = r.decode_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let at = ((frame * buffer) as usize).min(values.len());
        prop_assert_eq!(rest, &values[at..]);
    }

    // Cache-enabled reads are byte-identical to the cold decode, the
    // warm pass decodes no segment, and every frame the cold pass parsed
    // (a partial tail frame included) comes back as a recorded hit.
    #[test]
    fn cached_reads_match_cold_with_hits(
        values in vec(any::<u64>(), 0..3000),
        buffer in 1usize..500,
        seed in any::<u64>(),
    ) {
        use std::sync::Arc;
        use atc::cache::SegmentCache;
        let dir = scratch(seed.wrapping_add(404));
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions { codec: "lz".into(), buffer, threads: 1 },
        ).unwrap();
        w.code_all(values.iter().copied()).unwrap();
        w.finish().unwrap();

        let cache = Arc::new(SegmentCache::new(64 << 20));
        let open = |cache: &Arc<SegmentCache>| atc::core::AtcReader::open_with(
            &dir,
            atc::core::ReadOptions {
                segment_cache: Some(cache.clone()),
                ..Default::default()
            },
        ).unwrap();
        let mut cold = open(&cache);
        let cold_out = cold.decode_all().unwrap();
        let cold_frames = cold.frame_stats().frames;
        let cold_stats = cache.stats();
        let mut warm = open(&cache);
        let warm_out = warm.decode_all().unwrap();
        let warm_decoded = warm.segments_decoded();
        let hits = cache.stats().hits;
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&cold_out, &values);
        prop_assert_eq!(&warm_out, &values);
        prop_assert_eq!(cold_frames, values.len().div_ceil(buffer) as u64);
        prop_assert_eq!(cold_stats.hits, 0);
        prop_assert_eq!(cold_stats.bytes, values.len() as u64 * 8);
        prop_assert_eq!(warm_decoded, Some(0));
        prop_assert_eq!(hits, cold_frames);
    }

    // Lossy random access: interval k is the trace's frame k, so a seek
    // to any address (mid-interval, the partial last interval, one past
    // the end) followed by a drain must equal the linear decode's tail,
    // with and without an attached cache.
    #[test]
    fn lossy_seek_to_value_matches_linear_decode(
        lines in vec(0u64..256, 0..3000),
        interval in 1usize..400,
        threshold_pct in 0u32..50,
        buffer in 1usize..300,
        pos_sel in any::<u64>(),
        seed in any::<u64>(),
    ) {
        use atc::cache::SegmentCache;
        // Lines of four regions in random order: new chunks, identity
        // and translated imitations.
        let values: Vec<u64> = lines.iter().map(|&v| ((v >> 6) << 24) | ((v & 63) << 6)).collect();
        let dir = scratch(seed.wrapping_add(505));
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(LossyConfig {
                interval_len: interval,
                threshold: f64::from(threshold_pct) / 100.0,
                ..LossyConfig::default()
            }),
            AtcOptions { codec: "lz".into(), buffer, threads: 1 },
        ).unwrap();
        w.code_all(values.iter().copied()).unwrap();
        w.finish().unwrap();

        let linear = AtcReader::open(&dir).unwrap().decode_all().unwrap();
        let pos = pos_sel % (values.len() as u64 + 1);
        let cache = SegmentCache::isolated(64 << 20);
        for segment_cache in [None, Some(cache)] {
            let mut r = atc::core::AtcReader::open_with(
                &dir,
                atc::core::ReadOptions { segment_cache, ..Default::default() },
            ).unwrap();
            r.seek_to_value(pos).unwrap();
            let rest = r.decode_all().unwrap();
            prop_assert_eq!(rest, &linear[pos as usize..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(linear.len(), values.len());
    }

    #[test]
    fn tcgen_roundtrip_arbitrary(values in vec(any::<u64>(), 0..2000)) {
        use std::sync::Arc;
        let tc = atc::tcgen::Tcgen::new(
            atc::tcgen::TcgenConfig { table_lines: 256 },
            Arc::new(atc::codec::Bzip::default()),
        );
        let packed = tc.compress(&values);
        prop_assert_eq!(tc.decompress(&packed).unwrap(), values);
    }

    #[test]
    fn stack_sim_matches_cache(
        blocks in vec(0u64..5000, 1..2000),
        sets_log in 0usize..6,
        ways in 1usize..8,
    ) {
        use atc::cache::{Cache, CacheConfig, StackSim};
        let sets = 1 << sets_log;
        let mut sim = StackSim::new(sets, 8);
        sim.run(blocks.iter().copied());
        let mut cache = Cache::new(CacheConfig { sets, ways, block_shift: 6 });
        for &b in &blocks {
            cache.access_block(b);
        }
        prop_assert!((sim.miss_ratio(ways) - cache.miss_ratio()).abs() < 1e-9);
    }
}
