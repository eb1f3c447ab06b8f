//! Property-based tests for the codec substrate: every stage of the
//! bzip-class pipeline, the LZ codec, and the streaming adapters must
//! round-trip arbitrary bytes.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use atc_codec::bwt::{bwt_forward, bwt_inverse};
use atc_codec::mtf::{mtf_decode, mtf_encode};
use atc_codec::rle::{rle_decode, rle_encode};
use atc_codec::sais::suffix_array;
use atc_codec::{Bzip, Codec, CodecReader, CodecWriter, Lz, Store};

/// Thread counts exercised by the byte-identity tests.
///
/// Defaults to `[1, 2, 4, 8]`; the CI thread matrix overrides it with
/// `ATC_TEST_THREADS` (a single value or a comma list) so byte identity
/// across thread counts is pinned on real multi-core runners, not just
/// simulated on a single-core container.
fn test_threads() -> Vec<usize> {
    match std::env::var("ATC_TEST_THREADS") {
        Ok(s) => {
            let parsed: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| (1..=64).contains(&t))
                .collect();
            if parsed.is_empty() {
                vec![1, 2, 4, 8]
            } else {
                parsed
            }
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    #[test]
    fn sais_is_a_sorted_suffix_permutation(data in vec(any::<u8>(), 0..400)) {
        let sa = suffix_array(&data);
        // Permutation of 0..n.
        let mut idx: Vec<u32> = sa.clone();
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..data.len() as u32).collect::<Vec<_>>());
        // Sorted order.
        for w in sa.windows(2) {
            prop_assert!(data[w[0] as usize..] < data[w[1] as usize..]);
        }
    }

    #[test]
    fn bwt_roundtrip(data in vec(any::<u8>(), 0..2000)) {
        let (l, p) = bwt_forward(&data);
        prop_assert_eq!(bwt_inverse(&l, p).unwrap(), data);
    }

    #[test]
    fn mtf_roundtrip(data in vec(any::<u8>(), 0..2000)) {
        prop_assert_eq!(mtf_decode(&mtf_encode(&data)), data);
    }

    #[test]
    fn rle_roundtrip(data in vec(any::<u8>(), 0..2000)) {
        prop_assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
    }

    #[test]
    fn bzip_roundtrip(data in vec(any::<u8>(), 0..5000)) {
        let codec = Bzip::with_block_size(1024); // force multi-block paths
        prop_assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip(data in vec(any::<u8>(), 0..5000)) {
        let codec = Lz::with_block_size(1024);
        prop_assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn bzip_never_accepts_flipped_crc(data in vec(any::<u8>(), 64..512), flip in 0usize..8) {
        // Flip one CRC bit in the header: decompression must fail (the
        // other header fields may coincidentally still parse).
        let codec = Bzip::default();
        let mut packed = codec.compress(&data);
        // CRC occupies bytes [varint_len .. varint_len+4); varint of len<2^14
        // takes 1-2 bytes. Locate it by re-encoding the length.
        let mut header = Vec::new();
        atc_codec::varint::write_u64(&mut header, data.len() as u64).unwrap();
        let crc_off = header.len();
        packed[crc_off + flip / 8] ^= 1 << (flip % 8);
        prop_assert!(codec.decompress(&packed).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 32 }))]

    #[test]
    fn streaming_matches_oneshot(
        data in vec(any::<u8>(), 0..20_000),
        segment in 1usize..4096,
    ) {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut w = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), segment);
        w.write_all(&data).unwrap();
        let file = w.finish().unwrap();
        let mut r = CodecReader::new(&file[..], codec);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn store_is_identity(data in vec(any::<u8>(), 0..1000)) {
        let c = Store;
        prop_assert_eq!(c.compress(&data), data.clone());
        prop_assert_eq!(c.decompress(&data).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

    // The engine-backed writer must produce the inline writer's bytes,
    // and streams the *inline* reader decompresses identically, at every
    // thread count and segment size — the on-disk format never depends
    // on the writer's threading.
    #[test]
    fn parallel_writer_decodes_identically_via_serial_reader(
        data in vec(any::<u8>(), 0..20_000),
        segment in 1usize..4096,
    ) {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut serial =
            CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), segment);
        serial.write_all(&data).unwrap();
        let serial_file = serial.finish().unwrap();

        for threads in test_threads() {
            let mut w = CodecWriter::with_threads(
                Vec::new(),
                Arc::clone(&codec),
                segment,
                threads,
            );
            w.write_all(&data).unwrap();
            let file = w.finish().unwrap();
            // Byte-identical stream, not merely an equivalent one.
            prop_assert_eq!(&file, &serial_file, "stream bytes, threads={}", threads);

            let mut r = CodecReader::new(&file[..], Arc::clone(&codec));
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            prop_assert_eq!(&back, &data, "decoded bytes, threads={}", threads);
        }
    }

    // Progress while a worker is busy: an injected engine with one
    // worker parked on a gate must still finish the stream (the other
    // workers take every segment), and the output must be byte-identical
    // to the inline stream at every worker count.
    #[test]
    fn parked_worker_does_not_strand_segments(
        data in vec(any::<u8>(), 0..20_000),
    ) {
        let codec: Arc<dyn Codec> = Arc::new(Bzip::with_block_size(2048));
        let mut serial = CodecWriter::with_segment_size(Vec::new(), Arc::clone(&codec), 1024);
        serial.write_all(&data).unwrap();
        let (serial_file, serial_segments) = serial.finish_with_segments().unwrap();

        for workers in test_threads() {
            let engine = atc_engine::Engine::new(workers);
            // Park one worker on a gate until the stream is finished.
            // If the gate gives up waiting, the stream was stranded
            // behind it. (With one worker the gate would starve the
            // writer.)
            let (parked_tx, parked) = std::sync::mpsc::channel();
            let (gate, gate_rx) = std::sync::mpsc::channel::<()>();
            let gave_up = Arc::new(AtomicBool::new(false));
            if workers > 1 {
                let gave_up = Arc::clone(&gave_up);
                engine.submit(move || {
                    parked_tx.send(()).unwrap();
                    // Returns once the test drops `gate`.
                    let timeout = gate_rx.recv_timeout(Duration::from_secs(60));
                    gave_up.store(timeout == Err(RecvTimeoutError::Timeout), Ordering::Relaxed);
                });
                parked.recv().unwrap();
            }
            let mut w = CodecWriter::with_engine(
                Vec::new(),
                Arc::clone(&codec),
                1024,
                workers,
                engine.clone(),
            );
            w.write_all(&data).unwrap();
            let finished = w.finish_with_segments();
            prop_assert!(
                !gave_up.load(Ordering::Relaxed),
                "stream finished only after the gate gave up, workers={}", workers
            );
            let tasks_run = engine.stats().tasks_run;
            drop(gate);
            let (file, segments) = finished.unwrap();
            prop_assert_eq!(&file, &serial_file, "stream bytes, workers={}", workers);
            prop_assert_eq!(&segments, &serial_segments, "records, workers={}", workers);
            // One worker writes inline: only the threaded path submits.
            if workers > 1 {
                prop_assert!(
                    tasks_run > segments.len() as u64,
                    "{} tasks run for {} segments and the gate, workers={}",
                    tasks_run, segments.len(), workers
                );
            }
        }
    }
}

/// Every built-in codec, sized so multi-block paths are exercised.
fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Bzip::with_block_size(1024)),
        Box::new(Lz::with_block_size(1024)),
        Box::new(Store),
    ]
}

/// Asserts the streaming entry points agree byte-for-byte with the
/// one-shot ones, through a dirty scratch buffer (stale contents and
/// pre-existing capacity must not leak into the output).
fn assert_into_matches_oneshot(codec: &dyn Codec, data: &[u8], scratch: &mut Vec<u8>) {
    let packed = codec.compress(data);
    let n = codec.compress_into(data, scratch);
    assert_eq!(n, scratch.len(), "{}: returned length", codec.name());
    assert_eq!(&packed, scratch, "{}: compressed bytes", codec.name());

    let raw = codec.decompress(&packed).expect("own output decompresses");
    let packed_copy = scratch.clone();
    let m = codec
        .decompress_into(&packed_copy, scratch)
        .expect("own output decompresses (into)");
    assert_eq!(m, scratch.len(), "{}: returned length", codec.name());
    assert_eq!(&raw, scratch, "{}: decompressed bytes", codec.name());
    assert_eq!(raw, data, "{}: roundtrip", codec.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

    // The streaming API is only a scratch-reuse variant: its bytes must be
    // exactly the one-shot bytes for every codec and every input,
    // regardless of what the scratch buffer held before.
    #[test]
    fn compress_into_is_byte_identical_to_compress(
        data in vec(any::<u8>(), 0..12_000),
        stale in vec(any::<u8>(), 0..256),
    ) {
        for codec in all_codecs() {
            let mut scratch = stale.clone();
            assert_into_matches_oneshot(&*codec, &data, &mut scratch);
            // Second call through the now-warm scratch: still identical.
            assert_into_matches_oneshot(&*codec, &data, &mut scratch);
        }
    }
}

/// The degenerate segment sizes the streaming writers can produce: the
/// empty segment (never framed, but the API must handle it) and the
/// 1-byte segment, plus the sizes around the block boundary.
#[test]
fn compress_into_edge_segment_sizes() {
    for size in [0usize, 1, 2, 1023, 1024, 1025, 4096] {
        let data: Vec<u8> = (0..size).map(|i| (i % 17) as u8).collect();
        for codec in all_codecs() {
            let mut scratch = vec![0xEE; 64]; // dirty scratch
            assert_into_matches_oneshot(&*codec, &data, &mut scratch);
        }
    }
}

/// `compress_into` on an empty input must clear the scratch and write
/// nothing, for every codec (the writers rely on "empty in, empty out").
#[test]
fn compress_into_empty_input_clears_scratch() {
    for codec in all_codecs() {
        let mut scratch = vec![1u8; 100];
        assert_eq!(
            codec.compress_into(b"", &mut scratch),
            0,
            "{}",
            codec.name()
        );
        assert!(scratch.is_empty(), "{}", codec.name());
    }
}
