//! Container-format integration: reopening, codec matrix, metadata, and
//! failure handling of the ATC trace directory.

use atc::core::{AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("atc-ct-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_trace() -> Vec<u64> {
    (0..5000u64)
        .map(|i| 0x4000_0000 + (i % 700) * 64 + (i / 700) * 0x10_0000)
        .collect()
}

#[test]
fn codec_matrix_both_modes() {
    let trace = sample_trace();
    for codec in ["bzip", "lz", "store"] {
        for lossy in [false, true] {
            let dir = scratch(&format!("matrix-{codec}-{lossy}"));
            let mode = if lossy {
                Mode::Lossy(LossyConfig {
                    interval_len: 500,
                    ..LossyConfig::default()
                })
            } else {
                Mode::Lossless
            };
            let mut w = AtcWriter::with_options(
                &dir,
                mode,
                AtcOptions {
                    codec: codec.into(),
                    buffer: 250,
                    threads: 1,
                },
            )
            .unwrap();
            w.code_all(trace.iter().copied()).unwrap();
            w.finish().unwrap();

            let mut r = AtcReader::open(&dir).unwrap();
            assert_eq!(r.meta().codec, codec);
            let out = r.decode_all().unwrap();
            assert_eq!(out.len(), trace.len(), "codec={codec} lossy={lossy}");
            if !lossy {
                assert_eq!(out, trace);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn meta_reflects_parameters() {
    let dir = scratch("meta");
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossy(LossyConfig {
            interval_len: 123,
            threshold: 0.25,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "lz".into(),
            buffer: 77,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(0..1000u64).unwrap();
    w.finish().unwrap();

    let r = AtcReader::open(&dir).unwrap();
    let m = r.meta();
    assert_eq!(m.mode, "lossy");
    assert_eq!(m.codec, "lz");
    assert_eq!(m.buffer, 77);
    assert_eq!(m.interval_len, 123);
    assert!((m.threshold - 0.25).abs() < 1e-12);
    assert_eq!(m.count, 1000);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_multiple_times() {
    let dir = scratch("reopen");
    let trace = sample_trace();
    let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();
    for _ in 0..3 {
        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.decode_all().unwrap(), trace);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_chunk_file_is_reported() {
    let dir = scratch("missing-chunk");
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossy(LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "store".into(),
            buffer: 50,
            threads: 1,
        },
    )
    .unwrap();
    // Two distinct intervals -> two chunks.
    w.code_all((0..100u64).map(|i| i * 64)).unwrap();
    w.code_all(std::iter::repeat_n(42u64, 100)).unwrap();
    w.finish().unwrap();
    std::fs::remove_file(dir.join("chunk-000001.atc")).unwrap();
    let mut r = AtcReader::open(&dir).unwrap();
    assert!(r.decode_all().is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_info_is_reported() {
    let dir = scratch("bad-info");
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossy(LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "bzip".into(),
            buffer: 50,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all((0..1000u64).map(|i| i * 64)).unwrap();
    w.finish().unwrap();
    // Truncate the interval trace.
    let info = dir.join("info.atc");
    let bytes = std::fs::read(&info).unwrap();
    std::fs::write(&info, &bytes[..bytes.len() / 2]).unwrap();
    // The interval trace is decoded and validated when the reader opens.
    assert!(AtcReader::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_codec_in_meta_rejected() {
    let dir = scratch("bad-codec");
    let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
    w.code_all([1u64, 2, 3]).unwrap();
    w.finish().unwrap();
    let meta = dir.join("meta");
    let text = std::fs::read_to_string(&meta).unwrap();
    std::fs::write(&meta, text.replace("codec=bzip", "codec=zstd")).unwrap();
    assert!(AtcReader::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn large_single_interval_trace() {
    // Interval larger than the whole trace: one partial interval, stored
    // losslessly even in lossy mode.
    let dir = scratch("one-interval");
    let trace = sample_trace();
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossy(LossyConfig {
            interval_len: 1_000_000,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "bzip".into(),
            buffer: 1000,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    let stats = w.finish().unwrap();
    assert_eq!(stats.chunks, 1);
    assert_eq!(stats.imitations, 0);
    let out = AtcReader::open(&dir).unwrap().decode_all().unwrap();
    assert_eq!(out, trace, "partial interval must be exact");
    std::fs::remove_dir_all(&dir).unwrap();
}
