//! Forged segment lengths: the leading `varint(compressed_len)` of a
//! codec stream is rewritten to 2⁶² (`ff×8 3f`). Neither reader may size
//! a buffer from it — every artefact read without a sidecar (lossy
//! `chunk-*.atc`, lossy `info.atc`, lossless `data.atc` once `seek.atc`
//! is gone) must end in an `AtcError`, inline and through the readahead
//! feeder, never in an allocation abort.

use std::path::{Path, PathBuf};

use atc_core::format::{chunk_file_name, DATA_FILE, INFO_FILE, SEEK_FILE};
use atc_core::{AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode, ReadOptions};

/// `varint(1 << 62)`.
const HUGE_LEN: [u8; 9] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atc-forged-len-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(dir: &Path, mode: Mode) {
    let mut w = AtcWriter::with_options(
        dir,
        mode,
        AtcOptions {
            codec: "lz".into(),
            buffer: 1000,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all((0..50_000u64).map(|i| i.wrapping_mul(0x517C)))
        .unwrap();
    w.finish().unwrap();
}

/// Replaces the stream's first varint with [`HUGE_LEN`].
fn forge_first_length(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    let header = bytes.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut forged = HUGE_LEN.to_vec();
    forged.extend_from_slice(&bytes[header..]);
    std::fs::write(path, forged).unwrap();
}

/// Opens and drains the trace at both thread counts; each must fail.
fn assert_rejected(dir: &Path, what: &str) {
    for threads in [1usize, 2] {
        let options = ReadOptions {
            threads,
            ..ReadOptions::default()
        };
        let result = AtcReader::open_with(dir, options).and_then(|mut r| r.decode_all());
        assert!(result.is_err(), "{what}, threads={threads}");
    }
}

fn lossy() -> Mode {
    Mode::Lossy(LossyConfig {
        interval_len: 10_000,
        ..LossyConfig::default()
    })
}

#[test]
fn lossy_chunk_with_forged_length_is_an_error() {
    let dir = scratch("chunk");
    build(&dir, lossy());
    forge_first_length(&dir.join(chunk_file_name(0)));
    assert_rejected(&dir, "chunk-000000.atc");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lossy_info_with_forged_length_is_an_error() {
    let dir = scratch("info");
    build(&dir, lossy());
    forge_first_length(&dir.join(INFO_FILE));
    assert_rejected(&dir, "info.atc");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sidecarless_data_with_forged_length_is_an_error() {
    let dir = scratch("data");
    build(&dir, Mode::Lossless);
    std::fs::remove_file(dir.join(SEEK_FILE)).unwrap();
    forge_first_length(&dir.join(DATA_FILE));
    assert_rejected(&dir, "data.atc");
    std::fs::remove_dir_all(&dir).unwrap();
}
