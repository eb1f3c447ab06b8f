//! Forged segment lengths: the leading `varint(compressed_len)` of a
//! codec stream is rewritten to 2⁶² (`ff×8 3f`). Neither reader may size
//! a buffer from it — every artefact read without a sidecar (lossy
//! `chunk-*.atc`, lossy `info.atc`, lossless `data.atc` once `seek.atc`
//! is gone) must end in an `AtcError`, inline and through the readahead
//! feeder, never in an allocation abort.
//!
//! Forged interval traces: a lossy `info.atc` re-encoded through the
//! codec stream writer with records that lie about the trace's shape
//! must be refused by `AtcReader::open` (which decodes and validates the
//! interval trace once), never panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use atc_codec::{codec_by_name, Codec, CodecReader, CodecWriter};
use atc_core::format::{chunk_file_name, IntervalRecord, DATA_FILE, INFO_FILE, SEEK_FILE};
use atc_core::{AtcError, AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode, ReadOptions};

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

/// Opens and drains the trace at both thread counts; each must fail
/// with [`TRUNCATED_SEGMENT`].
fn assert_rejected(dir: &Path, what: &str) {
    for threads in [1usize, 2] {
        let options = ReadOptions {
            threads,
            ..ReadOptions::default()
        };
        let result = AtcReader::open_with(dir, options).and_then(|mut r| r.decode_all());
        let err = result.expect_err(&format!("{what}, threads={threads}"));
        assert!(
            err.to_string().contains(TRUNCATED_SEGMENT),
            "{what}, threads={threads}: {err}"
        );
    }
}

/// What a forged 2⁶² length over a real file's bytes must report: a
/// corrupt segment, not a trace that ended early or holds 0 addresses.
const TRUNCATED_SEGMENT: &str = "segment truncated: got ";

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

/// Rewrites the lossy trace's `info.atc` with `edit` applied to its
/// records, through the codec stream writer and `IntervalRecord::write`.
fn rewrite_info(dir: &Path, edit: impl FnOnce(&mut Vec<IntervalRecord>)) {
    let codec: Arc<dyn Codec> = Arc::from(codec_by_name("lz").unwrap());
    let path = dir.join(INFO_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let mut reader = CodecReader::new(&bytes[..], Arc::clone(&codec));
    let mut records = Vec::new();
    while let Some(record) = IntervalRecord::read(&mut reader).unwrap() {
        records.push(record);
    }
    edit(&mut records);
    let mut w = CodecWriter::new(Vec::new(), codec);
    for record in &records {
        record.write(&mut w).unwrap();
    }
    std::fs::write(&path, w.finish().unwrap()).unwrap();
}

/// An edit that forges an interval trace.
type Forgery = fn(&mut Vec<IntervalRecord>);

/// An imitation of chunk `chunk_id` without translations.
fn imitate(chunk_id: u64) -> IntervalRecord {
    IntervalRecord::Imitate {
        chunk_id,
        translations: Box::default(),
    }
}

#[test]
fn forged_interval_traces_are_refused_at_open() {
    // 50 000 addresses in intervals of 10 000: five records.
    let cases: [(&str, Forgery); 5] = [
        ("interval 0 (chunk 1,", |r| r[0] = imitate(1)),
        ("interval 0 (chunk 7,", |r| {
            r[0] = IntervalRecord::NewChunk {
                chunk_id: 7,
                len: 10_000,
            }
        }),
        ("interval 1 (chunk 1, 5000 addresses)", |r| {
            r.insert(
                1,
                IntervalRecord::NewChunk {
                    chunk_id: 1,
                    len: 5_000,
                },
            );
            r.truncate(5);
        }),
        ("covers 40000 of 50000 addresses", |r| {
            r.pop();
        }),
        ("interval 5 (chunk 0,", |r| r.push(imitate(0))),
    ];
    let dir = scratch("intervals");
    build(&dir, lossy());
    rewrite_info(&dir, |r| assert_eq!(r.len(), 5));
    let honest = AtcReader::open(&dir).unwrap().decode_all().unwrap();
    assert_eq!(honest.len(), 50_000, "an unedited rewrite reads back");
    std::fs::remove_dir_all(&dir).unwrap();
    // Each case: the forgery, and what the refusal names.
    for (why, edit) in cases {
        let dir = scratch("intervals");
        build(&dir, lossy());
        rewrite_info(&dir, edit);
        let err = AtcReader::open(&dir).unwrap_err();
        assert!(
            matches!(&err, AtcError::Format(m) if m.contains(why)),
            "{why}: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
