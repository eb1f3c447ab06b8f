//! Forged `seek.atc` sidecars: the CRC is recomputable, so a sidecar that
//! passes its checksum can still lie about every length. Through both
//! users of the table — `seek()` on a plain reader and a `segment_cache`
//! open — each lie must end in an `AtcError` or a correct decode via the
//! linear fallback, never a panic or an allocation sized by the lie.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use atc_cache::SegmentCache;
use atc_codec::{codec_by_name, crc, varint, CodecWriter};
use atc_core::format::{self, Meta, SeekTable, DATA_FILE, META_FILE, SEEK_FILE};
use atc_core::{AtcOptions, AtcReader, AtcWriter, Mode, ReadOptions, Result};

const BUFFER: usize = 1000;
const SEEK_FRAME: u64 = 150;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atc-forged-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a lossless trace of several codec segments.
fn build(dir: &Path) -> Vec<u64> {
    let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
    let mut w = AtcWriter::with_options(
        dir,
        Mode::Lossless,
        AtcOptions {
            codec: "lz".into(),
            buffer: BUFFER,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(addrs.iter().copied()).unwrap();
    w.finish().unwrap();
    addrs
}

/// The sidecar's `(compressed_len, raw_len)` pairs.
fn lengths(dir: &Path) -> Vec<(u64, u64)> {
    let table = SeekTable::decode(&std::fs::read(dir.join(SEEK_FILE)).unwrap()).unwrap();
    table
        .segments()
        .iter()
        .map(|s| (s.compressed_len, s.raw_len))
        .collect()
}

/// Encodes a sidecar with arbitrary lengths and a *valid* CRC (what
/// `SeekTable::encode` would write if it did not validate).
fn forge(dir: &Path, lens: &[(u64, u64)]) {
    let mut out = b"ATCSEEK1".to_vec();
    varint::write_u64(&mut out, lens.len() as u64).unwrap();
    for &(compressed, raw) in lens {
        varint::write_u64(&mut out, compressed).unwrap();
        varint::write_u64(&mut out, raw).unwrap();
    }
    let crc = crc::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(dir.join(SEEK_FILE), out).unwrap();
}

/// Rewrites the trace's payload as `frames` (empty ones included) with a
/// sidecar and `meta` that agree with it — a consistent trace whose
/// frame layout the writer would never produce.
fn rewrite_frames(dir: &Path, frames: &[&[u64]]) {
    let codec = Arc::from(codec_by_name("lz").unwrap());
    let mut w = CodecWriter::new(Vec::new(), codec);
    for frame in frames {
        format::write_frame(&mut w, frame).unwrap();
    }
    let (data, segments) = w.finish_with_segments().unwrap();
    std::fs::write(dir.join(DATA_FILE), data).unwrap();
    let table = SeekTable::from_records(segments).unwrap();
    std::fs::write(dir.join(SEEK_FILE), table.encode()).unwrap();
    let meta_path = dir.join(META_FILE);
    let mut meta = Meta::parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap();
    meta.seek_segments = Some(table.len() as u64);
    std::fs::write(&meta_path, meta.to_text()).unwrap();
}

/// One way of reading the trace under test.
type ReadPath = fn(&Path) -> Result<Vec<u64>>;

/// `seek()` on a reader opened without a cache, then decode to the end.
fn via_seek(dir: &Path) -> Result<Vec<u64>> {
    let mut r = AtcReader::open(dir)?;
    r.seek(SEEK_FRAME)?;
    r.decode_all()
}

/// Options for a `segment_cache` open (the path `atcd` takes), with a
/// cold private cache.
fn cached() -> ReadOptions {
    ReadOptions {
        segment_cache: Some(Arc::new(SegmentCache::new(64 << 20))),
        ..ReadOptions::default()
    }
}

/// A `segment_cache` open: seek, then decode.
fn via_cache(dir: &Path) -> Result<Vec<u64>> {
    let mut r = AtcReader::open_with(dir, cached())?;
    r.seek(SEEK_FRAME)?;
    r.decode_all()
}

/// A `segment_cache` open read linearly from the start.
fn via_cache_linear(dir: &Path) -> Result<Vec<u64>> {
    AtcReader::open_with(dir, cached())?.decode_all()
}

/// Runs every path over the forged sidecar: an `Ok` must be the right
/// values; `want_fallback` additionally demands the linear fallback (the
/// sidecar is unusable, the trace is not).
fn check(dir: &Path, addrs: &[u64], want_fallback: bool, what: &str) {
    let tail = &addrs[SEEK_FRAME as usize * BUFFER..];
    let paths: [(&str, ReadPath, &[u64]); 3] = [
        ("seek", via_seek, tail),
        ("cache+seek", via_cache, tail),
        ("cache", via_cache_linear, addrs),
    ];
    for (name, path, expect) in paths {
        match path(dir) {
            Ok(got) => assert_eq!(got, expect, "{what} via {name}"),
            Err(e) => assert!(!want_fallback, "{what} via {name}: {e}"),
        }
    }
}

#[test]
fn overflowing_prefix_sums_fall_back_to_linear_decode() {
    let dir = scratch("overflow");
    let addrs = build(&dir);
    let real = lengths(&dir);
    assert!(real.len() >= 2, "need a second segment to overflow into");

    // The issue's shape: (u64::MAX, 1), (2, 1), padded to the segment
    // count `meta` cross-checks.
    let mut lens = real.clone();
    lens[0] = (u64::MAX, 1);
    lens[1] = (2, 1);
    forge(&dir, &lens);
    assert!(SeekTable::decode(&std::fs::read(dir.join(SEEK_FILE)).unwrap()).is_err());
    check(&dir, &addrs, true, "compressed_len overflow");

    let mut lens = real;
    lens[0].1 = u64::MAX;
    forge(&dir, &lens);
    assert!(SeekTable::decode(&std::fs::read(dir.join(SEEK_FILE)).unwrap()).is_err());
    check(&dir, &addrs, true, "raw_len overflow");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compressed_len_past_eof_falls_back_to_linear_decode() {
    let dir = scratch("past-eof");
    let addrs = build(&dir);
    let mut lens = lengths(&dir);
    // 16 TiB "segment" over a payload of a few hundred KiB: sizing the
    // read buffer from it would abort the process.
    lens[0].0 = 1 << 44;
    forge(&dir, &lens);
    check(&dir, &addrs, true, "compressed_len past EOF");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inflated_raw_len_is_an_error_not_an_allocation() {
    let dir = scratch("raw-len");
    let addrs = build(&dir);
    let mut lens = lengths(&dir);
    lens[0].1 = 1 << 44;
    forge(&dir, &lens);
    // The table is self-consistent, so it is used — and the first segment
    // decoding to fewer bytes than declared is caught after the decode.
    check(&dir, &addrs, false, "inflated raw_len");
    assert!(via_seek(&dir).is_err());
    assert!(via_cache_linear(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_frames_read_like_the_linear_path() {
    let dir = scratch("empty-frames");
    let addrs = build(&dir);
    let mut frames: Vec<&[u64]> = addrs.chunks(BUFFER).collect();
    // A trailing empty frame: the reader must end cleanly (every later
    // call too), not re-parse it forever.
    frames.push(&[]);
    rewrite_frames(&dir, &frames);
    let linear = |dir: &Path| AtcReader::open(dir)?.decode_all();
    assert_eq!(linear(&dir).unwrap(), addrs);
    check(&dir, &addrs, true, "trailing empty frame");
    let mut r = AtcReader::open_with(&dir, cached()).unwrap();
    assert_eq!(r.decode_all().unwrap(), addrs);
    for _ in 0..3 {
        assert_eq!(r.decode().unwrap(), None);
        assert!(r.next_frame().unwrap().is_none());
    }

    // A mid-trace empty frame: linear reads through it, with or without
    // a cache. It shifts every later frame's raw offset, so a seek past
    // it may fail, but must not return wrong values.
    frames.pop();
    frames.insert(3, &[]);
    rewrite_frames(&dir, &frames);
    assert_eq!(linear(&dir).unwrap(), addrs);
    assert_eq!(via_cache_linear(&dir).unwrap(), addrs);
    check(&dir, &addrs, false, "mid-trace empty frame");
    std::fs::remove_dir_all(&dir).unwrap();
}
