//! The stage budget, as a replay.
//!
//! The libraries carry no spans yet, so the per-stage cost is measured
//! outside-in: the reference filtered trace is framed exactly as
//! `AtcWriter` frames it (`buffer` addresses → `bytesort_forward` →
//! columns back to back behind a varint count), cut into
//! `DEFAULT_SEGMENT_SIZE` segments and `DEFAULT_BLOCK_SIZE` blocks, and
//! every public stage function is timed on those bytes, forward and
//! inverse. The replayed block bytes are compared with `Bzip::compress`
//! so a codec change that makes the replay stale shows up as
//! `codec.replay_matches = 0` instead of a silently wrong budget.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atc_codec::bitio::{BitReader, BitWriter};
use atc_codec::bwt::{bwt_forward_in, bwt_inverse};
use atc_codec::crc::crc32;
use atc_codec::huffman::{Decoder, Encoder};
use atc_codec::mtf::{mtf_decode, mtf_encode_into};
use atc_codec::rle::{rle_decode, rle_encode_into, ALPHABET, EOB};
use atc_codec::sais::SaisScratch;
use atc_codec::{
    codec_by_name, varint, Bzip, Codec, CodecWriter, Store, DEFAULT_BLOCK_SIZE,
    DEFAULT_SEGMENT_SIZE,
};
use atc_core::bytesort::{bytesort_forward, columns_to_bytes, BytesortInverse, COLUMNS};
use atc_core::hist::ByteHistograms;
use atc_core::{AtcOptions, AtcReader, AtcWriter, Classification, PhaseClassifier};

use crate::spec::{lossy_config, Workload, BUFFER};

/// Most filtered addresses replayed (whole frames): enough for ten
/// frames and eight segments, short enough for a traced run's budget.
pub const REPLAY_MAX_ADDRS: usize = 1_000_000;

/// Runs `f`, adding its duration to `acc`.
fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// Per-stage durations of the bzip block pipeline, both directions.
#[derive(Default)]
struct BlockStages {
    crc: Duration,
    bwt_fwd: Duration,
    mtf_enc: Duration,
    rle_enc: Duration,
    huffman_enc: Duration,
    huffman_dec: Duration,
    rle_dec: Duration,
    mtf_dec: Duration,
    bwt_inv: Duration,
}

impl BlockStages {
    fn total(&self) -> Duration {
        // CRC runs once per direction; `crc` accumulates both.
        self.crc
            + self.bwt_fwd
            + self.mtf_enc
            + self.rle_enc
            + self.huffman_enc
            + self.huffman_dec
            + self.rle_dec
            + self.mtf_dec
            + self.bwt_inv
    }
}

/// Reusable block buffers, as `Bzip`'s private scratch keeps them.
#[derive(Default)]
struct Scratch {
    sais: SaisScratch,
    last_col: Vec<u8>,
    mtf: Vec<u8>,
    syms: Vec<usize>,
    freqs: Vec<u64>,
}

/// Replays `Bzip::compress_block` and its inverse on one block through
/// the public stage functions, appending the block's bytes to `out`.
fn replay_block(
    block: &[u8],
    out: &mut Vec<u8>,
    scratch: &mut Scratch,
    t: &mut BlockStages,
) -> Result<(), String> {
    let crc = timed(&mut t.crc, || crc32(block));
    let primary = timed(&mut t.bwt_fwd, || {
        bwt_forward_in(block, &mut scratch.sais, &mut scratch.last_col)
    });
    timed(&mut t.mtf_enc, || {
        mtf_encode_into(&scratch.last_col, &mut scratch.mtf)
    });
    timed(&mut t.rle_enc, || {
        rle_encode_into(&scratch.mtf, &mut scratch.syms)
    });
    let syms = &scratch.syms;
    let freqs = &mut scratch.freqs;
    let payload = timed(&mut t.huffman_enc, || {
        freqs.clear();
        freqs.resize(ALPHABET, 0);
        for &s in syms {
            freqs[s] += 1;
        }
        let enc = Encoder::from_frequencies(freqs);
        let mut bits = BitWriter::with_capacity(syms.len() / 2);
        enc.write_table(&mut bits);
        for &s in syms {
            enc.encode(&mut bits, s);
        }
        bits.into_bytes()
    });
    let vec_write = "write to a Vec cannot fail";
    varint::write_u64(out, block.len() as u64).expect(vec_write);
    out.extend_from_slice(&crc.to_le_bytes());
    varint::write_u64(out, u64::from(primary)).expect(vec_write);
    varint::write_u64(out, payload.len() as u64).expect(vec_write);
    out.extend_from_slice(&payload);

    let decoded = timed(&mut t.huffman_dec, || -> Result<Vec<usize>, String> {
        let mut bits = BitReader::new(&payload);
        let dec = Decoder::read_table(&mut bits, ALPHABET).ok_or("replay: bad Huffman table")?;
        let mut syms = Vec::with_capacity(block.len() / 2 + 16);
        loop {
            let s = dec
                .decode(&mut bits)
                .ok_or("replay: truncated Huffman stream")?;
            syms.push(s);
            if s == EOB {
                return Ok(syms);
            }
        }
    })?;
    let mtf = timed(&mut t.rle_dec, || rle_decode(&decoded)).map_err(|e| e.to_string())?;
    let last_col = timed(&mut t.mtf_dec, || mtf_decode(&mtf));
    let data =
        timed(&mut t.bwt_inv, || bwt_inverse(&last_col, primary)).map_err(|e| e.to_string())?;
    let back = timed(&mut t.crc, || crc32(&data));
    if back != crc || data != block {
        return Err("replay: block did not survive its own stage chain".into());
    }
    Ok(())
}

/// Times `codec` whole-call on every segment; returns (compress,
/// decompress) durations.
fn whole_codec(codec: &dyn Codec, segments: &[&[u8]]) -> Result<(Duration, Duration), String> {
    let (mut comp, mut decomp) = (Duration::ZERO, Duration::ZERO);
    let (mut packed, mut raw) = (Vec::new(), Vec::new());
    for seg in segments {
        timed(&mut comp, || codec.compress_into(seg, &mut packed));
        timed(&mut decomp, || codec.decompress_into(&packed, &mut raw))
            .map_err(|e| e.to_string())?;
        if raw != *seg {
            return Err(format!("replay: {} round trip differs", codec.name()));
        }
    }
    Ok((comp, decomp))
}

/// Runs the whole replay on a prefix of `trace` and returns the
/// per-layer metrics it yields. `dir` is scratch space for the
/// single-directory writer/reader measurement.
///
/// # Errors
///
/// Fails when a stage chain does not reproduce its input or a library
/// call errors; a stale replay (`Bzip` bytes differ) is *not* an error.
pub fn stage_replay(
    w: &Workload,
    trace: &[u64],
    dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let frames = (trace.len().min(REPLAY_MAX_ADDRS) / BUFFER).max(1);
    let prefix = &trace[..(frames * BUFFER).min(trace.len())];
    let n = prefix.len() as f64;
    let per_addr = |d: Duration| d.as_secs_f64() * 1e9 / n;
    let mut out = Vec::new();

    // core: bytesort both ways, building the framed byte stream.
    let (mut sort_fwd, mut sort_inv) = (Duration::ZERO, Duration::ZERO);
    let mut framed = Vec::with_capacity(prefix.len() * 8 + 64);
    let mut inverse = BytesortInverse::default();
    for frame in prefix.chunks(BUFFER) {
        let bytes = timed(&mut sort_fwd, || columns_to_bytes(&bytesort_forward(frame)));
        let back = timed(&mut sort_inv, || -> Result<bool, String> {
            inverse.begin(frame.len());
            for col in bytes.chunks_exact(frame.len()) {
                inverse.push_column(col).map_err(|e| e.to_string())?;
            }
            Ok(inverse.finish().map_err(|e| e.to_string())? == frame)
        })?;
        if !back || bytes.len() != frame.len() * COLUMNS {
            return Err("replay: bytesort round trip differs".into());
        }
        varint::write_u64(&mut framed, frame.len() as u64).expect("write to a Vec cannot fail");
        framed.extend_from_slice(&bytes);
    }
    out.push(("core.bytesort_fwd_ns_per_addr", per_addr(sort_fwd)));
    out.push(("core.bytesort_inv_ns_per_addr", per_addr(sort_inv)));

    // codec: the bzip stage chain per block, checked against Bzip itself.
    let segments: Vec<&[u8]> = framed.chunks(DEFAULT_SEGMENT_SIZE).collect();
    let bzip = Bzip::default();
    let mut stages = BlockStages::default();
    let mut scratch = Scratch::default();
    let (mut replayed, mut packed, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bzip_comp, mut bzip_decomp) = (Duration::ZERO, Duration::ZERO);
    let mut matches = true;
    // Stage chain and whole call alternate segment by segment, so a
    // change of machine speed mid-replay cannot skew their ratio.
    for seg in &segments {
        replayed.clear();
        for block in seg.chunks(DEFAULT_BLOCK_SIZE) {
            replay_block(block, &mut replayed, &mut scratch, &mut stages)?;
        }
        timed(&mut bzip_comp, || bzip.compress_into(seg, &mut packed));
        matches &= replayed == packed;
        timed(&mut bzip_decomp, || bzip.decompress_into(&packed, &mut raw))
            .map_err(|e| e.to_string())?;
        if raw != *seg {
            return Err("replay: bzip round trip differs".into());
        }
    }
    let (comp, decomp) = if w.codec == bzip.name() {
        (bzip_comp, bzip_decomp)
    } else {
        let codec = codec_by_name(w.codec).ok_or_else(|| format!("no codec {}", w.codec))?;
        whole_codec(codec.as_ref(), &segments)?
    };
    out.push(("codec.crc_ns_per_addr", per_addr(stages.crc) / 2.0));
    out.push(("codec.bwt_fwd_ns_per_addr", per_addr(stages.bwt_fwd)));
    out.push(("codec.mtf_enc_ns_per_addr", per_addr(stages.mtf_enc)));
    out.push(("codec.rle_enc_ns_per_addr", per_addr(stages.rle_enc)));
    out.push((
        "codec.huffman_enc_ns_per_addr",
        per_addr(stages.huffman_enc),
    ));
    out.push((
        "codec.huffman_dec_ns_per_addr",
        per_addr(stages.huffman_dec),
    ));
    out.push(("codec.rle_dec_ns_per_addr", per_addr(stages.rle_dec)));
    out.push(("codec.mtf_dec_ns_per_addr", per_addr(stages.mtf_dec)));
    out.push(("codec.bwt_inv_ns_per_addr", per_addr(stages.bwt_inv)));
    out.push(("codec.compress_ns_per_addr", per_addr(comp)));
    out.push(("codec.decompress_ns_per_addr", per_addr(decomp)));
    out.push((
        "codec.stage_coverage",
        stages.total().as_secs_f64() / (bzip_comp + bzip_decomp).as_secs_f64(),
    ));
    out.push(("codec.replay_matches", f64::from(u8::from(matches))));

    // codec: segment framing alone (identity codec into a sink).
    let mut framing = Duration::ZERO;
    timed(&mut framing, || -> std::io::Result<()> {
        let mut w = CodecWriter::new(std::io::sink(), Arc::new(Store));
        w.write_all(&framed)?;
        w.finish().map(drop)
    })
    .map_err(|e| e.to_string())?;
    out.push(("codec.framing_ns_per_addr", per_addr(framing)));

    // core: interval signatures and the phase classifier.
    let (mut hist, mut classify) = (Duration::ZERO, Duration::ZERO);
    let mut classifier = PhaseClassifier::new(lossy_config());
    let mut next_chunk = 0u64;
    for interval in prefix.chunks(BUFFER) {
        timed(&mut hist, || {
            black_box(ByteHistograms::from_addrs(black_box(interval)).sorted())
        });
        let class = timed(&mut classify, || classifier.classify(interval, next_chunk));
        if matches!(class, Classification::NewChunk) {
            next_chunk += 1;
        }
    }
    out.push(("core.hist_ns_per_addr", per_addr(hist)));
    out.push(("core.classify_ns_per_addr", per_addr(classify)));

    // core: the single-directory container around the same stages.
    let err = |e: atc_core::AtcError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let options = AtcOptions {
        codec: w.codec.into(),
        buffer: BUFFER,
        threads: 1,
    };
    let mut writer = Duration::ZERO;
    timed(&mut writer, || {
        let mut atc = AtcWriter::with_options(dir, w.mode(), options)?;
        atc.code_all(prefix.iter().copied())?;
        atc.finish()
    })
    .map_err(err)?;
    let (mut by_frame, mut by_value) = (Duration::ZERO, Duration::ZERO);
    let mut reader = AtcReader::open(dir).map_err(err)?;
    let delivered = timed(&mut by_frame, || -> atc_core::Result<usize> {
        let mut total = 0;
        while let Some(frame) = reader.next_frame()? {
            total += black_box(frame).len();
        }
        Ok(total)
    })
    .map_err(err)?;
    let copied = reader.frame_stats().copied_bytes;
    let mut reader = AtcReader::open(dir).map_err(err)?;
    let values = timed(&mut by_value, || reader.decode_all()).map_err(err)?;
    if delivered != prefix.len() || values.len() != prefix.len() || (!w.lossy && values != prefix) {
        return Err("replay: single-directory round trip differs".into());
    }
    let _ = std::fs::remove_dir_all(dir);
    out.push(("core.writer_ns_per_addr", per_addr(writer)));
    out.push(("core.reader_frame_ns_per_addr", per_addr(by_frame)));
    out.push(("core.reader_value_ns_per_addr", per_addr(by_value)));
    out.push(("core.frame_copied_bytes", copied as f64));
    Ok(out)
}
