//! Bzip2-class block compressor: BWT → MTF → zero-RLE → canonical Huffman.
//!
//! This is the workspace's stand-in for the `bzip2` utility the paper pipes
//! bytesorted traces through. It follows the same pipeline bzip2 uses
//! (block-sorting transform, move-to-front, RUNA/RUNB zero run coding,
//! Huffman entropy stage) with a simplified single-table framing, CRC-32
//! integrity per block, and a linear-time suffix-array BWT so worst-case
//! inputs stay fast.
//!
//! # Examples
//!
//! ```
//! use atc_codec::{Bzip, Codec};
//!
//! let codec = Bzip::default();
//! let data = b"compressible compressible compressible".repeat(10);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::bwt::{bwt_forward_in, bwt_inverse};
use crate::crc::crc32;
use crate::error::CodecError;
use crate::huffman::{Decoder, Encoder};
use crate::mtf::{mtf_decode, mtf_encode_into};
use crate::rle::{rle_decode, rle_encode_into, ALPHABET, EOB};
use crate::sais::SaisScratch;
use crate::varint;
use crate::Codec;

/// Default block size (matches `bzip2 -9`'s 900 kB blocks).
pub const DEFAULT_BLOCK_SIZE: usize = 900_000;

/// Smallest accepted block size.
pub const MIN_BLOCK_SIZE: usize = 1024;

/// The bzip2-class block codec.
///
/// Cheap to clone and construct; holds only the configured block size.
/// Blocks are compressed independently and in order; parallelism lives
/// one level up, in the per-segment tasks of the stream adapters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bzip {
    block_size: usize,
}

/// Per-thread reusable buffers for the block pipeline.
///
/// Each ~900 kB block otherwise pays fresh allocations for the SA-IS
/// suffix-array buffers, the BWT last column, the MTF output, the RLE
/// symbol vector, and the frequency table; one scratch reused across a
/// block loop removes all of them from the hot path.
#[derive(Debug, Default)]
struct BlockScratch {
    sais: SaisScratch,
    last_col: Vec<u8>,
    mtf: Vec<u8>,
    syms: Vec<usize>,
    freqs: Vec<u64>,
}

thread_local! {
    /// Per-thread scratch for the compress path.
    ///
    /// The streaming writers call [`Codec::compress_into`] once per
    /// segment from long-lived worker threads; keeping the block scratch
    /// in a thread-local (instead of a fresh `BlockScratch` per call)
    /// makes the steady-state segment-compress path free of per-segment
    /// scratch allocations.
    static SERIAL_SCRATCH: std::cell::RefCell<BlockScratch> =
        std::cell::RefCell::new(BlockScratch::default());
}

/// One parsed-but-undecoded block: the header fields plus a borrowed
/// payload. Produced by a cheap sequential header scan that validates
/// every header before any block is decoded.
struct RawBlock<'a> {
    raw_len: usize,
    crc: u32,
    primary: u64,
    payload: &'a [u8],
}

impl Bzip {
    /// Creates a codec with the default 900 kB block size.
    pub fn new() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }

    /// Creates a codec with a custom block size.
    ///
    /// Bigger blocks expose longer-range regularity (higher ratio, more
    /// memory); the paper's bytesort evaluation feeds 8 MB+ of transformed
    /// bytes per buffer, so benchmark configurations may want larger blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size < MIN_BLOCK_SIZE` or `block_size > u32::MAX as
    /// usize / 2`.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(
            (MIN_BLOCK_SIZE..=u32::MAX as usize / 2).contains(&block_size),
            "block size {block_size} out of range"
        );
        Self { block_size }
    }

    /// The configured block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn compress_block(&self, data: &[u8], out: &mut Vec<u8>, scratch: &mut BlockScratch) {
        debug_assert!(!data.is_empty() && data.len() <= self.block_size);
        let crc = crc32(data);
        let primary = bwt_forward_in(data, &mut scratch.sais, &mut scratch.last_col);
        mtf_encode_into(&scratch.last_col, &mut scratch.mtf);
        rle_encode_into(&scratch.mtf, &mut scratch.syms);
        let syms = &scratch.syms;

        scratch.freqs.clear();
        scratch.freqs.resize(ALPHABET, 0);
        for &s in syms {
            scratch.freqs[s] += 1;
        }
        let enc = Encoder::from_frequencies(&scratch.freqs);
        let mut bits = BitWriter::with_capacity(syms.len() / 2);
        enc.write_table(&mut bits);
        for &s in syms {
            enc.encode(&mut bits, s);
        }
        let payload = bits.into_bytes();

        // atclint: allow(library-unwrap) -- infallible: io::Write on a
        // Vec<u8> never errors (all three varint writes below).
        varint::write_u64(out, data.len() as u64).expect("vec write");
        out.extend_from_slice(&crc.to_le_bytes());
        // atclint: allow(library-unwrap) -- infallible: vec write.
        varint::write_u64(out, primary as u64).expect("vec write");
        // atclint: allow(library-unwrap) -- infallible: vec write.
        varint::write_u64(out, payload.len() as u64).expect("vec write");
        out.extend_from_slice(&payload);
    }

    /// Parses one block header and borrows its payload, advancing `cursor`
    /// past the block without decoding it.
    fn split_block<'a>(cursor: &mut &'a [u8]) -> Result<RawBlock<'a>, CodecError> {
        let raw_len = varint::read_u64(cursor).map_err(|_| CodecError::Truncated)?;
        // No writer can produce a block beyond the constructor's cap; a
        // bigger claim is corruption, and rejecting it here keeps
        // header-driven allocations bounded on hostile input.
        if raw_len > u32::MAX as u64 / 2 {
            return Err(CodecError::Corrupt(format!(
                "block length {raw_len} exceeds maximum block size"
            )));
        }
        let raw_len = raw_len as usize;
        if cursor.len() < 4 {
            return Err(CodecError::Truncated);
        }
        // atclint: allow(library-unwrap) -- infallible: the length check
        // above guarantees at least 4 bytes remain.
        let crc = u32::from_le_bytes(cursor[..4].try_into().expect("4 bytes"));
        *cursor = &cursor[4..];
        let primary = varint::read_u64(cursor).map_err(|_| CodecError::Truncated)?;
        let payload_len = varint::read_u64(cursor).map_err(|_| CodecError::Truncated)? as usize;
        if cursor.len() < payload_len {
            return Err(CodecError::Truncated);
        }
        let payload = &cursor[..payload_len];
        *cursor = &cursor[payload_len..];
        if primary > raw_len as u64 {
            return Err(CodecError::Corrupt(format!(
                "primary {primary} exceeds block length {raw_len}"
            )));
        }
        Ok(RawBlock {
            raw_len,
            crc,
            primary,
            payload,
        })
    }

    /// Decodes one parsed block, returning its raw bytes (always exactly
    /// `block.raw_len` long on success).
    fn decode_block(block: &RawBlock<'_>) -> Result<Vec<u8>, CodecError> {
        let RawBlock {
            raw_len,
            crc,
            primary,
            payload,
        } = *block;
        let mut bits = BitReader::new(payload);
        let dec = Decoder::read_table(&mut bits, ALPHABET)
            .ok_or_else(|| CodecError::Corrupt("invalid Huffman table".into()))?;
        // Cap the symbol-buffer reservation by what the payload could
        // possibly hold (>= 1 bit per symbol), so a corrupt raw_len
        // cannot force a huge allocation before decoding fails.
        let mut syms = Vec::with_capacity((raw_len / 2 + 16).min(payload.len() * 8 + 16));
        loop {
            let s = dec
                .decode(&mut bits)
                .ok_or_else(|| CodecError::Corrupt("truncated Huffman stream".into()))?;
            syms.push(s);
            if s == EOB {
                break;
            }
            if syms.len() > raw_len.saturating_mul(2) + 1024 {
                return Err(CodecError::Corrupt("RLE stream longer than block".into()));
            }
        }
        let mtf = rle_decode(&syms).map_err(|e| CodecError::Corrupt(e.to_string()))?;
        if mtf.len() != raw_len {
            return Err(CodecError::Corrupt(format!(
                "block length mismatch: header {raw_len}, payload {}",
                mtf.len()
            )));
        }
        let last_col = mtf_decode(&mtf);
        let data = bwt_inverse(&last_col, primary as u32)
            .map_err(|e| CodecError::Corrupt(e.to_string()))?;
        let actual = crc32(&data);
        if actual != crc {
            return Err(CodecError::ChecksumMismatch {
                expected: crc,
                actual,
            });
        }
        debug_assert_eq!(data.len(), raw_len);
        Ok(data)
    }
}

impl Default for Bzip {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for Bzip {
    fn name(&self) -> &'static str {
        "bzip"
    }

    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) -> usize {
        out.clear();
        if data.is_empty() {
            return 0;
        }
        out.reserve(data.len() / 3 + 64);
        SERIAL_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            for block in data.chunks(self.block_size) {
                self.compress_block(block, out, &mut scratch);
            }
        });
        out.len()
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<usize, CodecError> {
        out.clear();
        // Sequential header scan finds the block boundaries cheaply; the
        // expensive inverse transforms then run per block.
        let mut blocks = Vec::new();
        let mut cursor = data;
        while !cursor.is_empty() {
            blocks.push(Self::split_block(&mut cursor)?);
        }
        // Headers are untrusted until each block's pipeline validates its
        // own length, so preallocation from them is capped: oversized (or
        // overflowing) claims grow `out` only as blocks actually decode.
        // 64 MiB covers every segment/chunk this system feeds through one
        // decompress call while keeping the header-driven allocation
        // amplification small.
        const MAX_PREALLOC: usize = 64 << 20;
        let total = blocks
            .iter()
            .try_fold(0usize, |acc, b| acc.checked_add(b.raw_len));
        if let Some(total) = total.filter(|&t| t <= MAX_PREALLOC) {
            out.reserve(total);
        }
        for block in &blocks {
            out.extend_from_slice(&Self::decode_block(block)?);
        }
        Ok(out.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &Bzip, data: &[u8]) {
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn empty() {
        let codec = Bzip::default();
        assert!(codec.compress(b"").is_empty());
        assert_eq!(codec.decompress(b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn small_inputs() {
        let codec = Bzip::default();
        roundtrip(&codec, b"a");
        roundtrip(&codec, b"ab");
        roundtrip(&codec, &[0]);
        roundtrip(&codec, &[0, 0, 0]);
        roundtrip(&codec, &[255; 17]);
    }

    #[test]
    fn multi_block() {
        let codec = Bzip::with_block_size(MIN_BLOCK_SIZE);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        roundtrip(&codec, &data);
    }

    #[test]
    fn compresses_structure() {
        let codec = Bzip::default();
        let data = b"the quick brown fox jumps over the lazy dog\n".repeat(200);
        let packed = codec.compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "expected >10x on repetitive text, got {} -> {}",
            data.len(),
            packed.len()
        );
        roundtrip(&codec, &data);
    }

    #[test]
    fn random_data_expands_little() {
        let mut x: u64 = 7;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let codec = Bzip::default();
        let packed = codec.compress(&data);
        // Random bytes: expect < 10% expansion.
        assert!(packed.len() < data.len() + data.len() / 10);
        roundtrip(&codec, &data);
    }

    #[test]
    fn corruption_detected() {
        let codec = Bzip::default();
        let data = b"some sample data to corrupt".repeat(50);
        let mut packed = codec.compress(&data);
        // Flip a bit deep in the payload (past the headers).
        let pos = packed.len() - 8;
        packed[pos] ^= 0x40;
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn truncation_detected() {
        let codec = Bzip::default();
        let packed = codec.compress(&b"hello world ".repeat(40));
        for cut in [1, packed.len() / 2, packed.len() - 1] {
            assert!(codec.decompress(&packed[..cut]).is_err(), "cut={cut}");
        }
    }
}
