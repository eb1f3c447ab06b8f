//! Byte-level block compressors used as back ends by the ATC trace
//! compressor ([`atc-core`](../atc_core/index.html)).
//!
//! The paper pipes bytesort-transformed traces through `bzip2 -9`; this
//! crate provides the equivalent substrate, built from scratch:
//!
//! * [`Bzip`] — bzip2-class block-sorting codec (BWT via linear-time SA-IS,
//!   move-to-front, RUNA/RUNB zero run-length coding, canonical Huffman),
//!   the default back end.
//! * [`Lz`] — gzip-class LZSS + Huffman codec, the faster/lower-ratio
//!   alternative the paper mentions.
//! * [`Store`] — identity codec for measuring framing overhead and
//!   debugging containers.
//!
//! All codecs implement the object-safe [`Codec`] trait, add CRC-32
//! integrity checking per block, and have streaming [`CodecWriter`] /
//! [`CodecReader`] adapters.
//!
//! # Examples
//!
//! ```
//! use atc_codec::{Bzip, Codec};
//!
//! let codec = Bzip::default();
//! let data = b"an address trace is highly structured ".repeat(100);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len() / 5);
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

#![warn(missing_docs)]

pub mod bitio;
pub mod bwt;
mod bzip;
pub mod crc;
mod error;
pub mod huffman;
mod lz;
pub mod mtf;
mod parallel;
pub mod rle;
pub mod sais;
mod store;
mod stream;
pub mod varint;

pub use atc_engine::{Engine, EngineStats};
pub use bzip::{Bzip, DEFAULT_BLOCK_SIZE};
pub use error::CodecError;
pub use lz::Lz;
pub use parallel::{ByteBudget, CodecWriter, ScratchStats, IN_FLIGHT_PER_WORKER};
pub use store::Store;
pub use stream::{CodecReader, SegmentRecord, StreamScratch, DEFAULT_SEGMENT_SIZE};

/// A one-shot, thread-safe byte compressor.
///
/// Implementations are *block* codecs: `compress` may internally split the
/// input, and `decompress` reverses exactly one `compress` output. The trait
/// is object-safe so containers (the ATC directory format, the TCgen
/// baseline) can hold `&dyn Codec` and let callers choose the back end, as
/// the original tool does with its external-compressor command string.
///
/// The streaming entry points [`Codec::compress_into`] /
/// [`Codec::decompress_into`] write into a caller-provided scratch buffer
/// so per-segment pipelines ([`CodecWriter`], [`CodecReader`]) can
/// recycle allocations instead of materializing a fresh `Vec` per segment. They have default adapters over the one-shot
/// methods, so external implementations keep working unchanged; the
/// built-in codecs implement them natively (and implement the one-shot
/// methods *in terms of* the streaming ones). Each pair defaults to the
/// other, so an implementation must provide at least one of
/// `compress`/`compress_into` and one of `decompress`/`decompress_into`.
pub trait Codec: std::fmt::Debug + Send + Sync {
    /// Short stable identifier (used in file metadata).
    fn name(&self) -> &'static str;

    /// Compresses `data`; never fails.
    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// Decompresses a buffer produced by [`Codec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated, corrupt, or checksum-failing
    /// input.
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// Compresses `data` into `out`, returning the number of bytes written.
    ///
    /// `out` is cleared first; its existing capacity is reused, so calling
    /// this in a loop with one long-lived buffer makes the steady-state
    /// compress path allocation-free at the segment level. The bytes
    /// produced are exactly those of [`Codec::compress`] on the same input.
    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) -> usize {
        let packed = self.compress(data);
        out.clear();
        out.extend_from_slice(&packed);
        packed.len()
    }

    /// Decompresses `data` into `out`, returning the number of bytes
    /// written.
    ///
    /// `out` is cleared first and its capacity reused, mirroring
    /// [`Codec::compress_into`]. On error, the contents of `out` are
    /// unspecified (callers must not interpret them).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Codec::decompress`].
    fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<usize, CodecError> {
        let raw = self.decompress(data)?;
        out.clear();
        out.extend_from_slice(&raw);
        Ok(raw.len())
    }
}

/// Looks up a codec by its [`Codec::name`].
///
/// Returns `None` for unknown names. Used when reopening on-disk containers
/// that record which back end wrote them.
///
/// # Examples
///
/// ```
/// let codec = atc_codec::codec_by_name("bzip").unwrap();
/// assert_eq!(codec.name(), "bzip");
/// ```
pub fn codec_by_name(name: &str) -> Option<Box<dyn Codec>> {
    match name {
        "bzip" => Some(Box::new(Bzip::default())),
        "lz" => Some(Box::new(Lz::default())),
        "store" => Some(Box::new(Store)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        for name in ["bzip", "lz", "store"] {
            let codec = codec_by_name(name).expect("known codec");
            assert_eq!(codec.name(), name);
        }
        assert!(codec_by_name("nope").is_none());
    }

    #[test]
    fn trait_object_usable() {
        let codecs: Vec<Box<dyn Codec>> = vec![
            Box::new(Bzip::default()),
            Box::new(Lz::default()),
            Box::new(Store),
        ];
        let data = b"object safety check".repeat(10);
        for c in &codecs {
            assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
        }
    }

    /// External implementor providing only the one-shot methods: the
    /// default streaming adapters must keep it working (and clear the
    /// caller's scratch).
    #[derive(Debug)]
    struct OneShotOnly;

    impl Codec for OneShotOnly {
        fn name(&self) -> &'static str {
            "oneshot"
        }

        fn compress(&self, data: &[u8]) -> Vec<u8> {
            let mut v = vec![0xAB];
            v.extend_from_slice(data);
            v
        }

        fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
            match data.split_first() {
                Some((0xAB, rest)) => Ok(rest.to_vec()),
                _ => Err(CodecError::Corrupt("bad magic".into())),
            }
        }
    }

    #[test]
    fn default_into_adapters_wrap_oneshot_impls() {
        let c = OneShotOnly;
        let mut out = vec![9u8; 100]; // stale contents must be cleared
        let n = c.compress_into(b"xyz", &mut out);
        assert_eq!(n, 4);
        assert_eq!(out, [0xAB, b'x', b'y', b'z']);
        let mut back = vec![7u8; 50];
        let m = c.decompress_into(&out, &mut back).unwrap();
        assert_eq!(m, 3);
        assert_eq!(back, b"xyz");
    }

    #[test]
    fn into_methods_reuse_capacity() {
        let data = b"capacity reuse check ".repeat(50);
        for c in [
            Box::new(Bzip::default()) as Box<dyn Codec>,
            Box::new(Lz::default()),
            Box::new(Store),
        ] {
            let mut packed = Vec::new();
            let n = c.compress_into(&data, &mut packed);
            assert_eq!(n, packed.len());
            assert_eq!(packed, c.compress(&data));
            let cap = packed.capacity();
            let n2 = c.compress_into(&data, &mut packed);
            assert_eq!(n2, n);
            assert!(packed.capacity() >= cap, "capacity must not be dropped");

            let mut raw = Vec::new();
            let m = c.decompress_into(&packed, &mut raw).unwrap();
            assert_eq!(m, raw.len());
            assert_eq!(raw, data);
        }
    }
}
