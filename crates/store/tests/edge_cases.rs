//! Manifest edge cases under every policy × exact-merge read-back:
//! empty stores (0 addresses), single-address stores, and frames that
//! straddle a shard-run boundary — the places where the interleave
//! track's run bookkeeping, the zipper's batching, and the end-of-store
//! drain check meet.

use atc_core::format::{StoreManifest, STORE_MANIFEST_FILE};
use atc_core::{AtcOptions, Mode};
use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atc-store-edge-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three policies, with parameters chosen so routing is non-trivial.
fn policies() -> [ShardPolicy; 3] {
    [
        ShardPolicy::RoundRobin,
        ShardPolicy::AddressRange { shift: 6 },
        ShardPolicy::ThreadId,
    ]
}

fn options(shards: usize, policy: ShardPolicy, buffer: usize) -> StoreOptions {
    StoreOptions {
        shards,
        policy,
        atc: AtcOptions {
            codec: "store".into(),
            buffer,
            threads: 1,
        },
        max_buffered_bytes: None,
    }
}

/// Writes `addrs` (keyed for thread-id routing) and asserts the merged
/// read-back replays them exactly, by block and by value.
fn roundtrip_exact(tag: &str, policy: ShardPolicy, shards: usize, buffer: usize, addrs: &[u64]) {
    let root = tmp(tag);
    let mut s = AtcStore::create(&root, Mode::Lossless, options(shards, policy, buffer)).unwrap();
    for (i, &a) in addrs.iter().enumerate() {
        // Keys cycle so thread-id routing exercises several shards; the
        // other policies ignore the key.
        s.code_from(i as u64 % 3, a).unwrap();
    }
    let stats = s.finish().unwrap();
    assert_eq!(stats.count, addrs.len() as u64, "{tag}");

    let mut r = StoreReader::open(&root).unwrap();
    assert!(r.merge_is_exact(), "{tag}: every policy now merges exactly");
    assert_eq!(r.decode_all().unwrap(), addrs, "{tag}");
    assert_eq!(r.decode().unwrap(), None, "{tag}: end is sticky");

    let mut by_value = StoreReader::open(&root).unwrap();
    let mut got = Vec::new();
    while let Some(v) = by_value.decode().unwrap() {
        got.push(v);
    }
    assert_eq!(got, addrs, "{tag}: per-value cursor");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn empty_store_roundtrips_under_all_policies() {
    for (i, policy) in policies().into_iter().enumerate() {
        for shards in [1usize, 3] {
            let tag = format!("empty-{i}-{shards}");
            roundtrip_exact(&tag, policy, shards, 64, &[]);
        }
    }
}

#[test]
fn empty_store_manifest_parses_with_empty_track() {
    // A 0-address store under a data-dependent policy writes a track
    // with zero runs; the manifest line must survive its own roundtrip.
    let root = tmp("empty-manifest");
    let s = AtcStore::create(&root, Mode::Lossless, options(2, ShardPolicy::ThreadId, 64)).unwrap();
    s.finish().unwrap();
    let text = std::fs::read_to_string(root.join(STORE_MANIFEST_FILE)).unwrap();
    assert!(text.contains("interleave="), "{text}");
    let manifest = StoreManifest::parse(&text).unwrap();
    let track = manifest.interleave.expect("empty track still present");
    assert_eq!(track.runs().len(), 0);
    assert_eq!(track.addresses(), 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn single_address_store_roundtrips_under_all_policies() {
    for (i, policy) in policies().into_iter().enumerate() {
        for shards in [1usize, 3] {
            let tag = format!("single-{i}-{shards}");
            roundtrip_exact(&tag, policy, shards, 64, &[0xDEAD_BEEF]);
        }
    }
}

#[test]
fn frames_straddling_shard_run_boundaries_replay_exactly() {
    // Runs of 3 addresses per region/key against a bytesort buffer of 4:
    // every shard's frames keep crossing the track's run boundaries, so
    // the merge must repeatedly split a buffered frame across two runs
    // (and a run across two frames).
    let mut addrs = Vec::new();
    for lap in 0..50u64 {
        for step in 0..3u64 {
            // Region alternates every 3 addresses (shift 6 = 64-byte
            // regions); thread keys follow i % 3 from roundtrip_exact.
            addrs.push((lap % 2) * 64 + lap * 1024 + step * 8);
        }
    }
    for (i, policy) in policies().into_iter().enumerate() {
        for buffer in [1usize, 4, 7] {
            let tag = format!("straddle-{i}-{buffer}");
            roundtrip_exact(&tag, policy, 2, buffer, &addrs);
        }
    }
}

#[test]
fn single_shard_data_dependent_store_has_one_run() {
    // Everything routes to shard 0 when there is only one shard: the
    // track collapses to a single run covering the whole stream.
    let root = tmp("one-shard-run");
    let mut s = AtcStore::create(
        &root,
        Mode::Lossless,
        options(1, ShardPolicy::AddressRange { shift: 12 }, 32),
    )
    .unwrap();
    s.code_all((0..500u64).map(|i| i * 8)).unwrap();
    s.finish().unwrap();
    let manifest =
        StoreManifest::parse(&std::fs::read_to_string(root.join(STORE_MANIFEST_FILE)).unwrap())
            .unwrap();
    assert_eq!(
        manifest.interleave.unwrap().runs(),
        &[(0, 500)],
        "one shard, one run"
    );
    let mut r = StoreReader::open(&root).unwrap();
    assert_eq!(r.decode_all().unwrap().len(), 500);
    std::fs::remove_dir_all(&root).unwrap();
}
