//! Seeded-violation fixtures: every rule must fire on a known-bad
//! source and stay quiet once the required annotation is present.
//!
//! Fixtures live in raw strings (not on disk) so the live-workspace
//! meta-test in `workspace.rs` never trips over them.

use atc_lint::scan_sources;

/// Runs every rule over one in-memory file.
fn findings(path: &str, src: &str) -> Vec<String> {
    scan_sources(&[(path, src)], None)
        .findings
        .iter()
        .map(|f| format!("{}:{}", f.rule, f.line))
        .collect()
}

#[test]
fn undocumented_unsafe_fires_and_clears() {
    let bad = r#"
pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["undocumented-unsafe:3"]
    );

    let good = r#"
pub fn peek(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
"#;
    assert!(findings("crates/x/src/lib.rs", good).is_empty());
}

#[test]
fn undocumented_unsafe_applies_inside_tests_too() {
    let bad = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 1u8;
        let _ = unsafe { *(&x as *const u8) };
    }
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["undocumented-unsafe:7"]
    );
}

#[test]
fn rogue_thread_spawn_fires_in_library_src_only() {
    let bad = r#"
pub fn go() {
    std::thread::spawn(|| {});
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["rogue-thread-spawn:3"]
    );
    // The engine crate owns the workspace's threads.
    assert!(findings("crates/engine/src/lib.rs", bad).is_empty());
    // Tests, benches and examples may spawn freely.
    assert!(findings("crates/x/tests/t.rs", bad).is_empty());
    assert!(findings("examples/e.rs", bad).is_empty());
}

#[test]
fn rogue_thread_spawn_sees_through_thread_builder() {
    let bad = r#"
pub fn go() {
    let _ = std::thread::Builder::new().name("feeder".into()).spawn(|| {});
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["rogue-thread-spawn:3"]
    );
    assert!(findings("crates/engine/src/lib.rs", bad).is_empty());

    let suppressed = r#"
pub fn go() {
    // atclint: allow(rogue-thread-spawn) -- signal listener: must outlive the engine.
    let _ = std::thread::Builder::new().name("feeder".into()).spawn(|| {});
}
"#;
    assert!(findings("crates/x/src/lib.rs", suppressed).is_empty());
}

#[test]
fn rogue_thread_spawn_exempts_test_regions() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::scope(|s| { let _ = s; });
    }
}
"#;
    assert!(findings("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn unchecked_ordering_fires_and_clears() {
    let bad = r#"
use std::sync::atomic::{AtomicBool, Ordering};
pub fn f(b: &AtomicBool) -> bool {
    b.load(Ordering::Acquire)
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["unchecked-ordering:4"]
    );

    let good = r#"
use std::sync::atomic::{AtomicBool, Ordering};
pub fn f(b: &AtomicBool) -> bool {
    // ordering: Acquire — pairs with the Release store in g().
    b.load(Ordering::Acquire)
}
"#;
    assert!(findings("crates/x/src/lib.rs", good).is_empty());
}

#[test]
fn unchecked_ordering_one_finding_per_line() {
    let bad = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn f(a: &AtomicUsize) -> usize {
    a.fetch_add(1, Ordering::AcqRel) + a.load(Ordering::Acquire)
}
"#;
    assert_eq!(
        findings("crates/x/src/lib.rs", bad),
        ["unchecked-ordering:4"]
    );
}

#[test]
fn library_unwrap_fires_in_library_src_only() {
    let bad = r#"
pub fn f(v: Option<u8>) -> u8 {
    v.unwrap()
}
"#;
    assert_eq!(findings("crates/x/src/lib.rs", bad), ["library-unwrap:3"]);
    assert!(findings("crates/x/tests/t.rs", bad).is_empty());
    assert!(findings("crates/x/benches/b.rs", bad).is_empty());
    assert!(findings("src/main.rs", bad).is_empty());
}

#[test]
fn library_unwrap_suppression_requires_reason() {
    let reasonless = r#"
// atclint: allow(library-unwrap)
pub fn f(v: Option<u8>) -> u8 {
    v.unwrap()
}
"#;
    let got = findings("crates/x/src/lib.rs", reasonless);
    // The allow still suppresses, but the missing reason is itself a
    // finding — a suppression never lowers the total below 1.
    assert!(
        got.contains(&"meta-suppression:2".to_string()),
        "reasonless allow must be flagged, got {got:?}"
    );

    let good = r#"
pub fn f(v: Option<u8>) -> u8 {
    // atclint: allow(library-unwrap) -- infallible: f is only called
    // with Some by construction.
    v.unwrap()
}
"#;
    assert!(findings("crates/x/src/lib.rs", good).is_empty());
}

#[test]
fn naked_notify_fires_and_clears() {
    let bad = r#"
use std::sync::Condvar;
pub fn f(c: &Condvar) {
    c.notify_one();
}
"#;
    assert_eq!(findings("crates/x/src/lib.rs", bad), ["naked-notify:4"]);

    let good = r#"
use std::sync::Condvar;
pub fn f(c: &Condvar) {
    // lock-held: callers notify with the state mutex held.
    c.notify_one();
}
"#;
    assert!(findings("crates/x/src/lib.rs", good).is_empty());
}

#[test]
fn wire_alloc_fires_in_wire_scope_only() {
    let bad = r#"
pub fn f(n: usize) -> Vec<u8> {
    vec![0u8; n]
}
"#;
    assert_eq!(findings("crates/net/src/helper.rs", bad), ["wire-alloc:3"]);
    assert_eq!(findings("crates/core/src/format.rs", bad), ["wire-alloc:3"]);
    // Non-wire library code allocates freely.
    assert!(findings("crates/x/src/lib.rs", bad).is_empty());

    let good = r#"
pub fn f(n: usize) -> Vec<u8> {
    // bounded: n was checked against NET_MAX_FRAME by the caller.
    vec![0u8; n]
}
"#;
    assert!(findings("crates/net/src/helper.rs", good).is_empty());
}

#[test]
fn wire_alloc_fires_in_the_disk_readers() {
    // The shape of a reader sizing a vector from a header field (`meta`
    // count, a declared segment length).
    let bad = r#"
pub fn records(count: u64) -> Vec<u64> {
    Vec::with_capacity(count as usize)
}
"#;
    assert_eq!(findings("crates/core/src/reader.rs", bad), ["wire-alloc:3"]);
    assert_eq!(
        findings("crates/codec/src/stream.rs", bad),
        ["wire-alloc:3"]
    );
    // The rest of those crates stays out of scope.
    assert!(findings("crates/core/src/writer.rs", bad).is_empty());
    assert!(findings("crates/codec/src/bzip.rs", bad).is_empty());

    let good = r#"
pub fn records(count: u64) -> Vec<u64> {
    // bounded: 1024 up front; the caller refuses more than `count`.
    Vec::with_capacity(count.min(1024) as usize)
}
"#;
    assert!(findings("crates/core/src/reader.rs", good).is_empty());
}

#[test]
fn wire_alloc_accepts_literal_lengths() {
    let src = r#"
pub fn f() -> Vec<u8> {
    let mut v = Vec::with_capacity(64);
    v.resize(8, 0);
    v
}
"#;
    assert!(findings("crates/net/src/helper.rs", src).is_empty());
}

#[test]
fn meta_suppression_flags_unknown_rules() {
    let src = r#"
// atclint: allow(no-such-rule) -- because
pub fn f() {}
"#;
    assert_eq!(findings("crates/x/src/lib.rs", src), ["meta-suppression:2"]);
}

#[test]
fn meta_suppression_cannot_suppress_itself() {
    let src = r#"
// atclint: allow(meta-suppression) -- trying to silence the police
// atclint: allow(library-unwrap)
pub fn f(v: Option<u8>) -> u8 {
    v.unwrap()
}
"#;
    let got = findings("crates/x/src/lib.rs", src);
    assert!(
        got.iter().any(|f| f.starts_with("meta-suppression:")),
        "meta-suppression must survive its own allow, got {got:?}"
    );
}

#[test]
fn file_allow_covers_the_whole_file() {
    let src = r#"
// atclint: file-allow(library-unwrap) -- harness code: panics are the
// error-reporting strategy here.
pub fn f(v: Option<u8>) -> u8 {
    v.unwrap()
}
pub fn g(v: Option<u8>) -> u8 {
    v.expect("still covered")
}
"#;
    assert!(findings("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn rule_filter_limits_output() {
    let src = r#"
pub fn f(v: Option<u8>) -> u8 {
    std::thread::spawn(|| {});
    v.unwrap()
}
"#;
    let only = vec!["library-unwrap".to_string()];
    let report = scan_sources(&[("crates/x/src/lib.rs", src)], Some(&only));
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "library-unwrap");
}
