//! The rule registry: each rule encodes one load-bearing workspace
//! invariant (see `docs/LINTS.md` for the catalog with rationale).
//!
//! Rules operate on the token stream from [`crate::lexer`] plus derived
//! file structure (test regions, per-line comment text). Annotation
//! rules accept the required marker as a trailing comment on the same
//! line or in a comment within the [`ADJACENCY_WINDOW`] lines above the
//! use — wide enough to cover a comment above a multi-line statement.

use std::collections::HashMap;

use crate::lexer::{comment_lines, lex, test_regions, TestRegions, Token, TokenKind};

/// How many lines above a use site an annotation comment may sit.
pub const ADJACENCY_WINDOW: u32 = 4;

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `undocumented-unsafe`).
    pub rule: &'static str,
    /// Path as given to the scanner (workspace-relative in CI).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// What part of the workspace a file belongs to; decides rule scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` (excluding `src/bin/`) or the root `src/`.
    LibrarySrc {
        /// Crate directory name (`engine`, `net`, …); `"atc"` for the
        /// workspace-root facade crate.
        crate_name: String,
    },
    /// `crates/<name>/src/bin/**` — binaries, not library surface.
    BinSrc,
    /// `**/tests/**` integration tests.
    Tests,
    /// `**/benches/**`.
    Benches,
    /// `examples/**` — CLI front ends.
    Examples,
    /// Anything else (build scripts, fixtures).
    Other,
}

impl FileKind {
    /// Classifies a path by its components. Matches anywhere in the
    /// path so absolute and relative invocations agree.
    pub fn classify(path: &str) -> FileKind {
        let comps: Vec<&str> = path.split(['/', '\\']).filter(|c| !c.is_empty()).collect();
        if comps.contains(&"tests") {
            return FileKind::Tests;
        }
        if comps.contains(&"benches") {
            return FileKind::Benches;
        }
        if comps.contains(&"examples") {
            return FileKind::Examples;
        }
        if let Some(i) = comps.iter().position(|c| *c == "crates") {
            if comps.get(i + 2) == Some(&"src") {
                if comps.get(i + 3) == Some(&"bin") || comps.last() == Some(&"main.rs") {
                    return FileKind::BinSrc;
                }
                return FileKind::LibrarySrc {
                    crate_name: comps[i + 1].to_string(),
                };
            }
            return FileKind::Other;
        }
        if comps.contains(&"src") {
            if comps.contains(&"bin") || comps.last() == Some(&"main.rs") {
                return FileKind::BinSrc;
            }
            return FileKind::LibrarySrc {
                crate_name: "atc".to_string(),
            };
        }
        FileKind::Other
    }
}

/// An inline suppression: `// atclint: allow(rule) -- reason` or
/// `// atclint: file-allow(rule) -- reason`.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule ids listed in `allow(…)` (comma-separated).
    pub rules: Vec<String>,
    /// Line the comment sits on.
    pub line: u32,
    /// Whether a non-empty reason follows `--`.
    pub has_reason: bool,
    /// `file-allow` covers the whole file; `allow` covers its own line
    /// and the next line of code.
    pub file_level: bool,
}

/// Everything the rules need to know about one file.
pub struct FileContext<'a> {
    /// Display path (as passed on the command line).
    pub path: &'a str,
    /// Scope classification.
    pub kind: FileKind,
    /// Raw source.
    pub src: &'a str,
    /// Full token stream.
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of non-comment tokens.
    pub sig: Vec<usize>,
    /// `#[cfg(test)]` / `#[test]` brace regions.
    pub test_regions: TestRegions,
    /// Lower-cased comment text per line.
    pub comments: HashMap<u32, String>,
    /// Parsed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Source lines for snippets (0-indexed storage).
    pub lines: Vec<&'a str>,
}

impl<'a> FileContext<'a> {
    /// Lexes and indexes `src`.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let sig = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let test_regions = test_regions(src, &tokens);
        let comments = comment_lines(src, &tokens);
        let suppressions = parse_suppressions(src, &tokens);
        FileContext {
            path,
            kind: FileKind::classify(path),
            src,
            tokens,
            sig,
            test_regions,
            comments,
            suppressions,
            lines: src.lines().collect(),
        }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
        }
    }

    /// Does a comment containing `marker` (lower-case) sit adjacent to
    /// `line`? Adjacent means: on the line itself (trailing comment),
    /// or above it — walking upward through comment lines without
    /// limit (so a long `# Safety` doc block counts in full) while
    /// tolerating at most [`ADJACENCY_WINDOW`] intervening non-comment
    /// lines in total (so a comment above a multi-line statement, or
    /// above an `unsafe fn` signature whose body opens with an unsafe
    /// block, still counts).
    pub fn has_annotation(&self, line: u32, marker: &str) -> bool {
        let contains = |l: u32| self.comments.get(&l).map(|text| text.contains(marker));
        if contains(line) == Some(true) {
            return true;
        }
        let mut budget = ADJACENCY_WINDOW;
        let mut l = line;
        while l > 1 {
            l -= 1;
            match contains(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
                    if budget == 0 {
                        return false;
                    }
                    budget -= 1;
                }
            }
        }
        false
    }

    /// Is a finding on `line` for `rule` covered by a suppression
    /// (with or without a reason — reasonless ones are themselves
    /// findings, but still suppress to avoid double reporting)?
    ///
    /// A line-level suppression covers its own line (trailing-comment
    /// form) and the first code line after its comment block (a
    /// multi-line `// atclint: allow(…) -- long reason` still reaches
    /// the statement it guards).
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| {
            s.rules.iter().any(|r| r == rule)
                && (s.file_level
                    || s.line == line
                    || (s.line < line && self.next_code_line(s.line) == Some(line)))
        })
    }

    /// The first line after `from` that is not blank and not a pure
    /// comment line.
    fn next_code_line(&self, from: u32) -> Option<u32> {
        let mut l = from + 1;
        while let Some(text) = self.lines.get(l as usize - 1) {
            let trimmed = text.trim_start();
            if trimmed.is_empty() || trimmed.starts_with("//") {
                l += 1;
                continue;
            }
            return Some(l);
        }
        None
    }

    /// The token `offset` significant steps after `sig_idx` (an index
    /// into `self.sig`).
    fn sig_tok(&self, sig_idx: usize, offset: usize) -> Option<&Token> {
        self.sig.get(sig_idx + offset).map(|&ti| &self.tokens[ti])
    }

    fn sig_text(&self, sig_idx: usize, offset: usize) -> &str {
        self.sig_tok(sig_idx, offset)
            .map(|t| t.text(self.src))
            .unwrap_or("")
    }
}

/// Parses suppressions from comment tokens. Only a comment whose
/// content *begins* with `atclint:` (after the `//`/`/*`/doc sigils)
/// counts — prose *mentioning* the syntax mid-sentence does not.
fn parse_suppressions(src: &str, tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        for (off, piece) in t.text(src).split('\n').enumerate() {
            let line = t.line + off as u32;
            let content = piece.trim_start_matches(['/', '*', '!', ' ', '\t']);
            let Some(rest) = content.strip_prefix("atclint:") else {
                continue;
            };
            let trimmed = rest.trim_start();
            let file_level = trimmed.starts_with("file-allow");
            if !file_level && !trimmed.starts_with("allow") {
                continue;
            }
            let kw_len = if file_level {
                "file-allow".len()
            } else {
                "allow".len()
            };
            let after_kw = trimmed[kw_len..].trim_start();
            let Some(inner) = after_kw.strip_prefix('(') else {
                continue;
            };
            let Some(close) = inner.find(')') else {
                continue;
            };
            let rules: Vec<String> = inner[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let tail = inner[close + 1..].trim_start();
            let has_reason = tail
                .strip_prefix("--")
                .is_some_and(|r| !r.trim_end_matches(['*', '/']).trim().is_empty());
            out.push(Suppression {
                rules,
                line,
                has_reason,
                file_level,
            });
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

/// A registered rule: id, one-line summary, and the long `--explain`
/// text (the invariant, its rationale, and the accepted annotation).
pub struct Rule {
    /// Stable identifier used in findings and suppressions.
    pub id: &'static str,
    /// One-line summary for `--list`.
    pub summary: &'static str,
    /// Multi-paragraph explanation for `--explain`.
    pub explain: &'static str,
    check: fn(&FileContext<'_>, &mut Vec<Finding>),
}

impl Rule {
    /// Runs the rule over one file, appending findings.
    pub fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
        (self.check)(ctx, out);
    }
}

/// All rules, in reporting order. `meta-suppression` is the engine's
/// own hygiene rule (reasonless or unknown-rule suppressions).
pub fn registry() -> &'static [Rule] {
    &RULES
}

/// Looks a rule up by id.
pub fn find_rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

static RULES: [Rule; 7] = [
    Rule {
        id: "undocumented-unsafe",
        summary: "every unsafe block/fn/impl needs an adjacent SAFETY comment",
        explain: "\
Invariant: every `unsafe` block, function, or impl carries a comment
containing `SAFETY` (e.g. `// SAFETY: …` or a `# Safety` doc section)
on the same line or within the 4 lines above it.

Rationale: an unsafe site (today the codec tests' counting allocator
and the `atcd` signal handler; the library crates hold none, and
`atc-engine` forbids it) is only reviewable if it states the proof
obligation it discharges. Miri checks executions; SAFETY comments
check reasoning.

Scope: all scanned files, including tests.
Annotation: a comment containing `SAFETY` adjacent to the `unsafe`
keyword. Suppression: `// atclint: allow(undocumented-unsafe) -- why`.",
        check: check_undocumented_unsafe,
    },
    Rule {
        id: "rogue-thread-spawn",
        summary: "thread::spawn/scope/Builder forbidden in library src outside crates/engine",
        explain: "\
Invariant: library code (crates/*/src, excluding src/bin) never calls
`thread::spawn` or `thread::scope` and never names `thread::Builder`
(whose `.spawn` is the same thing with a name), except inside
`crates/engine` — every pool, scope, and background task goes through
`Engine` so the whole process shares one task runtime.

Rationale: PR 4 unified four ad-hoc pools onto the engine; a stray
spawn reintroduces unaccounted parallelism, breaks the worker-count
contract (ATC_TEST_THREADS pinning), and dodges panic isolation. A
named `Builder::spawn` is no less a stray thread than a bare `spawn`.

Scope: library src outside crates/engine; `#[cfg(test)]` regions,
tests/, benches/, and examples/ are exempt (test harnesses may spawn
scaffolding threads).
Suppression: `// atclint: allow(rogue-thread-spawn) -- why` for the
rare justified helper (e.g. an OS signal listener that must outlive
the engine).",
        check: check_rogue_thread_spawn,
    },
    Rule {
        id: "unchecked-ordering",
        summary: "every Ordering::* use needs an adjacent `ordering:` justification",
        explain: "\
Invariant: each line using `Ordering::Relaxed/Acquire/Release/AcqRel/
SeqCst` in library or bin src carries an adjacent comment containing
`ordering:` stating why that strength is sufficient (what it pairs
with, or why no synchronization is needed).

Rationale: atomics shared across threads (the net server's
connection drain and stop flag, the segment cache's counters) are
correct only under specific pairings (Release store -> Acquire load),
and even a Relaxed counter should say why nothing rides on it. An
ordering without a written pairing argument is unreviewable and rots
silently when code moves.

Scope: library and src/bin code; `#[cfg(test)]` regions and test
files are exempt (test counters use Relaxed incidentally).
Annotation: a comment containing `ordering:` on the line or within 4
lines above. One annotation covers every Ordering use on that line.
Whole files with a module-level ordering proof may use
`// atclint: file-allow(unchecked-ordering) -- see module docs`.",
        check: check_unchecked_ordering,
    },
    Rule {
        id: "library-unwrap",
        summary: ".unwrap()/.expect() denied in non-test library code",
        explain: "\
Invariant: library code (crates/*/src) does not call `.unwrap()` or
`.expect(…)` outside `#[cfg(test)]` regions. Fallible paths propagate
`AtcError`/`CodecError`; provably-infallible uses carry a suppression
naming the proof.

Rationale: a panic inside an engine task poisons the whole writer; a
panic while holding a lock poisons the lock for every sibling thread.
The byte-identity contract means callers retry or surface errors --
they cannot do either through a panic. PR 10 converted the poisoned
channel/lock unwraps in the codec hot paths to error propagation.

Scope: library src only (bins, examples, tests, benches exempt --
CLIs may panic on startup errors).
Suppression: `// atclint: allow(library-unwrap) -- proof` on or above
the line, e.g. '-- receiver outlives sender, send cannot fail'.",
        check: check_library_unwrap,
    },
    Rule {
        id: "naked-notify",
        summary: "Condvar notify_* requires a `lock-held:` annotation",
        explain: "\
Invariant: every `notify_one()`/`notify_all()` call site carries an
adjacent comment containing `lock-held:` naming the mutex held (or
the reason none is needed) when the notify fires.

Rationale: the PR 4/PR 6 lost-wakeup class — a notify issued after a
waiter checked its predicate but before it parked is lost unless the
notifier holds the mutex guarding the predicate (or the protocol
proves the waiter must re-check). The annotation forces that proof to
be written where the notify happens.

Scope: library and bin src; test regions exempt.
Annotation: comment containing `lock-held:` on the line or within 4
lines above. Suppression: `// atclint: allow(naked-notify) -- why`.",
        check: check_naked_notify,
    },
    Rule {
        id: "wire-alloc",
        summary: "non-literal-length allocations in code that parses untrusted bytes need a `bounded:` annotation",
        explain: "\
Invariant: in `crates/net`, `crates/core/src/format.rs`,
`crates/core/src/reader.rs` and `crates/codec/src/stream.rs`, any
allocation sized by a runtime value — `with_capacity(n)`,
`vec![x; n]`, `resize(n, …)`, `reserve(n)` with non-literal `n` —
carries an adjacent comment containing `bounded:` stating the bound
(e.g. 'bounded: n <= NET_MAX_FRAME, checked above').

Rationale: wire-facing and disk-parsing code allocates from
attacker-controlled declared lengths. The NET_MAX_FRAME
check-before-alloc pattern only protects frames whose allocation
actually follows a check; the annotation makes 'where is the check?' a
lint question instead of a review question. Both allocation aborts
found on disk input (a forged segment length, a forged sidecar length)
were in the trace reader and the codec-stream reader.

Scope: crates/net/src, crates/core/src/{format,reader}.rs and
crates/codec/src/stream.rs; test regions exempt. Integer-literal lengths are always fine.
Annotation: comment containing `bounded:` on the line or within 4
lines above. Suppression: `// atclint: allow(wire-alloc) -- why`.",
        check: check_wire_alloc,
    },
    Rule {
        id: "meta-suppression",
        summary: "suppressions must name a known rule and carry a `-- reason`",
        explain: "\
Invariant: every `// atclint: allow(rule) -- reason` (and file-allow)
names a registered rule and carries a non-empty reason after `--`.

Rationale: a suppression is a reviewed exception; one without a
written reason is indistinguishable from a silenced bug. Unknown rule
ids usually mean a typo that silently suppresses nothing.

This rule cannot be suppressed.",
        check: check_meta_suppression,
    },
];

/// True when this file's kind means "library source" (rules that
/// protect the library surface).
fn is_library(kind: &FileKind) -> bool {
    matches!(kind, FileKind::LibrarySrc { .. })
}

/// Library or bin source — concurrency rules cover both.
fn is_library_or_bin(kind: &FileKind) -> bool {
    matches!(kind, FileKind::LibrarySrc { .. } | FileKind::BinSrc)
}

fn check_undocumented_unsafe(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident || t.text(ctx.src) != "unsafe" {
            continue;
        }
        let next = ctx.sig_text(si, 1);
        let what = match next {
            "{" => "unsafe block",
            "fn" => "unsafe fn",
            "impl" => "unsafe impl",
            "trait" => "unsafe trait",
            "extern" => "unsafe extern block",
            // `unsafe` inside attribute args (`#[unsafe(no_mangle)]`)
            // or other positions we don't classify — still require the
            // comment; the keyword is load-bearing wherever it appears.
            _ => "unsafe",
        };
        if !ctx.has_annotation(t.line, "safety") {
            out.push(ctx.finding(
                "undocumented-unsafe",
                t,
                format!("{what} without an adjacent `SAFETY` comment"),
            ));
        }
    }
}

fn check_rogue_thread_spawn(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    match &ctx.kind {
        FileKind::LibrarySrc { crate_name } if crate_name != "engine" => {}
        _ => return,
    }
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident || t.text(ctx.src) != "thread" {
            continue;
        }
        if ctx.test_regions.contains(t.start) {
            continue;
        }
        // Match `thread :: spawn` / `thread :: scope` / `thread ::
        // Builder` (the `::` lexes as two `:` puncts).
        if ctx.sig_text(si, 1) == ":" && ctx.sig_text(si, 2) == ":" {
            let callee = ctx.sig_text(si, 3);
            if matches!(callee, "spawn" | "scope" | "Builder") {
                out.push(ctx.finding(
                    "rogue-thread-spawn",
                    t,
                    format!(
                        "thread::{callee} in library code outside crates/engine — \
                         route work through Engine::submit"
                    ),
                ));
            }
        }
    }
}

fn check_unchecked_ordering(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !is_library_or_bin(&ctx.kind) {
        return;
    }
    let mut last_line = 0u32;
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident || t.text(ctx.src) != "Ordering" {
            continue;
        }
        if ctx.test_regions.contains(t.start) {
            continue;
        }
        if !(ctx.sig_text(si, 1) == ":" && ctx.sig_text(si, 2) == ":") {
            continue;
        }
        let strength = ctx.sig_text(si, 3);
        if !matches!(
            strength,
            "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
        ) {
            continue;
        }
        // One annotation covers every Ordering use on the line.
        if t.line == last_line {
            continue;
        }
        last_line = t.line;
        if !ctx.has_annotation(t.line, "ordering:") {
            out.push(ctx.finding(
                "unchecked-ordering",
                t,
                format!("Ordering::{strength} without an adjacent `ordering:` justification"),
            ));
        }
    }
}

fn check_library_unwrap(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !is_library(&ctx.kind) {
        return;
    }
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        // Method call position only: preceded by `.`, followed by `(`.
        if si == 0 || ctx.sig_text(si - 1, 0) != "." || ctx.sig_text(si, 1) != "(" {
            continue;
        }
        if ctx.test_regions.contains(t.start) {
            continue;
        }
        out.push(ctx.finding(
            "library-unwrap",
            t,
            format!(
                ".{name}() in library code — propagate AtcError/CodecError, or \
                 suppress with a written infallibility proof"
            ),
        ));
    }
}

fn check_naked_notify(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !is_library_or_bin(&ctx.kind) {
        return;
    }
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        if name != "notify_one" && name != "notify_all" {
            continue;
        }
        if si == 0 || ctx.sig_text(si - 1, 0) != "." || ctx.sig_text(si, 1) != "(" {
            continue;
        }
        if ctx.test_regions.contains(t.start) {
            continue;
        }
        if !ctx.has_annotation(t.line, "lock-held:") {
            out.push(ctx.finding(
                "naked-notify",
                t,
                format!(
                    "{name} without an adjacent `lock-held:` annotation — \
                     prove the guarding mutex is held (lost-wakeup class)"
                ),
            ));
        }
    }
}

/// Is `wire-alloc` in scope for this file?
fn wire_alloc_in_scope(ctx: &FileContext<'_>) -> bool {
    let path = ctx.path.replace('\\', "/");
    match &ctx.kind {
        FileKind::LibrarySrc { crate_name } => match crate_name.as_str() {
            "net" => true,
            "core" => path.ends_with("src/format.rs") || path.ends_with("src/reader.rs"),
            "codec" => path.ends_with("src/stream.rs"),
            _ => false,
        },
        _ => false,
    }
}

fn check_wire_alloc(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !wire_alloc_in_scope(ctx) {
        return;
    }
    for (si, &ti) in ctx.sig.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if ctx.test_regions.contains(t.start) {
            continue;
        }
        let name = t.text(ctx.src);
        match name {
            "with_capacity" | "reserve" | "reserve_exact" | "resize" => {
                if ctx.sig_text(si, 1) != "(" {
                    continue;
                }
                // Literal first argument is always fine.
                let arg = ctx.sig_tok(si, 2);
                let after = ctx.sig_text(si, 3);
                let literal_len = arg.is_some_and(|a| a.kind == TokenKind::Number)
                    && (after == ")" || after == ",");
                if literal_len {
                    continue;
                }
                if !ctx.has_annotation(t.line, "bounded:") {
                    out.push(ctx.finding(
                        "wire-alloc",
                        t,
                        format!(
                            "{name} with a non-literal length in untrusted-input code — \
                             check against NET_MAX_FRAME (or similar) and annotate `bounded:`"
                        ),
                    ));
                }
            }
            "vec" => {
                // vec![elem; len] with non-literal len.
                if ctx.sig_text(si, 1) != "!" || ctx.sig_text(si, 2) != "[" {
                    continue;
                }
                // Find the `;` at depth 1, then inspect the length expr.
                let mut depth = 1usize;
                let mut j = si + 3;
                let mut semi = None;
                while let Some(tok) = ctx.sig_tok(j, 0) {
                    match tok.text(ctx.src) {
                        "[" | "(" | "{" => depth += 1,
                        "]" | ")" | "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ";" if depth == 1 => {
                            semi = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let Some(semi) = semi else { continue };
                let len_tok = ctx.sig_tok(semi, 1);
                let after = ctx.sig_text(semi, 2);
                let literal_len =
                    len_tok.is_some_and(|a| a.kind == TokenKind::Number) && after == "]";
                if literal_len {
                    continue;
                }
                if !ctx.has_annotation(t.line, "bounded:") {
                    out.push(
                        ctx.finding(
                            "wire-alloc",
                            t,
                            "vec![…; len] with a non-literal length in untrusted-input code — \
                         check the length before allocating and annotate `bounded:`"
                                .to_string(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

fn check_meta_suppression(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for s in &ctx.suppressions {
        let fake = Token {
            kind: TokenKind::LineComment,
            start: 0,
            end: 0,
            line: s.line,
            col: 1,
        };
        if !s.has_reason {
            out.push(
                ctx.finding(
                    "meta-suppression",
                    &fake,
                    "suppression without a `-- reason`; every exception needs a written why"
                        .to_string(),
                ),
            );
        }
        for r in &s.rules {
            if r == "meta-suppression" {
                out.push(ctx.finding(
                    "meta-suppression",
                    &fake,
                    "meta-suppression cannot be suppressed".to_string(),
                ));
            } else if find_rule(r).is_none() {
                out.push(ctx.finding(
                    "meta-suppression",
                    &fake,
                    format!("suppression names unknown rule `{r}` (typo suppresses nothing)"),
                ));
            }
        }
    }
}

/// Runs every rule (or the `only` subset) over one file and filters
/// findings through the file's suppressions. `meta-suppression`
/// findings are never suppressible.
pub fn check_file(ctx: &FileContext<'_>, only: Option<&[String]>) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in registry() {
        if let Some(ids) = only {
            if rule.id != "meta-suppression" && !ids.iter().any(|i| i == rule.id) {
                continue;
            }
        }
        rule.check(ctx, &mut raw);
    }
    raw.retain(|f| f.rule == "meta-suppression" || !ctx.suppressed(f.rule, f.line));
    raw
}
