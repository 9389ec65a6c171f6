//! The invariant checks. Each is grounded in a decision this workspace
//! actually made and tests actually rely on — see the per-check docs.
//!
//! Checks operate on the token stream of one file plus its repo-relative
//! path; scoping (which crates, which files, which allowlists) lives in
//! [`Config`] so the fixture tests can exercise exactly the shipped
//! configuration against synthetic trees.

use crate::lexer::{Comment, Tok, Token};

/// Identifier of one check, as written in diagnostics and waivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// `unsafe` only in allowlisted files, always `// SAFETY:`-adjacent,
    /// and every crate root denies or forbids `unsafe_code`.
    UnsafeAudit,
    /// No wall clocks, OS entropy, or hash-order-dependent containers in
    /// the determinism-critical crates (the Trace bit-identity oracle).
    Determinism,
    /// No thread spawning outside `sim::pool` and the allowlisted service
    /// sites — engine parallelism must route through `RoundPool`.
    ThreadDiscipline,
    /// No `.lock().unwrap()/.expect()` in the service — poison must go
    /// through the `clear_poison` recovery accessors.
    LockHygiene,
    /// No panicking constructs or unchecked indexing in the wire decode and
    /// request-handling paths.
    PanicPath,
    /// No per-item heap allocation (`Vec::new`, `vec!`, `Box::new`,
    /// `.to_vec()`, `.collect()`) inside the engine's marked
    /// `// hot-path:` sweep regions — buffers must come from
    /// `EngineScratch`/arena reuse.
    HotPathAlloc,
    /// No blocking I/O (`read_to_end`, `read_exact`, `write_all`) or
    /// `thread::sleep` in the reactor crate outside tests — one blocking
    /// call on the event loop stalls every multiplexed connection.
    NonblockingDiscipline,
    /// Waivers must be well-formed, name a real check, and suppress
    /// something. Cannot itself be waived.
    WaiverAudit,
}

impl CheckId {
    /// The id as written in diagnostics and waiver annotations.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckId::UnsafeAudit => "unsafe-audit",
            CheckId::Determinism => "determinism",
            CheckId::ThreadDiscipline => "thread-discipline",
            CheckId::LockHygiene => "lock-hygiene",
            CheckId::PanicPath => "panic-path",
            CheckId::HotPathAlloc => "hot-path-alloc",
            CheckId::NonblockingDiscipline => "nonblocking-discipline",
            CheckId::WaiverAudit => "waiver-audit",
        }
    }

    /// Resolves a waiver's check id.
    pub fn parse(s: &str) -> Option<CheckId> {
        ALL_CHECKS.iter().copied().find(|c| c.as_str() == s)
    }
}

/// Every check, in reporting order.
pub const ALL_CHECKS: [CheckId; 8] = [
    CheckId::UnsafeAudit,
    CheckId::Determinism,
    CheckId::ThreadDiscipline,
    CheckId::LockHygiene,
    CheckId::PanicPath,
    CheckId::HotPathAlloc,
    CheckId::NonblockingDiscipline,
    CheckId::WaiverAudit,
];

/// One diagnostic: `path:line: [check-id] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The check that fired.
    pub check: CheckId,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.check.as_str(), self.message)
    }
}

/// Scoping configuration. [`Config::workspace`] is the shipped instance;
/// fixture tests build narrower ones.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files allowed to contain `unsafe` (still `// SAFETY:`-audited).
    pub unsafe_files: Vec<String>,
    /// Crate `src/` prefixes where wall clocks / hash-order containers are
    /// forbidden (the Trace bit-identity oracle covers exactly these).
    pub determinism_src: Vec<String>,
    /// Files inside `determinism_src` that are audited clock adapters — the
    /// *only* places under those prefixes allowed to touch wall clocks
    /// (everything that wants a timestamp goes through them).
    pub determinism_exempt: Vec<String>,
    /// Files allowed to spawn threads.
    pub thread_files: Vec<String>,
    /// Path prefixes where `.lock().unwrap()/.expect()` is forbidden.
    pub lock_paths: Vec<String>,
    /// Files on the wire decode / request-handling paths (no panics).
    pub panic_files: Vec<String>,
    /// Files whose non-literal slice indexing must be waived with a bounds
    /// argument (untrusted-length territory; subset of `panic_files`).
    pub index_files: Vec<String>,
    /// Files whose `// hot-path: begin` / `// hot-path: end` regions forbid
    /// per-item heap allocation.
    pub hot_path_files: Vec<String>,
    /// Path prefixes where blocking I/O and `thread::sleep` are forbidden
    /// outside tests (the single-threaded reactor's event-loop code).
    pub nonblocking_paths: Vec<String>,
}

impl Config {
    /// The configuration the workspace is linted with.
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
            // The workspace soundness argument admits exactly two audited
            // unsafe regions: the lifetime erasure in the round-worker pool
            // (PR 5) and the raw epoll/eventfd syscall shim the reactor
            // stands on (no libc dependency, so the FFI boundary is ours to
            // audit — every site carries a `// SAFETY:` argument).
            unsafe_files: s(&["crates/sim/src/pool.rs", "crates/net/src/epoll.rs"]),
            // The engine_props / runtime_props bit-identity oracles and the
            // seeded generators: any wall-clock read or hash-order iteration
            // here can silently break Trace reproducibility.
            determinism_src: s(&[
                "crates/sim/src/",
                "crates/core/src/",
                "crates/runtime/src/",
                "crates/selfstab/src/",
                "crates/gen/src/",
                "crates/bigmath/src/",
                // The metrics core is wall-clock-free by design so the
                // deterministic crates can use it; the lint enforces that
                // design. Wall clocks live only in the exempt adapter below
                // (and in crates/service + crates/bench, outside this list).
                "crates/obs/src/",
            ]),
            determinism_exempt: s(&["crates/obs/src/clock.rs"]),
            // `RoundPool` (the engine's only parallelism), the service's
            // accept/worker spawns, and the one thread the reactor event
            // loop runs on. loadgen multiplexes its connections on the
            // caller's thread and spawns none.
            thread_files: s(&[
                "crates/sim/src/pool.rs",
                "crates/service/src/server.rs",
                "crates/service/src/reactor.rs",
            ]),
            // PR 4's hardening: service shared-state mutexes recover from
            // poisoning via `clear_poison` accessors, never unwrap.
            lock_paths: s(&["crates/service/src/"]),
            // Hostile bytes flow through these files; a panic here kills a
            // worker or a connection handler.
            panic_files: s(&[
                "crates/service/src/wire.rs",
                "crates/service/src/server.rs",
                "crates/service/src/client.rs",
                "crates/service/src/cache.rs",
                // A panic in reactor-path code takes down every multiplexed
                // connection at once, not just one — held to the same bar.
                "crates/service/src/reactor.rs",
                "crates/net/src/frame.rs",
                "crates/net/src/reactor.rs",
                "crates/net/src/wheel.rs",
            ]),
            index_files: s(&["crates/service/src/wire.rs"]),
            // The engine's per-round sweeps: a `ns/round` regression from a
            // stray per-node allocation is exactly what the data-oriented
            // core removed, so the sweep bodies are marked and audited.
            hot_path_files: s(&["crates/sim/src/engine.rs", "crates/sim/src/delivery.rs"]),
            // The reactor multiplexes every connection on one thread: a
            // single blocking call (or sleep) there stalls them all.
            nonblocking_paths: s(&["crates/net/src/"]),
        }
    }
}

/// Everything the checks see about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path, forward slashes.
    pub rel: &'a str,
    /// Code tokens in source order.
    pub tokens: &'a [Token<'a>],
    /// Comments in source order.
    pub comments: &'a [Comment<'a>],
    /// `(first_line, last_line)` spans of `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context, deriving the test spans from the token stream.
    pub fn new(rel: &'a str, tokens: &'a [Token<'a>], comments: &'a [Comment<'a>]) -> FileCtx<'a> {
        FileCtx { rel, tokens, comments, test_spans: test_spans(tokens) }
    }

    /// True if `line` is inside a `#[cfg(test)]` / `#[test]` item, or the
    /// whole file is a test/bench target (under a `tests/` or `benches/`
    /// directory).
    pub fn in_test(&self, line: usize) -> bool {
        self.is_test_file() || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    fn is_test_file(&self) -> bool {
        self.rel.split('/').any(|seg| seg == "tests" || seg == "benches")
    }

    /// The identifier text of token `i`, if it is one.
    fn ident(&self, i: usize) -> Option<&'a str> {
        match self.tokens.get(i)?.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
    }

    /// True if the first token on `line` is the `use` keyword — import
    /// lines are skipped by the determinism check (the *use sites* are the
    /// ones that need a waiver, not the path that names the type).
    fn line_starts_with_use(&self, line: usize) -> bool {
        self.tokens.iter().find(|t| t.line == line).is_some_and(|t| t.tok == Tok::Ident("use"))
    }
}

/// Spans of items annotated `#[cfg(test)]` or `#[test]`: from the attribute
/// to the matching close brace of the item's body (or its `;` for bodiless
/// items like `#[cfg(test)] use …`).
fn test_spans(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_attr = matches!(tokens[i].tok, Tok::Punct('#'))
            && matches!(tokens.get(i + 1), Some(Token { tok: Tok::Punct('['), .. }));
        if !is_attr {
            i += 1;
            continue;
        }
        let test_attr = match (tokens.get(i + 2).map(|t| t.tok), tokens.get(i + 3).map(|t| t.tok)) {
            (Some(Tok::Ident("test")), Some(Tok::Punct(']'))) => true,
            (Some(Tok::Ident("cfg")), Some(Tok::Punct('('))) => {
                matches!(tokens.get(i + 4).map(|t| t.tok), Some(Tok::Ident("test")))
            }
            _ => false,
        };
        if !test_attr {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the item body: first `{` at nesting depth 0 (a `;` first
        // means a bodiless item). Then match braces to its close.
        let mut j = i + 2;
        let mut end_line = start_line;
        let mut depth = 0usize;
        let mut opened = false;
        while let Some(t) = tokens.get(j) {
            match t.tok {
                Tok::Punct('{') => {
                    depth += 1;
                    opened = true;
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                Tok::Punct(';') if !opened => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

/// Runs every check over one file. Waiver filtering happens in the engine.
pub fn run_checks(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unsafe_audit(ctx, cfg, &mut out);
    determinism(ctx, cfg, &mut out);
    thread_discipline(ctx, cfg, &mut out);
    lock_hygiene(ctx, cfg, &mut out);
    panic_path(ctx, cfg, &mut out);
    hot_path_alloc(ctx, cfg, &mut out);
    nonblocking_discipline(ctx, cfg, &mut out);
    out
}

fn diag(out: &mut Vec<Diagnostic>, ctx: &FileCtx<'_>, line: usize, check: CheckId, msg: String) {
    out.push(Diagnostic { path: ctx.rel.to_string(), line, check, message: msg });
}

/// True if a `// SAFETY:` comment is adjacent above `line` (or trails on
/// it): scanning upward, lines that are blank, comments, or attributes
/// (`#[…]`) continue the search; the first other code line ends it.
fn has_adjacent_safety(ctx: &FileCtx<'_>, line: usize) -> bool {
    let is_safety = |l: usize| {
        ctx.comments
            .iter()
            .filter(|c| c.line == l)
            .any(|c| c.text.trim_start_matches(['/', '!']).trim_start().starts_with("SAFETY:"))
    };
    if is_safety(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if is_safety(l) {
            return true;
        }
        let mut line_toks = ctx.tokens.iter().filter(|t| t.line == l);
        match line_toks.next() {
            None => continue,                                // blank or comment-only line
            Some(t) if t.tok == Tok::Punct('#') => continue, // attribute
            Some(_) => return false,
        }
    }
    false
}

/// ## `unsafe-audit`
///
/// The workspace-wide soundness argument is: *all* `unsafe` lives in
/// `sim::pool` (PR 5) and the reactor's `net::epoll` syscall shim, each
/// occurrence carries an adjacent `// SAFETY:` comment, and every crate
/// root backs the claim with `deny`/`forbid(unsafe_code)`.
fn unsafe_audit(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let allowed = cfg.unsafe_files.iter().any(|f| f == ctx.rel);
    let mut sites: Vec<usize> = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        match t.tok {
            Tok::Ident("unsafe") => sites.push(i),
            // `allow(unsafe_code)` / `warn(unsafe_code)` re-open the gate a
            // crate root closed, so they are unsafe sites too; `deny` and
            // `forbid` are what the roots are *supposed* to carry.
            Tok::Ident("unsafe_code") => {
                let gate = (0..i).rev().take(4).find_map(|j| {
                    ctx.ident(j).filter(|s| ["allow", "warn", "deny", "forbid"].contains(s))
                });
                if matches!(gate, Some("allow") | Some("warn")) {
                    sites.push(i);
                }
            }
            _ => {}
        }
    }
    for i in sites {
        let line = ctx.tokens[i].line;
        if !allowed {
            diag(
                out,
                ctx,
                line,
                CheckId::UnsafeAudit,
                "`unsafe` outside the audited allowlist — the workspace soundness argument \
                 admits unsafe code only in crates/sim/src/pool.rs and crates/net/src/epoll.rs"
                    .into(),
            );
        } else if !has_adjacent_safety(ctx, line) {
            diag(
                out,
                ctx,
                line,
                CheckId::UnsafeAudit,
                "unsafe site without an adjacent `// SAFETY:` comment documenting why it is sound"
                    .into(),
            );
        }
    }
    // Crate roots must deny/forbid unsafe_code so the allowlist above is
    // compiler-backed everywhere else.
    if ctx.rel == "src/lib.rs" || ctx.rel.ends_with("/src/lib.rs") {
        let gated = ctx.tokens.windows(3).any(|w| {
            matches!(w[0].tok, Tok::Ident("deny") | Tok::Ident("forbid"))
                && matches!(w[1].tok, Tok::Punct('('))
                && matches!(w[2].tok, Tok::Ident("unsafe_code"))
        });
        if !gated {
            diag(
                out,
                ctx,
                1,
                CheckId::UnsafeAudit,
                "crate root lacks `#![deny(unsafe_code)]` or `#![forbid(unsafe_code)]`".into(),
            );
        }
    }
}

/// ## `determinism`
///
/// The engine_props oracle asserts bit-identical Traces across thread
/// counts and frontier modes, and the runtime asserts same-seed ⇒ identical
/// event digests. Both break silently if determinism-critical code reads a
/// wall clock or iterates a `RandomState`-seeded container. `HashMap` /
/// `HashSet` *uses* therefore need a written waiver proving the use is
/// membership-only (or must become `BTreeMap`/sorted structures); clocks
/// and entropy are flat-out forbidden.
fn determinism(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.determinism_src.iter().any(|p| ctx.rel.starts_with(p.as_str())) {
        return;
    }
    if cfg.determinism_exempt.iter().any(|f| f == ctx.rel) {
        return;
    }
    for t in ctx.tokens {
        let Tok::Ident(name) = t.tok else { continue };
        if ctx.in_test(t.line) {
            continue;
        }
        match name {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => diag(
                out,
                ctx,
                t.line,
                CheckId::Determinism,
                format!(
                    "`{name}` in determinism-critical code: wall clocks cannot appear in \
                     Trace/output-affecting paths (use the seeded `anonet_gen::Rng` machinery)"
                ),
            ),
            "RandomState" => diag(
                out,
                ctx,
                t.line,
                CheckId::Determinism,
                "`RandomState` is per-process OS entropy — determinism-critical code must not \
                 depend on it"
                    .to_string(),
            ),
            "HashMap" | "HashSet" if !ctx.line_starts_with_use(t.line) => diag(
                out,
                ctx,
                t.line,
                CheckId::Determinism,
                format!(
                    "`{name}` in determinism-critical code: iteration order is seed-dependent \
                     and can leak into Traces/outputs — use BTreeMap/sorted structures, or \
                     waive with a membership-only justification"
                ),
            ),
            _ => {}
        }
    }
}

/// ## `thread-discipline`
///
/// PR 5 exists because ad-hoc `thread::scope` fan-out made `threads: 4`
/// 1.8× *slower* than sequential. All engine parallelism routes through
/// `sim::pool::RoundPool`; only the pool itself, the service accept/worker
/// loops and the reactor's event-loop thread may touch `std::thread`
/// spawning.
fn thread_discipline(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.thread_files.iter().any(|f| f == ctx.rel) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name @ ("spawn" | "scope" | "Builder")) = ctx.ident(i) else { continue };
        let qualified = i >= 3
            && ctx.ident(i - 3) == Some("thread")
            && ctx.punct(i - 2, ':')
            && ctx.punct(i - 1, ':');
        if !qualified || ctx.in_test(ctx.tokens[i].line) {
            continue;
        }
        diag(
            out,
            ctx,
            ctx.tokens[i].line,
            CheckId::ThreadDiscipline,
            format!(
                "`thread::{name}` outside the allowlisted sites — engine parallelism must \
                 route through `sim::pool::RoundPool` (see crates/sim/src/pool.rs)"
            ),
        );
    }
}

/// ## `lock-hygiene`
///
/// The service survived its hardening passes by recovering from mutex
/// poisoning (`clear_poison` accessors) instead of unwrapping: one
/// panicking job must not wedge every later request. A bare
/// `.lock().unwrap()` (or `.expect`) reintroduces exactly that failure
/// cascade, so the service tree may not contain one — tests included,
/// because tests copy idioms.
fn lock_hygiene(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.lock_paths.iter().any(|p| ctx.rel.starts_with(p.as_str())) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let locky = ctx.punct(i, '.')
            && matches!(ctx.ident(i + 1), Some("lock" | "try_lock"))
            && ctx.punct(i + 2, '(')
            && ctx.punct(i + 3, ')')
            && ctx.punct(i + 4, '.');
        if !locky {
            continue;
        }
        if let Some(sink @ ("unwrap" | "expect")) = ctx.ident(i + 5) {
            diag(
                out,
                ctx,
                ctx.tokens[i + 5].line,
                CheckId::LockHygiene,
                format!(
                    "`.lock().{sink}(…)` on a service mutex — poison must be handled via the \
                     `clear_poison` recovery accessors (see `Shared::lock_cache`/`lock_queue`)"
                ),
            );
        }
    }
}

/// ## `panic-path`
///
/// PR 4's hardening promise: hostile input never panics a worker or a
/// connection handler. The wire decode and request-handling files may not
/// use panicking constructs outside `#[cfg(test)]`; in the decode file
/// proper, even slice indexing needs a written bounds argument (a length
/// read off the wire must never become an index unchecked).
fn panic_path(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.panic_files.iter().any(|f| f == ctx.rel) {
        return;
    }
    let indexed = cfg.index_files.iter().any(|f| f == ctx.rel);
    for i in 0..ctx.tokens.len() {
        let line = ctx.tokens[i].line;
        if ctx.in_test(line) {
            continue;
        }
        if let Some(mac @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ctx.ident(i) {
            if ctx.punct(i + 1, '!') {
                diag(
                    out,
                    ctx,
                    line,
                    CheckId::PanicPath,
                    format!(
                        "`{mac}!` on the wire/request path — hostile input must map to \
                             structured errors, never a panic"
                    ),
                );
            }
        }
        if ctx.punct(i, '.') {
            if let Some(sink @ ("unwrap" | "expect")) = ctx.ident(i + 1) {
                if ctx.punct(i + 2, '(') {
                    diag(
                        out,
                        ctx,
                        ctx.tokens[i + 1].line,
                        CheckId::PanicPath,
                        format!(
                            "`.{sink}(…)` on the wire/request path — return a structured error \
                             (or waive with the invariant that makes it unreachable)"
                        ),
                    );
                }
            }
        }
        // Indexing: `expr[…]` where `[` follows an ident, `)`, or `]`.
        // Literal constant indices (`vals[3]`) are compile-visible bounds
        // and skipped; anything computed needs a waiver with the bounds
        // argument.
        if indexed && ctx.punct(i, '[') {
            // `expr[…]` needs an expression immediately before the bracket; a
            // keyword before `[` (`for v in [a, b]`, `return [x]`) is an array
            // literal, not an index.
            let is_index = i > 0
                && match ctx.tokens[i - 1].tok {
                    Tok::Ident(kw) => !matches!(
                        kw,
                        "in" | "return"
                            | "break"
                            | "if"
                            | "else"
                            | "match"
                            | "while"
                            | "loop"
                            | "let"
                            | "mut"
                            | "ref"
                            | "move"
                            | "as"
                    ),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
            let literal = matches!(ctx.tokens.get(i + 1).map(|t| t.tok), Some(Tok::Num))
                && ctx.punct(i + 2, ']');
            if is_index && !literal {
                diag(
                    out,
                    ctx,
                    line,
                    CheckId::PanicPath,
                    "computed slice index in the wire decode path — prove the bound in a \
                     waiver or use a checked accessor"
                        .to_string(),
                );
            }
        }
    }
}

/// ## `hot-path-alloc`
///
/// The data-oriented engine core holds a "no per-item allocation in the
/// per-round sweeps" budget: every buffer the send/receive sweeps touch is
/// recycled through `EngineScratch`, `GatherScratch` or a per-part arena.
/// The sweep bodies are delimited with `// hot-path: begin` /
/// `// hot-path: end` marker comments; inside a region (outside
/// `#[cfg(test)]` code) the allocating constructs `Vec::new`, `vec!`,
/// `Box::new`, `.to_vec()` and `.collect()` are forbidden. Unpaired or
/// unknown markers are themselves diagnostics, so a refactor cannot
/// silently drop a region. A justified exception takes the usual
/// `// lint: allow(hot-path-alloc) — reason` waiver.
fn hot_path_alloc(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.hot_path_files.iter().any(|f| f == ctx.rel) {
        return;
    }
    // Pair the marker comments into regions, in line order.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut open: Option<usize> = None;
    for c in ctx.comments.iter().filter(|c| !c.block) {
        let text = c.text.trim_start_matches(['/', '!']).trim_start();
        let Some(kind) = text.strip_prefix("hot-path:") else { continue };
        let kind = kind.trim_start();
        if kind.starts_with("begin") {
            if let Some(b) = open {
                diag(
                    out,
                    ctx,
                    b,
                    CheckId::HotPathAlloc,
                    "`hot-path: begin` without a matching `hot-path: end` before the next begin"
                        .into(),
                );
            }
            open = Some(c.line);
        } else if kind.starts_with("end") {
            match open.take() {
                Some(b) => regions.push((b, c.line)),
                None => diag(
                    out,
                    ctx,
                    c.line,
                    CheckId::HotPathAlloc,
                    "`hot-path: end` without a preceding `hot-path: begin`".into(),
                ),
            }
        } else {
            diag(
                out,
                ctx,
                c.line,
                CheckId::HotPathAlloc,
                "unknown `hot-path:` marker — only `begin` and `end` are defined".into(),
            );
        }
    }
    if let Some(b) = open {
        diag(
            out,
            ctx,
            b,
            CheckId::HotPathAlloc,
            "`hot-path: begin` region left open at end of file".into(),
        );
    }
    let in_region = |l: usize| regions.iter().any(|&(a, b)| a <= l && l <= b);
    let flag = |out: &mut Vec<Diagnostic>, line: usize, what: &str| {
        diag(
            out,
            ctx,
            line,
            CheckId::HotPathAlloc,
            format!(
                "`{what}` inside a marked hot-path sweep region — per-item allocation is \
                 forbidden here; reuse an `EngineScratch`/arena buffer hoisted outside the \
                 region (or waive with a justification)"
            ),
        );
    };
    for i in 0..ctx.tokens.len() {
        let line = ctx.tokens[i].line;
        if !in_region(line) || ctx.in_test(line) {
            continue;
        }
        if let Some(ty @ ("Vec" | "Box")) = ctx.ident(i) {
            if ctx.punct(i + 1, ':')
                && ctx.punct(i + 2, ':')
                && ctx.ident(i + 3) == Some("new")
                && ctx.punct(i + 4, '(')
            {
                flag(out, line, &format!("{ty}::new"));
            }
        }
        if ctx.ident(i) == Some("vec") && ctx.punct(i + 1, '!') {
            flag(out, line, "vec!");
        }
        if ctx.punct(i, '.') {
            if let Some(m @ ("to_vec" | "collect")) = ctx.ident(i + 1) {
                flag(out, ctx.tokens[i + 1].line, &format!(".{m}()"));
            }
        }
    }
}

/// ## `nonblocking-discipline`
///
/// The reactor serves every connection from one event-loop thread on
/// nonblocking sockets. A blocking read loop (`read_to_end`, `read_exact`),
/// a blocking drain (`write_all`), or a `thread::sleep` there either stalls
/// every multiplexed connection behind one slow peer or busy-spins on
/// `WouldBlock` — the two failure modes the `FrameFsm`/`WriteQueue`/
/// `DeadlineWheel` machinery exists to prevent. Test code (loopback
/// harnesses drive blocking peer sockets on purpose) is exempt.
fn nonblocking_discipline(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.nonblocking_paths.iter().any(|p| ctx.rel.starts_with(p.as_str())) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let line = ctx.tokens[i].line;
        if ctx.in_test(line) {
            continue;
        }
        if ctx.punct(i, '.') {
            if let Some(m @ ("read_to_end" | "read_exact" | "write_all")) = ctx.ident(i + 1) {
                if ctx.punct(i + 2, '(') {
                    diag(
                        out,
                        ctx,
                        ctx.tokens[i + 1].line,
                        CheckId::NonblockingDiscipline,
                        format!(
                            "`.{m}(…)` in reactor code — a blocking call on the event loop \
                             stalls every multiplexed connection (or busy-spins on \
                             `WouldBlock`); feed partial reads to `FrameFsm` and queue \
                             partial writes in `WriteQueue` instead"
                        ),
                    );
                }
            }
        }
        if ctx.ident(i) == Some("sleep") {
            let qualified = i >= 3
                && ctx.ident(i - 3) == Some("thread")
                && ctx.punct(i - 2, ':')
                && ctx.punct(i - 1, ':');
            if qualified {
                diag(
                    out,
                    ctx,
                    line,
                    CheckId::NonblockingDiscipline,
                    "`thread::sleep` in reactor code — the event loop must never sleep; \
                     schedule a deadline on the `DeadlineWheel` and let `epoll_wait`'s \
                     timeout do the waiting"
                        .to_string(),
                );
            }
        }
    }
}
