//! The domain lint rules and the per-file analysis driver.
//!
//! Clippy cannot encode these rules (and this workspace is offline, so
//! a custom rustc driver is off the table too); each rule is a small
//! pass over the token stream of [`crate::lexer`], with shared context
//! for test-code regions (`#[cfg(test)]` items, `#[test]` fns) and
//! comment-based suppression markers.
//!
//! # Suppression syntax
//!
//! `// kpm::allow(rule_name): justification` silences `rule_name` on
//! the same line and on the next line that contains code. (rustc only
//! accepts `#[allow(tool::lint)]` attributes for *registered* tools,
//! which needs an unstable feature, so the markers live in comments —
//! the engine's lexer sees every comment anyway.) A marker naming an
//! unknown rule is itself a diagnostic, with a did-you-mean hint.

use std::cell::Cell;

use crate::diag::Diagnostic;
use crate::lexer::{lex, TokKind, Token};

/// Crates whose non-test library code must be panic-free (`no_panic`).
pub const KERNEL_CRATES: &[&str] = &[
    "kpm-sparse",
    "kpm-num",
    "kpm-core",
    "kpm-hetsim",
    "kpm-service",
];

/// Hot-kernel files checked for in-loop heap allocation.
pub const HOT_KERNEL_FILES: &[&str] = &["sweep.rs", "stencil.rs"];

/// The crate holding the instrumentation gate; `relaxed_store` is
/// skipped there and `obs_gate` runs only there.
pub const OBS_CRATE: &str = "kpm-obs";

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (`src/**`, excluding `src/bin`).
    Lib,
    /// Binary code (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
}

/// One file to analyze: its workspace-relative path, owning crate, and
/// target class.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path (used in diagnostics).
    pub path: String,
    /// Name of the owning crate (`kpm-core`, ...; the root package is
    /// `kpm-repro`).
    pub crate_name: String,
    /// Target class, which decides rule applicability.
    pub class: FileClass,
}

/// A lint rule's identity and one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable machine name, used in suppressions and JSON output.
    pub name: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in evaluation order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no_panic",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test \
                  library code of the kernel crates",
    },
    Rule {
        name: "safety_comment",
        summary: "every `unsafe` block and `unsafe impl` is immediately preceded by a \
                  `// SAFETY:` comment",
    },
    Rule {
        name: "hot_loop_alloc",
        summary: "no heap allocation (vec!/Vec::new/to_vec/clone/collect/format!/...) \
                  inside loops of the hot kernel files",
    },
    Rule {
        name: "par_lock",
        summary: "no Mutex/RwLock acquisition inside `par_*` iterator statements of the \
                  kernel crates — locks serialize the workers the statement just fanned out",
    },
    Rule {
        name: "relaxed_store",
        summary: "no `Ordering::Relaxed` store/swap outside the kpm-obs gate",
    },
    Rule {
        name: "doc_coverage",
        summary: "public fn/struct/enum/trait items in library code carry doc comments",
    },
    Rule {
        name: "obs_gate",
        summary: "kpm-obs recording entry points check `enabled()` before taking a lock \
                  or reading a clock",
    },
    Rule {
        name: "obs_label",
        summary: "metric and span names handed to the kpm-obs registries are \
                  dot-separated lowercase paths (`svc.queue.wait_ns`), so exports \
                  group by subsystem and the Prometheus mangling stays invertible",
    },
    Rule {
        name: "unknown_suppression",
        summary: "suppression markers must name an existing rule",
    },
    Rule {
        name: "lock_order",
        summary: "lock acquisition order is globally consistent — a cycle in the \
                  workspace lock graph (built over per-function CFGs and the call \
                  graph) is a potential deadlock",
    },
    Rule {
        name: "atomic_order",
        summary: "atomic store/load pairs agree on ordering (no Relaxed publish \
                  under an Acquire consumer and vice versa), and SeqCst stays \
                  reserved for the service Ledger",
    },
    Rule {
        name: "det_reduce",
        summary: "no `.sum()`/`.reduce()`/`.fold()`/`.product()` on `par_*` chains in \
                  kernel crates — combine fixed-chunk partials in index order \
                  (`kpm_num::pairwise_sum`) to keep reductions bitwise-deterministic",
    },
    Rule {
        name: "panic_path",
        summary: "kernel-crate library paths do not reach a panic transitively \
                  through callees (interprocedural extension of `no_panic`)",
    },
    Rule {
        name: "blocking_in_hot",
        summary: "no lock/channel-recv/IO reachable (directly or via the call \
                  graph) from loops and `par_*` closures of the hot kernel files",
    },
    Rule {
        name: "simd_scalar_tail",
        summary: "every `chunks_exact`/`chunks_exact_mut` lane split in the hot kernel \
                  files consumes its `remainder()`/`into_remainder()` in the same \
                  function body — a dropped tail silently skips the last partial group",
    },
    Rule {
        name: "unused_suppression",
        summary: "every `kpm::allow` marker still silences at least one finding; \
                  stale markers must be deleted",
    },
];

/// True if `name` is a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// The known rule closest to `name` by edit distance (for the
/// did-you-mean hint on misspelled suppressions).
pub fn nearest_rule(name: &str) -> &'static str {
    RULES
        .iter()
        .map(|r| (edit_distance(name, r.name), r.name))
        .min_by_key(|(d, _)| *d)
        .map(|(_, n)| n)
        .unwrap_or("no_panic")
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Per-line facts derived from the token stream.
#[derive(Debug, Clone, Copy, Default)]
struct LineInfo {
    /// Line contains at least one non-comment, non-attribute token.
    has_code: bool,
    /// Line lies inside an attribute (`#[...]`) span.
    has_attr: bool,
    /// Line carries a doc comment.
    has_doc: bool,
    /// Line carries any comment.
    has_comment: bool,
    /// Line carries a comment whose text starts with `SAFETY:`.
    has_safety: bool,
}

/// A code token (comments stripped) with its line.
#[derive(Debug, Clone)]
struct CTok {
    kind: TokKind,
    line: u32,
}

impl CTok {
    fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One resolved `kpm::allow(rule)` marker with usage tracking.
#[derive(Debug)]
pub struct Marker {
    /// The rule the marker names.
    pub rule: String,
    /// Line the marker comment starts on.
    pub marker_line: u32,
    /// Lines the marker covers: its own plus the next code line.
    pub lines: Vec<u32>,
    /// Findings this marker has silenced (interior-mutable so passes
    /// can record hits through a shared reference).
    pub hits: Cell<u32>,
}

/// All suppression markers of one file, with per-marker hit counts so
/// the `unused_suppression` audit can flag markers that never fire.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// Markers in source order.
    pub markers: Vec<Marker>,
}

impl Suppressions {
    /// True when `rule` is suppressed at `line`; records the hit on
    /// the first covering marker.
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        for m in &self.markers {
            if m.rule == rule && m.lines.contains(&line) {
                m.hits.set(m.hits.get() + 1);
                return true;
            }
        }
        false
    }

    /// Alias of [`Suppressions::allows`] used by the dataflow passes
    /// when vetting a *source site* (e.g. `panic_path` honoring a
    /// `kpm::allow(no_panic)` or `kpm::allow(panic_path)` marker on a
    /// panicking line so it does not propagate through the call
    /// graph). Passes only consult a marker when a real site matched
    /// its line, so the consult counts as the marker's use — without
    /// this, a propagation-only marker would always look stale to the
    /// `unused_suppression` audit.
    pub fn peek(&self, rule: &str, line: u32) -> bool {
        self.allows(rule, line)
    }
}

/// Shared per-file context handed to each rule pass.
struct Ctx<'a> {
    input: &'a FileInput,
    toks: Vec<CTok>,
    lines: Vec<LineInfo>, // indexed by line - 1
    test_lines: Vec<bool>,
    suppressed: Suppressions,
    diags: Vec<Diagnostic>,
}

impl Ctx<'_> {
    fn line_info(&self, line: u32) -> LineInfo {
        self.lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or_default()
    }

    fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed.allows(rule, line)
    }

    fn report(&mut self, rule: &'static str, line: u32, message: String) {
        if self.is_suppressed(rule, line) {
            return;
        }
        self.diags.push(Diagnostic {
            rule,
            file: self.input.path.clone(),
            line,
            message,
            hint: Diagnostic::suppression_hint(rule),
        });
    }
}

/// The per-file state the workspace AST passes consume: token-rule
/// diagnostics plus the parsed AST, test regions, and suppression
/// markers with live hit counts.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The file's identity (path, crate, class).
    pub input: FileInput,
    /// Parsed functions.
    pub ast: crate::ast::File,
    /// Per-line test flags (1-based line `l` at index `l - 1`).
    pub test_lines: Vec<bool>,
    /// Suppression markers with hit tracking.
    pub sup: Suppressions,
    /// Token-rule diagnostics (AST-pass findings are appended by the
    /// workspace driver).
    pub diags: Vec<Diagnostic>,
}

impl FileAnalysis {
    /// True when `line` lies in a `#[cfg(test)]`/`#[test]` region or
    /// the whole file is a test target.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.input.class == FileClass::Test
            || self
                .test_lines
                .get(line as usize - 1)
                .copied()
                .unwrap_or(false)
    }
}

/// Analyzes one source file and returns its diagnostics — token rules
/// plus the AST/call-graph passes run on the file alone. The full
/// workspace driver ([`crate::workspace`]) runs the same passes with
/// cross-file resolution.
pub fn analyze_source(input: &FileInput, src: &str) -> Vec<Diagnostic> {
    crate::workspace::analyze_sources(vec![(input.clone(), src.to_string())]).diags
}

/// Runs the token rules on one file and prepares the state the
/// workspace AST passes consume.
pub fn analyze_file(input: &FileInput, src: &str) -> FileAnalysis {
    let raw = lex(src);
    let nlines = src.lines().count().max(1);
    let mut ctx = build_ctx(input, &raw, nlines);

    if applies_no_panic(input) {
        no_panic(&mut ctx);
    }
    safety_comment(&mut ctx);
    if applies_hot_loop(input) {
        hot_loop_alloc(&mut ctx);
        simd_scalar_tail(&mut ctx);
    }
    if applies_par_lock(input) {
        par_lock(&mut ctx);
    }
    if input.crate_name != OBS_CRATE && matches!(input.class, FileClass::Lib | FileClass::Bin) {
        relaxed_store(&mut ctx);
    }
    if input.class == FileClass::Lib {
        doc_coverage(&mut ctx);
    }
    if input.crate_name == OBS_CRATE && input.class == FileClass::Lib {
        obs_gate(&mut ctx);
    }
    if matches!(input.class, FileClass::Lib | FileClass::Bin) {
        obs_label(&mut ctx, src);
    }

    let mut diags = ctx.diags;
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileAnalysis {
        input: input.clone(),
        ast: crate::ast::parse(src),
        test_lines: ctx.test_lines,
        sup: ctx.suppressed,
        diags,
    }
}

fn applies_no_panic(input: &FileInput) -> bool {
    input.class == FileClass::Lib && KERNEL_CRATES.contains(&input.crate_name.as_str())
}

fn applies_hot_loop(input: &FileInput) -> bool {
    input.class == FileClass::Lib
        && input.crate_name == "kpm-sparse"
        && HOT_KERNEL_FILES
            .iter()
            .any(|f| input.path.ends_with(&format!("/{f}")))
}

fn applies_par_lock(input: &FileInput) -> bool {
    input.class == FileClass::Lib && KERNEL_CRATES.contains(&input.crate_name.as_str())
}

// ---------------------------------------------------------------------
// Context construction: line table, attribute spans, test regions,
// suppression markers.
// ---------------------------------------------------------------------

fn build_ctx<'a>(input: &'a FileInput, raw: &[Token], nlines: usize) -> Ctx<'a> {
    let mut lines = vec![LineInfo::default(); nlines.max(1)];
    let mut toks: Vec<CTok> = Vec::with_capacity(raw.len());
    let mut raw_markers: Vec<(String, u32)> = Vec::new();
    let mut diags = Vec::new();

    let mark = |lines: &mut Vec<LineInfo>, from: u32, to: u32, f: &dyn Fn(&mut LineInfo)| {
        for l in from..=to {
            if let Some(info) = lines.get_mut(l as usize - 1) {
                f(info);
            }
        }
    };

    // Pass 1: split comments from code, build the line table, collect
    // suppression markers.
    for t in raw {
        match &t.kind {
            TokKind::LineComment(text) | TokKind::BlockComment(text) => {
                mark(&mut lines, t.line, t.end_line, &|i| i.has_comment = true);
                if text.trim_start().starts_with("SAFETY:") {
                    mark(&mut lines, t.line, t.end_line, &|i| i.has_safety = true);
                }
                collect_suppressions(text, t.line, &mut raw_markers, &mut diags, input);
            }
            TokKind::DocComment(_) => {
                mark(&mut lines, t.line, t.end_line, &|i| {
                    i.has_doc = true;
                    i.has_comment = true;
                });
            }
            kind => {
                toks.push(CTok {
                    kind: kind.clone(),
                    line: t.line,
                });
            }
        }
    }

    // Pass 2: attribute spans (their tokens are not "code" for the
    // purposes of comment-adjacency walks) and remaining code lines.
    let attr_spans = find_attr_spans(&toks);
    let mut in_attr = vec![false; toks.len()];
    for &(s, e) in &attr_spans {
        for slot in in_attr.iter_mut().take(e + 1).skip(s) {
            *slot = true;
        }
        mark(&mut lines, toks[s].line, toks[e].line, &|i| {
            i.has_attr = true
        });
    }
    for (i, t) in toks.iter().enumerate() {
        if !in_attr[i] {
            mark(&mut lines, t.line, t.line, &|i| i.has_code = true);
        }
    }

    // Pass 3: test regions from `#[cfg(test)]` / `#[test]` attributes.
    let mut test_lines = vec![false; lines.len()];
    for &(s, e) in &attr_spans {
        if attr_is_test(&toks[s..=e]) {
            if let Some((from, to)) = decorated_item_span(&toks, e + 1, &attr_spans) {
                let (l0, l1) = (toks[s].line, toks[to].line.max(toks[from].line));
                for l in l0..=l1 {
                    if let Some(slot) = test_lines.get_mut(l as usize - 1) {
                        *slot = true;
                    }
                }
            }
        }
    }

    // Resolve suppression markers onto lines: a marker applies to its
    // own line through the next line containing code, inclusive of
    // comment lines in between (so a `kpm::allow(unused_suppression)`
    // marker can vet a — deliberately kept — stale marker below it).
    let mut markers = Vec::new();
    for (rule, l) in raw_markers {
        let mut covered = vec![l];
        for next in (l + 1)..=(lines.len() as u32) {
            covered.push(next);
            if lines[next as usize - 1].has_code {
                break;
            }
        }
        markers.push(Marker {
            rule,
            marker_line: l,
            lines: covered,
            hits: Cell::new(0),
        });
    }

    Ctx {
        input,
        toks,
        lines,
        test_lines,
        suppressed: Suppressions { markers },
        diags,
    }
}

/// Records every `kpm::allow(rule)` marker found in `text`; unknown
/// rule names become `unknown_suppression` diagnostics.
fn collect_suppressions(
    text: &str,
    line: u32,
    raw_markers: &mut Vec<(String, u32)>,
    diags: &mut Vec<Diagnostic>,
    input: &FileInput,
) {
    const MARKER: &str = "kpm::allow(";
    let mut rest = text;
    while let Some(pos) = rest.find(MARKER) {
        rest = &rest[pos + MARKER.len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        if is_rule(&rule) {
            raw_markers.push((rule, line));
        } else {
            let near = nearest_rule(&rule);
            diags.push(Diagnostic {
                rule: "unknown_suppression",
                file: input.path.clone(),
                line,
                message: format!("suppression names unknown rule `{rule}`"),
                hint: format!("did you mean `kpm::allow({near})`?"),
            });
        }
    }
}

/// Index spans `(start, end)` of attribute token groups `#[...]` /
/// `#![...]` in the code-token stream.
fn find_attr_spans(toks: &[CTok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                if k < toks.len() {
                    spans.push((i, k));
                    i = k + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}

/// True when the attribute tokens mark test-only code: `#[test]`,
/// `#[cfg(test)]`, or a `cfg` mentioning `test` without `not(...)`.
fn attr_is_test(attr: &[CTok]) -> bool {
    let idents: Vec<&str> = attr.iter().filter_map(|t| t.ident()).collect();
    match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// The token span of the item an attribute at `start` decorates:
/// skips further attributes, then extends to the matching `}` of the
/// item's first top-level brace group, or to a top-level `;`.
fn decorated_item_span(
    toks: &[CTok],
    start: usize,
    attr_spans: &[(usize, usize)],
) -> Option<(usize, usize)> {
    let mut i = start;
    // Skip any further attributes on the same item.
    while let Some(&(_, e)) = attr_spans.iter().find(|&&(s, _)| s == i) {
        i = e + 1;
    }
    let from = i;
    let mut brace = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => {
                brace = brace.saturating_sub(1);
                if brace == 0 {
                    return Some((from, i));
                }
            }
            TokKind::Punct(';') if brace == 0 => return Some((from, i)),
            _ => {}
        }
        i += 1;
    }
    Some((from, toks.len().saturating_sub(1)))
}

// ---------------------------------------------------------------------
// Rule passes.
// ---------------------------------------------------------------------

/// Panicking constructs in non-test kernel-crate library code.
fn no_panic(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let prev_dot = i > 0 && ctx.toks[i - 1].is_punct('.');
        let next = ctx.toks.get(i + 1);
        match name {
            "unwrap" | "expect" if prev_dot && next.is_some_and(|n| n.is_punct('(')) => {
                findings.push((
                    t.line,
                    format!("call to `.{name}()` in kernel-crate library code; return a typed `KpmError` instead"),
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next.is_some_and(|n| n.is_punct('!')) =>
            {
                findings.push((
                    t.line,
                    format!(
                        "`{name}!` in kernel-crate library code; return a typed `KpmError` instead"
                    ),
                ));
            }
            _ => {}
        }
    }
    for (line, msg) in findings {
        ctx.report("no_panic", line, msg);
    }
}

/// `unsafe` blocks / impls must be immediately preceded by `// SAFETY:`.
fn safety_comment(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let what = match ctx.toks.get(i + 1) {
            Some(n) if n.is_punct('{') => "unsafe block",
            Some(n) if n.ident() == Some("impl") => "unsafe impl",
            _ => continue, // `unsafe fn` declarations document their contract in rustdoc
        };
        if !has_adjacent_safety_comment(ctx, t.line) {
            findings.push((
                t.line,
                format!("{what} without an immediately preceding `// SAFETY:` comment"),
            ));
        }
    }
    for (line, msg) in findings {
        ctx.report("safety_comment", line, msg);
    }
}

/// Walks upward from `line` through comment/attribute-only lines
/// looking for a `SAFETY:` comment; the walk stops at the first code
/// or blank line. The `unsafe` token's own line also counts (trailing
/// or inline block comments).
fn has_adjacent_safety_comment(ctx: &Ctx<'_>, line: u32) -> bool {
    if ctx.line_info(line).has_safety {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let info = ctx.line_info(l);
        if info.has_safety {
            return true;
        }
        let skippable = !info.has_code && (info.has_comment || info.has_doc || info.has_attr);
        if !skippable {
            return false; // code line or blank line: the comment is not adjacent
        }
        l -= 1;
    }
    false
}

const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone", "collect"];
const ALLOC_TYPES: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("String", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Walks the token stream tracking loop-body nesting and calls
/// `matcher` on every identifier token inside a (non-test) loop body;
/// whatever messages it returns are reported under `rule`.
fn walk_loops(
    ctx: &mut Ctx<'_>,
    rule: &'static str,
    matcher: fn(&Ctx<'_>, usize) -> Option<String>,
) {
    let mut findings = Vec::new();
    let mut brace_stack: Vec<bool> = Vec::new(); // true = loop body
    let mut loop_depth = 0usize;
    let mut pending_loop = false;
    let mut paren = 0usize;

    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        let prev = i.checked_sub(1).map(|p| &ctx.toks[p]);
        let next = ctx.toks.get(i + 1);
        match &t.kind {
            TokKind::Ident(name) => {
                match name.as_str() {
                    // `for` is a loop head unless it is `impl Trait for T`
                    // (previous token an ident or `>`) or an HRTB
                    // (`for<'a>`, next token `<`).
                    "for" => {
                        let prev_ty = prev.is_some_and(|p| p.ident().is_some() || p.is_punct('>'));
                        let hrtb = next.is_some_and(|n| n.is_punct('<'));
                        if !prev_ty && !hrtb {
                            pending_loop = true;
                        }
                    }
                    "while" | "loop" => pending_loop = true,
                    _ => {}
                }
                if loop_depth > 0 && !ctx.is_test_line(t.line) {
                    if let Some(msg) = matcher(ctx, i) {
                        findings.push((t.line, msg));
                    }
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren = paren.saturating_sub(1),
            TokKind::Punct('{') => {
                let is_loop = pending_loop && paren == 0;
                if is_loop {
                    pending_loop = false;
                    loop_depth += 1;
                }
                brace_stack.push(is_loop);
            }
            TokKind::Punct('}') => {
                let was_loop = brace_stack.pop();
                if was_loop == Some(true) {
                    loop_depth = loop_depth.saturating_sub(1);
                }
            }
            TokKind::Punct(';') if paren == 0 => pending_loop = false,
            _ => {}
        }
    }
    for (line, msg) in findings {
        ctx.report(rule, line, msg);
    }
}

/// Heap allocation inside loops of the hot kernel files.
fn hot_loop_alloc(ctx: &mut Ctx<'_>) {
    walk_loops(ctx, "hot_loop_alloc", alloc_at);
}

/// If the ident at `i` is an allocating construct, returns the message.
fn alloc_at(ctx: &Ctx<'_>, i: usize) -> Option<String> {
    let t = &ctx.toks[i];
    let name = t.ident()?;
    let prev_dot = i > 0 && ctx.toks[i - 1].is_punct('.');
    let next = ctx.toks.get(i + 1);
    if ALLOC_MACROS.contains(&name) && next.is_some_and(|n| n.is_punct('!')) {
        return Some(format!(
            "`{name}!` allocates inside a hot-kernel loop; hoist into a preallocated workspace"
        ));
    }
    if prev_dot
        && ALLOC_METHODS.contains(&name)
        && next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
    {
        return Some(format!(
            "`.{name}()` allocates inside a hot-kernel loop; hoist into a preallocated workspace"
        ));
    }
    if let Some((_, ctors)) = ALLOC_TYPES.iter().find(|(ty, _)| *ty == name) {
        if next.is_some_and(|n| n.is_punct(':'))
            && ctx.toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && ctx
                .toks
                .get(i + 3)
                .and_then(|n| n.ident())
                .is_some_and(|m| ctors.contains(&m))
        {
            let ctor = ctx.toks[i + 3].ident().unwrap_or_default();
            return Some(format!(
                "`{name}::{ctor}` allocates inside a hot-kernel loop; hoist into a \
                 preallocated workspace"
            ));
        }
    }
    None
}

const TAIL_SPLITS: &[&str] = &["chunks_exact", "chunks_exact_mut"];
const TAIL_HANDLERS: &[&str] = &["remainder", "into_remainder"];

/// `simd_scalar_tail`: a `chunks_exact` / `chunks_exact_mut` split in a
/// hot kernel file whose function body never consumes the iterator's
/// `remainder()` / `into_remainder()`. The split is how the SIMD lane
/// loops are written (full groups vectorized, leftover lanes scalar);
/// forgetting the tail does not fail to compile — it silently drops the
/// last `len mod LANES` elements, which for the SELL kernels means
/// whole matrix rows vanish from the accumulation.
fn simd_scalar_tail(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < ctx.toks.len() {
        if ctx.toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        // Body span: the first `{` after the signature (a `;` first
        // means a bodiless trait method), to its matching `}`.
        let Some(open) = (i + 1..ctx.toks.len())
            .find(|&k| ctx.toks[k].is_punct('{') || ctx.toks[k].is_punct(';'))
        else {
            break;
        };
        if ctx.toks[open].is_punct(';') {
            i = open + 1;
            continue;
        }
        let mut depth = 0usize;
        let mut close = open;
        while close < ctx.toks.len() {
            if ctx.toks[close].is_punct('{') {
                depth += 1;
            } else if ctx.toks[close].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let body = &ctx.toks[open..=close.min(ctx.toks.len() - 1)];
        let method_call = |k: usize, names: &[&str]| {
            body[k].ident().is_some_and(|n| names.contains(&n))
                && k > 0
                && body[k - 1].is_punct('.')
                && body.get(k + 1).is_some_and(|n| n.is_punct('('))
        };
        let splits: Vec<u32> = (0..body.len())
            .filter(|&k| method_call(k, TAIL_SPLITS) && !ctx.is_test_line(body[k].line))
            .map(|k| body[k].line)
            .collect();
        let handled = (0..body.len()).any(|k| method_call(k, TAIL_HANDLERS));
        if !handled {
            for line in splits {
                findings.push((
                    line,
                    "`chunks_exact` splits the lanes but the function never consumes \
                     `remainder()`/`into_remainder()`; handle the scalar tail in the \
                     same function body"
                        .to_string(),
                ));
            }
        }
        // Nested fns are re-scanned on their own `fn` token; advancing
        // past the outer body would skip them.
        i += 1;
    }
    // An unhandled split inside a nested fn surfaces once from the
    // inner scan and once from the enclosing body — keep one.
    findings.sort();
    findings.dedup();
    for (line, msg) in findings {
        ctx.report("simd_scalar_tail", line, msg);
    }
}

/// Lock acquisition inside `par_*` iterator statements of the kernel
/// crates. A `.lock()` (or a `Mutex`/`RwLock` value threaded into the
/// closure) inside the statement that just fanned work out across the
/// pool serializes the workers again — the classic way a "parallel"
/// kernel quietly runs at single-thread speed. Deliberate uses (e.g. a
/// gather point whose lock is taken once per chunk, not per element)
/// carry a `kpm::allow(par_lock)` marker.
fn par_lock(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < ctx.toks.len() {
        let t = &ctx.toks[i];
        let is_par_call = t.ident().is_some_and(|n| n.starts_with("par_"))
            && i > 0
            && ctx.toks[i - 1].is_punct('.')
            && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_par_call || ctx.is_test_line(t.line) {
            i += 1;
            continue;
        }
        // The parallel statement: from the `par_*` call to the `;` at
        // this nesting level (or the `}` that closes the enclosing
        // block for tail expressions). Everything in between — the
        // adaptor chain and its closures — runs on the pool.
        let mut depth = 0isize;
        let mut j = i + 1;
        let mut end = ctx.toks.len();
        while j < ctx.toks.len() {
            match &ctx.toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        end = j;
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for k in i..end.min(ctx.toks.len()) {
            let a = &ctx.toks[k];
            match a.ident() {
                Some("lock") => {
                    let is_call = k > 0
                        && ctx.toks[k - 1].is_punct('.')
                        && ctx.toks.get(k + 1).is_some_and(|n| n.is_punct('('));
                    if is_call {
                        findings.push((
                            a.line,
                            "`.lock()` inside a `par_*` statement serializes the worker \
                             threads; accumulate per-chunk and reduce after the parallel \
                             region"
                                .to_string(),
                        ));
                    }
                }
                Some(ty @ ("Mutex" | "RwLock")) => {
                    findings.push((
                        a.line,
                        format!(
                            "`{ty}` referenced inside a `par_*` statement; shared locked \
                             state serializes the worker threads — use per-chunk partials \
                             and a post-region reduction"
                        ),
                    ));
                }
                _ => {}
            }
        }
        i = end.max(i + 1);
    }
    for (line, msg) in findings {
        ctx.report("par_lock", line, msg);
    }
}

/// `Ordering::Relaxed` store/swap outside kpm-obs.
fn relaxed_store(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if !matches!(name, "store" | "swap") {
            continue;
        }
        let is_method_call = i > 0
            && ctx.toks[i - 1].is_punct('.')
            && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_method_call {
            continue;
        }
        // Scan the argument list for `Relaxed`.
        let mut depth = 0usize;
        for a in &ctx.toks[i + 1..] {
            match &a.kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(arg) if arg == "Relaxed" => {
                    findings.push((
                        t.line,
                        format!(
                            "`.{name}(…, Ordering::Relaxed)` outside the kpm-obs gate; \
                             atomics that publish state need `Release`/`SeqCst` (relaxed \
                             counters may only use load/fetch_add)"
                        ),
                    ));
                    break;
                }
                _ => {}
            }
        }
    }
    for (line, msg) in findings {
        ctx.report("relaxed_store", line, msg);
    }
}

/// Doc-comment coverage for public items in library code.
fn doc_coverage(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.ident() != Some("pub") || ctx.is_test_line(t.line) {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        if ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Scan past qualifier keywords to the item keyword.
        let mut j = i + 1;
        let mut item = None;
        while let Some(n) = ctx.toks.get(j) {
            match n.ident() {
                Some("unsafe") | Some("const") | Some("async") | Some("extern") => j += 1,
                Some(k) => {
                    item = Some((k.to_string(), j));
                    break;
                }
                None if n.kind == TokKind::Str => j += 1, // extern "C"
                None => break,
            }
        }
        let Some((kind, j)) = item else { continue };
        if !matches!(kind.as_str(), "fn" | "struct" | "enum" | "trait") {
            continue;
        }
        // `const fn` already matched via qualifier skip; the name is
        // the next ident.
        let item_name = ctx
            .toks
            .get(j + 1)
            .and_then(|n| n.ident())
            .unwrap_or("<unnamed>")
            .to_string();
        if !has_adjacent_doc(ctx, t.line) {
            findings.push((
                t.line,
                format!("public {kind} `{item_name}` has no doc comment"),
            ));
        }
    }
    for (line, msg) in findings {
        ctx.report("doc_coverage", line, msg);
    }
}

/// Walks upward from `line` through attribute/comment lines looking
/// for a doc comment.
fn has_adjacent_doc(ctx: &Ctx<'_>, line: u32) -> bool {
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let info = ctx.line_info(l);
        if info.has_doc {
            return true;
        }
        let skippable = !info.has_code && (info.has_comment || info.has_attr);
        if !skippable {
            return false;
        }
        l -= 1;
    }
    false
}

/// kpm-obs recording entry points (public unit-returning fns) must
/// check `enabled()` before taking the registry lock or reading the
/// clock. Query/snapshot APIs return values, so they are exempt by
/// shape; deliberate exceptions carry a suppression marker.
fn obs_gate(ctx: &mut Ctx<'_>) {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.ident() != Some("pub")
            || ctx.is_test_line(t.line)
            || ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            i += 1;
            continue;
        }
        // Find `fn` within the qualifier window.
        let mut j = i + 1;
        while ctx
            .toks
            .get(j)
            .and_then(|n| n.ident())
            .is_some_and(|k| matches!(k, "unsafe" | "const" | "async" | "extern"))
        {
            j += 1;
        }
        if ctx.toks.get(j).and_then(|n| n.ident()) != Some("fn") {
            i += 1;
            continue;
        }
        let fn_line = t.line;
        let fn_name = ctx
            .toks
            .get(j + 1)
            .and_then(|n| n.ident())
            .unwrap_or("<unnamed>")
            .to_string();
        // Parameter list: first `(` after the name, to its match.
        let Some(po) = (j + 1..ctx.toks.len()).find(|&k| ctx.toks[k].is_punct('(')) else {
            i = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut pc = po;
        while pc < ctx.toks.len() {
            if ctx.toks[pc].is_punct('(') {
                depth += 1;
            } else if ctx.toks[pc].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            pc += 1;
        }
        // Signature tail up to the body brace: a `->` means the fn
        // returns a value (query API) and is exempt.
        let mut k = pc + 1;
        let mut returns_value = false;
        while k < ctx.toks.len() && !ctx.toks[k].is_punct('{') && !ctx.toks[k].is_punct(';') {
            if ctx.toks[k].is_punct('-') && ctx.toks.get(k + 1).is_some_and(|n| n.is_punct('>')) {
                returns_value = true;
            }
            k += 1;
        }
        if returns_value || k >= ctx.toks.len() || ctx.toks[k].is_punct(';') {
            i = k + 1;
            continue;
        }
        // Body span.
        let body_start = k;
        let mut bd = 0usize;
        let mut be = body_start;
        while be < ctx.toks.len() {
            if ctx.toks[be].is_punct('{') {
                bd += 1;
            } else if ctx.toks[be].is_punct('}') {
                bd -= 1;
                if bd == 0 {
                    break;
                }
            }
            be += 1;
        }
        let body = &ctx.toks[body_start..=be.min(ctx.toks.len() - 1)];
        let first_hot = body.iter().position(|b| is_lock_or_clock(body, b));
        let first_gate = body
            .windows(2)
            .position(|w| w[0].ident() == Some("enabled") && w[1].is_punct('('));
        if let Some(hot) = first_hot {
            let gated = first_gate.is_some_and(|g| g < hot);
            if !gated {
                findings.push((
                    fn_line,
                    format!(
                        "recording entry point `{fn_name}` takes a lock or reads the clock \
                         without first checking `enabled()`; the disabled path must be a \
                         single relaxed load"
                    ),
                ));
            }
        }
        i = be + 1;
    }
    for (line, msg) in findings {
        ctx.report("obs_gate", line, msg);
    }
}

/// Calls whose first string-literal argument is a metric/span/event
/// name registered with `kpm-obs`. Method-call forms (`.record(`)
/// never name registry entries and are skipped.
const OBS_NAME_CALLS: &[&str] = &[
    "span",
    "record_manual",
    "counter_add",
    "counter_inc",
    "gauge_set",
    "gauge_max",
    "hist_record",
    "hist_record_ns",
    "record",
    "note",
];

/// True when `name` is a dot-separated lowercase path
/// (`svc.queue.wait_ns`): at least two segments, each starting with a
/// letter, using only `[a-z0-9_]`.
fn is_obs_label(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// `obs_label`: every name handed to the kpm-obs registries —
/// `span("...")`, `metrics::counter_add("...")`, `hist::record("...")`,
/// `recorder::note("...")`, ... — is a dot-separated lowercase path, so
/// trace viewers and the Prometheus exposition group by subsystem
/// prefix. Scans raw source lines (the lexer drops string payloads);
/// test code and comment lines are exempt.
fn obs_label(ctx: &mut Ctx<'_>, src: &str) {
    let mut findings = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if ctx.is_test_line(lineno) || line.trim_start().starts_with("//") {
            continue;
        }
        let bytes = line.as_bytes();
        for call in OBS_NAME_CALLS {
            let mut from = 0usize;
            while let Some(pos) = line[from..].find(call) {
                let start = from + pos;
                let after = start + call.len();
                from = after;
                // Identifier boundary before, `("` immediately after:
                // `hist_record(` must not also match as `record(`, and
                // `.note(`-style method calls are not registry names.
                let prev = start.checked_sub(1).map(|p| bytes[p] as char);
                if prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.') {
                    continue;
                }
                let rest = &line[after..];
                let Some(arg) = rest.strip_prefix("(\"") else {
                    continue;
                };
                let Some(end) = arg.find('"') else { continue };
                let name = &arg[..end];
                if !is_obs_label(name) {
                    findings.push((
                        lineno,
                        format!(
                            "`{call}(\"{name}\", ...)`: kpm-obs names are dot-separated \
                             lowercase paths like `svc.queue.wait_ns`"
                        ),
                    ));
                }
            }
        }
    }
    for (line, msg) in findings {
        ctx.report("obs_label", line, msg);
    }
}

/// True when the token is the `lock` of `.lock(` or the `Instant` of
/// `Instant::now`.
fn is_lock_or_clock(body: &[CTok], t: &CTok) -> bool {
    let idx = body
        .iter()
        .position(|b| std::ptr::eq(b, t))
        .unwrap_or(usize::MAX);
    if idx == usize::MAX {
        return false;
    }
    match t.ident() {
        Some("lock") => {
            idx > 0
                && body[idx - 1].is_punct('.')
                && body.get(idx + 1).is_some_and(|n| n.is_punct('('))
        }
        Some("Instant") | Some("SystemTime") => {
            body.get(idx + 1).is_some_and(|n| n.is_punct(':'))
                && body.get(idx + 2).is_some_and(|n| n.is_punct(':'))
                && body
                    .get(idx + 3)
                    .and_then(|n| n.ident())
                    .is_some_and(|m| m == "now")
        }
        _ => false,
    }
}
