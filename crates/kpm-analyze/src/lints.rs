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

/// Crates whose non-test library code must be panic-free (`no_panic`,
/// `panic_path`).
pub const KERNEL_CRATES: &[&str] = &[
    "kpm-sparse",
    "kpm-num",
    "kpm-core",
    "kpm-hetsim",
    "kpm-service",
];

/// Hot-kernel files checked for in-loop heap allocation.
pub const HOT_KERNEL_FILES: &[&str] = &["sweep.rs", "stencil.rs"];

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

/// Every rule the engine knows, by the name suppression markers use.
/// Each of the first four has caught a real defect (DESIGN.md, "Static
/// analysis & model checking", names the PR); the last two audit the
/// `kpm::allow` markers themselves.
pub const RULES: &[&str] = &[
    // No unwrap/expect/panic!/unreachable!/todo!/unimplemented! in
    // non-test library code of the kernel crates.
    "no_panic",
    // Every `unsafe` block and `unsafe impl` is immediately preceded
    // by a `// SAFETY:` comment.
    "safety_comment",
    // No heap allocation (vec!/Vec::new/to_vec/clone/collect/format!/
    // ...) inside loops of the hot kernel files.
    "hot_loop_alloc",
    // Kernel-crate library paths do not reach a panic transitively
    // through callees (interprocedural extension of `no_panic`).
    "panic_path",
    // Suppression markers name an existing rule.
    "unknown_suppression",
    // Every marker still silences at least one finding.
    "unused_suppression",
];

/// True if `name` is a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.contains(&name)
}

/// The known rule closest to `name` by edit distance (for the
/// did-you-mean hint on misspelled suppressions).
pub fn nearest_rule(name: &str) -> &'static str {
    RULES
        .iter()
        .map(|r| (edit_distance(name, r), *r))
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
    /// Line carries any comment (doc comments included).
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

/// The per-file state `panic_path` consumes: token-rule diagnostics
/// plus the parsed AST, test regions, and suppression markers with live
/// hit counts.
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
    /// Token-rule diagnostics (`panic_path` findings are appended by
    /// the workspace driver).
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
/// plus `panic_path` run on the file alone. The full workspace driver
/// ([`crate::workspace`]) runs the same analysis with cross-file
/// resolution.
pub fn analyze_source(input: &FileInput, src: &str) -> Vec<Diagnostic> {
    crate::workspace::analyze_sources(vec![(input.clone(), src.to_string())]).diags
}

/// Runs the token rules on one file and prepares the state
/// `panic_path` consumes.
pub fn analyze_file(input: &FileInput, src: &str) -> FileAnalysis {
    let raw = lex(src);
    let nlines = src.lines().count().max(1);
    let mut ctx = build_ctx(input, &raw, nlines);

    if applies_no_panic(input) {
        no_panic(&mut ctx);
    }
    safety_comment(&mut ctx);
    if is_hot_kernel_file(input) {
        hot_loop_alloc(&mut ctx);
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

/// True for the kpm-sparse library files named in [`HOT_KERNEL_FILES`].
pub fn is_hot_kernel_file(input: &FileInput) -> bool {
    input.class == FileClass::Lib
        && input.crate_name == "kpm-sparse"
        && HOT_KERNEL_FILES
            .iter()
            .any(|f| input.path.ends_with(&format!("/{f}")))
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
                mark(&mut lines, t.line, t.end_line, &|i| i.has_comment = true);
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
        let skippable = !info.has_code && (info.has_comment || info.has_attr);
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

/// Heap allocation inside loops of the hot kernel files: walks the
/// token stream tracking loop-body nesting and checks every identifier
/// token inside a (non-test) loop body.
fn hot_loop_alloc(ctx: &mut Ctx<'_>) {
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
                    if let Some(msg) = alloc_at(ctx, i) {
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
        ctx.report("hot_loop_alloc", line, msg);
    }
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
