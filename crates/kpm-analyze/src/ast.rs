//! A call tree for the Rust subset the workspace uses, produced by a
//! hand-rolled recursive-descent parser over [`crate::lexer`] tokens.
//!
//! `panic_path` needs to know which function calls which and where a
//! function panics; nothing else. The parser therefore recovers
//! exactly that — items (functions, with their enclosing `impl`/`trait`
//! type) and, per body, the calls, method chains and macros in it —
//! and flattens everything else (control flow, operators, types,
//! patterns, closures) into [`Expr::Other`] nodes that only carry the
//! calls nested inside them.
//!
//! Tolerance is a design requirement: the lints must degrade
//! gracefully on code rustc would reject. Unknown constructs are
//! skipped token by token; delimited groups are always descended into,
//! so a call buried in an unrecognized expression is still seen.

use crate::lexer::{lex, TokKind};

/// All functions found in one source file, flattened: methods carry
/// their `impl`/`trait` type in [`FnDef::self_type`], nested `fn`
/// items appear as their own entries.
#[derive(Debug, Default)]
pub struct File {
    /// Every function with a body, in source order.
    pub fns: Vec<FnDef>,
}

/// One function definition with a parsed body.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl`/`trait` type, when the fn is a method.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The body's atoms in source order.
    pub body: Vec<Expr>,
}

/// An expression atom. Chains associate leftward: `a.b.c()` is
/// `MethodCall { recv: Other[Other[]], name: c }`.
#[derive(Debug)]
pub enum Expr {
    /// A path call `foo(..)` / `Type::foo(..)` / `a::b::foo(..)`.
    Call {
        /// Path segments, last one the called name.
        path: Vec<String>,
        /// Argument atoms (flattened across commas).
        args: Vec<Expr>,
        /// Line of the called name.
        line: u32,
    },
    /// A method call `recv.name(..)`.
    MethodCall {
        /// The receiver chain.
        recv: Box<Expr>,
        /// The method name.
        name: String,
        /// Argument atoms.
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
    },
    /// A macro invocation `name!(..)` / `name![..]` / `name!{..}`.
    MacroCall {
        /// The macro name (last path segment).
        name: String,
        /// Atoms parsed from the macro's token stream.
        args: Vec<Expr>,
        /// Line of the macro name.
        line: u32,
    },
    /// Anything else — a path, literal, field access, index, block,
    /// group, closure or loop — with the atoms nested inside it.
    Other(Vec<Expr>),
}

impl Expr {
    /// Pre-order walk over this atom and everything nested in it.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } | Expr::MacroCall { args, .. } | Expr::Other(args) => {
                walk_all(args, f)
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                walk_all(args, f);
            }
        }
    }
}

/// Pre-order walk over every atom of a body.
pub fn walk_all<'a>(atoms: &'a [Expr], f: &mut impl FnMut(&'a Expr)) {
    for a in atoms {
        a.walk(f);
    }
}

/// Parses `src` into its flattened function list.
pub fn parse(src: &str) -> File {
    let code: Vec<(TokKind, u32)> = lex(src)
        .into_iter()
        .filter_map(|t| match t.kind {
            TokKind::LineComment(_) | TokKind::BlockComment(_) | TokKind::DocComment(_) => None,
            k => Some((k, t.line)),
        })
        .collect();
    let tree = build_tree(&code);
    let mut p = Parser { fns: Vec::new() };
    p.items(&tree, None);
    File { fns: p.fns }
}

// ---------------------------------------------------------------------
// Token tree: nesting by (), [], {} with tolerant matching.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Node {
    Tok(TokKind, u32),
    Group(char, Vec<Node>, u32),
}

impl Node {
    fn line(&self) -> u32 {
        match self {
            Node::Tok(_, l) | Node::Group(_, _, l) => *l,
        }
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Node::Tok(TokKind::Ident(s), _) => Some(s),
            _ => None,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self, Node::Tok(TokKind::Punct(p), _) if *p == c)
    }

    fn group(&self, open: char) -> Option<&[Node]> {
        match self {
            Node::Group(o, children, _) if *o == open => Some(children),
            _ => None,
        }
    }
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// An open delimiter group: its opener, line, and children so far.
type Open = (char, u32, Vec<Node>);

/// Appends `node` to the innermost open group, or to the top level.
fn attach(stack: &mut [Open], top: &mut Vec<Node>, node: Node) {
    match stack.last_mut() {
        Some((_, _, parent)) => parent.push(node),
        None => top.push(node),
    }
}

fn build_tree(code: &[(TokKind, u32)]) -> Vec<Node> {
    // Stack of open groups; the bottom is the top level.
    let mut stack: Vec<Open> = Vec::new();
    let mut top: Vec<Node> = Vec::new();
    for (kind, line) in code {
        match kind {
            TokKind::Punct(c @ ('(' | '[' | '{')) => stack.push((*c, *line, Vec::new())),
            // Close the innermost group whose delimiter matches;
            // mismatched closers are dropped (tolerance).
            TokKind::Punct(c @ (')' | ']' | '}')) => {
                if stack.last().is_some_and(|(o, _, _)| close_of(*o) == *c) {
                    if let Some((o, l, children)) = stack.pop() {
                        attach(&mut stack, &mut top, Node::Group(o, children, l));
                    }
                }
            }
            k => attach(&mut stack, &mut top, Node::Tok(k.clone(), *line)),
        }
    }
    // Unterminated groups: close them all (tolerance).
    while let Some((o, l, children)) = stack.pop() {
        attach(&mut stack, &mut top, Node::Group(o, children, l));
    }
    top
}

// ---------------------------------------------------------------------
// Item parsing.
// ---------------------------------------------------------------------

struct Parser {
    fns: Vec<FnDef>,
}

/// Skips a balanced `<...>` region starting at `i` (which points at the
/// `<`); returns the index just past the matching `>`. `>>` closes two
/// levels because the lexer emits single-char puncts.
fn skip_angles(nodes: &[Node], i: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < nodes.len() {
        if nodes[j].is_punct('<') {
            depth += 1;
        } else if nodes[j].is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if nodes[j].is_punct(';') {
            // Tolerance: a stray `;` means we misread a less-than.
            return j;
        }
        j += 1;
    }
    j
}

/// Index of the first `{ .. }` group at or after `from`, stopping at a
/// top-level `;` (a bodiless item).
fn body_brace(nodes: &[Node], from: usize) -> Option<usize> {
    (from..nodes.len())
        .take_while(|&j| !nodes[j].is_punct(';'))
        .find(|&j| nodes[j].group('{').is_some())
}

/// Index just past the top-level `;` at or after `from`.
fn past_semicolon(nodes: &[Node], from: usize) -> usize {
    (from..nodes.len())
        .find(|&j| nodes[j].is_punct(';'))
        .map_or(nodes.len(), |j| j + 1)
}

impl Parser {
    fn items(&mut self, nodes: &[Node], self_type: Option<&str>) {
        let mut i = 0;
        while i < nodes.len() {
            // Attributes: `#` [`!`] `[...]`.
            if nodes[i].is_punct('#') {
                let j = i + 1 + usize::from(nodes.get(i + 1).is_some_and(|n| n.is_punct('!')));
                if nodes.get(j).is_some_and(|n| n.group('[').is_some()) {
                    i = j + 1;
                    continue;
                }
            }
            let item_start = i;
            if nodes[i].ident() == Some("pub") {
                i += 1;
                if nodes.get(i).is_some_and(|n| n.group('(').is_some()) {
                    i += 1; // pub(crate) / pub(super)
                }
            }
            while let Some(q) = nodes.get(i).and_then(Node::ident) {
                match q {
                    "const" | "async" | "unsafe" | "default" => i += 1,
                    "extern" => {
                        i += 1;
                        if matches!(nodes.get(i), Some(Node::Tok(TokKind::Str, _))) {
                            i += 1;
                        }
                    }
                    _ => break,
                }
            }
            match nodes.get(i).and_then(Node::ident) {
                Some("fn") => i = self.parse_fn(nodes, i, self_type),
                Some("impl") => i = self.parse_impl(nodes, i),
                // `trait Name: Bounds { items }` / `mod name { items }`
                Some(kw @ ("trait" | "mod")) => {
                    let name = nodes.get(i + 1).and_then(Node::ident);
                    let inner = if kw == "trait" { name } else { None };
                    match body_brace(nodes, i + 2) {
                        Some(j) => {
                            if let Some(children) = nodes[j].group('{') {
                                self.items(children, inner);
                            }
                            i = j + 1;
                        }
                        None => i = past_semicolon(nodes, i),
                    }
                }
                // Skip to the body or the terminating `;`.
                Some("struct" | "enum" | "union") => {
                    i = body_brace(nodes, i + 1).map_or_else(|| past_semicolon(nodes, i), |j| j + 1)
                }
                // `macro_rules! name { ... }`
                Some("macro_rules") => {
                    i = (i + 1..nodes.len())
                        .find(|&j| nodes[j].group('{').is_some())
                        .map_or(nodes.len(), |j| j + 1)
                }
                // A non-fn item behind qualifiers (`const X: .. = ..;`,
                // `pub use ..;`) or a `static`/`type`/`use` item.
                Some("static" | "type" | "use") => i = past_semicolon(nodes, i),
                _ if i > item_start => i = past_semicolon(nodes, i),
                _ => i += 1,
            }
        }
    }

    /// Parses `fn name<..>(params) -> Ret where .. { body }` starting
    /// at the `fn` keyword; returns the index past the item.
    fn parse_fn(&mut self, nodes: &[Node], fn_kw: usize, self_type: Option<&str>) -> usize {
        let line = nodes[fn_kw].line();
        let Some(name) = nodes.get(fn_kw + 1).and_then(Node::ident) else {
            return fn_kw + 1;
        };
        let mut j = fn_kw + 2;
        if nodes.get(j).is_some_and(|n| n.is_punct('<')) {
            j = skip_angles(nodes, j);
        }
        // Parameter list.
        while j < nodes.len() && nodes[j].group('(').is_none() {
            if nodes[j].is_punct(';') || nodes[j].group('{').is_some() {
                return j + 1; // malformed; tolerate
            }
            j += 1;
        }
        // Signature tail: the body brace or a `;` (trait signature).
        let Some(b) = body_brace(nodes, j + 1) else {
            return past_semicolon(nodes, j + 1);
        };
        let body = self.atoms(nodes[b].group('{').unwrap_or_default());
        self.fns.push(FnDef {
            name: name.to_string(),
            self_type: self_type.map(str::to_string),
            line,
            body,
        });
        b + 1
    }

    /// Parses `impl<..> Type { .. }` / `impl<..> Trait for Type { .. }`
    /// starting at the `impl` keyword; returns the index past the item.
    fn parse_impl(&mut self, nodes: &[Node], impl_kw: usize) -> usize {
        let mut k = impl_kw + 1;
        if nodes.get(k).is_some_and(|n| n.is_punct('<')) {
            k = skip_angles(nodes, k);
        }
        // The self type: the first path-head ident after `for` if
        // present, else the first after the generics.
        let mut ty: Option<&str> = None;
        let mut after_for: Option<&str> = None;
        let mut saw_for = false;
        while k < nodes.len() {
            if let Some(children) = nodes[k].group('{') {
                self.items(children, after_for.or(ty));
                return k + 1;
            }
            if nodes[k].is_punct(';') {
                return k + 1;
            }
            if nodes[k].is_punct('<') {
                k = skip_angles(nodes, k);
                continue;
            }
            match nodes[k].ident() {
                Some("for") => saw_for = true,
                Some("where" | "dyn") | None => {}
                Some(id) if saw_for => after_for = after_for.or(Some(id)),
                Some(id) => ty = ty.or(Some(id)),
            }
            k += 1;
        }
        k
    }

    // -----------------------------------------------------------------
    // Expression parsing.
    // -----------------------------------------------------------------

    /// Parses a run of nodes into expression atoms.
    fn atoms(&mut self, nodes: &[Node]) -> Vec<Expr> {
        let mut out: Vec<Expr> = Vec::new();
        // True right after an atom completes: decides whether `[`
        // indexes the previous atom.
        let mut atom_done = false;
        let mut i = 0;
        while i < nodes.len() {
            match &nodes[i] {
                Node::Tok(TokKind::Ident(id), _) => match id.as_str() {
                    // Nested function item inside a body.
                    "fn" => {
                        i = self.parse_fn(nodes, i, None);
                        atom_done = false;
                    }
                    // Keywords: atom boundaries; the blocks and
                    // expressions after them parse as ordinary atoms.
                    "if" | "else" | "match" | "for" | "while" | "loop" | "return" | "break"
                    | "continue" | "let" | "mut" | "ref" | "move" | "unsafe" | "as" | "dyn"
                    | "in" | "impl" | "where" | "struct" | "enum" | "trait" | "mod" | "use"
                    | "static" | "type" | "pub" | "crate" | "super" | "await" => {
                        atom_done = false;
                        i += 1;
                    }
                    _ => {
                        i = self.parse_path_like(nodes, i, &mut out);
                        atom_done = true;
                    }
                },
                Node::Tok(TokKind::Punct('.'), _) => {
                    // Chain link: method call, field, or tuple index.
                    match nodes.get(i + 1) {
                        Some(Node::Tok(TokKind::Ident(name), line)) => {
                            let recv = Box::new(out.pop().unwrap_or(Expr::Other(Vec::new())));
                            // Turbofish between name and args.
                            let mut j = i + 2;
                            if nodes.get(j).is_some_and(|n| n.is_punct(':'))
                                && nodes.get(j + 1).is_some_and(|n| n.is_punct(':'))
                                && nodes.get(j + 2).is_some_and(|n| n.is_punct('<'))
                            {
                                j = skip_angles(nodes, j + 2);
                            }
                            if let Some(children) = nodes.get(j).and_then(|n| n.group('(')) {
                                out.push(Expr::MethodCall {
                                    recv,
                                    name: name.clone(),
                                    args: self.atoms(children),
                                    line: *line,
                                });
                                i = j + 1;
                            } else {
                                out.push(Expr::Other(vec![*recv]));
                                i += 2;
                            }
                            atom_done = true;
                        }
                        Some(Node::Tok(TokKind::Num, _)) => {
                            let recv = out.pop().unwrap_or(Expr::Other(Vec::new()));
                            out.push(Expr::Other(vec![recv]));
                            i += 2;
                            atom_done = true;
                        }
                        _ => {
                            // `..` range or stray dot.
                            atom_done = false;
                            i += 1;
                        }
                    }
                }
                Node::Tok(TokKind::Punct('#'), _) => {
                    // Statement-level attribute: `#` [`!`] `[...]`.
                    let j = i + 1 + usize::from(nodes.get(i + 1).is_some_and(|n| n.is_punct('!')));
                    i = if nodes.get(j).is_some_and(|n| n.group('[').is_some()) {
                        j + 1
                    } else {
                        i + 1
                    };
                }
                Node::Tok(TokKind::Punct('?'), _) => {
                    i += 1; // keeps atom_done as-is: `x.f()?.g()`
                }
                Node::Tok(TokKind::Str | TokKind::Char | TokKind::Num, _) => {
                    out.push(Expr::Other(Vec::new()));
                    atom_done = true;
                    i += 1;
                }
                // Operators, type punctuation, labels: atom boundaries.
                Node::Tok(_, _) => {
                    atom_done = false;
                    i += 1;
                }
                Node::Group(open, children, _) => {
                    let mut items = self.atoms(children);
                    if *open == '[' && atom_done {
                        // Indexing the previous atom.
                        items.insert(0, out.pop().unwrap_or(Expr::Other(Vec::new())));
                    }
                    out.push(Expr::Other(items));
                    atom_done = true;
                    i += 1;
                }
            }
        }
        out
    }

    /// Parses a path head at `i` (`foo`, `a::b::c`, turbofish) and its
    /// call/macro continuation; returns the index past it.
    fn parse_path_like(&mut self, nodes: &[Node], i: usize, out: &mut Vec<Expr>) -> usize {
        let line = nodes[i].line();
        let mut segs = vec![nodes[i].ident().unwrap_or_default().to_string()];
        let mut j = i + 1;
        while nodes.get(j).is_some_and(|n| n.is_punct(':'))
            && nodes.get(j + 1).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(seg) = nodes.get(j + 2).and_then(Node::ident) {
                segs.push(seg.to_string());
                j += 3;
            } else if nodes.get(j + 2).is_some_and(|n| n.is_punct('<')) {
                j = skip_angles(nodes, j + 2);
            } else {
                break;
            }
        }
        // Macro?
        if nodes.get(j).is_some_and(|n| n.is_punct('!')) {
            if let Some(Node::Group(_, children, _)) = nodes.get(j + 1) {
                out.push(Expr::MacroCall {
                    name: segs.pop().unwrap_or_default(),
                    args: self.atoms(children),
                    line,
                });
                return j + 2;
            }
        }
        // Call?
        if let Some(children) = nodes.get(j).and_then(|n| n.group('(')) {
            out.push(Expr::Call {
                path: segs,
                args: self.atoms(children),
                line,
            });
            return j + 1;
        }
        out.push(Expr::Other(Vec::new()));
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_fn(src: &str) -> FnDef {
        let mut file = parse(src);
        assert!(!file.fns.is_empty(), "no fn parsed from: {src}");
        file.fns.remove(0)
    }

    /// Every call in `f`'s body as `name@line`: `path::name` for path
    /// calls, `.name` for method calls, `name!` for macros.
    fn calls(f: &FnDef) -> Vec<String> {
        let mut out = Vec::new();
        walk_all(&f.body, &mut |e| match e {
            Expr::Call { path, line, .. } => out.push(format!("{}@{line}", path.join("::"))),
            Expr::MethodCall { name, line, .. } => out.push(format!(".{name}@{line}")),
            Expr::MacroCall { name, line, .. } => out.push(format!("{name}!@{line}")),
            Expr::Other(_) => {}
        });
        out
    }

    #[test]
    fn parses_free_fn_and_method() {
        let file = parse(
            "pub fn free(x: u32) -> u32 { x }\n\
             impl Foo { fn method(&self) {} }\n\
             impl Iterator for Bar { fn next(&mut self) -> Option<u32> { None } }",
        );
        let names: Vec<(String, Option<String>, u32)> = file
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_type.clone(), f.line))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, 1),
                ("method".into(), Some("Foo".into()), 2),
                ("next".into(), Some("Bar".into()), 3),
            ]
        );
    }

    #[test]
    fn method_chains_associate_leftward() {
        let f = first_fn("fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * x).sum() }");
        assert_eq!(calls(&f), vec![".sum@1", ".map@1", ".par_iter@1"]);
        // sum's receiver chain reaches par_iter.
        let Expr::MethodCall { recv, .. } = &f.body[0] else {
            panic!("{:?}", f.body);
        };
        let Expr::MethodCall { recv, .. } = &**recv else {
            panic!("{recv:?}");
        };
        assert!(matches!(&**recv, Expr::MethodCall { name, .. } if name == "par_iter"));
    }

    #[test]
    fn calls_inside_control_flow_closures_and_indexing_are_seen() {
        let f = first_fn(
            "fn f(x: u32) -> u32 {\n\
                 for r in 0..h.n() { let acc = h.row(r); }\n\
                 v.iter().for_each(|x| { sink(x); });\n\
                 if x > 1 { a(); } else if x == 0 { b(); } else { c(); }\n\
                 match x { 0 => d(), _ => { e()[idx()].g(); } }\n\
                 while let Some(y) = it.next() { loop { break; } }\n\
                 x\n\
             }",
        );
        let found = calls(&f);
        for c in [
            ".n@2",
            ".row@2",
            ".for_each@3",
            "sink@3",
            "a@4",
            "b@4",
            "c@4",
            "d@5",
            "e@5",
            "idx@5",
            ".g@5",
            "Some@6",
            ".next@6",
        ] {
            assert!(found.contains(&c.to_string()), "missing {c} in {found:?}");
        }
    }

    #[test]
    fn macros_and_path_calls() {
        let f = first_fn(
            "fn f() { let v = vec![compute(1), 2]; CrsMatrix::from_raw(&v); \
             assert_eq!(helper(v), 3); x.collect::<Vec<_>>(); }",
        );
        assert_eq!(
            calls(&f),
            vec![
                "vec!@1",
                "compute@1",
                "CrsMatrix::from_raw@1",
                "assert_eq!@1",
                "helper@1",
                ".collect@1"
            ]
        );
    }

    #[test]
    fn nested_fns_and_generics_tolerated() {
        let file = parse(
            "fn outer<T: Into<Vec<u8>>>(x: T) -> Result<(), E> where T: Clone {\n\
                 fn inner(y: u32) -> u32 { y.helper() }\n\
                 Ok(())\n\
             }",
        );
        let names: Vec<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "outer"]);
        // The nested fn's calls are its own, not the outer fn's.
        assert_eq!(calls(&file.fns[1]), vec!["Ok@3"]);
    }

    #[test]
    fn trait_default_methods_have_bodies() {
        let file =
            parse("pub trait Kernels { fn spmv(&self); fn tuned(&self) -> bool { self.probe() } }");
        assert_eq!(file.fns.len(), 1);
        assert_eq!(file.fns[0].name, "tuned");
        assert_eq!(file.fns[0].self_type.as_deref(), Some("Kernels"));
    }
}
