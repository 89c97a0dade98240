//! A spanned AST for the Rust subset the workspace uses, produced by a
//! hand-rolled recursive-descent parser over [`crate::lexer`] tokens.
//!
//! The dataflow passes need *flow*, not token adjacency: which function
//! calls which, what runs inside a loop body or a `par_*` closure,
//! which lock is held when another is acquired. The parser therefore
//! recovers exactly that structure — items (functions, with their
//! enclosing `impl`/`trait` type), statements, and an expression tree
//! of calls, method chains, field paths, macros, closures, loops, and
//! branches — and deliberately flattens everything else (operators,
//! types, patterns) into skipped trivia.
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
    /// Whether the fn is `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// The parsed body.
    pub body: Block,
}

/// A brace-delimited block of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Line of the opening brace.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
}

/// One statement: an optional `let` binding name plus the expression
/// atoms of the statement in source order. Operators between atoms are
/// dropped, so `f(x) + g(y)` is two sibling atoms.
#[derive(Debug)]
pub struct Stmt {
    /// `Some(name)` for `let name = ...` (simple lowercase bindings
    /// only; destructuring patterns yield `None`).
    pub binding: Option<String>,
    /// The statement's expression atoms.
    pub exprs: Vec<Expr>,
    /// Line on which the statement starts.
    pub line: u32,
}

/// An expression atom. Chains associate leftward: `a.b.c()` is
/// `MethodCall { recv: Field { recv: Path(a), name: b }, name: c }`.
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
    /// A field access `recv.name` (also `recv[..]` as name `[]` and
    /// tuple fields as their index).
    Field {
        /// The receiver chain.
        recv: Box<Expr>,
        /// The field name.
        name: String,
        /// Line of the field name.
        line: u32,
    },
    /// A bare path `foo` / `a::b::C`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Line of the first segment.
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
    /// A closure `|..| body` / `move |..| body`.
    Closure {
        /// The closure body (expression bodies are wrapped in a
        /// single-statement block).
        body: Block,
        /// Line of the opening `|`.
        line: u32,
    },
    /// A `for`/`while`/`loop` loop.
    Loop {
        /// Atoms of the loop head (iterable / condition), if any.
        head: Vec<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the loop keyword.
        line: u32,
    },
    /// An `if`/`else if`/`else` chain.
    If {
        /// `(condition atoms, branch body)` per `if`/`else if` arm.
        arms: Vec<(Vec<Expr>, Block)>,
        /// The trailing `else` body, if any.
        else_arm: Option<Block>,
        /// Line of the `if` keyword.
        line: u32,
    },
    /// A `match` expression. Arms are parsed permissively: each arm's
    /// pattern, guard, and body atoms land in one block.
    Match {
        /// Scrutinee atoms.
        head: Vec<Expr>,
        /// One block per arm.
        arms: Vec<Block>,
        /// Line of the `match` keyword.
        line: u32,
    },
    /// A plain `{ .. }` / `unsafe { .. }` block in expression position
    /// (struct-literal bodies also parse as this).
    BlockExpr(Block),
    /// A parenthesized / bracketed composite `(..)` / `[..]`.
    Group {
        /// Interior atoms.
        items: Vec<Expr>,
        /// Line of the opening delimiter.
        line: u32,
    },
    /// `return`.
    Ret(u32),
    /// `break`.
    Brk(u32),
    /// `continue`.
    Cont(u32),
    /// A literal (string/char/number) — kept only so method chains on
    /// literals have a receiver.
    Lit(u32),
}

impl Expr {
    /// The atom's source line.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Path { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Loop { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Group { line, .. }
            | Expr::Ret(line)
            | Expr::Brk(line)
            | Expr::Cont(line)
            | Expr::Lit(line) => *line,
            Expr::BlockExpr(b) => b.line,
        }
    }

    /// Pre-order walk over this atom and everything nested in it,
    /// including closure and loop bodies.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } | Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Loop { head, body, .. } => {
                for h in head {
                    h.walk(f);
                }
                body.walk(f);
            }
            Expr::If { arms, else_arm, .. } => {
                for (cond, arm) in arms {
                    for c in cond {
                        c.walk(f);
                    }
                    arm.walk(f);
                }
                if let Some(e) = else_arm {
                    e.walk(f);
                }
            }
            Expr::Match { head, arms, .. } => {
                for h in head {
                    h.walk(f);
                }
                for a in arms {
                    a.walk(f);
                }
            }
            Expr::BlockExpr(b) => b.walk(f),
            Expr::Group { items, .. } => {
                for i in items {
                    i.walk(f);
                }
            }
            Expr::Path { .. } | Expr::Ret(_) | Expr::Brk(_) | Expr::Cont(_) | Expr::Lit(_) => {}
        }
    }

    /// Renders a receiver chain as a dotted path (`self.ledger.sent`),
    /// used to identify locks and atomics across call sites. Unknown
    /// links render as `?`.
    pub fn chain_path(&self) -> String {
        match self {
            Expr::Path { segs, .. } => segs.join("."),
            Expr::Field { recv, name, .. } => format!("{}.{}", recv.chain_path(), name),
            Expr::MethodCall { recv, name, .. } => {
                format!("{}.{}()", recv.chain_path(), name)
            }
            Expr::Call { path, .. } => path.join("::"),
            Expr::Group { .. } => "(..)".to_string(),
            _ => "?".to_string(),
        }
    }

    /// The last meaningful identifier of a receiver chain — the
    /// approximate *identity* of the lock/atomic the chain denotes
    /// (`self.inner.queue` and `inner.queue` both yield `queue`).
    pub fn chain_key(&self) -> String {
        match self {
            Expr::Path { segs, .. } => segs.last().cloned().unwrap_or_default(),
            Expr::Field { name, .. } => name.clone(),
            Expr::MethodCall { recv, .. } => recv.chain_key(),
            Expr::Call { path, .. } => path.last().cloned().unwrap_or_default(),
            _ => String::new(),
        }
    }
}

impl Block {
    /// Pre-order walk over every atom in the block.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for s in &self.stmts {
            for e in &s.exprs {
                e.walk(f);
            }
        }
    }
}

/// Parses `src` into its flattened function list.
pub fn parse(src: &str) -> File {
    let toks = lex(src);
    let code: Vec<(TokKind, u32)> = toks
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
    Group(char, Vec<Node>, u32, u32),
}

impl Node {
    fn line(&self) -> u32 {
        match self {
            Node::Tok(_, l) | Node::Group(_, _, l, _) => *l,
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

    fn group(&self, open: char) -> Option<(&[Node], u32, u32)> {
        match self {
            Node::Group(o, children, l, e) if *o == open => Some((children, *l, *e)),
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

fn build_tree(code: &[(TokKind, u32)]) -> Vec<Node> {
    // Stack of open groups; the bottom is the top level.
    let mut stack: Vec<(char, u32, Vec<Node>)> = Vec::new();
    let mut top: Vec<Node> = Vec::new();
    for (kind, line) in code {
        match kind {
            TokKind::Punct(c @ ('(' | '[' | '{')) => {
                stack.push((*c, *line, Vec::new()));
            }
            TokKind::Punct(c @ (')' | ']' | '}')) => {
                // Close the innermost group whose delimiter matches;
                // mismatched closers are dropped (tolerance).
                if stack.last().is_some_and(|(o, _, _)| close_of(*o) == *c) {
                    let (o, l, children) = stack.pop().expect("guarded by last()");
                    let node = Node::Group(o, children, l, *line);
                    match stack.last_mut() {
                        Some((_, _, parent)) => parent.push(node),
                        None => top.push(node),
                    }
                }
            }
            k => {
                let node = Node::Tok(k.clone(), *line);
                match stack.last_mut() {
                    Some((_, _, children)) => children.push(node),
                    None => top.push(node),
                }
            }
        }
    }
    // Unterminated groups: close them all (tolerance).
    while let Some((o, l, children)) = stack.pop() {
        let end = children.last().map_or(l, Node::line);
        let node = Node::Group(o, children, l, end);
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(node),
            None => top.push(node),
        }
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

impl Parser {
    fn items(&mut self, nodes: &[Node], self_type: Option<&str>) {
        let mut i = 0;
        while i < nodes.len() {
            // Attributes: `#` [`!`] `[...]`.
            if nodes[i].is_punct('#') {
                let mut j = i + 1;
                if j < nodes.len() && nodes[j].is_punct('!') {
                    j += 1;
                }
                if j < nodes.len() && nodes[j].group('[').is_some() {
                    i = j + 1;
                    continue;
                }
            }
            let item_start = i;
            let mut is_pub = false;
            if nodes[i].ident() == Some("pub") {
                i += 1;
                if i < nodes.len() && nodes[i].group('(').is_some() {
                    i += 1; // pub(crate) / pub(super): not public API
                } else {
                    is_pub = true;
                }
            }
            let mut saw_const = false;
            while let Some(q) = nodes.get(i).and_then(Node::ident) {
                match q {
                    "const" => {
                        saw_const = true;
                        i += 1;
                    }
                    "async" | "unsafe" | "default" => i += 1,
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
                Some("fn") => {
                    i = self.parse_fn(nodes, i, self_type, is_pub);
                }
                Some("impl") => {
                    i = self.parse_impl(nodes, i);
                }
                Some("trait") => {
                    // `trait Name: Super + Bounds { items }`
                    let name = nodes.get(i + 1).and_then(Node::ident).map(str::to_string);
                    let mut j = i + 2;
                    while j < nodes.len() {
                        if let Some((children, _, _)) = nodes[j].group('{') {
                            self.items(children, name.as_deref());
                            break;
                        }
                        if nodes[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    i = j + 1;
                }
                Some("mod") => {
                    let mut j = i + 2;
                    while j < nodes.len() {
                        if let Some((children, _, _)) = nodes[j].group('{') {
                            self.items(children, None);
                            break;
                        }
                        if nodes[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    i = j + 1;
                }
                Some("struct" | "enum" | "union") => {
                    // Skip to the body or the terminating `;`.
                    let mut j = i + 1;
                    while j < nodes.len() {
                        if nodes[j].group('{').is_some() || nodes[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    i = j + 1;
                }
                Some("macro_rules") => {
                    // `macro_rules! name { ... }`
                    let mut j = i + 1;
                    while j < nodes.len() && nodes[j].group('{').is_none() {
                        j += 1;
                    }
                    i = j + 1;
                }
                _ if saw_const || i > item_start => {
                    // A non-fn item behind qualifiers (`const X: ... = ...;`,
                    // `pub use ...;`): skip to the top-level `;`.
                    let mut j = i;
                    while j < nodes.len() && !nodes[j].is_punct(';') {
                        j += 1;
                    }
                    i = j + 1;
                }
                _ => {
                    // `static`/`type`/`use`/stray tokens with no
                    // qualifiers: same skip for item keywords, single
                    // step otherwise.
                    if matches!(
                        nodes.get(i).and_then(Node::ident),
                        Some("static" | "type" | "use")
                    ) {
                        let mut j = i;
                        while j < nodes.len() && !nodes[j].is_punct(';') {
                            j += 1;
                        }
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Parses `fn name<..>(params) -> Ret where .. { body }` starting
    /// at the `fn` keyword; returns the index past the item.
    fn parse_fn(
        &mut self,
        nodes: &[Node],
        fn_kw: usize,
        self_type: Option<&str>,
        is_pub: bool,
    ) -> usize {
        let line = nodes[fn_kw].line();
        let Some(name) = nodes.get(fn_kw + 1).and_then(Node::ident) else {
            return fn_kw + 1;
        };
        let name = name.to_string();
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
        j += 1;
        // Signature tail: the body brace or a `;` (trait signature).
        while j < nodes.len() {
            if let Some((children, bl, el)) = nodes[j].group('{') {
                let body = self.block(children, bl, el);
                self.fns.push(FnDef {
                    name,
                    self_type: self_type.map(str::to_string),
                    is_pub,
                    line,
                    end_line: el,
                    body,
                });
                return j + 1;
            }
            if nodes[j].is_punct(';') {
                return j + 1;
            }
            j += 1;
        }
        j
    }

    /// Parses `impl<..> Type { .. }` / `impl<..> Trait for Type { .. }`
    /// starting at the `impl` keyword; returns the index past the item.
    fn parse_impl(&mut self, nodes: &[Node], impl_kw: usize) -> usize {
        let mut j = impl_kw + 1;
        if nodes.get(j).is_some_and(|n| n.is_punct('<')) {
            j = skip_angles(nodes, j);
        }
        // Collect the self type: the first path-head ident after `for`
        // if present, else the first after the generics.
        let mut ty: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut k = j;
        while k < nodes.len() {
            if let Some((children, _, _)) = nodes[k].group('{') {
                let self_type = after_for.or(ty);
                self.items(children, self_type.as_deref());
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
                Some("where") => {}
                Some("dyn") => {}
                Some(id) => {
                    if saw_for && after_for.is_none() {
                        after_for = Some(id.to_string());
                    } else if !saw_for && ty.is_none() {
                        ty = Some(id.to_string());
                    }
                }
                None => {}
            }
            k += 1;
        }
        k
    }

    // -----------------------------------------------------------------
    // Statement and expression parsing.
    // -----------------------------------------------------------------

    fn block(&mut self, children: &[Node], line: u32, end_line: u32) -> Block {
        let mut stmts = Vec::new();
        let mut start = 0;
        for (idx, n) in children.iter().enumerate() {
            if n.is_punct(';') {
                if idx > start {
                    stmts.push(self.stmt(&children[start..idx]));
                }
                start = idx + 1;
            }
        }
        if start < children.len() {
            stmts.push(self.stmt(&children[start..]));
        }
        Block {
            stmts,
            line,
            end_line,
        }
    }

    fn stmt(&mut self, nodes: &[Node]) -> Stmt {
        let line = nodes.first().map_or(0, Node::line);
        let mut binding = None;
        if nodes.first().and_then(Node::ident) == Some("let") {
            let mut j = 1;
            if nodes.get(j).and_then(Node::ident) == Some("mut") {
                j += 1;
            }
            if let Some(name) = nodes.get(j).and_then(Node::ident) {
                let simple = name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
                let followed = nodes
                    .get(j + 1)
                    .is_some_and(|n| n.is_punct('=') || n.is_punct(':'));
                if simple && followed {
                    binding = Some(name.to_string());
                }
            }
        }
        Stmt {
            binding,
            exprs: self.atoms(nodes),
            line,
        }
    }

    /// Parses a run of nodes into expression atoms.
    fn atoms(&mut self, nodes: &[Node]) -> Vec<Expr> {
        let mut out: Vec<Expr> = Vec::new();
        // True right after an atom completes: decides whether `|` opens
        // a closure and whether `[` indexes the previous atom.
        let mut atom_done = false;
        let mut i = 0;
        while i < nodes.len() {
            match &nodes[i] {
                Node::Tok(TokKind::Ident(id), line) => {
                    let line = *line;
                    match id.as_str() {
                        "if" => {
                            i = self.parse_if(nodes, i, line, &mut out);
                            atom_done = true;
                        }
                        "match" => {
                            i = self.parse_match(nodes, i, line, &mut out);
                            atom_done = true;
                        }
                        "for" => {
                            if nodes.get(i + 1).is_some_and(|n| n.is_punct('<')) {
                                i += 1; // HRTB `for<'a>`: type position
                            } else {
                                i = self.parse_for(nodes, i, line, &mut out);
                            }
                            atom_done = true;
                        }
                        "while" => {
                            i = self.parse_while(nodes, i, line, &mut out);
                            atom_done = true;
                        }
                        "loop" => {
                            if let Some((children, bl, el)) =
                                nodes.get(i + 1).and_then(|n| n.group('{'))
                            {
                                let body = self.block(children, bl, el);
                                out.push(Expr::Loop {
                                    head: Vec::new(),
                                    body,
                                    line,
                                });
                                i += 2;
                            } else {
                                i += 1;
                            }
                            atom_done = true;
                        }
                        "return" => {
                            out.push(Expr::Ret(line));
                            atom_done = false;
                            i += 1;
                        }
                        "break" => {
                            out.push(Expr::Brk(line));
                            atom_done = false;
                            i += 1;
                        }
                        "continue" => {
                            out.push(Expr::Cont(line));
                            atom_done = false;
                            i += 1;
                        }
                        "fn" => {
                            // Nested function item inside a body.
                            i = self.parse_fn(nodes, i, None, false);
                            atom_done = false;
                        }
                        "let" | "mut" | "ref" | "move" | "unsafe" | "as" | "dyn" | "in"
                        | "else" | "impl" | "where" | "struct" | "enum" | "trait" | "mod"
                        | "use" | "static" | "type" | "pub" | "crate" | "super" | "await" => {
                            atom_done = false;
                            i += 1;
                        }
                        _ => {
                            i = self.parse_path_like(nodes, i, &mut out);
                            atom_done = true;
                        }
                    }
                }
                Node::Tok(TokKind::Punct('.'), _) => {
                    // Chain link: method call, field, or tuple index.
                    let link = nodes.get(i + 1);
                    match link {
                        Some(Node::Tok(TokKind::Ident(name), nline)) => {
                            let nline = *nline;
                            let recv = Box::new(out.pop().unwrap_or(Expr::Lit(nline)));
                            // Turbofish between name and args.
                            let mut j = i + 2;
                            if nodes.get(j).is_some_and(|n| n.is_punct(':'))
                                && nodes.get(j + 1).is_some_and(|n| n.is_punct(':'))
                                && nodes.get(j + 2).is_some_and(|n| n.is_punct('<'))
                            {
                                j = skip_angles(nodes, j + 2);
                            }
                            if let Some((children, _, _)) = nodes.get(j).and_then(|n| n.group('('))
                            {
                                let args = self.atoms(children);
                                out.push(Expr::MethodCall {
                                    recv,
                                    name: name.clone(),
                                    args,
                                    line: nline,
                                });
                                i = j + 1;
                            } else {
                                out.push(Expr::Field {
                                    recv,
                                    name: name.clone(),
                                    line: nline,
                                });
                                i += 2;
                            }
                            atom_done = true;
                        }
                        Some(Node::Tok(TokKind::Num, nline)) => {
                            let nline = *nline;
                            let recv = Box::new(out.pop().unwrap_or(Expr::Lit(nline)));
                            out.push(Expr::Field {
                                recv,
                                name: "0".to_string(),
                                line: nline,
                            });
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
                Node::Tok(TokKind::Punct('|'), line) => {
                    if atom_done {
                        // Binary bit-or / pattern alternation.
                        atom_done = false;
                        i += 1;
                    } else {
                        i = self.parse_closure(nodes, i, *line, &mut out);
                        atom_done = true;
                    }
                }
                Node::Tok(TokKind::Punct('#'), _) => {
                    // Statement-level attribute: `#` [`!`] `[...]`.
                    let mut j = i + 1;
                    if nodes.get(j).is_some_and(|n| n.is_punct('!')) {
                        j += 1;
                    }
                    if nodes.get(j).is_some_and(|n| n.group('[').is_some()) {
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                }
                Node::Tok(TokKind::Punct('?'), _) => {
                    i += 1; // keeps atom_done as-is: `x.f()?.g()`
                }
                Node::Tok(TokKind::Str | TokKind::Char | TokKind::Num, line) => {
                    out.push(Expr::Lit(*line));
                    atom_done = true;
                    i += 1;
                }
                Node::Tok(TokKind::Lifetime, _) => {
                    // Loop labels / bounds; a following `:` is consumed
                    // with it by the generic punct arm below.
                    atom_done = false;
                    i += 1;
                }
                Node::Tok(TokKind::Punct(_), _) => {
                    // Operator or type punctuation: atom boundary.
                    atom_done = false;
                    i += 1;
                }
                Node::Tok(_, _) => {
                    i += 1;
                }
                Node::Group('(', children, l, _) => {
                    let items = self.atoms(children);
                    out.push(Expr::Group { items, line: *l });
                    atom_done = true;
                    i += 1;
                }
                Node::Group('[', children, l, _) => {
                    let l = *l;
                    let items = self.atoms(children);
                    if atom_done {
                        // Indexing the previous atom.
                        let recv = Box::new(out.pop().unwrap_or(Expr::Lit(l)));
                        out.push(Expr::MethodCall {
                            recv,
                            name: "[]".to_string(),
                            args: items,
                            line: l,
                        });
                    } else {
                        out.push(Expr::Group { items, line: l });
                    }
                    atom_done = true;
                    i += 1;
                }
                Node::Group('{', children, l, e) => {
                    out.push(Expr::BlockExpr(self.block(children, *l, *e)));
                    atom_done = true;
                    i += 1;
                }
                Node::Group(..) => {
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
        loop {
            if nodes.get(j).is_some_and(|n| n.is_punct(':'))
                && nodes.get(j + 1).is_some_and(|n| n.is_punct(':'))
            {
                if let Some(seg) = nodes.get(j + 2).and_then(Node::ident) {
                    segs.push(seg.to_string());
                    j += 3;
                    continue;
                }
                if nodes.get(j + 2).is_some_and(|n| n.is_punct('<')) {
                    j = skip_angles(nodes, j + 2);
                    continue;
                }
            }
            break;
        }
        // Macro?
        if nodes.get(j).is_some_and(|n| n.is_punct('!')) {
            let group = nodes.get(j + 1).and_then(|n| match n {
                Node::Group(_, children, _, _) => Some(children),
                _ => None,
            });
            if let Some(children) = group {
                let args = self.atoms(children);
                out.push(Expr::MacroCall {
                    name: segs.last().cloned().unwrap_or_default(),
                    args,
                    line,
                });
                return j + 2;
            }
        }
        // Call?
        if let Some((children, _, _)) = nodes.get(j).and_then(|n| n.group('(')) {
            let args = self.atoms(children);
            out.push(Expr::Call {
                path: segs,
                args,
                line,
            });
            return j + 1;
        }
        out.push(Expr::Path { segs, line });
        j
    }

    /// Parses `if cond { .. } else if cond { .. } else { .. }` at `i`.
    fn parse_if(&mut self, nodes: &[Node], i: usize, line: u32, out: &mut Vec<Expr>) -> usize {
        let mut arms = Vec::new();
        let mut else_arm = None;
        let mut j = i;
        loop {
            // At the `if` keyword: condition runs to the first
            // top-level `{` (struct literals need parens here, so this
            // matches real Rust).
            j += 1;
            let cond_start = j;
            while j < nodes.len() && nodes[j].group('{').is_none() {
                j += 1;
            }
            let cond = self.atoms(&nodes[cond_start..j.min(nodes.len())]);
            let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) else {
                out.push(Expr::If {
                    arms,
                    else_arm,
                    line,
                });
                return j;
            };
            arms.push((cond, self.block(children, bl, el)));
            j += 1;
            if nodes.get(j).and_then(Node::ident) == Some("else") {
                j += 1;
                if nodes.get(j).and_then(Node::ident) == Some("if") {
                    continue; // else-if: loop parses the next cond+arm
                }
                if let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) {
                    else_arm = Some(self.block(children, bl, el));
                    j += 1;
                }
            }
            break;
        }
        out.push(Expr::If {
            arms,
            else_arm,
            line,
        });
        j
    }

    /// Parses `match scrutinee { arms }` at `i`. Arms split at
    /// top-level commas; pattern, guard, and body atoms all land in
    /// the arm's block.
    fn parse_match(&mut self, nodes: &[Node], i: usize, line: u32, out: &mut Vec<Expr>) -> usize {
        let mut j = i + 1;
        let head_start = j;
        while j < nodes.len() && nodes[j].group('{').is_none() {
            j += 1;
        }
        let head = self.atoms(&nodes[head_start..j.min(nodes.len())]);
        let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) else {
            out.push(Expr::Match {
                head,
                arms: Vec::new(),
                line,
            });
            return j;
        };
        let mut arms = Vec::new();
        let mut start = 0;
        for (idx, n) in children.iter().enumerate() {
            if n.is_punct(',') {
                if idx > start {
                    let exprs = self.atoms(&children[start..idx]);
                    arms.push(Block {
                        stmts: vec![Stmt {
                            binding: None,
                            exprs,
                            line: children[start].line(),
                        }],
                        line: bl,
                        end_line: el,
                    });
                }
                start = idx + 1;
            }
        }
        if start < children.len() {
            let exprs = self.atoms(&children[start..]);
            arms.push(Block {
                stmts: vec![Stmt {
                    binding: None,
                    exprs,
                    line: children[start].line(),
                }],
                line: bl,
                end_line: el,
            });
        }
        out.push(Expr::Match { head, arms, line });
        j + 1
    }

    /// Parses `for pat in iterable { body }` at `i`.
    fn parse_for(&mut self, nodes: &[Node], i: usize, line: u32, out: &mut Vec<Expr>) -> usize {
        // Skip the pattern: everything up to the top-level `in`.
        let mut j = i + 1;
        while j < nodes.len() {
            if nodes[j].ident() == Some("in") {
                break;
            }
            if nodes[j].group('{').is_some() {
                // Malformed (or not actually a loop): bail out.
                out.push(Expr::Path {
                    segs: vec!["for".to_string()],
                    line,
                });
                return i + 1;
            }
            j += 1;
        }
        j += 1; // past `in`
        let head_start = j;
        while j < nodes.len() && nodes[j].group('{').is_none() {
            j += 1;
        }
        let head = self.atoms(&nodes[head_start..j.min(nodes.len())]);
        if let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) {
            let body = self.block(children, bl, el);
            out.push(Expr::Loop { head, body, line });
            return j + 1;
        }
        out.push(Expr::Loop {
            head,
            body: Block::default(),
            line,
        });
        j
    }

    /// Parses `while cond { body }` (including `while let`) at `i`.
    fn parse_while(&mut self, nodes: &[Node], i: usize, line: u32, out: &mut Vec<Expr>) -> usize {
        let mut j = i + 1;
        let head_start = j;
        while j < nodes.len() && nodes[j].group('{').is_none() {
            j += 1;
        }
        let head = self.atoms(&nodes[head_start..j.min(nodes.len())]);
        if let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) {
            let body = self.block(children, bl, el);
            out.push(Expr::Loop { head, body, line });
            return j + 1;
        }
        out.push(Expr::Loop {
            head,
            body: Block::default(),
            line,
        });
        j
    }

    /// Parses a closure starting at the opening `|` at `i`.
    fn parse_closure(&mut self, nodes: &[Node], i: usize, line: u32, out: &mut Vec<Expr>) -> usize {
        // Parameter region: to the matching top-level `|` (the lexer
        // emits `||` as two puncts, so the empty list falls out).
        let mut j = i + 1;
        while j < nodes.len() && !nodes[j].is_punct('|') {
            j += 1;
        }
        if j >= nodes.len() {
            // No closing `|`: a bitwise-or or pattern alternative, not
            // a closure. Skip the punct and let the caller continue.
            return i + 1;
        }
        j += 1; // past the closing `|`
                // Optional return type `-> T` before a block body.
        if nodes.get(j).is_some_and(|n| n.is_punct('-'))
            && nodes.get(j + 1).is_some_and(|n| n.is_punct('>'))
        {
            let mut k = j + 2;
            while k < nodes.len() && nodes[k].group('{').is_none() {
                k += 1;
            }
            j = k;
        }
        if let Some((children, bl, el)) = nodes.get(j).and_then(|n| n.group('{')) {
            let body = self.block(children, bl, el);
            out.push(Expr::Closure { body, line });
            return j + 1;
        }
        // Expression body: runs to the next top-level `,` (argument
        // separator) or the end of this node run.
        let body_start = j;
        while j < nodes.len() && !nodes[j].is_punct(',') {
            j += 1;
        }
        let exprs = self.atoms(&nodes[body_start..j.min(nodes.len())]);
        let body_line = nodes.get(body_start).map_or(line, Node::line);
        out.push(Expr::Closure {
            body: Block {
                stmts: vec![Stmt {
                    binding: None,
                    exprs,
                    line: body_line,
                }],
                line: body_line,
                end_line: nodes.get(j.saturating_sub(1)).map_or(body_line, Node::line),
            },
            line,
        });
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

    fn collect_method_names(f: &FnDef) -> Vec<String> {
        let mut names = Vec::new();
        f.body.walk(&mut |e| {
            if let Expr::MethodCall { name, .. } = e {
                names.push(name.clone());
            }
        });
        names
    }

    #[test]
    fn parses_free_fn_and_method() {
        let file = parse(
            "pub fn free(x: u32) -> u32 { x }\n\
             impl Foo { fn method(&self) {} }\n\
             impl Iterator for Bar { fn next(&mut self) -> Option<u32> { None } }",
        );
        let names: Vec<(String, Option<String>, bool)> = file
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_type.clone(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, true),
                ("method".into(), Some("Foo".into()), false),
                ("next".into(), Some("Bar".into()), false),
            ]
        );
    }

    #[test]
    fn method_chains_associate_leftward() {
        let f = first_fn("fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * x).sum() }");
        let names = collect_method_names(&f);
        assert!(names.contains(&"par_iter".to_string()));
        assert!(names.contains(&"map".to_string()));
        assert!(names.contains(&"sum".to_string()));
        // sum's receiver chain reaches par_iter.
        let mut found = false;
        f.body.walk(&mut |e| {
            if let Expr::MethodCall { name, recv, .. } = e {
                if name == "sum" {
                    let mut r: &Expr = recv;
                    while let Expr::MethodCall { name, recv, .. } = r {
                        if name == "par_iter" {
                            found = true;
                            break;
                        }
                        r = recv;
                    }
                }
            }
        });
        assert!(found, "sum's receiver chain should reach par_iter");
    }

    #[test]
    fn loops_and_closures_nest() {
        let f = first_fn(
            "fn f(h: &M, v: &[f64]) { for r in 0..h.n() { let acc = h.row(r); } \
             v.iter().for_each(|x| { sink(x); }); }",
        );
        let mut loops = 0;
        let mut closures = 0;
        let mut calls = Vec::new();
        f.body.walk(&mut |e| match e {
            Expr::Loop { .. } => loops += 1,
            Expr::Closure { .. } => closures += 1,
            Expr::Call { path, .. } => calls.push(path.join("::")),
            _ => {}
        });
        assert_eq!(loops, 1);
        assert_eq!(closures, 1);
        assert!(calls.contains(&"sink".to_string()));
    }

    #[test]
    fn let_bindings_and_chain_paths() {
        let f = first_fn("fn f(&self) { let g = self.inner.queue.lock(); g.push(1); }");
        assert_eq!(f.body.stmts[0].binding.as_deref(), Some("g"));
        let mut key = String::new();
        f.body.walk(&mut |e| {
            if let Expr::MethodCall { name, recv, .. } = e {
                if name == "lock" {
                    key = recv.chain_key();
                }
            }
        });
        assert_eq!(key, "queue");
    }

    #[test]
    fn if_match_while_structure() {
        let f = first_fn(
            "fn f(x: u32) -> u32 { if x > 1 { a(); } else if x == 0 { b(); } else { c(); } \
             match x { 0 => d(), _ => { e(); } } while x < 3 { g(); } x }",
        );
        let mut ifs = 0;
        let mut matches = 0;
        let mut loops = 0;
        let mut calls = Vec::new();
        f.body.walk(&mut |e| match e {
            Expr::If { arms, else_arm, .. } => {
                ifs += 1;
                assert_eq!(arms.len(), 2);
                assert!(else_arm.is_some());
            }
            Expr::Match { arms, .. } => {
                matches += 1;
                assert_eq!(arms.len(), 2);
            }
            Expr::Loop { .. } => loops += 1,
            Expr::Call { path, .. } => calls.push(path.join("::")),
            _ => {}
        });
        assert_eq!((ifs, matches, loops), (1, 1, 1));
        for c in ["a", "b", "c", "d", "e", "g"] {
            assert!(calls.contains(&c.to_string()), "missing call {c}");
        }
    }

    #[test]
    fn macros_and_path_calls() {
        let f = first_fn(
            "fn f() { let v = vec![compute(1), 2]; CrsMatrix::from_raw(&v); \
             assert_eq!(helper(v), 3); }",
        );
        let mut macros = Vec::new();
        let mut calls = Vec::new();
        f.body.walk(&mut |e| match e {
            Expr::MacroCall { name, .. } => macros.push(name.clone()),
            Expr::Call { path, .. } => calls.push(path.join("::")),
            _ => {}
        });
        assert_eq!(macros, vec!["vec", "assert_eq"]);
        assert!(calls.contains(&"compute".to_string()));
        assert!(calls.contains(&"CrsMatrix::from_raw".to_string()));
        assert!(calls.contains(&"helper".to_string()));
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
