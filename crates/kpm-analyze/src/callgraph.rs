//! A workspace-wide call graph over parsed [`crate::ast`] files.
//!
//! Resolution is name-based and deliberately over-approximate: a
//! `Type::method(..)` call links to every workspace method of that
//! name on that type, a free call links to free functions by name
//! (same file, then same crate, then workspace-wide), and a
//! `recv.method(..)` call links to every workspace method of that
//! name. Over-approximation is the safe direction for `panic_path`'s
//! reachability; the blocklist below keeps ubiquitous std names from
//! wiring the whole workspace together.
//!
//! Test functions are never resolution targets: non-test code does not
//! call test helpers, and a name collision with one would otherwise
//! fabricate edges into `#[cfg(test)]` modules.

use std::collections::HashMap;

use crate::ast;
use crate::lints::{FileAnalysis, FileClass};

/// Method names too generic to resolve by name alone — std trait
/// methods and container operations that would connect unrelated
/// types.
const METHOD_RESOLVE_BLOCKLIST: &[&str] = &[
    "abs",
    "add",
    "and_then",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "build",
    "clamp",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_nan",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or",
    "or_default",
    "or_else",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powi",
    "powf",
    "push",
    "push_str",
    "read",
    "remove",
    "resize",
    "rev",
    "reverse",
    "send",
    "set",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "window",
    "windows",
    "write",
    "zip",
];

/// One function in the workspace, flattened across files.
pub struct FnNode {
    /// Index of the owning file in the workspace scan order.
    pub file_idx: usize,
    /// Index into that file's [`ast::File::fns`].
    pub fn_idx: usize,
    /// Crate directory name.
    pub crate_name: String,
    /// Workspace-relative path of the owning file.
    pub path: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type for methods.
    pub self_type: Option<String>,
    /// True for functions inside `#[cfg(test)]`/`#[test]` regions or
    /// test-class files.
    pub is_test: bool,
    /// The owning file's class.
    pub class: FileClass,
}

impl FnNode {
    /// Display name: `Type::name` for methods, `name` otherwise.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A resolved call site.
pub struct CallEdge {
    /// Index of the callee in [`CallGraph::fns`].
    pub to: usize,
    /// Line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every function, in file order.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function (parallel to `fns`).
    pub edges: Vec<Vec<CallEdge>>,
}

impl CallGraph {
    /// Builds the graph from every analyzed file in the workspace
    /// (`files` in scan order; [`FnNode::file_idx`] indexes it).
    pub fn build(files: &[FileAnalysis]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        for (file_idx, f) in files.iter().enumerate() {
            for (fn_idx, d) in f.ast.fns.iter().enumerate() {
                fns.push(FnNode {
                    file_idx,
                    fn_idx,
                    crate_name: f.input.crate_name.clone(),
                    path: f.input.path.clone(),
                    name: d.name.clone(),
                    self_type: d.self_type.clone(),
                    is_test: f.is_test_line(d.line),
                    class: f.input.class,
                });
            }
        }

        // Resolution index: only non-test Lib/Bin functions are
        // targets — bench/example helpers are never called by product
        // code, and a name collision with one would fabricate edges.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, n) in fns.iter().enumerate() {
            if !n.is_test && matches!(n.class, FileClass::Lib | FileClass::Bin) {
                by_name.entry(n.name.as_str()).or_default().push(i);
            }
        }

        let crate_names: Vec<String> = files
            .iter()
            .map(|f| f.input.crate_name.replace('-', "_"))
            .collect();

        let mut edges: Vec<Vec<CallEdge>> = (0..fns.len()).map(|_| Vec::new()).collect();
        for (caller, node) in fns.iter().enumerate() {
            let def = &files[node.file_idx].ast.fns[node.fn_idx];
            let mut out: Vec<CallEdge> = Vec::new();
            ast::walk_all(&def.body, &mut |e| {
                resolve_site(e, node, &fns, &by_name, &crate_names, &mut out);
            });
            // Dedup (to) keeping the first (earliest) site.
            out.sort_by_key(|e| (e.to, e.line));
            out.dedup_by_key(|e| e.to);
            edges[caller] = out;
        }

        CallGraph { fns, edges }
    }
}

/// Resolves one expression atom into call edges, if it is a call.
fn resolve_site(
    e: &ast::Expr,
    caller: &FnNode,
    fns: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    crate_names: &[String],
    out: &mut Vec<CallEdge>,
) {
    match e {
        ast::Expr::Call { path, line, .. } => {
            let Some(name) = path.last() else { return };
            let Some(cands) = by_name.get(name.as_str()) else {
                return;
            };
            let qual = path.len().checked_sub(2).map(|i| path[i].as_str());
            match qual {
                // `Type::method(..)` — an uppercase qualifier names the
                // impl type exactly.
                Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                    for &c in cands {
                        if fns[c].self_type.as_deref() == Some(q) {
                            out.push(CallEdge { to: c, line: *line });
                        }
                    }
                }
                // `self::f` / `crate::f` / `module::f` / `kpm_num::f` —
                // free functions; a crate-name qualifier restricts to
                // that crate, `crate`/`self`/`super` to the caller's.
                Some(q) => {
                    let target_crate = if q == "crate" || q == "self" || q == "super" {
                        Some(caller.crate_name.replace('-', "_"))
                    } else if crate_names.iter().any(|c| c == q) {
                        Some(q.to_string())
                    } else {
                        None
                    };
                    for &c in cands {
                        let n = &fns[c];
                        if n.self_type.is_some() {
                            continue;
                        }
                        if let Some(tc) = &target_crate {
                            if n.crate_name.replace('-', "_") != *tc {
                                continue;
                            }
                        }
                        out.push(CallEdge { to: c, line: *line });
                    }
                }
                // Unqualified `f(..)` — same file, then same crate,
                // then any free fn (covers `use`-imported names).
                None => {
                    let free: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].self_type.is_none())
                        .collect();
                    let same_file: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].file_idx == caller.file_idx)
                        .collect();
                    let same_crate: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].crate_name == caller.crate_name)
                        .collect();
                    let tier = if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        free
                    };
                    for c in tier {
                        out.push(CallEdge { to: c, line: *line });
                    }
                }
            }
        }
        ast::Expr::MethodCall { name, line, .. } => {
            if METHOD_RESOLVE_BLOCKLIST.contains(&name.as_str()) {
                return;
            }
            let Some(cands) = by_name.get(name.as_str()) else {
                return;
            };
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].self_type.is_some())
                .collect();
            let same_crate: Vec<usize> = methods
                .iter()
                .copied()
                .filter(|&c| fns[c].crate_name == caller.crate_name)
                .collect();
            let tier = if !same_crate.is_empty() {
                same_crate
            } else {
                methods
            };
            for c in tier {
                out.push(CallEdge { to: c, line: *line });
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{analyze_file, FileInput};

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .enumerate()
            .map(|(i, (krate, src))| {
                let input = FileInput {
                    path: format!("crates/{krate}/src/f{i}.rs"),
                    crate_name: krate.to_string(),
                    class: FileClass::Lib,
                };
                analyze_file(&input, src)
            })
            .collect();
        CallGraph::build(&analyses)
    }

    fn graph_one(src: &str) -> CallGraph {
        graph(&[("kpm-num", src)])
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    fn calls(g: &CallGraph, from: &str, to: &str) -> bool {
        g.edges[idx(g, from)].iter().any(|e| e.to == idx(g, to))
    }

    #[test]
    fn free_calls_link_within_file() {
        let g = graph_one("fn a() { b(); }\nfn b() {}\n");
        assert!(calls(&g, "a", "b"));
        assert!(g.edges[idx(&g, "b")].is_empty());
    }

    #[test]
    fn qualified_type_calls_resolve_to_methods() {
        let g = graph_one(
            "struct S;\nimpl S { fn go(&self) { helper(); } }\nfn helper() {}\nfn top() { S::go(); }\n",
        );
        assert!(calls(&g, "top", "go"));
        assert!(calls(&g, "go", "helper"));
    }

    #[test]
    fn blocklisted_method_names_do_not_link() {
        let g = graph_one("struct S;\nimpl S { fn clone(&self) { danger(); } }\nfn danger() {}\nfn top(s: S) { s.clone(); }\n");
        assert!(
            g.edges[idx(&g, "top")].is_empty(),
            "clone must not resolve by name"
        );
    }

    #[test]
    fn method_calls_resolve_by_name() {
        let g =
            graph_one("struct S;\nimpl S { fn solve(&self) {} }\nfn top(s: S) { s.solve(); }\n");
        assert!(calls(&g, "top", "solve"));
    }

    #[test]
    fn test_fns_are_not_targets() {
        let g = graph_one("fn a() { helper(); }\n#[cfg(test)]\nfn helper() {}\n");
        assert!(g.fns[idx(&g, "helper")].is_test);
        assert!(g.edges[idx(&g, "a")].is_empty());
    }

    #[test]
    fn crate_qualified_calls_restrict_to_that_crate() {
        let g = graph(&[
            ("kpm-num", "fn shared() {}\n"),
            (
                "kpm-core",
                "fn shared() {}\nfn top() { kpm_num::shared(); }\n",
            ),
        ]);
        let top = idx(&g, "top");
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(g.fns[g.edges[top][0].to].crate_name, "kpm-num");
    }
}
