//! `panic_path`, the one interprocedural pass: kernel-crate library
//! calls into functions that may panic, directly or transitively.
//!
//! The pass returns raw [`Finding`]s; the workspace driver filters them
//! through each file's `kpm::allow` suppressions and converts the
//! survivors to diagnostics. The pass consults suppressions directly
//! only where a marker changes *propagation*: a vetted `no_panic` or
//! `panic_path` site does not make its function may-panic, and a
//! vetted `panic_path` call edge does not taint the caller. It only
//! consults a marker when a real site matched its line, so the consult
//! counts as the marker's use for the `unused_suppression` audit.

use crate::ast::{walk_all, Expr};
use crate::callgraph::CallGraph;
use crate::lints::{FileAnalysis, FileClass, KERNEL_CRATES};

/// One raw pass finding, prior to suppression filtering.
#[derive(Debug)]
pub struct Finding {
    /// Index of the file in the workspace scan order.
    pub file_idx: usize,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// If the atom is a direct panic construct, returns `(line, what)`.
/// The construct set matches the `no_panic` token rule, so a site
/// vetted with `kpm::allow(no_panic)` is also vetted for propagation.
fn panic_site(e: &Expr) -> Option<(u32, String)> {
    match e {
        Expr::MethodCall { name, line, .. } if name == "unwrap" || name == "expect" => {
            Some((*line, format!("`.{name}()`")))
        }
        Expr::MacroCall { name, line, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            Some((*line, format!("`{name}!`")))
        }
        _ => None,
    }
}

/// Interprocedural panic reachability: flags kernel-crate library
/// calls whose callee may panic, directly or transitively. Sites
/// suppressed with `kpm::allow(no_panic)` (vetted) do not propagate,
/// and a call edge suppressed with `kpm::allow(panic_path)` does not
/// taint the caller.
pub fn panic_path(files: &[FileAnalysis], graph: &CallGraph) -> Vec<Finding> {
    let nfn = graph.fns.len();
    // Witness text per may-panic fn: the concrete panic this reaches.
    let mut witness: Vec<Option<String>> = vec![None; nfn];
    for (i, node) in graph.fns.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let fa = &files[node.file_idx];
        let def = &fa.ast.fns[node.fn_idx];
        let mut first: Option<(u32, String)> = None;
        walk_all(&def.body, &mut |e| {
            if first.is_some() {
                return;
            }
            if let Some((line, what)) = panic_site(e) {
                if fa.is_test_line(line)
                    || fa.sup.allows("no_panic", line)
                    || fa.sup.allows("panic_path", line)
                {
                    return;
                }
                first = Some((line, what));
            }
        });
        if let Some((line, what)) = first {
            witness[i] = Some(format!("{what} at {}:{line}", node.path));
        }
    }
    // Propagate backward over call edges until stable.
    loop {
        let mut changed = false;
        for i in 0..nfn {
            if witness[i].is_some() {
                continue;
            }
            for e in &graph.edges[i] {
                let Some(w) = witness[e.to].clone() else {
                    continue;
                };
                let fa = &files[graph.fns[i].file_idx];
                if fa.is_test_line(e.line) || fa.sup.allows("panic_path", e.line) {
                    continue;
                }
                let mut chain = format!("via `{}`: {w}", graph.fns[e.to].display());
                if chain.len() > 220 {
                    chain.truncate(217);
                    chain.push_str("...");
                }
                witness[i] = Some(chain);
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }
    // Report kernel-crate library call sites into may-panic callees.
    let mut findings = Vec::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if node.is_test
            || node.class != FileClass::Lib
            || !KERNEL_CRATES.contains(&node.crate_name.as_str())
        {
            continue;
        }
        let fa = &files[node.file_idx];
        for e in &graph.edges[i] {
            if fa.is_test_line(e.line) {
                continue;
            }
            if let Some(w) = &witness[e.to] {
                findings.push(Finding {
                    file_idx: node.file_idx,
                    line: e.line,
                    message: format!(
                        "call to `{}` can panic ({w}); kernel paths must return typed \
                         errors",
                        graph.fns[e.to].display()
                    ),
                });
            }
        }
    }
    findings
}
