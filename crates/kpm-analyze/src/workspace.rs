//! Workspace discovery and the analysis driver: walks the repository,
//! classifies every Rust source file by owning crate and target class,
//! runs the token rules per file, then builds the workspace call graph
//! and runs `panic_path` ([`crate::passes`]) across all files at once.
//! Raw `panic_path` findings are filtered through each file's
//! `kpm::allow` markers, and markers that silenced nothing are
//! themselves reported (`unused_suppression`).

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lints::{analyze_file, FileAnalysis, FileClass, FileInput};
use crate::passes;

/// Directories under the workspace root that are never scanned: build
/// output and the vendored dependency shims (external API surface, not
/// ours to lint).
const SKIP_DIRS: &[&str] = &["target", "shims", ".git"];

/// The full result of a workspace analysis.
#[derive(Debug)]
pub struct Report {
    /// All diagnostics, sorted by file, line, rule.
    pub diags: Vec<Diagnostic>,
    /// Every file scanned, in scan order.
    pub files: Vec<FileInput>,
}

/// Scans the workspace rooted at `root` and runs the full analysis.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_crate(root, "kpm-repro", root, &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name().to_string_lossy().into_owned();
                collect_crate(&path, &name, root, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.0.path.cmp(&b.0.path));

    let mut inputs = Vec::with_capacity(files.len());
    for (input, abs) in files {
        let src = fs::read_to_string(&abs)?;
        inputs.push((input, src));
    }
    Ok(analyze_sources(inputs))
}

/// Runs the full analysis over in-memory sources: token rules per
/// file, then the call graph and `panic_path` across all files,
/// suppression filtering, and the unused-suppression audit.
pub fn analyze_sources(inputs: Vec<(FileInput, String)>) -> Report {
    let analyses: Vec<FileAnalysis> = inputs
        .iter()
        .map(|(input, src)| analyze_file(input, src))
        .collect();
    let graph = CallGraph::build(&analyses);

    let mut diags: Vec<Diagnostic> = Vec::new();
    for fa in &analyses {
        diags.extend(fa.diags.iter().cloned());
    }
    for f in passes::panic_path(&analyses, &graph) {
        let fa = &analyses[f.file_idx];
        if fa.sup.allows("panic_path", f.line) {
            continue;
        }
        diags.push(Diagnostic {
            rule: "panic_path",
            file: fa.input.path.clone(),
            line: f.line,
            message: f.message,
            hint: Diagnostic::suppression_hint("panic_path"),
        });
    }

    // The unused-suppression audit. A marker that silenced nothing is
    // stale and rots: delete it or fix the rule name. The audit exempts
    // its own markers (consulting them is their use).
    for fa in &analyses {
        for m in &fa.sup.markers {
            if m.hits.get() > 0 || m.rule == "unused_suppression" {
                continue;
            }
            if fa.sup.allows("unused_suppression", m.marker_line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: "unused_suppression",
                file: fa.input.path.clone(),
                line: m.marker_line,
                message: format!(
                    "`kpm::allow({})` no longer silences any finding; delete the stale \
                     marker (or fix the rule name if it was meant for another line)",
                    m.rule
                ),
                hint: Diagnostic::suppression_hint("unused_suppression"),
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Report {
        diags,
        files: inputs.into_iter().map(|(input, _)| input).collect(),
    }
}

/// Collects the `.rs` files of one crate rooted at `crate_dir`.
fn collect_crate(
    crate_dir: &Path,
    crate_name: &str,
    ws_root: &Path,
    out: &mut Vec<(FileInput, PathBuf)>,
) -> std::io::Result<()> {
    for (sub, class) in [
        ("src", FileClass::Lib),
        ("tests", FileClass::Test),
        ("benches", FileClass::Bench),
        ("examples", FileClass::Example),
    ] {
        let dir = crate_dir.join(sub);
        if dir.is_dir() {
            walk(&dir, crate_name, class, ws_root, out)?;
        }
    }
    Ok(())
}

fn walk(
    dir: &Path,
    crate_name: &str,
    class: FileClass,
    ws_root: &Path,
    out: &mut Vec<(FileInput, PathBuf)>,
) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            // src/bin targets are binaries, not library code.
            let sub_class = if class == FileClass::Lib && name == "bin" {
                FileClass::Bin
            } else {
                class
            };
            walk(&path, crate_name, sub_class, ws_root, out)?;
        } else if name.ends_with(".rs") {
            let file_class = if class == FileClass::Lib && name == "main.rs" {
                FileClass::Bin
            } else {
                class
            };
            let rel = path
                .strip_prefix(ws_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((
                FileInput {
                    path: rel,
                    crate_name: crate_name.to_string(),
                    class: file_class,
                },
                path,
            ));
        }
    }
    Ok(())
}
