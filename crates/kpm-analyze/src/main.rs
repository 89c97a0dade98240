//! CLI for the workspace lint engine: `cargo run -p kpm-analyze` from
//! the workspace root scans it and prints every finding.
//!
//! Exit status: 0 = clean, 1 = diagnostics found, 2 = usage/IO error.

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: kpm-analyze (run from the workspace root; takes no flags)\n\
                     exit status: 0 clean, 1 diagnostics found, 2 usage/IO error";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        eprintln!("kpm-analyze: unknown argument `{arg}`\n{USAGE}");
        return ExitCode::from(2);
    }
    // The scan root must look like the workspace, so running from the
    // wrong directory fails loudly instead of reporting a clean scan.
    let root = Path::new(".");
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        eprintln!("kpm-analyze: run from the workspace root (no Cargo.toml and crates/ here)");
        return ExitCode::from(2);
    }
    let report = match kpm_analyze::analyze_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kpm-analyze: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diags {
        println!("{}", d.render());
    }
    println!(
        "kpm-analyze: {} file(s) scanned, {} diagnostic(s)",
        report.files.len(),
        report.diags.len()
    );
    if report.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
