//! Independent proof-certificate checker.
//!
//! ```text
//! certcheck FILE.cert [--quiet]
//! ```
//!
//! Reads a `cert-v3` file produced by `autocorres --emit-cert`, admits
//! every row of its node table through the validating kernel in row order
//! ([`kernel::cert::check_cert`]), and exits 0 iff every row checks. The
//! binary links only the term language (`ir`) and the proof kernel — none
//! of the translation pipeline — so a certificate's acceptance depends on
//! nothing but the kernel's rule checker: a mutated, truncated, or forged
//! certificate cannot pass, because every row is rebuilt through
//! `Thm::admit` (DESIGN.md §6g). Root lines go through one locked stdout
//! handle: if its reader closes it early, the run stops quietly, failing.

use std::io::{self, Write};
use std::process::ExitCode;

/// Why a run failed: a message for stderr, or stdout's reader closed it.
enum Stop {
    Fail(String),
    Closed,
}

fn run(path: &str, quiet: bool) -> Result<(), Stop> {
    let rejected = |e: &dyn std::fmt::Display| Stop::Fail(format!("REJECTED — {path}: {e}"));
    let bytes = std::fs::read(path).map_err(|e| rejected(&e))?;
    let report = kernel::cert::check_cert(&bytes).map_err(|e| rejected(&e))?;
    if !quiet {
        eprintln!(
            "{path}: OK — {} proof node(s), {} theorem(s) replayed",
            report.nodes,
            report.roots.len()
        );
        let stop = |e: io::Error| match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Fail(format!("stdout: {e}")),
        };
        let mut stdout = io::stdout().lock();
        for (label, thm) in &report.roots {
            writeln!(stdout, "{label}: [{:?}] {:?}", thm.rule(), thm.judgment()).map_err(stop)?;
        }
        stdout.flush().map_err(stop)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut quiet = false;
    for a in &args {
        match a.as_str() {
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: certcheck FILE.cert [--quiet]");
                return ExitCode::FAILURE;
            }
            f if f.starts_with('-') => {
                eprintln!("certcheck: unknown flag `{f}`");
                return ExitCode::FAILURE;
            }
            f => {
                if file.replace(f.to_owned()).is_some() {
                    eprintln!("certcheck: more than one input file");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: certcheck FILE.cert [--quiet]");
        return ExitCode::FAILURE;
    };
    match run(&file, quiet) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Closed) => ExitCode::FAILURE,
        Err(Stop::Fail(msg)) => {
            eprintln!("certcheck: {msg}");
            ExitCode::FAILURE
        }
    }
}
