//! Independent proof-certificate checker.
//!
//! ```text
//! certcheck FILE.cert [--quiet]
//! ```
//!
//! Reads a `cert-v2` file produced by `autocorres --emit-cert`, admits
//! every row of its node table through the validating kernel in row order
//! ([`kernel::cert::check_cert`]), and exits 0 iff every row checks. The
//! binary links only the term language (`ir`) and the proof kernel — none
//! of the translation pipeline — so a certificate's acceptance depends on
//! nothing but the kernel's rule checker: a mutated, truncated, or forged
//! certificate cannot pass, because every row is rebuilt through
//! `Thm::admit` (DESIGN.md §6g).

use std::process::ExitCode;

fn run(path: &str, quiet: bool) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let report = kernel::cert::check_cert(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if !quiet {
        eprintln!(
            "{path}: OK — {} proof node(s), {} theorem(s) replayed",
            report.nodes,
            report.roots.len()
        );
        for (label, thm) in &report.roots {
            println!("{label}: [{:?}] {:?}", thm.rule(), thm.judgment());
        }
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
        Err(msg) => {
            eprintln!("certcheck: REJECTED — {msg}");
            ExitCode::FAILURE
        }
    }
}
