//! End-to-end tests of the `autocorres` command-line front end.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocorres"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

#[test]
fn translates_and_checks_a_file() {
    let path = write_temp(
        "cli_max.c",
        "unsigned maximum(unsigned a, unsigned b) { if (a <= b) return b; return a; }",
    );
    let out = bin().arg(&path).arg("--check").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("return (if a ≤ b then b else a)"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checker: OK"), "{stderr}");
}

#[test]
fn check_replays_every_theorem_the_certificate_holds() {
    // The certificate carries the absint discharge theorems as well as the
    // refinement theorems; `--check` must replay the same set.
    let cert = std::env::temp_dir().join("cli_ring_buffer.cert");
    let out = bin()
        .args(["--check", "--emit-cert"])
        .arg(&cert)
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/corpus/c/ring_buffer.c"
        ))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wrote certificate: 28 theorem(s)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("all 28 theorem(s) replayed through the checker: OK"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(cert);
}

#[test]
fn level_and_fn_filters() {
    let path = write_temp(
        "cli_two.c",
        "unsigned one(void) { return 1u; }\nunsigned two(void) { return 2u; }",
    );
    let out = bin()
        .arg(&path)
        .args(["--level", "l2", "--fn", "two", "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("two'"), "{stdout}");
    assert!(!stdout.contains("one'"), "{stdout}");
}

#[test]
fn metrics_mode_prints_both_rows() {
    let path = write_temp(
        "cli_m.c",
        "unsigned f(unsigned x) { return x + 1u; }",
    );
    let out = bin().arg(&path).args(["--metrics", "--quiet"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parser output"), "{stdout}");
    assert!(stdout.contains("autocorres output"), "{stdout}");
}

/// `--metrics` replaces the specification printout only: `--check` still
/// replays every theorem.
#[test]
fn metrics_with_check_still_replays() {
    let path = write_temp(
        "cli_mc.c",
        "unsigned g(unsigned x) { if (x < 7u) { return x + 1u; } return x; }",
    );
    let out = bin().arg(&path).args(["--metrics", "--check"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("autocorres output"), "{stdout}");
    assert!(!stdout.contains(" ≡"), "--metrics printed the spec: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("replayed through the checker: OK"),
        "--metrics skipped --check: {stderr}"
    );
}

/// `--metrics` replaces the specification printout only: `--lint=deny`
/// still prints the lints and fails on them.
#[test]
fn metrics_with_lint_deny_still_fails_on_lints() {
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_demo.c");
    let out = bin()
        .args(["--quiet", "--metrics", "--lint=deny", demo])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--metrics skipped --lint=deny");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("autocorres output"), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("warning")), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lint=deny"), "{stderr}");
}

#[test]
fn frontend_errors_are_reported_cleanly() {
    let path = write_temp("cli_bad.c", "void f(void) { goto x; }");
    let out = bin().arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("goto"), "{stderr}");
}

#[test]
fn bad_flags_fail_with_usage() {
    for args in [vec!["--level", "bogus", "x.c"], vec!["--frobnicate"], vec![]] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

#[test]
fn missing_function_filter_is_an_error() {
    let path = write_temp("cli_nf.c", "unsigned f(void) { return 0u; }");
    let out = bin().arg(&path).args(["--fn", "nope"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nope"), "{stderr}");
}

#[test]
fn playback_replays_a_checked_in_counterexample_seed() {
    let seed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/cex-005.seed");
    let out = bin().args(["--playback"]).arg(&seed).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counterexample: badmax / main"), "{stdout}");
    assert!(stdout.contains("verdict reproduced"), "{stdout}");
}

#[test]
fn playback_rejects_a_fixed_program_with_nonzero_exit() {
    // Take a checked-in seed and fix the bug in its embedded source: the
    // recorded input must no longer falsify the spec, and playback must
    // say so and exit nonzero.
    let seed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/cex-005.seed");
    let text = std::fs::read_to_string(seed).unwrap();
    let fixed = text.replace("return a;", "return b;").replace(
        "return b;\n}",
        "return a;\n}",
    );
    assert_ne!(fixed, text, "source rewrite must change the seed");
    let path = write_temp("cli_fixed.seed", &fixed);
    let out = bin().args(["--playback"]).arg(&path).output().unwrap();
    assert!(!out.status.success(), "fixed program must not reproduce");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no longer falsifies"),
        "{stdout}"
    );
}

#[test]
fn playback_takes_no_c_file() {
    let out = bin()
        .args(["--playback", "x.seed", "y.c"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn concrete_flag_keeps_function_at_byte_level() {
    let path = write_temp(
        "cli_conc.c",
        "void set(unsigned char *p, unsigned char v) { *p = v; }\n\
         void zero(unsigned char *p) { set(p, 0u); }",
    );
    let out = bin()
        .arg(&path)
        .args(["--concrete", "set", "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exec_concrete"), "{stdout}");
}

#[test]
fn a_reader_that_closes_stdout_early_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // eChronos-sized: its L1 output (~80 KB) is larger than a pipe
    // buffer, so the CLI is still writing when the reader goes away.
    let path = write_temp(
        "cli_closed_stdout.c",
        &codegen::generate(&codegen::TABLE5[3], 0xAC),
    );
    let mut child = bin()
        .args(["--quiet", "--level", "l1", "--trials", "1"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "no output before the pipe closed");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
