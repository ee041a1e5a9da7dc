//! Cross-process persistence: a *fresh process* pointed at an earlier
//! run's `--cache-dir` must warm-start — zero dirty functions, all store
//! hits — and print byte-identical output at any worker count
//! (DESIGN.md §6g). Each test drives the real release of trust: separate
//! `autocorres` processes that share nothing but the directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocorres"))
}

fn certcheck() -> Command {
    Command::new(env!("CARGO_BIN_EXE_certcheck"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acr-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A multi-function source with calls, loops, guards, and both heap and
/// word abstraction in play — large enough that every phase stores
/// several artifacts, small enough for a debug-build test. Generated
/// deterministically by the same generator the scalability benches use.
fn gen_source(dir: &Path, seed: u64) -> PathBuf {
    let profile = codegen::Profile {
        name: "persistence-test",
        loc: 900,
        functions: 18,
    };
    let path = dir.join(format!("gen-{seed:x}.c"));
    std::fs::write(&path, codegen::generate(&profile, seed)).unwrap();
    path
}

/// The store's one file in a cache directory.
fn segment(cache: &Path) -> PathBuf {
    cache.join(autocorres::store::SEGMENT)
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `store: hits=.. misses=.. rejected=.. dirty_fns=..` metrics line.
fn store_line(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .find(|l| l.starts_with("store:"))
        .expect("--metrics with --cache-dir prints a store line")
        .to_owned()
}

#[test]
fn fresh_process_warm_start_is_byte_identical_across_worker_counts() {
    let dir = tmpdir("warm");
    let src = gen_source(&dir, 0xAC);
    let cache = dir.join("cache");
    let spec = |workers: &str| {
        let mut c = bin();
        c.arg(&src)
            .args(["--quiet", "--level", "wa", "--trials", "2", "--workers", workers])
            .arg("--cache-dir")
            .arg(&cache);
        c
    };

    // Process 1: cold, populates the store.
    let cold = run_ok(&mut spec("1"));

    // Fresh processes over the same directory: every worker count must
    // reproduce the cold run's bytes exactly, from the store alone.
    for workers in ["1", "4"] {
        let warm = run_ok(&mut spec(workers));
        assert_eq!(
            cold.stdout, warm.stdout,
            "warm output diverged at --workers {workers}"
        );

        let mut metrics = bin();
        metrics
            .arg(&src)
            .args(["--quiet", "--metrics", "--trials", "2", "--workers", workers])
            .arg("--cache-dir")
            .arg(&cache);
        let line = store_line(&run_ok(&mut metrics).stdout);
        assert!(line.contains("misses=0"), "not all store hits: {line}");
        assert!(line.contains("rejected=0"), "rejections on clean dir: {line}");
        assert!(line.ends_with("dirty_fns=0"), "recomputation happened: {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_recomputes_with_identical_bytes() {
    let dir = tmpdir("corrupt");
    let src = gen_source(&dir, 0xAC);
    let cache = dir.join("cache");
    let run = |cache: &Path| {
        let mut c = bin();
        c.arg(&src)
            .args(["--quiet", "--level", "wa", "--trials", "2"])
            .arg("--cache-dir")
            .arg(cache);
        run_ok(&mut c)
    };
    let clean = run(&cache);

    // Bit-flip two records and tear the tail off a third: the warm start
    // degrades for those functions only, and the output bytes cannot
    // change. Deleting the segment is a cold start with the same bytes.
    let mut bytes = std::fs::read(segment(&cache)).unwrap();
    let len = bytes.len();
    bytes[len / 4] ^= 0x40;
    bytes[len / 2] ^= 0x01;
    bytes.truncate(len - len / 8);
    std::fs::write(segment(&cache), &bytes).unwrap();
    let damaged = run(&cache);
    assert_eq!(clean.stdout, damaged.stdout, "corruption changed output bytes");
    std::fs::remove_file(segment(&cache)).unwrap();
    let deleted = run(&cache);
    assert_eq!(clean.stdout, deleted.stdout, "a deleted segment changed output bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_meta_degrades_to_cold_start() {
    let dir = tmpdir("skew");
    let src = gen_source(&dir, 0xAC);
    let cache = dir.join("cache");
    let run = |extra: &[&str]| {
        let mut c = bin();
        c.arg(&src)
            .args(["--level", "wa", "--trials", "2"])
            .args(extra)
            .arg("--cache-dir")
            .arg(&cache);
        c.output().unwrap()
    };
    let clean = run(&["--quiet"]);
    assert!(clean.status.success());

    // Rewrite the segment header as a future format version would.
    let mut m = std::fs::read(segment(&cache)).unwrap();
    m[7] = b'9';
    std::fs::write(segment(&cache), &m).unwrap();

    let skew = run(&[]);
    assert!(skew.status.success(), "skew must never be fatal");
    assert_eq!(clean.stdout, skew.stdout, "skew changed output bytes");
    let stderr = String::from_utf8_lossy(&skew.stderr);
    assert!(
        stderr.contains("mismatch") && stderr.contains("cold"),
        "skew warning missing: {stderr}"
    );
    // The skewed run's save rewrote the header: the next run is warm.
    let line = store_line(&run(&["--quiet", "--metrics"]).stdout);
    assert!(line.ends_with("misses=0 rejected=0 dirty_fns=0"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_runs_still_report_a_cleared_cache() {
    let dir = tmpdir("quiet");
    let src = dir.join("one.c");
    std::fs::write(&src, "unsigned f(unsigned x) { return x + 1u; }\n").unwrap();
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(segment(&cache), b"FOREIGN0 not a store segment").unwrap();
    let out = run_ok(
        bin()
            .arg(&src)
            .args(["--quiet", "--metrics", "--cache-dir"])
            .arg(&cache),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("format or digest-scheme mismatch"),
        "--quiet hid the cache warning: {stderr:?}"
    );
    assert!(
        !stderr.contains("translated"),
        "--quiet printed the banner: {stderr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_cache_directory_never_panics_or_fails() {
    let dir = tmpdir("garbage");
    let src = gen_source(&dir, 0xAC);
    let cache = dir.join("cache");
    let run = || {
        let mut c = bin();
        c.arg(&src)
            .args(["--quiet", "--level", "wa", "--trials", "2"])
            .arg("--cache-dir")
            .arg(&cache);
        run_ok(&mut c)
    };
    // A segment of garbage beside the debris of an older build's layout.
    std::fs::create_dir_all(cache.join("artifacts")).unwrap();
    std::fs::write(cache.join("meta"), b"").unwrap();
    std::fs::write(cache.join("replay.bin"), b"\x00\x01\x02").unwrap();
    std::fs::write(cache.join("artifacts/notes.txt"), b"hello").unwrap();
    std::fs::write(segment(&cache), b"\x00\x01\x02").unwrap();
    let first = run();
    // Garbage behind a valid header, and a segment that is a directory.
    let mut bytes = std::fs::read(segment(&cache)).unwrap();
    bytes.truncate(40);
    bytes.extend_from_slice(&[0xff; 100]);
    std::fs::write(segment(&cache), &bytes).unwrap();
    assert_eq!(first.stdout, run().stdout);
    std::fs::remove_file(segment(&cache)).unwrap();
    std::fs::create_dir_all(segment(&cache)).unwrap();
    assert_eq!(first.stdout, run().stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Processes sharing a cache directory keep each other's work: two
/// programs translated and checked at the same time, then each
/// warm-starts from the directory alone.
#[test]
fn concurrent_writers_keep_each_others_work() {
    let dir = tmpdir("concurrent");
    let cache = dir.join("cache");
    let sources = [gen_source(&dir, 0xAC), gen_source(&dir, 0xBD)];
    let writers: Vec<_> = sources
        .iter()
        .map(|src| {
            bin()
                .arg(src)
                .args(["--quiet", "--check", "--trials", "2"])
                .arg("--cache-dir")
                .arg(&cache)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    for w in writers {
        let out = w.wait_with_output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    for src in &sources {
        let mut c = bin();
        c.arg(src)
            .args(["--quiet", "--metrics", "--trials", "2"])
            .arg("--cache-dir")
            .arg(&cache);
        let line = store_line(&run_ok(&mut c).stdout);
        assert!(
            line.ends_with("misses=0 rejected=0 dirty_fns=0"),
            "{}: {line}",
            src.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn certificates_replay_and_reject_mutations() {
    let dir = tmpdir("cert");
    // The quickstart program plus the real corpus files: every exported
    // certificate must replay via the independent checker, and any
    // single-byte mutation must be rejected.
    let quickstart = dir.join("quickstart.c");
    std::fs::write(
        &quickstart,
        "int max(int a, int b) {\n    if (a < b) {\n        return b;\n    }\n    return a;\n}\n",
    )
    .unwrap();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/c");
    let mut sources = vec![quickstart];
    for f in ["crc_table.c", "ring_buffer.c", "string_scan.c"] {
        sources.push(corpus.join(f));
    }
    for (i, src) in sources.iter().enumerate() {
        let cert = dir.join(format!("{i}.cert"));
        let mut c = bin();
        c.arg(src)
            .args(["--quiet", "--level", "wa", "--trials", "2"])
            .arg("--emit-cert")
            .arg(&cert);
        run_ok(&mut c);

        let ok = certcheck().arg("--quiet").arg(&cert).output().unwrap();
        assert!(
            ok.status.success(),
            "{}: {}",
            src.display(),
            String::from_utf8_lossy(&ok.stderr)
        );

        // Mutate a handful of spread-out byte positions (an exhaustive
        // every-byte sweep lives in the kernel's own cert tests).
        let bytes = std::fs::read(&cert).unwrap();
        for pos in [0, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            let bad_path = dir.join("bad.cert");
            std::fs::write(&bad_path, &bad).unwrap();
            let rej = certcheck().arg("--quiet").arg(&bad_path).output().unwrap();
            assert!(
                !rej.status.success(),
                "{}: mutation at byte {pos} was accepted",
                src.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn certcheck_ends_quietly_when_its_reader_closes_stdout_early() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // eChronos-sized: its root lines are larger than a pipe buffer, so
    // certcheck is still writing when the reader goes away.
    let dir = tmpdir("cert-closed-stdout");
    let src = dir.join("echronos.c");
    std::fs::write(&src, codegen::generate(&codegen::TABLE5[3], 0xAC)).unwrap();
    let cert = dir.join("echronos.cert");
    run_ok(
        bin()
            .arg(&src)
            .args(["--quiet", "--level", "wa", "--trials", "1"])
            .arg("--emit-cert")
            .arg(&cert),
    );
    let mut child = certcheck()
        .arg(&cert)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "no root line before the pipe closed");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quickstart_certificate_matches_golden_snapshot() {
    let dir = tmpdir("golden");
    let src = dir.join("quickstart.c");
    std::fs::write(
        &src,
        "int max(int a, int b) {\n    if (a < b) {\n        return b;\n    }\n    return a;\n}\n",
    )
    .unwrap();
    let cert = dir.join("quickstart.cert");
    let mut c = bin();
    c.arg(&src).args(["--quiet"]).arg("--emit-cert").arg(&cert);
    run_ok(&mut c);
    let got = std::fs::read(&cert).unwrap();

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quickstart.cert");
    let golden = std::fs::read(&golden_path).unwrap_or_default();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    assert_eq!(
        got,
        golden,
        "cert-v3 bytes for the quickstart drifted; inspect with certcheck, then \
         re-bless with UPDATE_GOLDEN=1"
    );
    // And the checked-in snapshot must itself replay.
    let ok = certcheck().arg("--quiet").arg(&golden_path).output().unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
