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
fn gen_source(dir: &Path) -> PathBuf {
    let profile = codegen::Profile {
        name: "persistence-test",
        loc: 900,
        functions: 18,
    };
    let src = codegen::generate(&profile, 0xAC);
    let path = dir.join("gen.c");
    std::fs::write(&path, src).unwrap();
    path
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
    let src = gen_source(&dir);
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
    let src = gen_source(&dir);
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

    // Truncate one artifact, bit-flip another, empty a third, and delete
    // a fourth: the warm start degrades for those functions only, and
    // the output bytes cannot change.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(cache.join("artifacts"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(entries.len() >= 4, "expected a populated store");
    let bytes = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&entries[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entries[1], &bytes).unwrap();
    std::fs::write(&entries[2], b"").unwrap();
    std::fs::remove_file(&entries[3]).unwrap();

    let damaged = run(&cache);
    assert_eq!(clean.stdout, damaged.stdout, "corruption changed output bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_meta_degrades_to_cold_start() {
    let dir = tmpdir("skew");
    let src = gen_source(&dir);
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

    // Rewrite the meta header as a future format version would.
    let meta = cache.join("meta");
    let mut m = std::fs::read(&meta).unwrap();
    m[7] = b'9';
    std::fs::write(&meta, &m).unwrap();

    let skew = run(&[]);
    assert!(skew.status.success(), "skew must never be fatal");
    assert_eq!(clean.stdout, skew.stdout, "skew changed output bytes");
    let stderr = String::from_utf8_lossy(&skew.stderr);
    assert!(
        stderr.contains("mismatch") && stderr.contains("cold"),
        "skew warning missing: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_cache_directory_never_panics_or_fails() {
    let dir = tmpdir("garbage");
    let src = gen_source(&dir);
    let cache = dir.join("cache");
    std::fs::create_dir_all(cache.join("artifacts")).unwrap();
    std::fs::write(cache.join("meta"), b"").unwrap();
    std::fs::write(cache.join("replay.bin"), b"\x00\x01\x02").unwrap();
    std::fs::write(cache.join("artifacts/notes.txt"), b"hello").unwrap();
    std::fs::write(cache.join("artifacts/empty.bin"), b"").unwrap();
    let mut c = bin();
    c.arg(&src)
        .args(["--quiet", "--level", "wa", "--trials", "2"])
        .arg("--cache-dir")
        .arg(&cache);
    run_ok(&mut c);
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
        "cert-v2 bytes for the quickstart drifted; inspect with certcheck, then \
         re-bless with UPDATE_GOLDEN=1"
    );
    // And the checked-in snapshot must itself replay.
    let ok = certcheck().arg("--quiet").arg(&golden_path).output().unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
