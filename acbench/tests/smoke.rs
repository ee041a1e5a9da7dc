//! Runs every workload on tiny inputs (`--smoke`), untraced and traced,
//! and checks the harness against `BENCHMARK.json`: every metric it
//! declares is printed with its unit, the limits on names and counts
//! hold, and the trace files are well-formed with non-negative self times
//! and top-level spans covering the traced wall time.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            (name, unit)
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the harness in `dir` and returns the parsed last line.
fn run(dir: &Path, workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_acbench"))
        .current_dir(dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let r = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    let keys: Vec<&str> = r.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{last}"
    );
    assert_eq!(
        r.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}:\n{stdout}"
    );
    assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{last}");
    assert!(r
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    r
}

fn check_metrics(workload: &str, r: &Json, declared: &[(String, String)], nonzero: bool) {
    let metrics = r.get("metrics").expect("metrics").as_obj();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        printed, want,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for ((name, unit), (_, m)) in declared.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite() && v >= 0.0, "{workload} {name} = {v}");
        if nonzero {
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is 0");
        }
    }
}

/// Self times are non-negative and top-level spans cover ≥ 95 % of each
/// traced process's wall time.
fn check_trace(workload: &str, path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let events = doc.get("traceEvents").expect("traceEvents").as_arr();
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64);
    let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
    let mut wall = 0.0;
    let mut top = 0.0;
    // (pid, span id) -> (duration, time covered by children)
    let mut spans: std::collections::BTreeMap<(u64, u64), (f64, f64)> = Default::default();
    for e in events {
        let pid = num(e, "pid").expect("pid") as u64;
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => wall += arg(e, "wall_us").expect("process wall"),
            Some("X") => {
                let dur = num(e, "dur").expect("dur");
                assert!(
                    dur >= 0.0 && num(e, "ts").is_some(),
                    "{workload}: bad span {e:?}"
                );
                let id = arg(e, "id").expect("span id") as u64;
                spans.entry((pid, id)).or_default().0 = dur;
                match arg(e, "parent") {
                    Some(p) => spans.entry((pid, p as u64)).or_default().1 += dur,
                    None => top += dur,
                }
            }
            other => panic!("{workload}: unexpected event phase {other:?}"),
        }
    }
    assert!(!spans.is_empty(), "{workload}: empty trace");
    for ((pid, id), (dur, children)) in spans {
        // Timestamps carry three decimals; allow that much rounding.
        assert!(
            dur - children >= -0.01,
            "{workload}: span {pid}/{id} has negative self time"
        );
    }
    assert!(
        wall > 0.0 && top / wall >= 0.95,
        "{workload}: top-level spans cover {top}/{wall}"
    );
}

#[test]
fn every_declared_metric_is_printed_and_traces_are_well_formed() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let e2e = names(&spec, "end_to_end");
    let layers = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut all: Vec<&str> = workloads
        .iter()
        .chain(&e2e)
        .chain(&layers)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "names are unique");
    assert!(e2e.contains(&("setup_s".to_owned(), "s".to_owned())));

    let dir: PathBuf = std::env::temp_dir().join(format!("acbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for (w, _) in &workloads {
        let r = run(&dir, w, false);
        check_metrics(w, &r, &e2e, true);
        let r = run(&dir, w, true);
        check_metrics(w, &r, &layers, false);
        check_trace(w, &dir.join("bench-out").join(format!("{w}.trace.json")));
    }
    std::fs::remove_dir_all(&dir).ok();
}
