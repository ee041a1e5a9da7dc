//! The parent process of one benchmark run: it starts one child per
//! sample, one at a time, until the run's time is used, then turns the
//! children's reports into the metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{self, num, quote, Json};
use crate::stats::{median, percentile};
use crate::trace::{self, ProcessSpans, Span};
use crate::workload::{planned_ops, warm_starts_per_cold, Role};

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("fns_per_s", "fn/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cparser.lex_s", "s"),
    ("cparser.parse_s", "s"),
    ("cparser.typecheck_s", "s"),
    ("simpl.translate_s", "s"),
    ("l1.s", "s"),
    ("l2.translate_s", "s"),
    ("l2.exectest_s", "s"),
    ("heapabs.s", "s"),
    ("wordabs.s", "s"),
    ("absint.s", "s"),
    ("absint.discharge_ratio", "ratio"),
    ("pipeline.translate_s", "s"),
    ("pipeline.residual_s", "s"),
    ("pipeline.utilization", "ratio"),
    ("pipeline.workers", "count"),
    ("kernel.replay_s", "s"),
    ("kernel.replay_nodes", "count"),
    ("kernel.replay_hit_ratio", "ratio"),
    ("cert.encode_s", "s"),
    ("cert.check_s", "s"),
    ("cert.bytes", "bytes"),
    ("session.dirty_fns", "count"),
    ("session.cached_ratio", "ratio"),
    ("session.artifacts", "count"),
    ("store.save_s", "s"),
    ("store.files", "count"),
    ("store.bytes", "bytes"),
    ("store.open_load_s", "s"),
    ("store.artifacts_loaded", "count"),
    ("store.rejected", "count"),
    ("intern.dedup_ratio", "ratio"),
    ("counterexample.playback_s", "s"),
];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub results: PathBuf,
}

/// Output directory for traces, cache directories and results, relative
/// to the directory the benchmark runs in.
pub const OUT_DIR: &str = "bench-out";

/// What one child reported.
#[derive(Default)]
struct ChildOut {
    role: Role,
    sample: usize,
    planned: usize,
    /// Seconds from spawning the child to its process epoch.
    spawn_s: f64,
    /// Seconds from spawning the child to its exit.
    life_s: f64,
    epoch_unix_us: f64,
    setup: Option<f64>,
    ops: Vec<(f64, usize)>,
    fails: Vec<String>,
    counts: Vec<(String, String)>,
    vals: Vec<(String, String, f64)>,
    rss_mb: f64,
    wall_us: f64,
    spans: Vec<Span>,
}

impl ChildOut {
    fn attempted(&self) -> usize {
        self.planned.max(self.ops.len() + self.fails.len())
    }

    fn failed(&self) -> usize {
        self.attempted() - self.ops.len()
    }
}

fn unix_us() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

fn spawn_child(a: &RunArgs, role: Role, sample: usize, cache_dir: Option<&Path>) -> ChildOut {
    let exe = std::env::current_exe().expect("the harness knows its own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", &a.workload, "--role", role.name()])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--sample",
            &sample.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.trace {
        cmd.args(["--trace", "1"]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let Some(d) = cache_dir {
        cmd.arg("--cache-dir").arg(d);
    }
    let mut c = ChildOut {
        role,
        sample,
        planned: planned_ops(&a.workload, role, a.smoke),
        ..ChildOut::default()
    };
    let t = Instant::now();
    let spawned = unix_us();
    let out = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            c.fails.push(format!("cannot start a child: {e}"));
            return c;
        }
    };
    c.life_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        c.fails
            .push(format!("{} child exited with {}", role.name(), out.status));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
        let mut w = rest.splitn(4, ' ');
        match key {
            "epoch" => c.epoch_unix_us = f(rest),
            "setup" => c.setup = Some(f(rest)),
            "op" => {
                let secs = f(w.next().unwrap_or(""));
                let fns = w.next().and_then(|x| x.parse().ok()).unwrap_or(0);
                c.ops.push((secs, fns));
            }
            "fail" => c.fails.push(rest.to_owned()),
            "count" => {
                let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                c.counts.push((k.to_owned(), v.to_owned()));
            }
            "sum" | "max" | "med" => {
                let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                c.vals.push((key.to_owned(), k.to_owned(), f(v)));
            }
            "rss_mb" => c.rss_mb = f(rest),
            "wall" => c.wall_us = f(rest),
            "span" => {
                let parent = w.next().and_then(|p| p.parse().ok());
                let start_us = f(w.next().unwrap_or(""));
                let dur_us = f(w.next().unwrap_or(""));
                let name = w.next().unwrap_or("").to_owned();
                c.spans.push(Span {
                    name,
                    parent,
                    start_us,
                    dur_us,
                });
            }
            _ => c.fails.push(format!("unexpected child output: {line}")),
        }
    }
    c.spawn_s = ((c.epoch_unix_us - spawned) / 1e6).max(0.0);
    c
}

/// One sample: its children and its set-up time.
struct Sample {
    children: Vec<ChildOut>,
    setup_s: f64,
}

fn run_sample(a: &RunArgs, i: usize, tmp: &Path) -> Sample {
    if a.workload == "sel4_disk" {
        let dir = tmp.join(format!("disk-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut children = vec![spawn_child(a, Role::Cold, i, Some(&dir))];
        for _ in 0..warm_starts_per_cold(a.smoke) {
            children.push(spawn_child(a, Role::Warm, i, Some(&dir)));
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The whole cold process, then the first warm one up to its op.
        let (cold, warm) = (&children[0], &children[1]);
        let setup_s = cold.life_s + warm.spawn_s + warm.setup.unwrap_or(0.0);
        Sample { children, setup_s }
    } else {
        let c = spawn_child(a, Role::Sample, i, None);
        let setup_s = c.spawn_s + c.setup.unwrap_or(0.0);
        Sample {
            children: vec![c],
            setup_s,
        }
    }
}

/// Aggregates the children's raw per-layer values.
struct Vals(BTreeMap<String, Vec<(String, f64)>>);

impl Vals {
    fn new<'a>(children: impl Iterator<Item = &'a ChildOut>) -> Vals {
        let mut m: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for c in children {
            for (agg, k, v) in &c.vals {
                m.entry(k.clone()).or_default().push((agg.clone(), *v));
            }
        }
        Vals(m)
    }

    fn get(&self, key: &str) -> f64 {
        let Some(vs) = self.0.get(key) else {
            return 0.0;
        };
        let xs: Vec<f64> = vs.iter().map(|(_, v)| *v).collect();
        match vs[0].0.as_str() {
            "max" => xs.iter().copied().fold(0.0, f64::max),
            "med" => median(&xs),
            _ => xs.iter().sum(),
        }
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }
}

fn per_layer(procs: &[ProcessSpans], vals: &Vals) -> BTreeMap<&'static str, f64> {
    let names = trace::by_name(procs);
    let own = |n: &str| names.get(n).map_or(0.0, |e| e.2 / 1e6);
    let mut m = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let v = match *name {
            "cparser.lex_s" => own("cparser.lex"),
            "cparser.parse_s" => own("cparser.parse"),
            "cparser.typecheck_s" => own("cparser.typecheck"),
            "simpl.translate_s" => own("simpl.translate"),
            "l1.s" => own("l1"),
            "l2.translate_s" => own("l2.translate"),
            "l2.exectest_s" => own("l2.exectest"),
            "heapabs.s" => own("heapabs"),
            "wordabs.s" => own("wordabs"),
            "absint.s" => vals.get("absint.busy_s"),
            "absint.discharge_ratio" => vals.ratio("absint.discharged", "absint.guards"),
            "pipeline.translate_s" => own("pipeline.translate"),
            "pipeline.residual_s" => vals.get("pipeline.residual_s"),
            "pipeline.utilization" => vals.get("pipeline.utilization"),
            "pipeline.workers" => vals.get("pipeline.workers"),
            "kernel.replay_s" => own("kernel.replay"),
            "kernel.replay_nodes" => vals.get("kernel.replay_nodes"),
            "kernel.replay_hit_ratio" => vals.ratio("kernel.hits", "kernel.lookups"),
            "cert.encode_s" => own("cert.encode"),
            "cert.check_s" => own("cert.check"),
            "cert.bytes" => vals.get("cert.bytes"),
            "session.dirty_fns" => vals.get("session.dirty_fns"),
            "session.cached_ratio" => vals.ratio("session.cached", "session.jobs"),
            "session.artifacts" => vals.get("session.artifacts"),
            "store.save_s" => own("store.save"),
            "store.files" => vals.get("store.files"),
            "store.bytes" => vals.get("store.bytes"),
            "store.open_load_s" => own("store.open_load"),
            "store.artifacts_loaded" => vals.get("store.artifacts_loaded"),
            "store.rejected" => vals.get("store.rejected"),
            "intern.dedup_ratio" => vals.ratio("intern.requests", "intern.misses"),
            "counterexample.playback_s" => own("counterexample.playback"),
            other => unreachable!("per-layer metric {other} has no source"),
        };
        m.insert(*name, v);
    }
    m
}

/// Runs one workload and prints the result. Returns the exit code.
pub fn run(a: &RunArgs) -> i32 {
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("acbench: cannot create {}: {e}", tmp.display());
        return 1;
    }
    let run_unix = unix_us();
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        samples.push(run_sample(a, samples.len(), &tmp));
        // A traced run measures a fixed amount of work (one sample and the
        // census), so its per-layer totals compare across runs.
        if a.trace || a.smoke {
            break;
        }
        let per_sample = start.elapsed().as_secs_f64() / samples.len() as f64;
        if start.elapsed().as_secs_f64() + per_sample > a.seconds {
            break;
        }
    }
    let census = a.trace.then(|| {
        let dir = tmp.join(format!("census-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = spawn_child(a, Role::Census, samples.len(), Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        c
    });
    let measured_s = start.elapsed().as_secs_f64();
    let children: Vec<&ChildOut> = samples
        .iter()
        .flat_map(|s| s.children.iter())
        .chain(census.iter())
        .collect();

    let attempted: usize = children.iter().map(|c| c.attempted()).sum();
    let failed: usize = children.iter().map(|c| c.failed()).sum();
    for c in &children {
        for f in &c.fails {
            println!("FAILED [{}]: {f}", c.role.name());
        }
    }
    // Determinism: every count a child reports must read the same in
    // every sample of the run.
    let mut counts: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for c in &children {
        for (k, v) in &c.counts {
            let vs = counts.entry(k).or_default();
            if !vs.contains(&v.as_str()) {
                vs.push(v);
            }
        }
    }
    let mut deterministic = true;
    for (k, vs) in &counts {
        if vs.len() > 1 {
            deterministic = false;
            println!(
                "FAILED: count `{k}` differs between samples: {}",
                vs.join(" vs ")
            );
        }
    }
    let correct = failed == 0 && deterministic;

    let sample_ops: Vec<(f64, usize)> = samples
        .iter()
        .flat_map(|s| s.children.iter())
        .flat_map(|c| c.ops.iter().copied())
        .collect();
    let op_ms: Vec<f64> = sample_ops.iter().map(|(s, _)| s * 1e3).collect();
    let op_s_total: f64 = sample_ops.iter().map(|(s, _)| s).sum();
    let fns_total: usize = sample_ops.iter().map(|(_, f)| f).sum();
    let setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();

    println!(
        "acbench {} seed={} {}: {} sample(s), {} op(s), {attempted} attempted, {failed} failed, \
         {:.1} s, workers={}{}",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        samples.len(),
        op_ms.len(),
        measured_s,
        crate::workload::host_cpus(),
        if a.smoke { " (smoke)" } else { "" },
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut procs: Vec<ProcessSpans> = Vec::new();
    if a.trace {
        for (pid, c) in children.iter().enumerate() {
            let label = format!("{} {}", c.role.name(), pid);
            procs.push(ProcessSpans {
                pid,
                sample: c.sample,
                label,
                offset_us: c.epoch_unix_us - run_unix,
                wall_us: c.wall_us,
                spans: c.spans.clone(),
            });
        }
        let vals = Vals::new(children.iter().copied());
        let layer = per_layer(&procs, &vals);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layer[name]));
        }
        report_trace(a, &procs, &op_ms);
    } else {
        let rss = children.iter().map(|c| c.rss_mb).fold(0.0, f64::max);
        for (name, unit) in END_TO_END {
            let v = match *name {
                "setup_s" => median(&setups),
                "op_ms_p50" => median(&op_ms),
                "op_ms_p90" => percentile(&op_ms, 0.9),
                "fns_per_s" => {
                    if op_s_total > 0.0 {
                        fns_total as f64 / op_s_total
                    } else {
                        0.0
                    }
                }
                "peak_rss_mb" => rss,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((name, unit, v));
        }
        for (name, unit, v) in &metrics {
            let n = match *name {
                "setup_s" => samples.len(),
                "peak_rss_mb" => children.len(),
                _ => op_ms.len(),
            };
            println!("  {name:<14} {v:>12.3} {unit:<5} (n={n})");
        }
    }

    let mut metrics_json = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics_json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            num(*v),
            quote(unit)
        );
    }
    let counts_json = counts
        .iter()
        .map(|(k, vs)| format!("{}: {}", quote(k), quote(&vs.join(" | "))))
        .collect::<Vec<_>>()
        .join(", ");
    let list = |xs: &[f64]| xs.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"samples\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics_json}}}, \"counts\": {{{counts_json}}}, \
         \"setup_s\": [{}], \"op_ms\": [{}]}}",
        quote(&a.workload),
        a.seed,
        u8::from(a.trace),
        a.smoke,
        samples.len(),
        list(&setups),
        list(&op_ms),
    );
    if let Err(e) = append_line(&a.results, &record) {
        eprintln!("acbench: cannot append to {}: {e}", a.results.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics_json}}}}}"
    );
    0
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Writes the trace file and prints the self-time table, the span
/// coverage and the tracing overhead.
fn report_trace(a: &RunArgs, procs: &[ProcessSpans], op_ms: &[f64]) {
    let path = Path::new(OUT_DIR).join(format!("{}.trace.json", a.workload));
    match std::fs::write(&path, trace::chrome_json(procs)) {
        Ok(()) => println!("  trace: {}", path.display()),
        Err(e) => eprintln!("acbench: cannot write {}: {e}", path.display()),
    }
    let wall: f64 = procs.iter().map(|p| p.wall_us).sum::<f64>() / 1e6;
    println!(
        "  {:<28} {:>6} {:>10} {:>10} {:>7}",
        "span", "calls", "total s", "self s", "self %"
    );
    let mut rows: Vec<_> = trace::by_name(procs).into_iter().collect();
    rows.sort_by(|x, y| y.1 .2.total_cmp(&x.1 .2));
    for (name, (calls, total, own)) in rows {
        println!(
            "  {name:<28} {calls:>6} {:>10.4} {:>10.4} {:>6.1}%",
            total / 1e6,
            own / 1e6,
            100.0 * own / 1e6 / wall.max(1e-9)
        );
    }
    println!(
        "  top-level spans cover {:.2}% of {:.2} s traced wall",
        100.0 * trace::coverage(procs),
        wall
    );
    let traced = median(op_ms);
    match last_untraced_p50(&a.results, &a.workload, a.smoke) {
        Some(base) if base > 0.0 && !op_ms.is_empty() => println!(
            "  tracing overhead: traced op p50 {traced:.1} ms vs untraced {base:.1} ms ({:+.1}%)",
            100.0 * (traced / base - 1.0)
        ),
        _ => println!(
            "  tracing overhead: no untraced run of {} in {} to compare with",
            a.workload,
            a.results.display()
        ),
    }
}

/// `op_ms_p50` of the latest untraced run of `workload` in a results file.
fn last_untraced_p50(results: &Path, workload: &str, smoke: bool) -> Option<f64> {
    let text = std::fs::read_to_string(results).ok()?;
    text.lines().rev().find_map(|l| {
        let r = json::parse(l).ok()?;
        let same = r.get("workload")?.as_str()? == workload
            && r.get("trace")?.as_f64()? == 0.0
            && r.get("smoke") == Some(&Json::Bool(smoke));
        same.then(|| r.get("metrics")?.get("op_ms_p50")?.get("value")?.as_f64())?
    })
}
