//! `acbench`: the repository's benchmark harness.
//!
//! ```text
//! acbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--results FILE]
//! acbench --sweep [--runs N] [--seed N] [--seconds S] [--results FILE]
//! acbench --compare A.jsonl [B.jsonl]
//! ```
//!
//! One run measures one workload for about `--seconds`: the parent process
//! starts one child per sample, one at a time, each a fresh process with a
//! cold interner, and prints the metrics. The last line of its output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. Every run also appends a record, with the deterministic
//! counts, to the results file (`bench-out/results.jsonl`); a traced run
//! writes `bench-out/<workload>.trace.json`.
//!
//! `--sweep` runs every workload `--runs` times untraced, seeds `N`,
//! `N+1`, ...; `--compare` summarises one results file against the bounds
//! of `BENCHMARK.json` (read from the working directory), or compares two.
//! `--smoke` swaps in tiny inputs and one sample, for the harness's own
//! test. See `BENCHMARK.md`.

mod compare;
mod json;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workload::{ChildArgs, Role, WORKLOADS};

const USAGE: &str =
    "usage: acbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--results FILE]
       acbench --sweep [--runs N] [--seed N] [--seconds S] [--results FILE]
       acbench --compare A.jsonl [B.jsonl]
workloads: sel4_scratch sel4_edit sel4_disk corpus_small";

/// The workload seed when none is given (Table 5's).
const DEFAULT_SEED: u64 = 0xAC;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    child: Option<String>,
    role: Option<Role>,
    sample: usize,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    results: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    sweep: bool,
    runs: Option<usize>,
    compare: Vec<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--child" => cli.child = Some(value()?),
            "--role" => {
                let v = value()?;
                cli.role = Some(Role::parse(&v).ok_or_else(|| format!("unknown role `{v}`"))?);
            }
            "--sample" => cli.sample = value()?.parse().map_err(|_| "--sample needs a number")?,
            "--seed" => {
                let v = value()?;
                cli.seed = Some(parse_seed(&v).ok_or_else(|| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(v > 0.0 && v <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.seconds = Some(v);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--results" => cli.results = Some(PathBuf::from(value()?)),
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value()?)),
            "--sweep" => cli.sweep = true,
            "--runs" => cli.runs = Some(value()?.parse().map_err(|_| "--runs needs a number")?),
            "--compare" => {
                cli.compare.push(value()?);
                if let Some(b) = it.as_slice().first().filter(|b| !b.starts_with("--")) {
                    cli.compare.push(b.clone());
                    it.next();
                }
            }
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    for w in [&cli.workload, &cli.child].into_iter().flatten() {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(cli)
}

/// Runs every workload `runs` times through this executable.
fn sweep(cli: &Cli, results: &std::path::Path) -> i32 {
    let exe = std::env::current_exe().expect("the harness knows its own executable");
    let seed0 = cli.seed.unwrap_or(DEFAULT_SEED);
    let mut code = 0;
    for r in 0..cli.runs.unwrap_or(10) as u64 {
        for w in WORKLOADS {
            let seed = seed0.wrapping_add(r);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string(), "--trace", "0"])
                .arg("--results")
                .arg(results)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(s) = cli.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            match cmd.output() {
                Ok(o) if o.status.success() => {
                    let text = String::from_utf8_lossy(&o.stdout);
                    let last = text.lines().last().unwrap_or("");
                    println!("{w} seed={seed}: {last}");
                    if !last.contains("\"correct\": true") {
                        code = 1;
                    }
                }
                Ok(o) => {
                    println!("{w} seed={seed}: exited with {}", o.status);
                    code = 1;
                }
                Err(e) => {
                    eprintln!("acbench: cannot start a run: {e}");
                    return 1;
                }
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("acbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let results = cli
        .results
        .clone()
        .unwrap_or_else(|| PathBuf::from(run::OUT_DIR).join("results.jsonl"));
    let code = if let Some(workload) = cli.child.clone() {
        workload::child_main(ChildArgs {
            workload,
            role: cli.role.unwrap_or_default(),
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            sample: cli.sample,
            trace: cli.trace,
            smoke: cli.smoke,
            cache_dir: cli.cache_dir,
        })
    } else if !cli.compare.is_empty() {
        compare::compare(
            "BENCHMARK.json",
            &cli.compare[0],
            cli.compare.get(1).map(String::as_str),
        )
    } else if cli.sweep {
        sweep(&cli, &results)
    } else if let Some(workload) = cli.workload.clone() {
        run::run(&run::RunArgs {
            workload,
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: cli.trace,
            smoke: cli.smoke,
            results,
        })
    } else {
        eprintln!("{USAGE}");
        2
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
