//! Command-line front end: translate a C file and print the abstracted
//! specifications.
//!
//! ```text
//! autocorres [OPTIONS] FILE.c
//!
//!   --level l1|l2|hl|wa      pipeline level to print (default: wa)
//!   --fn NAME                print only this function (repeatable)
//!   --concrete NAME          keep NAME at the byte level (repeatable)
//!   --no-word-abs            stop after heap abstraction
//!   --word-abs NAME          word-abstract only NAME (repeatable)
//!   --trials N               differential-test budget per theorem (default 60)
//!   --seed N                 RNG seed for testing-validated rules
//!   --workers N              worker threads for the phase graph (default:
//!                            the host's CPUs, granted adaptively; output is
//!                            identical at any count)
//!   --metrics                print Table 5-style size metrics instead of
//!                            the specifications (lint and check still run)
//!   --check                  replay all theorems through the proof checker
//!   --lint[=deny]            print static-analysis lints (dead stores,
//!                            unreachable code, use-before-init, definite
//!                            overflow); `=deny` exits nonzero on any lint
//!   --no-absint              disable the abstract-interpretation phase
//!   --cache-dir DIR          persist the artifact store in DIR so a later
//!                            run (any process) warm-starts; corrupt or
//!                            version-skewed entries degrade to
//!                            recomputation, never to different output
//!   --emit-cert FILE         export every checked theorem as a
//!                            self-contained proof certificate, replayable
//!                            offline with the `certcheck` binary
//!   --playback SEED          replay a counterexample seed file and exit
//!   --corpus DIR             sweep every .c file in DIR, print a
//!                            per-function proof-status table, and exit
//!                            nonzero on any failure
//!   --quiet                  suppress the banner (cache-directory
//!                            warnings still go to stderr)
//! ```
//!
//! With `--playback` no C file argument is taken: the seed embeds the
//! source, spec, and falsifying input. The replay re-translates, re-runs,
//! and prints the divergence trace; the exit code is nonzero when the
//! recorded input no longer falsifies the spec (the regression is fixed or
//! the pipeline drifted).
//!
//! Output goes through one locked stdout handle. If its reader closes it
//! early (`autocorres FILE.c | head -1`), the run stops quietly with a
//! nonzero status: what was left unprinted, and any `--check` after it,
//! did not run.

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::process::ExitCode;

use autocorres::{Options, Session};
use monadic::ProgramCtx;

struct Cli {
    file: String,
    level: String,
    only: Vec<String>,
    concrete: BTreeSet<String>,
    word_abs: Option<BTreeSet<String>>,
    trials: u32,
    seed: u64,
    workers: usize,
    metrics: bool,
    check: bool,
    lint: bool,
    lint_deny: bool,
    no_absint: bool,
    cache_dir: Option<String>,
    emit_cert: Option<String>,
    playback: Option<String>,
    corpus: Option<String>,
    quiet: bool,
}

/// Why a run stopped before its end: a failure to report on stderr, or
/// stdout's reader closed it.
enum Stop {
    Fail(String),
    Closed,
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Fail(msg)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Fail(format!("stdout: {e}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: autocorres [--level l1|l2|hl|wa] [--fn NAME]... [--concrete NAME]...\n\
     \x20                 [--no-word-abs] [--word-abs NAME]... [--trials N] [--seed N]\n\
     \x20                 [--workers N] [--metrics] [--check] [--lint[=deny]]\n\
     \x20                 [--no-absint] [--cache-dir DIR] [--emit-cert FILE]\n\
     \x20                 [--quiet] FILE.c\n\
     \x20      autocorres --playback SEED\n\
     \x20      autocorres --corpus DIR [--trials N] [--seed N] [--workers N]"
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        file: String::new(),
        level: "wa".into(),
        only: Vec::new(),
        concrete: BTreeSet::new(),
        word_abs: None,
        trials: 60,
        seed: 2014,
        workers: ir::sched::host_cpus(),
        metrics: false,
        check: false,
        lint: false,
        lint_deny: false,
        no_absint: false,
        cache_dir: None,
        emit_cert: None,
        playback: None,
        corpus: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--level" => {
                let v = value("--level")?;
                if !matches!(v.as_str(), "l1" | "l2" | "hl" | "wa") {
                    return Err(format!("unknown level `{v}`"));
                }
                cli.level = v;
            }
            "--fn" => cli.only.push(value("--fn")?),
            "--concrete" => {
                cli.concrete.insert(value("--concrete")?);
            }
            "--no-word-abs" => cli.word_abs = Some(BTreeSet::new()),
            "--word-abs" => {
                cli.word_abs
                    .get_or_insert_with(BTreeSet::new)
                    .insert(value("--word-abs")?);
            }
            "--trials" => {
                cli.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workers" => {
                cli.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--metrics" => cli.metrics = true,
            "--check" => cli.check = true,
            "--lint" => cli.lint = true,
            "--no-absint" => cli.no_absint = true,
            f if f.starts_with("--lint=") => {
                cli.lint = true;
                match &f["--lint=".len()..] {
                    "deny" => cli.lint_deny = true,
                    "warn" => {}
                    v => return Err(format!("--lint: unknown mode `{v}` (warn|deny)")),
                }
            }
            "--cache-dir" => cli.cache_dir = Some(value("--cache-dir")?),
            "--emit-cert" => cli.emit_cert = Some(value("--emit-cert")?),
            "--playback" => cli.playback = Some(value("--playback")?),
            "--corpus" => cli.corpus = Some(value("--corpus")?),
            "--quiet" => cli.quiet = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            f if f.starts_with('-') => return Err(format!("unknown flag `{f}`")),
            f => {
                if !cli.file.is_empty() {
                    return Err("more than one input file".into());
                }
                cli.file = f.to_owned();
            }
        }
    }
    if cli.playback.is_some() {
        if !cli.file.is_empty() {
            return Err("--playback takes no C file (the seed embeds the source)".into());
        }
    } else if cli.corpus.is_some() {
        if !cli.file.is_empty() {
            return Err("--corpus takes a directory, not a C file argument".into());
        }
    } else if cli.file.is_empty() {
        return Err(usage().to_owned());
    }
    Ok(cli)
}

/// Replays a counterexample seed file: prints the recorded input, the
/// fresh divergence trace, and whether the verdict still holds.
fn run_playback(path: &str, quiet: bool, out: &mut impl Write) -> Result<(), Stop> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let pb = counterexample::playback(&text)?;
    if !quiet {
        eprintln!(
            "replaying {path}: {} / {}",
            pb.seed.function, pb.seed.vc
        );
    }
    match &pb.cex {
        Some(cex) => {
            write!(out, "{}", cex.trace)?;
            if !pb.observed_matches {
                writeln!(
                    out,
                    "playback: input still falsifies the spec, but the observed outcome \
                     drifted (recorded {}, now {})",
                    pb.seed.observed.render(),
                    cex.observed.render()
                )?;
                write!(out, "{}", pb.seed.describe_input())?;
                return Err(Stop::Fail("observed outcome drifted".into()));
            }
            writeln!(out, "playback: verdict reproduced (still falsified)")?;
            Ok(())
        }
        None => {
            write!(out, "{}", pb.seed.describe_input())?;
            writeln!(out, "playback: recorded input no longer falsifies the spec")?;
            Err(Stop::Fail("verdict not reproduced".into()))
        }
    }
}

fn print_ctx(ctx: &ProgramCtx, only: &[String], out: &mut impl Write) -> Result<(), Stop> {
    for name in only {
        if ctx.function(name).is_none() {
            return Err(format!("no function named `{name}`").into());
        }
    }
    for (name, f) in &ctx.fns {
        if only.is_empty() || only.iter().any(|o| o == name) {
            writeln!(out, "{f}")?;
        }
    }
    Ok(())
}

/// Prints the abstract-interpretation lints as warnings, attaching a
/// validated counterexample (via the extractor, with a trivial spec — the
/// guards themselves are the obligations) to each definite-overflow lint.
/// Returns the lint count.
fn print_lints(out: &autocorres::Output, stdout: &mut impl Write) -> Result<usize, Stop> {
    let mut diags = out.lint_diags();
    // Eager counterexamples for definite overflows: analyze each affected
    // function once and attach the first validated counterexample.
    let overflowing: BTreeSet<String> = out
        .absint
        .iter()
        .filter(|(_, a)| a.report.refuted() > 0)
        .map(|(n, _)| n.clone())
        .collect();
    for name in &overflowing {
        let spec = counterexample::FnSpec {
            pre: ir::expr::Expr::tt(),
            post: ir::expr::Expr::tt(),
            anns: Vec::new(),
        };
        let Ok(analysis) = counterexample::analyze(out, name, &spec) else {
            continue;
        };
        if let Some(cex) = analysis.first_cex() {
            for d in &mut diags {
                if d.function.as_deref() == Some(name.as_str())
                    && d.message.starts_with("definite-overflow")
                    && d.counterexample.is_none()
                {
                    d.counterexample = Some(Box::new(cex.info.clone()));
                }
            }
        }
    }
    for d in &diags {
        let at = match (&d.function, d.span) {
            (Some(f), Some(s)) => format!("{f}:{}:{}", s.line, s.col),
            (Some(f), None) => f.clone(),
            _ => String::new(),
        };
        writeln!(stdout, "warning[{at}]: {}", d.message)?;
        if let Some(cex) = &d.counterexample {
            writeln!(stdout, "    counterexample: {cex}")?;
        }
    }
    Ok(diags.len())
}

/// Sweeps a corpus directory and prints the per-function table. Exits
/// with an error when any file is rejected or any theorem fails to
/// replay, so CI can gate on a known-good corpus.
fn run_corpus(dir: &str, opts: &Options, out: &mut impl Write) -> Result<(), Stop> {
    let report = autocorres::corpus::sweep(std::path::Path::new(dir), opts)?;
    writeln!(out, "{report}")?;
    if report.failures() > 0 {
        return Err(format!("--corpus: {} failure(s)", report.failures()).into());
    }
    Ok(())
}

/// Exports every theorem of `out` (refinement phases + absint discharge)
/// as a `cert-v3` proof certificate, independently replayable with the
/// `certcheck` binary.
fn emit_cert(path: &str, out: &autocorres::Output) -> Result<(), String> {
    let mut labels: Vec<(String, &kernel::Thm)> = out
        .thms
        .iter()
        .map(|(phase, name, thm)| (format!("{phase}:{name}"), thm))
        .collect();
    for (name, a) in &out.absint {
        for (idx, thm) in &a.thms {
            labels.push((format!("absint:{name}:{idx}"), thm));
        }
    }
    let roots: Vec<(&str, &kernel::Thm)> =
        labels.iter().map(|(l, t)| (l.as_str(), *t)).collect();
    let bytes = kernel::cert::encode_cert(&out.check_ctx, &roots);
    std::fs::write(path, &bytes).map_err(|e| format!("--emit-cert {path}: {e}"))?;
    Ok(())
}

fn run(cli: &Cli, stdout: &mut impl Write) -> Result<(), Stop> {
    if let Some(path) = &cli.playback {
        return run_playback(path, cli.quiet, stdout);
    }
    let opts_of = |cli: &Cli| Options {
        concrete_fns: cli.concrete.clone(),
        word_abstract_fns: cli.word_abs.clone(),
        l2_trials: cli.trials,
        seed: cli.seed,
        workers: cli.workers,
        no_absint: cli.no_absint,
        cache_dir: cli.cache_dir.clone().map(std::path::PathBuf::from),
        ..Options::default()
    };
    if let Some(dir) = &cli.corpus {
        return run_corpus(dir, &opts_of(cli), stdout);
    }
    let src = std::fs::read_to_string(&cli.file)
        .map_err(|e| format!("{}: {e}", cli.file))?;
    let sess = Session::new(opts_of(cli));
    // A cleared or damaged cache directory is reported even with
    // `--quiet`, which only drops the banner lines.
    for w in &sess.load_report().warnings {
        eprintln!("warning: {}", w.message);
    }
    let out = sess.translate(&src).map_err(|e| e.to_string())?;
    // Refinement theorems plus absint discharge theorems: what a
    // certificate holds and what `--check` replays.
    let all_thms = out.thms.len() + out.absint.values().map(|a| a.thms.len()).sum::<usize>();
    if let Some(path) = &cli.emit_cert {
        emit_cert(path, &out)?;
        if !cli.quiet {
            eprintln!("wrote certificate: {all_thms} theorem(s) to {path}");
        }
    }
    if !cli.quiet {
        let n = out.wa.fns.len();
        let thms = out.thms.l1.len() + out.thms.l2.len() + out.thms.hl.len() + out.thms.wa.len();
        eprintln!("translated {n} function(s); {thms} theorem(s) produced");
    }
    if cli.metrics {
        let pm = out.parser_metrics();
        let am = out.output_metrics();
        writeln!(stdout, "{:<18} {:>8} {:>12}", "", "lines", "term size")?;
        writeln!(
            stdout,
            "{:<18} {:>8} {:>12}",
            "parser output", pm.lines, pm.term_size
        )?;
        writeln!(
            stdout,
            "{:<18} {:>8} {:>12}",
            "autocorres output", am.lines, am.term_size
        )?;
        if cli.cache_dir.is_some() {
            let s = &out.stats;
            writeln!(
                stdout,
                "store: hits={} misses={} rejected={} dirty_fns={}",
                s.cached_nodes,
                s.computed_nodes,
                sess.load_report().rejected,
                s.dirty_fns
            )?;
        }
    } else {
        let ctx = match cli.level.as_str() {
            "l1" => &out.l1,
            "l2" => &out.l2,
            "hl" => &out.hl,
            _ => &out.wa,
        };
        print_ctx(ctx, &cli.only, stdout)?;
    }
    if cli.lint {
        let n = print_lints(&out, stdout)?;
        if cli.lint_deny && n > 0 {
            return Err(format!("--lint=deny: {n} lint(s)").into());
        }
    }
    if cli.check {
        sess.check_all_report(&out, out.stats.workers)
            .map_err(|(f, e)| format!("proof check failed: {f}: {e}"))?;
        out.check_absint()
            .map_err(|e| format!("proof check failed: absint discharge: {e}"))?;
        if !cli.quiet {
            eprintln!("all {all_thms} theorem(s) replayed through the checker: OK");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = io::stdout().lock();
    match run(&cli, &mut stdout).and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Closed) => ExitCode::FAILURE,
        Err(Stop::Fail(msg)) => {
            eprintln!("autocorres: {msg}");
            ExitCode::FAILURE
        }
    }
}
