//! The four workloads: their inputs, made from the seed, and what one
//! child process does with them.
//!
//! A child reports on its standard output, one record per line:
//!
//! ```text
//! epoch <µs since the Unix epoch at process start>
//! setup <s>                time from process start to the first timed op
//! op <s> <fns>             one successful operation, the functions it verified
//! fail <reason>            why an operation failed
//! count <key> <value>      a count that must repeat exactly across samples
//! sum|max|med <key> <v>    raw per-layer values, aggregated by the parent
//! rss_mb <peak resident set>
//! wall <µs since process start>
//! span <parent|-> <start µs> <dur µs> <name>      (traced runs only)
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use autocorres::{Options, Output, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Recorder;

pub const WORKLOADS: [&str; 4] = ["sel4_scratch", "sel4_edit", "sel4_disk", "corpus_small"];

/// Differential-test budget of the L2 theorems: Table 5's setting, so the
/// timings line up with `BENCH_table5.json`.
const L2_TRIALS: u32 = 2;

/// The seed Table 5 generates its programs with. The seL4-scale program is
/// the same on every run; `--seed` drives the testing RNG, the edits and
/// the generated corpus.
const TABLE5_SEED: u64 = 0xAC;

/// WA digests of the fixed inputs (see [`wa_digest`]); they do not depend
/// on the testing seed or the worker count. A translation whose final
/// specification differs from its recorded digest is a failed operation:
/// the output changed, whatever the timing says.
const REFERENCE_DIGESTS: &[(&str, u128)] = &[
    ("sel4", 0x3e14f50329ae98158321826b6d3e0406),
    ("smoke", 0x4017f823edc598b8bf2c9bbb1bd6ae10),
    ("crc_table", 0xa2b41a6ee8f94835b6dac5bbd86fd80e),
    ("ring_buffer", 0x2c40b68dd7dedd3c533bf2c1588d8aca),
    ("state_machine", 0x90a17ece66aa1e9c9d78585e9343573c),
    ("string_scan", 0xc60b3b1cd9071ff11ba246d2039fedfd),
    ("max", 0xdafaf2a70e10498b38012d1b1a889bd1),
    ("gcd", 0x3241366906910accbf77550ca7377d25),
    ("midpoint", 0x83bd292ffd3beec44929e05b9cb7d726),
    ("swap", 0xf3903bad03125afeee32fbf271a18acb),
    ("suzuki", 0x13f5aec05e1db1aaf57f901e168d3c1a),
    ("reverse", 0xfba5be69ae018487211b54f6108e249d),
    ("schorr_waite", 0xc826b034368506d0644e95ab93d9c916),
    ("overflow_idiom", 0xfe259c72aae3dedb78f6f192368788f2),
];

/// What one child process is for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// One sample of `sel4_scratch`, `sel4_edit` or `corpus_small`.
    #[default]
    Sample,
    /// `sel4_disk`, first half: a cold, disk-backed run that fills the
    /// cache directory. All of it is set-up for the warm start.
    Cold,
    /// `sel4_disk`, second half: a fresh process warm-starting from the
    /// cache directory.
    Warm,
    /// Traced runs only: the layer census (see [`census`]).
    Census,
}

impl Role {
    pub fn parse(s: &str) -> Option<Role> {
        Some(match s {
            "sample" => Role::Sample,
            "cold" => Role::Cold,
            "warm" => Role::Warm,
            "census" => Role::Census,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Role::Sample => "sample",
            Role::Cold => "cold",
            Role::Warm => "warm",
            Role::Census => "census",
        }
    }
}

/// Operations one child attempts; the parent counts every one it does not
/// hear back about as failed.
pub fn planned_ops(workload: &str, role: Role, smoke: bool) -> usize {
    match (workload, role) {
        (_, Role::Cold) => 0,
        (_, Role::Census) => census_sources(workload, smoke).len() + cex_seeds(smoke).len(),
        ("sel4_edit", _) => edits_per_child(smoke),
        ("corpus_small", _) => corpus_len(smoke),
        _ => 1,
    }
}

pub struct ChildArgs {
    pub workload: String,
    pub role: Role,
    pub seed: u64,
    pub sample: usize,
    pub trace: bool,
    pub smoke: bool,
    pub cache_dir: Option<PathBuf>,
}

/// A child's reporting state.
struct Child {
    args: ChildArgs,
    rec: Recorder,
    epoch: Instant,
    lines: Vec<String>,
}

impl Child {
    fn setup_done(&mut self) {
        let s = self.epoch.elapsed().as_secs_f64();
        self.lines.push(format!("setup {s}"));
    }

    fn op(&mut self, secs: f64, fns: usize) {
        self.lines.push(format!("op {secs} {fns}"));
    }

    fn fail(&mut self, why: &str) {
        self.lines
            .push(format!("fail {}", why.replace('\n', " | ")));
    }

    fn count(&mut self, key: &str, v: impl std::fmt::Display) {
        self.lines.push(format!("count {key} {v}"));
    }

    /// A raw per-layer value; `agg` is `sum`, `max` or `med`.
    fn val(&mut self, agg: &str, key: &str, v: f64) {
        self.lines.push(format!("{agg} {key} {v}"));
    }

    fn opts(&self) -> Options {
        Options {
            l2_trials: L2_TRIALS,
            seed: self.args.seed,
            workers: host_cpus(),
            ..Options::default()
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.args
            .cache_dir
            .clone()
            .expect("the parent passes --cache-dir to disk-backed children")
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Hit/miss counters of both interners (`Expr` and `Prog`) combined.
fn interned() -> ir::intern::InternStats {
    let e = ir::intern::expr_stats();
    let p = monadic::prog::intern_stats();
    ir::intern::InternStats {
        hits: e.hits + p.hits,
        misses: e.misses + p.misses,
    }
}

/// Runs one child and prints its records. Returns the process exit code.
pub fn child_main(args: ChildArgs) -> i32 {
    let epoch = Instant::now();
    let unix_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros());
    let intern0 = interned();
    let mut c = Child {
        rec: Recorder::new(args.trace, epoch),
        args,
        epoch,
        lines: vec![format!("epoch {unix_us}")],
    };
    match (c.args.workload.as_str(), c.args.role) {
        (_, Role::Census) => census(&mut c),
        ("sel4_scratch", Role::Sample) => scratch_sample(&mut c),
        ("sel4_edit", Role::Sample) => edit_session(&mut c),
        ("sel4_disk", Role::Cold) => disk_cold(&mut c),
        ("sel4_disk", Role::Warm) => disk_warm(&mut c),
        ("corpus_small", Role::Sample) => corpus_sample(&mut c),
        (w, r) => {
            eprintln!("acbench: no {} child for workload `{w}`", r.name());
            return 2;
        }
    }
    let d = interned().since(&intern0);
    c.val("sum", "intern.requests", d.total() as f64);
    c.val("sum", "intern.misses", d.misses as f64);
    c.lines.push(format!(
        "rss_mb {}",
        proc_kb("/proc/self/status", "VmHWM:") / 1024.0
    ));
    c.lines
        .push(format!("wall {}", epoch.elapsed().as_secs_f64() * 1e6));
    let mut out = c.lines.join("\n");
    for s in c.rec.into_spans() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\nspan {parent} {} {} {}",
            s.start_us, s.dur_us, s.name
        );
    }
    println!("{out}");
    0
}

/// A `kB` field of a `/proc` file (0 when absent).
fn proc_kb(path: &str, field: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

// ---- inputs ------------------------------------------------------------------

/// The seL4-scale program (Table 5's first row, 551 functions); a
/// 12-function program of the same mix for `--smoke`.
fn sel4_source(smoke: bool) -> (&'static str, String) {
    if smoke {
        let p = codegen::Profile {
            name: "smoke",
            loc: 180,
            functions: 12,
        };
        ("smoke", codegen::generate(&p, TABLE5_SEED))
    } else {
        ("sel4", codegen::generate(&codegen::TABLE5[0], TABLE5_SEED))
    }
}

/// The checked-in corpus: the hand-written C files, then the paper's case
/// studies that translate without per-function options.
const FIXED_FILES: &[(&str, &str)] = &[
    (
        "crc_table",
        include_str!("../../tests/corpus/c/crc_table.c"),
    ),
    (
        "ring_buffer",
        include_str!("../../tests/corpus/c/ring_buffer.c"),
    ),
    (
        "state_machine",
        include_str!("../../tests/corpus/c/state_machine.c"),
    ),
    (
        "string_scan",
        include_str!("../../tests/corpus/c/string_scan.c"),
    ),
    ("max", casestudies::sources::MAX),
    ("gcd", casestudies::sources::GCD),
    ("midpoint", casestudies::sources::MIDPOINT),
    ("swap", casestudies::sources::SWAP),
    ("suzuki", casestudies::sources::SUZUKI),
    ("reverse", casestudies::sources::REVERSE),
    ("schorr_waite", casestudies::sources::SCHORR_WAITE),
    ("overflow_idiom", casestudies::sources::OVERFLOW_IDIOM),
];

/// The checked-in counterexample seeds; each must still falsify its spec.
const CEX_SEEDS: &[&str] = &[
    include_str!("../../tests/corpus/cex-001.seed"),
    include_str!("../../tests/corpus/cex-002.seed"),
    include_str!("../../tests/corpus/cex-003.seed"),
    include_str!("../../tests/corpus/cex-004.seed"),
    include_str!("../../tests/corpus/cex-005.seed"),
    include_str!("../../tests/corpus/cex-006.seed"),
    include_str!("../../tests/corpus/cex-007.seed"),
    include_str!("../../tests/corpus/cex-008.seed"),
    include_str!("../../tests/corpus/cex-009.seed"),
];

fn fixed_files(smoke: bool) -> &'static [(&'static str, &'static str)] {
    if smoke {
        &FIXED_FILES[..2]
    } else {
        FIXED_FILES
    }
}

fn cex_seeds(smoke: bool) -> &'static [&'static str] {
    if smoke {
        &CEX_SEEDS[..1]
    } else {
        CEX_SEEDS
    }
}

/// Seeded audit-mix programs per `corpus_small` child.
fn seeded_per_child(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        40
    }
}

fn corpus_len(smoke: bool) -> usize {
    fixed_files(smoke).len() + cex_seeds(smoke).len() + seeded_per_child(smoke)
}

/// Warm-start processes per cold run in `sel4_disk`; each reads the same
/// directory.
pub fn warm_starts_per_cold(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// Edits per `sel4_edit` child: one per stratum of source position. The
/// session store only grows, so this also bounds the child's memory.
fn edits_per_child(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        8
    }
}

/// An independent RNG stream per (seed, sample, purpose).
fn rng(seed: u64, sample: usize, purpose: &str) -> StdRng {
    StdRng::seed_from_u64(autocorres::derive_seed(
        seed,
        &format!("{sample}/{purpose}"),
    ))
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

// ---- correctness -------------------------------------------------------------

fn render(ctx: &monadic::ProgramCtx) -> String {
    let mut s = String::new();
    for (name, f) in &ctx.fns {
        let _ = writeln!(s, "{name}\n{f}");
    }
    s
}

/// Digest of the final (WA) specification of every function.
fn wa_digest(out: &Output) -> u128 {
    ir::codec::digest128_bytes(render(&out.wa).as_bytes())
}

/// Checks a translation of a fixed input against its recorded digest.
fn check_reference(input: &str, out: &Output) -> Result<(), String> {
    check_digest(input, wa_digest(out))
}

fn check_digest(input: &str, got: u128) -> Result<(), String> {
    match REFERENCE_DIGESTS.iter().find(|(n, _)| *n == input) {
        Some((_, want)) if *want == got => Ok(()),
        Some((_, want)) => Err(format!(
            "{input}: WA digest {got:#034x} differs from the recorded {want:#034x}"
        )),
        None => Err(format!(
            "{input}: no recorded WA digest (computed {got:#034x})"
        )),
    }
}

/// Parses through the three front-end passes one by one (what
/// `cparser::parse_and_check` does) so each gets its own span.
fn parse(rec: &mut Recorder, src: &str) -> Result<cparser::TProgram, String> {
    let toks = rec
        .span("cparser.lex", || cparser::lex(src))
        .map_err(|e| e.to_string())?;
    let prog = rec
        .span("cparser.parse", || cparser::parse(&toks))
        .map_err(|e| e.to_string())?;
    rec.span("cparser.typecheck", || cparser::typecheck(&prog))
        .map_err(|e| e.to_string())
}

/// Replays every theorem of `out` (through the session's replay cache when
/// there is a session); every theorem must be checked.
fn replay(
    c: &mut Child,
    out: &Output,
    sess: Option<&Session>,
) -> Result<kernel::ReplayReport, String> {
    let workers = out.stats.workers;
    let rep = c
        .rec
        .span("kernel.replay", || match sess {
            Some(s) => s.check_all_report(out, workers),
            None => out.check_all_report(workers),
        })
        .map_err(|(f, e)| format!("replay failed in {f}: {e}"))?;
    if rep.checked != out.thms.len() {
        return Err(format!(
            "replayed {} of {} theorems",
            rep.checked,
            out.thms.len()
        ));
    }
    c.val("sum", "kernel.replay_nodes", rep.proof_nodes as f64);
    c.val("sum", "kernel.hits", rep.cache_hits as f64);
    let lookups = rep.cache_hits + rep.cache_misses;
    c.val("sum", "kernel.lookups", lookups as f64);
    Ok(rep)
}

/// Exports every theorem (refinement and guard discharge) as a `cert-v1`
/// certificate and re-admits it through the kernel, as `--emit-cert`
/// followed by `certcheck` does. Returns the certificate's theorem count.
fn cert_round_trip(c: &mut Child, out: &Output) -> Result<usize, String> {
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
    let roots: Vec<(&str, &kernel::Thm)> = labels.iter().map(|(l, t)| (l.as_str(), *t)).collect();
    let bytes = c.rec.span("cert.encode", || {
        kernel::cert::encode_cert(&out.check_ctx, &roots)
    });
    let rep = c
        .rec
        .span("cert.check", || kernel::cert::check_cert(&bytes))
        .map_err(|e| format!("certificate rejected: {e}"))?;
    if rep.roots.len() != roots.len() {
        return Err(format!(
            "certificate carries {} of {} theorems",
            rep.roots.len(),
            roots.len()
        ));
    }
    c.val("sum", "cert.bytes", bytes.len() as f64);
    Ok(roots.len())
}

/// `Session::translate_program` on a disk-backed session translates, then
/// saves the store. The pipeline reports its own wall time, so the save
/// is the rest of the call; it is recorded as a child span at its end.
fn translate_saving(
    c: &mut Child,
    sess: &Session,
    typed: &cparser::TProgram,
) -> Result<Output, String> {
    let t = Instant::now();
    let out = c
        .rec
        .span("pipeline.translate", || sess.translate_program(typed))
        .map_err(|d| d.to_string())?;
    let save = t.elapsed().saturating_sub(out.stats.total_wall);
    c.rec.tail_child("store.save", save.as_secs_f64() * 1e6);
    Ok(out)
}

/// Files and bytes under a cache directory.
fn note_store_size(c: &mut Child, dir: &Path) {
    fn walk(p: &Path, acc: &mut (u64, u64)) {
        let Ok(rd) = std::fs::read_dir(p) else { return };
        for e in rd.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path(), acc),
                Ok(m) => {
                    acc.0 += 1;
                    acc.1 += m.len();
                }
                Err(_) => {}
            }
        }
    }
    let mut acc = (0, 0);
    walk(dir, &mut acc);
    c.val("sum", "store.files", acc.0 as f64);
    c.val("sum", "store.bytes", acc.1 as f64);
}

/// Per-layer values the pipeline's own stats carry.
fn note_output(c: &mut Child, out: &Output) {
    let s = &out.stats;
    let absint = s.phases.iter().find(|p| p.name == "absint");
    c.val(
        "sum",
        "absint.busy_s",
        absint.map_or(0.0, |p| p.busy.as_secs_f64()),
    );
    c.val("sum", "absint.guards", s.guards_total as f64);
    c.val("sum", "absint.discharged", s.guards_discharged as f64);
    c.val("med", "pipeline.utilization", s.utilization());
    c.val("max", "pipeline.workers", s.workers as f64);
    c.val("med", "session.dirty_fns", s.dirty_fns as f64);
    c.val("sum", "session.cached", s.cached_nodes as f64);
    let jobs = out.wa.fns.len() * autocorres::PHASES.len();
    c.val("sum", "session.jobs", jobs as f64);
}

/// Records the counts that must not move between samples of one input,
/// and checks the output against its recorded digest.
fn note_counts(
    c: &mut Child,
    input: &str,
    out: &Output,
    rep: &kernel::ReplayReport,
) -> Result<(), String> {
    let digest = wa_digest(out);
    c.count("theorems", out.thms.len());
    c.count("proof_nodes", rep.proof_nodes);
    c.count("guards_total", out.stats.guards_total);
    c.count("guards_discharged", out.stats.guards_discharged);
    c.count("wa_digest", format!("{digest:#034x}"));
    check_digest(input, digest)
}

/// Reports `secs` as an operation if `check` passed, else the failure.
fn finish_op(c: &mut Child, check: Result<(), String>, secs: f64, fns: usize) {
    match check {
        Ok(()) => c.op(secs, fns),
        Err(e) => c.fail(&e),
    }
}

// ---- sel4_scratch ------------------------------------------------------------

/// One fresh process verifying the seL4-scale program from source to a
/// re-admitted certificate: parse, translate, replay, export, check.
fn scratch_sample(c: &mut Child) {
    let (input, src) = c.rec.span("setup", || sel4_source(c.args.smoke));
    c.setup_done();
    let opts = c.opts();
    let t = Instant::now();
    c.rec.open("op");
    let res = (|| {
        let typed = parse(&mut c.rec, &src)?;
        let out = c
            .rec
            .span("pipeline.translate", || {
                autocorres::translate_program(&typed, &opts)
            })
            .map_err(|d| d.to_string())?;
        let rep = replay(c, &out, None)?;
        let roots = cert_round_trip(c, &out)?;
        Ok::<_, String>((out, rep, roots))
    })();
    c.rec.close();
    let secs = t.elapsed().as_secs_f64();
    let (out, rep, roots) = match res {
        Ok(x) => x,
        Err(e) => return c.fail(&e),
    };
    c.rec.open("check");
    note_output(c, &out);
    let check = note_counts(c, input, &out, &rep);
    c.count("cert_roots", roots);
    let fns = out.wa.fns.len();
    drop(out);
    c.rec.close();
    finish_op(c, check, secs, fns);
}

// ---- sel4_edit ---------------------------------------------------------------

/// The program's functions in `k` equal strata of source position. An
/// edit re-verifies the edited function, its transitive callers and every
/// function after it in the file: source positions are part of each
/// function's digest, and an edit shifts everything below it. So the
/// position decides an edit's size (from a handful of functions to the
/// whole file), and an edit loop that draws one function per stratum sees
/// the same spread of sizes whatever the seed, which keeps its median
/// steady; uniform draws do not.
fn edit_strata(typed: &cparser::TProgram, k: usize) -> Result<Vec<Vec<String>>, String> {
    let n = typed.functions.len();
    if n < k {
        return Err(format!("{n} functions cannot fill {k} edit strata"));
    }
    Ok((0..k)
        .map(|i| {
            typed.functions[i * n / k..(i + 1) * n / k]
                .iter()
                .map(|f| f.name.clone())
                .collect()
        })
        .collect())
}

/// Replaces the body of `unsigned name(...)` with `{ return <k>u; }`.
fn edit_body(src: &str, name: &str, k: u32) -> Option<String> {
    let start = src.find(&format!("\nunsigned {name}("))?;
    let open = start + src[start..].find('{')?;
    let mut depth = 0usize;
    for (i, b) in src[open..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let close = open + i;
                    return Some(format!(
                        "{}{{ return {k}u; }}{}",
                        &src[..open],
                        &src[close + 1..]
                    ));
                }
            }
            _ => {}
        }
    }
    None
}

/// One long-lived session on the seL4-scale program: the initial
/// verification is set-up, then each edit replaces one function's body
/// with a fresh constant and re-verifies the whole file through the
/// session, as an editor integration would.
fn edit_session(c: &mut Child) {
    let k = edits_per_child(c.args.smoke);
    let opts = c.opts();
    c.rec.open("setup");
    let setup = (|| {
        let (_, src) = sel4_source(c.args.smoke);
        let typed = parse(&mut c.rec, &src)?;
        let strata = edit_strata(&typed, k)?;
        let sess = Session::new(opts);
        let out = c
            .rec
            .span("pipeline.translate", || sess.translate_program(&typed))
            .map_err(|d| d.to_string())?;
        replay(c, &out, Some(&sess))?;
        Ok::<_, String>((src, strata, sess, out.thms.len()))
    })();
    c.rec.close();
    let (mut src, strata, sess, theorems) = match setup {
        Ok(x) => x,
        Err(e) => return c.fail(&format!("setup: {e}")),
    };
    c.setup_done();
    let mut r = rng(c.args.seed, c.args.sample, "edit");
    let mut order: Vec<usize> = (0..strata.len()).collect();
    shuffle(&mut order, &mut r);
    let mem_cap_mb = 0.75 * proc_kb("/proc/meminfo", "MemTotal:") / 1024.0;
    for (done, &s) in order.iter().enumerate() {
        if proc_kb("/proc/self/status", "VmRSS:") / 1024.0 > mem_cap_mb {
            c.fail(&format!(
                "memory guard: resident set passed 75% of MemTotal after {done} edits"
            ));
            break;
        }
        let name = strata[s][r.gen_range(0..strata[s].len())].clone();
        let konst: u32 = r.gen_range(1_000_000..4_000_000_000);
        let Some(edited) = edit_body(&src, &name, konst) else {
            c.fail(&format!("no body of `{name}` to edit"));
            continue;
        };
        src = edited;
        let t = Instant::now();
        c.rec.open("op");
        let res = (|| {
            let typed = parse(&mut c.rec, &src)?;
            let out = c
                .rec
                .span("pipeline.translate", || sess.translate_program(&typed))
                .map_err(|d| d.to_string())?;
            replay(c, &out, Some(&sess))?;
            Ok::<_, String>(out)
        })();
        c.rec.close();
        let secs = t.elapsed().as_secs_f64();
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                c.fail(&e);
                continue;
            }
        };
        c.rec.open("check");
        let spec = out
            .wa
            .function(&name)
            .map(ToString::to_string)
            .unwrap_or_default();
        let check = if out.thms.len() != theorems {
            Err(format!(
                "edit of {name}: {} theorems, expected {theorems}",
                out.thms.len()
            ))
        } else if !spec.contains(&konst.to_string()) {
            Err(format!(
                "edit of {name}: the WA spec lacks the new constant:\n{spec}"
            ))
        } else {
            Ok(())
        };
        note_output(c, &out);
        c.val("max", "session.artifacts", sess.artifacts() as f64);
        c.count("theorems", out.thms.len());
        let fns = out.wa.fns.len();
        drop(out);
        c.rec.close();
        finish_op(c, check, secs, fns);
    }
    c.rec.span("teardown", || drop(sess));
}

// ---- sel4_disk ---------------------------------------------------------------

/// A cold, disk-backed verification filling an empty cache directory:
/// translate (and save), then replay (and save the replay digests). The
/// whole process is set-up for the warm starts that follow.
fn disk_cold(c: &mut Child) {
    let dir = c.cache_dir();
    let opts = Options {
        cache_dir: Some(dir.clone()),
        ..c.opts()
    };
    c.rec.open("setup");
    let res = (|| {
        let (input, src) = sel4_source(c.args.smoke);
        let typed = parse(&mut c.rec, &src)?;
        let sess = c.rec.span("store.open_load", || Session::new(opts));
        let out = translate_saving(c, &sess, &typed)?;
        let rep = replay(c, &out, Some(&sess))?;
        note_output(c, &out);
        note_counts(c, input, &out, &rep)
    })();
    note_store_size(c, &dir);
    c.rec.close();
    if let Err(e) = res {
        c.fail(&format!("cold run: {e}"));
    }
}

/// A fresh process warm-starting from the cold run's directory: load,
/// parse, translate (every job a store hit), replay.
fn disk_warm(c: &mut Child) {
    let (input, src) = c.rec.span("setup", || sel4_source(c.args.smoke));
    c.setup_done();
    let opts = Options {
        cache_dir: Some(c.cache_dir()),
        ..c.opts()
    };
    let t = Instant::now();
    c.rec.open("op");
    let res = (|| {
        let sess = c.rec.span("store.open_load", || Session::new(opts));
        let typed = parse(&mut c.rec, &src)?;
        let out = c
            .rec
            .span("pipeline.translate", || sess.translate_program(&typed))
            .map_err(|d| d.to_string())?;
        let rep = replay(c, &out, Some(&sess))?;
        Ok::<_, String>((sess, out, rep))
    })();
    c.rec.close();
    let secs = t.elapsed().as_secs_f64();
    let (sess, out, rep) = match res {
        Ok(x) => x,
        Err(e) => return c.fail(&e),
    };
    c.rec.open("check");
    let load = sess.load_report();
    c.val("sum", "store.artifacts_loaded", load.artifacts as f64);
    c.val("sum", "store.rejected", load.rejected as f64);
    let check = if load.rejected > 0 || load.artifacts == 0 {
        Err(format!(
            "warm start loaded {} artifacts and rejected {}",
            load.artifacts, load.rejected
        ))
    } else if out.stats.dirty_fns != 0 {
        Err(format!(
            "warm start recomputed {} functions",
            out.stats.dirty_fns
        ))
    } else {
        Ok(())
    };
    note_output(c, &out);
    let check = check.and(note_counts(c, input, &out, &rep));
    let fns = out.wa.fns.len();
    drop(out);
    drop(sess);
    c.rec.close();
    finish_op(c, check, secs, fns);
}

// ---- corpus_small ------------------------------------------------------------

enum Input {
    /// A C file; `fixed` ones have a recorded WA digest.
    File {
        name: String,
        src: String,
        fixed: bool,
    },
    /// A counterexample seed to play back.
    Cex { text: &'static str },
}

/// One child's share of the corpus: every fixed file, every checked-in
/// counterexample seed, and freshly seeded audit-mix programs of 5-60
/// functions, in a seeded order.
fn corpus_inputs(seed: u64, sample: usize, smoke: bool) -> Vec<Input> {
    let mut r = rng(seed, sample, "corpus");
    let mut inputs: Vec<Input> = fixed_files(smoke)
        .iter()
        .map(|(name, src)| Input::File {
            name: (*name).to_owned(),
            src: (*src).to_owned(),
            fixed: true,
        })
        .collect();
    inputs.extend(cex_seeds(smoke).iter().map(|text| Input::Cex { text }));
    for _ in 0..seeded_per_child(smoke) {
        let functions = r.gen_range(5..=60usize);
        let s: u64 = r.gen();
        let profile = codegen::Profile {
            name: "corpus",
            loc: 12 * functions,
            functions,
        };
        inputs.push(Input::File {
            name: format!("mix-{functions}-{s:016x}"),
            src: codegen::generate_mix(&profile, &codegen::Mix::audit(), s),
            fixed: false,
        });
    }
    shuffle(&mut inputs, &mut r);
    inputs
}

/// Plays a counterexample seed back, as `autocorres --playback` does.
fn play_back(c: &mut Child, text: &str) -> Result<(), String> {
    let pb = c
        .rec
        .span("counterexample.playback", || counterexample::playback(text))?;
    if pb.verdict_matches && pb.observed_matches {
        Ok(())
    } else {
        Err(format!(
            "seed for {} / {} no longer reproduces its verdict",
            pb.seed.function, pb.seed.vc
        ))
    }
}

/// Many small files, each translated and replayed in one process, plus
/// the counterexample playbacks.
fn corpus_sample(c: &mut Child) {
    let inputs = c.rec.span("setup", || {
        corpus_inputs(c.args.seed, c.args.sample, c.args.smoke)
    });
    c.setup_done();
    let opts = c.opts();
    for input in &inputs {
        let t = Instant::now();
        c.rec.open("op");
        match input {
            Input::Cex { text } => {
                let res = play_back(c, text);
                c.rec.close();
                let secs = t.elapsed().as_secs_f64();
                finish_op(c, res, secs, 0);
            }
            Input::File { name, src, fixed } => {
                let res = (|| {
                    let typed = parse(&mut c.rec, src)?;
                    let out = c
                        .rec
                        .span("pipeline.translate", || {
                            autocorres::translate_program(&typed, &opts)
                        })
                        .map_err(|d| format!("{name}: {d}"))?;
                    replay(c, &out, None).map_err(|e| format!("{name}: {e}"))?;
                    Ok::<_, String>(out)
                })();
                c.rec.close();
                let secs = t.elapsed().as_secs_f64();
                let out = match res {
                    Ok(out) => out,
                    Err(e) => {
                        c.fail(&e);
                        continue;
                    }
                };
                c.rec.open("check");
                let check = if *fixed {
                    check_reference(name, &out)
                } else {
                    Ok(())
                };
                note_output(c, &out);
                let fns = out.wa.fns.len();
                drop(out);
                c.rec.close();
                finish_op(c, check, secs, fns);
            }
        }
    }
}

// ---- the layer census (traced runs) ------------------------------------------

fn census_sources(workload: &str, smoke: bool) -> Vec<(&'static str, String)> {
    if workload == "corpus_small" {
        fixed_files(smoke)
            .iter()
            .map(|(n, s)| (*n, (*s).to_owned()))
            .collect()
    } else {
        vec![sel4_source(smoke)]
    }
}

/// The layer chain `cparser → simpl → L1 → L2 → HL → WA`, one public
/// entry point per layer, called in sequence. Returns the L1, L2 and HL
/// programs as printed, for comparison with the pipeline's.
fn chain(rec: &mut Recorder, typed: &cparser::TProgram, seed: u64) -> Result<[String; 3], String> {
    let sp = rec
        .span("simpl.translate", || simpl::translate_program(typed))
        .map_err(|d| d.to_string())?;
    let cx = kernel::CheckCtx {
        tenv: sp.tenv.clone(),
        ..kernel::CheckCtx::default()
    };
    let (l1ctx, _) = rec
        .span("l1", || autocorres::l1::l1_program(&cx, &sp))
        .map_err(|e| format!("l1: {e}"))?;
    let l2ctx = rec.span("l2.translate", || {
        let mut l2ctx = monadic::ProgramCtx {
            tenv: l1ctx.tenv.clone(),
            globals: l1ctx.globals.clone(),
            ..monadic::ProgramCtx::default()
        };
        for f in &typed.functions {
            let fun = autocorres::l2::l2_function(typed, f).map_err(|d| d.to_string())?;
            l2ctx.fns.insert(f.name.clone(), fun);
        }
        Ok::<_, String>(l2ctx)
    })?;
    rec.span("l2.exectest", || {
        let heap_types = autocorres::testing::heap_types_of(&l1ctx.tenv, &l1ctx);
        for f in &typed.functions {
            autocorres::l2::l2_fn_theorem(
                &cx,
                &l2ctx,
                &l1ctx,
                &heap_types,
                &f.name,
                L2_TRIALS,
                seed,
            )
            .map_err(|d| d.to_string())?;
        }
        Ok::<_, String>(())
    })?;
    let (hlctx, _) = rec
        .span("heapabs", || {
            heapabs::hl_program(&cx, &l2ctx, &heapabs::HlOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let wa_opts = wordabs::WaOptions {
        custom_trials: 1000,
        ..wordabs::WaOptions::default()
    };
    rec.span("wordabs", || wordabs::wa_program(&cx, &hlctx, &wa_opts))
        .map_err(|e| e.to_string())?;
    Ok([render(&l1ctx), render(&l2ctx), render(&hlctx)])
}

/// Census of one program: the pipeline at one worker in a disk-backed
/// session, whose wall time beyond its phases' busy time is the residual
/// (digests, batching, store lookups, assembly); replay; a certificate
/// round trip; a warm reload of the store; then the layer chain, which
/// must print the same L1/L2/HL as the pipeline (else it measured another
/// program).
fn census_program(c: &mut Child, input: &str, src: &str, dir: &Path) -> Result<(), String> {
    let opts = Options {
        workers: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..c.opts()
    };
    let typed = parse(&mut c.rec, src)?;
    let sess = c.rec.span("store.open_load", || Session::new(opts.clone()));
    let out = translate_saving(c, &sess, &typed)?;
    let busy: f64 = out.stats.phases.iter().map(|p| p.busy.as_secs_f64()).sum();
    c.val(
        "sum",
        "pipeline.residual_s",
        out.stats.total_wall.as_secs_f64() - busy,
    );
    replay(c, &out, Some(&sess))?;
    cert_round_trip(c, &out)?;
    check_reference(input, &out)?;
    drop(sess);
    note_store_size(c, dir);
    let warm = c.rec.span("store.open_load", || Session::new(opts.clone()));
    let load = warm.load_report();
    c.val("sum", "store.artifacts_loaded", load.artifacts as f64);
    c.val("sum", "store.rejected", load.rejected as f64);
    let wout = c
        .rec
        .span("pipeline.translate", || warm.translate_program(&typed))
        .map_err(|d| d.to_string())?;
    if wout.stats.dirty_fns != 0 || load.rejected != 0 {
        return Err(format!(
            "{input}: the reloaded store recomputed or rejected entries"
        ));
    }
    check_reference(input, &wout)?;
    drop((warm, wout));
    let chained = chain(&mut c.rec, &typed, opts.seed)?;
    for (level, mine, theirs) in [
        ("L1", &chained[0], &out.l1),
        ("L2", &chained[1], &out.l2),
        ("HL", &chained[2], &out.hl),
    ] {
        if *mine != render(theirs) {
            return Err(format!(
                "{input}: the layer chain's {level} differs from the pipeline's"
            ));
        }
    }
    Ok(())
}

/// Traced runs end with one census child: every layer the per-layer
/// metrics name is called on this workload's own input, so each metric is
/// measured on every workload.
fn census(c: &mut Child) {
    let base = c.cache_dir();
    let smoke = c.args.smoke;
    for (i, (input, src)) in census_sources(&c.args.workload, smoke)
        .into_iter()
        .enumerate()
    {
        let t = Instant::now();
        c.rec.open("census");
        let res = census_program(c, input, &src, &base.join(i.to_string()));
        c.rec.close();
        finish_op(c, res, t.elapsed().as_secs_f64(), 0);
    }
    for text in cex_seeds(smoke) {
        let t = Instant::now();
        c.rec.open("census");
        let res = play_back(c, text);
        c.rec.close();
        finish_op(c, res, t.elapsed().as_secs_f64(), 0);
    }
}
