//! Table 5: automatic abstraction in the large.
//!
//! For each code-base profile (synthetic stand-ins calibrated to the
//! paper's LoC/function counts — see `codegen` and DESIGN.md §4), the
//! harness reports:
//!
//! * LoC and function count,
//! * CPU time of the *parser* (C → Simpl) and of *AutoCorres* (L1 → WA),
//!   the latter both sequentially and on a worker pool — with a
//!   byte-identity check that scheduling never leaks into the output,
//! * wall time of the proof-checker replay, sequential and parallel,
//! * lines of specification and average term size for both outputs,
//! * the reduction percentages the paper's Sec 5.1 highlights
//!   (25–53 % fewer lines, 40–61 % smaller terms).
//!
//! Besides the stdout table the run writes `BENCH_table5.json` at the
//! workspace root with the raw numbers, including per-phase pool stats
//! (requested vs effective workers, busy/wall, utilization) and the
//! parallel wall time at each gated worker count.
//!
//! Every row is gated: parallel translation and parallel proof replay
//! must each cost at most [`PAR_OVERHEAD_GATE`]× sequential at every
//! [`GATE_WORKER_COUNTS`] entry, so a scheduler whose overhead makes
//! parallelism a pessimization fails the bench instead of silently
//! landing in the JSON.
//!
//! The two large profiles run once (they are minutes-scale workloads, like
//! the paper's 1443s/2368s seL4 row); Criterion measures the smaller ones.

use autocorres::{translate_program, Options, Output, PhaseStat, Session};
use bench::time_once;
use criterion::{criterion_group, criterion_main, Criterion};
use ir::metrics::SpecMetrics;
use ir::sched::host_cpus;
use std::fmt::Write as _;

/// Worker counts the overhead gate is measured at. All of them
/// oversubscribe a small host — which is the point: the adaptive planner
/// must size the pool down so a parallel request is never slower than
/// sequential by more than the gate, no matter what the caller asked for.
const GATE_WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// Parallel translation and replay may each cost at most this factor
/// over sequential at *every* measured worker count (the regression this
/// harness exists to catch ran at 2.16× on a 1-CPU host before the
/// adaptive planner).
const PAR_OVERHEAD_GATE: f64 = 1.05;

/// Absolute noise floor added to the gate bound: shared-container timing
/// jitter between *identical* code paths exceeds 5% at the
/// tens-of-milliseconds scale, so the multiplicative gate alone would be
/// flaky on the small rows. 30 ms is negligible against the seconds-scale
/// seL4 row the 2.16× regression actually bit, which stays tightly gated.
const GATE_NOISE_FLOOR_S: f64 = 0.030;

/// The gate bound for a given sequential time.
fn gate_bound(t_seq: f64) -> f64 {
    PAR_OVERHEAD_GATE * t_seq + GATE_NOISE_FLOOR_S
}

/// The overhead gate for one parallel path (`what`): at every entry of
/// `counts` the best of up to three `par(workers)` samples must land
/// within [`gate_bound`] of `t_seq`, which each failing round refines with
/// a fresh `seq()` sample — one timing is noisy on the millisecond-scale
/// rows, so one lucky or unlucky sample on either side can't decide the
/// gate. Returns the best parallel time per worker count.
fn overhead_gate(
    row: &str,
    what: &str,
    counts: &[usize],
    t_seq: &mut f64,
    mut seq: impl FnMut() -> f64,
    mut par: impl FnMut(usize) -> f64,
) -> Vec<(usize, f64)> {
    counts
        .iter()
        .map(|&w| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                best = best.min(par(w));
                if best <= gate_bound(*t_seq) {
                    break;
                }
                *t_seq = t_seq.min(seq());
            }
            assert!(
                best <= gate_bound(*t_seq),
                "{row}: parallel {what} overhead gate failed at workers={w} \
                 (par {best:.3}s vs seq {:.3}s, gate {PAR_OVERHEAD_GATE}× + {GATE_NOISE_FLOOR_S}s)",
                *t_seq
            );
            (w, best)
        })
        .collect()
}

struct RowOut {
    name: &'static str,
    loc: usize,
    functions: usize,
    parser_s: f64,
    ac_seq_s: f64,
    ac_par_s: f64,
    replay_seq_s: f64,
    replay_par_s: f64,
    theorems: usize,
    proof_nodes: usize,
    parser_m: SpecMetrics,
    ac_m: SpecMetrics,
    /// Hash-consing wins during this row's parse + sequential translation:
    /// term nodes requested per node allocated (1.0 = no sharing).
    term_dedup_ratio: f64,
    /// Shared-node replay-cache counters of the parallel replay.
    replay_cache_hits: u64,
    replay_cache_misses: u64,
    /// Wall time of re-translating after editing one function through a
    /// warm [`Session`] (milliseconds).
    incremental_retranslate_ms: f64,
    /// From-scratch wall time of the same edited program (milliseconds),
    /// at the same worker count — the incremental run's baseline.
    scratch_retranslate_ms: f64,
    /// Functions the edit actually dirtied (the edited function plus its
    /// transitive callers in the exec-testing phases).
    dirty_cone_fns: usize,
    /// Wall time of a disk-backed *cold* start (empty cache directory:
    /// full translation plus the artifact write-back), milliseconds.
    cold_start_ms: f64,
    /// Wall time of a *fresh session* warm-starting from that directory
    /// alone (load included), milliseconds. Gated at ≤25% of cold on the
    /// seL4-scale row.
    warm_start_ms: f64,
    /// Parallel translation wall time at each [`GATE_WORKER_COUNTS`]
    /// entry (best of the gate's retry budget).
    par_by_workers: Vec<(usize, f64)>,
    /// Per-phase scheduler observability of the recorded parallel run:
    /// requested vs effective workers and busy/wall occupancy.
    phase_stats: Vec<PhaseStat>,
    /// Guards the abstract-interpretation phase saw on reachable paths.
    vc_count_total: usize,
    /// Guards proved statically (each backed by an `absint_discharge`
    /// theorem; no solver work needed).
    vc_discharged_static: usize,
    /// Wall time of the absint phase in the recorded parallel run.
    absint_ms: f64,
}

/// Edits one function of the generated source: the *last* generated
/// `fn_N` gets its body replaced (callees only ever have lower indices, so
/// the edit's caller cone is just the function itself — the leaf-edit
/// scenario an incremental session is built for). Sources without a
/// generated `fn_N` (Schorr-Waite) are returned unchanged, making the
/// "incremental" run a pure cache-validation pass.
fn edit_one_fn(src: &str) -> String {
    let Some(pos) = src.rfind("\nunsigned fn_") else {
        return src.to_owned();
    };
    let Some(open) = src[pos..].find('{') else {
        return src.to_owned();
    };
    format!("{}{{ return 42u; }}\n", &src[..pos + open])
}

fn pool_workers() -> usize {
    host_cpus().clamp(4, 16)
}

/// Whether wall-clock speedups from the worker pool are meaningful on this
/// host: a pool can only time-slice on fewer than 4 real cores, so sub-1.0
/// "speedups" there say nothing about the pipeline (the ≥2x assertion is
/// gated on the same predicate).
fn parallel_meaningful() -> bool {
    host_cpus() >= 4
}

/// Everything scheduling could corrupt, rendered to one string: all four
/// levels' specs, every theorem (rule, proof size, and the recorded
/// testing seed), the metrics, and the deterministic stat counts.
fn fingerprint(out: &Output) -> String {
    let mut s = verdict_fingerprint(out);
    s.push_str(&out.stats.deterministic_summary());
    s
}

/// The translation verdicts alone — specs, refinement theorems, metrics —
/// *excluding* the stats summary. The absint on/off gate compares this:
/// the phase may only add its own report (which shows in the summary's
/// `absint` row by design), never change a spec or theorem.
fn verdict_fingerprint(out: &Output) -> String {
    let mut s = String::new();
    for ctx_fns in [&out.l1.fns, &out.hl.fns, &out.wa.fns] {
        for (name, f) in ctx_fns {
            let _ = writeln!(s, "{name}\n{f}");
        }
    }
    for (name, f) in &out.l2.fns {
        let _ = writeln!(s, "{name}\n{f}");
    }
    for (phase, name, thm) in out.thms.iter() {
        let _ = writeln!(s, "{phase} {name} {thm} {:?}", thm.side());
    }
    let _ = writeln!(
        s,
        "{:?} {:?} {}",
        out.parser_metrics(),
        out.output_metrics(),
        out.total_proof_size()
    );
    s
}

/// Hit/miss deltas of both interners (`Expr` + `Prog`) combined.
fn intern_stats_now() -> ir::intern::InternStats {
    let e = ir::intern::expr_stats();
    let p = monadic::prog::intern_stats();
    ir::intern::InternStats {
        hits: e.hits + p.hits,
        misses: e.misses + p.misses,
    }
}

fn run_profile(p: &codegen::Profile, seed: u64) -> RowOut {
    let src = if p.name == "Schorr-Waite" {
        casestudies::sources::SCHORR_WAITE.to_owned()
    } else {
        codegen::generate(p, seed)
    };
    let loc = src.lines().filter(|l| !l.trim().is_empty()).count();
    let intern0 = intern_stats_now();
    // Parser: C → typed AST → Simpl (the trusted front end).
    let (typed, t_parse) = time_once(|| cparser::parse_and_check(&src).unwrap());
    let (simpl_only, t_simpl) = time_once(|| simpl::translate_program(&typed).unwrap());
    // AutoCorres: the verified phases. A small differential-testing budget
    // keeps the one-off cost proportional (the paper also reports one-off
    // CPU time; translations are cached and reused).
    let seq_opts = Options {
        l2_trials: 2,
        seed,
        workers: 1,
        ..Options::default()
    };
    let (seq, mut t_seq) = time_once(|| translate_program(&typed, &seq_opts).unwrap());
    // Term sharing over this row's parse + sequential translation (the
    // parallel re-run would re-request the same nodes and inflate the hit
    // count, so it is excluded).
    let dedup = intern_stats_now().since(&intern0).dedup_ratio();
    let seq_fp = fingerprint(&seq);
    // Absint on/off gate: disabling the phase may only empty the
    // discharge/lint report — every spec and every refinement theorem
    // must stay byte-identical (the phase is purely observational).
    let off_opts = Options {
        no_absint: true,
        ..seq_opts.clone()
    };
    let (off, _) = time_once(|| translate_program(&typed, &off_opts).unwrap());
    assert_eq!(
        verdict_fingerprint(&seq),
        verdict_fingerprint(&off),
        "{}: verdicts diverge with absint disabled",
        p.name
    );
    assert_eq!(
        off.stats.guards_total, 0,
        "{}: --no-absint must empty the discharge report",
        p.name
    );
    // The overhead gate (see `overhead_gate`): the adaptive planner
    // shrinks the pool on small hosts, so the parallel path *is*
    // near-sequential there.
    let par_by_workers = overhead_gate(
        p.name,
        "translation",
        &GATE_WORKER_COUNTS,
        &mut t_seq,
        || {
            let (out, t) = time_once(|| translate_program(&typed, &seq_opts).unwrap());
            assert_eq!(seq_fp, fingerprint(&out), "{}: seq retry diverges", p.name);
            t
        },
        |w| {
            let o = Options {
                workers: w,
                ..seq_opts.clone()
            };
            let (out, t) = time_once(|| translate_program(&typed, &o).unwrap());
            assert_eq!(
                seq_fp,
                fingerprint(&out),
                "{}: workers={w} diverges from sequential",
                p.name
            );
            t
        },
    );
    let workers = pool_workers();
    let par_opts = Options {
        workers,
        ..seq_opts.clone()
    };
    // The parallel run doubles as the warm-up of an incremental session:
    // a fresh session's first translation is exactly a from-scratch run.
    let sess = Session::new(par_opts.clone());
    let (par, mut t_par) = time_once(|| sess.translate_program(&typed).unwrap());
    assert_eq!(
        seq_fp,
        fingerprint(&par),
        "{}: parallel translation diverges from sequential",
        p.name
    );
    // The recorded `autocorres_par_s` must satisfy the same gate as the
    // per-worker sweep; give a noisy first sample the same best-of-3
    // retry (fresh from-scratch runs, so the session store can't help).
    for _ in 0..2 {
        if t_par <= gate_bound(t_seq) {
            break;
        }
        let (out, t) = time_once(|| translate_program(&typed, &par_opts).unwrap());
        assert_eq!(seq_fp, fingerprint(&out), "{}: retry diverges", p.name);
        t_par = t_par.min(t);
        let (out, t) = time_once(|| translate_program(&typed, &seq_opts).unwrap());
        assert_eq!(seq_fp, fingerprint(&out), "{}: seq retry diverges", p.name);
        t_seq = t_seq.min(t);
    }
    assert!(
        t_par <= gate_bound(t_seq),
        "{}: parallel overhead gate failed at workers={workers} \
         (par {t_par:.3}s vs seq {t_seq:.3}s, gate {PAR_OVERHEAD_GATE}× + {GATE_NOISE_FLOOR_S}s)",
        p.name
    );
    // Incremental: edit one function and move every function down a line,
    // re-translate through the warm session, and byte-compare against a
    // from-scratch run of the edited program at the same worker count.
    // Function digests are position-free, so only the edit re-runs.
    let edited_fn = edit_one_fn(&src);
    let edits = usize::from(edited_fn != src);
    let edited_src = format!("/* edited below */\n{edited_fn}");
    let edited = cparser::parse_and_check(&edited_src).unwrap();
    let (incr, t_incr) = time_once(|| sess.translate_program(&edited).unwrap());
    let (scratch, t_scratch) = time_once(|| translate_program(&edited, &par_opts).unwrap());
    assert_eq!(
        fingerprint(&incr),
        fingerprint(&scratch),
        "{}: incremental translation diverges from scratch",
        p.name
    );
    assert_eq!(
        incr.stats.dirty_fns, edits,
        "{}: the shifted lines re-ran more than the edited function",
        p.name
    );
    // Simpl is translated inside the `l1` jobs, so only the edited
    // function's `l1` job (and Simpl translation) ran.
    let l1 = incr.stats.phases.iter().find(|s| s.name == "l1");
    assert_eq!(
        l1.map(|s| s.cached),
        Some(incr.wa.fns.len() - edits),
        "{}: the edit re-translated more than the edited function",
        p.name
    );
    // Replay joins the overhead gate, measured at the recorded pool width
    // too; both recorded replay times are the gate's own samples. Each
    // `check_all_report` starts from an empty replay cache, so every
    // sample does equal work.
    let (replay_seq, mut t_replay_seq) = time_once(|| seq.check_all_report(1).unwrap());
    assert_eq!(replay_seq.proof_nodes, seq.total_proof_size());
    let mut replay_counts = GATE_WORKER_COUNTS.to_vec();
    if !replay_counts.contains(&workers) {
        replay_counts.push(workers);
    }
    let mut replay_par = None;
    let replay_by_workers = overhead_gate(
        p.name,
        "replay",
        &replay_counts,
        &mut t_replay_seq,
        || time_once(|| seq.check_all_report(1).unwrap()).1,
        |w| {
            let (rep, t) = time_once(|| par.check_all_report(w).unwrap());
            assert_eq!(
                (rep.checked, rep.proof_nodes),
                (replay_seq.checked, replay_seq.proof_nodes),
                "{}: replay at workers={w} diverges from sequential",
                p.name
            );
            if w == workers {
                replay_par = Some(rep);
            }
            t
        },
    );
    let replay_par = replay_par.expect("the pool width is among the replay gate counts");
    let t_replay_par = replay_by_workers
        .iter()
        .find_map(|&(w, t)| (w == workers).then_some(t))
        .expect("the pool width is among the replay gate counts");
    let mut row = RowOut {
        name: p.name,
        loc,
        functions: par.wa.fns.len(),
        parser_s: t_parse + t_simpl,
        ac_seq_s: t_seq,
        ac_par_s: t_par,
        replay_seq_s: t_replay_seq,
        replay_par_s: t_replay_par,
        theorems: par.thms.len(),
        proof_nodes: replay_par.proof_nodes,
        parser_m: par.parser_metrics(),
        ac_m: par.output_metrics(),
        term_dedup_ratio: dedup,
        replay_cache_hits: replay_par.cache_hits,
        replay_cache_misses: replay_par.cache_misses,
        incremental_retranslate_ms: t_incr * 1000.0,
        scratch_retranslate_ms: t_scratch * 1000.0,
        dirty_cone_fns: incr.stats.dirty_fns,
        cold_start_ms: 0.0,
        warm_start_ms: 0.0,
        par_by_workers,
        phase_stats: par.stats.phases.clone(),
        vc_count_total: par.stats.guards_total,
        vc_discharged_static: par.stats.guards_discharged,
        absint_ms: par
            .stats
            .phases
            .iter()
            .find(|s| s.name == "absint")
            .map_or(0.0, |s| s.wall.as_secs_f64() * 1000.0),
    };
    // Disk-backed persistence (DESIGN.md §6g): a cold run persists its
    // artifacts, then a *fresh session* — sharing nothing in memory, the
    // in-process stand-in for the fresh process that
    // tests/persistence.rs spawns for real — must rebuild byte-identical
    // output from the directory alone. Both timings include the
    // session's own open/load/save work. Terms and theorems are
    // hash-consed, so a live output would share its nodes with what the
    // cold run constructs and the warm start loads: every earlier output
    // is dropped first.
    drop((simpl_only, seq, off, par, sess, incr, scratch));
    let cache_dir = std::env::temp_dir().join(format!(
        "acr-bench-store-{}-{}",
        std::process::id(),
        p.name.replace(' ', "-")
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let disk_opts = Options {
        cache_dir: Some(cache_dir.clone()),
        ..par_opts.clone()
    };
    let (cold_out, t_cold) = time_once(|| {
        let s = Session::new(disk_opts.clone());
        assert_eq!(s.load_report().artifacts, 0, "{}: cold run loaded artifacts", p.name);
        s.translate_program(&typed).unwrap()
    });
    assert_eq!(seq_fp, fingerprint(&cold_out), "{}: disk cold run diverges", p.name);
    // A fresh process carries none of the cold run's heap. Holding the
    // cold output alive while the warm load re-allocates an equal-sized
    // working set times allocator growth (seconds of page faults at
    // seL4 scale), not the store — drop it so the in-process stand-in
    // matches the fresh processes tests/persistence.rs spawns for real.
    drop(cold_out);
    let (warm_out, t_warm) = time_once(|| {
        let s = Session::new(disk_opts.clone());
        assert_eq!(s.load_report().rejected, 0, "{}: clean store rejected entries", p.name);
        assert!(s.load_report().artifacts > 0, "{}: warm run loaded nothing", p.name);
        s.translate_program(&typed).unwrap()
    });
    assert_eq!(seq_fp, fingerprint(&warm_out), "{}: warm start diverges", p.name);
    assert_eq!(warm_out.stats.dirty_fns, 0, "{}: warm start recomputed", p.name);
    let _ = std::fs::remove_dir_all(&cache_dir);
    row.cold_start_ms = t_cold * 1000.0;
    row.warm_start_ms = t_warm * 1000.0;
    row
}

fn print_row(r: &RowOut) {
    let line_red = 100.0 * (1.0 - r.ac_m.lines as f64 / r.parser_m.lines.max(1) as f64);
    let term_red = 100.0 * (1.0 - r.ac_m.term_size as f64 / r.parser_m.term_size.max(1) as f64);
    let cache_total = r.replay_cache_hits + r.replay_cache_misses;
    let cache_pct = if cache_total == 0 {
        0.0
    } else {
        100.0 * r.replay_cache_hits as f64 / cache_total as f64
    };
    println!(
        "{:<16} {:>6} {:>5} | {:>8.3}s {:>8.3}s {:>8.3}s {:>5.2}x | {:>7} {:>7} ({:>4.1}%) | {:>8} {:>8} ({:>4.1}%) | {:>5.2}x {:>5.1}%",
        r.name,
        r.loc,
        r.functions,
        r.parser_s,
        r.ac_seq_s,
        r.ac_par_s,
        r.ac_seq_s / r.ac_par_s.max(1e-9),
        r.parser_m.lines,
        r.ac_m.lines,
        line_red,
        r.parser_m.term_size / r.functions.max(1),
        r.ac_m.term_size / r.functions.max(1),
        term_red,
        r.term_dedup_ratio,
        cache_pct,
    );
    println!(
        "{:<16} incremental edit-one-fn: {:.1}ms vs {:.1}ms from scratch ({:.1}%), dirty cone {} fn(s)",
        "",
        r.incremental_retranslate_ms,
        r.scratch_retranslate_ms,
        100.0 * r.incremental_retranslate_ms / r.scratch_retranslate_ms.max(1e-9),
        r.dirty_cone_fns,
    );
    let scratch_ms = (r.ac_par_s * 1000.0).max(1e-9);
    println!(
        "{:<16} disk store: cold {:.1}ms ({:.2}x scratch), warm start {:.1}ms ({:.2}x scratch)",
        "",
        r.cold_start_ms,
        r.cold_start_ms / scratch_ms,
        r.warm_start_ms,
        r.warm_start_ms / scratch_ms,
    );
    let gate: Vec<String> = r
        .par_by_workers
        .iter()
        .map(|(w, t)| format!("w={w}: {:.2}x", t / r.ac_seq_s.max(1e-9)))
        .collect();
    println!(
        "{:<16} overhead gate (par/seq, ≤{PAR_OVERHEAD_GATE}x): {}",
        "",
        gate.join(", ")
    );
    println!(
        "{:<16} guards: {} total, {} discharged statically ({:.1}%), absint {:.1}ms",
        "",
        r.vc_count_total,
        r.vc_discharged_static,
        100.0 * r.vc_discharged_static as f64 / r.vc_count_total.max(1) as f64,
        r.absint_ms,
    );
}

fn json_row(r: &RowOut) -> String {
    let par_by_workers = r
        .par_by_workers
        .iter()
        .map(|(w, t)| format!("\"{w}\": {t:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let phase_stats = r
        .phase_stats
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"phase\": \"{}\", \"busy_s\": {:.4}, \"wall_s\": {:.4}, ",
                    "\"requested_workers\": {}, \"effective_workers\": {}, ",
                    "\"utilization\": {:.3}}}"
                ),
                p.name,
                p.busy.as_secs_f64(),
                p.wall.as_secs_f64(),
                p.requested,
                p.workers,
                p.utilization(),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"loc\": {}, \"functions\": {}, ",
            "\"parser_s\": {:.4}, \"autocorres_seq_s\": {:.4}, \"autocorres_par_s\": {:.4}, ",
            "\"speedup\": {:.3}, \"host_cpus\": {}, \"parallel_meaningful\": {}, ",
            "\"replay_seq_s\": {:.4}, \"replay_par_s\": {:.4}, ",
            "\"theorems\": {}, \"proof_nodes\": {}, ",
            "\"term_dedup_ratio\": {:.3}, ",
            "\"replay_cache_hits\": {}, \"replay_cache_misses\": {}, ",
            "\"incremental_retranslate_ms\": {:.2}, \"scratch_retranslate_ms\": {:.2}, ",
            "\"dirty_cone_fns\": {}, ",
            "\"cold_start_ms\": {:.2}, \"warm_start_ms\": {:.2}, ",
            "\"vc_count_total\": {}, \"vc_discharged_static\": {}, \"absint_ms\": {:.2}, ",
            "\"autocorres_par_s_by_workers\": {{{}}}, ",
            "\"phase_pool_stats\": [{}], ",
            "\"spec_lines_parser\": {}, \"spec_lines_autocorres\": {}, ",
            "\"term_size_parser\": {}, \"term_size_autocorres\": {}}}"
        ),
        r.name,
        r.loc,
        r.functions,
        r.parser_s,
        r.ac_seq_s,
        r.ac_par_s,
        r.ac_seq_s / r.ac_par_s.max(1e-9),
        host_cpus(),
        parallel_meaningful(),
        r.replay_seq_s,
        r.replay_par_s,
        r.theorems,
        r.proof_nodes,
        r.term_dedup_ratio,
        r.replay_cache_hits,
        r.replay_cache_misses,
        r.incremental_retranslate_ms,
        r.scratch_retranslate_ms,
        r.dirty_cone_fns,
        r.cold_start_ms,
        r.warm_start_ms,
        r.vc_count_total,
        r.vc_discharged_static,
        r.absint_ms,
        par_by_workers,
        phase_stats,
        r.parser_m.lines,
        r.ac_m.lines,
        r.parser_m.term_size,
        r.ac_m.term_size,
    )
}

/// Optional row filter from `TABLE5_ROWS` (comma-separated, case-blind
/// substrings of row names). Used by `scripts/tier1.sh --quick` to smoke
/// the small rows without the minutes-scale seL4 run; a filtered run
/// writes `BENCH_table5.quick.json` so the full committed JSON survives.
fn row_filter() -> Option<Vec<String>> {
    let spec = std::env::var("TABLE5_ROWS").ok()?;
    let pats: Vec<String> = spec
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    (!pats.is_empty()).then_some(pats)
}

/// The workspace root (this crate lives at `crates/bench`).
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Corpus replay gate: every checked-in counterexample seed must replay
/// to a byte-identical re-derived seed and trace with absint on vs off —
/// the phase can never perturb counterexample extraction.
fn corpus_absint_gate() {
    let dir = workspace_root().join("tests/corpus");
    let render = |pb: &counterexample::Playback| -> String {
        match &pb.cex {
            Some(c) => format!(
                "{}\n{}",
                counterexample::Seed::from_cex(c, &pb.seed.spec, &pb.seed.source).render(),
                c.trace
            ),
            None => format!("no-cex {}", pb.seed.describe_input()),
        }
    };
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .collect();
    entries.sort();
    for path in entries {
        // Only `cex-*.seed` files are playback seeds; `seed-*.seed` entries
        // belong to the pipeline-fuzz corpus and use a different format.
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("cex-") || path.extension().and_then(|e| e.to_str()) != Some("seed") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("seed readable");
        let on = counterexample::playback(&text).expect("seed replays");
        let off = counterexample::playback_with(
            &text,
            &Options {
                no_absint: true,
                ..Options::default()
            },
        )
        .expect("seed replays with absint off");
        assert_eq!(
            render(&on),
            render(&off),
            "{}: replay diverges with absint disabled",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "corpus gate found no seeds in {}", dir.display());
    println!("corpus absint on/off gate: {checked} seed(s) byte-identical");
}

fn bench(c: &mut Criterion) {
    let workers = pool_workers();
    corpus_absint_gate();
    println!("Table 5 — comparison of C parser output and AutoCorres output");
    println!("(AutoCorres timed sequentially and on {workers} workers; outputs byte-identical)");
    println!(
        "{:<16} {:>6} {:>5} | {:>9} {:>8} {:>9} {:>5} | {:>24} | {:>24}",
        "Program",
        "LoC",
        "Fns",
        "parser",
        "AC seq",
        "AC par",
        "spd",
        "lines of spec (reduction)",
        "avg term size (reduction)"
    );
    println!("{:-<130}", "");
    let filter = row_filter();
    let mut rows = Vec::new();
    for p in codegen::TABLE5 {
        if let Some(pats) = &filter {
            let name = p.name.to_ascii_lowercase();
            if !pats.iter().any(|pat| name.contains(pat)) {
                continue;
            }
        }
        let r = run_profile(p, 0xAC);
        print_row(&r);
        // The line reduction is driven by eliminating per-statement
        // plumbing across many functions; for a tiny single-function
        // profile the fixed do/od scaffolding dominates, so allow
        // near-parity there (the paper's per-program reductions likewise
        // vary with program size).
        let line_slack = if p.functions <= 2 { 3 } else { 0 };
        assert!(
            r.ac_m.lines <= r.parser_m.lines + line_slack,
            "{}: output must not be larger ({} vs {})",
            r.name,
            r.ac_m.lines,
            r.parser_m.lines
        );
        assert!(
            r.ac_m.term_size < r.parser_m.term_size,
            "{}: terms must be smaller",
            r.name
        );
        // The scalability claim the parallel pipeline exists for: on the
        // big many-function workloads the pool must pay for itself. A
        // wall-clock speedup needs real cores — on a 1-CPU host the pool
        // can only time-slice, so the assertion is hardware-gated (the raw
        // numbers still land in the JSON either way).
        // The incremental claim the session store exists for: editing one
        // function of a seL4-scale code base must re-translate in ≤25% of
        // the from-scratch wall time (the dirty cone is a leaf edit, so
        // nearly every per-function job is answered from the store).
        // Wall-clock ratio, so no core-count gate is needed.
        if r.functions >= 500 {
            assert!(
                r.incremental_retranslate_ms <= 0.25 * r.scratch_retranslate_ms,
                "{}: incremental re-translation must be ≤25% of scratch \
                 ({:.1}ms vs {:.1}ms)",
                r.name,
                r.incremental_retranslate_ms,
                r.scratch_retranslate_ms
            );
        }
        // The persistence claim the disk store exists for, measured
        // against the row's in-memory scratch translation
        // (`autocorres_par_s`) so that a cheaper cold run cannot fail the
        // warm-start bar: a cold disk-backed run (translate, then save)
        // costs at most 3× it, and a fresh session warm-starting from the
        // directory alone at most 0.75× it. Wall-clock ratios, so no
        // core-count gate is needed.
        if r.functions >= 500 {
            let scratch_ms = r.ac_par_s * 1000.0;
            assert!(
                r.cold_start_ms <= 3.0 * scratch_ms,
                "{}: disk cold run must be ≤3× scratch ({:.1}ms vs {:.1}ms)",
                r.name,
                r.cold_start_ms,
                scratch_ms
            );
            assert!(
                r.warm_start_ms <= 0.75 * scratch_ms,
                "{}: disk warm start must be ≤0.75× scratch ({:.1}ms vs {:.1}ms)",
                r.name,
                r.warm_start_ms,
                scratch_ms
            );
        }
        // The discharge claim the absint phase exists for: on the
        // seL4-scale row, at least 40% of guard VCs must be proved
        // statically (ISSUE-8's acceptance bar), each backed by a
        // kernel-replayed theorem.
        if r.functions >= 500 {
            let pct = 100.0 * r.vc_discharged_static as f64 / r.vc_count_total.max(1) as f64;
            assert!(
                pct >= 40.0,
                "{}: static discharge below the 40% bar ({}/{} = {:.1}%)",
                r.name,
                r.vc_discharged_static,
                r.vc_count_total,
                pct
            );
        }
        if r.functions >= 500 {
            let speedup = r.ac_seq_s / r.ac_par_s.max(1e-9);
            if host_cpus() >= 4 {
                assert!(
                    speedup >= 2.0,
                    "{}: parallel translation must be ≥2x faster (seq {:.2}s, par {:.2}s)",
                    r.name,
                    r.ac_seq_s,
                    r.ac_par_s
                );
            } else {
                println!(
                    "  [note: host has {} CPU(s); {:.2}x recorded, ≥2x speedup assertion \
                     needs ≥4 cores and was skipped]",
                    host_cpus(),
                    speedup
                );
            }
        }
        rows.push(json_row(&r));
    }
    println!("{:-<130}", "");

    let json = format!(
        "{{\n  \"table\": \"table5\",\n  \"workers\": {},\n  \"host_cpus\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        workers,
        host_cpus(),
        rows.join(",\n")
    );
    assert!(!rows.is_empty(), "TABLE5_ROWS matched no profile");
    let out_name = if filter.is_some() {
        "BENCH_table5.quick.json"
    } else {
        "BENCH_table5.json"
    };
    let path = workspace_root().join(out_name);
    std::fs::write(&path, json).expect("write table 5 JSON");
    println!("wrote {}", path.display());

    if filter.is_some() {
        // Smoke mode: the row runs above already regenerated the dedup and
        // replay-cache stats (and would have panicked on any regression);
        // skip the minutes-scale Criterion micro-benchmarks.
        return;
    }

    let echronos = &codegen::TABLE5[3];
    let src = codegen::generate(echronos, 0xAC);
    let typed = cparser::parse_and_check(&src).unwrap();
    c.bench_function("table5/parser_echronos", |b| {
        b.iter(|| std::hint::black_box(simpl::translate_program(&typed).unwrap()));
    });
    let opts = Options {
        l2_trials: 2,
        seed: 0xAC,
        ..Options::default()
    };
    c.bench_function("table5/autocorres_echronos", |b| {
        b.iter(|| std::hint::black_box(translate_program(&typed, &opts).unwrap()));
    });
    let par_opts = Options {
        workers,
        ..opts.clone()
    };
    c.bench_function("table5/autocorres_echronos_parallel", |b| {
        b.iter(|| std::hint::black_box(translate_program(&typed, &par_opts).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
