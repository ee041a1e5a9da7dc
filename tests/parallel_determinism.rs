//! Parallel translation is bit-for-bit deterministic: for a fixed seed, the
//! pipeline output — pretty-printed specs at every level, theorem
//! statements, metrics, per-function stat counts — is byte-identical
//! whether translated sequentially (workers = 1) or on a pool (2, 8
//! workers). This is the contract that makes the parallel pipeline safe to
//! use for proof artefacts: scheduling must never leak into the output.

use autocorres::{translate, translate_program, Options, Output, Session};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Everything a consumer can observe of the output, rendered to text:
/// specs of every level, every theorem statement (which embeds guard lists
/// and the recorded test seed), the Table 5 metrics, and the deterministic
/// part of the pipeline stats.
fn render(out: &Output) -> String {
    let mut s = String::new();
    for (level, ctx) in [
        ("l1", &out.l1),
        ("l2", &out.l2),
        ("hl", &out.hl),
        ("wa", &out.wa),
    ] {
        for (name, f) in &ctx.fns {
            let _ = writeln!(s, "=== {level} {name} ===\n{f}");
        }
    }
    for (phase, name, thm) in out.thms.iter() {
        // Debug includes the full derivation tree — rules, premises, and
        // the recorded `Side::Tested` seeds — so scheduling-dependent seed
        // derivation would show up as a byte difference.
        let _ = writeln!(s, "--- thm {phase} {name} ---\n{thm}\n{thm:?}");
    }
    let _ = writeln!(s, "parser metrics: {:?}", out.parser_metrics());
    let _ = writeln!(s, "output metrics: {:?}", out.output_metrics());
    let _ = writeln!(s, "proof size: {}", out.total_proof_size());
    s.push_str(&out.stats.deterministic_summary());
    s
}

fn translate_with(src: &str, seed: u64, workers: usize, concrete: &[&str]) -> Output {
    let opts = Options {
        l2_trials: 12,
        seed,
        workers,
        // Bypass the adaptive sequential fast path: on a small host the
        // planner would collapse every run to one worker and this suite
        // would never exercise the work-stealing pool it exists to test.
        force_pool: workers > 1,
        concrete_fns: concrete.iter().map(|s| (*s).to_owned()).collect(),
        ..Options::default()
    };
    translate(src, &opts).unwrap_or_else(|e| panic!("workers={workers} seed={seed}: {e}"))
}

/// A two-function program whose concrete-kept caller forces the
/// `adapt_concrete_callers` path (call-site lifting + adaptation theorem).
const MIXED_CALLER: &str = "unsigned inc(unsigned x) { return x + 1u; }\n\
     unsigned twice(unsigned x) { return inc(inc(x)); }\n";

/// One function of `n` straight-line statements: the phases recurse on
/// the resulting statement chain, so a pool worker needs as much stack as
/// the thread that runs the same job inline.
fn straight_line(n: usize) -> String {
    let mut s = String::from("unsigned straight(unsigned x) {\n    unsigned r = x;\n");
    for k in 0..n {
        let _ = writeln!(s, "    r = r ^ {}u;", k + 1);
    }
    s.push_str("    return r;\n}\n");
    s
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let straight = straight_line(60);
    let cases: &[(&str, &str, &[&str])] = &[
        ("max", casestudies::sources::MAX, &[]),
        ("gcd", casestudies::sources::GCD, &[]),
        ("midpoint", casestudies::sources::MIDPOINT, &[]),
        ("swap", casestudies::sources::SWAP, &[]),
        ("mixed_caller", MIXED_CALLER, &["twice"]),
        ("straight_line_60", &straight, &[]),
    ];
    // The workers-1 reference runs inline on this thread: give it the
    // stack a pool worker gets.
    ir::sched::with_stack(|| {
        for (name, src, concrete) in cases {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                let reference = render(&translate_with(src, seed, 1, concrete));
                for workers in [2usize, 4, 8] {
                    let parallel = render(&translate_with(src, seed, workers, concrete));
                    assert_eq!(
                        reference, parallel,
                        "{name}: workers={workers} seed={seed} diverges from sequential"
                    );
                }
            }
        }
    });
}

#[test]
fn distinct_seeds_give_distinct_theorem_streams() {
    // The per-function seed derivation must actually depend on the seed:
    // `ExecTested` theorems record it, so renderings of different seeds
    // must differ (while everything else stays equal).
    let a = render(&translate_with(casestudies::sources::GCD, 1, 1, &[]));
    let b = render(&translate_with(casestudies::sources::GCD, 2, 1, &[]));
    assert_ne!(a, b, "theorem statements must record the derived seed");
}

#[test]
fn workers_zero_and_one_are_the_same_configuration() {
    let zero = render(&translate_with(casestudies::sources::MAX, 5, 0, &[]));
    let one = render(&translate_with(casestudies::sources::MAX, 5, 1, &[]));
    assert_eq!(zero, one);
}

/// A call-graph-shaped program: `fn_i` calls exactly `deps[i]` (all lower
/// indices), plus a per-function constant that `bump` edits. Mirrors the
/// generator the incremental suite uses so both suites cover the same
/// program family.
fn src_from_graph(g: &[Vec<usize>], bump: Option<usize>) -> String {
    let mut s = String::new();
    for (i, deps) in g.iter().enumerate() {
        let c = if bump == Some(i) { 7 } else { 1 };
        let _ = writeln!(s, "unsigned fn_{i}(unsigned x) {{");
        let _ = writeln!(s, "    unsigned r = x + {c}u;");
        for d in deps {
            let _ = writeln!(s, "    r = r ^ fn_{d}(r % 13u + 1u);");
        }
        let _ = writeln!(s, "    return r;");
        let _ = writeln!(s, "}}");
    }
    s
}

fn graph_opts(seed: u64, workers: usize) -> Options {
    Options {
        l2_trials: 2,
        seed,
        workers,
        force_pool: workers > 1,
        ..Options::default()
    }
}

proptest! {
    /// The scheduler contract over the whole program family the synthetic
    /// Table 5 code bases are drawn from: for random call graphs, the
    /// rendered output (specs, theorems, metrics, deterministic stats) is
    /// byte-identical at workers {1, 2, 4, 8} — all oversubscribed on a
    /// small host, hence `force_pool` — and an incremental `Session`
    /// re-run over a dirty cone converges to the same bytes at every
    /// worker count.
    #[test]
    fn random_call_graphs_are_byte_identical_at_any_worker_count(
        seed in 0u64..1_000_000,
        n in 2usize..8,
        density_pct in 20usize..101,
        pick in 0usize..1_000,
    ) {
        let g = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let base = cparser::parse_and_check(&src_from_graph(&g, None)).unwrap();
        let edited_src = src_from_graph(&g, Some(pick % n));
        let edited = cparser::parse_and_check(&edited_src).unwrap();

        let reference = render(&translate_program(&base, &graph_opts(seed, 1)).unwrap());
        let edited_ref = render(&translate_program(&edited, &graph_opts(seed, 1)).unwrap());
        prop_assert_ne!(&reference, &edited_ref, "the edit must be observable");

        for workers in [2usize, 4, 8] {
            let o = graph_opts(seed, workers);
            let scratch = translate_program(&base, &o).unwrap();
            prop_assert_eq!(
                &reference,
                &render(&scratch),
                "graph {:?}: workers={} diverges from sequential", g, workers
            );

            // Incremental re-run with a dirty cone: translate the base,
            // then the edited program, through one session. The second
            // run answers the clean cone from the store and must still
            // match a from-scratch sequential translation byte-for-byte.
            let sess = Session::new(o);
            sess.translate_program(&base).unwrap();
            let incr = sess.translate_program(&edited).unwrap();
            prop_assert!(
                incr.stats.cached_nodes > 0 || n == 1,
                "dirty-cone re-run must hit the store"
            );
            prop_assert_eq!(
                &edited_ref,
                &render(&incr),
                "graph {:?}: incremental at workers={} diverges", g, workers
            );
        }
    }
}

/// First-error reporting is part of the determinism contract: a program
/// with several independently failing functions must surface the same
/// `Diag` (phase, function, message) no matter how many workers raced on
/// it. The sources mix failing and healthy functions so the pipeline has
/// real work in flight when the failure is selected.
#[test]
fn first_diag_is_identical_at_every_worker_count() {
    let cases: &[(&str, &str)] = &[
        (
            "two frontend failures pick the first in source order",
            "unsigned ok_a(unsigned x) { return x + 1u; }\n\
             unsigned bad_b(unsigned x) { goto out; out: return x; }\n\
             unsigned bad_c(unsigned x) { switch (x) { default: return x; } }\n",
        ),
        (
            "simpl failure beats healthy siblings",
            "unsigned inc(unsigned x) { return x + 1u; }\n\
             unsigned spin(unsigned n) { unsigned i = 0u; while (inc(i) < n) { i = i + 1u; } return i; }\n\
             unsigned tail(unsigned x) { return inc(x) * 2u; }\n",
        ),
    ];
    for (what, src) in cases {
        let reference = match translate(src, &graph_opts(11, 1)) {
            Err(d) => format!("{:?}|{:?}|{}", d.phase, d.function, d),
            Ok(_) => panic!("{what}: expected a failure"),
        };
        for workers in [2usize, 4, 8] {
            let got = match translate(src, &graph_opts(11, workers)) {
                Err(d) => format!("{:?}|{:?}|{}", d.phase, d.function, d),
                Ok(_) => panic!("{what}: expected a failure at workers={workers}"),
            };
            assert_eq!(reference, got, "{what}: Diag drifted at workers={workers}");
        }
    }
}
