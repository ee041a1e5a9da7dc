//! Incremental recomputation: a [`Session`] re-runs only the dirty cone.
//!
//! The phase graph keys every per-function artifact by a content digest of
//! its inputs (the function's terms, the environment, the options, and —
//! for the exec-testing phases — the transitive callee cone). Editing one
//! function must therefore re-run exactly that function in the translation
//! phases plus its transitive callers in the testing phases, answer
//! everything else from the session store, and still produce output
//! byte-identical to a from-scratch translation at any worker count.

use autocorres::{translate_program, Options, Output, Session};
use ir::diag::{Diag, Span};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Everything a consumer can observe of the output, rendered to text (the
/// same shape the parallel-determinism suite byte-compares).
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
        let _ = writeln!(s, "--- thm {phase} {name} ---\n{thm}\n{thm:?}");
    }
    let _ = writeln!(s, "parser metrics: {:?}", out.parser_metrics());
    let _ = writeln!(s, "output metrics: {:?}", out.output_metrics());
    let _ = writeln!(s, "proof size: {}", out.total_proof_size());
    for d in out.lint_diags() {
        let _ = writeln!(s, "lint {:?} {d}", d.span);
    }
    s.push_str(&out.stats.deterministic_summary());
    s
}

fn opts(workers: usize) -> Options {
    Options {
        l2_trials: 4,
        seed: 0xA11CE,
        workers,
        ..Options::default()
    }
}

/// `leaf ← mid ← top`, plus `lone` with no calls at all.
fn diamond(leaf_const: u32) -> String {
    format!(
        "unsigned leaf(unsigned x) {{ return x + {leaf_const}u; }}\n\
         unsigned mid(unsigned x) {{ return leaf(x) + 2u; }}\n\
         unsigned top(unsigned x) {{ return mid(x) ^ leaf(x); }}\n\
         unsigned lone(unsigned x) {{ return x * 3u; }}\n"
    )
}

fn phase_cached(out: &Output, phase: &str) -> usize {
    out.stats
        .phases
        .iter()
        .find(|p| p.name == phase)
        .unwrap_or_else(|| panic!("phase {phase} missing"))
        .cached
}

#[test]
fn identical_retranslation_is_a_full_cache_hit() {
    let sess = Session::new(opts(2));
    let first = sess.translate(&diamond(1)).unwrap();
    assert_eq!(first.stats.dirty_fns, 4, "fresh session: everything dirty");
    assert_eq!(first.stats.cached_nodes, 0);

    let second = sess.translate(&diamond(1)).unwrap();
    assert_eq!(second.stats.dirty_fns, 0, "nothing changed");
    // Every per-function job of every phase (7 phases including absint)
    // was answered from the store.
    assert_eq!(second.stats.cached_nodes, 7 * 4);
    assert_eq!(render(&first), render(&second), "cache changed the output");
}

#[test]
fn editing_one_function_reruns_exactly_the_dirty_cone() {
    let sess = Session::new(opts(2));
    sess.translate(&diamond(1)).unwrap();

    // Edit `leaf`: its callers `mid` and `top` must re-test (their
    // differential tests execute the edited callee), `lone` must not.
    let incr = sess.translate(&diamond(9)).unwrap();
    assert_eq!(
        incr.stats.dirty_fns, 3,
        "dirty cone is leaf + mid + top, not {}",
        incr.stats.dirty_fns
    );
    // Translation phases are per-function: only `leaf` re-ran there.
    assert_eq!(phase_cached(&incr, "l1"), 3);
    assert_eq!(phase_cached(&incr, "l2"), 3);
    assert_eq!(phase_cached(&incr, "hl"), 3);
    // The L2 theorem tests calls: only `lone`'s callee cone is unchanged.
    assert_eq!(phase_cached(&incr, "l2thm"), 1);
    // Exec-testing phases re-run the whole caller cone.
    assert_eq!(phase_cached(&incr, "wa"), 1);
    assert_eq!(phase_cached(&incr, "adapt"), 1);

    // Byte-identical to from-scratch translation of the edited source, at
    // several worker counts.
    let reference = render(&incr);
    for workers in [1usize, 2, 8] {
        let typed = cparser::parse_and_check(&diamond(9)).unwrap();
        let fresh = translate_program(&typed, &opts(workers)).unwrap();
        assert_eq!(
            reference,
            render(&fresh),
            "incremental output diverges from scratch (workers={workers})"
        );
    }
}

/// Translates `before` and then `after` through one session at each of
/// one and two workers, and checks that the second run re-ran exactly
/// `dirty` functions and printed what a fresh translation of `after` does.
fn edit(before: &str, after: &str, dirty: usize) {
    for workers in [1usize, 2] {
        let sess = Session::new(opts(workers));
        sess.translate(before).unwrap();
        let incr = sess.translate(after).unwrap();
        assert_eq!(incr.stats.dirty_fns, dirty, "workers={workers}:\n{after}");
        let typed = cparser::parse_and_check(after).unwrap();
        let fresh = translate_program(&typed, &opts(workers)).unwrap();
        assert_eq!(render(&incr), render(&fresh), "workers={workers}:\n{after}");
    }
}

#[test]
fn adding_a_function_dirties_only_that_function() {
    // No key hashes the table of every signature, so a new function that
    // declares no type leaves every other function's jobs clean.
    let added = format!("{}unsigned extra(unsigned x) {{ return x + 1u; }}\n", diamond(1));
    edit(&diamond(1), &added, 1);
}

#[test]
fn a_callee_signature_change_dirties_the_callee_and_its_callers() {
    // A caller reads its callee's signature through the call in its own
    // typed AST (the argument conversions, the result type); `lone` calls
    // nothing and stays clean.
    let src = |leaf: &str| {
        format!(
            "{leaf} {{ return x + 1u; }}\n\
             unsigned mid(unsigned x) {{ return leaf(x) + 2u; }}\n\
             unsigned lone(unsigned x) {{ return x * 3u; }}\n"
        )
    };
    let before = src("unsigned leaf(unsigned x)");
    for leaf in ["int leaf(unsigned x)", "unsigned leaf(int x)"] {
        edit(&before, &src(leaf), 2);
    }
}

#[test]
fn cache_counts_are_folds_over_every_graph_node() {
    // Every `(phase, function)` node either hits the store or runs, so the
    // per-phase `cached` rows and the two totals must account for exactly
    // `PHASES.len()` nodes per function — cold, and after an edit.
    let fns = 4;
    for workers in [1usize, 2] {
        let sess = Session::new(Options {
            force_pool: true,
            ..opts(workers)
        });
        for leaf_const in [1, 9] {
            let out = sess.translate(&diamond(leaf_const)).unwrap();
            let s = &out.stats;
            let per_phase: usize = s.phases.iter().map(|p| p.cached).sum();
            assert_eq!(per_phase, s.cached_nodes, "workers={workers}");
            assert_eq!(
                s.cached_nodes + s.computed_nodes,
                autocorres::PHASES.len() * fns,
                "workers={workers}, leaf_const={leaf_const}"
            );
        }
    }
}

#[test]
fn simpl_is_read_back_from_the_l1_artifacts() {
    // Each `l1` job translates its own function to Simpl, so a hit skips
    // the translation, and `Output::simpl` is read back from the L1
    // artifacts: cold, warm and after an edit of `leaf` it must be the
    // whole-program translation, and the `l1` row must hit exactly the
    // functions the edit left clean.
    for workers in [1usize, 2] {
        let sess = Session::new(Options {
            force_pool: true,
            ..opts(workers)
        });
        for (run, leaf_const, clean) in [("cold", 1, 0), ("warm", 1, 4), ("edited", 9, 3)] {
            let typed = cparser::parse_and_check(&diamond(leaf_const)).unwrap();
            let out = sess.translate_program(&typed).unwrap();
            assert_eq!(
                out.simpl,
                simpl::translate_program(&typed).unwrap(),
                "{run} run, workers={workers}"
            );
            assert_eq!(
                phase_cached(&out, "l1"),
                clean,
                "{run} run, workers={workers}"
            );
        }
    }
}

#[test]
fn session_replay_skips_previously_checked_proofs() {
    let sess = Session::new(opts(2));
    let out = sess.translate(&diamond(1)).unwrap();
    let first = sess.check_all_report(&out, 2).unwrap();
    assert!(first.cache_misses > 0, "first replay validates something");
    let again = sess.check_all_report(&out, 2).unwrap();
    assert_eq!(
        again.cache_misses, 0,
        "second replay of identical theorems must be all hits"
    );
    assert!(again.cache_hits > 0);
    // An incremental re-translation reuses cached theorems, so its replay
    // through the same session is also fully cached.
    let out2 = sess.translate(&diamond(1)).unwrap();
    let third = sess.check_all_report(&out2, 1).unwrap();
    assert_eq!(third.cache_misses, 0);
}

/// A call-graph-shaped program: `fn_i` calls exactly `deps[i]` (all lower
/// indices), plus a per-function constant that `bump` edits.
fn src_from_graph(g: &[Vec<usize>], bump: Option<usize>) -> String {
    let consts: Vec<u64> = (0..g.len())
        .map(|i| if bump == Some(i) { 7 } else { 1 })
        .collect();
    layout(g, &consts, &[])
}

/// Lines that move code and change nothing else.
const FILLER: [&str; 4] = ["", "/* filler */", "// filler", "    "];

/// The program of [`src_from_graph`] with `consts[i]` as `fn_i`'s
/// constant, and each `(i, j, text)` of `inserts` spliced in as a line
/// before line `j` of `fn_i` (line 0 is its header, then one statement a
/// line, then the closing brace), or after the last function when
/// `i == g.len()`.
fn layout(g: &[Vec<usize>], consts: &[u64], inserts: &[(usize, usize, &str)]) -> String {
    let mut fns: Vec<Vec<String>> = g
        .iter()
        .enumerate()
        .map(|(i, deps)| {
            let mut lines = vec![
                format!("unsigned fn_{i}(unsigned x) {{"),
                format!("    unsigned r = x + {}u;", consts[i]),
            ];
            lines.extend(
                deps.iter()
                    .map(|d| format!("    r = r ^ fn_{d}(r % 13u + 1u);")),
            );
            lines.push("    return r;".to_owned());
            lines.push("}".to_owned());
            lines
        })
        .collect();
    fns.push(Vec::new());
    for &(i, j, text) in inserts {
        let lines = &mut fns[i];
        lines.insert(j.min(lines.len()), text.to_owned());
    }
    fns.concat().into_iter().map(|l| l + "\n").collect()
}

/// Translates `before` and then `after` (`n` functions) through one
/// session, checks that the second run re-ran `dirty` functions, and at
/// most one of them in the translation phases, and that its output is
/// byte-identical to fresh translations of `after` at one and two workers.
fn retranslate(before: &str, after: &str, dirty: usize, n: usize) {
    let o = |workers| Options {
        l2_trials: 2,
        seed: 3,
        workers,
        ..Options::default()
    };
    let sess = Session::new(o(2));
    sess.translate(before).unwrap();
    let incr = sess.translate(after).unwrap();
    assert_eq!(incr.stats.dirty_fns, dirty, "{after}");
    // Only the function whose own text changed re-translates.
    assert_eq!(phase_cached(&incr, "l1"), n - dirty.min(1), "{after}");
    for workers in [1, 2] {
        let fresh = Session::new(o(workers)).translate(after).unwrap();
        assert_eq!(
            render(&incr),
            render(&fresh),
            "incremental output diverges from scratch (workers={workers}):\n{after}"
        );
    }
}

/// The edited function plus its transitive callers.
fn caller_cone(g: &[Vec<usize>], k: usize) -> BTreeSet<usize> {
    let mut cone = BTreeSet::from([k]);
    loop {
        let before = cone.len();
        for (i, deps) in g.iter().enumerate() {
            if deps.iter().any(|d| cone.contains(d)) {
                cone.insert(i);
            }
        }
        if cone.len() == before {
            return cone;
        }
    }
}

proptest! {
    #[test]
    fn random_single_edit_invalidates_exactly_the_caller_cone(
        seed in 0u64..1_000_000,
        n in 2usize..7,
        density_pct in 20usize..101,
        pick in 0usize..1_000,
        workers in 1usize..5,
    ) {
        let g = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let k = pick % n;
        let o = Options {
            l2_trials: 2,
            seed: 3,
            workers,
            ..Options::default()
        };
        let sess = Session::new(o.clone());
        let base = cparser::parse_and_check(&src_from_graph(&g, None)).unwrap();
        sess.translate_program(&base).unwrap();

        let edited = cparser::parse_and_check(&src_from_graph(&g, Some(k))).unwrap();
        let incr = sess.translate_program(&edited).unwrap();
        let cone = caller_cone(&g, k);
        prop_assert_eq!(
            incr.stats.dirty_fns,
            cone.len(),
            "graph {:?}, edited fn_{}: dirty set must be the caller cone {:?}",
            g, k, cone
        );
        // The untouched functions' translation jobs all hit the store.
        prop_assert_eq!(phase_cached(&incr, "l1"), n - 1);

        let fresh = translate_program(&edited, &o).unwrap();
        prop_assert_eq!(
            render(&incr),
            render(&fresh),
            "incremental output diverges from scratch"
        );
    }

    #[test]
    fn filler_between_functions_dirties_nothing(
        seed in 0u64..1_000_000,
        n in 2usize..7,
        density_pct in 20usize..101,
        gaps in proptest::collection::vec((0usize..8, 0usize..FILLER.len()), 1..6),
    ) {
        let g = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let consts = vec![1; n];
        let inserts: Vec<(usize, usize, &str)> =
            gaps.iter().map(|&(i, k)| (i % (n + 1), 0, FILLER[k])).collect();
        retranslate(
            &layout(&g, &consts, &[]),
            &layout(&g, &consts, &inserts),
            0,
            n,
        );
    }

    #[test]
    fn filler_inside_a_body_dirties_its_caller_cone(
        seed in 0u64..1_000_000,
        n in 2usize..7,
        density_pct in 20usize..101,
        pick in 0usize..1_000,
        at in 0usize..1_000,
        k in 0usize..FILLER.len(),
    ) {
        let g = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let f = pick % n;
        // Before one of the statements (lines 1..=deps+2), so at least the
        // `return` moves relative to the header.
        let line = 1 + at % (g[f].len() + 2);
        let consts = vec![1; n];
        retranslate(
            &layout(&g, &consts, &[]),
            &layout(&g, &consts, &[(f, line, FILLER[k])]),
            caller_cone(&g, f).len(),
            n,
        );
    }

    #[test]
    fn a_body_edit_that_changes_its_length_dirties_only_its_caller_cone(
        seed in 0u64..1_000_000,
        n in 2usize..7,
        density_pct in 20usize..101,
        pick in 0usize..1_000,
        c in 10u64..1_000_000_000,
    ) {
        let g = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let f = pick % n;
        let mut consts = vec![1; n];
        let before = layout(&g, &consts, &[]);
        consts[f] = c;
        retranslate(&before, &layout(&g, &consts, &[]), caller_cone(&g, f).len(), n);
    }
}

#[test]
fn lint_spans_follow_a_shifted_file() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/lint_demo.c"
    ))
    .unwrap();
    let prefix = "/* a comment and blank lines above every function */\n\n\n";
    let shifted = format!("{prefix}{src}");
    let sess = Session::new(opts(2));
    let first = sess.translate(&src).unwrap();
    assert!(!first.lint_diags().is_empty(), "the demo has lints");
    let incr = sess.translate(&shifted).unwrap();
    assert_eq!(incr.stats.dirty_fns, 0, "nothing but positions changed");
    let fresh = translate_program(&cparser::parse_and_check(&shifted).unwrap(), &opts(2)).unwrap();
    assert_eq!(incr.lint_diags(), fresh.lint_diags());
    // Every lint moved down by exactly the prefix.
    let down = |s: Span| Span::new(s.offset + prefix.len() as u32, s.line + 3, s.col);
    let moved: Vec<_> = first
        .lint_diags()
        .into_iter()
        .map(|d| Diag {
            span: d.span.map(down),
            ..d
        })
        .collect();
    assert_eq!(incr.lint_diags(), moved);
    assert_eq!(render(&incr), render(&fresh));
}
