//! The proof checker as an independent gate: every theorem of every case
//! study replays; derivations carry real content (sizes); and the kernel
//! rejects malformed rule applications.

use autocorres::{translate, Options, Output};
use kernel::{check, CheckCtx};

const CASE_STUDIES: &[(&str, &str)] = &[
    ("max", casestudies::sources::MAX),
    ("gcd", casestudies::sources::GCD),
    ("midpoint", casestudies::sources::MIDPOINT),
    ("swap", casestudies::sources::SWAP),
    ("suzuki", casestudies::sources::SUZUKI),
    ("reverse", casestudies::sources::REVERSE),
    ("schorr_waite", casestudies::sources::SCHORR_WAITE),
    ("overflow_idiom", casestudies::sources::OVERFLOW_IDIOM),
];

/// Replays every theorem in all four `PhaseTheorems` maps individually —
/// not via `Output::check_all` — so a theorem skipped by an aggregation bug
/// would still be caught here.
fn replay_every_map(name: &str, out: &Output) -> usize {
    let maps = [
        ("l1", &out.thms.l1),
        ("l2", &out.thms.l2),
        ("hl", &out.thms.hl),
        ("wa", &out.thms.wa),
    ];
    let mut replayed = 0;
    for (phase, thms) in maps {
        for (fn_name, thm) in thms.iter() {
            check(thm, &out.check_ctx)
                .unwrap_or_else(|e| panic!("{name}: {phase} theorem of {fn_name}: {e}"));
            replayed += 1;
        }
    }
    assert_eq!(
        replayed,
        out.thms.len(),
        "{name}: PhaseTheorems::len disagrees with the four maps"
    );
    assert_eq!(
        replayed,
        out.thms.iter().count(),
        "{name}: PhaseTheorems::iter misses theorems"
    );
    replayed
}

#[test]
fn all_case_study_theorems_replay() {
    for (name, src) in CASE_STUDIES {
        let out = translate(src, &Options::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.check_all().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.total_proof_size() >= 10,
            "{name}: derivations must be non-trivial"
        );
    }
}

#[test]
fn every_theorem_in_every_map_replays_individually() {
    for (name, src) in CASE_STUDIES {
        let out = translate(src, &Options::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let replayed = replay_every_map(name, &out);
        assert!(replayed > 0, "{name}: no theorems at all");
    }
}

/// An eChronos-sized generated program: enough proof nodes that replay
/// gets a real pool (more than one worker) on any multi-CPU host, so the
/// parallel replay paths below are exercised rather than planned inline.
fn pool_sized_output() -> Output {
    let profile = codegen::Profile {
        name: "replay-pool",
        loc: 563,
        functions: 40,
    };
    let src = codegen::generate(&profile, 0xAC);
    translate(&src, &Options::default()).unwrap()
}

/// Asserts that a replay requested at `workers` really ran on a pool
/// whenever the host can run one.
fn assert_pooled(pool: &ir::sched::PoolStats, workers: usize, proof_nodes: usize) {
    if ir::sched::host_cpus() >= 2 {
        assert!(
            pool.workers > 1,
            "workers={workers}: replay of {proof_nodes} proof nodes ran inline"
        );
    }
}

#[test]
fn parallel_replay_covers_every_theorem() {
    let out = pool_sized_output();
    let seq = out.check_all_report(1).unwrap();
    assert_eq!(seq.checked, out.thms.len());
    assert_eq!(seq.proof_nodes, out.total_proof_size());
    assert_eq!(seq.pool.workers, 1);
    for workers in [2usize, 4] {
        let report = out.check_all_report(workers).unwrap();
        assert_pooled(&report.pool, workers, report.proof_nodes);
        assert!(report.pool.workers <= workers);
        // The sequential replay agrees.
        assert_eq!(report.checked, seq.checked);
        assert_eq!(report.proof_nodes, seq.proof_nodes);
    }
}

#[test]
fn replay_counts_do_not_depend_on_the_worker_count() {
    // One walk plans the replay, so every distinct node is validated once
    // and the hits and misses are those of the sequential replay.
    let out = pool_sized_output();
    let seq = out.check_all_report(1).unwrap();
    assert!(seq.cache_hits > 0 && seq.cache_misses > 0, "{seq:?}");
    for workers in [2usize, 4, 8] {
        for _ in 0..10 {
            let report = out.check_all_report(workers).unwrap();
            assert_pooled(&report.pool, workers, report.proof_nodes);
            assert_eq!(
                (report.cache_hits, report.cache_misses),
                (seq.cache_hits, seq.cache_misses),
                "workers={workers}"
            );
        }
    }
}

#[test]
fn a_theorem_listed_twice_is_validated_once() {
    // Adjacent copies of each theorem start on different workers' deques,
    // so two workers reach the same new nodes at the same time.
    let out = pool_sized_output();
    let items: Vec<(&str, &kernel::Thm)> = out.thms.iter().map(|(_, n, t)| (n, t)).collect();
    let once = kernel::check_all(items.iter().copied(), &out.check_ctx, 1).unwrap();
    let twice: Vec<(&str, &kernel::Thm)> = items.iter().flat_map(|&it| [it, it]).collect();
    let report = kernel::check_all(twice, &out.check_ctx, 2).unwrap();
    assert_pooled(&report.pool, 2, report.proof_nodes);
    assert_eq!(report.cache_misses, once.cache_misses);
    assert_eq!(report.cache_hits, once.cache_hits + items.len() as u64);
}

#[test]
fn replay_never_oversubscribes() {
    // Schorr-Waite's few hundred proof nodes are far below what one extra
    // worker needs to pay off, so replay must run inline whatever the
    // request — never one thread per theorem.
    let out = translate(casestudies::sources::SCHORR_WAITE, &Options::default()).unwrap();
    let items = out.thms.iter().map(|(_, n, t)| (n, t));
    let report = kernel::check_all(items, &out.check_ctx, 8).unwrap();
    assert_eq!(report.proof_nodes, 628);
    assert_eq!(report.pool.requested, 8);
    assert_eq!(
        report.pool.workers, 1,
        "planned width for {} nodes",
        report.proof_nodes
    );
}

#[test]
fn parallel_replay_reports_first_error_in_theorem_order() {
    // Theorems can't be forged from outside the kernel (LCF), so induce
    // failures by replaying layout-dependent derivations against a context
    // without the struct layouts. Whatever fails first sequentially must be
    // the reported error at every worker count — on a program large enough
    // that the parallel counts really run a pool.
    let out = pool_sized_output();
    let empty_cx = CheckCtx::default();
    let items: Vec<(&str, &kernel::Thm)> = out.thms.iter().map(|(_, n, t)| (n, t)).collect();
    let failing: Vec<&str> = items
        .iter()
        .filter(|(_, t)| check(t, &empty_cx).is_err())
        .map(|(n, _)| *n)
        .collect();
    assert!(
        failing.len() >= 2,
        "several derivations must depend on the layouts, got {failing:?}"
    );
    for workers in [1usize, 2, 8] {
        // Same items, same proof-node count: the valid replay shows the
        // width the failing one is planned at.
        let ok = kernel::check_all(items.iter().copied(), &out.check_ctx, workers).unwrap();
        if workers > 1 {
            assert_pooled(&ok.pool, workers, ok.proof_nodes);
        }
        let err = kernel::check_all(items.iter().copied(), &empty_cx, workers)
            .expect_err("replay without layouts must fail");
        assert_eq!(
            err.0, failing[0],
            "workers={workers}: error is not the first in theorem order"
        );
    }
}

#[test]
fn checker_is_independent_of_the_engines() {
    // The checker validates against a *fresh* context reconstructed from
    // the output (not the engine's internal state).
    let out = translate(casestudies::sources::REVERSE, &Options::default()).unwrap();
    let cx = out.check_ctx.clone();
    for (_, t) in out.thms.hl.iter().chain(&out.thms.wa) {
        check(t, &cx).unwrap();
    }
    // A context with the wrong layouts makes layout-dependent derivations
    // fail — the checker really consults the side conditions.
    let empty_cx = CheckCtx::default();
    let uses_layout = out
        .thms
        .hl
        .iter()
        .any(|(_, t)| check(t, &empty_cx).is_err());
    assert!(
        uses_layout,
        "field-offset rules must fail without the struct layouts"
    );
}

#[test]
fn kernel_rejects_malformed_applications() {
    use ir::expr::Expr;
    use kernel::rules::{refine, word};
    use kernel::AbsFun;
    let cx = CheckCtx::default();

    // Transitivity with non-chaining middles.
    let a = refine::refines_refl(&cx, &monadic::Prog::ret(Expr::u32(1))).unwrap();
    let b = refine::refines_refl(&cx, &monadic::Prog::ret(Expr::u32(2))).unwrap();
    assert!(refine::refines_trans(&cx, a, b).is_err());

    // Arithmetic across mismatched abstraction functions.
    let ctx = kernel::judgment::VarCtx::new(
        [("x".to_owned(), AbsFun::Unat), ("y".to_owned(), AbsFun::Sint)]
            .into_iter()
            .collect(),
    );
    let x = word::w_var(&cx, &ctx, "x").unwrap();
    let y = word::w_var(&cx, &ctx, "y").unwrap();
    assert!(word::w_arith(&cx, kernel::Rule::WSum, ir::Width::W32, x, y).is_err());

    // Guard discharge on an unprovable guard.
    let g = monadic::Prog::Guard(
        ir::GuardKind::DivByZero,
        Expr::binop(ir::BinOp::Ne, Expr::var("b"), Expr::u32(0)),
    );
    assert!(refine::discharge_guard(&cx, &g).is_err());
}
