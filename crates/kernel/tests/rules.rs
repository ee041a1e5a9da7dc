//! Kernel rule tests: constructing derivations, replaying them through the
//! checker, rejecting bogus applications, and semantically sampling the
//! produced judgments (defence in depth for the rule set).

use std::collections::BTreeMap;

use ir::expr::{BinOp, CastKind, Expr};
use ir::guard::GuardKind;
use ir::ty::{Ty, Width};
use ir::update::Update;
use ir::value::Value;
use kernel::rules::{heap, refine, word};
use kernel::semantics::sample_wval;
use kernel::judgment::VarCtx;
use kernel::{check, AbsFun, CheckCtx, Judgment, Thm};
use monadic::Prog;

fn ctx_with(vars: &[(&str, AbsFun)]) -> VarCtx {
    VarCtx::new(
        vars.iter()
            .map(|(n, f)| ((*n).to_owned(), f.clone()))
            .collect(),
    )
}

fn var_tys(vars: &[(&str, Ty)]) -> BTreeMap<String, Ty> {
    vars.iter()
        .map(|(n, t)| ((*n).to_owned(), t.clone()))
        .collect()
}

/// Builds the paper's running example derivation (Sec 3.3):
/// `return ((l +w r) divw 2)` abstracts to
/// `do guard (l + r ≤ UINT_MAX); return ((l + r) div 2) od`.
fn midpoint_derivation(cx: &CheckCtx) -> Thm {
    let vctx = ctx_with(&[("l", AbsFun::Unat), ("r", AbsFun::Unat)]);
    let l = word::w_var(cx, &vctx, "l").unwrap();
    let r = word::w_var(cx, &vctx, "r").unwrap();
    let sum = word::w_arith(cx, kernel::Rule::WSum, Width::W32, l, r).unwrap();
    let two = word::w_lit(cx, &vctx, AbsFun::Unat, &Value::u32(2)).unwrap();
    let div = word::w_arith(cx, kernel::Rule::WDiv, Width::W32, sum, two).unwrap();
    word::ws_value_stmt(cx, kernel::Rule::WsRet, AbsFun::Id, div).unwrap()
}

#[test]
fn midpoint_abstraction_matches_paper() {
    let cx = CheckCtx::default();
    let thm = midpoint_derivation(&cx);
    let Judgment::WStmt { rx, abs, conc, .. } = thm.judgment() else {
        panic!("expected abs_w_stmt");
    };
    assert_eq!(*rx, AbsFun::Unat);

    // Concrete: return ((l +w r) divw 2)
    let expect_conc = Prog::Return(Expr::binop(
        BinOp::Div,
        Expr::binop(BinOp::Add, Expr::var("l"), Expr::var("r")),
        Expr::u32(2),
    ));
    assert_eq!(*conc, expect_conc);

    // Abstract: do guard (l + r ≤ UINT_MAX); return ((l + r) div 2) od
    let Prog::Bind(g, _, ret) = abs else {
        panic!("abstract program must start with the overflow guard: {abs}");
    };
    let Prog::Guard(GuardKind::WordAbs, pre) = &**g else {
        panic!("expected a word-abstraction guard");
    };
    assert_eq!(
        pre.to_string(),
        "l + r ≤ 4294967295",
        "the paper's UINT_MAX obligation"
    );
    assert_eq!(
        ret.to_string(),
        "return ((l + r) div 2)",
        "ideal-arithmetic return"
    );

    // The derivation replays through the independent checker.
    check(&thm, &cx).unwrap();
    assert!(thm.proof_size() >= 6, "non-trivial derivation");
}

#[test]
fn arithmetic_rules_are_semantically_sound() {
    // Sample every unsigned/signed arithmetic rule's conclusion.
    let cx = CheckCtx::default();
    let u_ctx = ctx_with(&[("a", AbsFun::Unat), ("b", AbsFun::Unat)]);
    let s_ctx = ctx_with(&[("a", AbsFun::Sint), ("b", AbsFun::Sint)]);
    let u_tys = var_tys(&[("a", Ty::U32), ("b", Ty::U32)]);
    let s_tys = var_tys(&[("a", Ty::I32), ("b", Ty::I32)]);

    use kernel::Rule::*;
    for rule in [WSum, WSub, WMul, WDiv, WMod] {
        let a = word::w_var(&cx, &u_ctx, "a").unwrap();
        let b = word::w_var(&cx, &u_ctx, "b").unwrap();
        let t = word::w_arith(&cx, rule, Width::W32, a, b).unwrap();
        sample_wval(t.judgment(), &u_tys, 500, 42)
            .unwrap_or_else(|e| panic!("{rule:?}: {e}"));
    }
    for rule in [SSum, SSub, SMul, SDiv, SMod] {
        let a = word::w_var(&cx, &s_ctx, "a").unwrap();
        let b = word::w_var(&cx, &s_ctx, "b").unwrap();
        let t = word::w_arith(&cx, rule, Width::W32, a, b).unwrap();
        sample_wval(t.judgment(), &s_tys, 500, 43)
            .unwrap_or_else(|e| panic!("{rule:?}: {e}"));
    }
    // Comparisons.
    for op in [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne] {
        let a = word::w_var(&cx, &u_ctx, "a").unwrap();
        let b = word::w_var(&cx, &u_ctx, "b").unwrap();
        let t = word::w_cmp(&cx, op, a, b).unwrap();
        sample_wval(t.judgment(), &u_tys, 500, 44).unwrap();
    }
    // Negation.
    let a = word::w_var(&cx, &s_ctx, "a").unwrap();
    let t = word::s_neg(&cx, Width::W32, a).unwrap();
    sample_wval(t.judgment(), &s_tys, 500, 45).unwrap();
}

#[test]
fn reconcretization_round_trips() {
    let cx = CheckCtx::default();
    let vctx = ctx_with(&[("x", AbsFun::Unat)]);
    let x = word::w_var(&cx, &vctx, "x").unwrap();
    let t = word::w_reconcretize(&cx, Width::W32, ir::ty::Signedness::Unsigned, x).unwrap();
    let Judgment::WVal { f, abs, .. } = t.judgment() else {
        panic!()
    };
    assert_eq!(*f, AbsFun::Id);
    assert_eq!(
        *abs,
        Expr::cast(CastKind::OfNat(Width::W32, ir::ty::Signedness::Unsigned), Expr::var("x"))
    );
    sample_wval(t.judgment(), &var_tys(&[("x", Ty::U32)]), 300, 7).unwrap();
    check(&t, &cx).unwrap();
}

#[test]
fn kernel_rejects_bogus_applications() {
    let cx = CheckCtx::default();
    let vctx = ctx_with(&[("x", AbsFun::Unat)]);
    // Variable not in context.
    assert!(word::w_var(&cx, &VarCtx::default(), "x")
        .map(|t| matches!(
            t.judgment(),
            Judgment::WVal { f: AbsFun::Id, .. }
        ))
        .unwrap_or(false));
    // Mixing signed and unsigned premises in WSum.
    let sctx = ctx_with(&[("x", AbsFun::Unat), ("y", AbsFun::Sint)]);
    let x = word::w_var(&cx, &sctx, "x").unwrap();
    let y = word::w_var(&cx, &sctx, "y").unwrap();
    assert!(word::w_arith(&cx, kernel::Rule::WSum, Width::W32, x, y).is_err());
    // SNeg on an unsigned premise.
    let x = word::w_var(&cx, &vctx, "x").unwrap();
    assert!(word::s_neg(&cx, Width::W32, x).is_err());
}

#[test]
fn ws_modify_rejects_missing_premises() {
    // `WsModify` takes one premise per expression of the update; fewer is
    // a kernel error, not a panic.
    let cx = CheckCtx::default();
    let vctx = ctx_with(&[("x", AbsFun::Id)]);
    let global = Update::Global("g".into(), Expr::var("x"));
    let err = word::ws_modify(&cx, &vctx, AbsFun::Id, &global, vec![]).unwrap_err();
    assert_eq!(err.rule, kernel::Rule::WsModify);
    let heap = Update::Heap(Ty::U32, Expr::var("x"), Expr::var("x"));
    let x = word::w_var(&cx, &vctx, "x").unwrap();
    let err = word::ws_modify(&cx, &vctx, AbsFun::Id, &heap, vec![x.clone()]).unwrap_err();
    assert_eq!(err.rule, kernel::Rule::WsModify);
    // The full premise list is admitted.
    let t = word::ws_modify(&cx, &vctx, AbsFun::Id, &heap, vec![x.clone(), x]).unwrap();
    check(&t, &cx).unwrap();
}

#[test]
fn custom_sampled_rule_overflow_idiom() {
    // Sec 3.3's example: `UINT_MAX < x + y` abstracts `x' +w y' <w x'`
    // (the unsigned-overflow test idiom).
    let cx = CheckCtx::default();
    let vctx = ctx_with(&[("x", AbsFun::Unat), ("y", AbsFun::Unat)]);
    let j = Judgment::WVal {
        ctx: vctx,
        pre: Expr::tt(),
        f: AbsFun::Id,
        abs: Expr::binop(
            BinOp::Lt,
            Expr::nat(u64::from(u32::MAX)),
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y")),
        ),
        conc: Expr::binop(
            BinOp::Lt,
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y")),
            Expr::var("x"),
        ),
    };
    let vars = var_tys(&[("x", Ty::U32), ("y", Ty::U32)]);
    let t = word::w_custom_sampled(&cx, j, vars.clone(), 2000, 99).unwrap();
    check(&t, &cx).unwrap();

    // A bogus custom rule is rejected by sampling.
    let bogus = Judgment::WVal {
        ctx: ctx_with(&[("x", AbsFun::Unat)]),
        pre: Expr::tt(),
        f: AbsFun::Id,
        abs: Expr::tt(),
        conc: Expr::binop(BinOp::Lt, Expr::var("x"), Expr::u32(5)),
    };
    assert!(word::w_custom_sampled(&cx, bogus, var_tys(&[("x", Ty::U32)]), 2000, 99).is_err());
}

#[test]
fn heap_rules_build_swap_guard() {
    // is_valid introduction for a heap read through a pointer variable.
    let mut cx = CheckCtx::default();
    cx.tenv
        .define_struct(
            "node",
            vec![
                ("next".into(), Ty::Struct("node".into()).ptr_to()),
                ("data".into(), Ty::U32),
            ],
        )
        .unwrap();

    let p = heap::h_leaf(&cx, &Expr::var("a")).unwrap();
    let read = heap::h_read(&cx, &Ty::U32, p).unwrap();
    let Judgment::HVal { pre, abs, conc } = read.judgment() else {
        panic!()
    };
    assert_eq!(*abs, Expr::read_heap(Ty::U32, Expr::var("a")));
    assert_eq!(*conc, Expr::read_heap(Ty::U32, Expr::var("a")));
    assert_eq!(*pre, Expr::is_valid(Ty::U32, Expr::var("a")));
    check(&read, &cx).unwrap();

    // Field read p->data via offset 4 becomes a field select.
    let p = heap::h_leaf(&cx, &Expr::var("p")).unwrap();
    let fread = heap::h_read_field(&cx, "node", &Ty::U32, 4, p).unwrap();
    let Judgment::HVal { abs, conc, .. } = fread.judgment() else {
        panic!()
    };
    assert_eq!(
        abs.to_string(),
        "s[p]·node_C→data",
        "field select on the struct heap"
    );
    assert!(conc.to_string().contains("+p"), "offset read at concrete level");
    check(&fread, &cx).unwrap();

    // Wrong offset is rejected.
    let p = heap::h_leaf(&cx, &Expr::var("p")).unwrap();
    assert!(heap::h_read_field(&cx, "node", &Ty::U32, 2, p).is_err());
}

#[test]
fn heap_guard_becomes_is_valid() {
    let cx = CheckCtx::default();
    let p = heap::h_leaf(&cx, &Expr::var("a")).unwrap();
    let g = heap::h_guard_ptr(&cx, &Ty::U32, p).unwrap();
    let stmt = heap::hs_guard(&cx, GuardKind::PtrValid, g).unwrap();
    let Judgment::HStmt { abs, conc } = stmt.judgment() else {
        panic!()
    };
    // Concrete: guard (ptr_aligned a ∧ 0 ∉ {a ..+ 4}); abstract: guard (is_valid a).
    assert!(conc.to_string().contains("ptr_aligned"));
    assert!(abs.to_string().contains("is_valid_w32"));
    assert!(!abs.to_string().contains("ptr_aligned"));
    check(&stmt, &cx).unwrap();
}

#[test]
fn l1_rules_translate_table1() {
    let cx = CheckCtx::default();
    use simpl::stmt::{ISimpl, SimplStmt};

    let skip = refine::l1(&cx, &ISimpl::new(SimplStmt::Skip), vec![]).unwrap();
    let Judgment::L1 { prog, .. } = skip.judgment() else {
        panic!()
    };
    assert_eq!(*prog, Prog::skip());

    let basic = ISimpl::new(SimplStmt::Basic(ir::update::Update::Local(
        "x".into(),
        Expr::u32(1),
    )));
    let b = refine::l1(&cx, &basic, vec![]).unwrap();
    let Judgment::L1 { prog, .. } = b.judgment() else {
        panic!()
    };
    assert!(matches!(prog, Prog::Modify(_)));

    let seq = ISimpl::new(SimplStmt::Seq(ISimpl::new(SimplStmt::Skip), basic.clone()));
    let s = refine::l1(&cx, &seq, vec![skip.clone(), b.clone()]).unwrap();
    check(&s, &cx).unwrap();

    // Premises in the wrong order are rejected.
    assert!(refine::l1(&cx, &seq, vec![b, skip]).is_err());
}

#[test]
fn guard_discharge_uses_simplifier() {
    let cx = CheckCtx::default();
    // guard (4 < 32) is simplifier-provable.
    let g = Prog::Guard(
        GuardKind::ShiftBound,
        Expr::binop(BinOp::Lt, Expr::u32(4), Expr::u32(32)),
    );
    let t = refine::discharge_guard(&cx, &g).unwrap();
    check(&t, &cx).unwrap();

    // guard (x < 32) is not.
    let g = Prog::Guard(
        GuardKind::ShiftBound,
        Expr::binop(BinOp::Lt, Expr::var("x"), Expr::u32(32)),
    );
    assert!(refine::discharge_guard(&cx, &g).is_err());
}

#[test]
fn exec_tested_records_evidence() {
    let cx = CheckCtx::default();
    let p = Prog::ret(Expr::u32(1));
    let q = Prog::bind(Prog::skip(), "_", Prog::ret(Expr::u32(1)));
    let ctx = monadic::ProgramCtx::default();
    let t = refine::exec_tested(&cx, &p, &q, 100, 7, || {
        kernel::semantics::test_refines(&ctx, &p, &q, 100, 7, |_| {
            (ir::eval::Env::new(), ir::state::State::conc_empty())
        })
    })
    .unwrap();
    check(&t, &cx).unwrap();
    assert!(matches!(
        t.side(),
        kernel::thm::Side::Tested { trials: 100, seed: 7 }
    ));

    // A wrong rewrite is caught by the differential test.
    let bad = Prog::ret(Expr::u32(2));
    assert!(refine::exec_tested(&cx, &bad, &q, 100, 7, || {
        kernel::semantics::test_refines(&ctx, &bad, &q, 100, 7, |_| {
            (ir::eval::Env::new(), ir::state::State::conc_empty())
        })
    })
    .is_err());
}

#[test]
fn congruence_rules_compose() {
    let cx = CheckCtx::default();
    let a = refine::refines_refl(&cx, &Prog::ret(Expr::u32(1))).unwrap();
    let b = refine::refines_refl(&cx, &Prog::ret(Expr::var("v"))).unwrap();
    let t = refine::bind_cong(&cx, "v", a, b).unwrap();
    check(&t, &cx).unwrap();
    let Judgment::Refines { abs, conc } = t.judgment() else {
        panic!()
    };
    assert_eq!(abs, conc);
}

#[test]
fn replay_cache_is_bound_to_the_checking_context() {
    // `HReadField` depends on the struct layout, so a node validated under
    // one context must be checked again under another.
    let mut cx = CheckCtx::default();
    cx.tenv
        .define_struct("S", vec![("a".into(), Ty::U32), ("b".into(), Ty::U32)])
        .unwrap();
    let p = heap::h_leaf(&cx, &Expr::var("p")).unwrap();
    let fread = heap::h_read_field(&cx, "S", &Ty::U32, 4, p).unwrap();
    let cache = kernel::ReplayCache::new();
    let items = || std::iter::once(("fread", &fread));
    kernel::check_all_with(items(), &cx, 1, &cache).unwrap();
    let empty = CheckCtx::default();
    let (_, err) = kernel::check_all(items(), &empty, 1).unwrap_err();
    assert!(err.msg.contains("no field of `S` at offset 4"), "{err}");
    let (_, err) = kernel::check_all_with(items(), &empty, 1, &cache).unwrap_err();
    assert!(err.msg.contains("no field of `S` at offset 4"), "{err}");
}

#[test]
fn replay_cache_is_bound_to_the_checking_context_across_threads() {
    // Two workers check the same node through one cache at the same time,
    // one under the context that makes it valid and one under a context
    // without the layout: the second fails whichever validates first.
    let mut cx = CheckCtx::default();
    cx.tenv
        .define_struct("S", vec![("a".into(), Ty::U32), ("b".into(), Ty::U32)])
        .unwrap();
    let p = heap::h_leaf(&cx, &Expr::var("p")).unwrap();
    let fread = heap::h_read_field(&cx, "S", &Ty::U32, 4, p).unwrap();
    let empty = CheckCtx::default();
    let cache = kernel::ReplayCache::new();
    for _ in 0..8 {
        let both_started = std::sync::Barrier::new(2);
        let (results, pool) = ir::sched::par_map(&[&cx, &empty], 2, |_, c| {
            both_started.wait();
            kernel::check_all_with(std::iter::once(("fread", &fread)), c, 1, &cache)
        });
        assert_eq!(pool.workers, 2);
        assert!(results[0].is_ok());
        let Err((_, err)) = &results[1] else {
            panic!("checked under a context without the layout");
        };
        assert!(err.msg.contains("no field of `S` at offset 4"), "{err}");
    }
}
