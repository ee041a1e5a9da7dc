//! The per-rule table: one row per entry of [`RULES`]. Each row holds a
//! valid application built by the rule's public constructor, which
//! [`check`] must accept, and applications proposed through
//! [`Thm::admit`] that each break one check the conclusion does not show,
//! which the kernel must reject. The same node with one extra premise is
//! rejected for every rule. Together the rows pin the set of theorems the
//! kernel accepts.

use std::collections::BTreeMap;

use ir::expr::{BinOp, Expr};
use ir::guard::GuardKind;
use ir::intern::Interned;
use ir::ty::{Signedness, Ty, Width};
use ir::update::Update;
use ir::value::Value;
use monadic::Prog;
use simpl::stmt::{ISimpl, SimplStmt};

use super::{heap, refine, word};
use crate::codec::RULES;
use crate::judgment::{AbsFun, Judgment, VarCtx};
use crate::thm::{check, CheckCtx, KernelError, Rule, Side, Thm};

/// A valid application and the broken ones, each named by the check it
/// breaks.
struct Row {
    valid: Thm,
    broken: Vec<(&'static str, Result<Thm, KernelError>)>,
}

fn row(valid: Thm) -> Row {
    Row {
        valid,
        broken: vec![],
    }
}

fn row_broken(valid: Thm, broken: Vec<(&'static str, Result<Thm, KernelError>)>) -> Row {
    Row { valid, broken }
}

/// Proposes `premises ⊢ judgment` by `rule` (no side data).
fn propose(
    cx: &CheckCtx,
    rule: Rule,
    premises: &[&Thm],
    judgment: Judgment,
) -> Result<Thm, KernelError> {
    propose_with(cx, rule, premises, judgment, Side::None)
}

fn propose_with(
    cx: &CheckCtx,
    rule: Rule,
    premises: &[&Thm],
    judgment: Judgment,
    side: Side,
) -> Result<Thm, KernelError> {
    let premises = premises.iter().map(|&t| t.clone()).collect();
    Thm::admit(rule, premises, judgment, side, cx)
}

/// `valid`'s own conclusion from `premises`: breaks only what the
/// premises differ in.
fn same_conclusion(cx: &CheckCtx, valid: &Thm, premises: &[&Thm]) -> Result<Thm, KernelError> {
    propose(cx, valid.rule(), premises, valid.judgment().clone())
}

fn ctx(vars: &[(&str, AbsFun)]) -> VarCtx {
    VarCtx::new(
        vars.iter()
            .map(|(n, f)| ((*n).to_owned(), f.clone()))
            .collect(),
    )
}

/// `ctx` plus a variable nothing mentions: premises built in it differ
/// from their twins in `ctx` only in the context.
fn wider(c: &VarCtx) -> VarCtx {
    c.with([("·unused", &AbsFun::Id)])
}

fn checking_context() -> CheckCtx {
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
    cx.fn_abs
        .insert("inc".into(), (vec![AbsFun::Unat], AbsFun::Unat, AbsFun::Id));
    cx
}

#[allow(clippy::too_many_lines)]
fn word_value_rows(cx: &CheckCtx) -> Vec<Row> {
    let ux = ctx(&[("x", AbsFun::Unat), ("y", AbsFun::Unat)]);
    let sx = ctx(&[("x", AbsFun::Sint), ("y", AbsFun::Sint)]);
    let var = |c: &VarCtx, n: &str| word::w_var(cx, c, n).unwrap();
    let mut rows = vec![
        row(var(&ux, "x")),
        row(word::w_lit(cx, &ux, AbsFun::Unat, &Value::u32(2)).unwrap()),
    ];
    use Rule::*;
    for (rules, c) in [
        ([WSum, WSub, WMul, WDiv, WMod], &ux),
        ([SSum, SSub, SMul, SDiv, SMod], &sx),
    ] {
        for rule in rules {
            for w in [Width::W8, Width::W16, Width::W32, Width::W64] {
                let valid = word::w_arith(cx, rule, w, var(c, "x"), var(c, "y")).unwrap();
                let contexts = same_conclusion(cx, &valid, &[&var(c, "x"), &var(&wider(c), "y")]);
                rows.push(row_broken(
                    valid,
                    vec![("equal premise contexts", contexts)],
                ));
            }
        }
    }
    for w in [Width::W8, Width::W64] {
        rows.push(row(word::s_neg(cx, w, var(&sx, "x")).unwrap()));
    }
    let cmp = word::w_cmp(cx, BinOp::Lt, var(&ux, "x"), var(&ux, "y")).unwrap();
    let contexts = same_conclusion(cx, &cmp, &[&var(&ux, "x"), &var(&wider(&ux), "y")]);
    rows.push(row_broken(
        cmp.clone(),
        vec![("equal premise contexts", contexts)],
    ));
    rows.push(row(word::w_reconcretize(
        cx,
        Width::W32,
        Signedness::Unsigned,
        var(&ux, "x"),
    )
    .unwrap()));
    rows.push(row(word::w_reconcretize(
        cx,
        Width::W16,
        Signedness::Signed,
        var(&sx, "x"),
    )
    .unwrap()));
    rows.push(row(word::w_wrap(cx, AbsFun::Unat, var(&ux, "p")).unwrap()));
    rows.push(row(word::w_wrap(cx, AbsFun::Sint, var(&ux, "p")).unwrap()));

    let (p, q) = (Expr::var("p"), Expr::var("q"));
    let sum = Expr::binop(BinOp::Add, p.clone(), q);
    let cong = word::w_id_cong(cx, &ux, &sum, vec![var(&ux, "p"), var(&ux, "q")]).unwrap();
    let contexts = same_conclusion(cx, &cong, &[&var(&ux, "p"), &var(&wider(&ux), "q")]);
    rows.push(row_broken(cong, vec![("equal premise contexts", contexts)]));
    rows.push(row(word::w_id_cong(cx, &ux, &Expr::u32(3), vec![]).unwrap()));
    // A λ-bound leaf is the identity only where the context says so: `p`
    // is not abstracted, `x` is abstracted by `unat`.
    let unat_leaf = Judgment::WVal {
        ctx: ux.clone(),
        pre: Expr::tt(),
        f: AbsFun::Id,
        abs: Expr::var("x"),
        conc: Expr::var("x"),
    };
    rows.push(row_broken(
        word::w_id_cong(cx, &ux, &Expr::var("p"), vec![]).unwrap(),
        vec![
            (
                "identity-abstracted variable",
                word::w_id_cong(cx, &ux, &Expr::var("x"), vec![]),
            ),
            (
                "identity-abstracted variable (proposed)",
                propose(cx, WIdCong, &[], unat_leaf),
            ),
        ],
    ));

    let ite = word::w_ite(cx, cmp.clone(), var(&ux, "x"), var(&ux, "y")).unwrap();
    let contexts = same_conclusion(cx, &ite, &[&cmp, &var(&ux, "x"), &var(&wider(&ux), "y")]);
    // `e` as a tuple abstraction of two ids against `t`'s `id`; the
    // conclusion takes its abstraction from `t` and is the one `e`
    // collapsed by `WTupleId` gives.
    let pair = word::w_tuple(cx, vec![var(&ux, "p"), var(&ux, "q")]).unwrap();
    let pair_id = word::w_tuple_id(cx, pair.clone()).unwrap();
    let ite_id = word::w_ite(cx, cmp.clone(), var(&ux, "p"), pair_id.clone()).unwrap();
    let abstractions = same_conclusion(cx, &ite_id, &[&cmp, &var(&ux, "p"), &pair]);
    rows.push(row_broken(ite, vec![("equal premise contexts", contexts)]));
    rows.push(row_broken(
        ite_id,
        vec![("equal branch abstractions", abstractions)],
    ));

    let tuple = word::w_tuple(cx, vec![var(&ux, "x"), var(&ux, "p")]).unwrap();
    let contexts = same_conclusion(cx, &tuple, &[&var(&ux, "x"), &var(&wider(&ux), "p")]);
    rows.push(row_broken(
        tuple.clone(),
        vec![("equal premise contexts", contexts)],
    ));
    rows.push(row(word::w_tuple(cx, vec![]).unwrap()));
    rows.push(row(word::w_proj(cx, 0, tuple.clone()).unwrap()));
    rows.push(row(word::w_proj(cx, 1, tuple).unwrap()));
    rows.push(row(pair_id));
    rows.push(row(word::w_tuple_wrap(
        cx,
        &[AbsFun::Unat, AbsFun::Id, AbsFun::Sint],
        var(&ux, "t"),
    )
    .unwrap()));

    // Sec 3.3's overflow idiom: `UINT_MAX < x + y` abstracts `x +w y <w x`.
    let idiom = |abs: Expr| Judgment::WVal {
        ctx: ux.clone(),
        pre: Expr::tt(),
        f: AbsFun::Id,
        abs,
        conc: Expr::binop(
            BinOp::Lt,
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y")),
            Expr::var("x"),
        ),
    };
    let sum_xy = Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y"));
    let vars: BTreeMap<String, Ty> = [("x".to_owned(), Ty::U32), ("y".to_owned(), Ty::U32)].into();
    let sampled = word::w_custom_sampled(
        cx,
        idiom(Expr::binop(
            BinOp::Lt,
            Expr::nat(u64::from(u32::MAX)),
            sum_xy.clone(),
        )),
        vars.clone(),
        500,
        99,
    )
    .unwrap();
    // `x + y ≤ UINT_MAX` is the idiom's negation.
    let false_idiom = idiom(Expr::binop(
        BinOp::Le,
        sum_xy,
        Expr::nat(u64::from(u32::MAX)),
    ));
    let side = Side::SampledWVal {
        vars,
        trials: 500,
        seed: 99,
    };
    let sampling = propose_with(cx, WCustomSampled, &[], false_idiom, side);
    rows.push(row_broken(sampled, vec![("sampling evidence", sampling)]));
    rows
}

#[allow(clippy::too_many_lines)]
fn word_stmt_rows(cx: &CheckCtx) -> Vec<Row> {
    use Rule::*;
    let ux = ctx(&[("x", AbsFun::Unat), ("y", AbsFun::Unat)]);
    let var = |c: &VarCtx, n: &str| word::w_var(cx, c, n).unwrap();
    let ret = |rule: Rule, other: AbsFun, v: Thm| word::ws_value_stmt(cx, rule, other, v).unwrap();
    let cmp = |c: &VarCtx| word::w_cmp(cx, BinOp::Lt, var(c, "x"), var(c, "y")).unwrap();
    let sum = word::w_arith(cx, WSum, Width::W32, var(&ux, "x"), var(&ux, "y")).unwrap();
    let mut rows = vec![
        row(ret(WsRet, AbsFun::Id, sum)),
        row(ret(WsGets, AbsFun::Id, var(&ux, "x"))),
        row(ret(WsThrow, AbsFun::Unat, var(&ux, "x"))),
        row(word::ws_guard(cx, GuardKind::DivByZero, AbsFun::Id, cmp(&ux)).unwrap()),
        row(word::ws_fail(cx, &ux, AbsFun::Unat, AbsFun::Id).unwrap()),
    ];

    let set_l = Update::Local("l".into(), Expr::var("p"));
    let modify = word::ws_modify(cx, &ux, AbsFun::Id, &set_l, vec![var(&ux, "p")]).unwrap();
    let contexts = same_conclusion(cx, &modify, &[&var(&wider(&ux), "p")]);
    rows.push(row_broken(
        modify,
        vec![("equal premise contexts", contexts)],
    ));
    let write = Update::Heap(Ty::U32, Expr::var("p"), Expr::var("q"));
    rows.push(row(word::ws_modify(
        cx,
        &ux,
        AbsFun::Id,
        &write,
        vec![var(&ux, "p"), var(&ux, "q")],
    )
    .unwrap()));

    // The right premise sees the bound variable at the left side's
    // abstraction; `w_lit` premises differ only in their context.
    let lit_in = |c: &VarCtx, f: AbsFun| word::w_lit(cx, c, f, &Value::u32(1)).unwrap();
    let with = |binds: &[(&str, AbsFun)]| ux.with(binds.iter().map(|(v, f)| (*v, f)));
    let left = ret(WsRet, AbsFun::Id, var(&ux, "x"));
    let right = |c: &VarCtx| ret(WsRet, AbsFun::Id, lit_in(c, AbsFun::Unat));
    let bind = word::ws_bind(cx, "v", left.clone(), right(&with(&[("v", AbsFun::Unat)]))).unwrap();
    let unbound = same_conclusion(cx, &bind, &[&left, &right(&ux)]);
    rows.push(row_broken(bind, vec![("right premise context", unbound)]));

    let pair = word::w_tuple(cx, vec![var(&ux, "x"), var(&ux, "y")]).unwrap();
    let left = ret(WsRet, AbsFun::Id, pair);
    let both = with(&[("u", AbsFun::Unat), ("w", AbsFun::Unat)]);
    let vs = ["u".to_owned(), "w".to_owned()];
    let bind_tuple = word::ws_bind_tuple(cx, &vs, left.clone(), right(&both)).unwrap();
    let unbound = same_conclusion(cx, &bind_tuple, &[&left, &right(&ux)]);
    rows.push(row_broken(
        bind_tuple,
        vec![("right premise context", unbound)],
    ));

    let thrower = ret(WsThrow, AbsFun::Id, var(&ux, "x"));
    let handler = |c: &VarCtx| ret(WsRet, AbsFun::Id, lit_in(c, AbsFun::Id));
    let catch = word::ws_catch(
        cx,
        "v",
        thrower.clone(),
        handler(&with(&[("v", AbsFun::Unat)])),
    )
    .unwrap();
    let unbound = same_conclusion(cx, &catch, &[&thrower, &handler(&ux)]);
    rows.push(row_broken(catch, vec![("right premise context", unbound)]));

    let (t, e) = (
        ret(WsRet, AbsFun::Id, var(&ux, "x")),
        ret(WsRet, AbsFun::Id, var(&ux, "y")),
    );
    let cond = word::ws_cond(cx, cmp(&ux), t.clone(), e.clone()).unwrap();
    let wide_e = ret(WsRet, AbsFun::Id, var(&wider(&ux), "y"));
    let contexts = same_conclusion(cx, &cond, &[&cmp(&ux), &t, &wide_e]);
    rows.push(row_broken(cond, vec![("equal premise contexts", contexts)]));

    // while (i < y) return i, from i = x.
    let inner = with(&[("i", AbsFun::Unat)]);
    let loop_cond = word::w_cmp(cx, BinOp::Lt, var(&inner, "i"), var(&inner, "y")).unwrap();
    let body = ret(WsRet, AbsFun::Id, var(&inner, "i"));
    let vars = ["i".to_owned()];
    let wloop = word::ws_while(
        cx,
        &ux,
        &vars,
        loop_cond.clone(),
        body.clone(),
        vec![var(&ux, "x")],
    )
    .unwrap();
    let contexts = same_conclusion(cx, &wloop, &[&loop_cond, &body, &var(&wider(&ux), "x")]);
    rows.push(row_broken(
        wloop,
        vec![("equal premise contexts", contexts)],
    ));

    let call = word::ws_call(cx, &ux, "inc", vec![var(&ux, "x")], AbsFun::Id).unwrap();
    let contexts = same_conclusion(cx, &call, &[&var(&wider(&ux), "x")]);
    rows.push(row_broken(call, vec![("equal premise contexts", contexts)]));
    rows.push(row(word::ws_call(
        cx,
        &ux,
        "ext",
        vec![var(&ux, "p")],
        AbsFun::Unat,
    )
    .unwrap()));
    let marker = Prog::ExecConcrete(Interned::new(Prog::skip()));
    rows.push(row(word::ws_exec_concrete(cx, &ux, &marker).unwrap()));
    rows
}

#[allow(clippy::too_many_lines)]
fn heap_rows(cx: &CheckCtx) -> Vec<Row> {
    use Rule::*;
    let leaf = |e: &Expr| heap::h_leaf(cx, e).unwrap();
    let (p, b, one) = (Expr::var("p"), Expr::var("b"), Expr::u32(1));
    let read = || heap::h_read(cx, &Ty::U32, leaf(&p)).unwrap();
    let upd = || heap::h_upd(cx, &Ty::U32, leaf(&p), leaf(&one)).unwrap();
    let fail = || heap::hs_fail(cx).unwrap();
    let ret_read = || heap::hs_value_stmt(cx, HsRet, read()).unwrap();
    let read_field = heap::h_read_field(cx, "node", &Ty::U32, 4, leaf(&p)).unwrap();
    // The same field read through another pointer on the abstract side.
    let Judgment::HVal { pre, conc, .. } = read_field.judgment().clone() else {
        unreachable!()
    };
    let elsewhere = Expr::field(
        Expr::read_heap(Ty::Struct("node".into()), Expr::var("q")),
        "data".to_owned(),
    );
    let pointer = propose(
        cx,
        HReadField,
        &[&leaf(&p)],
        Judgment::HVal {
            pre,
            abs: elsewhere,
            conc,
        },
    );
    let mut rows = vec![
        row(leaf(&one)),
        row(leaf(&p)),
        row(leaf(&Expr::local("l"))),
        row(heap::h_cong(
            cx,
            &Expr::binop(BinOp::Add, p.clone(), one.clone()),
            vec![leaf(&p), leaf(&one)],
        )
        .unwrap()),
        row(heap::h_val_weaken(cx, BinOp::And, leaf(&b), read()).unwrap()),
        row(heap::h_val_weaken(cx, BinOp::Or, leaf(&b), leaf(&b)).unwrap()),
        row(read()),
        row_broken(read_field, vec![("abstract pointer", pointer)]),
        row(heap::h_guard_ptr(cx, &Ty::U32, leaf(&p)).unwrap()),
        row(upd()),
        row(heap::h_upd_field(cx, "node", &Ty::U32, 4, leaf(&p), leaf(&one)).unwrap()),
        row(heap::h_upd_var(
            cx,
            &Update::Local("l".into(), Expr::read_heap(Ty::U32, p.clone())),
            read(),
        )
        .unwrap()),
        row(heap::hs_value_stmt(cx, HsGets, read()).unwrap()),
        row(ret_read()),
        row(heap::hs_value_stmt(cx, HsThrow, read()).unwrap()),
        row(heap::hs_modify(cx, upd()).unwrap()),
        row(heap::hs_guard(
            cx,
            GuardKind::PtrValid,
            heap::h_guard_ptr(cx, &Ty::U32, leaf(&p)).unwrap(),
        )
        .unwrap()),
        row(heap::hs_guard(cx, GuardKind::DivByZero, leaf(&b)).unwrap()),
        row(fail()),
        row(heap::hs_bind(cx, "v", ret_read(), fail()).unwrap()),
        row(
            heap::hs_bind_tuple(cx, &["u".to_owned(), "w".to_owned()], ret_read(), fail()).unwrap(),
        ),
        row(heap::hs_cond(cx, leaf(&b), ret_read(), fail()).unwrap()),
        row(heap::hs_catch(cx, "v", ret_read(), fail()).unwrap()),
        row(heap::hs_exec_concrete(cx, &Prog::skip()).unwrap()),
    ];

    // while (s[p] < i) fail, from i = 0: the read's validity guards the loop.
    let i = Expr::var("i");
    let below = Expr::binop(BinOp::Lt, Expr::read_heap(Ty::U32, p.clone()), i.clone());
    let loop_cond = heap::h_cong(cx, &below, vec![read(), leaf(&i)]).unwrap();
    let vars = ["i".to_owned()];
    rows.push(row(heap::hs_while(
        cx,
        &vars,
        &[Expr::u32(0)],
        loop_cond,
        fail(),
    )
    .unwrap()));
    let two = ["i".to_owned(), "j".to_owned()];
    let both = Expr::binop(
        BinOp::Lt,
        Expr::read_heap(Ty::U32, i.clone()),
        Expr::var("j"),
    );
    let loop_cond = heap::h_cong(
        cx,
        &both,
        vec![
            heap::h_read(cx, &Ty::U32, leaf(&i)).unwrap(),
            leaf(&Expr::var("j")),
        ],
    )
    .unwrap();
    rows.push(row(heap::hs_while(
        cx,
        &two,
        &[p.clone(), one.clone()],
        loop_cond,
        fail(),
    )
    .unwrap()));
    let truth = leaf(&Expr::tt());
    let valid = heap::hs_while(cx, &vars, &[Expr::u32(0)], truth.clone(), fail()).unwrap();
    let heap_loop = |init: Expr| Prog::While {
        vars: vars.to_vec(),
        cond: Expr::tt(),
        body: Interned::new(Prog::Fail),
        init: vec![init],
    };
    let rh = Expr::read_heap(Ty::U32, p.clone());
    let init = propose(
        cx,
        HsWhile,
        &[&truth, &fail()],
        Judgment::HStmt {
            abs: heap_loop(rh.clone()),
            conc: heap_loop(rh.clone()),
        },
    );
    rows.push(row_broken(valid, vec![("heap-free initialisers", init)]));

    let valid = heap::hs_call(cx, "f", std::slice::from_ref(&p)).unwrap();
    let call = Prog::Call {
        fname: "f".into(),
        args: vec![rh],
    };
    let args = propose(
        cx,
        HsCall,
        &[],
        Judgment::HStmt {
            abs: call.clone(),
            conc: call,
        },
    );
    rows.push(row_broken(valid, vec![("heap-free arguments", args)]));
    rows
}

fn l1_rows(cx: &CheckCtx) -> Vec<Row> {
    let l1 = |s: &SimplStmt, subs: Vec<Thm>| refine::l1(cx, &ISimpl::new(s.clone()), subs).unwrap();
    let basic = SimplStmt::Basic(Update::Local("x".into(), Expr::u32(1)));
    let skip = l1(&SimplStmt::Skip, vec![]);
    let set = l1(&basic, vec![]);
    let throw = l1(&SimplStmt::Throw, vec![]);
    let handle = |s: &SimplStmt| ISimpl::new(s.clone());
    let c = Expr::binop(BinOp::Lt, Expr::var("x"), Expr::u32(3));
    let call = |ret_local: Option<String>| SimplStmt::Call {
        fname: "f".into(),
        args: vec![Expr::var("x")],
        ret_local,
    };
    vec![
        row(skip.clone()),
        row(set.clone()),
        row(l1(
            &SimplStmt::Seq(handle(&SimplStmt::Skip), handle(&basic)),
            vec![skip.clone(), set.clone()],
        )),
        row(l1(
            &SimplStmt::Cond(c.clone(), handle(&basic), handle(&SimplStmt::Skip)),
            vec![set.clone(), skip.clone()],
        )),
        row(l1(
            &SimplStmt::While(c.clone(), handle(&basic)),
            vec![set.clone()],
        )),
        row(l1(
            &SimplStmt::Guard(GuardKind::DivByZero, c, handle(&basic)),
            vec![set],
        )),
        row(throw.clone()),
        row(l1(
            &SimplStmt::TryCatch(handle(&SimplStmt::Throw), handle(&SimplStmt::Skip)),
            vec![throw, skip],
        )),
        row(l1(&call(Some("r".into())), vec![])),
        row(l1(&call(None), vec![])),
    ]
}

fn refine_rows(cx: &CheckCtx) -> Vec<Row> {
    use Rule::*;
    let (p, q) = (Prog::ret(Expr::u32(1)), Prog::ret(Expr::var("v")));
    let refl = |p: &Prog| refine::refines_refl(cx, p).unwrap();
    let refines = |abs: &Prog, conc: &Prog| Judgment::Refines {
        abs: abs.clone(),
        conc: conc.clone(),
    };
    let trans = refine::refines_trans(cx, refl(&p), refl(&p)).unwrap();
    let middle = propose(cx, TransRefines, &[&refl(&p), &refl(&q)], refines(&p, &q));

    let x = Expr::var("x");
    let provable = Prog::Guard(
        GuardKind::ShiftBound,
        Expr::binop(BinOp::Lt, Expr::u32(4), Expr::u32(32)),
    );
    let open = Prog::Guard(
        GuardKind::ShiftBound,
        Expr::binop(BinOp::Lt, x.clone(), Expr::u32(32)),
    );
    let simplifier = propose(cx, DischargeGuard, &[], refines(&Prog::skip(), &open));

    let hyp = Expr::binop(BinOp::Le, x.clone(), Expr::nat(12u64));
    let guard = Expr::binop(
        BinOp::Le,
        Expr::binop(BinOp::Add, x.clone(), Expr::nat(1u64)),
        Expr::nat(13u64),
    );
    let absint = refine::absint_discharge(cx, &hyp, GuardKind::UnsignedOverflow, &guard).unwrap();
    let entailment = propose(
        cx,
        AbsintDischarge,
        &[],
        Judgment::AbsGuard {
            hyp: Expr::tt(),
            kind: GuardKind::UnsignedOverflow,
            guard,
        },
    );

    let tested = refine::exec_tested(cx, &p, &p, 10, 7, || Ok(())).unwrap();
    let no_trials = propose_with(
        cx,
        ExecTested,
        &[],
        refines(&p, &p),
        Side::Tested { trials: 0, seed: 7 },
    );

    let vars = ["i".to_owned()];
    let lt = Expr::binop(BinOp::Lt, Expr::var("i"), Expr::u32(3));
    vec![
        row(refl(&p)),
        row_broken(trans, vec![("middle program", middle)]),
        row(refine::bind_cong(cx, "v", refl(&p), refl(&q)).unwrap()),
        row(refine::cond_cong(cx, &x, refl(&p), refl(&q)).unwrap()),
        row(refine::catch_cong(cx, "v", refl(&p), refl(&q)).unwrap()),
        row(refine::while_cong(cx, &vars, &lt, &[Expr::u32(0)], refl(&q)).unwrap()),
        row_broken(
            refine::discharge_guard(cx, &provable).unwrap(),
            vec![("simplifier evidence", simplifier)],
        ),
        row_broken(absint, vec![("interval entailment", entailment)]),
        row_broken(tested, vec![("trials > 0", no_trials)]),
    ]
}

#[test]
fn the_kernel_accepts_each_rules_applications_and_nothing_else() {
    let cx = checking_context();
    let rows: Vec<Row> = [
        word_value_rows,
        word_stmt_rows,
        heap_rows,
        l1_rows,
        refine_rows,
    ]
    .iter()
    .flat_map(|rows| rows(&cx))
    .collect();
    let mut failures = Vec::new();
    for rule in RULES {
        let mine: Vec<&Row> = rows.iter().filter(|r| r.valid.rule() == rule).collect();
        if mine.is_empty() {
            failures.push(format!("{rule:?}: no row"));
        }
        for row in mine {
            let t = &row.valid;
            if let Err(e) = check(t, &cx) {
                failures.push(format!("{rule:?}: valid application rejected: {e}"));
            }
            let mut extra = t.premises().to_vec();
            extra.push(t.clone());
            if Thm::admit(rule, extra, t.judgment().clone(), t.side().clone(), &cx).is_ok() {
                failures.push(format!("{rule:?}: accepted an extra premise"));
            }
            for (what, broken) in &row.broken {
                if broken.is_ok() {
                    failures.push(format!("{rule:?}: accepted an application breaking {what}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
