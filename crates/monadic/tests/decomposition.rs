//! The one decomposition of programs (`Prog::each_child` and
//! `Prog::try_map_children`) and what is built on it: term size, the
//! capture-avoiding substitution and the program typing.

use std::cell::RefCell;
use std::collections::HashMap;

use ir::expr::{BinOp, Expr};
use ir::guard::GuardKind;
use ir::ty::{Ty, TypeEnv};
use ir::update::Update;
use monadic::{Child, IProg, MonadicFn, Prog, ProgTyping, ProgramCtx};
use proptest::prelude::*;

fn x() -> Expr {
    Expr::var("x")
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::binop(BinOp::Add, a, b)
}

fn p(q: Prog) -> IProg {
    IProg::new(q)
}

/// One node of every variant.
fn one_of_each() -> Vec<Prog> {
    let leaf = || Prog::ret(x());
    vec![
        Prog::Return(x()),
        Prog::Gets(Expr::Local("l".into())),
        Prog::Modify(Update::Heap(Ty::U32, x(), Expr::u32(1))),
        Prog::Guard(GuardKind::DivByZero, x()),
        Prog::Throw(x()),
        Prog::Fail,
        Prog::Bind(p(leaf()), "v".into(), p(Prog::ret(Expr::var("v")))),
        Prog::BindTuple(p(leaf()), vec!["a".into(), "b".into()], p(leaf())),
        Prog::Condition(Expr::tt(), p(leaf()), p(Prog::Fail)),
        Prog::While {
            vars: vec!["i".into(), "j".into()],
            cond: Expr::var("i"),
            body: p(leaf()),
            init: vec![x(), Expr::u32(0)],
        },
        Prog::Catch(p(Prog::Throw(x())), "e".into(), p(leaf())),
        Prog::Call {
            fname: "f".into(),
            args: vec![x(), Expr::u32(2)],
        },
        Prog::ExecConcrete(p(leaf())),
        Prog::ExecAbstract(p(leaf())),
    ]
}

/// A part as `each_child` hands it out, owned; an update is flattened
/// into its expressions, as `try_map_children` takes them back.
#[derive(Clone, Debug, PartialEq)]
enum Part {
    Expr(Expr, Vec<String>),
    Prog(IProg, Vec<String>),
}

fn parts(q: &Prog) -> Vec<Part> {
    let mut out = Vec::new();
    q.each_child(&mut |c, bound| match c {
        Child::Expr(e) => out.push(Part::Expr(e.clone(), bound.to_vec())),
        Child::Update(u) => {
            for e in u.exprs() {
                out.push(Part::Expr(e.clone(), bound.to_vec()));
            }
        }
        Child::Prog(sub) => out.push(Part::Prog(sub.clone(), bound.to_vec())),
    });
    out
}

#[test]
fn every_variant_rebuilds_from_its_own_children() {
    for q in one_of_each() {
        let kids = RefCell::new(parts(&q).into_iter());
        let rebuilt = q
            .try_map_children(
                &mut |e, bound| match kids.borrow_mut().next() {
                    Some(Part::Expr(k, b)) if k == *e && b == bound => Ok(k),
                    other => Err(format!(
                        "expression {e} under {bound:?}, expected {other:?}"
                    )),
                },
                &mut |sub, bound| match kids.borrow_mut().next() {
                    Some(Part::Prog(k, b)) if IProg::ptr_eq(&k, sub) && b == bound => Ok(k),
                    other => Err(format!("program under {bound:?}, expected {other:?}")),
                },
            )
            .unwrap_or_else(|e| panic!("{q:?}: {e}"));
        assert!(
            kids.borrow_mut().next().is_none(),
            "{q:?}: a child was not taken back"
        );
        assert!(
            IProg::ptr_eq(&IProg::new(rebuilt), &IProg::new(q.clone())),
            "{q:?}"
        );
    }
}

#[test]
fn binders_are_reported_where_they_scope() {
    let bound: Vec<Vec<String>> = one_of_each()
        .iter()
        .flat_map(parts)
        .map(|k| match k {
            Part::Expr(_, b) | Part::Prog(_, b) => b,
        })
        .filter(|b| !b.is_empty())
        .collect();
    let names = |ns: &[&str]| ns.iter().map(|n| (*n).to_owned()).collect::<Vec<_>>();
    assert_eq!(
        bound,
        vec![
            names(&["v"]),
            names(&["a", "b"]),
            names(&["i", "j"]),
            names(&["i", "j"]),
            names(&["e"]),
        ]
    );
}

/// The term size spelled out variant by variant.
fn naive_size(q: &Prog) -> usize {
    1 + match q {
        Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => e.term_size(),
        Prog::Modify(u) => u.term_size(),
        Prog::Fail => 0,
        Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) | Prog::Catch(l, _, r) => {
            naive_size(l) + naive_size(r)
        }
        Prog::Condition(c, t, e) => c.term_size() + naive_size(t) + naive_size(e),
        Prog::While {
            cond, body, init, ..
        } => cond.term_size() + naive_size(body) + init.iter().map(Expr::term_size).sum::<usize>(),
        Prog::Call { args, .. } => args.iter().map(Expr::term_size).sum(),
        Prog::ExecConcrete(q) | Prog::ExecAbstract(q) => naive_size(q),
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0u32..9).prop_map(Expr::u32),
        "[xyv]".prop_map(Expr::var),
        "[ab]".prop_map(|n| Expr::Local(n.as_str().into())),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| add(a, b))
    })
}

fn arb_prog() -> impl Strategy<Value = Prog> {
    let e = arb_expr();
    let leaf = prop_oneof![
        e.clone().prop_map(Prog::Return),
        e.clone().prop_map(Prog::Gets),
        e.clone().prop_map(Prog::Throw),
        e.clone().prop_map(|g| Prog::Guard(GuardKind::DivByZero, g)),
        e.clone()
            .prop_map(|v| Prog::Modify(Update::Local("a".into(), v))),
        (e.clone(), e.clone()).prop_map(|(a, v)| Prog::Modify(Update::Byte(a, v))),
        Just(Prog::Fail),
        proptest::collection::vec(e.clone(), 0..3).prop_map(|args| Prog::Call {
            fname: "f".into(),
            args
        }),
    ];
    leaf.prop_recursive(4, 24, 2, move |inner| {
        prop_oneof![
            (inner.clone(), "[xv_]", inner.clone()).prop_map(|(l, v, r)| Prog::bind(l, v, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Prog::bind_tuple(
                l,
                vec!["x".into(), "y".into()],
                r
            )),
            (e.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Prog::cond(c, t, f)),
            (e.clone(), inner.clone(), e.clone()).prop_map(|(c, b, i)| Prog::While {
                vars: vec!["v".into()],
                cond: c,
                body: IProg::new(b),
                init: vec![i],
            }),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Prog::Catch(
                IProg::new(l),
                "x".into(),
                IProg::new(r)
            )),
            inner
                .clone()
                .prop_map(|q| Prog::ExecConcrete(IProg::new(q))),
            inner.prop_map(|q| Prog::ExecAbstract(IProg::new(q))),
        ]
    })
}

proptest! {
    #[test]
    fn term_size_is_the_naive_count(q in arb_prog()) {
        prop_assert_eq!(q.term_size(), naive_size(&q));
        prop_assert_eq!(IProg::new(q.clone()).size(), naive_size(&q));
    }

    #[test]
    fn rebuilding_with_identity_rewrites_is_the_same_node(q in arb_prog()) {
        let same = q.rewrite(&|_| None);
        prop_assert!(IProg::ptr_eq(&IProg::new(same), &IProg::new(q.clone())));
        prop_assert_eq!(q.map_exprs(&Expr::clone), q);
    }
}

#[test]
fn substitution_stops_at_a_shadowing_binder() {
    let five = Expr::u32(5);
    let uses_x = || Prog::ret(x());
    let cases = [
        Prog::bind(uses_x(), "x", uses_x()),
        Prog::bind_tuple(uses_x(), vec!["y".into(), "x".into()], uses_x()),
        Prog::Catch(p(uses_x()), "x".into(), p(uses_x())),
    ];
    for q in cases {
        let s = q.subst_var("x", &five).expect("no capture");
        let kids = parts(&s);
        assert_eq!(kids.len(), 2, "{s:?}");
        assert_eq!(
            kids[0],
            Part::Prog(p(Prog::ret(five.clone())), vec![]),
            "{s:?}"
        );
        assert!(
            matches!(&kids[1], Part::Prog(r, _) if **r == uses_x()),
            "{s:?}"
        );
    }
    // A loop's iterator shadows `x` in its condition and body, not in its
    // initial values.
    let lp = Prog::While {
        vars: vec!["x".into()],
        cond: x(),
        body: p(uses_x()),
        init: vec![x()],
    };
    let want = Prog::While {
        vars: vec!["x".into()],
        cond: x(),
        body: p(uses_x()),
        init: vec![five.clone()],
    };
    assert_eq!(lp.subst_var("x", &five), Some(want));
}

#[test]
fn substitution_refuses_a_capture() {
    // Substituting `y` for `x` under a binder of `y` would capture it.
    let y = Expr::var("y");
    let uses_x = || Prog::ret(x());
    let cases = [
        Prog::bind(Prog::skip(), "y", uses_x()),
        Prog::bind_tuple(Prog::skip(), vec!["y".into(), "z".into()], uses_x()),
        Prog::Catch(p(Prog::skip()), "y".into(), p(uses_x())),
        Prog::While {
            vars: vec!["y".into()],
            cond: x(),
            body: p(Prog::skip()),
            init: vec![Expr::u32(0)],
        },
    ];
    for q in cases {
        assert_eq!(q.subst_var("x", &y), None, "{q:?}");
    }
    // Where nothing is captured, every free occurrence is replaced.
    let q = Prog::bind(uses_x(), "z", Prog::cond(x(), uses_x(), Prog::Fail));
    let s = q.subst_var("x", &y).expect("no capture");
    assert!(
        s.free_vars().contains("y") && !s.free_vars().contains("x"),
        "{s}"
    );
}

#[test]
fn typing_follows_bind_chains_and_types_calls_only_from_callees() {
    let vars = HashMap::from([("x".to_owned(), Ty::U32)]);
    let tenv = TypeEnv::default();
    let plain = ProgTyping {
        vars: &vars,
        tenv: &tenv,
        callees: None,
    };
    // `a` and `b` are bound inside nested bind chains, unknown outside.
    let q = Prog::bind(
        Prog::bind(Prog::ret(x()), "a", Prog::ret(Expr::var("a"))),
        "b",
        Prog::bind(
            Prog::ret(Expr::u32(1)),
            "_",
            Prog::ret(Expr::Tuple(vec![Expr::var("b"), x()])),
        ),
    );
    assert_eq!(plain.value_ty(&q), Some(Ty::Tuple(vec![Ty::U32, Ty::U32])));
    assert_eq!(plain.tuple_tys(&q, 2), vec![Some(Ty::U32), Some(Ty::U32)]);
    assert_eq!(plain.tuple_tys(&q, 3), vec![None; 3]);
    assert!(!vars.contains_key("a"), "typing left its bindings behind");

    let call = Prog::Call {
        fname: "g".into(),
        args: vec![],
    };
    let mut prog = ProgramCtx::default();
    prog.fns.insert(
        "g".into(),
        MonadicFn {
            name: "g".into(),
            params: vec![],
            ret_ty: Ty::I32,
            frame: None,
            body: Prog::ret(Expr::u32(0)),
        },
    );
    let with_callees = ProgTyping {
        callees: Some(&prog),
        ..plain
    };
    assert_eq!(plain.value_ty(&call), None);
    assert_eq!(with_callees.value_ty(&call), Some(Ty::I32));
    let unknown = Prog::Call {
        fname: "h".into(),
        args: vec![],
    };
    assert_eq!(with_callees.value_ty(&unknown), None);
}
