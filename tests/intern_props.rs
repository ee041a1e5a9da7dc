//! Properties of the hash-consed term representation: the interned `Eq` and
//! `Hash` (pointer fast path, cached structural hash) must agree with a
//! reference deep-structural implementation written here from scratch, the
//! cached subterm sizes must match a fresh recursive walk, and structurally
//! equal constructions must land on the same interner allocation — both on
//! random synthetic trees and on every term the pipeline produces for
//! `codegen`-generated programs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use autocorres::{translate, Options, Output};
use ir::expr::{BinOp, CastKind, Expr, IExpr, UnOp};
use ir::guard::GuardKind;
use ir::ty::Ty;
use ir::update::Update;
use monadic::{IProg, Prog};
use proptest::prelude::*;
use proptest::sample;
use simpl::{ISimpl, SimplStmt};

// ---------------------------------------------------------------------------
// Reference implementations (deliberately interner-blind: they never touch
// `ptr_eq`, cached hashes, or cached sizes — only plain recursion).
// ---------------------------------------------------------------------------

fn deep_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Lit(x), Expr::Lit(y)) => x == y,
        (Expr::Var(x), Expr::Var(y))
        | (Expr::Local(x), Expr::Local(y))
        | (Expr::Global(x), Expr::Global(y)) => x.as_str() == y.as_str(),
        (Expr::ReadHeap(t, e), Expr::ReadHeap(u, f))
        | (Expr::IsValid(t, e), Expr::IsValid(u, f))
        | (Expr::PtrAligned(t, e), Expr::PtrAligned(u, f))
        | (Expr::NullFree(t, e), Expr::NullFree(u, f)) => t == u && deep_eq(e, f),
        (Expr::ReadByte(e), Expr::ReadByte(f)) => deep_eq(e, f),
        (Expr::Field(e, n), Expr::Field(f, m)) => n == m && deep_eq(e, f),
        (Expr::UpdateField(s, n, v), Expr::UpdateField(s2, m, v2)) => {
            n == m && deep_eq(s, s2) && deep_eq(v, v2)
        }
        (Expr::UnOp(o, e), Expr::UnOp(p, f)) => o == p && deep_eq(e, f),
        (Expr::BinOp(o, l, r), Expr::BinOp(p, l2, r2)) => {
            o == p && deep_eq(l, l2) && deep_eq(r, r2)
        }
        (Expr::Cast(k, e), Expr::Cast(j, f)) => k == j && deep_eq(e, f),
        (Expr::Ite(c, t, e), Expr::Ite(c2, t2, e2)) => {
            deep_eq(c, c2) && deep_eq(t, t2) && deep_eq(e, e2)
        }
        (Expr::Tuple(xs), Expr::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| deep_eq(x, y))
        }
        (Expr::Proj(i, e), Expr::Proj(j, f)) => i == j && deep_eq(e, f),
        (Expr::Index(a, i), Expr::Index(a2, i2)) => deep_eq(a, a2) && deep_eq(i, i2),
        (Expr::ArrUpd(a, i, v), Expr::ArrUpd(a2, i2, v2)) => {
            deep_eq(a, a2) && deep_eq(i, i2) && deep_eq(v, v2)
        }
        _ => false,
    }
}

fn deep_eq_update(a: &Update, b: &Update) -> bool {
    match (a, b) {
        (Update::Local(n, e), Update::Local(m, f))
        | (Update::Global(n, e), Update::Global(m, f)) => n == m && deep_eq(e, f),
        (Update::Heap(t, p, v), Update::Heap(u, q, w)) => {
            t == u && deep_eq(p, q) && deep_eq(v, w)
        }
        (Update::Byte(p, v), Update::Byte(q, w)) => deep_eq(p, q) && deep_eq(v, w),
        (Update::TagRegion(t, p), Update::TagRegion(u, q)) => t == u && deep_eq(p, q),
        _ => false,
    }
}

fn deep_eq_prog(a: &Prog, b: &Prog) -> bool {
    match (a, b) {
        (Prog::Return(e), Prog::Return(f))
        | (Prog::Gets(e), Prog::Gets(f))
        | (Prog::Throw(e), Prog::Throw(f)) => deep_eq(e, f),
        (Prog::Guard(k, e), Prog::Guard(j, f)) => k == j && deep_eq(e, f),
        (Prog::Modify(u), Prog::Modify(v)) => deep_eq_update(u, v),
        (Prog::Fail, Prog::Fail) => true,
        (Prog::Bind(l, v, r), Prog::Bind(l2, v2, r2))
        | (Prog::Catch(l, v, r), Prog::Catch(l2, v2, r2)) => {
            v == v2 && deep_eq_prog(l, l2) && deep_eq_prog(r, r2)
        }
        (Prog::BindTuple(l, vs, r), Prog::BindTuple(l2, vs2, r2)) => {
            vs == vs2 && deep_eq_prog(l, l2) && deep_eq_prog(r, r2)
        }
        (Prog::Condition(c, t, e), Prog::Condition(c2, t2, e2)) => {
            deep_eq(c, c2) && deep_eq_prog(t, t2) && deep_eq_prog(e, e2)
        }
        (
            Prog::While {
                vars,
                cond,
                body,
                init,
            },
            Prog::While {
                vars: vars2,
                cond: cond2,
                body: body2,
                init: init2,
            },
        ) => {
            vars == vars2
                && deep_eq(cond, cond2)
                && deep_eq_prog(body, body2)
                && init.len() == init2.len()
                && init.iter().zip(init2).all(|(x, y)| deep_eq(x, y))
        }
        (Prog::Call { fname, args }, Prog::Call { fname: f2, args: a2 }) => {
            fname == f2 && args.len() == a2.len() && args.iter().zip(a2).all(|(x, y)| deep_eq(x, y))
        }
        (Prog::ExecConcrete(p), Prog::ExecConcrete(q))
        | (Prog::ExecAbstract(p), Prog::ExecAbstract(q)) => deep_eq_prog(p, q),
        _ => false,
    }
}

fn deep_eq_simpl(a: &SimplStmt, b: &SimplStmt) -> bool {
    match (a, b) {
        (SimplStmt::Skip, SimplStmt::Skip) | (SimplStmt::Throw, SimplStmt::Throw) => true,
        (SimplStmt::Basic(u), SimplStmt::Basic(v)) => deep_eq_update(u, v),
        (SimplStmt::Seq(l, r), SimplStmt::Seq(l2, r2))
        | (SimplStmt::TryCatch(l, r), SimplStmt::TryCatch(l2, r2)) => {
            deep_eq_simpl(l, l2) && deep_eq_simpl(r, r2)
        }
        (SimplStmt::Cond(c, t, e), SimplStmt::Cond(c2, t2, e2)) => {
            deep_eq(c, c2) && deep_eq_simpl(t, t2) && deep_eq_simpl(e, e2)
        }
        (SimplStmt::While(c, b), SimplStmt::While(c2, b2)) => {
            deep_eq(c, c2) && deep_eq_simpl(b, b2)
        }
        (SimplStmt::Guard(k, g, b), SimplStmt::Guard(k2, g2, b2)) => {
            k == k2 && deep_eq(g, g2) && deep_eq_simpl(b, b2)
        }
        (
            SimplStmt::Call {
                fname,
                args,
                ret_local,
            },
            SimplStmt::Call {
                fname: f2,
                args: a2,
                ret_local: r2,
            },
        ) => {
            fname == f2
                && ret_local == r2
                && args.len() == a2.len()
                && args.iter().zip(a2).all(|(x, y)| deep_eq(x, y))
        }
        _ => false,
    }
}

/// Reference term size: the documented Table 5 node-count semantics,
/// recomputed by plain recursion (never `Interned::size`).
fn ref_size_expr(e: &Expr) -> usize {
    match e {
        Expr::Local(_) => 3,
        Expr::Lit(_) | Expr::Var(_) | Expr::Global(_) => 1,
        Expr::ReadHeap(_, e)
        | Expr::ReadByte(e)
        | Expr::IsValid(_, e)
        | Expr::PtrAligned(_, e)
        | Expr::NullFree(_, e)
        | Expr::Field(e, _)
        | Expr::UnOp(_, e)
        | Expr::Cast(_, e)
        | Expr::Proj(_, e) => 1 + ref_size_expr(e),
        Expr::UpdateField(a, _, b) | Expr::BinOp(_, a, b) | Expr::Index(a, b) => {
            1 + ref_size_expr(a) + ref_size_expr(b)
        }
        Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => {
            1 + ref_size_expr(a) + ref_size_expr(b) + ref_size_expr(c)
        }
        Expr::Tuple(es) => 1 + es.iter().map(ref_size_expr).sum::<usize>(),
    }
}

fn ref_size_update(u: &Update) -> usize {
    match u {
        Update::Local(_, e) => 4 + ref_size_expr(e),
        Update::Global(_, e) | Update::TagRegion(_, e) => 1 + ref_size_expr(e),
        Update::Heap(_, p, e) | Update::Byte(p, e) => 1 + ref_size_expr(p) + ref_size_expr(e),
    }
}

fn ref_size_prog(p: &Prog) -> usize {
    match p {
        Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => {
            1 + ref_size_expr(e)
        }
        Prog::Modify(u) => 1 + ref_size_update(u),
        Prog::Fail => 1,
        Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) | Prog::Catch(l, _, r) => {
            1 + ref_size_prog(l) + ref_size_prog(r)
        }
        Prog::Condition(c, t, e) => 1 + ref_size_expr(c) + ref_size_prog(t) + ref_size_prog(e),
        Prog::While {
            cond, body, init, ..
        } => {
            1 + ref_size_expr(cond)
                + ref_size_prog(body)
                + init.iter().map(ref_size_expr).sum::<usize>()
        }
        Prog::Call { args, .. } => 1 + args.iter().map(ref_size_expr).sum::<usize>(),
        Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => 1 + ref_size_prog(p),
    }
}

fn ref_size_simpl(s: &SimplStmt) -> usize {
    match s {
        SimplStmt::Skip | SimplStmt::Throw => 1,
        SimplStmt::Basic(u) => 1 + ref_size_update(u),
        SimplStmt::Seq(a, b) | SimplStmt::TryCatch(a, b) => {
            1 + ref_size_simpl(a) + ref_size_simpl(b)
        }
        SimplStmt::Cond(c, a, b) => 1 + ref_size_expr(c) + ref_size_simpl(a) + ref_size_simpl(b),
        SimplStmt::While(c, b) | SimplStmt::Guard(_, c, b) => {
            1 + ref_size_expr(c) + ref_size_simpl(b)
        }
        SimplStmt::Call { args, .. } => 1 + args.iter().map(ref_size_expr).sum::<usize>(),
    }
}

/// Rebuilds a term bottom-up through the public constructors, interning
/// every node afresh (symbols go back through their string spelling). The
/// result is deep-structurally equal to the input by construction, so it
/// must also be `==` and hash-equal to it, and canonically `ptr_eq`.
fn rebuild_expr(e: &Expr) -> Expr {
    match e {
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Var(s) => Expr::var(s.as_str()),
        Expr::Local(s) => Expr::local(s.as_str()),
        Expr::Global(s) => Expr::global(s.as_str()),
        Expr::ReadHeap(t, e) => Expr::ReadHeap(t.clone(), IExpr::new(rebuild_expr(e))),
        Expr::ReadByte(e) => Expr::ReadByte(IExpr::new(rebuild_expr(e))),
        Expr::IsValid(t, e) => Expr::IsValid(t.clone(), IExpr::new(rebuild_expr(e))),
        Expr::PtrAligned(t, e) => Expr::PtrAligned(t.clone(), IExpr::new(rebuild_expr(e))),
        Expr::NullFree(t, e) => Expr::NullFree(t.clone(), IExpr::new(rebuild_expr(e))),
        Expr::Field(e, n) => Expr::Field(IExpr::new(rebuild_expr(e)), n.clone()),
        Expr::UpdateField(s, n, v) => Expr::UpdateField(
            IExpr::new(rebuild_expr(s)),
            n.clone(),
            IExpr::new(rebuild_expr(v)),
        ),
        Expr::UnOp(o, e) => Expr::unop(*o, rebuild_expr(e)),
        Expr::BinOp(o, l, r) => Expr::binop(*o, rebuild_expr(l), rebuild_expr(r)),
        Expr::Cast(k, e) => Expr::Cast(k.clone(), IExpr::new(rebuild_expr(e))),
        Expr::Ite(c, t, e) => Expr::ite(rebuild_expr(c), rebuild_expr(t), rebuild_expr(e)),
        Expr::Tuple(es) => Expr::Tuple(es.iter().map(rebuild_expr).collect()),
        Expr::Proj(i, e) => Expr::Proj(*i, IExpr::new(rebuild_expr(e))),
        Expr::Index(a, i) => Expr::index(rebuild_expr(a), rebuild_expr(i)),
        Expr::ArrUpd(a, i, v) => {
            Expr::arr_upd(rebuild_expr(a), rebuild_expr(i), rebuild_expr(v))
        }
    }
}

fn rebuild_update(u: &Update) -> Update {
    match u {
        Update::Local(n, e) => Update::Local(n.clone(), rebuild_expr(e)),
        Update::Global(n, e) => Update::Global(n.clone(), rebuild_expr(e)),
        Update::Heap(t, p, e) => Update::Heap(t.clone(), rebuild_expr(p), rebuild_expr(e)),
        Update::Byte(p, e) => Update::Byte(rebuild_expr(p), rebuild_expr(e)),
        Update::TagRegion(t, p) => Update::TagRegion(t.clone(), rebuild_expr(p)),
    }
}

fn rebuild_prog(p: &Prog) -> Prog {
    match p {
        Prog::Return(e) => Prog::Return(rebuild_expr(e)),
        Prog::Gets(e) => Prog::Gets(rebuild_expr(e)),
        Prog::Modify(u) => Prog::Modify(rebuild_update(u)),
        Prog::Guard(k, e) => Prog::Guard(k.clone(), rebuild_expr(e)),
        Prog::Throw(e) => Prog::Throw(rebuild_expr(e)),
        Prog::Fail => Prog::Fail,
        Prog::Bind(l, v, r) => Prog::Bind(
            IProg::new(rebuild_prog(l)),
            v.clone(),
            IProg::new(rebuild_prog(r)),
        ),
        Prog::BindTuple(l, vs, r) => Prog::BindTuple(
            IProg::new(rebuild_prog(l)),
            vs.clone(),
            IProg::new(rebuild_prog(r)),
        ),
        Prog::Condition(c, t, e) => Prog::Condition(
            rebuild_expr(c),
            IProg::new(rebuild_prog(t)),
            IProg::new(rebuild_prog(e)),
        ),
        Prog::While {
            vars,
            cond,
            body,
            init,
        } => Prog::While {
            vars: vars.clone(),
            cond: rebuild_expr(cond),
            body: IProg::new(rebuild_prog(body)),
            init: init.iter().map(rebuild_expr).collect(),
        },
        Prog::Catch(l, v, r) => Prog::Catch(
            IProg::new(rebuild_prog(l)),
            v.clone(),
            IProg::new(rebuild_prog(r)),
        ),
        Prog::Call { fname, args } => Prog::Call {
            fname: fname.clone(),
            args: args.iter().map(rebuild_expr).collect(),
        },
        Prog::ExecConcrete(p) => Prog::ExecConcrete(IProg::new(rebuild_prog(p))),
        Prog::ExecAbstract(p) => Prog::ExecAbstract(IProg::new(rebuild_prog(p))),
    }
}

fn rebuild_simpl(s: &SimplStmt) -> SimplStmt {
    let sub = |s: &SimplStmt| ISimpl::new(rebuild_simpl(s));
    match s {
        SimplStmt::Skip => SimplStmt::Skip,
        SimplStmt::Throw => SimplStmt::Throw,
        SimplStmt::Basic(u) => SimplStmt::Basic(rebuild_update(u)),
        SimplStmt::Seq(a, b) => SimplStmt::Seq(sub(a), sub(b)),
        SimplStmt::TryCatch(a, b) => SimplStmt::TryCatch(sub(a), sub(b)),
        SimplStmt::Cond(c, a, b) => SimplStmt::Cond(rebuild_expr(c), sub(a), sub(b)),
        SimplStmt::While(c, b) => SimplStmt::While(rebuild_expr(c), sub(b)),
        SimplStmt::Guard(k, g, b) => SimplStmt::Guard(k.clone(), rebuild_expr(g), sub(b)),
        SimplStmt::Call {
            fname,
            args,
            ret_local,
        } => SimplStmt::Call {
            fname: fname.clone(),
            args: args.iter().map(rebuild_expr).collect(),
            ret_local: ret_local.clone(),
        },
    }
}

fn std_hash<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The full consistency bundle for one expression.
fn check_expr(e: &Expr) {
    let rebuilt = rebuild_expr(e);
    assert!(deep_eq(e, &rebuilt), "rebuild must be deep-equal: {e:?}");
    assert_eq!(*e, rebuilt, "interned Eq disagrees with deep-equal rebuild");
    assert_eq!(
        std_hash(e),
        std_hash(&rebuilt),
        "hash differs across deep-equal constructions of {e:?}"
    );
    let a = IExpr::new(e.clone());
    let b = IExpr::new(rebuilt);
    assert!(
        IExpr::ptr_eq(&a, &b),
        "structurally equal constructions must share one allocation: {e:?}"
    );
    assert_eq!(a.structural_hash(), b.structural_hash());
    assert_eq!(a.size(), ref_size_expr(e), "cached size wrong for {e:?}");
}

/// The full consistency bundle for one program.
fn check_prog(p: &Prog) {
    let rebuilt = rebuild_prog(p);
    assert!(deep_eq_prog(p, &rebuilt), "rebuild must be deep-equal: {p:?}");
    assert_eq!(*p, rebuilt, "interned Eq disagrees with deep-equal rebuild");
    assert_eq!(std_hash(p), std_hash(&rebuilt));
    let a = IProg::new(p.clone());
    let b = IProg::new(rebuilt);
    assert!(IProg::ptr_eq(&a, &b), "equal programs must share one allocation");
    assert_eq!(a.structural_hash(), b.structural_hash());
    assert_eq!(a.size(), ref_size_prog(p), "cached size wrong for {p:?}");
}

/// The full consistency bundle for one Simpl statement.
fn check_simpl(s: &SimplStmt) {
    let rebuilt = rebuild_simpl(s);
    assert!(deep_eq_simpl(s, &rebuilt), "rebuild must be deep-equal: {s:?}");
    assert_eq!(*s, rebuilt, "interned Eq disagrees with deep-equal rebuild");
    assert_eq!(std_hash(s), std_hash(&rebuilt));
    let a = ISimpl::new(s.clone());
    let b = ISimpl::new(rebuilt);
    assert!(ISimpl::ptr_eq(&a, &b), "equal statements must share one allocation");
    assert_eq!(a.structural_hash(), b.structural_hash());
    assert_eq!(a.size(), ref_size_simpl(s), "cached size wrong for {s:?}");
    assert_eq!(s.term_size(), ref_size_simpl(s));
}

// ---------------------------------------------------------------------------
// Random-tree strategies. Name pools are tiny on purpose: collisions make
// equal pairs (the interesting case for Eq/Hash agreement) actually occur.
// ---------------------------------------------------------------------------

fn arb_ty() -> BoxedStrategy<Ty> {
    sample::select(vec![Ty::U32, Ty::U8]).boxed()
}

fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0u32..4).prop_map(Expr::u32),
        "[ab]".prop_map(Expr::var),
        "[ab]".prop_map(Expr::local),
        "[gh]".prop_map(Expr::global),
        Just(Expr::tt()),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        let op = sample::select(vec![BinOp::Add, BinOp::Mul, BinOp::Eq, BinOp::Lt]);
        prop_oneof![
            (op, inner.clone(), inner.clone()).prop_map(|(o, l, r)| Expr::binop(o, l, r)),
            inner.clone().prop_map(|e| Expr::unop(UnOp::Not, e)),
            inner
                .clone()
                .prop_map(|e| Expr::Cast(CastKind::Unat, IExpr::new(e))),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ite(c, t, e)),
            (inner.clone(), "[xy]").prop_map(|(e, f)| Expr::Field(IExpr::new(e), f)),
            inner
                .clone()
                .prop_map(|e| Expr::ReadHeap(Ty::U32, IExpr::new(e))),
            inner.clone().prop_map(|e| Expr::ReadByte(IExpr::new(e))),
            (arb_ty(), inner.clone()).prop_map(|(t, e)| Expr::IsValid(t, IExpr::new(e))),
            (arb_ty(), inner.clone()).prop_map(|(t, e)| Expr::PtrAligned(t, IExpr::new(e))),
            (arb_ty(), inner.clone()).prop_map(|(t, e)| Expr::NullFree(t, IExpr::new(e))),
            (inner.clone(), "[xy]", inner.clone()).prop_map(|(s, f, v)| {
                Expr::UpdateField(IExpr::new(s), f, IExpr::new(v))
            }),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::Tuple),
            (0usize..2, inner.clone()).prop_map(|(i, e)| Expr::Proj(i, IExpr::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, i)| Expr::index(a, i)),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, i, v)| Expr::arr_upd(a, i, v)),
        ]
    })
    .boxed()
}

fn arb_update() -> BoxedStrategy<Update> {
    let e = arb_expr();
    prop_oneof![
        ("[ab]", e.clone()).prop_map(|(n, x)| Update::Local(n, x)),
        ("[gh]", e.clone()).prop_map(|(n, x)| Update::Global(n, x)),
        (e.clone(), e.clone()).prop_map(|(p, x)| Update::Heap(Ty::U32, p, x)),
        (e.clone(), e.clone()).prop_map(|(p, x)| Update::Byte(p, x)),
        (arb_ty(), e).prop_map(|(t, p)| Update::TagRegion(t, p)),
    ]
}

fn arb_prog() -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        arb_expr().prop_map(Prog::Return),
        arb_expr().prop_map(Prog::Gets),
        arb_expr().prop_map(Prog::Throw),
        arb_expr().prop_map(|e| Prog::Guard(GuardKind::UnsignedOverflow, e)),
        arb_update().prop_map(Prog::Modify),
        Just(Prog::Fail),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), "[vw]", inner.clone())
                .prop_map(|(l, v, r)| Prog::Bind(IProg::new(l), v, IProg::new(r))),
            (inner.clone(), proptest::collection::vec("[vw]", 1..3), inner.clone())
                .prop_map(|(l, vs, r)| Prog::BindTuple(IProg::new(l), vs, IProg::new(r))),
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Prog::Condition(
                c,
                IProg::new(t),
                IProg::new(e)
            )),
            ("[vw]", arb_expr(), inner.clone(), arb_expr()).prop_map(|(v, c, b, i)| {
                Prog::While {
                    vars: vec![v],
                    cond: c,
                    body: IProg::new(b),
                    init: vec![i],
                }
            }),
            (inner.clone(), "[vw]", inner.clone())
                .prop_map(|(l, v, r)| Prog::Catch(IProg::new(l), v, IProg::new(r))),
            inner.clone().prop_map(|p| Prog::ExecConcrete(IProg::new(p))),
            inner.clone().prop_map(|p| Prog::ExecAbstract(IProg::new(p))),
            ("[fg]", proptest::collection::vec(arb_expr(), 0..3))
                .prop_map(|(fname, args)| Prog::Call { fname, args }),
        ]
    })
    .boxed()
}

fn arb_simpl() -> BoxedStrategy<SimplStmt> {
    let leaf = prop_oneof![
        Just(SimplStmt::Skip),
        Just(SimplStmt::Throw),
        arb_update().prop_map(SimplStmt::Basic),
        (
            "[fg]",
            proptest::collection::vec(arb_expr(), 0..3),
            sample::select(vec![None, Some("a".to_owned()), Some("b".to_owned())]),
        )
            .prop_map(|(fname, args, ret_local)| SimplStmt::Call {
                fname,
                args,
                ret_local,
            }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        let kind = sample::select(vec![GuardKind::DivByZero, GuardKind::UnsignedOverflow]);
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SimplStmt::Seq(ISimpl::new(a), ISimpl::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SimplStmt::TryCatch(ISimpl::new(a), ISimpl::new(b))),
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| SimplStmt::Cond(
                c,
                ISimpl::new(a),
                ISimpl::new(b)
            )),
            (arb_expr(), inner.clone()).prop_map(|(c, b)| SimplStmt::While(c, ISimpl::new(b))),
            (kind, arb_expr(), inner).prop_map(|(k, g, b)| SimplStmt::Guard(k, g, ISimpl::new(b))),
        ]
    })
    .boxed()
}

proptest! {
    /// On random expression pairs, interned `==` is exactly reference
    /// deep-structural equality, and deep-equal terms hash alike.
    #[test]
    fn expr_eq_and_hash_agree_with_deep_structural(a in arb_expr(), b in arb_expr()) {
        prop_assert_eq!(a == b, deep_eq(&a, &b), "Eq/deep_eq disagree:\n{:?}\n{:?}", a, b);
        if deep_eq(&a, &b) {
            prop_assert_eq!(std_hash(&a), std_hash(&b));
        }
        check_expr(&a);
    }

    /// Same for random programs.
    #[test]
    fn prog_eq_and_hash_agree_with_deep_structural(a in arb_prog(), b in arb_prog()) {
        prop_assert_eq!(a == b, deep_eq_prog(&a, &b), "Eq/deep_eq disagree:\n{:?}\n{:?}", a, b);
        if deep_eq_prog(&a, &b) {
            prop_assert_eq!(std_hash(&a), std_hash(&b));
        }
        check_prog(&a);
    }

    /// Same for random Simpl statements: equal exactly when structurally
    /// equal, hashed alike when equal, and one allocation however built.
    #[test]
    fn simpl_eq_and_hash_agree_with_deep_structural(a in arb_simpl(), b in arb_simpl()) {
        prop_assert_eq!(a == b, deep_eq_simpl(&a, &b), "Eq/deep_eq disagree:\n{:?}\n{:?}", a, b);
        if deep_eq_simpl(&a, &b) {
            prop_assert_eq!(std_hash(&a), std_hash(&b));
        }
        check_simpl(&a);
    }

    /// The shared decomposition round-trips: a node rebuilt from its own
    /// children is the node, and a child list of another length is refused.
    #[test]
    fn expr_with_children_inverts_children(e in arb_expr(), extra in arb_expr()) {
        let kids: Vec<Expr> = e.children().into_iter().cloned().collect();
        let rebuilt = e.with_children(&kids).expect("own children have the right arity");
        prop_assert!(deep_eq(&e, &rebuilt), "round trip changed {:?}", e);
        prop_assert!(e.with_children(&[kids.as_slice(), &[extra]].concat()).is_err());
        if let Some((_, fewer)) = kids.split_first() {
            prop_assert!(e.with_children(fewer).is_err());
        }
    }

    /// Same for the expressions of an update.
    #[test]
    fn update_with_exprs_inverts_exprs(u in arb_update(), extra in arb_expr()) {
        let es: Vec<Expr> = u.exprs().into_iter().cloned().collect();
        let rebuilt = u.with_exprs(&es).expect("own expressions have the right arity");
        prop_assert!(deep_eq_update(&u, &rebuilt), "round trip changed {:?}", u);
        prop_assert!(u.with_exprs(&[es.as_slice(), &[extra]].concat()).is_err());
        prop_assert!(u.with_exprs(&es[1..]).is_err());
    }

    /// A sub-program rewrite that replaces nothing returns an equal
    /// program, and offers its callback every node the visitor reaches.
    #[test]
    fn prog_rewrite_replacing_nothing_is_identity(p in arb_prog()) {
        let offered = std::cell::Cell::new(0usize);
        let same = p.rewrite(&|_| {
            offered.set(offered.get() + 1);
            None
        });
        prop_assert!(deep_eq_prog(&p, &same), "rewrite changed {:?}", p);
        let mut visited = 0usize;
        p.visit(&mut |_| visited += 1);
        prop_assert_eq!(offered.get(), visited);
    }
}

// ---------------------------------------------------------------------------
// The same properties on real pipeline output over codegen-generated C.
// ---------------------------------------------------------------------------

fn collect_exprs<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    out.push(e);
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) => {}
        Expr::ReadHeap(_, e)
        | Expr::ReadByte(e)
        | Expr::IsValid(_, e)
        | Expr::PtrAligned(_, e)
        | Expr::NullFree(_, e)
        | Expr::Field(e, _)
        | Expr::UnOp(_, e)
        | Expr::Cast(_, e)
        | Expr::Proj(_, e) => collect_exprs(e, out),
        Expr::UpdateField(a, _, b) | Expr::BinOp(_, a, b) | Expr::Index(a, b) => {
            collect_exprs(a, out);
            collect_exprs(b, out);
        }
        Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => {
            collect_exprs(a, out);
            collect_exprs(b, out);
            collect_exprs(c, out);
        }
        Expr::Tuple(es) => es.iter().for_each(|e| collect_exprs(e, out)),
    }
}

fn collect_progs<'a>(p: &'a Prog, progs: &mut Vec<&'a Prog>, exprs: &mut Vec<&'a Expr>) {
    progs.push(p);
    match p {
        Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => {
            collect_exprs(e, exprs);
        }
        Prog::Modify(u) => match u {
            Update::Local(_, e) | Update::Global(_, e) | Update::TagRegion(_, e) => {
                collect_exprs(e, exprs);
            }
            Update::Heap(_, p, e) | Update::Byte(p, e) => {
                collect_exprs(p, exprs);
                collect_exprs(e, exprs);
            }
        },
        Prog::Fail => {}
        Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) | Prog::Catch(l, _, r) => {
            collect_progs(l, progs, exprs);
            collect_progs(r, progs, exprs);
        }
        Prog::Condition(c, t, e) => {
            collect_exprs(c, exprs);
            collect_progs(t, progs, exprs);
            collect_progs(e, progs, exprs);
        }
        Prog::While {
            cond, body, init, ..
        } => {
            collect_exprs(cond, exprs);
            collect_progs(body, progs, exprs);
            init.iter().for_each(|e| collect_exprs(e, exprs));
        }
        Prog::Call { args, .. } => args.iter().for_each(|e| collect_exprs(e, exprs)),
        Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => collect_progs(p, progs, exprs),
    }
}

fn translate_codegen(seed: u64, functions: usize, workers: usize) -> Output {
    let profile = codegen::Profile {
        name: "intern-props",
        loc: functions * 10,
        functions,
    };
    let src = codegen::generate(&profile, seed);
    let opts = Options {
        l2_trials: 8,
        seed,
        workers,
        ..Options::default()
    };
    translate(&src, &opts).unwrap_or_else(|e| panic!("seed {seed}: pipeline failed: {e}"))
}

#[test]
fn pipeline_terms_satisfy_intern_properties() {
    let out = translate_codegen(11, 8, 1);
    let mut progs = Vec::new();
    let mut exprs = Vec::new();
    for ctx in [&out.l1, &out.l2, &out.hl, &out.wa] {
        for f in ctx.fns.values() {
            collect_progs(&f.body, &mut progs, &mut exprs);
        }
    }
    assert!(
        progs.len() > 50 && exprs.len() > 100,
        "harvest too small to be meaningful: {} progs, {} exprs",
        progs.len(),
        exprs.len()
    );
    // Full bundle on a bounded sample (rebuild is quadratic-ish in depth).
    for e in exprs.iter().step_by(exprs.len().div_ceil(200)) {
        check_expr(e);
    }
    for p in progs.iter().step_by(progs.len().div_ceil(100)) {
        check_prog(p);
    }
    for f in out.simpl.fns.values() {
        check_simpl(&f.body);
    }
    // Pairwise Eq agreement on a sample: interned == iff deep-structural ==.
    let sample: Vec<&Expr> = exprs.iter().step_by(exprs.len().div_ceil(60)).copied().collect();
    for a in &sample {
        for b in &sample {
            assert_eq!(
                **a == **b,
                deep_eq(a, b),
                "Eq/deep_eq disagree on pipeline terms:\n{a:?}\n{b:?}"
            );
        }
    }
}

/// Two pipeline runs over the same codegen program at different worker
/// counts produce identical interner-independent output (specs, theorems,
/// metrics) — the interner and replay cache must not leak scheduling.
#[test]
fn codegen_pipeline_is_worker_count_independent() {
    for seed in [3u64, 19] {
        let renders: Vec<String> = [1usize, 2, 5]
            .iter()
            .map(|&workers| {
                let out = translate_codegen(seed, 6, workers);
                let mut s = String::new();
                for (level, ctx) in [("l1", &out.l1), ("l2", &out.l2), ("hl", &out.hl), ("wa", &out.wa)] {
                    for (name, f) in &ctx.fns {
                        s.push_str(&format!("=== {level} {name} ===\n{f}\n"));
                    }
                }
                for (phase, name, thm) in out.thms.iter() {
                    s.push_str(&format!("--- thm {phase} {name} ---\n{thm}\n{thm:?}\n"));
                }
                s.push_str(&format!(
                    "metrics: {:?} {:?} proof={}\n",
                    out.parser_metrics(),
                    out.output_metrics(),
                    out.total_proof_size()
                ));
                s.push_str(&out.stats.deterministic_summary());
                s
            })
            .collect();
        assert_eq!(renders[0], renders[1], "seed {seed}: workers 1 vs 2 diverge");
        assert_eq!(renders[0], renders[2], "seed {seed}: workers 1 vs 5 diverge");
    }
}

/// Theorems are hash-consed like terms: walking every derivation of an
/// eChronos-sized program by node identity meets exactly one node per row
/// of its certificate, whose node table holds each structurally distinct
/// sub-derivation once.
#[test]
fn every_distinct_derivation_is_one_allocation() {
    let src = codegen::generate(&codegen::TABLE5[3], 0xAC);
    let opts = Options {
        l2_trials: 2,
        seed: 0xAC,
        ..Options::default()
    };
    let out = translate(&src, &opts).expect("translates");
    let absint = out
        .absint
        .values()
        .flat_map(|a| a.thms.iter().map(|(_, t)| t));
    let roots: Vec<(&str, &kernel::Thm)> = out
        .thms
        .iter()
        .map(|(_, _, t)| t)
        .chain(absint)
        .map(|t| ("", t))
        .collect();
    // A node's judgment lives in the node's allocation, so its address
    // names the node.
    let mut nodes = std::collections::HashSet::new();
    let mut stack: Vec<&kernel::Thm> = roots.iter().map(|&(_, t)| t).collect();
    while let Some(t) = stack.pop() {
        if nodes.insert(std::ptr::from_ref(t.judgment())) {
            stack.extend(t.premises());
        }
    }
    let cert = kernel::cert::encode_cert(&out.check_ctx, &roots);
    let rows = kernel::cert::check_cert(&cert).expect("replays").nodes;
    assert_eq!(nodes.len(), rows);
    let tree: usize = roots.iter().map(|(_, t)| t.proof_size()).sum();
    assert!(
        rows < tree,
        "no sharing: {rows} rows for {tree} rule applications"
    );
}
