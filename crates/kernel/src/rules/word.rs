//! Word-abstraction rules (paper Sec 3.3, Table 3).
//!
//! Value rules relate a concrete word expression to an abstract `nat`/`int`
//! expression under a precondition; statement rules lift the relation to
//! programs, turning accumulated preconditions into `guard` statements
//! (guard kind [`GuardKind::WordAbs`]).

use std::collections::BTreeMap;

use bignum::{Int, Nat};
use ir::expr::{BinOp, CastKind, Expr, UnOp};
use ir::guard::GuardKind;
use ir::names::Symbol;
use ir::ty::{Signedness, Ty, Width};
use ir::update::Update;
use ir::value::Value;
use monadic::Prog;

use crate::judgment::{guarded, AbsFun, Judgment, VarCtx};
use crate::rules::{pre_all, premises, Concl};
use crate::thm::{CheckCtx, KernelError, Rule, Side, Thm};

/// `(wrap₀ (π0 a), …, wrapₙ (πn a))` for componentwise wraps.
fn tuple_wrap_expr(fs: &[AbsFun], a: &Expr) -> Option<Expr> {
    let mut comps = Vec::with_capacity(fs.len());
    for (i, f) in fs.iter().enumerate() {
        let proj = Expr::proj(i, a.clone());
        comps.push(match f {
            AbsFun::Id => proj,
            AbsFun::Unat => Expr::cast(CastKind::Unat, proj),
            AbsFun::Sint => Expr::cast(CastKind::Sint, proj),
            AbsFun::Tuple(_) => return None,
        });
    }
    Some(Expr::Tuple(comps))
}

fn as_wval(j: &Judgment) -> Result<(&VarCtx, &Expr, &AbsFun, &Expr, &Expr), String> {
    match j {
        Judgment::WVal {
            ctx,
            pre,
            f,
            abs,
            conc,
        } => Ok((ctx, pre, f, abs, conc)),
        other => Err(format!("expected abs_w_val, got {}", other.describe())),
    }
}

fn as_wstmt(j: &Judgment) -> Result<(&VarCtx, &AbsFun, &AbsFun, &Prog, &Prog), String> {
    match j {
        Judgment::WStmt {
            ctx,
            rx,
            ex,
            abs,
            conc,
        } => Ok((ctx, rx, ex, abs, conc)),
        other => Err(format!("expected abs_w_stmt, got {}", other.describe())),
    }
}

/// `UINT_MAX` for a width, as a nat literal expression.
fn nat_max(w: Width) -> Expr {
    Expr::nat(Nat::pow2(w.bits()) - Nat::one())
}

/// `INT_MIN ≤ t ∧ t ≤ INT_MAX` for a width.
fn in_range(t: Expr, w: Width) -> Expr {
    let max = Expr::int(Int::from_nat(Nat::pow2(w.bits() - 1)) - Int::one());
    Expr::and(
        Expr::binop(BinOp::Le, int_min_lit(w), t.clone()),
        Expr::binop(BinOp::Le, t, max),
    )
}

fn int_min_lit(w: Width) -> Expr {
    Expr::int(-Int::from_nat(Nat::pow2(w.bits() - 1)))
}

/// Weakened precondition `c → p` (dropped when trivial).
fn weaken(c: &Expr, p: &Expr) -> Expr {
    if p.is_true_lit() {
        Expr::tt()
    } else {
        Expr::implies(c.clone(), p.clone())
    }
}

// ---- conclusion functions --------------------------------------------------
//
// One per rule (the arithmetic and the value-statement families share one):
// premises and parameters in, side conditions checked, conclusion out. The
// public constructors below apply them through `Thm::infer`; `rules::validate`
// recomputes them.

/// `WVar`: `abs_w_val True f v v`, with `f` the context's abstraction of
/// `v` (`id` when absent: variables outside the context are not
/// abstracted).
pub(super) fn var(prems: &[&Judgment], ctx: &VarCtx, name: Symbol) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: Expr::tt(),
        f: ctx.get(name.as_str()).cloned().unwrap_or(AbsFun::Id),
        abs: Expr::Var(name),
        conc: Expr::Var(name),
    })
}

/// `WLit`: `abs_w_val True f (f v) v`.
pub(super) fn lit(prems: &[&Judgment], ctx: &VarCtx, f: &AbsFun, v: &Value) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: Expr::tt(),
        f: f.clone(),
        abs: Expr::Lit(f.apply(v)?),
        conc: Expr::Lit(v.clone()),
    })
}

/// The arithmetic rules (`WSum` … `SMod`, `SNeg`) at width `w`: the
/// operator on the abstract sides, under the premises' preconditions and
/// the rule's overflow condition.
pub(super) fn arith(prems: &[&Judgment], rule: Rule, w: Width) -> Concl {
    if rule == Rule::SNeg {
        let [a] = premises(prems)?;
        let (ctx, pa, fa, aa, ac) = as_wval(a)?;
        if *fa != AbsFun::Sint {
            return Err("SNeg premise must be sint".into());
        }
        return Ok(Judgment::WVal {
            ctx: ctx.clone(),
            pre: pre_all([
                pa.clone(),
                Expr::binop(BinOp::Ne, aa.clone(), int_min_lit(w)),
            ]),
            f: AbsFun::Sint,
            abs: Expr::unop(UnOp::Neg, aa.clone()),
            conc: Expr::unop(UnOp::Neg, ac.clone()),
        });
    }
    let [a, b] = premises(prems)?;
    let (ctx, pa, fa, aa, ac) = as_wval(a)?;
    let (ctxb, pb, fb, ba, bc) = as_wval(b)?;
    if ctx != ctxb {
        return Err("premise variable contexts differ".into());
    }
    if fa != fb {
        return Err("premise abstraction functions differ".into());
    }
    let unsigned = matches!(
        rule,
        Rule::WSum | Rule::WSub | Rule::WMul | Rule::WDiv | Rule::WMod
    );
    let expect_f = if unsigned { AbsFun::Unat } else { AbsFun::Sint };
    if *fa != expect_f {
        return Err(format!("rule {rule:?} expects {expect_f:?} premises"));
    }
    let (op, extra_pre) = match rule {
        Rule::WSum => (
            BinOp::Add,
            Expr::binop(
                BinOp::Le,
                Expr::binop(BinOp::Add, aa.clone(), ba.clone()),
                nat_max(w),
            ),
        ),
        Rule::WSub => (BinOp::Sub, Expr::binop(BinOp::Le, ba.clone(), aa.clone())),
        Rule::WMul => (
            BinOp::Mul,
            Expr::binop(
                BinOp::Le,
                Expr::binop(BinOp::Mul, aa.clone(), ba.clone()),
                nat_max(w),
            ),
        ),
        Rule::WDiv => (BinOp::Div, Expr::tt()),
        Rule::WMod => (BinOp::Mod, Expr::tt()),
        Rule::SSum => (
            BinOp::Add,
            in_range(Expr::binop(BinOp::Add, aa.clone(), ba.clone()), w),
        ),
        Rule::SSub => (
            BinOp::Sub,
            in_range(Expr::binop(BinOp::Sub, aa.clone(), ba.clone()), w),
        ),
        Rule::SMul => (
            BinOp::Mul,
            in_range(Expr::binop(BinOp::Mul, aa.clone(), ba.clone()), w),
        ),
        Rule::SDiv | Rule::SMod => (
            if rule == Rule::SDiv {
                BinOp::Div
            } else {
                BinOp::Mod
            },
            Expr::not(Expr::and(
                Expr::eq(aa.clone(), int_min_lit(w)),
                Expr::eq(ba.clone(), Expr::int(-1)),
            )),
        ),
        other => return Err(format!("not an arithmetic rule: {other:?}")),
    };
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all([pa.clone(), pb.clone(), extra_pre]),
        f: expect_f,
        abs: Expr::binop(op, aa.clone(), ba.clone()),
        conc: Expr::binop(op, ac.clone(), bc.clone()),
    })
}

/// The width an arithmetic conclusion's precondition names: the bound in
/// its last conjunct (`UINT_MAX`, `INT_MAX` or `INT_MIN`). `WSub`, `WDiv`
/// and `WMod` name none and conclude the same at every width.
pub(super) fn arith_width(pre: &Expr) -> Width {
    let mut last = pre;
    while let Expr::BinOp(BinOp::And, _, r) = last {
        last = r;
    }
    // `SDiv`/`SMod`: `¬(a = INT_MIN ∧ b = -1)`.
    if let Expr::UnOp(UnOp::Not, e) = last {
        if let Expr::BinOp(BinOp::And, l, _) = &**e {
            last = l;
        }
    }
    let bits = match last {
        Expr::BinOp(BinOp::Le | BinOp::Ne | BinOp::Eq, _, bound) => match &**bound {
            Expr::Lit(Value::Nat(n)) => n.bit_len(),
            Expr::Lit(Value::Int(i)) if i.is_negative() => i.magnitude().bit_len(),
            Expr::Lit(Value::Int(i)) => i.magnitude().bit_len() + 1,
            _ => 0,
        },
        _ => 0,
    };
    [Width::W8, Width::W16, Width::W64]
        .into_iter()
        .find(|w| w.bits() as usize == bits)
        .unwrap_or(Width::W32)
}

/// `WCmp`: a comparison of two values under one abstraction is an
/// id-abstracted boolean (order is monotone and equality injective under
/// `unat`/`sint`).
pub(super) fn cmp(prems: &[&Judgment], op: BinOp) -> Concl {
    let [a, b] = premises(prems)?;
    let (ctx, pa, fa, aa, ac) = as_wval(a)?;
    let (ctxb, pb, fb, ba, bc) = as_wval(b)?;
    if ctx != ctxb || fa != fb {
        return Err("WCmp premises must share context and abstraction".into());
    }
    if !matches!(fa, AbsFun::Unat | AbsFun::Sint | AbsFun::Id) {
        return Err("WCmp premises must be value abstractions".into());
    }
    if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne) {
        return Err("WCmp operator must be a comparison".into());
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all([pa.clone(), pb.clone()]),
        f: AbsFun::Id,
        abs: Expr::binop(op, aa.clone(), ba.clone()),
        conc: Expr::binop(op, ac.clone(), bc.clone()),
    })
}

/// `WOfNat`/`WOfInt`: `of_nat`/`of_int` at the word shape `(w, s)` undoes
/// `unat`/`sint`.
pub(super) fn reconcretize(prems: &[&Judgment], rule: Rule, w: Width, s: Signedness) -> Concl {
    let [a] = premises(prems)?;
    let (ctx, pa, fa, aa, ac) = as_wval(a)?;
    let (expect_f, kind) = if rule == Rule::WOfNat {
        (AbsFun::Unat, CastKind::OfNat(w, s))
    } else {
        (AbsFun::Sint, CastKind::OfInt(w, s))
    };
    if *fa != expect_f {
        return Err(format!("premise must be {expect_f:?}"));
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pa.clone(),
        f: AbsFun::Id,
        abs: Expr::cast(kind, aa.clone()),
        conc: ac.clone(),
    })
}

/// `WUnatWrap`/`WSintWrap`: `unat`/`sint` of an id-abstracted word is its
/// `unat`/`sint` abstraction.
pub(super) fn wrap(prems: &[&Judgment], rule: Rule) -> Concl {
    let [a] = premises(prems)?;
    let (ctx, pa, fa, aa, ac) = as_wval(a)?;
    if *fa != AbsFun::Id {
        return Err("wrap premise must be id-abstracted".into());
    }
    let (f, kind) = if rule == Rule::WUnatWrap {
        (AbsFun::Unat, CastKind::Unat)
    } else {
        (AbsFun::Sint, CastKind::Sint)
    };
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pa.clone(),
        f,
        abs: Expr::cast(kind, aa.clone()),
        conc: ac.clone(),
    })
}

/// `WIdCong`: `conc`'s operator over id-abstracted operands, one premise
/// per child in [`Expr::children`] order. A λ-bound variable is a leaf
/// only if the context abstracts it by the identity.
pub(super) fn id_cong(prems: &[&Judgment], ctx: &VarCtx, conc: &Expr) -> Concl {
    if let Expr::Var(x) = conc {
        if let Some(f) = ctx.get(x.as_str()).filter(|f| !f.is_identity()) {
            return Err(format!(
                "WIdCong: `{x}` is abstracted by {f}, not the identity"
            ));
        }
    }
    let kids = conc.children();
    if kids.len() != prems.len() {
        return Err("WIdCong premise count must match the operator arity".into());
    }
    let mut abs_kids = Vec::with_capacity(kids.len());
    let mut pres = Vec::with_capacity(kids.len());
    for (p, ck) in prems.iter().zip(kids) {
        let (pctx, pp, pf, pa, pc) = as_wval(p)?;
        if pctx != ctx || *pf != AbsFun::Id {
            return Err("WIdCong premises must be id-abstracted in the same context".into());
        }
        if pc != ck {
            return Err("WIdCong premise concrete side must be the child".into());
        }
        abs_kids.push(pa.clone());
        pres.push(pp.clone());
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all(pres),
        f: AbsFun::Id,
        abs: conc.with_children(&abs_kids)?,
        conc: conc.clone(),
    })
}

/// `WIte`: a conditional expression, each branch's precondition weakened by
/// its side of the condition.
pub(super) fn ite(prems: &[&Judgment]) -> Concl {
    let [c, t, e] = premises(prems)?;
    let (ctx, pc, fc, ca, cc) = as_wval(c)?;
    let (ctxt, pt, ft, ta, tc) = as_wval(t)?;
    let (ctxe, pe, fe, ea, ec) = as_wval(e)?;
    if *fc != AbsFun::Id || ctx != ctxt || ctx != ctxe || ft != fe {
        return Err("WIte premise shapes wrong".into());
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all([
            pc.clone(),
            weaken(ca, pt),
            weaken(&Expr::not(ca.clone()), pe),
        ]),
        f: ft.clone(),
        abs: Expr::ite(ca.clone(), ta.clone(), ea.clone()),
        conc: Expr::ite(cc.clone(), tc.clone(), ec.clone()),
    })
}

/// `WTuple`: componentwise abstraction of a tuple whose components are the
/// premises, all in `ctx` (the empty tuple takes any context).
pub(super) fn tuple(prems: &[&Judgment], ctx: &VarCtx) -> Concl {
    let n = prems.len();
    let (mut pres, mut fs, mut abss, mut concs) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for p in prems {
        let (pctx, pp, pf, pa, pc) = as_wval(p)?;
        if pctx != ctx {
            return Err("WTuple component mismatch".into());
        }
        pres.push(pp.clone());
        fs.push(pf.clone());
        abss.push(pa.clone());
        concs.push(pc.clone());
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all(pres),
        f: AbsFun::Tuple(fs),
        abs: Expr::Tuple(abss),
        conc: Expr::Tuple(concs),
    })
}

/// `WProj`: component `i` of a componentwise-abstracted tuple.
pub(super) fn proj(prems: &[&Judgment], i: usize) -> Concl {
    let [t] = premises(prems)?;
    let (ctx, tp, tf, ta, tc) = as_wval(t)?;
    let AbsFun::Tuple(fs) = tf else {
        return Err("WProj premise must be tuple-abstracted".into());
    };
    let f = fs.get(i).ok_or("projection out of range")?;
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: f.clone(),
        abs: Expr::proj(i, ta.clone()),
        conc: Expr::proj(i, tc.clone()),
    })
}

/// `WTupleId`: a tuple of identity abstractions is the identity.
pub(super) fn tuple_id(prems: &[&Judgment]) -> Concl {
    let [t] = premises(prems)?;
    let (ctx, tp, tf, ta, tc) = as_wval(t)?;
    if !tf.is_identity() {
        return Err("WTupleId premise must be identity-like".into());
    }
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: AbsFun::Id,
        abs: ta.clone(),
        conc: tc.clone(),
    })
}

/// `WTupleWrap`: an id-abstracted tuple under the componentwise
/// abstraction `fs`, each component projected and cast.
pub(super) fn tuple_wrap(prems: &[&Judgment], fs: &[AbsFun]) -> Concl {
    let [t] = premises(prems)?;
    let (ctx, tp, tf, ta, tc) = as_wval(t)?;
    if *tf != AbsFun::Id {
        return Err("WTupleWrap premise must be id-abstracted".into());
    }
    let abs = tuple_wrap_expr(fs, ta).ok_or("WTupleWrap supports unat/sint/id components")?;
    Ok(Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: AbsFun::Tuple(fs.to_vec()),
        abs,
        conc: tc.clone(),
    })
}

/// `WCustomSampled`: a user-supplied `abs_w_val` judgment `j` (the rule's
/// parameter), concluded when sampling its semantics as `side` records
/// finds no violation.
pub(super) fn custom_sampled(prems: &[&Judgment], j: Judgment, side: &Side) -> Concl {
    let [] = premises(prems)?;
    let Side::SampledWVal { vars, trials, seed } = side else {
        return Err("WCustomSampled needs sampling side data".into());
    };
    crate::semantics::sample_wval(&j, vars, *trials, *seed).map_err(|e| e.message)?;
    Ok(j)
}

/// `WsRet`/`WsGets`/`WsThrow`: a value abstraction lifted to a statement
/// behind the guard of its precondition. The value fixes `rx` (`ex` for
/// `throw`); `other` is the remaining one.
pub(super) fn value_stmt(prems: &[&Judgment], rule: Rule, other: &AbsFun) -> Concl {
    let [v] = premises(prems)?;
    let (ctx, pre, f, va, vc) = as_wval(v)?;
    let (mk, rx, ex): (fn(Expr) -> Prog, _, _) = match rule {
        Rule::WsRet => (Prog::Return, f, other),
        Rule::WsGets => (Prog::Gets, f, other),
        _ => (Prog::Throw, other, f),
    };
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: rx.clone(),
        ex: ex.clone(),
        abs: guarded(GuardKind::WordAbs, pre, mk(va.clone())),
        conc: mk(vc.clone()),
    })
}

/// `WsModify`: the update `cu` with its expressions id-abstracted, one
/// premise per [`Update::exprs`] entry.
pub(super) fn modify(prems: &[&Judgment], ctx: &VarCtx, ex: &AbsFun, cu: &Update) -> Concl {
    let exprs = cu.exprs();
    if prems.len() != exprs.len() {
        return Err("WsModify premise count mismatch".into());
    }
    let mut abs_exprs = Vec::with_capacity(exprs.len());
    let mut pres = Vec::with_capacity(exprs.len());
    for (p, ce) in prems.iter().zip(exprs) {
        let (pctx, pp, pf, pa, pc) = as_wval(p)?;
        if pctx != ctx || *pf != AbsFun::Id || pc != ce {
            return Err("WsModify premises must be id-abstractions of the update".into());
        }
        abs_exprs.push(pa.clone());
        pres.push(pp.clone());
    }
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: AbsFun::Id,
        ex: ex.clone(),
        abs: guarded(
            GuardKind::WordAbs,
            &pre_all(pres),
            Prog::Modify(cu.with_exprs(&abs_exprs)?),
        ),
        conc: Prog::Modify(cu.clone()),
    })
}

/// `WsGuard`: a guard on an id-abstracted boolean.
pub(super) fn guard(prems: &[&Judgment], kind: &GuardKind, ex: &AbsFun) -> Concl {
    let [v] = premises(prems)?;
    let (ctx, pre, f, va, vc) = as_wval(v)?;
    if *f != AbsFun::Id {
        return Err("WsGuard premise must be an id-abstracted boolean".into());
    }
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: AbsFun::Id,
        ex: ex.clone(),
        abs: guarded(
            GuardKind::WordAbs,
            pre,
            Prog::Guard(kind.clone(), va.clone()),
        ),
        conc: Prog::Guard(kind.clone(), vc.clone()),
    })
}

/// `WsFail`: `fail` abstracts `fail` at any abstractions.
pub(super) fn fail(prems: &[&Judgment], ctx: &VarCtx, rx: &AbsFun, ex: &AbsFun) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: rx.clone(),
        ex: ex.clone(),
        abs: Prog::Fail,
        conc: Prog::Fail,
    })
}

/// `WsBind`: the continuation is abstracted with `v` bound at the left
/// side's return abstraction.
pub(super) fn bind(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
    let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
    if *rctx != lctx.with([(v, lrx)]) {
        return Err("WsBind context discipline violated".into());
    }
    if rex != lex {
        return Err("WsBind rx/ex mismatch".into());
    }
    Ok(Judgment::WStmt {
        ctx: lctx.clone(),
        rx: rrx.clone(),
        ex: lex.clone(),
        abs: Prog::bind(la.clone(), v, ra.clone()),
        conc: Prog::bind(lc.clone(), v, rc.clone()),
    })
}

/// `WsBindTuple`: [`bind`] with a tuple pattern; the components of the left
/// side's return abstraction bind the pattern variables.
pub(super) fn bind_tuple(prems: &[&Judgment], vs: &[String]) -> Concl {
    let [l, r] = premises(prems)?;
    let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
    let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
    let fs = match lrx {
        AbsFun::Tuple(fs) if fs.len() == vs.len() => fs.as_slice(),
        f if vs.len() == 1 => std::slice::from_ref(f),
        _ => return Err("WsBindTuple rx arity mismatch".into()),
    };
    if *rctx != lctx.with(vs.iter().map(String::as_str).zip(fs)) {
        return Err("WsBindTuple context discipline violated".into());
    }
    if rex != lex {
        return Err("WsBindTuple rx/ex mismatch".into());
    }
    Ok(Judgment::WStmt {
        ctx: lctx.clone(),
        rx: rrx.clone(),
        ex: lex.clone(),
        abs: Prog::bind_tuple(la.clone(), vs.to_vec(), ra.clone()),
        conc: Prog::bind_tuple(lc.clone(), vs.to_vec(), rc.clone()),
    })
}

/// `WsCond`: `condition` on an id-abstracted boolean, behind the guard of
/// its precondition.
pub(super) fn cond(prems: &[&Judgment]) -> Concl {
    let [c, t, e] = premises(prems)?;
    let (ctx, pc, fc, ca, cc) = as_wval(c)?;
    let (tctx, trx, tex, ta, tc) = as_wstmt(t)?;
    let (ectx, erx, eex, ea, ec) = as_wstmt(e)?;
    if tctx != ctx || ectx != ctx || *fc != AbsFun::Id {
        return Err("WsCond contexts mismatch".into());
    }
    if erx != trx || eex != tex {
        return Err("WsCond rx/ex mismatch".into());
    }
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: trx.clone(),
        ex: tex.clone(),
        abs: guarded(
            GuardKind::WordAbs,
            pc,
            Prog::cond(ca.clone(), ta.clone(), ea.clone()),
        ),
        conc: Prog::cond(cc.clone(), tc.clone(), ec.clone()),
    })
}

/// `WsWhile`: premises are the condition, the body, then one value per
/// initialiser, whose abstractions bind the iterators `vars` for the
/// condition and the body. The condition has a trivial precondition; the
/// initialisers' preconditions guard the loop.
pub(super) fn while_loop(prems: &[&Judgment], ctx: &VarCtx, vars: &[String]) -> Concl {
    let [c, b, inits @ ..] = prems else {
        return Err("WsWhile takes cond, body and initialisers".into());
    };
    if inits.is_empty() || inits.len() != vars.len() {
        return Err("WsWhile initialiser count mismatch".into());
    }
    let n = inits.len();
    let (mut fs, mut pres, mut ainit, mut cinit) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for p in inits {
        let (pctx, pp, pf, pa, pc) = as_wval(p)?;
        if pctx != ctx {
            return Err("WsWhile initialiser premise mismatch".into());
        }
        fs.push(pf.clone());
        pres.push(pp.clone());
        ainit.push(pa.clone());
        cinit.push(pc.clone());
    }
    let inner = ctx.with(vars.iter().map(String::as_str).zip(&fs));
    let packed = if fs.len() == 1 {
        fs[0].clone()
    } else {
        AbsFun::Tuple(fs)
    };
    let (cvctx, cvpre, cvf, cva, cvc) = as_wval(c)?;
    if *cvctx != inner || !cvpre.is_true_lit() || *cvf != AbsFun::Id {
        return Err("WsWhile condition must be id-abstracted with trivial precondition".into());
    }
    let (bctx, brx, bex, ba, bc) = as_wstmt(b)?;
    if *bctx != inner || *brx != packed {
        return Err("WsWhile body context/abstraction mismatch".into());
    }
    let abs_loop = Prog::While {
        vars: vars.to_vec(),
        cond: cva.clone(),
        body: ir::intern::Interned::new(ba.clone()),
        init: ainit,
    };
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: packed,
        ex: bex.clone(),
        abs: guarded(GuardKind::WordAbs, &pre_all(pres), abs_loop),
        conc: Prog::While {
            vars: vars.to_vec(),
            cond: cvc.clone(),
            body: ir::intern::Interned::new(bc.clone()),
            init: cinit,
        },
    })
}

/// `WsCall`: one premise per argument. A word-abstracted callee fixes the
/// argument, return and exception abstractions (`cx.fn_abs`); any other
/// callee takes id arguments and has its result wrapped at `conc_rx`.
pub(super) fn call(
    prems: &[&Judgment],
    cx: &CheckCtx,
    ctx: &VarCtx,
    fname: &str,
    conc_rx: &AbsFun,
) -> Concl {
    let n = prems.len();
    let (mut pres, mut abs_args, mut conc_args, mut arg_fs) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for p in prems {
        let (pctx, pp, pf, pa, pc) = as_wval(p)?;
        if pctx != ctx {
            return Err("WsCall argument premise mismatch".into());
        }
        pres.push(pp.clone());
        abs_args.push(pa.clone());
        conc_args.push(pc.clone());
        arg_fs.push(pf.clone());
    }
    let call = Prog::Call {
        fname: fname.to_owned(),
        args: abs_args,
    };
    let (rx, ex, inner) = match cx.fn_abs.get(fname) {
        Some((param_fs, f_rx, f_ex)) => {
            if *param_fs != arg_fs {
                return Err("WsCall argument abstractions do not match the callee".into());
            }
            (f_rx.clone(), f_ex.clone(), call)
        }
        None => {
            if arg_fs.iter().any(|f| *f != AbsFun::Id) {
                return Err("WsCall to non-abstracted callee requires id arguments".into());
            }
            let inner = match conc_rx.forward_cast() {
                None if *conc_rx == AbsFun::Id => call,
                Some(cast) => Prog::bind(call, "·r", Prog::ret(Expr::cast(cast, Expr::var("·r")))),
                None => return Err("WsCall cannot wrap with tuple abstraction".into()),
            };
            (conc_rx.clone(), AbsFun::Id, inner)
        }
    };
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx,
        ex,
        abs: guarded(GuardKind::WordAbs, &pre_all(pres), inner),
        conc: Prog::Call {
            fname: fname.to_owned(),
            args: conc_args,
        },
    })
}

/// `WsCatch`: the handler is abstracted with `v` bound at the body's
/// exception abstraction.
pub(super) fn catch(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
    let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
    if *rctx != lctx.with([(v, lex)]) {
        return Err("WsCatch context discipline violated".into());
    }
    if rrx != lrx {
        return Err("WsCatch rx/ex mismatch".into());
    }
    Ok(Judgment::WStmt {
        ctx: lctx.clone(),
        rx: lrx.clone(),
        ex: rex.clone(),
        abs: Prog::Catch(
            ir::intern::Interned::new(la.clone()),
            v.to_owned(),
            ir::intern::Interned::new(ra.clone()),
        ),
        conc: Prog::Catch(
            ir::intern::Interned::new(lc.clone()),
            v.to_owned(),
            ir::intern::Interned::new(rc.clone()),
        ),
    })
}

/// `WsExecConcrete`: a level-mixing marker passes through unchanged, with
/// id abstractions.
pub(super) fn exec_concrete(prems: &[&Judgment], ctx: &VarCtx, p: &Prog) -> Concl {
    let [] = premises(prems)?;
    if !matches!(p, Prog::ExecConcrete(_) | Prog::ExecAbstract(_)) {
        return Err("WsExecConcrete applies to level-mixing markers".into());
    }
    Ok(Judgment::WStmt {
        ctx: ctx.clone(),
        rx: AbsFun::Id,
        ex: AbsFun::Id,
        abs: p.clone(),
        conc: p.clone(),
    })
}

// ---- public constructors ---------------------------------------------------

type R = Result<Thm, KernelError>;

/// `abs_w_val True f v v` for a context variable.
///
/// # Errors
///
/// Infallible in practice: a variable absent from `ctx` is id-abstracted.
pub fn w_var(_cx: &CheckCtx, ctx: &VarCtx, name: &str) -> R {
    Thm::infer(Rule::WVar, vec![], Side::None, |p| {
        var(p, ctx, Symbol::from(name))
    })
}

/// `abs_w_val True f (f v) v` for a literal.
///
/// # Errors
///
/// Fails when `f` does not apply to the value.
pub fn w_lit(_cx: &CheckCtx, ctx: &VarCtx, f: AbsFun, v: &Value) -> R {
    Thm::infer(Rule::WLit, vec![], Side::None, |p| lit(p, ctx, &f, v))
}

/// A binary arithmetic rule at width `w` (see [`Rule`] for the variants).
///
/// # Errors
///
/// Fails when the premises do not have the required abstraction functions.
pub fn w_arith(_cx: &CheckCtx, rule: Rule, w: Width, a: Thm, b: Thm) -> R {
    Thm::infer(rule, vec![a, b], Side::None, |p| arith(p, rule, w))
}

/// Signed negation at width `w`.
///
/// # Errors
///
/// Fails when the premise is not a `sint` abstraction.
pub fn s_neg(_cx: &CheckCtx, w: Width, a: Thm) -> R {
    Thm::infer(Rule::SNeg, vec![a], Side::None, |p| arith(p, Rule::SNeg, w))
}

/// Comparison under value abstraction (`f = id` on the boolean result).
///
/// # Errors
///
/// Fails on mismatched premise contexts or non-comparison operators.
pub fn w_cmp(_cx: &CheckCtx, op: BinOp, a: Thm, b: Thm) -> R {
    Thm::infer(Rule::WCmp, vec![a, b], Side::None, |p| cmp(p, op))
}

/// `of_nat`/`of_int` re-concretisation of an abstracted value.
///
/// # Errors
///
/// Fails when the premise has the wrong abstraction function.
pub fn w_reconcretize(_cx: &CheckCtx, w: Width, s: Signedness, a: Thm) -> R {
    let rule = match a.judgment() {
        Judgment::WVal {
            f: AbsFun::Sint, ..
        } => Rule::WOfInt,
        _ => Rule::WOfNat,
    };
    Thm::infer(rule, vec![a], Side::None, |p| reconcretize(p, rule, w, s))
}

/// Wraps an id-abstracted word term in `unat`/`sint`.
///
/// # Errors
///
/// Fails when the premise is not id-abstracted.
pub fn w_wrap(_cx: &CheckCtx, f: AbsFun, a: Thm) -> R {
    let rule = match f {
        AbsFun::Unat => Rule::WUnatWrap,
        AbsFun::Sint => Rule::WSintWrap,
        other => {
            return Err(KernelError {
                rule: Rule::WUnatWrap,
                msg: format!("cannot wrap with {other}"),
            })
        }
    };
    Thm::infer(rule, vec![a], Side::None, |p| wrap(p, rule))
}

/// Congruence for id-abstracted operators: rebuilds `conc`'s operator with
/// the premises' abstract children.
///
/// # Errors
///
/// Fails when the premises do not match `conc`'s children.
pub fn w_id_cong(_cx: &CheckCtx, ctx: &VarCtx, conc: &Expr, kids: Vec<Thm>) -> R {
    Thm::infer(Rule::WIdCong, kids, Side::None, |p| id_cong(p, ctx, conc))
}

/// Conditional expression with branch-weakened preconditions.
///
/// # Errors
///
/// Fails on mismatched branch abstractions.
pub fn w_ite(_cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    Thm::infer(Rule::WIte, vec![c, t, e], Side::None, ite)
}

/// Componentwise tuple abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn w_tuple(_cx: &CheckCtx, kids: Vec<Thm>) -> R {
    let ctx = match kids.first().map(Thm::judgment) {
        Some(Judgment::WVal { ctx, .. }) => ctx.clone(),
        _ => VarCtx::default(),
    };
    Thm::infer(Rule::WTuple, kids, Side::None, |p| tuple(p, &ctx))
}

/// Tuple projection.
///
/// # Errors
///
/// Fails when the premise is not tuple-abstracted.
pub fn w_proj(_cx: &CheckCtx, i: usize, t: Thm) -> R {
    Thm::infer(Rule::WProj, vec![t], Side::None, |p| proj(p, i))
}

/// `exec_concrete`/`exec_abstract` pass-through.
///
/// # Errors
///
/// Fails when `p` is not a level-mixing marker.
pub fn ws_exec_concrete(_cx: &CheckCtx, ctx: &VarCtx, p: &Prog) -> R {
    Thm::infer(Rule::WsExecConcrete, vec![], Side::None, |ps| {
        exec_concrete(ps, ctx, p)
    })
}

/// Collapses a tuple of identity abstractions to the identity.
///
/// # Errors
///
/// Fails when the premise is not identity-like.
pub fn w_tuple_id(_cx: &CheckCtx, t: Thm) -> R {
    Thm::infer(Rule::WTupleId, vec![t], Side::None, tuple_id)
}

/// Wraps an id-abstracted tuple into a componentwise abstraction.
///
/// # Errors
///
/// Fails for nested-tuple components.
pub fn w_tuple_wrap(_cx: &CheckCtx, fs: &[AbsFun], t: Thm) -> R {
    Thm::infer(Rule::WTupleWrap, vec![t], Side::None, |p| tuple_wrap(p, fs))
}

/// A user-supplied idiom rule (Sec 3.3), admitted after randomized sampling
/// of the judgment's semantics.
///
/// # Errors
///
/// Fails when sampling finds a violation.
pub fn w_custom_sampled(
    _cx: &CheckCtx,
    judgment: Judgment,
    vars: BTreeMap<String, Ty>,
    trials: u32,
    seed: u64,
) -> R {
    let side = Side::SampledWVal { vars, trials, seed };
    Thm::infer(Rule::WCustomSampled, vec![], side.clone(), |p| {
        custom_sampled(p, judgment, &side)
    })
}

/// `WRET`/`WGETS`/`WTHROW`: lifts a value abstraction to a statement,
/// prepending the precondition as a guard.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn ws_value_stmt(_cx: &CheckCtx, rule: Rule, ex: AbsFun, v: Thm) -> R {
    if !matches!(rule, Rule::WsRet | Rule::WsGets | Rule::WsThrow) {
        return Err(KernelError {
            rule,
            msg: "not a value-statement rule".into(),
        });
    }
    Thm::infer(rule, vec![v], Side::None, |p| value_stmt(p, rule, &ex))
}

/// `modify` abstraction.
///
/// # Errors
///
/// Fails when the premises do not match the update's expressions.
pub fn ws_modify(_cx: &CheckCtx, ctx: &VarCtx, ex: AbsFun, conc_upd: &Update, kids: Vec<Thm>) -> R {
    Thm::infer(Rule::WsModify, kids, Side::None, |p| {
        modify(p, ctx, &ex, conc_upd)
    })
}

/// Guard-statement abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn ws_guard(_cx: &CheckCtx, kind: GuardKind, ex: AbsFun, v: Thm) -> R {
    Thm::infer(Rule::WsGuard, vec![v], Side::None, |p| guard(p, &kind, &ex))
}

/// `fail ⊑ fail`.
///
/// # Errors
///
/// Never fails in practice (infallible side conditions).
pub fn ws_fail(_cx: &CheckCtx, ctx: &VarCtx, rx: AbsFun, ex: AbsFun) -> R {
    Thm::infer(Rule::WsFail, vec![], Side::None, |p| fail(p, ctx, &rx, &ex))
}

/// `WBIND`.
///
/// # Errors
///
/// Fails when the continuation's context does not extend the left side's.
pub fn ws_bind(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::WsBind, vec![l, r], Side::None, |p| bind(p, v))
}

/// `condition` abstraction.
///
/// # Errors
///
/// Fails on mismatched branches.
pub fn ws_cond(_cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    Thm::infer(Rule::WsCond, vec![c, t, e], Side::None, cond)
}

/// `whileLoop` abstraction.
///
/// # Errors
///
/// Fails when the condition has a non-trivial precondition or the iterator
/// contexts are inconsistent.
pub fn ws_while(
    _cx: &CheckCtx,
    ctx: &VarCtx,
    vars: &[String],
    cond: Thm,
    body: Thm,
    inits: Vec<Thm>,
) -> R {
    let mut prems = vec![cond, body];
    prems.extend(inits);
    Thm::infer(Rule::WsWhile, prems, Side::None, |p| {
        while_loop(p, ctx, vars)
    })
}

/// Call abstraction (both abstracted and non-abstracted callees).
///
/// # Errors
///
/// Fails when the argument abstractions do not match the callee signature.
pub fn ws_call(
    cx: &CheckCtx,
    ctx: &VarCtx,
    fname: &str,
    args: Vec<Thm>,
    rx_for_conc_callee: AbsFun,
) -> R {
    Thm::infer(Rule::WsCall, args, Side::None, |p| {
        call(p, cx, ctx, fname, &rx_for_conc_callee)
    })
}

/// `catch` abstraction.
///
/// # Errors
///
/// Fails when the handler's context does not bind the exception variable.
pub fn ws_catch(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::WsCatch, vec![l, r], Side::None, |p| catch(p, v))
}

/// `WBIND` with a tuple pattern.
///
/// # Errors
///
/// Fails when the continuation's context does not extend the left side's
/// componentwise.
pub fn ws_bind_tuple(_cx: &CheckCtx, vs: &[String], l: Thm, r: Thm) -> R {
    Thm::infer(Rule::WsBindTuple, vec![l, r], Side::None, |p| {
        bind_tuple(p, vs)
    })
}
