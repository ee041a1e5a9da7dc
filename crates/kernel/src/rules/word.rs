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
use ir::ty::{Signedness, Ty, Width};
use ir::update::Update;
use ir::value::Value;
use monadic::Prog;

use crate::judgment::{guarded, AbsFun, Judgment, VarCtx};
use crate::rules::{pre_all, V};
use crate::thm::{CheckCtx, KernelError, Rule, Side, Thm};

const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];

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
        Judgment::WVal { ctx, pre, f, abs, conc } => Ok((ctx, pre, f, abs, conc)),
        other => Err(format!("expected abs_w_val, got {}", other.describe())),
    }
}

fn as_wstmt(j: &Judgment) -> Result<(&VarCtx, &AbsFun, &AbsFun, &Prog, &Prog), String> {
    match j {
        Judgment::WStmt { ctx, rx, ex, abs, conc } => Ok((ctx, rx, ex, abs, conc)),
        other => Err(format!("expected abs_w_stmt, got {}", other.describe())),
    }
}

/// `UINT_MAX` for a width, as a nat literal expression.
fn nat_max(w: Width) -> Expr {
    Expr::nat(Nat::pow2(w.bits()) - Nat::one())
}

/// `INT_MIN ≤ t ∧ t ≤ INT_MAX` for a width.
fn in_range(t: Expr, w: Width) -> Expr {
    let min = Expr::int(-Int::from_nat(Nat::pow2(w.bits() - 1)));
    let max = Expr::int(Int::from_nat(Nat::pow2(w.bits() - 1)) - Int::one());
    Expr::and(
        Expr::binop(BinOp::Le, min, t.clone()),
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

/// Builds the conclusion of a binary arithmetic rule for one width.
#[allow(clippy::too_many_lines)]
fn arith_conclusion(
    rule: Rule,
    w: Width,
    a: &Judgment,
    b: Option<&Judgment>,
) -> Result<Judgment, String> {
    let (ctx, pa, fa, aa, ac) = as_wval(a)?;
    if rule == Rule::SNeg {
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
    let b = b.ok_or_else(|| "binary rule needs two premises".to_string())?;
    let (ctxb, pb, fb, ba, bc) = as_wval(b)?;
    if ctx != ctxb {
        return Err("premise variable contexts differ".into());
    }
    if fa != fb {
        return Err("premise abstraction functions differ".into());
    }
    let unsigned = matches!(rule, Rule::WSum | Rule::WSub | Rule::WMul | Rule::WDiv | Rule::WMod);
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
            if rule == Rule::SDiv { BinOp::Div } else { BinOp::Mod },
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

/// Validates a word-abstraction *value* rule.
pub(crate) fn validate_val(
    rule: Rule,
    prems: &[&Judgment],
    concl: &Judgment,
    side: &Side,
) -> V {
    match rule {
        Rule::WVar => {
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            let Expr::Var(n) = conc else {
                return Err("WVar concrete side must be a variable".into());
            };
            if abs != conc {
                return Err("WVar abstract side must be the same variable".into());
            }
            if !pre.is_true_lit() {
                return Err("WVar precondition must be trivial".into());
            }
            match ctx.get(n.as_str()) {
                Some(g) if g == f => Ok(()),
                Some(g) => Err(format!("variable `{n}` has context abstraction {g}, not {f}")),
                // Variables absent from the context are not abstracted.
                None if *f == AbsFun::Id => Ok(()),
                None => Err(format!("variable `{n}` not in the abstraction context")),
            }
        }
        Rule::WLit => {
            let (_, pre, f, abs, conc) = as_wval(concl)?;
            if !pre.is_true_lit() {
                return Err("WLit precondition must be trivial".into());
            }
            let (Expr::Lit(va), Expr::Lit(vc)) = (abs, conc) else {
                return Err("WLit relates literals".into());
            };
            let expect = f.apply(vc)?;
            if *va == expect {
                Ok(())
            } else {
                Err(format!("literal mismatch: {va} ≠ {f} {vc}"))
            }
        }
        Rule::WSum
        | Rule::WSub
        | Rule::WMul
        | Rule::WDiv
        | Rule::WMod
        | Rule::SSum
        | Rule::SSub
        | Rule::SMul
        | Rule::SDiv
        | Rule::SMod => {
            let [a, b] = prems else {
                return Err("arithmetic rules take two premises".into());
            };
            for w in WIDTHS {
                if arith_conclusion(rule, w, a, Some(b)).as_ref() == Ok(concl) {
                    return Ok(());
                }
            }
            Err("conclusion does not match the rule at any width".into())
        }
        Rule::SNeg => {
            let [a] = prems else {
                return Err("SNeg takes one premise".into());
            };
            for w in WIDTHS {
                if arith_conclusion(rule, w, a, None).as_ref() == Ok(concl) {
                    return Ok(());
                }
            }
            Err("conclusion does not match SNeg at any width".into())
        }
        Rule::WCmp => {
            let [a, b] = prems else {
                return Err("WCmp takes two premises".into());
            };
            let (ctx, pa, fa, aa, ac) = as_wval(a)?;
            let (ctxb, pb, fb, ba, bc) = as_wval(b)?;
            if ctx != ctxb || fa != fb {
                return Err("WCmp premises must share context and abstraction".into());
            }
            if !matches!(fa, AbsFun::Unat | AbsFun::Sint | AbsFun::Id) {
                return Err("WCmp premises must be value abstractions".into());
            }
            let (cctx, pre, f, abs, conc) = as_wval(concl)?;
            if cctx != ctx || *f != AbsFun::Id {
                return Err("WCmp concludes an id-abstracted boolean".into());
            }
            let Expr::BinOp(op, la, ra) = abs else {
                return Err("WCmp abstract side must be a comparison".into());
            };
            if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne) {
                return Err("WCmp operator must be a comparison".into());
            }
            // Equality is injective for unat/sint; order is monotone.
            let expected_conc = Expr::BinOp(*op, ir::intern::Interned::new(ac.clone()), ir::intern::Interned::new(bc.clone()));
            if **la != *aa || **ra != *ba || *conc != expected_conc {
                return Err("WCmp sides do not match the premises".into());
            }
            if *pre != pre_all([pa.clone(), pb.clone()]) {
                return Err("WCmp precondition must be the conjunction of the premises'".into());
            }
            Ok(())
        }
        Rule::WOfNat | Rule::WOfInt => {
            let [a] = prems else {
                return Err("re-concretisation takes one premise".into());
            };
            let (ctx, pa, fa, aa, ac) = as_wval(a)?;
            let expect_f = if rule == Rule::WOfNat { AbsFun::Unat } else { AbsFun::Sint };
            if *fa != expect_f {
                return Err(format!("premise must be {expect_f:?}"));
            }
            let (cctx, pre, f, abs, conc) = as_wval(concl)?;
            if cctx != ctx || *f != AbsFun::Id || pre != pa || conc != ac {
                return Err("re-concretisation changes only the abstract side".into());
            }
            match abs {
                Expr::Cast(CastKind::OfNat(..), inner) if rule == Rule::WOfNat && **inner == *aa => {
                    Ok(())
                }
                Expr::Cast(CastKind::OfInt(..), inner) if rule == Rule::WOfInt && **inner == *aa => {
                    Ok(())
                }
                _ => Err("abstract side must be of_nat/of_int of the premise".into()),
            }
        }
        Rule::WUnatWrap | Rule::WSintWrap => {
            let [a] = prems else {
                return Err("wrap takes one premise".into());
            };
            let (ctx, pa, fa, aa, ac) = as_wval(a)?;
            if *fa != AbsFun::Id {
                return Err("wrap premise must be id-abstracted".into());
            }
            let (cctx, pre, f, abs, conc) = as_wval(concl)?;
            if cctx != ctx || pre != pa || conc != ac {
                return Err("wrap changes only the abstract side".into());
            }
            let (expect_f, kind) = if rule == Rule::WUnatWrap {
                (AbsFun::Unat, CastKind::Unat)
            } else {
                (AbsFun::Sint, CastKind::Sint)
            };
            if *f != expect_f {
                return Err(format!("wrap concludes {expect_f:?}"));
            }
            if *abs == Expr::Cast(kind, ir::intern::Interned::new(aa.clone())) {
                Ok(())
            } else {
                Err("abstract side must be unat/sint of the premise".into())
            }
        }
        Rule::WIdCong => {
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            if *f != AbsFun::Id {
                return Err("WIdCong concludes id abstraction".into());
            }
            let conc_kids = conc.children();
            if conc_kids.len() != prems.len() {
                return Err("WIdCong premise count must match the operator arity".into());
            }
            let mut abs_kids = Vec::new();
            let mut pres = Vec::new();
            for (p, ck) in prems.iter().zip(&conc_kids) {
                let (pctx, pp, pf, pa, pc) = as_wval(p)?;
                if pctx != ctx || *pf != AbsFun::Id {
                    return Err("WIdCong premises must be id-abstracted in the same context".into());
                }
                if pc != *ck {
                    return Err("WIdCong premise concrete side must be the child".into());
                }
                abs_kids.push(pa.clone());
                pres.push(pp.clone());
            }
            if *abs != conc.with_children(&abs_kids)? {
                return Err("WIdCong abstract side must be the rebuilt operator".into());
            }
            if *pre != pre_all(pres) {
                return Err("WIdCong precondition must be the conjunction".into());
            }
            Ok(())
        }
        Rule::WIte => {
            let [c, t, e] = prems else {
                return Err("WIte takes three premises".into());
            };
            let (ctx, pc, fc, ca, cc) = as_wval(c)?;
            let (ctxt, pt, ft, ta, tc) = as_wval(t)?;
            let (ctxe, pe, fe, ea, ec) = as_wval(e)?;
            if *fc != AbsFun::Id || ctx != ctxt || ctx != ctxe || ft != fe {
                return Err("WIte premise shapes wrong".into());
            }
            let (cctx, pre, f, abs, conc) = as_wval(concl)?;
            if cctx != ctx || f != ft {
                return Err("WIte conclusion context/abstraction mismatch".into());
            }
            let expect_abs = Expr::ite(ca.clone(), ta.clone(), ea.clone());
            let expect_conc = Expr::ite(cc.clone(), tc.clone(), ec.clone());
            let expect_pre = pre_all([
                pc.clone(),
                weaken(ca, pt),
                weaken(&Expr::not(ca.clone()), pe),
            ]);
            if *abs == expect_abs && *conc == expect_conc && *pre == expect_pre {
                Ok(())
            } else {
                Err("WIte conclusion does not match".into())
            }
        }
        Rule::WTuple => {
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            let (Expr::Tuple(cas), Expr::Tuple(aas)) = (conc, abs) else {
                return Err("WTuple relates tuples".into());
            };
            let AbsFun::Tuple(fs) = f else {
                return Err("WTuple concludes a tuple abstraction".into());
            };
            if prems.len() != cas.len() || fs.len() != cas.len() || aas.len() != cas.len() {
                return Err("WTuple arity mismatch".into());
            }
            let mut pres = Vec::new();
            for (i, p) in prems.iter().enumerate() {
                let (pctx, pp, pf, pa, pc) = as_wval(p)?;
                if pctx != ctx || *pf != fs[i] || *pa != aas[i] || *pc != cas[i] {
                    return Err("WTuple component mismatch".into());
                }
                pres.push(pp.clone());
            }
            if *pre == pre_all(pres) {
                Ok(())
            } else {
                Err("WTuple precondition must be the conjunction".into())
            }
        }
        Rule::WProj => {
            let [t] = prems else {
                return Err("WProj takes one premise".into());
            };
            let (tctx, tp, tf, ta, tc) = as_wval(t)?;
            let AbsFun::Tuple(fs) = tf else {
                return Err("WProj premise must be tuple-abstracted".into());
            };
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            let (Expr::Proj(i, ca), Expr::Proj(j, aa)) = (conc, abs) else {
                return Err("WProj relates projections".into());
            };
            if i != j || *i >= fs.len() {
                return Err("WProj index mismatch".into());
            }
            if ctx != tctx || pre != tp || *f != fs[*i] || **aa != *ta || **ca != *tc {
                return Err("WProj conclusion does not match".into());
            }
            Ok(())
        }
        Rule::WTupleId => {
            let [t] = prems else {
                return Err("WTupleId takes one premise".into());
            };
            let (tctx, tp, tf, ta, tc) = as_wval(t)?;
            if !tf.is_identity() {
                return Err("WTupleId premise must be identity-like".into());
            }
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            if ctx != tctx || pre != tp || *f != AbsFun::Id || abs != ta || conc != tc {
                return Err("WTupleId changes only the abstraction function".into());
            }
            Ok(())
        }
        Rule::WTupleWrap => {
            let [t] = prems else {
                return Err("WTupleWrap takes one premise".into());
            };
            let (tctx, tp, tf, ta, tc) = as_wval(t)?;
            if *tf != AbsFun::Id {
                return Err("WTupleWrap premise must be id-abstracted".into());
            }
            let (ctx, pre, f, abs, conc) = as_wval(concl)?;
            let AbsFun::Tuple(fs) = f else {
                return Err("WTupleWrap concludes a tuple abstraction".into());
            };
            if ctx != tctx || pre != tp || conc != tc {
                return Err("WTupleWrap changes only the abstract side".into());
            }
            let expect = tuple_wrap_expr(fs, ta)
                .ok_or("WTupleWrap supports unat/sint/id components")?;
            if *abs == expect {
                Ok(())
            } else {
                Err("WTupleWrap abstract side must be the projected casts".into())
            }
        }
        Rule::WCustomSampled => {
            let Side::SampledWVal { vars, trials, seed } = side else {
                return Err("WCustomSampled needs sampling side data".into());
            };
            crate::semantics::sample_wval(concl, vars, *trials, *seed)
                .map_err(|e| e.message)
        }
        other => Err(format!("not a word-value rule: {other:?}")),
    }
}

/// Validates a word-abstraction *statement* rule.
#[allow(clippy::too_many_lines)]
pub(crate) fn validate_stmt(
    rule: Rule,
    prems: &[&Judgment],
    concl: &Judgment,
    cx: &CheckCtx,
) -> V {
    let (ctx, rx, ex, abs, conc) = as_wstmt(concl)?;
    match rule {
        Rule::WsRet | Rule::WsGets | Rule::WsThrow => {
            let [v] = prems else {
                return Err("rule takes one value premise".into());
            };
            let (vctx, pre, f, va, vc) = as_wval(v)?;
            if vctx != ctx {
                return Err("context mismatch".into());
            }
            type MkProg = fn(Expr) -> Prog;
            let (mk_abs, mk_conc): (MkProg, MkProg) = match rule {
                Rule::WsRet => (Prog::Return, Prog::Return),
                Rule::WsGets => (Prog::Gets, Prog::Gets),
                _ => (Prog::Throw, Prog::Throw),
            };
            if rule == Rule::WsThrow {
                if ex != f {
                    return Err("throw abstraction must match ex".into());
                }
            } else if rx != f {
                return Err("value abstraction must match rx".into());
            }
            let expect_abs = guarded(GuardKind::WordAbs, pre, mk_abs(va.clone()));
            if *abs == expect_abs && *conc == mk_conc(vc.clone()) {
                Ok(())
            } else {
                Err("conclusion does not match the guarded return/gets/throw".into())
            }
        }
        Rule::WsModify => {
            let Prog::Modify(cu) = conc else {
                return Err("WsModify concrete side must be modify".into());
            };
            let cu_exprs = cu.exprs();
            if prems.len() != cu_exprs.len() {
                return Err("WsModify premise count mismatch".into());
            }
            let mut abs_exprs = Vec::new();
            let mut pres = Vec::new();
            for (p, ce) in prems.iter().zip(&cu_exprs) {
                let (pctx, pp, pf, pa, pc) = as_wval(p)?;
                if pctx != ctx || *pf != AbsFun::Id || pc != *ce {
                    return Err("WsModify premises must be id-abstractions of the update".into());
                }
                abs_exprs.push(pa.clone());
                pres.push(pp.clone());
            }
            if *rx != AbsFun::Id {
                return Err("modify yields unit (rx = id)".into());
            }
            let au = cu.with_exprs(&abs_exprs)?;
            let expect = guarded(GuardKind::WordAbs, &pre_all(pres), Prog::Modify(au));
            if *abs == expect {
                Ok(())
            } else {
                Err("WsModify conclusion does not match".into())
            }
        }
        Rule::WsGuard => {
            let [v] = prems else {
                return Err("WsGuard takes one premise".into());
            };
            let (vctx, pre, f, va, vc) = as_wval(v)?;
            if vctx != ctx || *f != AbsFun::Id || *rx != AbsFun::Id {
                return Err("WsGuard premise must be an id-abstracted boolean".into());
            }
            let Prog::Guard(kind, gc) = conc else {
                return Err("WsGuard concrete side must be a guard".into());
            };
            if gc != vc {
                return Err("guard expression mismatch".into());
            }
            let expect = guarded(
                GuardKind::WordAbs,
                pre,
                Prog::Guard(kind.clone(), va.clone()),
            );
            if *abs == expect {
                Ok(())
            } else {
                Err("WsGuard conclusion does not match".into())
            }
        }
        Rule::WsFail => {
            if prems.is_empty() && *abs == Prog::Fail && *conc == Prog::Fail {
                Ok(())
            } else {
                Err("WsFail relates fail to fail".into())
            }
        }
        Rule::WsBind => {
            let [l, r] = prems else {
                return Err("WsBind takes two premises".into());
            };
            let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
            let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
            let (Prog::Bind(ca, v, cb), Prog::Bind(aa, v2, ab)) = (conc, abs) else {
                return Err("WsBind relates binds".into());
            };
            if v != v2 {
                return Err("WsBind variable mismatch".into());
            }
            let mut expect_rctx = lctx.clone();
            expect_rctx.insert(v.clone(), lrx.clone());
            if lctx != ctx || *rctx != expect_rctx {
                return Err("WsBind context discipline violated".into());
            }
            if lex != ex || rex != ex || rrx != rx {
                return Err("WsBind rx/ex mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("WsBind components do not match premises".into())
            }
        }
        Rule::WsBindTuple => {
            let [l, r] = prems else {
                return Err("WsBindTuple takes two premises".into());
            };
            let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
            let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
            let (Prog::BindTuple(ca, vs, cb), Prog::BindTuple(aa, vs2, ab)) = (conc, abs) else {
                return Err("WsBindTuple relates tuple binds".into());
            };
            if vs != vs2 {
                return Err("WsBindTuple pattern mismatch".into());
            }
            // Components of the left rx bind the pattern variables.
            let fs: Vec<AbsFun> = match lrx {
                AbsFun::Tuple(fs) if fs.len() == vs.len() => fs.clone(),
                f if vs.len() == 1 => vec![f.clone()],
                _ => return Err("WsBindTuple rx arity mismatch".into()),
            };
            let mut expect_rctx = lctx.clone();
            for (v, f) in vs.iter().zip(&fs) {
                expect_rctx.insert(v.clone(), f.clone());
            }
            if lctx != ctx || *rctx != expect_rctx {
                return Err("WsBindTuple context discipline violated".into());
            }
            if lex != ex || rex != ex || rrx != rx {
                return Err("WsBindTuple rx/ex mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("WsBindTuple components do not match".into())
            }
        }
        Rule::WsCond => {
            let [c, t, e] = prems else {
                return Err("WsCond takes three premises".into());
            };
            let (cctx, pc, fc, ca, cc) = as_wval(c)?;
            let (tctx, trx, tex, ta, tc) = as_wstmt(t)?;
            let (ectx, erx, eex, ea, ec) = as_wstmt(e)?;
            if cctx != ctx || tctx != ctx || ectx != ctx || *fc != AbsFun::Id {
                return Err("WsCond contexts mismatch".into());
            }
            if trx != rx || erx != rx || tex != ex || eex != ex {
                return Err("WsCond rx/ex mismatch".into());
            }
            let expect_abs = guarded(
                GuardKind::WordAbs,
                pc,
                Prog::cond(ca.clone(), ta.clone(), ea.clone()),
            );
            let expect_conc = Prog::cond(cc.clone(), tc.clone(), ec.clone());
            if *abs == expect_abs && *conc == expect_conc {
                Ok(())
            } else {
                Err("WsCond conclusion does not match".into())
            }
        }
        Rule::WsWhile => {
            // premises: cond val, body stmt, then one val per initialiser
            if prems.len() < 3 {
                return Err("WsWhile takes cond, body and initialisers".into());
            }
            let (
                Prog::While {
                    vars: cvars,
                    cond: ccond,
                    body: cbody,
                    init: cinit,
                },
                abs_inner,
            ) = (conc, strip_guard(abs))
            else {
                return Err("WsWhile concrete side must be a loop".into());
            };
            let Prog::While {
                vars: avars,
                cond: acond,
                body: abody,
                init: ainit,
            } = abs_inner
            else {
                return Err("WsWhile abstract side must be a loop".into());
            };
            if cvars != avars {
                return Err("WsWhile iterator names must be preserved".into());
            }
            let init_prems = &prems[2..];
            if init_prems.len() != cinit.len() || cinit.len() != cvars.len() {
                return Err("WsWhile initialiser count mismatch".into());
            }
            let mut fs = Vec::new();
            let mut pres = Vec::new();
            for (p, (ci, ai)) in init_prems.iter().zip(cinit.iter().zip(ainit)) {
                let (pctx, pp, pf, pa, pc) = as_wval(p)?;
                if pctx != ctx || pc != ci || pa != ai {
                    return Err("WsWhile initialiser premise mismatch".into());
                }
                fs.push(pf.clone());
                pres.push(pp.clone());
            }
            let packed = if fs.len() == 1 {
                fs[0].clone()
            } else {
                AbsFun::Tuple(fs.clone())
            };
            let mut ctx2 = ctx.clone();
            for (v, f) in cvars.iter().zip(&fs) {
                ctx2.insert(v.clone(), f.clone());
            }
            let (cvctx, cvpre, cvf, cva, cvc) = as_wval(prems[0])?;
            if *cvctx != ctx2 || !cvpre.is_true_lit() || *cvf != AbsFun::Id {
                return Err(
                    "WsWhile condition must be id-abstracted with trivial precondition".into(),
                );
            }
            if cva != acond || cvc != ccond {
                return Err("WsWhile condition mismatch".into());
            }
            let (bctx, brx, bex, ba, bc) = as_wstmt(prems[1])?;
            if *bctx != ctx2 || bex != ex || *brx != packed {
                return Err("WsWhile body context/abstraction mismatch".into());
            }
            if ba != &**abody || bc != &**cbody {
                return Err("WsWhile body mismatch".into());
            }
            if rx != &packed {
                return Err("WsWhile rx must be the packed iterator abstraction".into());
            }
            // the guard prefix must be exactly the initialiser preconditions
            let expect = guarded(GuardKind::WordAbs, &pre_all(pres), abs_inner.clone());
            if *abs == expect {
                Ok(())
            } else {
                Err("WsWhile initialiser guards do not match".into())
            }
        }
        Rule::WsCall => {
            let (Prog::Call { fname, args: cargs }, abs_inner) = (conc, strip_guard(abs)) else {
                return Err("WsCall concrete side must be a call".into());
            };
            let mut pres = Vec::new();
            let mut abs_args = Vec::new();
            let mut arg_fs = Vec::new();
            if prems.len() != cargs.len() {
                return Err("WsCall premise count mismatch".into());
            }
            for (p, ca) in prems.iter().zip(cargs) {
                let (pctx, pp, pf, pa, pc) = as_wval(p)?;
                if pctx != ctx || pc != ca {
                    return Err("WsCall argument premise mismatch".into());
                }
                pres.push(pp.clone());
                abs_args.push(pa.clone());
                arg_fs.push(pf.clone());
            }
            match cx.fn_abs.get(fname) {
                Some((param_fs, f_rx, f_ex)) => {
                    if *param_fs != arg_fs {
                        return Err("WsCall argument abstractions do not match the callee".into());
                    }
                    if rx != f_rx || ex != f_ex {
                        return Err("WsCall rx/ex must match the callee".into());
                    }
                    let expect = Prog::Call {
                        fname: fname.clone(),
                        args: abs_args,
                    };
                    if *abs_inner == expect
                        && *abs == guarded(GuardKind::WordAbs, &pre_all(pres), expect.clone())
                    {
                        Ok(())
                    } else {
                        Err("WsCall conclusion does not match".into())
                    }
                }
                None => {
                    // Call to a non-abstracted function: arguments must be
                    // id-abstracted; the result may be wrapped.
                    if arg_fs.iter().any(|f| *f != AbsFun::Id) {
                        return Err(
                            "WsCall to non-abstracted callee requires id arguments".into()
                        );
                    }
                    if *ex != AbsFun::Id {
                        return Err("non-abstracted callee has id exceptions".into());
                    }
                    let call = Prog::Call {
                        fname: fname.clone(),
                        args: abs_args,
                    };
                    let expect_inner = match rx.forward_cast() {
                        None if *rx == AbsFun::Id => call,
                        Some(cast) => Prog::bind(
                            call,
                            "·r",
                            Prog::ret(Expr::cast(cast, Expr::var("·r"))),
                        ),
                        _ => return Err("WsCall cannot wrap with tuple abstraction".into()),
                    };
                    if *abs == guarded(GuardKind::WordAbs, &pre_all(pres), expect_inner) {
                        Ok(())
                    } else {
                        Err("WsCall (concrete callee) conclusion does not match".into())
                    }
                }
            }
        }
        Rule::WsCatch => {
            let [l, r] = prems else {
                return Err("WsCatch takes two premises".into());
            };
            let (lctx, lrx, lex, la, lc) = as_wstmt(l)?;
            let (rctx, rrx, rex, ra, rc) = as_wstmt(r)?;
            let (Prog::Catch(ca, v, cb), Prog::Catch(aa, v2, ab)) = (conc, abs) else {
                return Err("WsCatch relates catches".into());
            };
            if v != v2 {
                return Err("WsCatch variable mismatch".into());
            }
            let mut expect_rctx = lctx.clone();
            expect_rctx.insert(v.clone(), lex.clone());
            if lctx != ctx || *rctx != expect_rctx {
                return Err("WsCatch context discipline violated".into());
            }
            if lrx != rx || rrx != rx || rex != ex {
                return Err("WsCatch rx/ex mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("WsCatch components do not match premises".into())
            }
        }
        Rule::WsExecConcrete => {
            if !prems.is_empty() {
                return Err("WsExecConcrete takes no premises".into());
            }
            if abs != conc {
                return Err("WsExecConcrete passes the program through unchanged".into());
            }
            if !matches!(conc, Prog::ExecConcrete(_) | Prog::ExecAbstract(_)) {
                return Err("WsExecConcrete applies to level-mixing markers".into());
            }
            if *rx != AbsFun::Id || *ex != AbsFun::Id {
                return Err("concrete-level programs have id abstractions".into());
            }
            Ok(())
        }
        other => Err(format!("not a word-statement rule: {other:?}")),
    }
}

/// Strips a leading `guard P;` from a program (returns the continuation).
fn strip_guard(p: &Prog) -> &Prog {
    match p {
        Prog::Bind(l, _, r) if matches!(**l, Prog::Guard(..)) => r,
        other => other,
    }
}

// ---- public constructors ---------------------------------------------------

type R = Result<Thm, KernelError>;

/// `abs_w_val True f v v` for a context variable.
///
/// # Errors
///
/// Fails when `name` is not in `ctx` with abstraction `f`.
pub fn w_var(cx: &CheckCtx, ctx: &VarCtx, name: &str) -> R {
    let f = ctx.get(name).cloned().unwrap_or(AbsFun::Id);
    Thm::admit(
        Rule::WVar,
        vec![],
        Judgment::WVal {
            ctx: ctx.clone(),
            pre: Expr::tt(),
            f,
            abs: Expr::var(name),
            conc: Expr::var(name),
        },
        Side::None,
        cx,
    )
}

/// `abs_w_val True f (f v) v` for a literal.
///
/// # Errors
///
/// Fails when `f` does not apply to the value.
pub fn w_lit(cx: &CheckCtx, ctx: &VarCtx, f: AbsFun, v: &Value) -> R {
    let abs = f
        .apply(v)
        .map_err(|msg| KernelError { rule: Rule::WLit, msg })?;
    Thm::admit(
        Rule::WLit,
        vec![],
        Judgment::WVal {
            ctx: ctx.clone(),
            pre: Expr::tt(),
            f,
            abs: Expr::Lit(abs),
            conc: Expr::Lit(v.clone()),
        },
        Side::None,
        cx,
    )
}

/// A binary arithmetic rule at width `w` (see [`Rule`] for the variants).
///
/// # Errors
///
/// Fails when the premises do not have the required abstraction functions.
pub fn w_arith(cx: &CheckCtx, rule: Rule, w: Width, a: Thm, b: Thm) -> R {
    let concl = arith_conclusion(rule, w, a.judgment(), Some(b.judgment()))
        .map_err(|msg| KernelError { rule, msg })?;
    Thm::admit(rule, vec![a, b], concl, Side::None, cx)
}

/// Signed negation at width `w`.
///
/// # Errors
///
/// Fails when the premise is not a `sint` abstraction.
pub fn s_neg(cx: &CheckCtx, w: Width, a: Thm) -> R {
    let concl = arith_conclusion(Rule::SNeg, w, a.judgment(), None)
        .map_err(|msg| KernelError { rule: Rule::SNeg, msg })?;
    Thm::admit(Rule::SNeg, vec![a], concl, Side::None, cx)
}

/// Comparison under value abstraction (`f = id` on the boolean result).
///
/// # Errors
///
/// Fails on mismatched premise contexts or non-comparison operators.
pub fn w_cmp(cx: &CheckCtx, op: BinOp, a: Thm, b: Thm) -> R {
    let (ctx, pa, _, aa, ac) = as_wval(a.judgment()).map_err(|msg| KernelError {
        rule: Rule::WCmp,
        msg,
    })?;
    let (_, pb, _, ba, bc) = as_wval(b.judgment()).map_err(|msg| KernelError {
        rule: Rule::WCmp,
        msg,
    })?;
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all([pa.clone(), pb.clone()]),
        f: AbsFun::Id,
        abs: Expr::binop(op, aa.clone(), ba.clone()),
        conc: Expr::binop(op, ac.clone(), bc.clone()),
    };
    Thm::admit(Rule::WCmp, vec![a, b], concl, Side::None, cx)
}

/// `of_nat`/`of_int` re-concretisation of an abstracted value.
///
/// # Errors
///
/// Fails when the premise has the wrong abstraction function.
pub fn w_reconcretize(cx: &CheckCtx, w: Width, s: Signedness, a: Thm) -> R {
    let (ctx, pa, fa, aa, ac) = as_wval(a.judgment()).map_err(|msg| KernelError {
        rule: Rule::WOfNat,
        msg,
    })?;
    let (rule, kind) = match fa {
        AbsFun::Unat => (Rule::WOfNat, CastKind::OfNat(w, s)),
        AbsFun::Sint => (Rule::WOfInt, CastKind::OfInt(w, s)),
        other => {
            return Err(KernelError {
                rule: Rule::WOfNat,
                msg: format!("cannot re-concretise {other}"),
            })
        }
    };
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: pa.clone(),
        f: AbsFun::Id,
        abs: Expr::cast(kind, aa.clone()),
        conc: ac.clone(),
    };
    Thm::admit(rule, vec![a], concl, Side::None, cx)
}

/// Wraps an id-abstracted word term in `unat`/`sint`.
///
/// # Errors
///
/// Fails when the premise is not id-abstracted.
pub fn w_wrap(cx: &CheckCtx, f: AbsFun, a: Thm) -> R {
    let (ctx, pa, _, aa, ac) = as_wval(a.judgment()).map_err(|msg| KernelError {
        rule: Rule::WUnatWrap,
        msg,
    })?;
    let (rule, kind) = match f {
        AbsFun::Unat => (Rule::WUnatWrap, CastKind::Unat),
        AbsFun::Sint => (Rule::WSintWrap, CastKind::Sint),
        other => {
            return Err(KernelError {
                rule: Rule::WUnatWrap,
                msg: format!("cannot wrap with {other}"),
            })
        }
    };
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: pa.clone(),
        f,
        abs: Expr::cast(kind, aa.clone()),
        conc: ac.clone(),
    };
    Thm::admit(rule, vec![a], concl, Side::None, cx)
}

/// Congruence for id-abstracted operators: rebuilds `conc`'s operator with
/// the premises' abstract children.
///
/// # Errors
///
/// Fails when the premises do not match `conc`'s children.
pub fn w_id_cong(cx: &CheckCtx, ctx: &VarCtx, conc: &Expr, kids: Vec<Thm>) -> R {
    let mut abs_kids = Vec::new();
    let mut pres = Vec::new();
    for k in &kids {
        let (_, pp, _, pa, _) = as_wval(k.judgment()).map_err(|msg| KernelError {
            rule: Rule::WIdCong,
            msg,
        })?;
        abs_kids.push(pa.clone());
        pres.push(pp.clone());
    }
    let abs = conc.with_children(&abs_kids).map_err(|msg| KernelError {
        rule: Rule::WIdCong,
        msg,
    })?;
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all(pres),
        f: AbsFun::Id,
        abs,
        conc: conc.clone(),
    };
    Thm::admit(Rule::WIdCong, kids, concl, Side::None, cx)
}

/// Conditional expression with branch-weakened preconditions.
///
/// # Errors
///
/// Fails on mismatched branch abstractions.
pub fn w_ite(cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    let (ctx, pc, _, ca, cc) = as_wval(c.judgment()).map_err(|msg| KernelError {
        rule: Rule::WIte,
        msg,
    })?;
    let (_, pt, ft, ta, tc) = as_wval(t.judgment()).map_err(|msg| KernelError {
        rule: Rule::WIte,
        msg,
    })?;
    let (_, pe, _, ea, ec) = as_wval(e.judgment()).map_err(|msg| KernelError {
        rule: Rule::WIte,
        msg,
    })?;
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: pre_all([
            pc.clone(),
            weaken(ca, pt),
            weaken(&Expr::not(ca.clone()), pe),
        ]),
        f: ft.clone(),
        abs: Expr::ite(ca.clone(), ta.clone(), ea.clone()),
        conc: Expr::ite(cc.clone(), tc.clone(), ec.clone()),
    };
    Thm::admit(Rule::WIte, vec![c, t, e], concl, Side::None, cx)
}

/// Componentwise tuple abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn w_tuple(cx: &CheckCtx, kids: Vec<Thm>) -> R {
    let mut ctx0 = None;
    let mut pres = Vec::new();
    let mut fs = Vec::new();
    let mut abss = Vec::new();
    let mut concs = Vec::new();
    for k in &kids {
        let (ctx, pp, pf, pa, pc) = as_wval(k.judgment()).map_err(|msg| KernelError {
            rule: Rule::WTuple,
            msg,
        })?;
        ctx0.get_or_insert_with(|| ctx.clone());
        pres.push(pp.clone());
        fs.push(pf.clone());
        abss.push(pa.clone());
        concs.push(pc.clone());
    }
    let concl = Judgment::WVal {
        ctx: ctx0.unwrap_or_default(),
        pre: pre_all(pres),
        f: AbsFun::Tuple(fs),
        abs: Expr::Tuple(abss),
        conc: Expr::Tuple(concs),
    };
    Thm::admit(Rule::WTuple, kids, concl, Side::None, cx)
}

/// Tuple projection.
///
/// # Errors
///
/// Fails when the premise is not tuple-abstracted.
pub fn w_proj(cx: &CheckCtx, i: usize, t: Thm) -> R {
    let (ctx, tp, tf, ta, tc) = as_wval(t.judgment()).map_err(|msg| KernelError {
        rule: Rule::WProj,
        msg,
    })?;
    let AbsFun::Tuple(fs) = tf else {
        return Err(KernelError {
            rule: Rule::WProj,
            msg: "premise must be tuple-abstracted".into(),
        });
    };
    if i >= fs.len() {
        return Err(KernelError {
            rule: Rule::WProj,
            msg: "projection out of range".into(),
        });
    }
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: fs[i].clone(),
        abs: Expr::proj(i, ta.clone()),
        conc: Expr::proj(i, tc.clone()),
    };
    Thm::admit(Rule::WProj, vec![t], concl, Side::None, cx)
}

/// `exec_concrete`/`exec_abstract` pass-through.
///
/// # Errors
///
/// Fails when `p` is not a level-mixing marker.
pub fn ws_exec_concrete(cx: &CheckCtx, ctx: &VarCtx, p: &Prog) -> R {
    Thm::admit(
        Rule::WsExecConcrete,
        vec![],
        Judgment::WStmt {
            ctx: ctx.clone(),
            rx: AbsFun::Id,
            ex: AbsFun::Id,
            abs: p.clone(),
            conc: p.clone(),
        },
        Side::None,
        cx,
    )
}

/// Collapses a tuple of identity abstractions to the identity.
///
/// # Errors
///
/// Fails when the premise is not identity-like.
pub fn w_tuple_id(cx: &CheckCtx, t: Thm) -> R {
    let (ctx, tp, _, ta, tc) = as_wval(t.judgment()).map_err(|msg| KernelError {
        rule: Rule::WTupleId,
        msg,
    })?;
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: AbsFun::Id,
        abs: ta.clone(),
        conc: tc.clone(),
    };
    Thm::admit(Rule::WTupleId, vec![t], concl, Side::None, cx)
}

/// Wraps an id-abstracted tuple into a componentwise abstraction.
///
/// # Errors
///
/// Fails for nested-tuple components.
pub fn w_tuple_wrap(cx: &CheckCtx, fs: &[AbsFun], t: Thm) -> R {
    let (ctx, tp, _, ta, tc) = as_wval(t.judgment()).map_err(|msg| KernelError {
        rule: Rule::WTupleWrap,
        msg,
    })?;
    let abs = tuple_wrap_expr(fs, ta).ok_or_else(|| KernelError {
        rule: Rule::WTupleWrap,
        msg: "unsupported component abstraction".into(),
    })?;
    let concl = Judgment::WVal {
        ctx: ctx.clone(),
        pre: tp.clone(),
        f: AbsFun::Tuple(fs.to_vec()),
        abs,
        conc: tc.clone(),
    };
    Thm::admit(Rule::WTupleWrap, vec![t], concl, Side::None, cx)
}

/// A user-supplied idiom rule (Sec 3.3), admitted after randomized sampling
/// of the judgment's semantics.
///
/// # Errors
///
/// Fails when sampling finds a violation.
pub fn w_custom_sampled(
    cx: &CheckCtx,
    judgment: Judgment,
    vars: BTreeMap<String, Ty>,
    trials: u32,
    seed: u64,
) -> R {
    Thm::admit(
        Rule::WCustomSampled,
        vec![],
        judgment,
        Side::SampledWVal { vars, trials, seed },
        cx,
    )
}

/// `WRET`/`WGETS`/`WTHROW`: lifts a value abstraction to a statement,
/// prepending the precondition as a guard.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn ws_value_stmt(cx: &CheckCtx, rule: Rule, ex: AbsFun, v: Thm) -> R {
    let (ctx, pre, f, va, vc) = as_wval(v.judgment()).map_err(|msg| KernelError { rule, msg })?;
    let (mk, rx, ex) = match rule {
        Rule::WsRet => (Prog::Return as fn(Expr) -> Prog, f.clone(), ex),
        Rule::WsGets => (Prog::Gets as fn(Expr) -> Prog, f.clone(), ex),
        Rule::WsThrow => (Prog::Throw as fn(Expr) -> Prog, ex, f.clone()),
        other => {
            return Err(KernelError {
                rule: other,
                msg: "not a value-statement rule".into(),
            })
        }
    };
    let concl = Judgment::WStmt {
        ctx: ctx.clone(),
        rx,
        ex,
        abs: guarded(GuardKind::WordAbs, pre, mk(va.clone())),
        conc: mk(vc.clone()),
    };
    Thm::admit(rule, vec![v], concl, Side::None, cx)
}

/// `modify` abstraction.
///
/// # Errors
///
/// Fails when the premises do not match the update's expressions.
pub fn ws_modify(cx: &CheckCtx, ctx: &VarCtx, ex: AbsFun, conc_upd: &Update, kids: Vec<Thm>) -> R {
    let mut abs_exprs = Vec::new();
    let mut pres = Vec::new();
    for k in &kids {
        let (_, pp, _, pa, _) = as_wval(k.judgment()).map_err(|msg| KernelError {
            rule: Rule::WsModify,
            msg,
        })?;
        abs_exprs.push(pa.clone());
        pres.push(pp.clone());
    }
    let au = conc_upd.with_exprs(&abs_exprs).map_err(|msg| KernelError {
        rule: Rule::WsModify,
        msg,
    })?;
    let concl = Judgment::WStmt {
        ctx: ctx.clone(),
        rx: AbsFun::Id,
        ex,
        abs: guarded(GuardKind::WordAbs, &pre_all(pres), Prog::Modify(au)),
        conc: Prog::Modify(conc_upd.clone()),
    };
    Thm::admit(Rule::WsModify, kids, concl, Side::None, cx)
}

/// Guard-statement abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn ws_guard(cx: &CheckCtx, kind: GuardKind, ex: AbsFun, v: Thm) -> R {
    let (ctx, pre, _, va, vc) = as_wval(v.judgment()).map_err(|msg| KernelError {
        rule: Rule::WsGuard,
        msg,
    })?;
    let concl = Judgment::WStmt {
        ctx: ctx.clone(),
        rx: AbsFun::Id,
        ex,
        abs: guarded(
            GuardKind::WordAbs,
            pre,
            Prog::Guard(kind.clone(), va.clone()),
        ),
        conc: Prog::Guard(kind, vc.clone()),
    };
    Thm::admit(Rule::WsGuard, vec![v], concl, Side::None, cx)
}

/// `fail ⊑ fail`.
///
/// # Errors
///
/// Never fails in practice (infallible side conditions).
pub fn ws_fail(cx: &CheckCtx, ctx: &VarCtx, rx: AbsFun, ex: AbsFun) -> R {
    Thm::admit(
        Rule::WsFail,
        vec![],
        Judgment::WStmt {
            ctx: ctx.clone(),
            rx,
            ex,
            abs: Prog::Fail,
            conc: Prog::Fail,
        },
        Side::None,
        cx,
    )
}

/// `WBIND`.
///
/// # Errors
///
/// Fails when the continuation's context does not extend the left side's.
pub fn ws_bind(cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    let (ctx, _, ex, la, lc) = clone_wstmt(&l)?;
    let (_, rrx, _, ra, rc) = clone_wstmt(&r)?;
    let concl = Judgment::WStmt {
        ctx,
        rx: rrx,
        ex,
        abs: Prog::bind(la, v, ra),
        conc: Prog::bind(lc, v, rc),
    };
    Thm::admit(Rule::WsBind, vec![l, r], concl, Side::None, cx)
}

/// `condition` abstraction.
///
/// # Errors
///
/// Fails on mismatched branches.
pub fn ws_cond(cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    let (ctx, pc, _, ca, cc) = match c.judgment() {
        Judgment::WVal { ctx, pre, f, abs, conc } => {
            (ctx.clone(), pre.clone(), f.clone(), abs.clone(), conc.clone())
        }
        other => {
            return Err(KernelError {
                rule: Rule::WsCond,
                msg: format!("expected abs_w_val, got {}", other.describe()),
            })
        }
    };
    let (_, rx, ex, ta, tc) = clone_wstmt(&t)?;
    let (_, _, _, ea, ec) = clone_wstmt(&e)?;
    let concl = Judgment::WStmt {
        ctx,
        rx,
        ex,
        abs: guarded(GuardKind::WordAbs, &pc, Prog::cond(ca, ta, ea)),
        conc: Prog::cond(cc, tc, ec),
    };
    Thm::admit(Rule::WsCond, vec![c, t, e], concl, Side::None, cx)
}

/// `whileLoop` abstraction.
///
/// # Errors
///
/// Fails when the condition has a non-trivial precondition or the iterator
/// contexts are inconsistent.
pub fn ws_while(
    cx: &CheckCtx,
    ctx: &VarCtx,
    vars: &[String],
    cond: Thm,
    body: Thm,
    inits: Vec<Thm>,
) -> R {
    let (_, _, cvf, cva, cvc) = as_wval(cond.judgment()).map_err(|msg| KernelError {
        rule: Rule::WsWhile,
        msg,
    })?;
    let _ = cvf;
    let (_, brx, bex, ba, bc) = clone_wstmt(&body)?;
    let _ = brx;
    let mut fs = Vec::new();
    let mut pres = Vec::new();
    let mut ainit = Vec::new();
    let mut cinit = Vec::new();
    for i in &inits {
        let (_, pp, pf, pa, pc) = as_wval(i.judgment()).map_err(|msg| KernelError {
            rule: Rule::WsWhile,
            msg,
        })?;
        fs.push(pf.clone());
        pres.push(pp.clone());
        ainit.push(pa.clone());
        cinit.push(pc.clone());
    }
    let packed = if fs.len() == 1 {
        fs[0].clone()
    } else {
        AbsFun::Tuple(fs)
    };
    let abs_loop = Prog::While {
        vars: vars.to_vec(),
        cond: cva.clone(),
        body: ir::intern::Interned::new(ba),
        init: ainit,
    };
    let conc_loop = Prog::While {
        vars: vars.to_vec(),
        cond: cvc.clone(),
        body: ir::intern::Interned::new(bc),
        init: cinit,
    };
    let concl = Judgment::WStmt {
        ctx: ctx.clone(),
        rx: packed,
        ex: bex,
        abs: guarded(GuardKind::WordAbs, &pre_all(pres), abs_loop),
        conc: conc_loop,
    };
    let mut prems = vec![cond, body];
    prems.extend(inits);
    Thm::admit(Rule::WsWhile, prems, concl, Side::None, cx)
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
    let mut pres = Vec::new();
    let mut abs_args = Vec::new();
    let mut conc_args = Vec::new();
    for a in &args {
        let (_, pp, _, pa, pc) = as_wval(a.judgment()).map_err(|msg| KernelError {
            rule: Rule::WsCall,
            msg,
        })?;
        pres.push(pp.clone());
        abs_args.push(pa.clone());
        conc_args.push(pc.clone());
    }
    let call = Prog::Call {
        fname: fname.to_owned(),
        args: abs_args,
    };
    let (rx, ex, abs_inner) = match cx.fn_abs.get(fname) {
        Some((_, f_rx, f_ex)) => (f_rx.clone(), f_ex.clone(), call),
        None => {
            let inner = match rx_for_conc_callee.forward_cast() {
                None => call,
                Some(cast) => Prog::bind(
                    call,
                    "·r",
                    Prog::ret(Expr::cast(cast, Expr::var("·r"))),
                ),
            };
            (rx_for_conc_callee, AbsFun::Id, inner)
        }
    };
    let concl = Judgment::WStmt {
        ctx: ctx.clone(),
        rx,
        ex,
        abs: guarded(GuardKind::WordAbs, &pre_all(pres), abs_inner),
        conc: Prog::Call {
            fname: fname.to_owned(),
            args: conc_args,
        },
    };
    Thm::admit(Rule::WsCall, args, concl, Side::None, cx)
}

/// `catch` abstraction.
///
/// # Errors
///
/// Fails when the handler's context does not bind the exception variable.
pub fn ws_catch(cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    let (ctx, rx, _, la, lc) = clone_wstmt(&l)?;
    let (_, _, rex, ra, rc) = clone_wstmt(&r)?;
    let concl = Judgment::WStmt {
        ctx,
        rx,
        ex: rex,
        abs: Prog::Catch(ir::intern::Interned::new(la), v.to_owned(), ir::intern::Interned::new(ra)),
        conc: Prog::Catch(ir::intern::Interned::new(lc), v.to_owned(), ir::intern::Interned::new(rc)),
    };
    Thm::admit(Rule::WsCatch, vec![l, r], concl, Side::None, cx)
}

/// `WBIND` with a tuple pattern.
///
/// # Errors
///
/// Fails when the continuation's context does not extend the left side's
/// componentwise.
pub fn ws_bind_tuple(cx: &CheckCtx, vs: &[String], l: Thm, r: Thm) -> R {
    let (ctx, _, ex, la, lc) = clone_wstmt(&l)?;
    let (_, rrx, _, ra, rc) = clone_wstmt(&r)?;
    let concl = Judgment::WStmt {
        ctx,
        rx: rrx,
        ex,
        abs: Prog::bind_tuple(la, vs.to_vec(), ra),
        conc: Prog::bind_tuple(lc, vs.to_vec(), rc),
    };
    Thm::admit(Rule::WsBindTuple, vec![l, r], concl, Side::None, cx)
}

fn clone_wstmt(t: &Thm) -> Result<(VarCtx, AbsFun, AbsFun, Prog, Prog), KernelError> {
    match t.judgment() {
        Judgment::WStmt { ctx, rx, ex, abs, conc } => Ok((
            ctx.clone(),
            rx.clone(),
            ex.clone(),
            abs.clone(),
            conc.clone(),
        )),
        other => Err(KernelError {
            rule: Rule::WsBind,
            msg: format!("expected abs_w_stmt, got {}", other.describe()),
        }),
    }
}
