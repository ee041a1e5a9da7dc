//! The inference rules.
//!
//! Each rule is one private *conclusion function* in [`word`], [`heap`] or
//! [`refine`]: it takes the premise judgments and the parameters they do
//! not fix (a width, an operator, a bound variable, a callee, a Simpl
//! statement, …), checks every side condition of the rule, and returns
//! the conclusion. The rule's public constructor applies it once through
//! `Thm::infer`; constructors are the only way to obtain a
//! [`Thm`](crate::Thm). The checker (`rules::validate`) reads the parameters
//! back off a proposed conclusion, calls the same function, and compares
//! whole judgments, so a rule is stated once and a check cannot forget a
//! field.
//!
//! The congruence rules (`WIdCong`, `HCong`, `WsModify`) split and rebuild
//! terms with [`Expr::children`]/[`Expr::with_children`] and
//! [`Update::exprs`](ir::update::Update::exprs)/[`Update::with_exprs`](ir::update::Update::with_exprs),
//! the decomposition the engines use to order their premises.

pub mod heap;
pub mod refine;
pub mod word;

use ir::expr::{BinOp, CastKind, Expr};
use ir::ty::Ty;
use ir::update::Update;
use monadic::Prog;

use crate::judgment::{AbsFun, Judgment};
use crate::thm::{CheckCtx, Rule, Side};

pub(crate) type V = Result<(), String>;

/// What a conclusion function returns: the conclusion, or why the rule
/// does not apply.
pub(crate) type Concl = Result<Judgment, String>;

/// The premises of a rule that takes exactly `N` of them.
pub(crate) fn premises<'a, const N: usize>(
    prems: &[&'a Judgment],
) -> Result<[&'a Judgment; N], String> {
    prems
        .try_into()
        .map_err(|_| format!("takes {N} premises, got {}", prems.len()))
}

/// Checks one proposed rule application (used by replay and by the
/// certificate reader): reads the rule's parameters off `concl`, recomputes
/// the conclusion from `prems` with the rule's conclusion function, and
/// compares.
///
/// # Errors
///
/// Returns a human-readable reason when the conclusion does not follow.
#[allow(clippy::too_many_lines)]
pub(crate) fn validate(
    rule: Rule,
    prems: &[&Judgment],
    concl: &Judgment,
    side: &Side,
    cx: &CheckCtx,
) -> V {
    use Rule::*;
    let wrong = || -> Concl {
        Err(format!(
            "{rule:?} does not conclude this {}",
            concl.describe()
        ))
    };
    let expect = match concl {
        Judgment::WVal {
            ctx,
            pre,
            f,
            abs,
            conc,
        } => match (rule, abs, conc) {
            (WVar, _, Expr::Var(n)) => word::var(prems, ctx, *n),
            (WLit, _, Expr::Lit(v)) => word::lit(prems, ctx, f, v),
            (WSum | WSub | WMul | WDiv | WMod | SSum | SSub | SMul | SDiv | SMod | SNeg, ..) => {
                word::arith(prems, rule, word::arith_width(pre))
            }
            (WCmp, Expr::BinOp(op, ..), _) => word::cmp(prems, *op),
            (WOfNat | WOfInt, Expr::Cast(CastKind::OfNat(w, s) | CastKind::OfInt(w, s), _), _) => {
                word::reconcretize(prems, rule, *w, *s)
            }
            (WUnatWrap | WSintWrap, ..) => word::wrap(prems, rule),
            (WIdCong, ..) => word::id_cong(prems, ctx, conc),
            (WIte, ..) => word::ite(prems),
            (WTuple, ..) => word::tuple(prems, ctx),
            (WProj, _, Expr::Proj(i, _)) => word::proj(prems, *i),
            (WTupleId, ..) => word::tuple_id(prems),
            (WTupleWrap, ..) => match f {
                AbsFun::Tuple(fs) => word::tuple_wrap(prems, fs),
                _ => wrong(),
            },
            (WCustomSampled, ..) => word::custom_sampled(prems, concl.clone(), side),
            _ => wrong(),
        },
        Judgment::WStmt {
            ctx, rx, ex, conc, ..
        } => match (rule, conc) {
            (WsRet | WsGets, _) => word::value_stmt(prems, rule, ex),
            (WsThrow, _) => word::value_stmt(prems, rule, rx),
            (WsModify, Prog::Modify(u)) => word::modify(prems, ctx, ex, u),
            (WsGuard, Prog::Guard(kind, _)) => word::guard(prems, kind, ex),
            (WsFail, _) => word::fail(prems, ctx, rx, ex),
            (WsBind, Prog::Bind(_, v, _)) => word::bind(prems, v),
            (WsBindTuple, Prog::BindTuple(_, vs, _)) => word::bind_tuple(prems, vs),
            (WsCond, _) => word::cond(prems),
            (WsWhile, Prog::While { vars, .. }) => word::while_loop(prems, ctx, vars),
            (WsCall, Prog::Call { fname, .. }) => word::call(prems, cx, ctx, fname, rx),
            (WsCatch, Prog::Catch(_, v, _)) => word::catch(prems, v),
            (WsExecConcrete, _) => word::exec_concrete(prems, ctx, conc),
            _ => wrong(),
        },
        Judgment::HVal { abs, conc, .. } => match (rule, conc) {
            (HLit | HVar, _) => heap::leaf(prems, rule, conc),
            (HCong, _) => heap::cong(prems, conc),
            (HValWeaken, Expr::BinOp(op, ..)) => heap::val_weaken(prems, *op),
            (HRead, Expr::ReadHeap(ty, _)) => heap::read(prems, ty),
            (HReadField, Expr::ReadHeap(fty, p)) => {
                match (heap::struct_read(abs), heap::offset(p)) {
                    (Some(sname), Some(off)) => heap::read_field(prems, cx, sname, fty, off),
                    _ => wrong(),
                }
            }
            (HGuardPtr, Expr::BinOp(BinOp::And, l, _)) => match &**l {
                Expr::PtrAligned(ty, _) => heap::guard_ptr(prems, ty),
                _ => wrong(),
            },
            _ => wrong(),
        },
        Judgment::HUpd { abs, conc, .. } => match (rule, abs, conc) {
            (HUpd, _, Update::Heap(ty, ..)) => heap::upd(prems, ty),
            (HUpdField, Update::Heap(Ty::Struct(sname), ..), Update::Heap(fty, p, _)) => {
                match heap::offset(p) {
                    Some(off) => heap::upd_field(prems, cx, sname, fty, off),
                    None => wrong(),
                }
            }
            (HUpdVar, ..) => heap::upd_var(prems, conc),
            _ => wrong(),
        },
        Judgment::HStmt { conc, .. } => match (rule, conc) {
            (HsGets | HsRet | HsThrow, _) => heap::value_stmt(prems, rule),
            (HsModify, _) => heap::modify(prems),
            (HsGuard, Prog::Guard(kind, _)) => heap::guard(prems, kind),
            (HsFail, _) => heap::fail(prems),
            (HsBind, Prog::Bind(_, v, _)) => heap::bind(prems, v),
            (HsBindTuple, Prog::BindTuple(_, vs, _)) => heap::bind_tuple(prems, vs),
            (HsCond, _) => heap::cond(prems),
            (HsWhile, Prog::While { vars, init, .. }) => heap::while_loop(prems, vars, init),
            (HsCatch, Prog::Catch(_, v, _)) => heap::catch(prems, v),
            (HsCall, Prog::Call { fname, args }) => heap::call(prems, fname, args),
            (HsExecConcrete, _) => heap::exec_concrete(prems, conc),
            _ => wrong(),
        },
        // The statement is the rule's parameter: compare the program only.
        Judgment::L1 { prog, simpl } => return same(&refine::l1_prog(prems, rule, simpl)?, prog),
        Judgment::Refines { abs, conc } => match (rule, conc) {
            (ReflRefines, _) => refine::refl(prems, conc),
            (TransRefines, _) => refine::trans(prems),
            (BindCong, Prog::Bind(_, v, _)) => refine::bind(prems, v),
            (CondCong, Prog::Condition(c, ..)) => refine::cond(prems, c),
            (CatchCong, Prog::Catch(_, v, _)) => refine::catch(prems, v),
            (
                WhileCong,
                Prog::While {
                    vars, cond, init, ..
                },
            ) => refine::while_loop(prems, vars, cond, init),
            (DischargeGuard, _) => refine::discharge(prems, conc),
            (ExecTested, _) => refine::tested(prems, abs, conc, side),
            _ => wrong(),
        },
        Judgment::AbsGuard { hyp, kind, guard } => match rule {
            AbsintDischarge => refine::absint(prems, hyp, kind, guard),
            _ => wrong(),
        },
    };
    same(&expect?, concl)
}

fn same<T: PartialEq>(expect: &T, concl: &T) -> V {
    if expect == concl {
        Ok(())
    } else {
        Err("the conclusion is not the rule's".into())
    }
}

/// Conjunction of preconditions in canonical (left-fold) order, dropping
/// trivial `true` conjuncts. Engines and rules must use the same helper so
/// their conclusions compare equal.
#[must_use]
pub fn pre_all(pres: impl IntoIterator<Item = Expr>) -> Expr {
    pres.into_iter().fold(Expr::tt(), Expr::and)
}

#[cfg(test)]
mod tests;
