//! The inference rules.
//!
//! Each rule has (i) a *validation* — a pure function checking that a
//! conclusion follows from premises, used both at construction time and by
//! the proof checker — and (ii) a public *constructor* that builds the
//! conclusion from premises and admits the theorem. Constructors are the
//! only way to obtain a [`Thm`](crate::Thm).
//!
//! The congruence rules (`WIdCong`, `HCong`, `WsModify`) split and rebuild
//! terms with [`Expr::children`]/[`Expr::with_children`] and
//! [`Update::exprs`](ir::update::Update::exprs)/[`Update::with_exprs`](ir::update::Update::with_exprs),
//! the decomposition the engines use to order their premises.

pub mod heap;
pub mod refine;
pub mod word;

use crate::judgment::Judgment;
use crate::thm::{CheckCtx, Rule, Side};

use ir::expr::Expr;

pub(crate) type V = Result<(), String>;

/// Validates one rule application (used by construction and replay).
///
/// # Errors
///
/// Returns a human-readable reason when the conclusion does not follow.
pub(crate) fn validate(
    rule: Rule,
    premises: &[&Judgment],
    concl: &Judgment,
    side: &Side,
    cx: &CheckCtx,
) -> V {
    use Rule::*;
    match rule {
        WVar | WLit | WSum | WSub | WMul | WDiv | WMod | SSum | SSub | SMul | SDiv | SMod
        | SNeg | WCmp | WOfNat | WOfInt | WUnatWrap | WSintWrap | WIdCong | WIte | WTuple
        | WProj | WTupleId | WTupleWrap | WCustomSampled => word::validate_val(rule, premises, concl, side),
        WsRet | WsGets | WsModify | WsGuard | WsThrow | WsFail | WsBind | WsBindTuple | WsCond | WsWhile
        | WsCall | WsCatch | WsExecConcrete => word::validate_stmt(rule, premises, concl, cx),
        HLit | HVar | HCong | HValWeaken | HRead | HReadField | HGuardPtr | HUpd | HUpdField | HUpdVar => {
            heap::validate_val(rule, premises, concl, cx)
        }
        HsGets | HsModify | HsGuard | HsRet | HsThrow | HsFail | HsBind | HsBindTuple | HsCond | HsWhile
        | HsCatch | HsCall | HsExecConcrete => heap::validate_stmt(rule, premises, concl, cx),
        L1Skip | L1Basic | L1Seq | L1Cond | L1While | L1Guard | L1Throw | L1Catch | L1Call => {
            refine::validate_l1(rule, premises, concl)
        }
        ReflRefines | TransRefines | BindCong | CondCong | CatchCong | WhileCong
        | DischargeGuard | ExecTested => refine::validate_refines(rule, premises, concl, side),
        AbsintDischarge => refine::validate_absint(premises, concl),
    }
}

/// Conjunction of preconditions in canonical (left-fold) order, dropping
/// trivial `true` conjuncts. Engines and validations must use the same
/// helper so recomputed conclusions compare equal.
#[must_use]
pub fn pre_all(pres: impl IntoIterator<Item = Expr>) -> Expr {
    pres.into_iter().fold(Expr::tt(), Expr::and)
}
