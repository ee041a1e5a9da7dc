//! L1 correspondence rules (Table 1) and the monadic refinement rules used
//! by the L2 rewrites.

use ir::expr::Expr;
use ir::guard::GuardKind;
use ir::intern::Interned;
use monadic::Prog;
use simpl::stmt::{ISimpl, SimplStmt};

use crate::judgment::Judgment;
use crate::rules::{premises, Concl};
use crate::thm::{CheckCtx, KernelError, Rule, Side, Thm};

fn as_l1(j: &Judgment) -> Result<(&Prog, &ISimpl), String> {
    match j {
        Judgment::L1 { prog, simpl } => Ok((prog, simpl)),
        other => Err(format!("expected l1corres, got {}", other.describe())),
    }
}

fn as_refines(j: &Judgment) -> Result<(&Prog, &Prog), String> {
    match j {
        Judgment::Refines { abs, conc } => Ok((abs, conc)),
        other => Err(format!("expected refines, got {}", other.describe())),
    }
}

/// The Table 1 rule for a statement's shape.
fn l1_rule(simpl: &SimplStmt) -> Rule {
    match simpl {
        SimplStmt::Skip => Rule::L1Skip,
        SimplStmt::Basic(_) => Rule::L1Basic,
        SimplStmt::Seq(..) => Rule::L1Seq,
        SimplStmt::Cond(..) => Rule::L1Cond,
        SimplStmt::While(..) => Rule::L1While,
        SimplStmt::Guard(..) => Rule::L1Guard,
        SimplStmt::Throw => Rule::L1Throw,
        SimplStmt::TryCatch(..) => Rule::L1Catch,
        SimplStmt::Call { .. } => Rule::L1Call,
    }
}

// ---- conclusion functions --------------------------------------------------
//
// One per rule (the nine L1 rules share one): premises and parameters in,
// side conditions checked, conclusion out. The public constructors below
// apply them through `Thm::infer`; `rules::validate` recomputes them.

/// `L1Skip` … `L1Call`: the canonical L1 image of `simpl` (the content of
/// Table 1), given `l1corres` premises for its sub-statements in order.
/// The statement is the rule's parameter, so this returns the monadic
/// program only; `l1_concl` pairs the two. Statements are interned, so a
/// premise states the sub-statement exactly when it holds the same handle.
pub(super) fn l1_prog(prems: &[&Judgment], rule: Rule, simpl: &SimplStmt) -> Result<Prog, String> {
    if rule != l1_rule(simpl) {
        return Err(format!("rule {rule:?} does not apply to this statement"));
    }
    let subs = simpl.children();
    if prems.len() != subs.len() {
        return Err("premise count must match sub-statement count".into());
    }
    let mut sub = Vec::with_capacity(subs.len());
    for (p, s) in prems.iter().zip(subs) {
        let (pp, ps) = as_l1(p)?;
        if !ISimpl::ptr_eq(ps, s) {
            return Err("premise Simpl side must be the sub-statement".into());
        }
        sub.push(pp);
    }
    Ok(match simpl {
        SimplStmt::Skip => Prog::skip(),
        SimplStmt::Basic(u) => Prog::Modify(u.clone()),
        SimplStmt::Seq(..) => Prog::bind(sub[0].clone(), "_", sub[1].clone()),
        SimplStmt::Cond(c, ..) => Prog::cond(c.clone(), sub[0].clone(), sub[1].clone()),
        SimplStmt::While(c, _) => Prog::While {
            vars: vec!["_".to_owned()],
            cond: c.clone(),
            body: Interned::new(Prog::then(sub[0].clone(), Prog::skip())),
            init: vec![Expr::unit()],
        },
        SimplStmt::Guard(k, g, _) => Prog::then(Prog::Guard(k.clone(), g.clone()), sub[0].clone()),
        SimplStmt::Throw => Prog::Throw(Expr::unit()),
        SimplStmt::TryCatch(..) => Prog::Catch(
            Interned::new(sub[0].clone()),
            "_".to_owned(),
            Interned::new(sub[1].clone()),
        ),
        SimplStmt::Call {
            fname,
            args,
            ret_local,
        } => {
            let call = Prog::Call {
                fname: fname.clone(),
                args: args.clone(),
            };
            match ret_local {
                Some(r) => Prog::bind(
                    call,
                    "·ret",
                    Prog::Modify(ir::update::Update::Local(r.clone(), Expr::var("·ret"))),
                ),
                None => Prog::then(call, Prog::skip()),
            }
        }
    })
}

/// The L1 rules' conclusion: `simpl` and its image.
fn l1_concl(prems: &[&Judgment], rule: Rule, simpl: &ISimpl) -> Concl {
    Ok(Judgment::L1 {
        prog: l1_prog(prems, rule, simpl)?,
        simpl: simpl.clone(),
    })
}

/// `ReflRefines`: `p` refines itself.
pub(super) fn refl(prems: &[&Judgment], p: &Prog) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::Refines {
        abs: p.clone(),
        conc: p.clone(),
    })
}

/// `TransRefines`: the premises chain through their shared middle program.
pub(super) fn trans(prems: &[&Judgment]) -> Concl {
    let [a, b] = premises(prems)?;
    let (a1, a2) = as_refines(a)?;
    let (b1, b2) = as_refines(b)?;
    if a2 != b1 {
        return Err("transitivity sides do not chain".into());
    }
    Ok(Judgment::Refines {
        abs: a1.clone(),
        conc: b2.clone(),
    })
}

/// `BindCong`: congruence under `bind` with bound variable `v`.
pub(super) fn bind(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (la, lc) = as_refines(l)?;
    let (ra, rc) = as_refines(r)?;
    Ok(Judgment::Refines {
        abs: Prog::bind(la.clone(), v, ra.clone()),
        conc: Prog::bind(lc.clone(), v, rc.clone()),
    })
}

/// `CondCong`: congruence under `condition c`.
pub(super) fn cond(prems: &[&Judgment], c: &Expr) -> Concl {
    let [t, e] = premises(prems)?;
    let (ta, tc) = as_refines(t)?;
    let (ea, ec) = as_refines(e)?;
    Ok(Judgment::Refines {
        abs: Prog::cond(c.clone(), ta.clone(), ea.clone()),
        conc: Prog::cond(c.clone(), tc.clone(), ec.clone()),
    })
}

/// `CatchCong`: congruence under `catch` with handler variable `v`.
pub(super) fn catch(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (la, lc) = as_refines(l)?;
    let (ra, rc) = as_refines(r)?;
    let catch = |l: &Prog, r: &Prog| {
        Prog::Catch(
            Interned::new(l.clone()),
            v.to_owned(),
            Interned::new(r.clone()),
        )
    };
    Ok(Judgment::Refines {
        abs: catch(la, ra),
        conc: catch(lc, rc),
    })
}

/// `WhileCong`: congruence under `whileLoop` with the same iterators,
/// condition and initialisers.
pub(super) fn while_loop(
    prems: &[&Judgment],
    vars: &[String],
    cond: &Expr,
    init: &[Expr],
) -> Concl {
    let [b] = premises(prems)?;
    let (ba, bc) = as_refines(b)?;
    let with_body = |body: &Prog| Prog::While {
        vars: vars.to_vec(),
        cond: cond.clone(),
        body: Interned::new(body.clone()),
        init: init.to_vec(),
    };
    Ok(Judgment::Refines {
        abs: with_body(ba),
        conc: with_body(bc),
    })
}

/// `DischargeGuard`: `skip` refines a guard the simplifier proves true.
pub(super) fn discharge(prems: &[&Judgment], conc: &Prog) -> Concl {
    let [] = premises(prems)?;
    let Prog::Guard(_, g) = conc else {
        return Err("guard discharge applies to guards".into());
    };
    if !solver::simplify::simplify(g).is_true_lit() {
        return Err(format!("simplifier cannot prove guard `{g}`"));
    }
    Ok(Judgment::Refines {
        abs: Prog::skip(),
        conc: conc.clone(),
    })
}

/// `AbsintDischarge`: `hyp ⟹ guard` when interval reasoning alone derives
/// it (the judgment is self-contained, so replay needs nothing from the
/// analysis that produced it).
pub(super) fn absint(prems: &[&Judgment], hyp: &Expr, kind: &GuardKind, guard: &Expr) -> Concl {
    let [] = premises(prems)?;
    if !solver::interval::entails(hyp, guard) {
        return Err(format!(
            "interval reasoning cannot derive `{guard}` from `{hyp}`"
        ));
    }
    Ok(Judgment::AbsGuard {
        hyp: hyp.clone(),
        kind: kind.clone(),
        guard: guard.clone(),
    })
}

/// `ExecTested`: `abs` refines `conc` on the testing evidence `side`
/// records, which must be at least one trial.
pub(super) fn tested(prems: &[&Judgment], abs: &Prog, conc: &Prog, side: &Side) -> Concl {
    let [] = premises(prems)?;
    if !matches!(side, Side::Tested { trials, .. } if *trials > 0) {
        return Err("ExecTested requires recorded testing evidence".into());
    }
    Ok(Judgment::Refines {
        abs: abs.clone(),
        conc: conc.clone(),
    })
}

// ---- public constructors ---------------------------------------------------

type R = Result<Thm, KernelError>;

/// L1 translation of one Simpl statement given premises for its
/// sub-statements ([`SimplStmt::children`]); picks the matching Table 1
/// rule.
///
/// # Errors
///
/// Fails when the premises do not match the statement's children.
pub fn l1(_cx: &CheckCtx, simpl: &ISimpl, subs: Vec<Thm>) -> R {
    let rule = l1_rule(simpl);
    Thm::infer(rule, subs, Side::None, |p| l1_concl(p, rule, simpl))
}

/// Reflexivity.
///
/// # Errors
///
/// Infallible in practice.
pub fn refines_refl(_cx: &CheckCtx, p: &Prog) -> R {
    Thm::infer(Rule::ReflRefines, vec![], Side::None, |ps| refl(ps, p))
}

/// Transitivity.
///
/// # Errors
///
/// Fails when the middle programs differ.
pub fn refines_trans(_cx: &CheckCtx, a: Thm, b: Thm) -> R {
    Thm::infer(Rule::TransRefines, vec![a, b], Side::None, trans)
}

/// Congruence under `bind`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn bind_cong(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::BindCong, vec![l, r], Side::None, |p| bind(p, v))
}

/// Congruence under `condition` (same condition).
///
/// # Errors
///
/// Fails on malformed premises.
pub fn cond_cong(_cx: &CheckCtx, c: &Expr, t: Thm, e: Thm) -> R {
    Thm::infer(Rule::CondCong, vec![t, e], Side::None, |p| cond(p, c))
}

/// Congruence under `catch`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn catch_cong(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::CatchCong, vec![l, r], Side::None, |p| catch(p, v))
}

/// Congruence under `whileLoop` (same condition/initialisers).
///
/// # Errors
///
/// Fails on malformed premises.
pub fn while_cong(_cx: &CheckCtx, vars: &[String], cond: &Expr, init: &[Expr], body: Thm) -> R {
    Thm::infer(Rule::WhileCong, vec![body], Side::None, |p| {
        while_loop(p, vars, cond, init)
    })
}

/// Guard discharge: the simplifier proves the guard condition.
///
/// # Errors
///
/// Fails when the simplifier cannot reduce the guard to `true`.
pub fn discharge_guard(_cx: &CheckCtx, conc: &Prog) -> R {
    Thm::infer(Rule::DischargeGuard, vec![], Side::None, |p| {
        discharge(p, conc)
    })
}

/// Abstract-interpretation guard discharge: admits `hyp ⟹ guard` when
/// interval entailment derives it (the rule's side condition, re-run by the
/// independent checker on replay).
///
/// # Errors
///
/// Fails when interval reasoning cannot derive the guard from the
/// hypothesis.
pub fn absint_discharge(_cx: &CheckCtx, hyp: &Expr, kind: GuardKind, guard: &Expr) -> R {
    Thm::infer(Rule::AbsintDischarge, vec![], Side::None, |p| {
        absint(p, hyp, &kind, guard)
    })
}

/// Refinement admitted after randomized differential testing: runs
/// `validate`, the caller's differential tester, and records its evidence
/// (the trial count and seed), which is all that replay checks. The
/// pipeline's tester is `autocorres::testing::exec_test_fn`: it runs the
/// two sides as whole functions, skips a trial when the abstract side
/// fails or either side runs out of fuel, and compares return values,
/// heaps and globals, not locals. So the theorem rests on that test, not
/// on [`crate::semantics::test_refines`], which compares whole states,
/// locals included.
///
/// # Errors
///
/// Fails when a trial finds a violation.
pub fn exec_tested(
    _cx: &CheckCtx,
    abs: &Prog,
    conc: &Prog,
    trials: u32,
    seed: u64,
    validate: impl FnOnce() -> Result<(), ir::diag::Diag>,
) -> R {
    validate().map_err(|d| KernelError {
        rule: Rule::ExecTested,
        msg: d.message,
    })?;
    let side = Side::Tested { trials, seed };
    Thm::infer(Rule::ExecTested, vec![], side.clone(), |p| {
        tested(p, abs, conc, &side)
    })
}
