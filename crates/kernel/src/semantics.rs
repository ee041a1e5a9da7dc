//! Executable meaning of the judgments, and randomized differential
//! validators.
//!
//! Isabelle proves the kernel rules sound against the monad semantics once
//! and for all. We cannot do that in Rust, so every judgment form gets an
//! *executable* meaning here, and the validators sample it — this is the
//! documented substitute (DESIGN.md §2). The validators are used
//! (i) by the `WCustomSampled` oracle rule ([`sample_wval`]), and (ii)
//! broadly in the test suites, where every end-to-end theorem produced by
//! the engines is also checked semantically on random inputs.
//!
//! The `ExecTested` rule does not use them: it records the evidence of
//! whatever tester its caller passes
//! ([`crate::rules::refine::exec_tested`]). The pipeline's tester is
//! `autocorres::testing::exec_test_fn`, which runs whole functions
//! (callees included), skips a trial when the abstract side fails or
//! either side runs out of fuel, and compares return values, heaps and
//! globals but not locals. [`test_refines`], which the kernel's own tests
//! use, runs two program bodies under one environment and compares whole
//! final states, locals included.

use std::collections::BTreeMap;

use ir::diag::{Diag, DiagKind, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ir::eval::{eval, Env};
use ir::state::State;
use ir::ty::Ty;
use ir::value::{Ptr, Value};
use monadic::interp::{exec, MonadFault, MonadResult};
use monadic::{Prog, ProgramCtx};

use crate::judgment::{AbsFun, Judgment};

/// Builds a testing diagnostic. Messages are unchanged from the historic
/// stringly errors; the structured fields classify them.
fn derr(msg: impl Into<String>) -> Diag {
    Diag::new(Phase::Kernel, DiagKind::Testing, msg)
}

/// Samples a random value of a type (for word/pointer/bool leaves).
///
/// Pointer values land in a small aligned range so that heap-dependent
/// expressions have a chance of hitting allocated objects.
#[must_use]
pub fn random_value(rng: &mut StdRng, ty: &Ty) -> Value {
    match ty {
        Ty::Unit => Value::Unit,
        Ty::Bool => Value::Bool(rng.gen()),
        Ty::Word(w, s) => {
            // Mix uniform bits with boundary values.
            let bits = match rng.gen_range(0..4) {
                0 => rng.gen::<u64>(),
                1 => rng.gen_range(0..16),
                2 => w.mask(),
                _ => 1u64 << (w.bits() - 1),
            };
            Value::Word(ir::word::Word::new(bits, *w, *s))
        }
        Ty::Nat => Value::nat(rng.gen_range(0u64..100)),
        Ty::Int => Value::int(rng.gen_range(-100i64..100)),
        Ty::Ptr(p) => {
            let addr = if rng.gen_bool(0.2) {
                0
            } else {
                u64::from(rng.gen_range(1u32..16)) * 0x100
            };
            Value::Ptr(Ptr::new(addr, (**p).clone()))
        }
        Ty::Struct(_) | Ty::Tuple(_) => Value::Unit,
        Ty::Arr(t, n) => {
            let n = usize::try_from(*n).unwrap_or(0).min(64);
            Value::Arr(t.clone(), (0..n).map(|_| random_value(rng, t)).collect())
        }
    }
}

/// Samples the executable meaning of an `abs_w_val` judgment: for random
/// assignments of the concrete variables (with abstract variables set to
/// their abstraction), whenever the precondition holds, `abs = f conc`.
///
/// # Errors
///
/// Returns a description of the first violating sample.
pub fn sample_wval(
    j: &Judgment,
    vars: &BTreeMap<String, Ty>,
    trials: u32,
    seed: u64,
) -> Result<(), Diag> {
    let Judgment::WVal { ctx, pre, f, abs, conc } = j else {
        return Err(derr("sampling applies to abs_w_val"));
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let st = State::conc_empty();
    let mut checked = 0u32;
    for _ in 0..trials {
        let mut conc_env = Env::new();
        let mut abs_env = Env::new();
        for (name, ty) in vars {
            let cv = random_value(&mut rng, ty);
            let af = ctx.get(name).cloned().unwrap_or(AbsFun::Id);
            let av = af.apply(&cv).map_err(derr)?;
            conc_env.bind_mut(name, cv);
            abs_env.bind_mut(name, av);
        }
        // Precondition is an abstract-side formula.
        let pre_holds = match eval(pre, &abs_env, &st) {
            Ok(Value::Bool(b)) => b,
            _ => continue,
        };
        if !pre_holds {
            continue;
        }
        let (Ok(cv), Ok(av)) = (eval(conc, &conc_env, &st), eval(abs, &abs_env, &st)) else {
            continue;
        };
        let expected = f.apply(&cv).map_err(derr)?;
        if av != expected {
            return Err(derr(format!(
                "sample violates abs_w_val: abs = {av}, {f} conc = {expected}"
            )));
        }
        checked += 1;
    }
    if checked == 0 && trials > 0 {
        return Err(derr("no sample satisfied the precondition; cannot validate"));
    }
    Ok(())
}

/// Outcome classification for differential testing.
enum Run {
    Done(MonadResult, State),
    /// The failure flag was set (failed guard / `fail`).
    Failed,
    /// Fuel ran out — the trial is inconclusive (e.g. a cyclic random heap
    /// makes the loop diverge), never a violation.
    Timeout,
}

fn outcome(r: Result<(MonadResult, State), MonadFault>) -> Result<Run, Diag> {
    match r {
        Ok((v, st)) => Ok(Run::Done(v, st)),
        Err(MonadFault::Failure(_)) => Ok(Run::Failed),
        Err(MonadFault::OutOfFuel) => Ok(Run::Timeout),
        Err(e) => Err(derr(format!("stuck execution: {e}"))),
    }
}

/// Differentially tests a plain refinement (`Judgment::Refines` semantics):
/// for each generated `(env, state)`, if the abstract program does not fail
/// then the concrete program must not fail and must produce the same result
/// and state.
///
/// # Errors
///
/// Returns a description of the first violating trial.
pub fn test_refines(
    ctx: &ProgramCtx,
    abs: &Prog,
    conc: &Prog,
    trials: u32,
    seed: u64,
    mut gen: impl FnMut(&mut StdRng) -> (Env, State),
) -> Result<(), Diag> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..trials {
        let (env, st) = gen(&mut rng);
        let Run::Done(a_res, a_st) = outcome(exec(ctx, abs, &env, st.clone(), 200_000))? else {
            continue; // abstract failure/timeout: nothing to show
        };
        let c_run = outcome(exec(ctx, conc, &env, st, 200_000))?;
        let (c_res, c_st) = match c_run {
            Run::Done(v, s) => (v, s),
            Run::Timeout => continue,
            Run::Failed => {
                return Err(derr(format!("trial {i}: concrete fails but abstract succeeds")))
            }
        };
        if a_res != c_res || a_st != c_st {
            return Err(derr(format!(
                "trial {i}: results differ (abs: {a_res:?}, conc: {c_res:?})"
            )));
        }
    }
    Ok(())
}

/// Differentially tests an `abs_w_stmt` judgment: concrete variables are
/// sampled, abstract variables are their abstractions; if the abstract
/// program does not fail, results must be related by `rx`/`ex` and states
/// must be equal.
///
/// # Errors
///
/// Returns a description of the first violating trial.
#[allow(clippy::too_many_arguments)]
pub fn test_wstmt(
    conc_ctx: &ProgramCtx,
    abs_ctx: &ProgramCtx,
    j: &Judgment,
    vars: &BTreeMap<String, Ty>,
    trials: u32,
    seed: u64,
    mut gen_state: impl FnMut(&mut StdRng) -> State,
) -> Result<(), Diag> {
    let Judgment::WStmt { ctx, rx, ex, abs, conc } = j else {
        return Err(derr("expected abs_w_stmt"));
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..trials {
        let st = gen_state(&mut rng);
        let mut conc_env = Env::with_tenv(conc_ctx.tenv.clone());
        let mut abs_env = Env::with_tenv(abs_ctx.tenv.clone());
        for (name, ty) in vars {
            let cv = random_value(&mut rng, ty);
            let af = ctx.get(name).cloned().unwrap_or(AbsFun::Id);
            abs_env.bind_mut(name, af.apply(&cv).map_err(derr)?);
            conc_env.bind_mut(name, cv);
        }
        let Run::Done(a_res, a_st) =
            outcome(exec(abs_ctx, abs, &abs_env, st.clone(), 200_000))?
        else {
            continue;
        };
        let c_run = outcome(exec(conc_ctx, conc, &conc_env, st, 200_000))?;
        let (c_res, c_st) = match c_run {
            Run::Done(v, s) => (v, s),
            Run::Timeout => continue,
            Run::Failed => {
                return Err(derr(format!("trial {i}: concrete fails but abstract succeeds")))
            }
        };
        let related = match (&a_res, &c_res) {
            (MonadResult::Normal(a), MonadResult::Normal(c)) => *a == rx.apply(c).map_err(derr)?,
            (MonadResult::Except(a), MonadResult::Except(c)) => *a == ex.apply(c).map_err(derr)?,
            _ => false,
        };
        if !related {
            return Err(derr(format!(
                "trial {i}: results unrelated (abs: {a_res:?}, conc: {c_res:?})"
            )));
        }
        if a_st != c_st {
            return Err(derr(format!("trial {i}: states differ after execution")));
        }
    }
    Ok(())
}

/// Differentially tests an `abs_h_stmt` judgment: the concrete program runs
/// on a byte-level state `s`, the abstract program on `st(s)`; if the
/// abstract program does not fail, the concrete result must match and the
/// lifted final state must equal the abstract final state.
///
/// # Errors
///
/// Returns a description of the first violating trial.
#[allow(clippy::too_many_arguments)]
pub fn test_hstmt(
    conc_ctx: &ProgramCtx,
    abs_ctx: &ProgramCtx,
    j: &Judgment,
    heap_types: &[Ty],
    trials: u32,
    seed: u64,
    mut gen: impl FnMut(&mut StdRng) -> (Env, ir::state::ConcState),
) -> Result<(), Diag> {
    let Judgment::HStmt { abs, conc } = j else {
        return Err(derr("expected abs_h_stmt"));
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..trials {
        let (env, conc_st) = gen(&mut rng);
        let abs_st = heapmodel::lift_state(&conc_st, &conc_ctx.tenv, heap_types);
        let Run::Done(a_res, a_st) = outcome(exec(
            abs_ctx,
            abs,
            &env,
            State::Abs(abs_st),
            200_000,
        ))?
        else {
            continue;
        };
        let c_run = outcome(exec(
            conc_ctx,
            conc,
            &env,
            State::Conc(conc_st),
            200_000,
        ))?;
        let (c_res, c_st) = match c_run {
            Run::Done(v, s) => (v, s),
            Run::Timeout => continue,
            Run::Failed => {
                return Err(derr(format!("trial {i}: concrete fails but abstract succeeds")))
            }
        };
        if a_res != c_res {
            return Err(derr(format!(
                "trial {i}: results differ (abs: {a_res:?}, conc: {c_res:?})"
            )));
        }
        let State::Conc(c_final) = &c_st else {
            return Err(derr("concrete execution left a non-concrete state"));
        };
        let lifted = heapmodel::lift_state(c_final, &conc_ctx.tenv, heap_types);
        let State::Abs(a_final) = &a_st else {
            return Err(derr("abstract execution left a non-abstract state"));
        };
        if lifted.heaps != a_final.heaps
            || lifted.globals != a_final.globals
            || lifted.locals != a_final.locals
        {
            return Err(derr(format!("trial {i}: lifted final state differs")));
        }
    }
    Ok(())
}

/// Differentially tests an L1 judgment: the Simpl statement and the monadic
/// program must have identical behaviour (same faults, same abrupt/normal
/// outcome, same final state).
///
/// # Errors
///
/// Returns a description of the first violating trial.
pub fn test_l1(
    simpl_prog: &simpl::SimplProgram,
    monadic_ctx: &ProgramCtx,
    j: &Judgment,
    trials: u32,
    seed: u64,
    mut gen: impl FnMut(&mut StdRng) -> State,
) -> Result<(), Diag> {
    let Judgment::L1 { prog, simpl } = j else {
        return Err(derr("expected l1corres"));
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..trials {
        let st = gen(&mut rng);
        let mut s_state = st.clone();
        let mut fuel = 200_000u64;
        let s_result = simpl::interp::exec_stmt(simpl_prog, simpl, &mut s_state, &mut fuel);
        let env = Env::with_tenv(monadic_ctx.tenv.clone());
        let m_result = exec(monadic_ctx, prog, &env, st, 200_000);
        match (s_result, m_result) {
            (Ok(simpl::interp::Outcome::Normal), Ok((MonadResult::Normal(_), m_state))) => {
                if s_state != m_state {
                    return Err(derr(format!("trial {i}: states differ after normal outcome")));
                }
            }
            (Ok(simpl::interp::Outcome::Abrupt), Ok((MonadResult::Except(_), m_state))) => {
                if s_state != m_state {
                    return Err(derr(format!("trial {i}: states differ after abrupt outcome")));
                }
            }
            (Err(simpl::interp::Fault::GuardFailure(_)), Err(MonadFault::Failure(_))) => {}
            (Err(simpl::interp::Fault::OutOfFuel), _) | (_, Err(MonadFault::OutOfFuel)) => {}
            (s, m) => {
                return Err(derr(format!("trial {i}: outcomes diverge ({s:?} vs {m:?})")));
            }
        }
    }
    Ok(())
}
