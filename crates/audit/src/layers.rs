//! Reusable five-layer execution entry points.
//!
//! The differential oracle ([`crate::differential`]) and counterexample
//! playback both need the same machinery: run one function through the
//! Simpl interpreter and the four monadic layers (L1, L2, HL, WA) on a
//! shared concrete initial state, then walk the adjacent layer pairs and
//! find the first one whose runs violate the refinement relation. This
//! module holds that machinery in pure, stats-free form; the campaign
//! bookkeeping stays in `differential`.

use autocorres::Output;
use ir::state::{ConcState, State};
use ir::ty::Ty;
use ir::value::Value;
use kernel::AbsFun;
use monadic::{MonadFault, MonadResult, ProgramCtx};

/// Interpreter fuel per layer run: generous for the bounded loops and
/// capped recursion the generator emits, small enough that a runaway
/// translation is cut off.
pub const FUEL: u64 = 400_000;

/// Display names of the five executable layers, most concrete first.
pub const LAYER_NAMES: [&str; 5] = ["simpl", "l1", "l2", "hl", "wa"];

/// One layer run, classified.
#[derive(Clone, Debug)]
pub enum LayerRun {
    /// Normal termination with a return value and final state.
    Normal(Value, State),
    /// Early exit (`return` inside a loop) with value and final state.
    Except(Value, State),
    /// A guard failed / `fail` was reached.
    Fault,
    /// Ran out of fuel: the trial is undecided, not a disagreement.
    Fuel,
    /// Stuck or unknown function: always a bug.
    Broken(String),
}

impl LayerRun {
    /// One-word outcome classification, for diff messages.
    #[must_use]
    pub fn describe(&self) -> &'static str {
        match self {
            LayerRun::Normal(..) => "normal",
            LayerRun::Except(..) => "except",
            LayerRun::Fault => "fault",
            LayerRun::Fuel => "fuel",
            LayerRun::Broken(_) => "broken",
        }
    }
}

/// Runs one monadic layer (L1/L2/HL/WA all share the interpreter).
#[must_use]
pub fn run_monadic(ctx: &ProgramCtx, name: &str, args: &[Value], st: State) -> LayerRun {
    match monadic::exec_fn(ctx, name, args, st, FUEL) {
        Ok((MonadResult::Normal(v), st)) => LayerRun::Normal(v, st),
        Ok((MonadResult::Except(v), st)) => LayerRun::Except(v, st),
        Err(MonadFault::Failure(_)) => LayerRun::Fault,
        Err(MonadFault::OutOfFuel) => LayerRun::Fuel,
        Err(e @ (MonadFault::Stuck(_) | MonadFault::UnknownFunction(_))) => {
            LayerRun::Broken(e.to_string())
        }
    }
}

/// Runs the Simpl interpreter.
#[must_use]
pub fn run_simpl(prog: &simpl::SimplProgram, name: &str, args: &[Value], st: State) -> LayerRun {
    match simpl::exec_fn(prog, name, args, st, FUEL) {
        Ok((v, st)) => LayerRun::Normal(v, st),
        Err(simpl::Fault::GuardFailure(_)) => LayerRun::Fault,
        Err(simpl::Fault::OutOfFuel) => LayerRun::Fuel,
        Err(e @ (simpl::Fault::Stuck(_) | simpl::Fault::UnknownFunction(_))) => {
            LayerRun::Broken(e.to_string())
        }
    }
}

/// Runs `name` through all five layers on one shared input: the concrete
/// state feeds Simpl/L1/L2 directly, HL/WA get its [`heapmodel::lift_state`]
/// image, and WA arguments go through the function's [`AbsFun`].
///
/// # Errors
///
/// Returns a message when the function is missing from some layer or an
/// argument is outside its abstraction function's domain.
pub fn run_all(
    out: &Output,
    name: &str,
    args: &[Value],
    conc0: &ConcState,
    heap_types: &[Ty],
) -> Result<[LayerRun; 5], String> {
    let simpl_f = out
        .simpl
        .fns
        .get(name)
        .ok_or_else(|| format!("unknown function {name}"))?;
    let abs0 = heapmodel::lift_state(conc0, &out.simpl.tenv, heap_types);
    let wa_args: Vec<Value> = args
        .iter()
        .zip(&simpl_f.params)
        .map(|(v, (_, t))| AbsFun::for_ty(t).apply(v))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("unabstractable argument: {e}"))?;
    Ok([
        run_simpl(&out.simpl, name, args, State::Conc(conc0.clone())),
        run_monadic(&out.l1, name, args, State::Conc(conc0.clone())),
        run_monadic(&out.l2, name, args, State::Conc(conc0.clone())),
        run_monadic(&out.hl, name, args, State::Abs(abs0.clone())),
        run_monadic(&out.wa, name, &wa_args, State::Abs(abs0)),
    ])
}

/// Byte-level state agreement: memory and globals (locals excluded — the
/// Simpl interpreter leaves the callee frame in the final state by design,
/// the monadic interpreters restore the caller's).
#[must_use]
pub fn conc_states_agree(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Conc(x), State::Conc(y)) => x.mem == y.mem && x.globals == y.globals,
        _ => false,
    }
}

/// Concrete (`b`) vs abstract (`a`) agreement across the heap-abstraction
/// boundary: the lifted concrete heaps must equal the abstract heaps.
#[must_use]
pub fn lifted_states_agree(
    a: &State,
    b: &State,
    tenv: &ir::ty::TypeEnv,
    heap_types: &[Ty],
) -> bool {
    match (a, b) {
        (State::Abs(x), State::Conc(y)) => {
            let lifted = heapmodel::lift_state(y, tenv, heap_types);
            lifted.heaps == x.heaps && y.globals == x.globals
        }
        _ => false,
    }
}

/// Abstract-vs-abstract agreement (word abstraction leaves heaps and
/// globals at the word level).
#[must_use]
pub fn abs_states_agree(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Abs(x), State::Abs(y)) => x.heaps == y.heaps && x.globals == y.globals,
        _ => false,
    }
}

/// Relates a concrete return value to its word-abstracted image for a
/// function returning `wa_ret_ty`.
#[must_use]
pub fn wa_val_related(va: &Value, vc: &Value, wa_ret_ty: &Ty) -> bool {
    let expect = match (vc, wa_ret_ty) {
        (Value::Word(w), Ty::Nat) => Value::Nat(w.unat()),
        (Value::Word(w), Ty::Int) => Value::Int(w.sint()),
        (other, _) => other.clone(),
    };
    *va == expect
}

/// Exact-correspondence check (Simpl ↔ L1): identical outcomes, values,
/// and memory + globals. `Ok(true)` = decided and agreeing, `Ok(false)` =
/// undecided, `Err(msg)` = disagreement.
///
/// # Errors
///
/// The disagreement description.
pub fn exact_pair(conc: &LayerRun, abs: &LayerRun) -> Result<bool, String> {
    match (abs, conc) {
        (LayerRun::Normal(va, sta), LayerRun::Normal(vc, stc)) => {
            if va != vc {
                Err(format!("values differ: {vc} vs {va}"))
            } else if !conc_states_agree(sta, stc) {
                Err("final states differ".into())
            } else {
                Ok(true)
            }
        }
        (LayerRun::Fault, LayerRun::Fault) => Ok(true),
        (a, c) => Err(format!(
            "outcomes differ: {} vs {}",
            c.describe(),
            a.describe()
        )),
    }
}

/// Refinement check: when the abstract run succeeds (normally or with an
/// exception), the concrete run must match it under the value/state
/// relations; when the abstract run faults, the pair is undecided.
/// `Ok(true)` = decided and agreeing, `Ok(false)` = undecided, `Err(msg)`
/// = disagreement.
///
/// # Errors
///
/// The disagreement description.
pub fn refine_pair(
    conc: &LayerRun,
    abs: &LayerRun,
    val_rel: impl Fn(&Value, &Value) -> bool,
    st_rel: impl Fn(&State, &State) -> bool,
) -> Result<bool, String> {
    match abs {
        LayerRun::Normal(va, sa) => match conc {
            LayerRun::Normal(vc, sc) => {
                if !val_rel(va, vc) {
                    Err(format!("values unrelated: {vc} vs {va}"))
                } else if !st_rel(sa, sc) {
                    Err("final states unrelated".into())
                } else {
                    Ok(true)
                }
            }
            other => Err(format!(
                "abstract succeeded but concrete was {}",
                other.describe()
            )),
        },
        LayerRun::Except(va, sa) => match conc {
            LayerRun::Except(vc, sc) => {
                if !val_rel(va, vc) || !st_rel(sa, sc) {
                    Err("exception outcomes unrelated".into())
                } else {
                    Ok(true)
                }
            }
            other => Err(format!(
                "abstract raised but concrete was {}",
                other.describe()
            )),
        },
        // Abstract fault: refinement claims nothing.
        LayerRun::Fault => Ok(false),
        LayerRun::Fuel | LayerRun::Broken(_) => Ok(false),
    }
}

/// Why a five-layer run did not agree everywhere.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// One layer got stuck or hit an unknown function (always a bug).
    Broken {
        /// Layer name from [`LAYER_NAMES`].
        layer: &'static str,
        /// The interpreter's fault message.
        detail: String,
    },
    /// One layer ran out of fuel: the run is undecided, not a bug.
    Fuel {
        /// Layer name from [`LAYER_NAMES`].
        layer: &'static str,
    },
    /// First adjacent layer pair whose runs violate the relation.
    Pair {
        /// The more concrete layer of the pair.
        conc: &'static str,
        /// The more abstract layer of the pair.
        abs: &'static str,
        /// What disagreed (values, states, or outcomes).
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Broken { layer, detail } => write!(f, "{layer} broke: {detail}"),
            Divergence::Fuel { layer } => write!(f, "{layer} ran out of fuel"),
            Divergence::Pair { conc, abs, detail } => {
                write!(f, "{conc}/{abs} diverge: {detail}")
            }
        }
    }
}

/// Checks the four adjacent layer pairs of one [`run_all`] result, most
/// concrete pair first: [`exact_pair`] for Simpl ↔ L1, then
/// [`refine_pair`] under each boundary's value and state relations.
/// Callers rule out `Broken` and `Fuel` runs first, as
/// [`first_divergence`] does.
pub fn pair_checks(
    out: &Output,
    name: &str,
    runs: &[LayerRun; 5],
    heap_types: &[Ty],
) -> [Result<bool, String>; 4] {
    let wa_ret_ty = out.wa.fns.get(name).map(|f| f.ret_ty.clone());
    let tenv = &out.simpl.tenv;
    [
        exact_pair(&runs[0], &runs[1]),
        refine_pair(&runs[1], &runs[2], |va, vc| va == vc, conc_states_agree),
        refine_pair(
            &runs[2],
            &runs[3],
            |va, vc| va == vc,
            |sa, sc| lifted_states_agree(sa, sc, tenv, heap_types),
        ),
        refine_pair(
            &runs[3],
            &runs[4],
            |va, vc| match &wa_ret_ty {
                Some(t) => wa_val_related(va, vc, t),
                None => va == vc,
            },
            abs_states_agree,
        ),
    ]
}

/// Walks the four adjacent layer pairs of one [`run_all`] result and
/// returns the first divergence (most concrete pair first), or `None`
/// when all decided pairs agree.
#[must_use]
pub fn first_divergence(
    out: &Output,
    name: &str,
    runs: &[LayerRun; 5],
    heap_types: &[Ty],
) -> Option<Divergence> {
    for (i, r) in runs.iter().enumerate() {
        if let LayerRun::Broken(e) = r {
            return Some(Divergence::Broken {
                layer: LAYER_NAMES[i],
                detail: e.clone(),
            });
        }
    }
    for (i, r) in runs.iter().enumerate() {
        if matches!(r, LayerRun::Fuel) {
            return Some(Divergence::Fuel {
                layer: LAYER_NAMES[i],
            });
        }
    }
    for (i, c) in pair_checks(out, name, runs, heap_types).into_iter().enumerate() {
        if let Err(detail) = c {
            return Some(Divergence::Pair {
                conc: LAYER_NAMES[i],
                abs: LAYER_NAMES[i + 1],
                detail,
            });
        }
    }
    None
}
