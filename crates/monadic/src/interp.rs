//! Executable semantics of monadic programs.
//!
//! The paper's monad returns a *set* of results plus a failure flag. The
//! translated programs are deterministic (nondeterminism only enters through
//! `exec_concrete`'s choice of concretisation, which this interpreter
//! resolves by running on the underlying concrete state — the standard
//! implementation of the specification), so the interpreter returns a single
//! result; `fail`/failed guards are the failure flag.

use std::collections::BTreeMap;
use std::fmt;

use ir::eval::{eval, eval_bool, Env, EvalError};
use ir::guard::GuardKind;
use ir::state::State;
use ir::value::Value;

use crate::prog::{MonadicFn, Prog, ProgramCtx};

/// The `'e + 'a` sum: a normal value or an exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonadResult {
    /// `Normal v`.
    Normal(Value),
    /// `Except e`.
    Except(Value),
}

impl MonadResult {
    /// Extracts the normal value.
    #[must_use]
    pub fn normal(self) -> Option<Value> {
        match self {
            MonadResult::Normal(v) => Some(v),
            MonadResult::Except(_) => None,
        }
    }
}

/// Failure of a monadic execution (the failure flag, or meta-level faults).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonadFault {
    /// The failure flag: `fail` was reached or a guard did not hold.
    Failure(GuardKind),
    /// Evaluation got stuck (ill-typed term — a transformation bug).
    Stuck(String),
    /// Fuel exhausted.
    OutOfFuel,
    /// Call to an unknown function.
    UnknownFunction(String),
}

impl fmt::Display for MonadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonadFault::Failure(k) => write!(f, "failure ({k})"),
            MonadFault::Stuck(m) => write!(f, "stuck: {m}"),
            MonadFault::OutOfFuel => write!(f, "out of fuel"),
            MonadFault::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
        }
    }
}

impl std::error::Error for MonadFault {}

impl From<EvalError> for MonadFault {
    fn from(e: EvalError) -> MonadFault {
        MonadFault::Stuck(e.to_string())
    }
}

type ExecResult = Result<(MonadResult, State), MonadFault>;

/// Execution budget: step fuel plus a call-depth cap. The interpreter
/// recurses natively on subject-program calls, so unbounded recursion in
/// the interpreted program would overflow the host stack long before the
/// fuel runs out; the depth cap converts that into a clean
/// [`MonadFault::OutOfFuel`].
struct Budget {
    fuel: u64,
    depth: u32,
}

/// Maximum interpreted call depth (see [`Budget`]). Execution runs on an
/// [`ir::sched::with_stack`] thread, so deeply recursive subject programs
/// hit this clean bound instead of overflowing the caller's stack.
const MAX_CALL_DEPTH: u32 = 300;

/// Executes a program in environment `env` and state `st`.
///
/// # Errors
///
/// [`MonadFault::Failure`] corresponds to the monad's failure flag; the
/// other variants are meta-level faults that cannot occur on well-formed
/// translated programs.
pub fn exec(ctx: &ProgramCtx, p: &Prog, env: &Env, st: State, fuel: u64) -> ExecResult {
    ir::sched::with_stack(move || {
        let mut budget = Budget { fuel, depth: 0 };
        exec_inner(ctx, p, env, st, &mut budget)
    })
}

fn exec_inner(
    ctx: &ProgramCtx,
    p: &Prog,
    env: &Env,
    mut st: State,
    fuel: &mut Budget,
) -> ExecResult {
    if fuel.fuel == 0 {
        return Err(MonadFault::OutOfFuel);
    }
    fuel.fuel -= 1;
    match p {
        Prog::Return(e) | Prog::Gets(e) => {
            let v = eval(e, env, &st)?;
            Ok((MonadResult::Normal(v), st))
        }
        Prog::Modify(u) => {
            u.apply(env, &mut st)?;
            Ok((MonadResult::Normal(Value::Unit), st))
        }
        Prog::Guard(kind, g) => {
            if eval_bool(g, env, &st)? {
                Ok((MonadResult::Normal(Value::Unit), st))
            } else {
                Err(MonadFault::Failure(kind.clone()))
            }
        }
        Prog::Throw(e) => {
            let v = eval(e, env, &st)?;
            Ok((MonadResult::Except(v), st))
        }
        Prog::Fail => Err(MonadFault::Failure(GuardKind::DontReach)),
        Prog::Bind(l, v, r) => {
            let (lr, st) = exec_inner(ctx, l, env, st, fuel)?;
            match lr {
                MonadResult::Normal(val) => {
                    let env2 = env.bind(v, val);
                    exec_inner(ctx, r, &env2, st, fuel)
                }
                e @ MonadResult::Except(_) => Ok((e, st)),
            }
        }
        Prog::BindTuple(l, vs, r) => {
            let (lr, st) = exec_inner(ctx, l, env, st, fuel)?;
            match lr {
                MonadResult::Normal(val) => {
                    let parts = unpack_iters(vs.len(), val)?;
                    let env2 = bind_iters(env, vs, &parts);
                    exec_inner(ctx, r, &env2, st, fuel)
                }
                e @ MonadResult::Except(_) => Ok((e, st)),
            }
        }
        Prog::Catch(l, v, h) => {
            let (lr, st) = exec_inner(ctx, l, env, st, fuel)?;
            match lr {
                n @ MonadResult::Normal(_) => Ok((n, st)),
                MonadResult::Except(e) => {
                    let env2 = env.bind(v, e);
                    exec_inner(ctx, h, &env2, st, fuel)
                }
            }
        }
        Prog::Condition(c, t, e) => {
            if eval_bool(c, env, &st)? {
                exec_inner(ctx, t, env, st, fuel)
            } else {
                exec_inner(ctx, e, env, st, fuel)
            }
        }
        Prog::While {
            vars,
            cond,
            body,
            init,
        } => {
            let mut cur: Vec<Value> = Vec::with_capacity(init.len());
            for i in init {
                cur.push(eval(i, env, &st)?);
            }
            loop {
                if fuel.fuel == 0 {
                    return Err(MonadFault::OutOfFuel);
                }
                fuel.fuel -= 1;
                let env2 = bind_iters(env, vars, &cur);
                if !eval_bool(cond, &env2, &st)? {
                    let result = pack_iters(&cur);
                    return Ok((MonadResult::Normal(result), st));
                }
                let (r, st2) = exec_inner(ctx, body, &env2, st, fuel)?;
                st = st2;
                match r {
                    MonadResult::Normal(v) => {
                        cur = unpack_iters(vars.len(), v)?;
                    }
                    e @ MonadResult::Except(_) => return Ok((e, st)),
                }
            }
        }
        Prog::Call { fname, args } => {
            let f = ctx
                .function(fname)
                .ok_or_else(|| MonadFault::UnknownFunction(fname.clone()))?;
            let mut arg_vals = Vec::with_capacity(args.len());
            for a in args {
                arg_vals.push(eval(a, env, &st)?);
            }
            exec_call(ctx, f, &arg_vals, st, fuel)
        }
        // Running mixed-level programs: the machine state is the concrete
        // state throughout (the standard implementation of the spec); the
        // level markers are transparent to execution.
        Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => {
            if st.as_conc().is_none() {
                return Err(MonadFault::Stuck(
                    "exec_concrete/exec_abstract requires an underlying concrete state".into(),
                ));
            }
            exec_inner(ctx, p, env, st, fuel)
        }
    }
}

/// Calls a monadic function with evaluated arguments.
fn exec_call(
    ctx: &ProgramCtx,
    f: &MonadicFn,
    args: &[Value],
    st: State,
    fuel: &mut Budget,
) -> ExecResult {
    assert_eq!(f.params.len(), args.len(), "arity mismatch calling {}", f.name);
    if fuel.depth >= MAX_CALL_DEPTH {
        return Err(MonadFault::OutOfFuel);
    }
    fuel.depth += 1;
    let out = exec_call_framed(ctx, f, args, st, fuel);
    fuel.depth -= 1;
    out
}

fn exec_call_framed(
    ctx: &ProgramCtx,
    f: &MonadicFn,
    args: &[Value],
    mut st: State,
    fuel: &mut Budget,
) -> ExecResult {
    match &f.frame {
        // L1: locals (including parameters) live in the state.
        Some(locals) => {
            let mut frame = BTreeMap::new();
            for (n, t) in locals {
                frame.insert(n.clone(), Value::zero_of(t, &ctx.tenv));
            }
            for ((n, _), v) in f.params.iter().zip(args) {
                frame.insert(n.clone(), v.clone());
            }
            let saved = st.swap_locals(frame);
            let env = Env::with_tenv(ctx.tenv.clone());
            let result = exec_inner(ctx, &f.body, &env, st, fuel);
            let (r, mut st) = result?;
            st.swap_locals(saved);
            Ok((r, st))
        }
        // L2+: parameters are lambda-bound.
        None => {
            let mut env = Env::with_tenv(ctx.tenv.clone());
            for ((n, _), v) in f.params.iter().zip(args) {
                env.bind_mut(n, v.clone());
            }
            exec_inner(ctx, &f.body, &env, st, fuel)
        }
    }
}

/// Runs a named function on argument values.
///
/// # Errors
///
/// As for [`exec`].
pub fn exec_fn(
    ctx: &ProgramCtx,
    name: &str,
    args: &[Value],
    st: State,
    fuel: u64,
) -> ExecResult {
    let f = ctx
        .function(name)
        .ok_or_else(|| MonadFault::UnknownFunction(name.to_owned()))?;
    ir::sched::with_stack(move || {
        let mut budget = Budget { fuel, depth: 0 };
        exec_call(ctx, f, args, st, &mut budget)
    })
}

fn bind_iters(env: &Env, vars: &[String], vals: &[Value]) -> Env {
    let mut out = env.clone();
    for (n, v) in vars.iter().zip(vals) {
        out.bind_mut(n, v.clone());
    }
    out
}

fn pack_iters(vals: &[Value]) -> Value {
    if vals.len() == 1 {
        vals[0].clone()
    } else {
        Value::Tuple(vals.to_vec())
    }
}

fn unpack_iters(n: usize, v: Value) -> Result<Vec<Value>, MonadFault> {
    if n == 1 {
        return Ok(vec![v]);
    }
    match v {
        Value::Tuple(vs) if vs.len() == n => Ok(vs),
        v => Err(MonadFault::Stuck(format!(
            "loop body returned `{v}` for {n} iterator variables"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::IProg;
    use ir::expr::{BinOp, Expr};
    use ir::ty::Ty;
    use ir::update::Update;

    fn run(p: &Prog) -> Result<MonadResult, MonadFault> {
        let ctx = ProgramCtx::default();
        exec(&ctx, p, &Env::new(), State::conc_empty(), 100_000).map(|(r, _)| r)
    }

    #[test]
    fn return_and_bind() {
        let p = Prog::bind(
            Prog::ret(Expr::u32(2)),
            "v",
            Prog::ret(Expr::binop(BinOp::Add, Expr::var("v"), Expr::u32(3))),
        );
        assert_eq!(run(&p), Ok(MonadResult::Normal(Value::u32(5))));
    }

    #[test]
    fn exceptions_skip_bind() {
        let p = Prog::bind(
            Prog::Throw(Expr::u32(7)),
            "v",
            Prog::Fail, // must not run
        );
        assert_eq!(run(&p), Ok(MonadResult::Except(Value::u32(7))));
    }

    #[test]
    fn catch_handles() {
        let p = Prog::Catch(
            IProg::new(Prog::Throw(Expr::u32(7))),
            "e".into(),
            IProg::new(Prog::ret(Expr::var("e"))),
        );
        assert_eq!(run(&p), Ok(MonadResult::Normal(Value::u32(7))));
    }

    #[test]
    fn guard_failure_is_failure_flag() {
        let p = Prog::guard(GuardKind::DivByZero, Expr::ff());
        assert_eq!(run(&p), Err(MonadFault::Failure(GuardKind::DivByZero)));
        let p = Prog::guard(GuardKind::DivByZero, Expr::tt());
        assert_eq!(run(&p), Ok(MonadResult::Normal(Value::Unit)));
    }

    #[test]
    fn while_loop_counts() {
        // whileLoop (λi. i < 10) (λi. return (i + 1)) 0
        let p = Prog::While {
            vars: vec!["i".into()],
            cond: Expr::binop(BinOp::Lt, Expr::var("i"), Expr::nat(10u64)),
            body: IProg::new(Prog::ret(Expr::binop(
                BinOp::Add,
                Expr::var("i"),
                Expr::nat(1u64),
            ))),
            init: vec![Expr::nat(0u64)],
        };
        assert_eq!(run(&p), Ok(MonadResult::Normal(Value::nat(10u64))));
    }

    #[test]
    fn while_loop_pairs() {
        // Swap two iterator values 5 times.
        let p = Prog::While {
            vars: vec!["a".into(), "b".into(), "n".into()],
            cond: Expr::binop(BinOp::Lt, Expr::var("n"), Expr::nat(5u64)),
            body: IProg::new(Prog::ret(Expr::Tuple(vec![
                Expr::var("b"),
                Expr::var("a"),
                Expr::binop(BinOp::Add, Expr::var("n"), Expr::nat(1u64)),
            ]))),
            init: vec![Expr::u32(1), Expr::u32(2), Expr::nat(0u64)],
        };
        let MonadResult::Normal(Value::Tuple(vs)) = run(&p).unwrap() else {
            panic!()
        };
        assert_eq!(vs[0], Value::u32(2));
        assert_eq!(vs[1], Value::u32(1));
    }

    #[test]
    fn exception_escapes_loop() {
        let p = Prog::While {
            vars: vec!["i".into()],
            cond: Expr::tt(),
            body: IProg::new(Prog::Throw(Expr::u32(42))),
            init: vec![Expr::nat(0u64)],
        };
        assert_eq!(run(&p), Ok(MonadResult::Except(Value::u32(42))));
    }

    #[test]
    fn state_updates_thread_through() {
        let p = Prog::seq_all([
            Prog::Modify(Update::Local("x".into(), Expr::u32(5))),
            Prog::Modify(Update::Local(
                "x".into(),
                Expr::binop(BinOp::Add, Expr::Local("x".into()), Expr::u32(1)),
            )),
            Prog::Gets(Expr::Local("x".into())),
        ]);
        assert_eq!(run(&p), Ok(MonadResult::Normal(Value::u32(6))));
    }

    #[test]
    fn infinite_loop_out_of_fuel() {
        let p = Prog::While {
            vars: vec!["i".into()],
            cond: Expr::tt(),
            body: IProg::new(Prog::ret(Expr::var("i"))),
            init: vec![Expr::nat(0u64)],
        };
        assert_eq!(run(&p), Err(MonadFault::OutOfFuel));
    }

    #[test]
    fn l2_function_call_binds_params() {
        let mut ctx = ProgramCtx::default();
        ctx.fns.insert(
            "double".into(),
            MonadicFn {
                name: "double".into(),
                params: vec![("x".into(), Ty::Nat)],
                ret_ty: Ty::Nat,
                frame: None,
                body: Prog::ret(Expr::binop(BinOp::Mul, Expr::var("x"), Expr::nat(2u64))),
            },
        );
        let p = Prog::Call {
            fname: "double".into(),
            args: vec![Expr::nat(21u64)],
        };
        let (r, _) = exec(&ctx, &p, &Env::new(), State::conc_empty(), 1000).unwrap();
        assert_eq!(r, MonadResult::Normal(Value::nat(42u64)));
    }

    #[test]
    fn l1_function_call_uses_frame() {
        let mut ctx = ProgramCtx::default();
        ctx.fns.insert(
            "f".into(),
            MonadicFn {
                name: "f".into(),
                params: vec![("x".into(), Ty::U32)],
                ret_ty: Ty::U32,
                frame: Some(vec![("x".into(), Ty::U32), ("t".into(), Ty::U32)]),
                body: Prog::seq_all([
                    Prog::Modify(Update::Local(
                        "t".into(),
                        Expr::binop(BinOp::Add, Expr::Local("x".into()), Expr::u32(1)),
                    )),
                    Prog::Gets(Expr::Local("t".into())),
                ]),
            },
        );
        let mut st = State::conc_empty();
        st.set_local("t", Value::u32(99)); // caller's `t` must be preserved
        let (r, st) = exec_fn(&ctx, "f", &[Value::u32(5)], st, 1000).unwrap();
        assert_eq!(r, MonadResult::Normal(Value::u32(6)));
        assert_eq!(st.local("t"), Some(&Value::u32(99)));
    }
}
