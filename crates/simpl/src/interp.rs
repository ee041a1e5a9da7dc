//! Big-step interpreter for Simpl.
//!
//! Gives the translated programs an executable semantics, used by the
//! refinement validators: the L1 (monadic) program must simulate exactly
//! what this interpreter computes.

use std::collections::BTreeMap;
use std::fmt;

use ir::eval::{eval, eval_bool, Env, EvalError};
use ir::state::State;
use ir::value::Value;

use crate::stmt::{GuardKind, SimplProgram, SimplStmt};
use crate::RET_VAR;

/// How a statement finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Normal termination.
    Normal,
    /// Abrupt termination (after a `THROW`).
    Abrupt,
}

/// A fault: the Simpl analogue of the monadic failure flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A guard failed (undefined behaviour would have occurred).
    GuardFailure(GuardKind),
    /// Evaluation got stuck (ill-typed term — a translation bug).
    Stuck(String),
    /// The fuel budget was exhausted (possible non-termination).
    OutOfFuel,
    /// Call to an unknown function.
    UnknownFunction(String),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::GuardFailure(k) => write!(f, "guard failure: {k}"),
            Fault::Stuck(m) => write!(f, "stuck: {m}"),
            Fault::OutOfFuel => write!(f, "out of fuel"),
            Fault::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<EvalError> for Fault {
    fn from(e: EvalError) -> Fault {
        Fault::Stuck(e.to_string())
    }
}

/// Execution budget: step fuel plus a call-depth cap (the interpreter
/// recurses natively on subject-program calls; the cap turns would-be host
/// stack overflows into a clean [`Fault::OutOfFuel`]).
struct Budget {
    fuel: u64,
    depth: u32,
}

/// Maximum interpreted call depth (see [`Budget`]). Execution runs on an
/// [`ir::sched::with_stack`] thread, whose stack fits this depth.
const MAX_CALL_DEPTH: u32 = 300;

/// Executes a statement, mutating `st`.
///
/// # Errors
///
/// Returns a [`Fault`] on guard failures, stuck evaluation, unknown callees,
/// or fuel exhaustion.
fn exec_stmt_b(
    prog: &SimplProgram,
    stmt: &SimplStmt,
    st: &mut State,
    fuel: &mut Budget,
) -> Result<Outcome, Fault> {
    if fuel.fuel == 0 {
        return Err(Fault::OutOfFuel);
    }
    fuel.fuel -= 1;
    let env = Env::with_tenv(prog.tenv.clone());
    match stmt {
        SimplStmt::Skip => Ok(Outcome::Normal),
        SimplStmt::Basic(u) => {
            u.apply(&env, st)?;
            Ok(Outcome::Normal)
        }
        SimplStmt::Seq(a, b) => match exec_stmt_b(prog, a, st, fuel)? {
            Outcome::Normal => exec_stmt_b(prog, b, st, fuel),
            Outcome::Abrupt => Ok(Outcome::Abrupt),
        },
        SimplStmt::Cond(c, t, e) => {
            if eval_bool(c, &env, st)? {
                exec_stmt_b(prog, t, st, fuel)
            } else {
                exec_stmt_b(prog, e, st, fuel)
            }
        }
        SimplStmt::While(c, body) => {
            loop {
                if fuel.fuel == 0 {
                    return Err(Fault::OutOfFuel);
                }
                fuel.fuel -= 1;
                if !eval_bool(c, &env, st)? {
                    return Ok(Outcome::Normal);
                }
                match exec_stmt_b(prog, body, st, fuel)? {
                    Outcome::Normal => {}
                    Outcome::Abrupt => return Ok(Outcome::Abrupt),
                }
            }
        }
        SimplStmt::Guard(kind, g, inner) => {
            if eval_bool(g, &env, st)? {
                exec_stmt_b(prog, inner, st, fuel)
            } else {
                Err(Fault::GuardFailure(kind.clone()))
            }
        }
        SimplStmt::Throw => Ok(Outcome::Abrupt),
        SimplStmt::TryCatch(a, handler) => match exec_stmt_b(prog, a, st, fuel)? {
            Outcome::Normal => Ok(Outcome::Normal),
            Outcome::Abrupt => exec_stmt_b(prog, handler, st, fuel),
        },
        SimplStmt::Call {
            fname,
            args,
            ret_local,
        } => {
            let f = prog
                .function(fname)
                .ok_or_else(|| Fault::UnknownFunction(fname.clone()))?;
            // Call-by-value: evaluate arguments in the caller frame.
            let mut arg_vals = Vec::with_capacity(args.len());
            for a in args {
                arg_vals.push(eval(a, &env, st)?);
            }
            // Fresh frame: zero-init every local, then bind parameters.
            let mut frame = BTreeMap::new();
            for (n, t) in &f.locals {
                frame.insert(n.clone(), Value::zero_of(t, &prog.tenv));
            }
            for ((n, _), v) in f.params.iter().zip(arg_vals) {
                frame.insert(n.clone(), v);
            }
            if fuel.depth >= MAX_CALL_DEPTH {
                return Err(Fault::OutOfFuel);
            }
            fuel.depth += 1;
            let saved = st.swap_locals(frame);
            let result = exec_stmt_b(prog, &f.body, st, fuel);
            fuel.depth -= 1;
            let ret_val = st.local(RET_VAR).cloned();
            st.swap_locals(saved);
            result?;
            if let Some(r) = ret_local {
                let v = ret_val.ok_or_else(|| {
                    Fault::Stuck(format!("function `{fname}` returned no value"))
                })?;
                st.set_local(r, v);
            }
            Ok(Outcome::Normal)
        }
    }
}

/// Executes a statement with a plain fuel budget (the call-depth cap is
/// applied internally).
///
/// # Errors
///
/// Returns a [`Fault`] on guard failure, stuck evaluation, or fuel/depth
/// exhaustion.
pub fn exec_stmt(
    prog: &SimplProgram,
    stmt: &SimplStmt,
    st: &mut State,
    fuel: &mut u64,
) -> Result<Outcome, Fault> {
    ir::sched::with_stack(move || {
        let mut budget = Budget { fuel: *fuel, depth: 0 };
        let r = exec_stmt_b(prog, stmt, st, &mut budget);
        *fuel = budget.fuel;
        r
    })
}

/// Runs a translated function on the given arguments and state, returning
/// the return value (Unit for `void`) and the final state.
///
/// # Errors
///
/// Returns a [`Fault`] as for [`exec_stmt`].
pub fn exec_fn(
    prog: &SimplProgram,
    name: &str,
    args: &[Value],
    mut st: State,
    fuel: u64,
) -> Result<(Value, State), Fault> {
    let f = prog
        .function(name)
        .ok_or_else(|| Fault::UnknownFunction(name.to_owned()))?;
    let mut frame = BTreeMap::new();
    for (n, t) in &f.locals {
        frame.insert(n.clone(), Value::zero_of(t, &prog.tenv));
    }
    assert_eq!(f.params.len(), args.len(), "arity mismatch calling {name}");
    for ((n, _), v) in f.params.iter().zip(args) {
        frame.insert(n.clone(), v.clone());
    }
    st.swap_locals(frame);
    let mut fuel = fuel;
    exec_stmt(prog, &f.body, &mut st, &mut fuel)?;
    let ret = if f.ret_ty == ir::ty::Ty::Unit {
        Value::Unit
    } else {
        st.local(RET_VAR)
            .cloned()
            .ok_or_else(|| Fault::Stuck(format!("`{name}` returned no value")))?
    };
    Ok((ret, st))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate_program;
    use ir::ty::Ty;
    use ir::value::Ptr;

    fn compile(src: &str) -> SimplProgram {
        translate_program(&cparser::parse_and_check(src).unwrap()).unwrap()
    }

    fn run(prog: &SimplProgram, name: &str, args: &[Value]) -> Result<Value, Fault> {
        exec_fn(prog, name, args, prog.initial_state(), 1_000_000).map(|(v, _)| v)
    }

    #[test]
    fn fig2_max() {
        let p = compile("int max(int a, int b) { if (a < b) return b; return a; }");
        assert_eq!(run(&p, "max", &[Value::i32(3), Value::i32(5)]), Ok(Value::i32(5)));
        assert_eq!(run(&p, "max", &[Value::i32(-3), Value::i32(-5)]), Ok(Value::i32(-3)));
        assert_eq!(run(&p, "max", &[Value::i32(7), Value::i32(7)]), Ok(Value::i32(7)));
    }

    #[test]
    fn signed_overflow_guard_fires() {
        let p = compile("int inc(int x) { return x + 1; }");
        assert_eq!(run(&p, "inc", &[Value::i32(5)]), Ok(Value::i32(6)));
        assert_eq!(
            run(&p, "inc", &[Value::i32(i32::MAX)]),
            Err(Fault::GuardFailure(GuardKind::SignedOverflow))
        );
    }

    #[test]
    fn unsigned_arithmetic_wraps_without_guard() {
        let p = compile("unsigned inc(unsigned x) { return x + 1u; }");
        assert_eq!(run(&p, "inc", &[Value::u32(u32::MAX)]), Ok(Value::u32(0)));
    }

    #[test]
    fn div_by_zero_guard() {
        let p = compile("unsigned d(unsigned a, unsigned b) { return a / b; }");
        assert_eq!(run(&p, "d", &[Value::u32(7), Value::u32(2)]), Ok(Value::u32(3)));
        assert_eq!(
            run(&p, "d", &[Value::u32(7), Value::u32(0)]),
            Err(Fault::GuardFailure(GuardKind::DivByZero))
        );
    }

    #[test]
    fn int_min_div_minus_one_guard() {
        let p = compile("int d(int a, int b) { return a / b; }");
        assert_eq!(
            run(&p, "d", &[Value::i32(i32::MIN), Value::i32(-1)]),
            Err(Fault::GuardFailure(GuardKind::SignedOverflow))
        );
        assert_eq!(run(&p, "d", &[Value::i32(-6), Value::i32(2)]), Ok(Value::i32(-3)));
    }

    #[test]
    fn loops_and_break_continue() {
        let p = compile(
            "unsigned f(unsigned n) {\n\
               unsigned s = 0;\n\
               unsigned i = 0;\n\
               while (1) {\n\
                 if (i >= n) break;\n\
                 i = i + 1u;\n\
                 if (i == 3u) continue;\n\
                 s = s + i;\n\
               }\n\
               return s;\n\
             }",
        );
        // 1 + 2 + 4 + 5 = 12 (3 skipped)
        assert_eq!(run(&p, "f", &[Value::u32(5)]), Ok(Value::u32(12)));
    }

    #[test]
    fn gcd_recursion() {
        let p = compile(
            "unsigned gcd(unsigned a, unsigned b) {\n\
               if (b == 0u) return a;\n\
               return gcd(b, a % b);\n\
             }",
        );
        assert_eq!(run(&p, "gcd", &[Value::u32(12), Value::u32(18)]), Ok(Value::u32(6)));
        assert_eq!(run(&p, "gcd", &[Value::u32(17), Value::u32(5)]), Ok(Value::u32(1)));
    }

    #[test]
    fn calls_hoisted_from_expressions() {
        let p = compile(
            "int sq(int x) { return x * x; }\n\
             int f(int a) { return sq(a) + sq(a + 1); }",
        );
        assert_eq!(run(&p, "f", &[Value::i32(3)]), Ok(Value::i32(9 + 16)));
    }

    #[test]
    fn swap_through_pointers() {
        let p = compile(
            "void swap(unsigned *a, unsigned *b) {\n\
               unsigned t = *a; *a = *b; *b = t;\n\
             }",
        );
        let mut st = p.initial_state();
        let cs = st.as_conc_mut().unwrap();
        cs.mem.alloc(0x100, &Value::u32(1), &p.tenv).unwrap();
        cs.mem.alloc(0x200, &Value::u32(2), &p.tenv).unwrap();
        let a = Value::Ptr(Ptr::new(0x100, Ty::U32));
        let b = Value::Ptr(Ptr::new(0x200, Ty::U32));
        let (_, out) = exec_fn(&p, "swap", &[a, b], st, 10_000).unwrap();
        let mem = &out.as_conc().unwrap().mem;
        assert_eq!(mem.decode(0x100, &Ty::U32, &p.tenv).unwrap(), Value::u32(2));
        assert_eq!(mem.decode(0x200, &Ty::U32, &p.tenv).unwrap(), Value::u32(1));
    }

    #[test]
    fn misaligned_pointer_faults() {
        let p = compile("unsigned get(unsigned *p) { return *p; }");
        let st = p.initial_state();
        let bad = Value::Ptr(Ptr::new(0x101, Ty::U32));
        assert_eq!(
            exec_fn(&p, "get", &[bad], st.clone(), 10_000).unwrap_err(),
            Fault::GuardFailure(GuardKind::PtrValid)
        );
        let null = Value::Ptr(Ptr::null(Ty::U32));
        assert_eq!(
            exec_fn(&p, "get", &[null], st, 10_000).unwrap_err(),
            Fault::GuardFailure(GuardKind::PtrValid)
        );
    }

    #[test]
    fn struct_field_access_via_offsets() {
        let p = compile(
            "struct node { struct node *next; unsigned data; };\n\
             unsigned get(struct node *p) { return p->data; }\n\
             void set(struct node *p, unsigned v) { p->data = v; }",
        );
        let mut st = p.initial_state();
        let node = Value::Struct(
            "node".into(),
            vec![
                ("next".into(), Value::Ptr(Ptr::null(Ty::Struct("node".into())))),
                ("data".into(), Value::u32(41)),
            ],
        );
        st.as_conc_mut()
            .unwrap()
            .mem
            .alloc(0x1000, &node, &p.tenv)
            .unwrap();
        let ptr = Value::Ptr(Ptr::new(0x1000, Ty::Struct("node".into())));
        let (v, st) = exec_fn(&p, "get", std::slice::from_ref(&ptr), st, 10_000).unwrap();
        assert_eq!(v, Value::u32(41));
        let (_, st) = exec_fn(&p, "set", &[ptr.clone(), Value::u32(99)], st, 10_000).unwrap();
        let (v, _) = exec_fn(&p, "get", &[ptr], st, 10_000).unwrap();
        assert_eq!(v, Value::u32(99));
    }

    #[test]
    fn short_circuit_protects_guards() {
        // Without short-circuit weakening, the null deref guard of p->data
        // would fire even when p == NULL.
        let p = compile(
            "struct node { unsigned data; };\n\
             unsigned f(struct node *p) {\n\
               if (p != NULL && p->data > 0u) return p->data;\n\
               return 0u;\n\
             }",
        );
        let st = p.initial_state();
        let null = Value::Ptr(Ptr::null(Ty::Struct("node".into())));
        assert_eq!(
            exec_fn(&p, "f", &[null], st, 10_000).unwrap().0,
            Value::u32(0)
        );
    }

    #[test]
    fn falling_off_end_faults() {
        let p = compile("int f(int x) { if (x > 0) return 1; }");
        let st = p.initial_state();
        assert_eq!(
            exec_fn(&p, "f", &[Value::i32(1)], st.clone(), 10_000).unwrap().0,
            Value::i32(1)
        );
        assert_eq!(
            exec_fn(&p, "f", &[Value::i32(0)], st, 10_000).unwrap_err(),
            Fault::GuardFailure(GuardKind::DontReach)
        );
    }

    #[test]
    fn globals() {
        let p = compile(
            "unsigned counter = 10;\n\
             void bump(void) { counter = counter + 1u; }\n\
             unsigned read_counter(void) { return counter; }",
        );
        let st = p.initial_state();
        let (_, st) = exec_fn(&p, "bump", &[], st, 10_000).unwrap();
        let (_, st) = exec_fn(&p, "bump", &[], st, 10_000).unwrap();
        let (v, _) = exec_fn(&p, "read_counter", &[], st, 10_000).unwrap();
        assert_eq!(v, Value::u32(12));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let p = compile("void f(void) { while (1) { } }");
        assert_eq!(
            exec_fn(&p, "f", &[], p.initial_state(), 1000).unwrap_err(),
            Fault::OutOfFuel
        );
    }

    #[test]
    fn do_while_runs_body_first() {
        let p = compile(
            "unsigned f(unsigned n) {\n\
               unsigned c = 0;\n\
               do { c = c + 1u; n = n / 2u; } while (n > 0u);\n\
               return c;\n\
             }",
        );
        // n = 0: body still runs once (n/2 guarded: 0/2 ok... wait, 2u != 0).
        assert_eq!(run(&p, "f", &[Value::u32(0)]), Ok(Value::u32(1)));
        assert_eq!(run(&p, "f", &[Value::u32(8)]), Ok(Value::u32(4)));
    }

    #[test]
    fn shift_guards() {
        let p = compile("unsigned f(unsigned x, unsigned s) { return x << s; }");
        assert_eq!(run(&p, "f", &[Value::u32(1), Value::u32(4)]), Ok(Value::u32(16)));
        assert_eq!(
            run(&p, "f", &[Value::u32(1), Value::u32(32)]),
            Err(Fault::GuardFailure(GuardKind::ShiftBound))
        );
    }

    #[test]
    fn ternary_and_casts() {
        let p = compile(
            "unsigned f(int x) { return x < 0 ? (unsigned)(-x) : (unsigned)x; }",
        );
        assert_eq!(run(&p, "f", &[Value::i32(-5)]), Ok(Value::u32(5)));
        assert_eq!(run(&p, "f", &[Value::i32(5)]), Ok(Value::u32(5)));
    }

    #[test]
    fn pointer_indexing() {
        let p = compile("unsigned get(unsigned *a, unsigned i) { return a[i]; }");
        let mut st = p.initial_state();
        let cs = st.as_conc_mut().unwrap();
        for k in 0..4u32 {
            cs.mem
                .alloc(0x100 + u64::from(k) * 4, &Value::u32(k * 10), &p.tenv)
                .unwrap();
        }
        let a = Value::Ptr(Ptr::new(0x100, Ty::U32));
        let (v, _) = exec_fn(&p, "get", &[a, Value::u32(3)], st, 10_000).unwrap();
        assert_eq!(v, Value::u32(30));
    }
}
