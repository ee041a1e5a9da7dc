//! Phase L1: Simpl to the monadic deep embedding.
//!
//! A structural fold over the Simpl statement, applying one kernel rule per
//! construct (the content of Table 1). The resulting program still stores
//! local variables in the state (`MonadicFn::frame` is `Some`); L2 lifts
//! them.

use ir::expr::Expr;
use ir::ty::Ty;
use kernel::rules::refine;
use kernel::{CheckCtx, Judgment, KernelError, Thm};
use monadic::{MonadicFn, Prog, ProgramCtx};
use simpl::stmt::{ISimpl, SimplFn, SimplProgram};
use simpl::RET_VAR;

/// The L1 translation of one function: the monadic function plus the
/// `l1corres` theorem for its body.
#[derive(Clone, Debug)]
pub struct L1Fn {
    /// The translated function (locals in state).
    pub fun: MonadicFn,
    /// `l1corres body simpl_body`.
    pub thm: Thm,
}

/// Translates a Simpl function to L1.
///
/// # Errors
///
/// Propagates kernel errors (which indicate a driver bug — the rules cover
/// every Simpl construct).
pub fn l1_function(cx: &CheckCtx, f: &SimplFn) -> Result<L1Fn, KernelError> {
    let thm = l1_stmt(cx, &f.body)?;
    let Judgment::L1 { prog, .. } = thm.judgment() else {
        unreachable!("l1 rules conclude l1corres");
    };
    // Calling convention: the function's value is the `ret__` local for
    // non-void functions (read before the frame is popped).
    let body = if f.ret_ty == Ty::Unit {
        prog.clone()
    } else {
        Prog::then(prog.clone(), Prog::Gets(Expr::local(RET_VAR)))
    };
    Ok(L1Fn {
        fun: MonadicFn {
            name: f.name.clone(),
            params: f.params.clone(),
            ret_ty: f.ret_ty.clone(),
            frame: Some(f.locals.clone()),
            body,
        },
        thm,
    })
}

/// The Simpl function an L1 translation states, read back from its parts:
/// the name, parameters, locals and return type [`l1_function`] copied
/// into `fun`, and the body its `l1corres` theorem `thm` relates `fun`'s
/// body to.
#[must_use]
pub fn simpl_fn(fun: &MonadicFn, thm: &Thm) -> SimplFn {
    let Judgment::L1 { simpl, .. } = thm.judgment() else {
        unreachable!("l1 rules conclude l1corres");
    };
    SimplFn {
        name: fun.name.clone(),
        params: fun.params.clone(),
        locals: fun.frame.clone().expect("L1 keeps locals in the frame"),
        ret_ty: fun.ret_ty.clone(),
        body: simpl.clone(),
    }
}

/// Structural fold applying the kernel's L1 rules: each node's theorem
/// states the statement handle its parent holds.
fn l1_stmt(cx: &CheckCtx, s: &ISimpl) -> Result<Thm, KernelError> {
    let subs = s
        .children()
        .into_iter()
        .map(|c| l1_stmt(cx, c))
        .collect::<Result<_, _>>()?;
    refine::l1(cx, s, subs)
}

/// Translates a whole Simpl program to an L1 [`ProgramCtx`], returning the
/// per-function theorems.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn l1_program(
    cx: &CheckCtx,
    sp: &SimplProgram,
) -> Result<(ProgramCtx, Vec<(String, Thm)>), KernelError> {
    let mut ctx = ProgramCtx {
        tenv: sp.tenv.clone(),
        globals: sp.globals.clone(),
        ..ProgramCtx::default()
    };
    let mut thms = Vec::new();
    for (name, f) in &sp.fns {
        let out = l1_function(cx, f)?;
        ctx.fns.insert(name.clone(), out.fun);
        thms.push((name.clone(), out.thm));
    }
    Ok((ctx, thms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::state::State;
    use ir::value::Value;
    use kernel::check;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn compile(src: &str) -> (SimplProgram, ProgramCtx, Vec<(String, Thm)>, CheckCtx) {
        let typed = cparser::parse_and_check(src).unwrap();
        let sp = simpl::translate_program(&typed).unwrap();
        let cx = CheckCtx {
            tenv: sp.tenv.clone(),
            ..CheckCtx::default()
        };
        let (ctx, thms) = l1_program(&cx, &sp).unwrap();
        (sp, ctx, thms, cx)
    }

    #[test]
    fn max_l1_matches_simpl_behaviour() {
        let (sp, ctx, thms, cx) = compile(
            "int max(int a, int b) { if (a < b) return b; return a; }",
        );
        for (_, t) in &thms {
            check(t, &cx).unwrap();
        }
        // Differential testing: L1 function equals the Simpl function.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = Value::i32(rng.gen());
            let b = Value::i32(rng.gen());
            let (sv, _) = simpl::exec_fn(&sp, "max", &[a.clone(), b.clone()], sp.initial_state(), 10_000)
                .unwrap();
            let (mv, _) = monadic::exec_fn(&ctx, "max", &[a, b], sp.initial_state(), 10_000)
                .unwrap();
            assert_eq!(mv, monadic::MonadResult::Normal(sv));
        }
    }

    #[test]
    fn l1_statement_theorems_validate_semantically() {
        let (sp, ctx, thms, _) = compile(
            "unsigned gcd(unsigned a, unsigned b) {\n\
               while (b != 0u) { unsigned t = b; b = a % b; a = t; }\n\
               return a;\n\
             }",
        );
        let (_, thm) = &thms[0];
        // Random local frames exercise the statement-level correspondence.
        kernel::semantics::test_l1(&sp, &ctx, thm.judgment(), 60, 11, |rng| {
            let mut st = State::conc_empty();
            st.set_local("a", Value::u32(rng.gen_range(0..40)));
            st.set_local("b", Value::u32(rng.gen_range(0..40)));
            st.set_local("t", Value::u32(0));
            st.set_local(simpl::EXN_VAR, Value::u32(0));
            st.set_local(simpl::RET_VAR, Value::u32(0));
            st
        })
        .unwrap();
    }

    /// Statements are interned: every node of an L1 theorem states the
    /// very handles its statement holds as the sub-statements its premises
    /// state, the root states the function body, and `simpl_fn` reads that
    /// handle back.
    #[test]
    fn l1_nodes_share_statements_with_their_premises() {
        let (sp, ctx, thms, _) = compile(
            "unsigned gcd(unsigned a, unsigned b) {\n\
               while (b != 0u) { unsigned t = b; if (t > 7u) { t = t / 2u; } b = a % b; a = t; }\n\
               return a;\n\
             }",
        );
        let (name, thm) = &thms[0];
        let body = &sp.fns[name].body;
        let Judgment::L1 { simpl, .. } = thm.judgment() else {
            panic!("not an l1corres theorem")
        };
        assert!(ISimpl::ptr_eq(simpl, body), "the root states another body");
        assert!(ISimpl::ptr_eq(&simpl_fn(&ctx.fns[name], thm).body, body));
        let mut stack = vec![thm];
        let mut nodes = 0;
        while let Some(t) = stack.pop() {
            nodes += 1;
            let Judgment::L1 { simpl, .. } = t.judgment() else {
                panic!("an L1 premise that is not l1corres")
            };
            let children = simpl.children();
            assert_eq!(children.len(), t.premises().len());
            for (child, p) in children.into_iter().zip(t.premises()) {
                let Judgment::L1 { simpl: stated, .. } = p.judgment() else {
                    panic!("an L1 premise that is not l1corres")
                };
                assert!(
                    ISimpl::ptr_eq(child, stated),
                    "a premise copies its statement"
                );
            }
            stack.extend(t.premises());
        }
        assert_eq!(nodes, thm.proof_size());
    }

    /// The statements of a function's L1 derivation are written once per
    /// encoder: doubling a straight-line body at most about doubles its
    /// certificate and its store record, where writing every node's whole
    /// suffix of the body grew them quadratically.
    #[test]
    fn l1_encodings_grow_linearly_with_the_body() {
        let sizes = |statements: usize| {
            let body: String = (0..statements)
                .map(|i| format!("  x = x + {}u;\n", i % 7))
                .collect();
            let (_, ctx, thms, cx) = compile(&format!(
                "unsigned line(unsigned x) {{\n{body}  return x;\n}}"
            ));
            let (name, thm) = &thms[0];
            let cert = kernel::cert::encode_cert(&cx, &[(name.as_str(), thm)]);
            let artifact = crate::phase::PhaseArtifact {
                digest: 0,
                value: crate::phase::Artifact::L1 {
                    fun: ctx.fns[name].clone(),
                    thm: thm.clone(),
                },
            };
            let record = crate::store::encode_record(crate::Phase::L1, name, &artifact);
            (cert.len(), record.len())
        };
        for k in [40, 80] {
            let ((cert_k, record_k), (cert_2k, record_2k)) = (sizes(k), sizes(2 * k));
            assert!(
                cert_2k * 10 <= cert_k * 22,
                "{k} → {} statements: certificate {cert_k} → {cert_2k} bytes",
                2 * k
            );
            assert!(
                record_2k * 10 <= record_k * 22,
                "{k} → {} statements: store record {record_k} → {record_2k} bytes",
                2 * k
            );
        }
    }

    #[test]
    fn l1_function_returns_value_from_frame() {
        let (_, ctx, _, _) = compile("unsigned five(void) { return 5u; }");
        let (r, _) =
            monadic::exec_fn(&ctx, "five", &[], State::conc_empty(), 1000).unwrap();
        assert_eq!(r, monadic::MonadResult::Normal(Value::u32(5)));
    }

    #[test]
    fn recursive_calls_work_at_l1() {
        let (_, ctx, _, _) = compile(
            "unsigned gcd(unsigned a, unsigned b) {\n\
               if (b == 0u) return a;\n\
               return gcd(b, a % b);\n\
             }",
        );
        let (r, _) = monadic::exec_fn(
            &ctx,
            "gcd",
            &[Value::u32(12), Value::u32(18)],
            State::conc_empty(),
            100_000,
        )
        .unwrap();
        assert_eq!(r, monadic::MonadResult::Normal(Value::u32(6)));
    }
}
