//! Random program-state generation for the differential refinement
//! validators, and the one differential tester behind `ExecTested`
//! theorems ([`exec_test_fn`]).
//!
//! Generates concrete byte-level states populated with tagged heap objects
//! whose pointer fields point at each other (or NULL), so that
//! pointer-chasing code (list reversal, Schorr-Waite) explores non-trivial
//! shapes, plus random argument values whose pointer arguments hit the
//! allocated objects.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ir::diag::{Diag, DiagKind};
use ir::state::{ConcState, State};
use ir::ty::{Signedness, Ty, TypeEnv};
use ir::value::{Ptr, Value};
use ir::word::Word;
use kernel::rules::refine;
use kernel::{CheckCtx, Thm};
use monadic::{MonadFault, ProgramCtx};

/// Base address of generated objects (each object slot is 0x100 apart).
pub const OBJ_BASE: u64 = 0x1000;
/// Spacing between generated objects.
pub const OBJ_STRIDE: u64 = 0x100;

/// Generates a concrete state with `n` objects of each of the given heap
/// types, randomly initialised; pointer fields point at allocated objects
/// of the right type or NULL.
#[must_use]
pub fn gen_state(rng: &mut StdRng, tenv: &TypeEnv, heap_types: &[Ty], n: usize) -> ConcState {
    let mut st = ConcState::default();
    // Pre-compute the addresses each type's objects will live at.
    let mut addrs_of: BTreeMap<Ty, Vec<u64>> = Default::default();
    let mut next = OBJ_BASE;
    for ty in heap_types {
        let mut addrs = Vec::new();
        for _ in 0..n {
            addrs.push(next);
            next += OBJ_STRIDE;
        }
        addrs_of.insert(ty.clone(), addrs);
    }
    for ty in heap_types {
        for addr in addrs_of[ty].clone() {
            let v = random_object(rng, tenv, ty, &addrs_of);
            st.mem.alloc(addr, &v, tenv).expect("generated object encodes");
        }
    }
    st
}

/// A random pointer into the allocated objects of `ty` (sometimes NULL).
#[must_use]
pub fn random_ptr_into(
    rng: &mut StdRng,
    ty: &Ty,
    addrs_of: &BTreeMap<Ty, Vec<u64>>,
) -> Ptr {
    let addrs = addrs_of.get(ty).map(Vec::as_slice).unwrap_or(&[]);
    if addrs.is_empty() || rng.gen_bool(0.3) {
        Ptr::null(ty.clone())
    } else {
        Ptr::new(addrs[rng.gen_range(0..addrs.len())], ty.clone())
    }
}

fn random_object(
    rng: &mut StdRng,
    tenv: &TypeEnv,
    ty: &Ty,
    addrs_of: &BTreeMap<Ty, Vec<u64>>,
) -> Value {
    match ty {
        Ty::Word(w, s) => {
            let bits = if rng.gen_bool(0.5) {
                rng.gen_range(0..64)
            } else {
                rng.gen()
            };
            Value::Word(Word::new(bits, *w, *s))
        }
        Ty::Ptr(p) => Value::Ptr(random_ptr_into(rng, p, addrs_of)),
        Ty::Struct(name) => {
            let def = tenv.struct_def(name).expect("struct defined");
            let fields = def
                .fields
                .clone()
                .into_iter()
                .map(|f| {
                    let v = random_object(rng, tenv, &f.ty, addrs_of);
                    (f.name, v)
                })
                .collect();
            Value::Struct(name.clone(), fields)
        }
        Ty::Bool => Value::Bool(rng.gen()),
        other => Value::zero_of(other, tenv),
    }
}

/// Random argument for a parameter type; pointers land on generated object
/// slots (valid with high probability) or NULL.
#[must_use]
pub fn random_arg(rng: &mut StdRng, ty: &Ty, heap_types: &[Ty], n: usize) -> Value {
    match ty {
        Ty::Ptr(p) => {
            // Reconstruct the deterministic address layout of `gen_state`.
            let mut next = OBJ_BASE;
            for ht in heap_types {
                if ht == &**p {
                    break;
                }
                next += OBJ_STRIDE * n as u64;
            }
            if rng.gen_bool(0.25) {
                Value::Ptr(Ptr::null((**p).clone()))
            } else {
                let k = rng.gen_range(0..n.max(1)) as u64;
                Value::Ptr(Ptr::new(next + k * OBJ_STRIDE, (**p).clone()))
            }
        }
        Ty::Word(w, Signedness::Unsigned) => {
            Value::Word(Word::new(rng.gen_range(0..64), *w, Signedness::Unsigned))
        }
        Ty::Word(w, Signedness::Signed) => Value::Word(Word::of_int(
            &bignum::Int::from(rng.gen_range(-40i64..40)),
            *w,
            Signedness::Signed,
        )),
        other => Value::zero_of(other, &TypeEnv::new()),
    }
}

/// The heap types a typed program accesses (pointee types of all pointer
/// types appearing anywhere) — used both by state generation and by the
/// heap-abstraction engine's `abs_globals` construction.
#[must_use]
pub fn heap_types_of(tenv: &TypeEnv, fns: &ProgramCtx) -> Vec<Ty> {
    let mut out = std::collections::BTreeSet::new();
    for f in fns.fns.values() {
        collect_prog_heap_types(&f.body, &mut out);
        for (_, t) in &f.params {
            if let Ty::Ptr(p) = t {
                out.insert((**p).clone());
            }
        }
    }
    // Include field pointee types of known structs (next pointers etc.).
    for s in tenv.structs() {
        for f in &s.fields {
            if let Ty::Ptr(p) = &f.ty {
                out.insert((**p).clone());
            }
        }
    }
    out.retain(|t| !matches!(t, Ty::Unit));
    out.into_iter().collect()
}

fn collect_prog_heap_types(p: &monadic::Prog, out: &mut std::collections::BTreeSet<Ty>) {
    p.visit_exprs(&mut |e| {
        e.visit(&mut |sub| {
            if let ir::expr::Expr::ReadHeap(t, _) | ir::expr::Expr::IsValid(t, _) = sub {
                out.insert(t.clone());
            }
        });
    });
    // Heap updates carry their type directly.
    p.visit(&mut |q| {
        if let monadic::Prog::Modify(ir::update::Update::Heap(t, ..)) = q {
            out.insert(t.clone());
        }
    });
}

/// The differential test behind an `ExecTested` theorem that `abs`'s
/// version of `fname` refines `conc`'s. Each of `trials` trials runs both
/// on one generated concrete state (`conc`'s globals seeded) and one set
/// of generated arguments. A trial in which the abstract side fails or
/// either side runs out of fuel decides nothing and is skipped. Otherwise
/// the concrete side must not fail either, and both must agree on the
/// result (its value, unless the function is void) and on the final heap
/// and globals; locals are a calling-convention artefact and are not
/// compared.
///
/// # Errors
///
/// A description of the first trial that violates the refinement.
pub fn exec_test_fn(
    abs: &ProgramCtx,
    conc: &ProgramCtx,
    fname: &str,
    heap_types: &[Ty],
    trials: u32,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = &conc.fns[fname];
    let void = f.ret_ty == Ty::Unit;
    for i in 0..trials {
        let mut st = State::Conc(gen_state(&mut rng, &conc.tenv, heap_types, 4));
        for (g, v) in &conc.globals {
            st.set_global(g, v.clone());
        }
        let args: Vec<Value> = f
            .params
            .iter()
            .map(|(_, t)| random_arg(&mut rng, t, heap_types, 4))
            .collect();
        let (va, mut sa) = match monadic::exec_fn(abs, fname, &args, st.clone(), 100_000) {
            Ok(pair) => pair,
            Err(MonadFault::Failure(_) | MonadFault::OutOfFuel) => continue,
            Err(e) => return Err(format!("trial {i}: abstract side stuck: {e}")),
        };
        let (vc, mut sc) = match monadic::exec_fn(conc, fname, &args, st, 100_000) {
            Ok(pair) => pair,
            // The concrete side can spend more fuel per call (L1 keeps
            // its locals in the state), so it can time out where the
            // abstract side finished: inconclusive, not a violation.
            Err(MonadFault::OutOfFuel) => continue,
            Err(e) => {
                return Err(format!(
                    "trial {i}: concrete side fails ({e}) but abstract side succeeds"
                ))
            }
        };
        if !void && va != vc {
            return Err(format!(
                "trial {i}: values differ: concrete {vc:?} vs abstract {va:?}"
            ));
        }
        sa.swap_locals(BTreeMap::new());
        sc.swap_locals(BTreeMap::new());
        if sa != sc {
            return Err(format!("trial {i}: states differ after {fname}"));
        }
    }
    Ok(())
}

/// The `ExecTested` theorem that `abs`'s body of `name` refines `conc`'s:
/// [`exec_test_fn`] over `trials` trials on the function's seed
/// ([`crate::derive_seed`] of `seed` and `name`), which the theorem
/// records. Both pipeline phases that test a function (L2 against L1, an
/// adapted caller against HL) make their theorem here.
///
/// # Errors
///
/// A `stage` testing diagnostic for the first trial that violates the
/// refinement, which would be a driver bug.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_tested_fn(
    stage: ir::diag::Phase,
    cx: &CheckCtx,
    abs: &ProgramCtx,
    conc: &ProgramCtx,
    name: &str,
    heap_types: &[Ty],
    trials: u32,
    seed: u64,
) -> Result<Thm, Diag> {
    let seed = crate::pipeline::derive_seed(seed, name);
    let (abs_body, conc_body) = (&abs.fns[name].body, &conc.fns[name].body);
    refine::exec_tested(cx, abs_body, conc_body, trials, seed, || {
        exec_test_fn(abs, conc, name, heap_types, trials, seed)
            .map_err(|m| Diag::new(stage, DiagKind::Testing, m))
    })
    .map_err(|e| Diag::new(stage, DiagKind::Testing, format!("{name}: {e}")).with_function(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::expr::Expr;
    use ir::update::Update;
    use monadic::{MonadicFn, Prog};

    /// A program with one global `g` and one lambda-bound function
    /// `f(x: u32, p: u32*)` returning `ret_ty` by `body`.
    fn ctx(ret_ty: Ty, body: Prog) -> ProgramCtx {
        let f = MonadicFn {
            name: "f".into(),
            params: vec![("x".into(), Ty::U32), ("p".into(), Ty::U32.ptr_to())],
            ret_ty,
            frame: None,
            body,
        };
        ProgramCtx {
            fns: [("f".to_owned(), f)].into_iter().collect(),
            globals: vec![("g".into(), Value::Word(Word::u32(0)))],
            ..ProgramCtx::default()
        }
    }

    fn exec_test(ret_ty: Ty, abs: Prog, conc: Prog) -> Result<(), String> {
        let (abs, conc) = (ctx(ret_ty.clone(), abs), ctx(ret_ty, conc));
        exec_test_fn(&abs, &conc, "f", &[Ty::U32], 16, 7)
    }

    fn ret_x() -> Prog {
        Prog::ret(Expr::var("x"))
    }

    #[test]
    fn derived_seeds_are_pinned() {
        // `ExecTested` theorems record these seeds: a change moves every
        // certificate and store entry that holds one.
        assert_eq!(crate::derive_seed(0xAC, "max"), 0xb724_baec_7522_f9c1);
        assert_eq!(crate::derive_seed(7, "f"), 0xf1f8_9e80_499a_f8fb);
    }

    #[test]
    fn equal_functions_pass() {
        assert_eq!(exec_test(Ty::U32, ret_x(), ret_x()), Ok(()));
    }

    #[test]
    fn a_concrete_failure_under_an_abstract_return_is_a_violation() {
        let err = exec_test(Ty::U32, ret_x(), Prog::Fail).unwrap_err();
        assert!(err.contains("concrete side fails"), "{err}");
    }

    #[test]
    fn an_abstract_failure_decides_nothing() {
        let conc = Prog::ret(Expr::word(Word::u32(1)));
        assert_eq!(exec_test(Ty::U32, Prog::Fail, conc), Ok(()));
    }

    #[test]
    fn different_values_heaps_or_globals_are_violations() {
        let one = Expr::word(Word::u32(1));
        let err = exec_test(Ty::U32, ret_x(), Prog::ret(one.clone())).unwrap_err();
        assert!(err.contains("values differ"), "{err}");

        let p = Expr::var("p");
        let write = Prog::Modify(Update::Heap(Ty::U32, p.clone(), Expr::word(Word::u32(0x7777))));
        let nonnull = Expr::not(Expr::eq(p, Expr::null(Ty::U32)));
        let heap_write = Prog::cond(nonnull, write, Prog::skip());
        let err = exec_test(Ty::Unit, Prog::skip(), heap_write).unwrap_err();
        assert!(err.contains("states differ"), "{err}");

        let global_write = Prog::Modify(Update::Global("g".into(), one));
        let err = exec_test(Ty::Unit, Prog::skip(), global_write).unwrap_err();
        assert!(err.contains("states differ"), "{err}");
    }

    #[test]
    fn differing_locals_pass() {
        let abs = Prog::then(Prog::Modify(Update::Local("t".into(), Expr::var("x"))), ret_x());
        assert_eq!(exec_test(Ty::U32, abs, ret_x()), Ok(()));
    }
}
