//! Random program-state generation for the differential refinement
//! validators.
//!
//! Generates concrete byte-level states populated with tagged heap objects
//! whose pointer fields point at each other (or NULL), so that
//! pointer-chasing code (list reversal, Schorr-Waite) explores non-trivial
//! shapes, plus random argument values whose pointer arguments hit the
//! allocated objects.

use rand::rngs::StdRng;
use rand::Rng;

use ir::state::ConcState;
use ir::ty::{Signedness, Ty, TypeEnv};
use ir::value::{Ptr, Value};
use ir::word::Word;

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
    let mut addrs_of: std::collections::BTreeMap<Ty, Vec<u64>> = Default::default();
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
    addrs_of: &std::collections::BTreeMap<Ty, Vec<u64>>,
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
    addrs_of: &std::collections::BTreeMap<Ty, Vec<u64>>,
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
pub fn heap_types_of(tenv: &TypeEnv, fns: &monadic::ProgramCtx) -> Vec<Ty> {
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

/// End-to-end differential refinement check between the Simpl (parser)
/// level and the final WA output of a pipeline run: whenever the abstract
/// run succeeds normally, the concrete run must succeed with the related
/// result and an equal lifted heap. Returns the number of decided trials.
///
/// # Panics
///
/// Panics on a refinement violation.
pub fn check_e2e_refinement(
    out: &crate::Output,
    fname: &str,
    heap_types: &[Ty],
    trials: u32,
    seed: u64,
) -> u32 {
    use ir::state::State;
    use monadic::MonadResult;
    let mut rng = rand::SeedableRng::seed_from_u64(seed);
    let f = out.wa.function(fname).expect("function exists");
    let simpl_f = out.simpl.function(fname).expect("function exists");
    let mut decided = 0;
    for i in 0..trials {
        let conc = gen_state(&mut rng, &out.simpl.tenv, heap_types, 4);
        let args: Vec<Value> = simpl_f
            .params
            .iter()
            .map(|(_, t)| random_arg(&mut rng, t, heap_types, 4))
            .collect();
        let abs_args: Vec<Value> = args
            .iter()
            .zip(&simpl_f.params)
            .map(|(v, (_, t))| {
                kernel::AbsFun::for_ty(t).apply(v).expect("abstractable argument")
            })
            .collect();
        let abs_state =
            State::Abs(heapmodel::lift_state(&conc, &out.simpl.tenv, heap_types));
        let (abs_val, abs_final) =
            match monadic::exec_fn(&out.wa, fname, &abs_args, abs_state, 400_000) {
                Ok((MonadResult::Normal(v), st)) => (v, st),
                _ => continue,
            };
        let (conc_val, conc_final) = simpl::exec_fn(
            &out.simpl,
            fname,
            &args,
            State::Conc(conc),
            400_000,
        )
        .unwrap_or_else(|e| panic!("{fname} trial {i}: concrete faults: {e}"));
        let expect = match (&conc_val, &f.ret_ty) {
            (Value::Word(w), Ty::Nat) => Value::Nat(w.unat()),
            (Value::Word(w), Ty::Int) => Value::Int(w.sint()),
            (other, _) => other.clone(),
        };
        assert_eq!(abs_val, expect, "{fname} trial {i}: results unrelated");
        let State::Conc(cf) = conc_final else { unreachable!() };
        let lifted = heapmodel::lift_state(&cf, &out.simpl.tenv, heap_types);
        let State::Abs(af) = abs_final else { unreachable!() };
        assert_eq!(lifted.heaps, af.heaps, "{fname} trial {i}: heaps differ");
        decided += 1;
    }
    decided
}
