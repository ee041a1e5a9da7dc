//! Heap-abstraction engine tests: Fig 3 → Fig 5 (swap), field accesses,
//! checker replay, and semantic differential validation of the theorems.

use autocorres::{translate_program, Options};
use heapabs::{hl_program, HlOptions};
use ir::eval::Env;
use kernel::{check, CheckCtx, Judgment};
use monadic::ProgramCtx;
use rand::{Rng, SeedableRng};

/// The L2 program of `src` as the pipeline translates it, and a kernel
/// context with its struct layouts.
fn to_l2(src: &str) -> (ProgramCtx, CheckCtx) {
    let typed = cparser::parse_and_check(src).unwrap();
    let opts = Options {
        l2_trials: 60,
        seed: 7,
        ..Options::default()
    };
    let l2ctx = translate_program(&typed, &opts).unwrap().l2;
    let cx = CheckCtx {
        tenv: l2ctx.tenv.clone(),
        ..CheckCtx::default()
    };
    (l2ctx, cx)
}

fn validate_hl(
    l2ctx: &ProgramCtx,
    hlctx: &ProgramCtx,
    cx: &CheckCtx,
    thms: &[(String, kernel::Thm)],
    seed: u64,
) {
    let heap_types = autocorres::testing::heap_types_of(&l2ctx.tenv, l2ctx);
    for (name, thm) in thms {
        check(thm, cx).unwrap();
        let f = &l2ctx.fns[name];
        let params = f.params.clone();
        let ht = heap_types.clone();
        kernel::semantics::test_hstmt(
            l2ctx,
            hlctx,
            thm.judgment(),
            &heap_types,
            40,
            seed,
            move |rng| {
                let st = autocorres::testing::gen_state(rng, &l2ctx.tenv, &ht, 4);
                let mut env = Env::with_tenv(l2ctx.tenv.clone());
                for (n, t) in &params {
                    env.bind_mut(n, autocorres::testing::random_arg(rng, t, &ht, 4));
                }
                (env, st)
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn fig5_swap() {
    let (l2ctx, cx) = to_l2(
        "void swap(unsigned *a, unsigned *b) {\n\
           unsigned t = *a; *a = *b; *b = t;\n\
         }",
    );
    let (hlctx, thms) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    let f = hlctx.function("swap").unwrap();
    let s = f.to_string();
    // Fig 5's shape: is_valid guards, split-heap reads and writes; no
    // byte-level pointer conditions remain.
    assert!(s.contains("guard (λs. is_valid_w32 s a)"), "{s}");
    assert!(s.contains("guard (λs. is_valid_w32 s b)"), "{s}");
    assert!(s.contains("s[a]·w32 := "), "{s}");
    assert!(!s.contains("ptr_aligned"), "{s}");
    assert!(!s.contains("..+"), "{s}");
    validate_hl(&l2ctx, &hlctx, &cx, &thms, 11);
}

#[test]
fn struct_fields_become_field_selects() {
    let (l2ctx, cx) = to_l2(
        "struct node { struct node *next; unsigned data; };\n\
         unsigned get(struct node *p) { return p->data; }\n\
         void set(struct node *p, unsigned v) { p->data = v; }",
    );
    let (hlctx, thms) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    let get = hlctx.function("get").unwrap().to_string();
    assert!(get.contains("s[p]·node_C→data"), "{get}");
    assert!(get.contains("is_valid_node_C"), "{get}");
    assert!(!get.contains("+p"), "offset arithmetic is gone: {get}");
    let set = hlctx.function("set").unwrap().to_string();
    assert!(set.contains("⦇data := "), "functional update: {set}");
    validate_hl(&l2ctx, &hlctx, &cx, &thms, 12);
}

#[test]
fn fig6_reverse_after_hl() {
    let (l2ctx, cx) = to_l2(
        "struct node { struct node *next; unsigned data; };\n\
         struct node *reverse(struct node *list) {\n\
           struct node *rev = NULL;\n\
           while (list) {\n\
             struct node *next = list->next;\n\
             list->next = rev; rev = list; list = next;\n\
           }\n\
           return rev;\n\
         }",
    );
    let (hlctx, thms) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    let f = hlctx.function("reverse").unwrap().to_string();
    // Fig 6 output: is_valid guard, field read, functional field update.
    assert!(f.contains("guard (λs. is_valid_node_C s list)"), "{f}");
    assert!(f.contains("s[list]·node_C→next"), "{f}");
    assert!(f.contains("next := "), "{f}");
    validate_hl(&l2ctx, &hlctx, &cx, &thms, 13);
}

#[test]
fn reverse_actually_reverses_at_hl_level() {
    let (l2ctx, cx) = to_l2(
        "struct node { struct node *next; unsigned data; };\n\
         struct node *reverse(struct node *list) {\n\
           struct node *rev = NULL;\n\
           while (list) {\n\
             struct node *next = list->next;\n\
             list->next = rev; rev = list; list = next;\n\
           }\n\
           return rev;\n\
         }",
    );
    let (hlctx, _) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    // Build a concrete 3-element list, lift it, run the abstract program.
    let node_ty = ir::ty::Ty::Struct("node".into());
    let mut conc = ir::state::ConcState::default();
    let mk = |next: u64, data: u32| {
        ir::value::Value::Struct(
            "node".into(),
            vec![
                (
                    "next".into(),
                    ir::value::Value::Ptr(ir::value::Ptr::new(next, node_ty.clone())),
                ),
                ("data".into(), ir::value::Value::u32(data)),
            ],
        )
    };
    conc.mem.alloc(0x100, &mk(0x200, 1), &l2ctx.tenv).unwrap();
    conc.mem.alloc(0x200, &mk(0x300, 2), &l2ctx.tenv).unwrap();
    conc.mem.alloc(0x300, &mk(0, 3), &l2ctx.tenv).unwrap();
    let abs = heapmodel::lift_state(&conc, &l2ctx.tenv, std::slice::from_ref(&node_ty));
    let head = ir::value::Value::Ptr(ir::value::Ptr::new(0x100, node_ty.clone()));
    let (r, st) = monadic::exec_fn(
        &hlctx,
        "reverse",
        &[head],
        ir::state::State::Abs(abs),
        100_000,
    )
    .unwrap();
    let monadic::MonadResult::Normal(ir::value::Value::Ptr(new_head)) = r else {
        panic!("expected a pointer result: {r:?}");
    };
    assert_eq!(new_head.addr, 0x300, "last node becomes the head");
    // Walk the reversed list on the abstract heap: 3, 2, 1.
    let heap = st.as_abs().unwrap().heap(&node_ty).unwrap();
    let n3 = heap.get(0x300).unwrap();
    assert_eq!(n3.field("data"), Some(&ir::value::Value::u32(3)));
    let ir::value::Value::Ptr(p2) = n3.field("next").unwrap() else {
        panic!()
    };
    assert_eq!(p2.addr, 0x200);
}

#[test]
fn byte_level_functions_must_stay_concrete() {
    let (l2ctx, cx) = to_l2(
        "void zero(unsigned char *p) { *p = 0; }\n\
         unsigned charread(unsigned char *p) { return *p; }",
    );
    // u8 access is still typed access — abstractable.
    let r = hl_program(&cx, &l2ctx, &HlOptions::default());
    assert!(r.is_ok());
}

#[test]
fn concrete_fns_get_exec_concrete_wrappers() {
    let (l2ctx, cx) = to_l2(
        "void low(unsigned *p) { *p = 1u; }\n\
         void high(unsigned *p) { low(p); }",
    );
    let mut opts = HlOptions::default();
    opts.concrete_fns.insert("low".into());
    let (hlctx, thms) = hl_program(&cx, &l2ctx, &opts).unwrap();
    let high = hlctx.function("high").unwrap().to_string();
    assert!(high.contains("exec_concrete"), "{high}");
    // `low` is untouched.
    assert_eq!(hlctx.function("low").unwrap().body, l2ctx.function("low").unwrap().body);
    // Only `high` has a theorem.
    assert_eq!(thms.len(), 1);
    assert_eq!(thms[0].0, "high");
}

#[test]
fn theorems_are_checker_replayable_and_nontrivial() {
    let (l2ctx, cx) = to_l2(
        "struct node { struct node *next; unsigned data; };\n\
         unsigned sum(struct node *p) {\n\
           unsigned s = 0;\n\
           while (p != NULL) { s = s + p->data; p = p->next; }\n\
           return s;\n\
         }",
    );
    let (hlctx, thms) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    assert_eq!(thms.len(), 1);
    let (_, thm) = &thms[0];
    check(thm, &cx).unwrap();
    assert!(thm.proof_size() > 10, "non-trivial derivation");
    let Judgment::HStmt { abs, .. } = thm.judgment() else {
        panic!()
    };
    assert_eq!(abs, &hlctx.function("sum").unwrap().body);
    validate_hl(&l2ctx, &hlctx, &cx, &thms, 14);

    // A tampered "theorem" cannot be constructed: the checker would reject
    // a mismatched conclusion (constructors validate), so the only way to
    // get an abs_h_stmt is through the rules. (Compile-time property —
    // `Thm` has no public constructor.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let _ = rng.gen::<u32>();
}
