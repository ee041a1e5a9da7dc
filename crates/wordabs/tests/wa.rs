//! Word-abstraction engine tests: the paper's worked examples (midpoint,
//! max, gcd), per-function selection, custom idiom rules, checker replay,
//! and semantic differential validation.

use std::collections::{BTreeMap, HashMap};

use autocorres::{translate_program, Options};
use heapabs::{hl_program, HlOptions};
use kernel::{check, CheckCtx, Judgment};
use monadic::ProgramCtx;
use wordabs::{overflow_idiom_rule, wa_program, WaOptions};

/// The HL program of `src`, abstracted from the pipeline's L2, and a
/// kernel context with its struct layouts.
fn to_hl(src: &str) -> (ProgramCtx, CheckCtx) {
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
    let (hlctx, _) = hl_program(&cx, &l2ctx, &HlOptions::default()).unwrap();
    (hlctx, cx)
}

fn validate_wa(
    hlctx: &ProgramCtx,
    wactx: &ProgramCtx,
    thms: &[(String, kernel::Thm)],
    kcx: &CheckCtx,
    seed: u64,
) {
    for (name, thm) in thms {
        check(thm, kcx).unwrap();
        let f = &hlctx.fns[name];
        let vars: BTreeMap<String, ir::ty::Ty> = f.params.iter().cloned().collect();
        kernel::semantics::test_wstmt(hlctx, wactx, thm.judgment(), &vars, 300, seed, |_| {
            ir::state::State::conc_empty()
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn sec33_midpoint() {
    let (hlctx, cx) = to_hl("unsigned mid(unsigned l, unsigned r) { return (l + r) / 2u; }");
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let f = wactx.function("mid").unwrap();
    let s = f.body.to_string();
    // Sec 3.3's generated abstraction:
    //   do guard (l + r ≤ UINT_MAX); return ((l + r) div 2) od
    assert!(s.contains("guard (λs. l + r ≤ 4294967295)"), "{s}");
    assert!(s.contains("return ((l + r) div 2)"), "{s}");
    assert_eq!(f.ret_ty, ir::ty::Ty::Nat);
    validate_wa(&hlctx, &wactx, &thms, &kcx, 21);
}

#[test]
fn fig2_max_is_ideal() {
    let (hlctx, cx) = to_hl("int max(int a, int b) { if (a < b) return b; return a; }");
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let f = wactx.function("max").unwrap();
    // The paper: AutoCorres's output of max precisely matches the built-in
    // max on ideal numbers — no guards needed (comparison is guard-free).
    assert_eq!(f.body.to_string(), "return (if a < b then b else a)");
    assert_eq!(f.ret_ty, ir::ty::Ty::Int);
    validate_wa(&hlctx, &wactx, &thms, &kcx, 22);
}

#[test]
fn gcd_loop_abstracts_to_naturals() {
    let (hlctx, cx) = to_hl(
        "unsigned gcd(unsigned a, unsigned b) {\n\
           while (b != 0u) { unsigned t = b; b = a % b; a = t; }\n\
           return a;\n\
         }",
    );
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let f = wactx.function("gcd").unwrap();
    let s = f.body.to_string();
    assert!(s.contains("a mod b"), "{s}");
    // WMOD itself adds no precondition: the only guard is the concrete
    // division-by-zero guard inherited from the C translation.
    assert_eq!(s.matches("guard").count(), 1, "{s}");
    validate_wa(&hlctx, &wactx, &thms, &kcx, 23);

    // Semantically it IS gcd on the naturals.
    for (a, b) in [(12u64, 18u64), (17, 5), (0, 9), (100, 75)] {
        let (r, _) = monadic::exec_fn(
            &wactx,
            "gcd",
            &[ir::value::Value::nat(a), ir::value::Value::nat(b)],
            ir::state::State::conc_empty(),
            100_000,
        )
        .unwrap();
        let expect = bignum::Nat::from(a).gcd(&bignum::Nat::from(b));
        assert_eq!(r, monadic::MonadResult::Normal(ir::value::Value::Nat(expect)));
    }
}

#[test]
fn signed_arithmetic_gets_range_guards() {
    let (hlctx, cx) = to_hl("int inc(int x) { return x + 1; }");
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let s = wactx.function("inc").unwrap().body.to_string();
    assert!(s.contains("-2147483648 ≤ x + 1"), "{s}");
    assert!(s.contains("x + 1 ≤ 2147483647"), "{s}");
    validate_wa(&hlctx, &wactx, &thms, &kcx, 24);
}

#[test]
fn per_function_selection() {
    let (hlctx, cx) = to_hl(
        "unsigned f(unsigned x) { return x + 1u; }\n\
         unsigned g(unsigned x) { return f(x) * 2u; }",
    );
    let opts = WaOptions {
        abstract_fns: Some(["g".to_owned()].into()),
        ..WaOptions::default()
    };
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &opts).unwrap();
    // f is untouched (words); g is abstracted and re-concretises the call.
    assert_eq!(wactx.function("f").unwrap().ret_ty, ir::ty::Ty::U32);
    assert_eq!(wactx.function("g").unwrap().ret_ty, ir::ty::Ty::Nat);
    let s = wactx.function("g").unwrap().body.to_string();
    assert!(s.contains("of_nat32 x"), "argument re-concretised: {s}");
    assert!(s.contains("unat"), "result wrapped: {s}");
    assert_eq!(thms.len(), 1);
    validate_wa(&hlctx, &wactx, &thms, &kcx, 25);
}

#[test]
fn custom_overflow_idiom_rule() {
    // Sec 3.3: `if (x > x + y)` detects unsigned overflow; without the
    // custom rule the abstraction makes the test vacuous, with the rule it
    // becomes `UINT_MAX < x + y`.
    let src = "unsigned safe_add(unsigned x, unsigned y) {\n\
                 if (x > x + y) return 0u;\n\
                 return x + y;\n\
               }";
    let (hlctx, cx) = to_hl(src);
    let mut opts = WaOptions::default();
    opts.custom_rules.push(overflow_idiom_rule());
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &opts).unwrap();
    let s = wactx.function("safe_add").unwrap().body.to_string();
    assert!(
        s.contains("4294967295 < x + y"),
        "the idiom is captured: {s}"
    );
    validate_wa(&hlctx, &wactx, &thms, &kcx, 26);
}

#[test]
fn heap_programs_keep_state_untouched() {
    let (hlctx, cx) = to_hl(
        "struct node { struct node *next; unsigned data; };\n\
         unsigned get(struct node *p) { return p->data; }",
    );
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let s = wactx.function("get").unwrap().body.to_string();
    // The heap read stays a word read; the result is wrapped in unat.
    assert!(s.contains("unat"), "{s}");
    assert!(s.contains("s[p]·node_C→data"), "{s}");
    assert!(s.contains("is_valid_node_C"), "guards survive: {s}");
    assert_eq!(thms.len(), 1);
    // Semantic validation over heap states.
    let (name, thm) = &thms[0];
    check(thm, &kcx).unwrap();
    let heap_types = vec![ir::ty::Ty::Struct("node".into())];
    let vars: BTreeMap<String, ir::ty::Ty> =
        hlctx.fns[name].params.iter().cloned().collect();
    let tenv = hlctx.tenv.clone();
    let ht = heap_types.clone();
    kernel::semantics::test_wstmt(&hlctx, &wactx, thm.judgment(), &vars, 200, 27, move |rng| {
        let conc = autocorres::testing::gen_state(rng, &tenv, &ht, 4);
        ir::state::State::Abs(heapmodel::lift_state(&conc, &tenv, &ht))
    })
    .unwrap();
}

#[test]
fn division_by_zero_still_guarded_concretely() {
    // The concrete DivByZero guard abstracts to a nat-level guard.
    let (hlctx, cx) = to_hl("unsigned d(unsigned a, unsigned b) { return a / b; }");
    let (wactx, thms, kcx) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let s = wactx.function("d").unwrap().body.to_string();
    assert!(s.contains("b ≠ 0"), "{s}");
    validate_wa(&hlctx, &wactx, &thms, &kcx, 28);
}

/// Contexts are interned: the nodes of a word-abstraction theorem whose
/// variable contexts are equal hold one context allocation, whichever
/// binder built it (the engine entering a scope, or a rule's premise).
#[test]
fn equal_contexts_are_one_allocation() {
    let (hlctx, cx) = to_hl(
        "unsigned sum(unsigned n) {\n\
           unsigned s = 0u;\n\
           unsigned i = 0u;\n\
           while (i < n) { unsigned d = i % 3u; s = s + d; i = i + 1u; }\n\
           return s;\n\
         }",
    );
    let (_, thms, _) = wa_program(&cx, &hlctx, &WaOptions::default()).unwrap();
    let mut allocation: HashMap<kernel::judgment::VarMap, usize> = HashMap::new();
    let (mut nodes, mut stack) = (0, vec![&thms[0].1]);
    while let Some(t) = stack.pop() {
        stack.extend(t.premises());
        let (Judgment::WVal { ctx, .. } | Judgment::WStmt { ctx, .. }) = t.judgment() else {
            continue;
        };
        nodes += 1;
        let first = *allocation.entry((**ctx).clone()).or_insert(ctx.key());
        assert_eq!(first, ctx.key(), "two allocations of the context {ctx:?}");
    }
    assert!(
        allocation.len() >= 2 && nodes > 3 * allocation.len(),
        "{nodes} nodes in {} contexts",
        allocation.len()
    );
}
