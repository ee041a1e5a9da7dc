//! L2 phase tests: output shapes match the paper's figures, and the
//! differential refinement theorems hold.

use autocorres::{translate_program, Options};
use kernel::check;
use monadic::ProgramCtx;

/// The L1 and L2 programs of `src` as the pipeline translates them, every
/// L1 and L2 theorem checked.
fn run_l2(src: &str) -> (ProgramCtx, ProgramCtx) {
    let typed = cparser::parse_and_check(src).unwrap();
    let opts = Options {
        l2_trials: 120,
        seed: 2024,
        ..Options::default()
    };
    let out = translate_program(&typed, &opts).unwrap();
    for (_, t) in out.thms.l1.iter().chain(&out.thms.l2) {
        check(t, &out.check_ctx).unwrap();
    }
    (out.l1, out.l2)
}

#[test]
fn fig2_max_becomes_ideal_conditional() {
    let (_, l2) = run_l2("int max(int a, int b) { if (a < b) return b; return a; }");
    let f = l2.function("max").unwrap();
    // The paper's max': if a < b then b else a (still on words at L2).
    assert_eq!(
        f.body.to_string(),
        "return (if a < b then b else a)",
        "got: {}",
        f.body
    );
}

#[test]
fn gcd_loop_lifts_locals_into_iterators() {
    let (_, l2) = run_l2(
        "unsigned gcd(unsigned a, unsigned b) {\n\
           while (b != 0u) { unsigned t = b; b = a % b; a = t; }\n\
           return a;\n\
         }",
    );
    let f = l2.function("gcd").unwrap();
    let s = f.body.to_string();
    assert!(s.contains("whileLoop (λ(a, b) s. b ≠ 0)"), "{s}");
    assert!(s.contains("(a, b) ←"), "{s}");
    assert!(s.contains("return a"), "{s}");
    assert!(!s.contains("´"), "no state-stored locals remain: {s}");
}

#[test]
fn fig6_reverse_shape() {
    let (_, l2) = run_l2(
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
    let f = l2.function("reverse").unwrap();
    let s = f.body.to_string();
    // Fig 6: whileLoop over (list, rev), initialised (list, NULL).
    assert!(s.contains("whileLoop (λ(list, rev) s. list ≠ NULL)"), "{s}");
    assert!(s.contains("(list, NULL)"), "{s}");
    assert!(s.contains("return rev"), "{s}");
    // Loop-internal local `next` is a plain bind, not an iterator.
    assert!(s.contains("next ← gets"), "{s}");
}

#[test]
fn break_and_continue_translate_with_tagged_exceptions() {
    let (l1, l2) = run_l2(
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
    // Differential check at the function level (also done by the
    // pipeline's L2 theorem; re-assert on concrete inputs here).
    for n in 0..8u32 {
        let st = ir::state::State::conc_empty();
        let (v1, _) =
            monadic::exec_fn(&l1, "f", &[ir::value::Value::u32(n)], st.clone(), 100_000)
                .unwrap();
        let (v2, _) =
            monadic::exec_fn(&l2, "f", &[ir::value::Value::u32(n)], st, 100_000).unwrap();
        assert_eq!(v1, v2, "n = {n}");
    }
}

#[test]
fn early_return_in_loop_uses_exception_encoding() {
    let (l1, l2) = run_l2(
        "unsigned find(unsigned n) {\n\
           unsigned i = 0;\n\
           while (i < n) {\n\
             if (i * i >= 16u) return i;\n\
             i = i + 1u;\n\
           }\n\
           return n;\n\
         }",
    );
    let f = l2.function("find").unwrap();
    assert!(f.body.to_string().contains("try"), "{}", f.body);
    for n in [0u32, 3, 4, 5, 10] {
        let st = ir::state::State::conc_empty();
        let (v1, _) =
            monadic::exec_fn(&l1, "find", &[ir::value::Value::u32(n)], st.clone(), 100_000)
                .unwrap();
        let (v2, _) =
            monadic::exec_fn(&l2, "find", &[ir::value::Value::u32(n)], st, 100_000).unwrap();
        assert_eq!(v1, v2, "n = {n}");
    }
}

#[test]
fn do_while_runs_body_first() {
    let (l1, l2) = run_l2(
        "unsigned f(unsigned n) {\n\
           unsigned c = 0;\n\
           do { c = c + 1u; n = n / 2u; } while (n > 0u);\n\
           return c;\n\
         }",
    );
    for n in [0u32, 1, 8, 100] {
        let st = ir::state::State::conc_empty();
        let (v1, _) =
            monadic::exec_fn(&l1, "f", &[ir::value::Value::u32(n)], st.clone(), 100_000)
                .unwrap();
        let (v2, _) =
            monadic::exec_fn(&l2, "f", &[ir::value::Value::u32(n)], st, 100_000).unwrap();
        assert_eq!(v1, v2, "n = {n}");
    }
}

#[test]
fn calls_and_heap_writes() {
    let (_, l2) = run_l2(
        "unsigned sq(unsigned x) { return x * x; }\n\
         void store(unsigned *p, unsigned v) { *p = sq(v) + 1u; }",
    );
    let f = l2.function("store").unwrap();
    let s = f.body.to_string();
    assert!(s.contains("sq'"), "call appears: {s}");
    assert!(s.contains("modify"), "heap write appears: {s}");
    assert!(s.contains("ptr_aligned"), "pointer guard appears: {s}");
}

#[test]
fn globals_stay_in_state() {
    let (l1, l2) = run_l2(
        "unsigned counter = 10;\n\
         void bump(void) { counter = counter + 1u; }",
    );
    let st = {
        let mut s = ir::state::State::conc_empty();
        s.set_global("counter", ir::value::Value::u32(10));
        s
    };
    let (_, s1) = monadic::exec_fn(&l1, "bump", &[], st.clone(), 10_000).unwrap();
    let (_, s2) = monadic::exec_fn(&l2, "bump", &[], st, 10_000).unwrap();
    assert_eq!(s1.global("counter"), Some(&ir::value::Value::u32(11)));
    assert_eq!(s2.global("counter"), Some(&ir::value::Value::u32(11)));
}
