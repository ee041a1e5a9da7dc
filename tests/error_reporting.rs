//! Unsupported constructs produce clean, phase-tagged errors — the user
//! experience the paper's "supported subset" list implies.

use autocorres::{translate, Options};
use ir::diag::Phase;

fn expect_frontend_error(src: &str, needle: &str) {
    match translate(src, &Options::default()) {
        Err(d) if d.phase == Phase::Frontend => {
            assert!(
                d.message.contains(needle),
                "expected `{needle}` in: {}",
                d.message
            );
        }
        other => panic!("expected a frontend error for {src:?}, got {other:?}"),
    }
}

#[test]
fn unsupported_c_features_are_reported() {
    expect_frontend_error("void f(void) { goto x; }", "goto");
    expect_frontend_error("union u { int a; float b; };", "union");
    expect_frontend_error("float area(float r) { return r; }", "float");
    expect_frontend_error("void f(int x) { int *p = &x; }", "address-of");
    expect_frontend_error("int f(void) { return g(); }", "undeclared");
    expect_frontend_error("void f(int (*fp)(int)) { }", "");
    // Features inside the subset still reject their unsupported corners.
    expect_frontend_error("void f(int x) { switch (x) { } }", "case");
    expect_frontend_error(
        "void f(void) { int a[4][4]; }",
        "multi-dimensional",
    );
    expect_frontend_error("void f(void) { const int *p; }", "qualified pointer");
    expect_frontend_error(
        "void f(void) { const int c = 1; c = 2; }",
        "const",
    );
    expect_frontend_error(
        "unsigned f(void) { return 1u; }\nunsigned f(void) { return 2u; }",
        "defined twice",
    );
}

#[test]
fn translation_limits_are_reported() {
    // Calls in loop conditions cannot be encoded by the literal translation.
    match translate(
        "unsigned id(unsigned x) { return x; }\n\
         void f(unsigned n) { while (id(n) > 0u) { n = n - 1u; } }",
        &Options::default(),
    ) {
        Err(d) if d.phase == Phase::Simpl => {
            assert!(d.message.contains("loop conditions"), "{}", d.message);
        }
        other => panic!("expected a Simpl-phase error, got {other:?}"),
    }
}

#[test]
fn the_first_simpl_failure_in_source_order_is_reported() {
    // Both `zz` and `aa` fail the Simpl translation, and name order is the
    // reverse of source order. Each `l1` job translates its own function,
    // yet the run reports what translating the whole program reports: the
    // first failure in source order, `zz`'s.
    let src = "unsigned id(unsigned x) { return x; }\n\
               void zz(unsigned n) { while (id(n) > 0u) { n = n - 1u; } }\n\
               void aa(unsigned n) { if (n > 0u) { break; } }\n";
    let typed = cparser::parse_and_check(src).unwrap();
    let whole = simpl::translate_program(&typed).unwrap_err();
    assert!(
        whole.message.contains("loop conditions"),
        "{}",
        whole.message
    );
    for workers in [1, 2] {
        let opts = Options {
            workers,
            force_pool: true,
            ..Options::default()
        };
        let d = translate(src, &opts).unwrap_err();
        assert_eq!(
            (d.phase, &d.message, d.span, &d.function),
            (whole.phase, &whole.message, whole.span, &whole.function),
            "workers={workers}"
        );
    }
}

#[test]
fn byte_level_code_must_be_declared_concrete() {
    // Default options heap-abstract everything, which is fine for typed u8
    // access, so the memset source itself translates; but explicitly
    // forcing an unabstractable construct (a retype-style cast write mix)
    // through HL is caught. Here: the supported path — the error surfaces
    // only through behaviour (see casestudies::memset) — so we assert the
    // positive: concrete_fns flows through.
    let out = translate(
        casestudies::sources::MEMSET,
        &Options {
            concrete_fns: ["memset_b".to_owned()].into(),
            ..Options::default()
        },
    )
    .unwrap();
    assert!(out
        .wa
        .function("zero_word")
        .unwrap()
        .to_string()
        .contains("exec_concrete"));
}

#[test]
fn missing_loop_annotation_is_a_clean_vcg_error() {
    let out = translate(
        "unsigned f(unsigned n) { while (n > 0u) { n = n - 1u; } return n; }",
        &Options::default(),
    )
    .unwrap();
    let body = out.wa.function("f").unwrap().body.clone();
    let spec = vcg::Spec {
        pre: ir::Expr::tt(),
        post: ir::Expr::tt(),
    };
    let err = vcg::vcg(&body, &spec, &[], vcg::HeapModel::SplitHeaps, &out.wa.tenv)
        .unwrap_err();
    assert!(err.to_string().contains("annotation"), "{err}");
}
