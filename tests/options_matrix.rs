//! The pipeline's user-facing options, in combination: selective word
//! abstraction, selective heap abstraction (concrete functions), custom
//! rules, and the theorem bookkeeping for each choice.

use autocorres::{translate, Options};
use std::collections::BTreeSet;

const SRC: &str = "unsigned add1(unsigned x) { return x + 1u; }\n\
unsigned twice(unsigned x) { return add1(x) + add1(x); }\n\
void poke(unsigned char *p) { *p = 7u; }\n";

fn names(set: &[&str]) -> BTreeSet<String> {
    set.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn default_options_abstract_everything() {
    let out = translate(SRC, &Options::default()).unwrap();
    out.check_all().unwrap();
    assert_eq!(out.thms.l1.len(), 3);
    assert_eq!(out.thms.l2.len(), 3);
    assert_eq!(out.thms.hl.len(), 3);
    assert_eq!(out.thms.wa.len(), 3);
    for f in ["add1", "twice"] {
        assert_eq!(out.wa.function(f).unwrap().ret_ty, ir::ty::Ty::Nat, "{f}");
    }
}

#[test]
fn no_word_abstraction_stops_at_hl() {
    let out = translate(
        SRC,
        &Options {
            word_abstract_fns: Some(BTreeSet::new()),
            ..Options::default()
        },
    )
    .unwrap();
    out.check_all().unwrap();
    assert_eq!(out.thms.wa.len(), 0);
    // Final output *is* the HL output.
    for f in ["add1", "twice", "poke"] {
        assert_eq!(
            out.wa.function(f).unwrap().body,
            out.hl.function(f).unwrap().body,
            "{f}"
        );
    }
    assert_eq!(out.wa.function("twice").unwrap().ret_ty, ir::ty::Ty::U32);
}

#[test]
fn selective_word_abstraction_adapts_call_sites() {
    // Only the callee is abstracted: the word-level caller must lift its
    // arguments and re-concretise the result.
    let out = translate(
        SRC,
        &Options {
            word_abstract_fns: Some(names(&["add1"])),
            ..Options::default()
        },
    )
    .unwrap();
    out.check_all().unwrap();
    assert_eq!(out.wa.function("add1").unwrap().ret_ty, ir::ty::Ty::Nat);
    let twice = out.wa.function("twice").unwrap();
    assert_eq!(twice.ret_ty, ir::ty::Ty::U32);
    let body = twice.body.to_string();
    assert!(body.contains("unat"), "lifted argument: {body}");
    // Caller-side adaptations carry their own refines theorems.
    assert!(
        out.thms.wa.iter().filter(|(n, _)| n == "twice").count() >= 1,
        "adaptation theorem for twice"
    );
}

#[test]
fn selective_caller_abstraction_reconcretises() {
    // Only the caller is abstracted: its calls to the word-level callee
    // wrap the result with `unat` (handled inside the WA call rule).
    let out = translate(
        SRC,
        &Options {
            word_abstract_fns: Some(names(&["twice"])),
            ..Options::default()
        },
    )
    .unwrap();
    out.check_all().unwrap();
    assert_eq!(out.wa.function("add1").unwrap().ret_ty, ir::ty::Ty::U32);
    assert_eq!(out.wa.function("twice").unwrap().ret_ty, ir::ty::Ty::Nat);
    // Semantics agree with the fully-concrete program.
    let (r, _) = monadic::exec_fn(
        &out.wa,
        "twice",
        &[ir::value::Value::nat(20u64)],
        ir::state::State::conc_empty(),
        100_000,
    )
    .unwrap();
    assert_eq!(
        r,
        monadic::MonadResult::Normal(ir::value::Value::nat(42u64))
    );
}

#[test]
fn concrete_fns_and_word_abs_compose() {
    let out = translate(
        SRC,
        &Options {
            concrete_fns: names(&["poke"]),
            word_abstract_fns: Some(names(&["add1", "twice"])),
            ..Options::default()
        },
    )
    .unwrap();
    out.check_all().unwrap();
    // poke is untouched from L2 onward.
    assert_eq!(
        out.wa.function("poke").unwrap().body,
        out.l2.function("poke").unwrap().body
    );
    assert_eq!(out.thms.hl.len(), 2);
    assert_eq!(out.thms.wa.len(), 2);
}

#[test]
fn seeds_are_deterministic() {
    let a = translate(SRC, &Options { seed: 7, ..Options::default() }).unwrap();
    let b = translate(SRC, &Options { seed: 7, ..Options::default() }).unwrap();
    for f in ["add1", "twice", "poke"] {
        assert_eq!(
            a.wa.function(f).unwrap().body,
            b.wa.function(f).unwrap().body,
            "{f}"
        );
    }
}

#[test]
fn trial_budget_is_respected_in_theorems() {
    let out = translate(
        SRC,
        &Options {
            l2_trials: 7,
            ..Options::default()
        },
    )
    .unwrap();
    // Every L2 theorem records the requested differential-testing budget.
    for (name, thm) in &out.thms.l2 {
        let dbg = format!("{thm:?}");
        assert!(dbg.contains("Tested"), "{name} should be exec-tested: {dbg}");
    }
}

#[test]
fn caller_adaptation_runs_the_trial_budget() {
    // The concrete caller of a word-abstracted callee is adapted, and its
    // adaptation is admitted after differential testing at the L2 budget.
    for trials in [3u32, 17] {
        let out = translate(
            SRC,
            &Options {
                concrete_fns: names(&["twice"]),
                l2_trials: trials,
                ..Options::default()
            },
        )
        .unwrap();
        out.check_all().unwrap();
        let (_, adapted) = out
            .thms
            .wa
            .iter()
            .find(|(n, _)| n == "twice")
            .expect("adaptation theorem for twice");
        assert_eq!(adapted.rule(), kernel::Rule::ExecTested);
        assert!(
            matches!(adapted.side(), kernel::Side::Tested { trials: t, .. } if *t == trials),
            "budget {trials}: {:?}",
            adapted.side()
        );
    }
}
