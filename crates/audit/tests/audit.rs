//! Tier-1 smoke of the audit harness: a small-budget mutation campaign must
//! kill every mutant, the disk-store attacks must stay sound, and the
//! differential oracle must decide pairs with zero layer disagreements.

use audit::{attack_theorems, forge, run_campaign, DiffConfig, Mutation, SIGNED_MIX_SRC};
use autocorres::{translate, Options, Session};
use codegen::{generate_mix, Mix, Profile};
use kernel::Rule;

#[test]
fn mutation_kill_rate_is_total_on_the_signed_mix() {
    let out = translate(SIGNED_MIX_SRC, &Options::default()).expect("translates");
    let matrix = attack_theorems(&out, 2);
    assert!(
        matrix.all_killed(),
        "survivors:\n{}",
        matrix.survivors.join("\n")
    );
    assert!(matrix.applied() > 0, "no mutants were applicable");
    // Every structural operator must actually fire somewhere: an operator
    // with zero applications would report a vacuous 100% kill rate.
    for kind in [
        Mutation::SwapRuleFamily,
        Mutation::PerturbJudgment,
        Mutation::DropPremise,
        Mutation::AddPremise,
        Mutation::CorruptSymbol,
    ] {
        assert!(
            matrix.applied_for(kind) > 0,
            "operator {kind} never applied"
        );
    }
}

#[test]
fn mutation_kill_rate_is_total_on_custom_rule_evidence() {
    let opts = Options {
        custom_word_rules: vec![wordabs::overflow_idiom_rule()],
        ..Options::default()
    };
    let out = translate(casestudies::sources::OVERFLOW_IDIOM, &opts).expect("translates");
    let matrix = attack_theorems(&out, 2);
    assert!(
        matrix.all_killed(),
        "survivors:\n{}",
        matrix.survivors.join("\n")
    );
    // The overflow idiom carries sampled evidence; zeroing it must be
    // applicable and killed.
    assert!(matrix.applied_for(Mutation::ZeroTestEvidence) > 0);
}

#[test]
fn mutation_kill_rate_is_total_on_a_generated_program() {
    let profile = Profile {
        name: "audit-test",
        loc: 80,
        functions: 5,
    };
    let src = generate_mix(&profile, &Mix::audit(), 0xA0D1_7E57);
    let out = translate(&src, &Options::default()).expect("generated source translates");
    let matrix = attack_theorems(&out, 1);
    assert!(
        matrix.all_killed(),
        "survivors:\n{}",
        matrix.survivors.join("\n")
    );
}

#[test]
fn a_session_rejects_a_forged_mutant_of_a_theorem_it_validated() {
    let sess = Session::new(Options::default());
    let mut out = sess.translate(SIGNED_MIX_SRC).expect("translates");
    sess.check_all_report(&out, 1)
        .expect("valid theorems check");
    // Each mutant keeps its theorem's premises, all validated by this
    // session, and claims the theorem's conclusion by another family's
    // rule: a node the session's replay cache has never validated.
    for i in 0..out.thms.wa.len() {
        let thm = out.thms.wa[i].1.clone();
        let mutant = forge(
            Rule::L1Skip,
            thm.premises().to_vec(),
            thm.judgment().clone(),
            thm.side().clone(),
        );
        out.thms.wa[i].1 = mutant;
        assert!(
            sess.check_all_report(&out, 1).is_err(),
            "mutant {i} accepted"
        );
        out.thms.wa[i].1 = thm;
    }
    assert!(!out.thms.wa.is_empty());
    sess.check_all_report(&out, 1)
        .expect("the valid theorems still check");
}

#[test]
fn differential_oracle_smoke_has_zero_disagreements() {
    let cfg = DiffConfig {
        programs: 2,
        trials: 3,
        ..DiffConfig::smoke()
    };
    let stats = run_campaign(&cfg);
    assert!(
        stats.disagreements.is_empty(),
        "disagreements:\n{}",
        stats.disagreements.join("\n")
    );
    assert!(stats.decided_pairs > 0, "oracle decided nothing");
}

#[test]
fn disk_store_corruption_never_changes_output_or_verdicts() {
    let report = audit::attack_disk_store(SIGNED_MIX_SRC, &Options::default(), 8, 0xD15C);
    assert_eq!(report.corruption.mutations, 8, "attack rounds did not all fire");
    assert!(report.corruption.loads_degraded > 0, "no corruption was ever visible");
    assert!(
        report.corruption.output_stable,
        "on-disk corruption changed output bytes"
    );
    assert!(
        report.corruption.verdicts_stable,
        "on-disk corruption flipped a verdict"
    );
    assert_eq!(
        report.forged_phases,
        ["l1", "l2thm", "hl", "wa"],
        "a theorem-bearing phase had no forged record"
    );
    assert!(
        report.forged_loaded,
        "a forged record was rejected or recomputed"
    );
    assert!(
        report.forged_rejected,
        "a warm check accepted a forged theorem"
    );
}

proptest::proptest! {
    /// Randomized persistence fuzz: under any seed, bit-flipping a
    /// record of the store's segment, truncating it (header included),
    /// appending garbage to it, or deleting it must only ever cost
    /// recomputation — never different output bytes, never a flipped
    /// verdict.
    #[test]
    fn disk_store_fuzz_is_sound_under_any_seed(seed in 0u64..1u64 << 32) {
        let opts = Options {
            l2_trials: 2,
            workers: 1,
            ..Options::default()
        };
        let report = audit::corrupt_disk_store(SIGNED_MIX_SRC, &opts, 2, seed);
        proptest::prop_assert!(report.output_stable, "seed={seed}: output changed");
        proptest::prop_assert!(report.verdicts_stable, "seed={seed}: verdict flipped");
    }
}
