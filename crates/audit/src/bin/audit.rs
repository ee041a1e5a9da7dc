//! Audit driver: prints the mutation-kill matrix, the disk-store attack
//! verdicts, and differential-fuzz throughput.
//!
//! `audit` (or `audit --smoke`) runs the small-budget smoke used by
//! `scripts/tier1.sh`; `audit --full` runs the ISSUE-5 acceptance
//! campaign (≥ 200 generated programs at two worker counts).

use std::process::ExitCode;
use std::time::Instant;

use audit::{attack_disk_store, attack_theorems, DiffConfig, KillMatrix, SIGNED_MIX_SRC};
use autocorres::{translate, Options};
use codegen::{generate_mix, Mix, Profile};

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let mode = if full { "full" } else { "smoke" };
    println!("== soundness audit ({mode}) ==");

    let mut ok = true;
    ok &= mutation_kill(full);
    ok &= store_attacks(full);
    ok &= differential(full);
    ok &= discharge_differential(full);

    if ok {
        println!("\naudit: PASS");
        ExitCode::SUCCESS
    } else {
        println!("\naudit: FAIL");
        ExitCode::FAILURE
    }
}

/// Sources whose theorems get mutated: the handcrafted signed/struct/loop
/// mix, the custom-rule overflow idiom (for `WCustomSampled` evidence),
/// and generated audit-mix programs.
fn mutation_sources(full: bool) -> Vec<(String, Options)> {
    let mut srcs = vec![
        (SIGNED_MIX_SRC.to_string(), Options::default()),
        (
            casestudies::sources::OVERFLOW_IDIOM.to_string(),
            Options {
                custom_word_rules: vec![wordabs::overflow_idiom_rule()],
                ..Options::default()
            },
        ),
    ];
    let programs = if full { 4 } else { 1 };
    for seed in 0..programs {
        let profile = Profile {
            name: "audit",
            loc: 90,
            functions: 6,
        };
        srcs.push((
            generate_mix(&profile, &Mix::audit(), 0xBAD_5EED + seed),
            Options::default(),
        ));
    }
    srcs
}

fn mutation_kill(full: bool) -> bool {
    let budget = if full { 6 } else { 2 };
    let start = Instant::now();
    let mut matrix = KillMatrix::default();
    for (src, opts) in mutation_sources(full) {
        let out = translate(&src, &opts).expect("audit source translates");
        matrix.merge(&attack_theorems(&out, budget));
    }
    println!("\n-- mutation kill matrix (killed/applied) --");
    print!("{}", matrix.render());
    println!("mutation time: {:.1}s", start.elapsed().as_secs_f64());
    for s in &matrix.survivors {
        println!("SURVIVOR: {s}");
    }
    matrix.all_killed()
}

fn store_attacks(full: bool) -> bool {
    println!("\n-- store corruption --");
    // Randomized corruption of persisted entries may only cost
    // recomputation, and a forged theorem planted in the segment must be
    // rejected by a fresh session's check (DESIGN.md §6g).
    let rounds = if full { 48 } else { 12 };
    let disk = attack_disk_store(SIGNED_MIX_SRC, &Options::default(), rounds, 0xD15C);
    let c = &disk.corruption;
    println!(
        "disk store: {} mutations ({} degraded loads); output stable: {}; verdicts stable: {}",
        c.mutations, c.loads_degraded, c.output_stable, c.verdicts_stable
    );
    println!(
        "disk store: forged theorems in {} records loaded warm: {}; rejected by a fresh session's check: {}",
        disk.forged_phases.join("/"),
        disk.forged_loaded,
        disk.forged_rejected
    );
    disk.sound()
}

fn differential(full: bool) -> bool {
    let cfg = if full { DiffConfig::full() } else { DiffConfig::smoke() };
    println!(
        "\n-- cross-layer differential oracle ({} programs × workers {:?}) --",
        cfg.programs, cfg.workers
    );
    let start = Instant::now();
    let stats = audit::run_campaign(&cfg);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "programs: {}  functions: {}  trials: {}  decided pairs: {}  fuel-skips: {}",
        stats.programs, stats.functions, stats.trials, stats.decided_pairs, stats.skipped_fuel
    );
    println!(
        "throughput: {:.1} programs/sec ({secs:.1}s total)",
        stats.programs as f64 / secs.max(1e-9)
    );
    for d in stats.disagreements.iter().take(10) {
        println!("DISAGREEMENT: {d}");
    }
    stats.disagreements.is_empty() && stats.decided_pairs > 0
}

fn discharge_differential(full: bool) -> bool {
    let cfg = if full {
        audit::DischargeConfig::full()
    } else {
        audit::DischargeConfig::smoke()
    };
    println!(
        "\n-- discharge-vs-solver differential ({} programs) --",
        cfg.programs
    );
    let start = Instant::now();
    let stats = audit::run_discharge_campaign(&cfg);
    println!(
        "programs: {}  guards: {}  discharged: {}  refuted: {}  solver-unknown: {}  ({:.1}s)",
        stats.programs,
        stats.guards,
        stats.discharged,
        stats.refuted,
        stats.solver_unknown,
        start.elapsed().as_secs_f64()
    );
    for d in stats.disagreements.iter().take(10) {
        println!("DISAGREEMENT: {d}");
    }
    stats.disagreements.is_empty() && stats.discharged > 0
}
