//! Soundness audit subsystem (DESIGN.md §6c).
//!
//! The pipeline's trust story has two halves, and this crate attacks both:
//!
//! 1. **Fault injection** ([`mutate`]): write lying derivations with the
//!    kernel's node-table writer and read them through the disk store's
//!    node-table reader, the one unvalidated way production builds a
//!    theorem, plant them in the store's segment file through the store's
//!    record codec, and assert the independent checker kills every mutant
//!    — 100%, reported as a kill matrix per mutation kind × pipeline
//!    phase. No build carries an audit-only constructor or store hook,
//!    and the audit has no copy of either format.
//! 2. **Differential execution** ([`differential`]): run generated
//!    programs through all five executable layers (Simpl, L1, L2, HL, WA)
//!    on shared inputs and require agreement, covering the
//!    randomized-evidence steps (`ExecTested`, `WCustomSampled`) that
//!    fault injection deliberately leaves to execution.
//! 3. **Discharge differential** ([`discharge`]): every guard the
//!    abstract-interpretation phase proved statically is re-posed to the
//!    independent decision procedures — a disagreement means the interval
//!    engine (shared by analysis and kernel replay) is unsound.
//!
//! Driven by `cargo test -p audit` (small budgets) and the `audit` binary
//! (`scripts/tier1.sh --audit` for the full campaign).

pub mod differential;
pub mod discharge;
pub mod layers;
pub mod mutate;

pub use differential::{check_layers, diff_output, run_campaign, DiffConfig, DiffStats};
pub use discharge::{
    check_discharges, run_discharge_campaign, DischargeConfig, DischargeStats,
};
pub use layers::{first_divergence, run_all, Divergence, LayerRun};
pub use mutate::{
    attack_disk_store, attack_theorems, corrupt_disk_store, forge, CorruptionReport,
    DiskAttackReport, KillMatrix, Mutation, MUTATIONS,
};

/// Handcrafted audit source: signed arithmetic (SDiv/SNeg guards), struct
/// access, a loop, and a call — exercises rule families the generator's
/// unsigned-heavy mix hits less often.
pub const SIGNED_MIX_SRC: &str = "\
struct obj { struct obj *next; unsigned state; unsigned refcount; int prio; };\n\
int signed_mix(int a, int b) {\n\
    int acc = a;\n\
    if (b != 0) acc = acc / b;\n\
    acc = acc - b * 2;\n\
    if (acc < 0) acc = -acc;\n\
    return acc;\n\
}\n\
unsigned loopy(unsigned n, struct obj *p) {\n\
    unsigned i = 0u;\n\
    unsigned acc = 0u;\n\
    while (i < n % 9u) {\n\
        acc = acc + i;\n\
        i = i + 1u;\n\
        if (p != NULL) p->state = acc;\n\
    }\n\
    return acc;\n\
}\n\
unsigned call_chain(unsigned x) {\n\
    return loopy(x, NULL) + 1u;\n\
}\n";
