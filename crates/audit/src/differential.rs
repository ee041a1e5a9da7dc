//! Cross-layer differential oracle.
//!
//! Runs every function of a generated program through all five executable
//! layers — the Simpl interpreter, the L1 and L2 monadic interpreters
//! (byte-heap states), HL (typed split heaps), and WA (ideal arithmetic) —
//! on shared random initial states and arguments, and diffs adjacent
//! layers. Any unsound-but-proof-accepted translation shows up as an
//! execution disagreement here, independently of the proof checker.
//!
//! Comparison discipline per adjacent pair (the abstract side first):
//!
//! * **Simpl ↔ L1** is an *exact* correspondence: identical outcomes,
//!   return values, and final memory + globals (locals are excluded —
//!   the Simpl interpreter leaves the callee frame in the final state by
//!   design, the monadic interpreters restore the caller's).
//! * **L1 ↔ L2**, **L2 ↔ HL**, **HL ↔ WA** are *refinements*: when the
//!   abstract run succeeds, the concrete run must succeed with the related
//!   value and state; when the abstract run faults, nothing is claimed
//!   (the pair is undecided for that trial).
//! * Across the HL boundary, concrete final states are compared through
//!   [`heapmodel::lift_state`]; across WA, return values are compared
//!   through the function's [`kernel::AbsFun`].
//! * `Stuck`/`UnknownFunction` anywhere is always a disagreement (a
//!   translation produced an ill-formed program); running out of fuel
//!   anywhere skips the trial.

use autocorres::testing::{gen_state, heap_types_of, random_arg};
use autocorres::{translate, Options, Output};
use codegen::{generate_mix, Mix, Profile};
use ir::ty::Ty;
use ir::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{first_divergence, pair_checks, run_all, Divergence, LayerRun, LAYER_NAMES};

/// Objects allocated per heap type in each generated initial state.
const HEAP_OBJS: usize = 4;

/// Configuration of a differential campaign.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Number of generated programs.
    pub programs: u32,
    /// Functions per generated program.
    pub functions: usize,
    /// Approximate lines per generated program.
    pub loc: usize,
    /// Shared-input trials per function.
    pub trials: u32,
    /// Base RNG seed (program `i` uses `seed + i`).
    pub seed: u64,
    /// Worker counts to translate and diff at (≥ 2 for the audit claim).
    pub workers: Vec<usize>,
    /// Pipeline `l2_trials` (kept small: the oracle supplies the coverage).
    pub l2_trials: u32,
}

impl DiffConfig {
    /// Small smoke campaign (test-suite sized).
    #[must_use]
    pub fn smoke() -> DiffConfig {
        DiffConfig {
            programs: 6,
            functions: 6,
            loc: 90,
            trials: 4,
            seed: 0xD1FF,
            workers: vec![1, 4],
            l2_trials: 4,
        }
    }

    /// Full campaign: the ISSUE-5 acceptance bar (≥ 200 programs at two
    /// worker counts).
    #[must_use]
    pub fn full() -> DiffConfig {
        DiffConfig {
            programs: 200,
            functions: 8,
            loc: 120,
            trials: 6,
            seed: 0xD1FF,
            workers: vec![1, 4],
            l2_trials: 4,
        }
    }
}

/// Campaign results.
#[derive(Clone, Debug, Default)]
pub struct DiffStats {
    /// Programs translated and diffed (counted once per worker count).
    pub programs: u64,
    /// Function runs diffed.
    pub functions: u64,
    /// Shared-input trials executed.
    pub trials: u64,
    /// Adjacent-layer comparisons decided (abstract side succeeded).
    pub decided_pairs: u64,
    /// Trials skipped because some layer ran out of fuel.
    pub skipped_fuel: u64,
    /// Layer disagreements (must stay empty). Messages carry the program
    /// seed so `codegen::generate_mix` regenerates the offending source.
    pub disagreements: Vec<String>,
}

impl DiffStats {
    fn merge(&mut self, other: &DiffStats) {
        self.programs += other.programs;
        self.functions += other.functions;
        self.trials += other.trials;
        self.decided_pairs += other.decided_pairs;
        self.skipped_fuel += other.skipped_fuel;
        self.disagreements.extend(other.disagreements.iter().cloned());
    }
}

/// Runs a differential campaign: generates `cfg.programs` programs with
/// the audit shape mix, translates each at every configured worker count,
/// and diffs all five layers on shared inputs.
#[must_use]
pub fn run_campaign(cfg: &DiffConfig) -> DiffStats {
    let mut stats = DiffStats::default();
    let profile = Profile {
        name: "audit",
        loc: cfg.loc,
        functions: cfg.functions,
    };
    for i in 0..cfg.programs {
        let seed = cfg.seed.wrapping_add(u64::from(i));
        let src = generate_mix(&profile, &Mix::audit(), seed);
        let mut wa_prints = Vec::new();
        for &workers in &cfg.workers {
            let opts = Options {
                workers,
                l2_trials: cfg.l2_trials,
                seed,
                ..Options::default()
            };
            let out = match translate(&src, &opts) {
                Ok(out) => out,
                Err(e) => {
                    stats.disagreements.push(format!(
                        "program seed={seed} workers={workers}: pipeline error: {e}"
                    ));
                    continue;
                }
            };
            wa_prints.push(print_wa(&out));
            stats.merge(&diff_output(&out, seed, cfg.trials));
            stats.programs += 1;
        }
        // The determinism claim rides along: the final specs must be
        // byte-identical at every worker count.
        if wa_prints.windows(2).any(|w| w[0] != w[1]) {
            stats
                .disagreements
                .push(format!("program seed={seed}: WA output differs across worker counts"));
        }
    }
    stats
}

fn print_wa(out: &Output) -> String {
    let mut s = String::new();
    for f in out.wa.fns.values() {
        s.push_str(&f.to_string());
        s.push('\n');
    }
    s
}

/// Diffs every function of one pipeline output on `trials` shared inputs.
#[must_use]
pub fn diff_output(out: &Output, seed: u64, trials: u32) -> DiffStats {
    let mut stats = DiffStats::default();
    let tenv = &out.simpl.tenv;
    let heap_types = heap_types_of(tenv, &out.l1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA0D1_7000);
    for (name, simpl_f) in &out.simpl.fns {
        stats.functions += 1;
        for trial in 0..trials {
            stats.trials += 1;
            let conc0 = gen_state(&mut rng, tenv, &heap_types, HEAP_OBJS);
            let args: Vec<Value> = simpl_f
                .params
                .iter()
                .map(|(_, t)| random_arg(&mut rng, t, &heap_types, HEAP_OBJS))
                .collect();
            let at = |msg: String| format!("seed={seed} fn={name} trial={trial}: {msg}");

            let runs = match run_all(out, name, &args, &conc0, &heap_types) {
                Ok(runs) => runs,
                Err(e) => {
                    stats.disagreements.push(at(format!("layer setup failed: {e}")));
                    continue;
                }
            };
            if let Some(broken) = runs.iter().find_map(|r| match r {
                LayerRun::Broken(e) => Some(e.clone()),
                _ => None,
            }) {
                stats.disagreements.push(at(format!("layer broke: {broken}")));
                continue;
            }
            if runs.iter().any(|r| matches!(r, LayerRun::Fuel)) {
                stats.skipped_fuel += 1;
                continue;
            }

            // Simpl <-> L1 is exact; the three refinement pairs follow,
            // concrete side first (see `layers` for the relations).
            let checks = pair_checks(out, name, &runs, &heap_types);
            for (i, res) in checks.into_iter().enumerate() {
                let pair = format!("{}/{}", LAYER_NAMES[i], LAYER_NAMES[i + 1]);
                record(&mut stats, &at, &pair, res);
            }
        }
    }
    stats
}

/// Runs `name` through the five layers on `trials` shared random inputs
/// drawn from `seed`, and walks each run's layer pairs with
/// [`first_divergence`]. A trial in which some layer ran out of fuel
/// decides nothing; any other divergence is an error. Returns the number
/// of trials whose WA run ended normally.
///
/// # Errors
///
/// The first divergence, naming the function and the trial.
pub fn check_layers(
    out: &Output,
    name: &str,
    heap_types: &[Ty],
    trials: u32,
    seed: u64,
) -> Result<u32, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = &out
        .simpl
        .function(name)
        .ok_or_else(|| format!("unknown function {name}"))?
        .params;
    let mut normal = 0;
    for i in 0..trials {
        let conc0 = gen_state(&mut rng, &out.simpl.tenv, heap_types, HEAP_OBJS);
        let args: Vec<Value> = params
            .iter()
            .map(|(_, t)| random_arg(&mut rng, t, heap_types, HEAP_OBJS))
            .collect();
        let runs = run_all(out, name, &args, &conc0, heap_types)
            .map_err(|e| format!("{name} trial {i}: {e}"))?;
        match first_divergence(out, name, &runs, heap_types) {
            None => normal += u32::from(matches!(runs[4], LayerRun::Normal(..))),
            Some(Divergence::Fuel { .. }) => {}
            Some(d) => return Err(format!("{name} trial {i}: {d}")),
        }
    }
    Ok(normal)
}

/// Folds one pair-check result into the campaign stats.
fn record(
    stats: &mut DiffStats,
    at: &dyn Fn(String) -> String,
    pair: &str,
    res: Result<bool, String>,
) {
    match res {
        Ok(true) => stats.decided_pairs += 1,
        Ok(false) => {}
        Err(msg) => stats.disagreements.push(at(format!("{pair}: {msg}"))),
    }
}
