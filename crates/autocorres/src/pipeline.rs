//! The pipeline driver: C source → abstracted specification + theorems.
//!
//! The phase logic itself lives in [`crate::phase`]: L1, L2, HL, WA and
//! caller adaptation are uniform [`crate::phase::Phase`] nodes in a
//! per-function dependency graph executed by the generic
//! [`ir::sched::run_dag`] scheduler. This module keeps the stable
//! surface — [`Options`], [`Output`], [`PhaseTheorems`], the one-shot
//! [`translate`]/[`translate_program`] entry points — and the
//! seed-derivation shared by every testing-validated rule. Incremental
//! re-translation (reusing unchanged per-function artifacts across runs)
//! is offered by [`crate::Session`].
//!
//! # Parallelism and determinism
//!
//! Within the graph, a function's jobs are independent of other
//! functions' jobs except behind the whole-program barriers (L2 theorems,
//! WA and caller adaptation read complete contexts). [`Options::workers`]
//! asks for a pool width; [`ir::sched::plan_workers`] grants at most the
//! host CPU count (and `1` when the estimated work would not amortize a
//! pool), and the granted width drives a work-stealing scheduler over the
//! whole phase graph, one node per `(phase, function)` (see
//! [`crate::phase`]). `0`/`1` runs everything inline on the calling
//! thread. All schedules execute the *same* per-function jobs with
//! per-function RNG streams derived by [`derive_seed`] from
//! `(seed, fn_name)`, and results are collected in fixed name/source order
//! — so for a fixed seed the output (specs, theorem statements, guards,
//! metrics) is byte-identical at any worker count, cached or not. The
//! determinism test suite asserts this.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ir::codec::{fnv1a, splitmix64, FNV_BASIS};
use ir::diag::Diag;
use ir::metrics::SpecMetrics;
use kernel::{CheckCtx, ReplayReport, Thm};
use monadic::ProgramCtx;
use simpl::SimplProgram;

use crate::stats::PipelineStats;

/// Driver options (per-function selections, Sec 3.2 / 4.6).
#[derive(Clone, Default)]
pub struct Options {
    /// Functions to keep at the byte-heap level (callable via
    /// `exec_concrete`).
    pub concrete_fns: BTreeSet<String>,
    /// Functions to word-abstract (`None` = all heap-abstracted functions).
    pub word_abstract_fns: Option<BTreeSet<String>>,
    /// Additional word-abstraction idiom rules (Sec 3.3).
    pub custom_word_rules: Vec<wordabs::CustomRule>,
    /// Differential-test budget for the L2 theorems.
    pub l2_trials: u32,
    /// RNG seed for the testing-validated rules.
    pub seed: u64,
    /// Worker threads for the per-function phases and theorem replay
    /// (`0` or `1` = run inline, on one big-stack thread). This is a
    /// *request*: [`ir::sched::plan_workers`] may grant fewer —
    /// never more than the host has CPUs, and `1` when the estimated
    /// work is too small to amortize a pool. Output is byte-identical at
    /// every worker count, requested or granted.
    pub workers: usize,
    /// Bypass the adaptive sizing policy and run the pool at exactly
    /// `workers` threads, even on a single-CPU host (where the policy
    /// would otherwise always run inline). For tests and benches that
    /// must exercise the parallel machinery — including deliberate
    /// oversubscription; never needed in normal use. Like `workers`,
    /// never affects output bytes.
    pub force_pool: bool,
    /// Disk-backed warm start: a directory (created on demand) where a
    /// [`crate::Session`] persists its artifact store so a *fresh process*
    /// can reuse it (DESIGN.md §6g); the replay cache is never persisted.
    /// `None` disables persistence. Not part of [`crate::options_digest`]: where the cache
    /// lives cannot affect what is computed.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Disables the abstract-interpretation phase (guard discharge and
    /// lints). The phase never changes specs or refinement theorems, so
    /// this is purely an escape hatch: translation output is byte-identical
    /// either way, only the discharge report and lint set become empty.
    pub no_absint: bool,
}

impl fmt::Debug for Options {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Options")
            .field("concrete_fns", &self.concrete_fns)
            .field("word_abstract_fns", &self.word_abstract_fns)
            .field("custom_word_rules", &self.custom_word_rules.len())
            .field("l2_trials", &self.l2_trials)
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("force_pool", &self.force_pool)
            .field("cache_dir", &self.cache_dir)
            .field("no_absint", &self.no_absint)
            .finish()
    }
}

/// Derives the RNG seed of one function's testing-validated rules from the
/// pipeline seed and the function name (FNV-1a over the name, mixed with a
/// SplitMix64 finalizer). Every phase uses this — sequential and parallel
/// runs therefore draw identical per-function streams regardless of the
/// order functions are processed in, which keeps `ExecTested` theorem
/// statements (which record their seed) byte-identical across schedules.
#[must_use]
pub fn derive_seed(seed: u64, fn_name: &str) -> u64 {
    let h = fnv1a(fn_name.as_bytes(), FNV_BASIS);
    splitmix64(seed ^ h.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Per-function theorems for every verified phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTheorems {
    /// `l1corres` theorems (monadic ↦ Simpl).
    pub l1: Vec<(String, Thm)>,
    /// L2 `refines` theorems.
    pub l2: Vec<(String, Thm)>,
    /// `abs_h_stmt` theorems (absent for concrete-kept functions).
    pub hl: Vec<(String, Thm)>,
    /// `abs_w_stmt` theorems (absent for non-selected functions).
    pub wa: Vec<(String, Thm)>,
}

impl PhaseTheorems {
    /// All theorems with their phase tag and function name, in phase order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &str, &Thm)> {
        fn tag<'a>(
            phase: &'static str,
            v: &'a [(String, Thm)],
        ) -> impl Iterator<Item = (&'static str, &'a str, &'a Thm)> {
            v.iter().map(move |(n, t)| (phase, n.as_str(), t))
        }
        tag("l1", &self.l1)
            .chain(tag("l2", &self.l2))
            .chain(tag("hl", &self.hl))
            .chain(tag("wa", &self.wa))
    }

    /// Total theorem count across all phases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.l1.len() + self.l2.len() + self.hl.len() + self.wa.len()
    }

    /// Is there no theorem at all?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The full pipeline output.
#[derive(Clone, Debug)]
pub struct Output {
    /// The typed C program.
    pub typed: cparser::TProgram,
    /// The parser output (Simpl), read back from the L1 artifacts: the
    /// program the `l1corres` theorems state.
    pub simpl: SimplProgram,
    /// L1: monadic with state-stored locals.
    pub l1: ProgramCtx,
    /// L2: lambda-bound locals, structured control flow.
    pub l2: ProgramCtx,
    /// HL: typed split heaps.
    pub hl: ProgramCtx,
    /// WA: ideal arithmetic — the final AutoCorres output.
    pub wa: ProgramCtx,
    /// Theorems per phase.
    pub thms: PhaseTheorems,
    /// Per-function abstract-interpretation results: guard verdicts (with
    /// one `absint_discharge` theorem per statically proved guard) and
    /// lints. Empty reports with [`Options::no_absint`]. Kept apart from
    /// [`Output::thms`]: discharge theorems certify guard validity, not
    /// translation correctness, and are replayed by
    /// [`Output::check_absint`].
    pub absint: BTreeMap<String, crate::phase::AbsintFn>,
    /// The kernel context (with the abstracted-function signature table),
    /// for replaying the theorems through the checker.
    pub check_ctx: CheckCtx,
    /// Per-phase timings, theorem/proof-tree counts, worker utilization,
    /// cache hit counters.
    pub stats: PipelineStats,
}

impl Output {
    /// Table 5 metrics of the parser output (sum over functions).
    #[must_use]
    pub fn parser_metrics(&self) -> SpecMetrics {
        SpecMetrics::combine(self.simpl.fns.values().map(simpl::SimplFn::metrics))
    }

    /// Table 5 metrics of the final AutoCorres output.
    #[must_use]
    pub fn output_metrics(&self) -> SpecMetrics {
        SpecMetrics::combine(self.wa.fns.values().map(monadic::MonadicFn::metrics))
    }

    /// Replays the refinement theorems ([`Output::thms`]: L1, L2, HL and
    /// WA) through the independent checker, using the worker count the
    /// pipeline was configured with. The absint discharge theorems are
    /// replayed by [`Output::check_absint`].
    ///
    /// # Errors
    ///
    /// Returns the first failing rule application (in theorem order).
    pub fn check_all(&self) -> Result<(), kernel::KernelError> {
        self.check_all_report(self.stats.workers)
            .map(|_| ())
            .map_err(|(_, e)| e)
    }

    /// Replays the refinement theorems across `workers` threads, reporting
    /// replay occupancy ([`kernel::check_all`]).
    ///
    /// # Errors
    ///
    /// Returns the failing function name and kernel error, first in
    /// theorem order regardless of scheduling.
    pub fn check_all_report(
        &self,
        workers: usize,
    ) -> Result<ReplayReport, (String, kernel::KernelError)> {
        kernel::check_all(
            self.thms.iter().map(|(_, n, t)| (n, t)),
            &self.check_ctx,
            workers,
        )
    }

    /// Total number of kernel rule applications across all theorems.
    #[must_use]
    pub fn total_proof_size(&self) -> usize {
        self.thms.iter().map(|(_, _, t)| t.proof_size()).sum()
    }

    /// Replays every `absint_discharge` theorem through the independent
    /// checker — the kernel re-runs each theorem's interval side
    /// condition, so a bug in the analyzer's fixpoint cannot silently
    /// discharge an invalid guard.
    ///
    /// # Errors
    ///
    /// Returns the first failing rule application (in function order).
    pub fn check_absint(&self) -> Result<(), kernel::KernelError> {
        kernel::check_all(
            self.absint.iter().flat_map(|(name, a)| {
                a.thms.iter().map(move |(_, t)| (name.as_str(), t))
            }),
            &self.check_ctx,
            self.stats.workers,
        )
        .map(|_| ())
        .map_err(|(_, e)| e)
    }

    /// The abstract-interpretation findings as diagnostics: the AST-level
    /// lints (dead stores, unreachable code, use-before-init) with their
    /// source spans, plus one `definite-overflow` lint per guard proved
    /// *false* — a fault on a reachable path, anchored at the function's
    /// main VC span like a solver refutation would be. Sorted by function
    /// name, then span offset.
    #[must_use]
    pub fn lint_diags(&self) -> Vec<Diag> {
        let mut out = Vec::new();
        for (name, a) in &self.absint {
            let mut fn_diags: Vec<Diag> = Vec::new();
            for l in &a.report.lints {
                fn_diags.push(
                    Diag::new(
                        ir::diag::Phase::Absint,
                        ir::diag::DiagKind::Lint,
                        format!("{}: {}", l.kind.name(), l.message),
                    )
                    .with_function(name)
                    .with_span(l.span),
                );
            }
            let main = self.fn_spans(name).map(|(m, _)| m);
            for g in &a.report.guards {
                if g.verdict == absint::Verdict::ProvedFalse {
                    let mut d = Diag::new(
                        ir::diag::Phase::Absint,
                        ir::diag::DiagKind::Lint,
                        format!(
                            "definite-overflow: guard {} is provably false on a \
                             reachable path: {}",
                            g.kind, g.guard
                        ),
                    )
                    .with_function(name);
                    if let Some(sp) = main {
                        d = d.with_span(sp);
                    }
                    fn_diags.push(d);
                }
            }
            fn_diags.sort_by_key(|d| d.span.map_or(0, |s| s.offset));
            out.extend(fn_diags);
        }
        out
    }

    /// Source spans backing the verification conditions of `name`: the
    /// function-header span plus one span per loop in *WP traversal
    /// order* — the order the VCG consumes loop annotations in. WP works
    /// continuation-first, so at each nesting level statements are
    /// visited in reverse order, a loop is visited before the loops of
    /// its own body, `if` visits the then-branch before the else-branch,
    /// and a `do`/`while` body contributes its loops twice (the lowering
    /// unrolls the first iteration in front of the loop).
    /// The main VC's postcondition is checked at function exit, so its
    /// span is the last `return` statement (statement-level, not the
    /// header); functions without a `return` fall back to the header.
    #[must_use]
    pub fn fn_spans(&self, name: &str) -> Option<(ir::diag::Span, Vec<ir::diag::Span>)> {
        let f = self.typed.function(name)?;
        let mut loops = Vec::new();
        collect_loop_spans(&f.body, &mut loops);
        let mut last_return = None;
        cparser::walk(&f.body, &mut |n| {
            if let cparser::Node::Stmt(cparser::TStmt::Return(_, span)) = n {
                last_return = Some(*span);
            }
            matches!(n, cparser::Node::Stmt(_))
        });
        Some((last_return.unwrap_or(f.span), loops))
    }
}

/// Collects loop-keyword spans in WP traversal order (see
/// [`Output::fn_spans`]).
fn collect_loop_spans(stmts: &[cparser::TStmt], out: &mut Vec<ir::diag::Span>) {
    use cparser::TStmt;
    for s in stmts.iter().rev() {
        match s {
            TStmt::While { body, span, .. } => {
                out.push(*span);
                collect_loop_spans(body, out);
            }
            TStmt::DoWhile { body, span, .. } => {
                out.push(*span);
                // The loop's own body, then the unrolled first iteration.
                collect_loop_spans(body, out);
                collect_loop_spans(body, out);
            }
            TStmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_loop_spans(then_branch, out);
                collect_loop_spans(else_branch, out);
            }
            TStmt::Block(b) => collect_loop_spans(b, out),
            _ => {}
        }
    }
}

/// Translates C source text through the full pipeline.
///
/// # Errors
///
/// Returns the first failing phase's [`Diag`].
pub fn translate(src: &str, opts: &Options) -> Result<Output, Diag> {
    let typed = cparser::parse_and_check(src)?;
    translate_program(&typed, opts)
}

/// Translates an already-typechecked program through the full pipeline,
/// scheduling the per-function phase work across [`Options::workers`]
/// threads (see the module docs for the determinism guarantee).
///
/// # Errors
///
/// As for [`translate`]. With multiple workers, errors of a phase are
/// reported for the first failing function in that phase's fixed order,
/// independent of thread interleaving.
pub fn translate_program(typed: &cparser::TProgram, opts: &Options) -> Result<Output, Diag> {
    crate::phase::run_pipeline(typed, opts, &crate::phase::ArtifactStore::new())
}
