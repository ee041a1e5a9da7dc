//! The phase graph: L1, L2, HL, and WA as uniform nodes.
//!
//! The pipeline's phases are one closed enum, [`Phase`], whose methods
//! state each phase's facts once: its name, its dependencies (the same
//! function's node of a phase, or every node of a phase through its
//! barrier), its diagnostic stage, a content digest of everything its
//! per-function job consumes, and the job itself. The driver
//! ([`run_phases`]) expands [`PHASES`] into one node per `(phase,
//! function)` pair plus one barrier node per phase, wires the edges from
//! [`Phase::deps`], and hands the whole graph to the generic
//! [`ir::sched::run_dag`] work-stealing scheduler. There is no barrier
//! between phases unless a phase declares one: a function's HL node runs
//! the moment its own L2 node finishes, even while other functions are
//! still in L1. Every dependency is an earlier phase and no phase waits on
//! a callee's node, so the graph is acyclic and recursion needs no special
//! case. No phase owns its own scheduling code: adding a phase means
//! adding a variant, and the compiler asks for its facts.
//!
//! Each node returns its start, duration and store outcome through
//! `run_dag`; the per-phase stats and cache counts are folds over those
//! records. Results land in per-`(phase, function)` slots and error
//! selection follows fixed per-phase orders, so output bytes are identical
//! at every worker count.
//!
//! # Content-addressed incremental recomputation
//!
//! Every node computes a 128-bit *input digest* before running: a
//! double-pass hash over the function's typed terms, the global
//! environment (layouts and globals), the normalized
//! driver options, and — for the exec-testing phases — the transitive
//! callee cone. The typed terms are hashed position-free
//! ([`cparser::TFunDef::hash_position_free`]: statement spans relative to
//! the function's header), so moving a function in the file changes no
//! digest. The [`ArtifactStore`] (owned by [`crate::Session`]) maps
//! `(phase, function, input_digest)` to the artifact produced last time;
//! a hit returns the cached artifact without re-running the job. Because
//! every job is a deterministic pure function of exactly the digested
//! inputs, a cache hit is byte-identical to a re-run — the incremental
//! test suite asserts this. The one artifact that holds spans, absint's
//! lint list, holds them header-relative too; `run_pipeline` anchors
//! them at the current header when it assembles the output.
//!
//! Soundness (DESIGN.md §7): artifacts store [`kernel::Thm`] values that
//! were constructed through the kernel on the original run; the cache can
//! skip *re-construction* and *re-replay* of an unchanged derivation, but
//! it can never mint a theorem — `Thm` has no public constructor.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ir::codec::digest128;
use ir::diag::{Diag, DiagKind};
use ir::sched::{plan_workers, run_dag, PoolStats};
use ir::ty::Ty;
use kernel::{CheckCtx, Thm};
use monadic::{MonadicFn, Prog, ProgramCtx};
use simpl::stmt::SimplProgram;

use crate::pipeline::{Options, Output, PhaseTheorems};
use crate::stats::{PhaseStat, PipelineStats};

/// A per-function phase result.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// L1 output: the monadic function plus its `l1corres` theorem.
    L1 {
        /// Translated function (locals in state).
        fun: MonadicFn,
        /// The `l1corres` theorem.
        thm: Thm,
    },
    /// L2 translation output (no theorem yet; see [`Artifact::L2Thm`]).
    L2Fn(MonadicFn),
    /// The L2 `refines` theorem (depends on the complete L1/L2 contexts).
    L2Thm(Thm),
    /// HL output; `thm` is `None` for concrete-kept functions.
    Hl {
        /// Heap-abstracted (or concrete-kept) function.
        fun: MonadicFn,
        /// The `abs_h_stmt` theorem, when abstracted.
        thm: Option<Thm>,
    },
    /// WA output; `thm` is `None` for non-selected functions.
    Wa {
        /// Word-abstracted (or passed-through) function.
        fun: MonadicFn,
        /// The `abs_w_stmt` theorem, when selected.
        thm: Option<Thm>,
    },
    /// Caller adaptation; `None` when the function needed no rewriting.
    Adapt(Option<AdaptedFn>),
    /// Abstract-interpretation result: the guard/lint report plus the
    /// discharge theorems. Empty when `--no-absint` disabled the phase.
    Absint(AbsintFn),
}

impl Artifact {
    /// The function an `L1`, `L2Fn`, `Hl` or `Wa` artifact holds.
    #[must_use]
    pub fn fun(&self) -> Option<&MonadicFn> {
        match self {
            Artifact::L1 { fun, .. }
            | Artifact::L2Fn(fun)
            | Artifact::Hl { fun, .. }
            | Artifact::Wa { fun, .. } => Some(fun),
            Artifact::L2Thm(_) | Artifact::Adapt(_) | Artifact::Absint(_) => None,
        }
    }

    /// The theorems the artifact holds: its refinement theorem, if any, or
    /// absint's discharge theorems in guard order.
    #[must_use]
    pub fn theorems(&self) -> Vec<&Thm> {
        match self {
            Artifact::L1 { thm, .. } | Artifact::L2Thm(thm) => vec![thm],
            Artifact::Hl { thm, .. } | Artifact::Wa { thm, .. } => thm.iter().collect(),
            Artifact::Adapt(a) => a.iter().map(|a| &a.thm).collect(),
            Artifact::L2Fn(_) => Vec::new(),
            Artifact::Absint(a) => a.thms.iter().map(|(_, t)| t).collect(),
        }
    }
}

/// The abstract-interpretation artifact for one function.
#[derive(Clone, Debug, Default)]
pub struct AbsintFn {
    /// Guard verdicts and lints from the flow-sensitive analysis. Lint
    /// spans are relative to the function's header span in a stored
    /// artifact ([`ir::diag::Span::relative_to`]) and absolute in
    /// [`Output::absint`].
    pub report: absint::FnAbsint,
    /// One `absint_discharge` theorem per statically proved guard, keyed
    /// by the guard's index in `report.guards`. Kept separate from the
    /// refinement theorems: discharge theorems certify guard validity,
    /// not translation correctness.
    pub thms: Vec<(usize, Thm)>,
}

/// An adapted concrete caller: the rewritten body and its theorem.
#[derive(Clone, Debug)]
pub struct AdaptedFn {
    /// Body with call sites lifted/re-concretised.
    pub body: Prog,
    /// The adaptation's `ExecTested` refinement theorem.
    pub thm: Thm,
}

/// A stored phase result: the artifact plus the input digest it was
/// computed from (the store key's digest component, kept for debugging).
#[derive(Debug)]
pub struct PhaseArtifact {
    /// 128-bit content digest of the inputs that produced `value`.
    pub digest: u128,
    /// The result.
    pub value: Artifact,
}

/// A node failure: the diagnostic plus whether this node is the *root*
/// cause (`true`) or merely downstream of another failed node (`false`).
/// Error reporting picks the first root failure in phase order.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong.
    pub diag: Diag,
    /// Root cause (as opposed to inherited from a failed dependency)?
    pub root: bool,
}

impl From<Diag> for Failure {
    fn from(diag: Diag) -> Failure {
        Failure { diag, root: true }
    }
}

impl Failure {
    fn inherit(&self) -> Failure {
        Failure {
            diag: self.diag.clone(),
            root: false,
        }
    }
}

type NodeResult = Result<Arc<PhaseArtifact>, Failure>;

/// A pipeline phase: one node per function, scheduled generically. The
/// set is closed, so each fact about a phase is one `match` below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// C → Simpl → monadic with state-stored locals: the trusted literal
    /// translation of the function, then one kernel rule per Simpl
    /// construct (Table 1).
    L1,
    /// L1 → L2 translation (lambda-bound locals, structured control flow).
    L2,
    /// The L2 `refines` theorem (differential test against L1; executes
    /// calls, so it needs the complete L1/L2 contexts).
    L2Thm,
    /// Byte-level heap → typed split heaps (Sec 4).
    Hl,
    /// Machine words → ideal `nat`/`int` arithmetic (Sec 3). A job reads
    /// only the complete HL context and the signature table
    /// `wa_signatures` builds behind the HL barrier, so the functions run
    /// in any order.
    Wa,
    /// Caller adaptation (Sec 4.6's value direction): rewrite
    /// non-abstracted callers of abstracted callees and exec-test each
    /// rewritten function against the final context.
    Adapt,
    /// Abstract interpretation over the final (adapted) bodies: wrapping
    /// intervals, nullness/validity, and reachability, feeding guard
    /// discharge (one `absint_discharge` theorem per proved guard) and the
    /// source-level lint passes. Purely observational — it never rewrites
    /// a body or a spec, so disabling it cannot change translation output.
    Absint,
}

/// The phase list, in pipeline order (the enum's declaration order, so
/// `phase as usize` is its index). Order matters only for error reporting
/// (first failing phase wins) and stats display; scheduling is purely
/// dependency-driven.
pub const PHASES: [Phase; 7] = [
    Phase::L1,
    Phase::L2,
    Phase::L2Thm,
    Phase::Hl,
    Phase::Wa,
    Phase::Adapt,
    Phase::Absint,
];

impl Phase {
    /// The phase's name: hashed into its input digests, written into its
    /// store records and shown in its stats row.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::L1 => "l1",
            Phase::L2 => "l2",
            Phase::L2Thm => "l2thm",
            Phase::Hl => "hl",
            Phase::Wa => "wa",
            Phase::Adapt => "adapt",
            Phase::Absint => "absint",
        }
    }

    /// The phase called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        PHASES.into_iter().find(|p| p.name() == name)
    }

    /// The phases a node of this phase waits for: the same function's
    /// node of each phase in the first list, and every function's node
    /// (the barrier) of each phase in the second. All are earlier phases.
    #[must_use]
    pub fn deps(self) -> (&'static [Phase], &'static [Phase]) {
        match self {
            Phase::L1 | Phase::L2 => (&[], &[]),
            Phase::L2Thm => (&[], &[Phase::L1, Phase::L2]),
            Phase::Hl => (&[Phase::L2], &[]),
            Phase::Wa => (&[], &[Phase::Hl]),
            Phase::Adapt => (&[], &[Phase::Wa]),
            Phase::Absint => (&[], &[Phase::Adapt]),
        }
    }

    /// The diagnostic stage a panic in this phase's job reports.
    #[must_use]
    pub fn stage(self) -> ir::diag::Phase {
        match self {
            Phase::L1 => ir::diag::Phase::L1,
            Phase::L2 | Phase::L2Thm => ir::diag::Phase::L2,
            Phase::Hl => ir::diag::Phase::Hl,
            Phase::Wa | Phase::Adapt => ir::diag::Phase::Wa,
            Phase::Absint => ir::diag::Phase::Absint,
        }
    }

    /// Content digest of everything the job consumes for function `f` —
    /// called after this node's dependencies completed, so it may read
    /// shared contexts. Propagates failures of the dependencies the digest
    /// covers.
    fn input_digest(self, cx: &PhaseCx<'_>, f: usize) -> Result<u128, Failure> {
        Ok(match self {
            Phase::L1 | Phase::L2 | Phase::Hl => cx.fn_scope_digest(self, f),
            Phase::L2Thm => cx.cone_scope_digest(self, f, cx.l2_shared()?.ht_digest),
            Phase::Wa => cx.cone_scope_digest(self, f, 0),
            Phase::Adapt => cx.cone_scope_digest(self, f, cx.adapt_shared()?.ht_digest),
            // The analysis reads the function's final body (callee kills
            // are name-only, so the own-function digest covers the
            // inputs), but adapted bodies depend on the callee cone — use
            // the cone digest like the other post-WA phases. `no_absint` is
            // hashed here, not in the options digest, so flipping it cannot
            // invalidate the translation phases' cache entries.
            Phase::Absint => {
                let extra = cx.adapt_shared()?.ht_digest ^ u128::from(cx.opts.no_absint);
                cx.cone_scope_digest(self, f, extra)
            }
        })
    }

    /// The job: function `f`'s artifact. A root `Failure` for genuine
    /// phase errors, an inherited one when a dependency already failed.
    fn run(self, cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
        match self {
            Phase::L1 => l1_job(cx, f),
            Phase::L2 => l2_job(cx, f),
            Phase::L2Thm => l2thm_job(cx, f),
            Phase::Hl => hl_job(cx, f),
            Phase::Wa => wa_job(cx, f),
            Phase::Adapt => adapt_job(cx, f),
            Phase::Absint => absint_job(cx, f),
        }
    }
}

// ---- digests ----------------------------------------------------------------

/// Digest of the normalized [`Options`]: the per-function selections (both
/// `BTreeSet`s iterate sorted, so insertion order cannot leak), the custom
/// word rules by identity, the *effective* L2 trial budget (`0` and the
/// default `80` hash equal), and the seed. `workers` and `cache_dir` are
/// deliberately excluded — neither the worker count nor where artifacts
/// are persisted ever affects output bytes. Custom word rules hash by
/// *pointer* identity, so they also (soundly) defeat cross-process
/// warm starts: a fresh process's rule `Arc`s never digest equal.
#[must_use]
pub fn options_digest(opts: &Options) -> u128 {
    digest128(|h| {
        for f in &opts.concrete_fns {
            f.hash(h);
        }
        0xffu8.hash(h);
        match &opts.word_abstract_fns {
            None => 0u8.hash(h),
            Some(s) => {
                1u8.hash(h);
                for f in s {
                    f.hash(h);
                }
            }
        }
        0xffu8.hash(h);
        opts.custom_word_rules.len().hash(h);
        for r in &opts.custom_word_rules {
            (Arc::as_ptr(r) as *const () as usize).hash(h);
        }
        effective_l2_trials(opts).hash(h);
        opts.seed.hash(h);
    })
}

/// The L2 differential-test budget with the `0 = default` normalization.
pub(crate) fn effective_l2_trials(opts: &Options) -> u32 {
    if opts.l2_trials == 0 {
        80
    } else {
        opts.l2_trials
    }
}

// ---- the shared per-run context ---------------------------------------------

/// Everything the phase jobs share: the inputs, the precomputed digests,
/// the per-node result slots, and the lazily-built cross-function contexts
/// of the barrier-dependent phases.
pub struct PhaseCx<'a> {
    /// The typed C program.
    typed: &'a cparser::TProgram,
    /// Its Simpl environment: struct layouts and initialised globals, no
    /// functions (each `l1` job translates its own function).
    env: SimplProgram,
    /// Driver options.
    opts: &'a Options,
    /// Base kernel context (struct layouts only).
    cx: CheckCtx,
    /// Function names, sorted — node index order for every phase.
    names: Vec<String>,
    /// For each name index, the index into `typed.functions`.
    typed_idx: Vec<usize>,
    /// Per-function term digest (the position-free typed def).
    fn_digests: Vec<u128>,
    /// Per-function transitive-callee cone digest (includes the function).
    cone_digests: Vec<u128>,
    /// Digest of layouts and globals.
    env_digest: u128,
    /// Digest of the normalized options.
    opts_digest: u128,
    slots: Vec<OnceLock<NodeResult>>,
    l2sh: OnceLock<Result<L2Shared, Failure>>,
    wash: OnceLock<Result<WaShared, Failure>>,
    adsh: OnceLock<Result<AdaptShared, Failure>>,
}

/// L2-theorem shared state: the complete L1/L2 contexts and the heap
/// types the differential tests generate states from.
struct L2Shared {
    l1ctx: ProgramCtx,
    l2ctx: ProgramCtx,
    heap_types: Vec<Ty>,
    /// Digest of `heap_types` — part of the L2-theorem input digest, since
    /// the generated test states depend on it.
    ht_digest: u128,
}

/// WA shared state: the complete HL context, resolved options, and the
/// kernel context extended with the abstracted signature table.
struct WaShared {
    hlctx: ProgramCtx,
    wa_opts: wordabs::WaOptions,
    check_ctx: CheckCtx,
}

/// Adaptation shared state: the final WA context (adapted bodies already
/// swapped in), the per-function plans, and the HL heap types the
/// adaptation tests use.
struct AdaptShared {
    wactx: ProgramCtx,
    plans: BTreeMap<String, Prog>,
    heap_types: Vec<Ty>,
    ht_digest: u128,
}

impl<'a> PhaseCx<'a> {
    /// Builds the shared context: the Simpl environment, sorted name
    /// order, the static call graph, and all per-function digests.
    ///
    /// # Errors
    ///
    /// A global initialiser the Simpl translation rejects.
    pub fn new(typed: &'a cparser::TProgram, opts: &'a Options) -> Result<Self, Diag> {
        let env = simpl::translate_env(typed)?;
        let mut typed_idx: Vec<usize> = (0..typed.functions.len()).collect();
        typed_idx.sort_by(|&a, &b| typed.functions[a].name.cmp(&typed.functions[b].name));
        let names: Vec<String> = typed_idx
            .iter()
            .map(|&t| typed.functions[t].name.clone())
            .collect();
        let name_idx: BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let callees: Vec<Vec<usize>> = typed_idx
            .iter()
            .map(|&t| {
                let mut out = Vec::new();
                typed.functions[t].each_call(|c| out.extend(name_idx.get(c)));
                out
            })
            .collect();
        let fn_digests: Vec<u128> = typed_idx
            .iter()
            .map(|&t| digest128(|h| typed.functions[t].hash_position_free(h)))
            .collect();
        let cone_digests: Vec<u128> = (0..names.len())
            .map(|i| {
                // BFS over transitive callees, cycle-tolerant; hash the
                // reached functions' digests in deterministic index order.
                let mut seen = BTreeSet::from([i]);
                let mut frontier = vec![i];
                while let Some(j) = frontier.pop() {
                    for &c in &callees[j] {
                        if seen.insert(c) {
                            frontier.push(c);
                        }
                    }
                }
                digest128(|h| {
                    for &j in &seen {
                        names[j].hash(h);
                        fn_digests[j].hash(h);
                    }
                })
            })
            .collect();
        // No signature table: a job reads its own signature through its
        // function digest, and a callee's through the call in its typed
        // AST and the cone digest, so adding a function dirties only it.
        let env_digest = digest128(|h| {
            env.tenv.hash(h);
            env.globals.hash(h);
            typed.globals.hash(h);
        });
        let n_slots = PHASES.len() * names.len();
        let mut slots = Vec::with_capacity(n_slots);
        slots.resize_with(n_slots, OnceLock::new);
        Ok(PhaseCx {
            typed,
            cx: CheckCtx {
                tenv: env.tenv.clone(),
                ..CheckCtx::default()
            },
            env,
            opts,
            names,
            typed_idx,
            fn_digests,
            cone_digests,
            env_digest,
            opts_digest: options_digest(opts),
            slots,
            l2sh: OnceLock::new(),
            wash: OnceLock::new(),
            adsh: OnceLock::new(),
        })
    }

    fn slot_id(&self, phase: Phase, f: usize) -> usize {
        phase as usize * self.names.len() + f
    }

    /// The finished artifact of `(phase, f)` — panics if scheduling let us
    /// read it before its node ran (a driver bug, not a user error).
    fn artifact(&self, phase: Phase, f: usize) -> Result<Arc<PhaseArtifact>, Failure> {
        match self.slots[self.slot_id(phase, f)]
            .get()
            .expect("dependency node finished")
        {
            Ok(a) => Ok(Arc::clone(a)),
            Err(e) => Err(e.inherit()),
        }
    }

    /// A plain per-function digest: the phase name, the function's own
    /// term, the environment, and the options.
    fn fn_scope_digest(&self, phase: Phase, f: usize) -> u128 {
        let fd = self.fn_digests[f];
        let (env, opts) = (self.env_digest, self.opts_digest);
        digest128(move |h| {
            phase.name().hash(h);
            fd.hash(h);
            env.hash(h);
            opts.hash(h);
        })
    }

    /// A cone digest for the exec-testing phases: like
    /// [`PhaseCx::fn_scope_digest`] but covering the transitive callee
    /// cone (tests execute calls) plus any phase-shared extra.
    fn cone_scope_digest(&self, phase: Phase, f: usize, extra: u128) -> u128 {
        let cd = self.cone_digests[f];
        let (env, opts) = (self.env_digest, self.opts_digest);
        digest128(move |h| {
            phase.name().hash(h);
            cd.hash(h);
            env.hash(h);
            opts.hash(h);
            extra.hash(h);
        })
    }

    /// The program as `phase` produced it: the Simpl environment plus
    /// every function's artifact [`Artifact::fun`].
    fn program_ctx(&self, phase: Phase) -> Result<ProgramCtx, Failure> {
        let mut ctx = ProgramCtx {
            tenv: self.env.tenv.clone(),
            globals: self.env.globals.clone(),
            ..ProgramCtx::default()
        };
        for (i, name) in self.names.iter().enumerate() {
            let artifact = self.artifact(phase, i)?;
            let fun = artifact.value.fun().expect("the phase produces functions");
            ctx.fns.insert(name.clone(), fun.clone());
        }
        Ok(ctx)
    }

    /// `phase`'s theorems, function by function in `order`, each with its
    /// function's name — panics unless every node succeeded.
    fn theorems(&self, phase: Phase, order: &[usize]) -> Vec<(String, Thm)> {
        let mut out = Vec::new();
        for &f in order {
            let artifact = self.artifact(phase, f).expect("graph reported success");
            for thm in artifact.value.theorems() {
                out.push((self.names[f].clone(), thm.clone()));
            }
        }
        out
    }

    fn l2_shared(&self) -> Result<&L2Shared, Failure> {
        self.l2sh
            .get_or_init(|| {
                let l1ctx = self.program_ctx(Phase::L1)?;
                let l2ctx = self.program_ctx(Phase::L2)?;
                let heap_types = crate::testing::heap_types_of(&l1ctx.tenv, &l1ctx);
                let ht = heap_types.clone();
                let ht_digest = digest128(move |h| ht.hash(h));
                Ok(L2Shared {
                    l1ctx,
                    l2ctx,
                    heap_types,
                    ht_digest,
                })
            })
            .as_ref()
            .map_err(Failure::inherit)
    }

    fn wa_shared(&self) -> Result<&WaShared, Failure> {
        self.wash
            .get_or_init(|| {
                let hlctx = self.program_ctx(Phase::Hl)?;
                let opts = self.opts;
                let wa_opts = wordabs::WaOptions {
                    abstract_fns: match &opts.word_abstract_fns {
                        Some(s) => Some(s.clone()),
                        // Never word-abstract concrete-kept functions by
                        // default.
                        None if opts.concrete_fns.is_empty() => None,
                        None => Some(
                            hlctx
                                .fns
                                .keys()
                                .filter(|n| !opts.concrete_fns.contains(*n))
                                .cloned()
                                .collect(),
                        ),
                    },
                    custom_rules: opts.custom_word_rules.clone(),
                    custom_trials: 1000,
                };
                let check_ctx = wordabs::wa_signatures(&self.cx, &hlctx, &wa_opts);
                Ok(WaShared {
                    hlctx,
                    wa_opts,
                    check_ctx,
                })
            })
            .as_ref()
            .map_err(Failure::inherit)
    }

    fn adapt_shared(&self) -> Result<&AdaptShared, Failure> {
        self.adsh
            .get_or_init(|| {
                let wash = self.wa_shared().map_err(|e| e.inherit())?;
                let mut wactx = self.program_ctx(Phase::Wa)?;
                let plans = plan_caller_adaptations(&wash.check_ctx, &wash.hlctx, &wactx);
                for (name, new_body) in &plans {
                    wactx
                        .fns
                        .get_mut(name)
                        .expect("planned adaptation of a known function")
                        .body = new_body.clone();
                }
                let heap_types =
                    crate::testing::heap_types_of(&wash.hlctx.tenv, &wash.hlctx);
                let ht = heap_types.clone();
                let ht_digest = digest128(move |h| ht.hash(h));
                Ok(AdaptShared {
                    wactx,
                    plans,
                    heap_types,
                    ht_digest,
                })
            })
            .as_ref()
            .map_err(Failure::inherit)
    }
}

// ---- the seven jobs ---------------------------------------------------------

fn l1_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let tf = &cx.typed.functions[cx.typed_idx[f]];
    let sf = simpl::translate_function(&cx.env.tenv, tf)?;
    let out = crate::l1::l1_function(&cx.cx, &sf).map_err(|e| {
        Failure::from(
            Diag::new(ir::diag::Phase::L1, DiagKind::Kernel, e.to_string())
                .with_function(&cx.names[f]),
        )
    })?;
    Ok(Artifact::L1 {
        fun: out.fun,
        thm: out.thm,
    })
}

fn l2_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let tf = &cx.typed.functions[cx.typed_idx[f]];
    let fun = crate::l2::l2_function(cx.typed, tf)
        .map_err(|d| Failure::from(d.with_function(&cx.names[f])))?;
    Ok(Artifact::L2Fn(fun))
}

fn l2thm_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let sh = cx.l2_shared()?;
    let thm = crate::l2::l2_fn_theorem(
        &cx.cx,
        &sh.l2ctx,
        &sh.l1ctx,
        &sh.heap_types,
        &cx.names[f],
        effective_l2_trials(cx.opts),
        cx.opts.seed,
    )?;
    Ok(Artifact::L2Thm(thm))
}

fn hl_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let name = &cx.names[f];
    let l2 = cx.artifact(Phase::L2, f)?;
    let fun = l2.value.fun().expect("l2 nodes produce functions");
    let hl_opts = heapabs::HlOptions {
        concrete_fns: cx.opts.concrete_fns.clone(),
    };
    if hl_opts.concrete_fns.contains(name) {
        Ok(Artifact::Hl {
            fun: heapabs::hl_keep_concrete(fun, &hl_opts),
            thm: None,
        })
    } else {
        let (fun, thm) = heapabs::hl_function(&cx.cx, fun, &hl_opts)
            .map_err(|e| Failure::from(Diag::from(e).with_function(name)))?;
        Ok(Artifact::Hl {
            fun,
            thm: Some(thm),
        })
    }
}

fn wa_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let sh = cx.wa_shared()?;
    let name = &cx.names[f];
    let fun = &sh.hlctx.fns[name];
    if sh.wa_opts.selects(name) {
        let (fun, thm) = wordabs::wa_function_in(&sh.check_ctx, &sh.hlctx, fun, &sh.wa_opts)
            .map_err(|e| Failure::from(Diag::from(e).with_function(name)))?;
        Ok(Artifact::Wa {
            fun,
            thm: Some(thm),
        })
    } else {
        Ok(Artifact::Wa {
            fun: fun.clone(),
            thm: None,
        })
    }
}

/// A planned adaptation's theorem: the adapted function (in the final
/// context) refines the HL function, which is also its unadapted WA form,
/// since only functions word abstraction passed through are adapted.
fn adapt_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    let sh = cx.adapt_shared()?;
    let wash = cx.wa_shared()?;
    let name = &cx.names[f];
    let Some(new_body) = sh.plans.get(name) else {
        return Ok(Artifact::Adapt(None));
    };
    let thm = crate::testing::exec_tested_fn(
        ir::diag::Phase::Wa,
        &wash.check_ctx,
        &sh.wactx,
        &wash.hlctx,
        name,
        &sh.heap_types,
        effective_l2_trials(cx.opts),
        cx.opts.seed,
    )?;
    Ok(Artifact::Adapt(Some(AdaptedFn {
        body: new_body.clone(),
        thm,
    })))
}

fn absint_job(cx: &PhaseCx<'_>, f: usize) -> Result<Artifact, Failure> {
    if cx.opts.no_absint {
        return Ok(Artifact::Absint(AbsintFn::default()));
    }
    let sh = cx.adapt_shared()?;
    let wash = cx.wa_shared()?;
    let name = &cx.names[f];
    let fun = &sh.wactx.fns[name];
    let mut report = absint::analyze_fn(fun, &cx.env.tenv);
    // Lint spans are stored relative to the header, like the spans in the
    // function digest, so a hit after the function moved stays right;
    // `run_pipeline` anchors them at the current header.
    let tf = &cx.typed.functions[cx.typed_idx[f]];
    report.lints = absint::lint_fn(tf);
    for l in &mut report.lints {
        l.span = l.span.relative_to(tf.span);
    }
    let mut thms = Vec::new();
    for g in &report.guards {
        if let absint::Verdict::ProvedTrue { hyp } = &g.verdict {
            let thm = kernel::rules::refine::absint_discharge(
                &wash.check_ctx,
                hyp,
                g.kind.clone(),
                &g.guard,
            )
            .map_err(|e| {
                Failure::from(
                    Diag::new(ir::diag::Phase::Absint, DiagKind::Kernel, e.to_string())
                        .with_function(name),
                )
            })?;
            thms.push((g.index, thm));
        }
    }
    Ok(Artifact::Absint(AbsintFn { report, thms }))
}

// ---- the artifact store -----------------------------------------------------

/// `(phase, function name, input digest)` — the store key.
pub(crate) type ArtifactKey = (Phase, String, u128);

/// A stored artifact under its key.
pub(crate) type Entry = (ArtifactKey, Arc<PhaseArtifact>);

/// Session-scoped artifact store: `(phase, function, input_digest)` →
/// artifact. Lookups that hit skip the phase job entirely. The store also
/// knows which artifacts the pipeline added since the last save, so a
/// disk-backed session appends exactly those ([`crate::DiskStore::save`]).
#[derive(Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<ArtifactKey, Arc<PhaseArtifact>>>,
    unsaved: Mutex<Vec<Entry>>,
}

impl ArtifactStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Number of stored artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("artifact store poisoned").len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, phase: Phase, name: &str, digest: u128) -> Option<Arc<PhaseArtifact>> {
        self.map
            .lock()
            .expect("artifact store poisoned")
            .get(&(phase, name.to_owned(), digest))
            .map(Arc::clone)
    }

    /// Stores an artifact the pipeline computed; the next save writes it.
    fn put(&self, phase: Phase, name: &str, artifact: Arc<PhaseArtifact>) {
        let key = (phase, name.to_owned(), artifact.digest);
        let entry = (key.clone(), Arc::clone(&artifact));
        self.unsaved
            .lock()
            .expect("artifact store poisoned")
            .push(entry);
        self.insert(key, artifact);
    }

    /// Stores an artifact loaded from disk, which is saved already. It
    /// only ever *answers* a lookup whose freshly computed input digest
    /// matches, so a stale or mismatched load is a miss, never a wrong
    /// answer.
    pub(crate) fn insert(&self, key: ArtifactKey, artifact: Arc<PhaseArtifact>) {
        self.map
            .lock()
            .expect("artifact store poisoned")
            .insert(key, artifact);
    }

    /// Hands `write` the artifacts the pipeline added since the last save,
    /// sorted by phase name, function and digest; they count as saved
    /// unless `write` fails, when the next save retries them. With none,
    /// `write` is not called.
    pub(crate) fn save(&self, write: impl FnOnce(&[Entry]) -> io::Result<()>) -> io::Result<()> {
        let unsaved = || self.unsaved.lock().expect("artifact store poisoned");
        let mut entries = std::mem::take(&mut *unsaved());
        if entries.is_empty() {
            return Ok(());
        }
        entries.sort_by(|(a, _), (b, _)| (a.0.name(), &a.1, a.2).cmp(&(b.0.name(), &b.1, b.2)));
        entries.dedup_by(|a, b| a.0 == b.0);
        let written = write(&entries);
        if written.is_err() {
            unsaved().extend(entries);
        }
        written
    }
}

// ---- the generic driver -----------------------------------------------------

/// What one node of the phase graph did, as [`run_phases`] returns it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeRun {
    /// When the job started, measured from the start of the graph.
    start: Duration,
    /// How long the job ran (zero for a barrier).
    busy: Duration,
    /// The artifact store's answer: `Some(true)` for a hit, `Some(false)`
    /// for a miss (the job ran), `None` when no lookup happened (a barrier,
    /// or a node whose dependency failed).
    hit: Option<bool>,
}

/// Expands [`PHASES`] into one node per `(phase, function)` pair plus one
/// barrier node per phase (encoding `AllFns` edges linearly) and executes
/// the graph on [`run_dag`]. Results land in `cx`'s slots; the returned
/// records are indexed `phase × (functions + 1) + function`, each phase's
/// barrier last. Once a phase has a root failure, jobs of later phases are
/// skipped (an inherited failure, no store lookup): the reported error is
/// the earliest failing phase's ([`first_error`]), and every phase depends
/// only on earlier ones, so they could not change it.
pub(crate) fn run_phases(
    cx: &PhaseCx<'_>,
    store: &ArtifactStore,
    workers: usize,
) -> (Vec<NodeRun>, PoolStats) {
    let n = cx.names.len();
    let stride = n + 1;
    let node = |phase: Phase, f: usize| phase as usize * stride + f;
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); PHASES.len() * stride];
    for phase in PHASES {
        deps[node(phase, n)] = (node(phase, 0)..node(phase, n)).collect();
        let (same_fn, all_fns) = phase.deps();
        for f in 0..n {
            let edges = same_fn.iter().map(|&q| node(q, f));
            deps[node(phase, f)] = edges.chain(all_fns.iter().map(|&q| node(q, n))).collect();
        }
    }
    let epoch = Instant::now();
    // The earliest phase with a root failure so far, and that failure.
    let failed: Mutex<Option<(usize, Failure)>> = Mutex::new(None);
    run_dag(deps.len(), &deps, workers, |node| {
        let (p, f) = (node / stride, node % stride);
        let phase = PHASES[p];
        if f == n {
            // Barriers do no work.
            return NodeRun::default();
        }
        let start = epoch.elapsed();
        let earlier = match &*failed.lock().expect("failure record poisoned") {
            Some((q, e)) if *q < p => Some(e.inherit()),
            _ => None,
        };
        let (result, hit) = match earlier {
            Some(e) => (Err(e), None),
            None => exec_node(cx, store, phase, f, || phase.run(cx, f)),
        };
        if let Err(e) = &result {
            let mut failed = failed.lock().expect("failure record poisoned");
            if e.root && failed.as_ref().is_none_or(|(q, _)| p < *q) {
                *failed = Some((p, e.clone()));
            }
        }
        let busy = epoch.elapsed() - start;
        let _ = cx.slots[cx.slot_id(phase, f)].set(result);
        NodeRun { start, busy, hit }
    })
}

/// Runs one `(phase, function)` node: the input digest, the store lookup,
/// and on a miss `job`. Returns the result and the store's answer (see
/// [`NodeRun::hit`]). A panic in the digest or the job becomes this node's
/// root failure, so it fails one function instead of the whole run.
fn exec_node(
    cx: &PhaseCx<'_>,
    store: &ArtifactStore,
    phase: Phase,
    f: usize,
    job: impl FnOnce() -> Result<Artifact, Failure>,
) -> (NodeResult, Option<bool>) {
    let name = &cx.names[f];
    let mut hit = None;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let digest = phase.input_digest(cx, f)?;
        if let Some(cached) = store.get(phase, name, digest) {
            hit = Some(true);
            return Ok(cached);
        }
        hit = Some(false);
        let artifact = Arc::new(PhaseArtifact {
            digest,
            value: job()?,
        });
        store.put(phase, name, Arc::clone(&artifact));
        Ok(artifact)
    }))
    .unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let message = format!("{name}: `{}` job panicked: {text}", phase.name());
        Err(Failure::from(
            Diag::new(phase.stage(), DiagKind::Internal, message).with_function(name),
        ))
    });
    (result, hit)
}

// ---- assembly ---------------------------------------------------------------

/// The error a failed run reports: the first root failure of the earliest
/// failing phase, in that phase's fixed iteration order (source order for
/// `l1`, whose jobs include the Simpl translation, and the L2 phases,
/// name order elsewhere) — the error the old strictly-phased pipeline
/// reported. Falls back to the first inherited failure.
fn first_error(cx: &PhaseCx<'_>) -> Option<Diag> {
    let n = cx.names.len();
    let mut fallback: Option<Diag> = None;
    for phase in PHASES {
        let mut order: Vec<usize> = (0..n).collect();
        if matches!(phase, Phase::L1 | Phase::L2 | Phase::L2Thm) {
            order.sort_by_key(|&i| cx.typed_idx[i]);
        }
        for i in order {
            if let Some(Err(f)) = cx.slots[cx.slot_id(phase, i)].get() {
                if f.root {
                    return Some(f.diag.clone());
                }
                if fallback.is_none() {
                    fallback = Some(f.diag.clone());
                }
            }
        }
    }
    fallback
}

// ---- the pipeline entry point -----------------------------------------------

/// Runs the whole phase graph over `typed` and assembles the legacy
/// [`Output`] — theorem lists in the historical per-phase orders, one
/// stats row per phase — so the result is byte-identical to the old
/// strictly-phased driver (and to any cached re-run).
pub(crate) fn run_pipeline(
    typed: &cparser::TProgram,
    opts: &Options,
    store: &ArtifactStore,
) -> Result<Output, Diag> {
    let total_start = Instant::now();
    let requested = opts.workers.max(1);
    let cx = PhaseCx::new(typed, opts)?;
    // Size the pool from the estimated work: typed-AST sizes × 4, about
    // the Simpl term size (2.5–6.4× the typed size per program), times
    // the phases.
    let cost: u64 = typed.functions.iter().map(|f| 4 * f.size() as u64).sum();
    let workers = plan_workers(
        requested,
        cost.saturating_mul(PHASES.len() as u64),
        opts.force_pool,
    );
    let (runs, graph_pool) = run_phases(&cx, store, workers);
    let workers = graph_pool.workers;
    if let Some(d) = first_error(&cx) {
        return Err(d);
    }
    let n = cx.names.len();
    let by_name: Vec<usize> = (0..n).collect();
    let mut by_source = by_name.clone();
    by_source.sort_by_key(|&i| cx.typed_idx[i]);

    // One row per phase, folded over its function nodes' records, and the
    // per-function theorem counts over every phase.
    let mut stats = PipelineStats {
        workers,
        requested_workers: requested,
        ..PipelineStats::default()
    };
    for phase in PHASES {
        let runs = &runs[phase as usize * (n + 1)..][..n];
        let thms = cx.theorems(phase, &by_name);
        for (name, thm) in &thms {
            *stats.fn_theorems.entry(name.clone()).or_insert(0) += 1;
            *stats.fn_proof_nodes.entry(name.clone()).or_insert(0) += thm.proof_size();
        }
        let start = runs.iter().map(|r| r.start).min().unwrap_or_default();
        let end = runs
            .iter()
            .map(|r| r.start + r.busy)
            .max()
            .unwrap_or_default();
        stats.phases.push(PhaseStat {
            name: phase.name(),
            wall: end - start,
            busy: runs.iter().map(|r| r.busy).sum(),
            workers,
            requested,
            fns: n,
            thms: thms.len(),
            proof_nodes: thms.iter().map(|(_, t)| t.proof_size()).sum(),
            cached: runs.iter().filter(|r| r.hit == Some(true)).count(),
        });
    }
    let fn_runs = || runs.chunks(n + 1).flat_map(|phase| &phase[..n]);
    stats.dirty_fns = (0..n)
        .filter(|&f| (0..PHASES.len()).any(|p| runs[p * (n + 1) + f].hit == Some(false)))
        .count();
    stats.cached_nodes = fn_runs().filter(|r| r.hit == Some(true)).count();
    stats.computed_nodes = fn_runs().filter(|r| r.hit == Some(false)).count();

    // Theorem lists in the legacy orders: l1/hl/wa in sorted-name order,
    // l2 in source order, adaptation theorems appended to `wa`.
    let mut wa = cx.theorems(Phase::Wa, &by_name);
    wa.extend(cx.theorems(Phase::Adapt, &by_name));
    let thms = PhaseTheorems {
        l1: cx.theorems(Phase::L1, &by_name),
        l2: cx.theorems(Phase::L2Thm, &by_source),
        hl: cx.theorems(Phase::Hl, &by_name),
        wa,
    };
    let mut absint: BTreeMap<String, AbsintFn> = BTreeMap::new();
    for (i, name) in cx.names.iter().enumerate() {
        let artifact = cx
            .artifact(Phase::Absint, i)
            .expect("graph reported success");
        let Artifact::Absint(a) = &artifact.value else {
            unreachable!("absint nodes produce Absint artifacts");
        };
        let mut a = a.clone();
        let header = typed.functions[cx.typed_idx[i]].span;
        for l in &mut a.report.lints {
            l.span = l.span.anchored_at(header);
        }
        stats.guards_total += a.report.guards.len();
        stats.guards_discharged += a.report.discharged();
        stats.guards_refuted += a.report.refuted();
        absint.insert(name.clone(), a);
    }

    // Success implies every shared context exists (or is trivially
    // constructible for the empty program).
    let l2sh = cx.l2_shared().map_err(|f| f.diag.clone())?;
    let wash = cx.wa_shared().map_err(|f| f.diag.clone())?;
    let adsh = cx.adapt_shared().map_err(|f| f.diag.clone())?;
    // The Simpl program is the one the l1corres theorems state.
    let simpl = SimplProgram {
        fns: l2sh
            .l1ctx
            .fns
            .values()
            .zip(&thms.l1)
            .map(|(fun, (name, thm))| (name.clone(), crate::l1::simpl_fn(fun, thm)))
            .collect(),
        ..cx.env.clone()
    };
    stats.total_wall = total_start.elapsed();
    Ok(Output {
        typed: typed.clone(),
        simpl,
        l1: l2sh.l1ctx.clone(),
        l2: l2sh.l2ctx.clone(),
        hl: wash.hlctx.clone(),
        wa: adsh.wactx.clone(),
        thms,
        absint,
        check_ctx: wash.check_ctx.clone(),
        stats,
    })
}

// ---- caller adaptation (moved from pipeline.rs) -----------------------------

/// Plans the call-site adaptations of non-abstracted callers (Sec 4.6's
/// value direction): for every function outside the `fn_abs` table whose
/// body calls an abstracted callee, computes the rewritten body — arguments
/// lifted with `unat`/`sint`, results re-concretised with
/// `of_nat`/`of_int`. Pure: no context mutation, no testing. Returns the
/// new bodies of the changed functions by name.
fn plan_caller_adaptations(
    cx: &CheckCtx,
    hlctx: &ProgramCtx,
    wactx: &ProgramCtx,
) -> BTreeMap<String, Prog> {
    use ir::expr::{CastKind, Expr};
    use ir::ty::Signedness;

    let abstracted: BTreeSet<String> = cx.fn_abs.keys().cloned().collect();
    if abstracted.is_empty() {
        return BTreeMap::new();
    }
    let lift_arg = |a: &Expr, conc_ty: &Ty| -> Expr {
        match conc_ty {
            Ty::Word(_, Signedness::Unsigned) => Expr::cast(CastKind::Unat, a.clone()),
            Ty::Word(_, Signedness::Signed) => Expr::cast(CastKind::Sint, a.clone()),
            _ => a.clone(),
        }
    };
    let rewrite_call = |p: &Prog| -> Option<Prog> {
        let Prog::Call { fname, args } = p else {
            return None;
        };
        if !abstracted.contains(fname) {
            return None;
        }
        let callee = hlctx.fns.get(fname)?;
        let new_args: Vec<Expr> = args
            .iter()
            .zip(&callee.params)
            .map(|(a, (_, t))| lift_arg(a, t))
            .collect();
        let call = Prog::Call {
            fname: fname.clone(),
            args: new_args,
        };
        Some(match &callee.ret_ty {
            Ty::Word(w, s @ Signedness::Unsigned) => Prog::bind(
                call,
                "·r",
                Prog::ret(Expr::cast(CastKind::OfNat(*w, *s), Expr::var("·r"))),
            ),
            Ty::Word(w, s @ Signedness::Signed) => Prog::bind(
                call,
                "·r",
                Prog::ret(Expr::cast(CastKind::OfInt(*w, *s), Expr::var("·r"))),
            ),
            _ => call,
        })
    };

    wactx
        .fns
        .iter()
        .filter(|(name, _)| !abstracted.contains(*name))
        .filter_map(|(name, old)| {
            let new_body = old.body.rewrite(&rewrite_call);
            (new_body != old.body).then(|| (name.clone(), new_body))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in PHASES {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for unknown in ["", "l9", "L1", "l1 ", "parse"] {
            assert_eq!(Phase::from_name(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn every_dependency_is_an_earlier_phase() {
        for (i, p) in PHASES.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p:?} is not at its index in PHASES");
            let (same_fn, all_fns) = p.deps();
            for &q in same_fn.iter().chain(all_fns) {
                assert!((q as usize) < i, "{p:?} depends on the later {q:?}");
            }
        }
    }

    #[test]
    fn theorem_phases_report_their_translation_stage() {
        use ir::diag::Phase as S;
        let stages = PHASES.map(Phase::stage);
        assert_eq!(
            stages,
            [S::L1, S::L2, S::L2, S::Hl, S::Wa, S::Wa, S::Absint]
        );
    }

    #[test]
    fn a_save_takes_what_the_pipeline_added_once() {
        let store = ArtifactStore::new();
        let artifact = |digest| {
            let value = Artifact::Adapt(None);
            Arc::new(PhaseArtifact { digest, value })
        };
        store.insert((Phase::L1, "loaded".into(), 1), artifact(1));
        store.put(Phase::Wa, "b", artifact(2));
        store.put(Phase::Absint, "a", artifact(3));
        store.put(Phase::Wa, "a", artifact(4));
        assert!(store.save(|_| Err(io::Error::other("disk full"))).is_err());
        // The failed write is retried, in phase *name* order ("absint"
        // before "wa"), then function; the loaded artifact is not saved.
        let mut saved = Vec::new();
        store
            .save(|entries| {
                saved.extend(entries.iter().map(|(key, _)| key.clone()));
                Ok(())
            })
            .unwrap();
        let key = |p, f: &str, d| (p, f.to_owned(), d);
        let want = [
            key(Phase::Absint, "a", 3),
            key(Phase::Wa, "a", 4),
            key(Phase::Wa, "b", 2),
        ];
        assert_eq!(saved, want);
        store.save(|_| panic!("nothing is unsaved")).unwrap();
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn options_digest_is_normalized() {
        let base = Options::default();
        // Insertion order into the BTreeSet cannot leak into the digest.
        let mut a = Options::default();
        a.concrete_fns.insert("alpha".into());
        a.concrete_fns.insert("beta".into());
        let mut b = Options::default();
        b.concrete_fns.insert("beta".into());
        b.concrete_fns.insert("alpha".into());
        assert_eq!(options_digest(&a), options_digest(&b));
        assert_ne!(options_digest(&a), options_digest(&base));

        // `l2_trials: 0` means "default 80": the two must digest equal, a
        // genuinely different budget must not.
        let zero = Options {
            l2_trials: 0,
            ..Options::default()
        };
        let eighty = Options {
            l2_trials: 80,
            ..Options::default()
        };
        let forty = Options {
            l2_trials: 40,
            ..Options::default()
        };
        assert_eq!(options_digest(&zero), options_digest(&eighty));
        assert_ne!(options_digest(&zero), options_digest(&forty));

        // Worker count never affects output bytes, so it must never
        // invalidate the store.
        let wide = Options {
            workers: 16,
            ..Options::default()
        };
        assert_eq!(options_digest(&base), options_digest(&wide));

        // Seed does affect recorded theorem statements.
        let reseeded = Options {
            seed: 1,
            ..Options::default()
        };
        assert_ne!(options_digest(&base), options_digest(&reseeded));

        // `None` (abstract everything) differs from an empty explicit set,
        // and the `0xff` separators keep adjacent sets from bleeding into
        // one another.
        let none = Options {
            word_abstract_fns: None,
            ..Options::default()
        };
        let empty = Options {
            word_abstract_fns: Some(BTreeSet::new()),
            ..Options::default()
        };
        assert_ne!(options_digest(&none), options_digest(&empty));
    }

    #[test]
    fn fn_digests_are_per_function_content() {
        const F: &str = "unsigned f(unsigned x) {\n    unsigned y = x + 1u;\n    return y;\n}\n";
        const G: &str = "unsigned g(unsigned x) { return x * 2u; }\n";
        let digests = |src: &str| {
            let typed = cparser::parse_and_check(src).unwrap();
            let opts = Options::default();
            let cx = PhaseCx::new(&typed, &opts).unwrap();
            // names are sorted: [f, g].
            (cx.fn_digests.clone(), cx.env_digest)
        };
        let (base, env) = digests(&format!("{F}{G}"));
        let (edited, edited_env) = digests(&format!("{}{G}", F.replace("1u", "9u")));
        assert_ne!(base[0], edited[0], "f was edited");
        assert_eq!(base[1], edited[1], "g was not");
        assert_eq!(env, edited_env, "layouts and globals unchanged");

        // Position-free: moving a function leaves its digest alone.
        let (commented, _) = digests(&format!("/* a comment */\n\n{F}{G}"));
        assert_eq!(base, commented, "a prepended comment moved nothing");
        let (swapped, _) = digests(&format!("{G}{F}"));
        assert_eq!(base, swapped, "the order of functions in the file");
        // A blank line between two statements moves f's later statements
        // (and so its lint spans) relative to its header.
        let spread = F.replace("1u;\n", "1u;\n\n");
        let (blank, _) = digests(&format!("{spread}{G}"));
        assert_ne!(base[0], blank[0], "f's relative spans moved");
        assert_eq!(base[1], blank[1], "g only moved down");
    }

    #[test]
    fn a_failed_phase_skips_the_jobs_of_later_phases() {
        // `zz` fails its Simpl translation inside its `l1` job; inline, the
        // `l1` jobs run first, and no job of a later phase runs after.
        let typed = cparser::parse_and_check(
            "unsigned f(unsigned x) { return x + 1u; }
             void zz(unsigned n) { while (f(n) > 0u) { n = n - 1u; } }
",
        )
        .unwrap();
        let opts = Options::default();
        let cx = PhaseCx::new(&typed, &opts).unwrap();
        let (runs, _) = run_phases(&cx, &ArtifactStore::new(), 1);
        let n = cx.names.len();
        assert_eq!(runs[0].hit, Some(false), "f's l1 job ran");
        assert!(
            runs[n + 1..].iter().all(|r| r.hit.is_none()),
            "a later job ran"
        );
        let d = first_error(&cx).expect("zz failed");
        assert_eq!(d.phase, ir::diag::Phase::Simpl);
    }

    #[test]
    fn a_panicking_job_fails_its_own_node() {
        let typed = cparser::parse_and_check(
            "unsigned f(unsigned x) { return x + 1u; }
             unsigned g(unsigned x) { return x * 2u; }
",
        )
        .unwrap();
        let opts = Options::default();
        let cx = PhaseCx::new(&typed, &opts).unwrap();
        let store = ArtifactStore::new();
        // names are sorted: [f, g]. Both pool workers hit the panic, and
        // each node still returns its own failure.
        let (results, _) = run_dag(2, &[vec![], vec![]], 2, |f| {
            exec_node(&cx, &store, Phase::Hl, f, || {
                panic!("injected fault in {}", cx.names[f])
            })
        });
        for (f, (result, hit)) in results.into_iter().enumerate() {
            let failure = result.expect_err("the job panicked");
            assert!(failure.root, "a panic is the root cause");
            assert_eq!(failure.diag.kind, DiagKind::Internal);
            assert_eq!(failure.diag.phase, ir::diag::Phase::Hl);
            assert_eq!(failure.diag.function.as_deref(), Some(cx.names[f].as_str()));
            let payload = format!("injected fault in {}", cx.names[f]);
            assert!(
                failure.diag.message.contains("`hl`") && failure.diag.message.contains(&payload),
                "{}",
                failure.diag.message
            );
            assert_eq!(hit, Some(false), "the store missed, so the job ran");
        }
        assert!(store.is_empty(), "a panicked job stores nothing");
    }
}
