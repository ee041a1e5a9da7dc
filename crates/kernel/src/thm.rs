//! Theorems, rules, and the proof checker.
//!
//! A [`Thm`] is a handle to a hash-consed derivation node (`ir::intern`,
//! the machinery terms use), so structurally equal derivations are one
//! allocation. [`check`] and [`check_all`] replay derivations through
//! `rules::validate`, planned by the one derivation walk ([`postorder`]) so
//! that each distinct node is validated once per call at any worker count;
//! a [`ReplayCache`] remembers, by node identity, the nodes validated under
//! a context, and nothing else marks a node as checked — not its
//! construction, and not the disk store that rebuilt it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Mutex, OnceLock};

use ir::intern::{Internable, Interned, Interner};
use ir::sched::{par_map, plan_workers, PoolStats};

use crate::judgment::{AbsFun, Judgment};

/// The inference rules of the kernel. Every theorem records which rule
/// admitted it; the checker recomputes the rule's conclusion and compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    // --- word abstraction: values (Table 3 and Sec 3.3) ---
    /// Variable lookup consistent with the variable context.
    WVar,
    /// Literal abstraction (`unat`/`sint`/`id` of a constant).
    WLit,
    /// Unsigned addition (`WSUM`).
    WSum,
    /// Unsigned subtraction (precondition `b ≤ a`).
    WSub,
    /// Unsigned multiplication (precondition `a·b ≤ UINT_MAX`).
    WMul,
    /// Unsigned division (`WDIV`, no precondition).
    WDiv,
    /// Unsigned modulo.
    WMod,
    /// Signed addition (range precondition).
    SSum,
    /// Signed subtraction.
    SSub,
    /// Signed multiplication.
    SMul,
    /// Signed division (precondition `¬(a = INT_MIN ∧ b = -1)`).
    SDiv,
    /// Signed modulo.
    SMod,
    /// Signed negation (precondition `a ≠ INT_MIN`).
    SNeg,
    /// Comparison under `unat`/`sint` (monotone, `f = id` on the result).
    WCmp,
    /// `of_nat` re-concretisation: `of_nat (unat c) = c`.
    WOfNat,
    /// `of_int` re-concretisation.
    WOfInt,
    /// Wrap an identity-abstracted word term in `unat`.
    WUnatWrap,
    /// Wrap an identity-abstracted word term in `sint`.
    WSintWrap,
    /// Congruence for identity-abstracted operators.
    WIdCong,
    /// Conditional expression with branch-weakened preconditions.
    WIte,
    /// Componentwise tuple abstraction (loop iterator values).
    WTuple,
    /// Tuple projection under a componentwise abstraction.
    WProj,
    /// A tuple of identity abstractions is the identity abstraction.
    WTupleId,
    /// Wraps an identity-abstracted tuple into a componentwise abstraction
    /// by projecting and casting each component.
    WTupleWrap,
    /// A user-supplied idiom rule validated by randomized sampling
    /// (Sec 3.3's extensible rule sets).
    WCustomSampled,

    // --- word abstraction: statements ---
    /// `WRET`.
    WsRet,
    /// `gets` abstraction.
    WsGets,
    /// `modify` abstraction (state untouched by WA; expressions rebuilt).
    WsModify,
    /// Guard abstraction.
    WsGuard,
    /// `throw` abstraction.
    WsThrow,
    /// `fail` maps to `fail`.
    WsFail,
    /// `WBIND`.
    WsBind,
    /// `WBIND` with a tuple pattern (loop-iterator destructuring).
    WsBindTuple,
    /// `condition` abstraction.
    WsCond,
    /// `whileLoop` abstraction with iterator-variable contexts.
    WsWhile,
    /// Call to a word-abstracted function.
    WsCall,
    /// `catch` abstraction.
    WsCatch,
    /// `exec_concrete`/`exec_abstract` pass through word abstraction
    /// untouched (their contents stay at the concrete word level).
    WsExecConcrete,

    // --- heap abstraction (Table 4 and Sec 4.5) ---
    /// Literals are state-independent.
    HLit,
    /// Variables are unchanged.
    HVar,
    /// Congruence for heap-free operators.
    HCong,
    /// Boolean connectives with short-circuit-weakened preconditions
    /// (sound because the unevaluated side cannot influence the value).
    HValWeaken,
    /// Typed heap read becomes split-heap lookup under `is_valid`.
    HRead,
    /// Pointer-offset field read becomes a field select (Sec 4.5).
    HReadField,
    /// `HPTR`: the concrete pointer guard becomes `is_valid`.
    HGuardPtr,
    /// Heap write becomes a split-heap functional update.
    HUpd,
    /// Pointer-offset field write becomes a functional field update.
    HUpdField,
    /// Local/global variable update with a heap-reading right-hand side.
    HUpdVar,
    /// `HGETS`.
    HsGets,
    /// `HMODIFY`.
    HsModify,
    /// Guard statement abstraction.
    HsGuard,
    /// `return` abstraction.
    HsRet,
    /// `throw` abstraction.
    HsThrow,
    /// `fail` abstraction.
    HsFail,
    /// `HBIND`.
    HsBind,
    /// `HBIND` with a tuple pattern.
    HsBindTuple,
    /// `condition` abstraction.
    HsCond,
    /// `whileLoop` abstraction.
    HsWhile,
    /// `catch` abstraction.
    HsCatch,
    /// Call congruence.
    HsCall,
    /// `exec_concrete` introduction (Sec 4.6).
    HsExecConcrete,

    // --- L1: Simpl to monadic (Table 1) ---
    /// `SKIP ↦ skip`.
    L1Skip,
    /// `Basic m ↦ modify m`.
    L1Basic,
    /// Sequencing.
    L1Seq,
    /// Conditional.
    L1Cond,
    /// While loop.
    L1While,
    /// Guard.
    L1Guard,
    /// Throw.
    L1Throw,
    /// Try/catch.
    L1Catch,
    /// Procedure call (with result stored to a local).
    L1Call,

    // --- L2 rewrites: monadic refinement ---
    /// Reflexivity.
    ReflRefines,
    /// Transitivity.
    TransRefines,
    /// Congruence under `bind`.
    BindCong,
    /// Congruence under `condition`.
    CondCong,
    /// Congruence under `catch`.
    CatchCong,
    /// Congruence under `whileLoop`.
    WhileCong,
    /// Guard discharge: the simplifier proves the guard true.
    DischargeGuard,
    /// Guard discharge by abstract interpretation: the recorded hypothesis
    /// entails the guard by interval reasoning (`solver::interval::entails`).
    AbsintDischarge,
    /// Refinement admitted after randomized differential testing
    /// (seed and trial count recorded; the substitute for Isabelle's
    /// rewrite-step proofs, see DESIGN.md §2).
    ExecTested,
}

/// Extra data recorded for oracle rules.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// No side data.
    None,
    /// Randomized testing evidence for a refinement.
    Tested {
        /// Number of trials run.
        trials: u32,
        /// RNG seed used.
        seed: u64,
    },
    /// Randomized sampling evidence for a custom `abs_w_val` rule
    /// (self-contained: the variable shapes are recorded so the checker can
    /// re-run the sampling).
    SampledWVal {
        /// Concrete types of the judgment's variables.
        vars: std::collections::BTreeMap<String, ir::ty::Ty>,
        /// Number of samples.
        trials: u32,
        /// RNG seed used.
        seed: u64,
    },
}

/// A theorem: a judgment together with its full derivation.
///
/// `Thm` has no public constructor. A theorem is built in three ways only:
/// by a rule function in [`crate::rules`], which checks its side
/// conditions while it computes the conclusion (the LCF discipline); by
/// the certificate reader through the validating `Thm::admit`; or by the
/// store's node-table reader through `Thm::from_row` (`persist` feature),
/// the one path that does not validate, whose theorems replay checks like
/// any other.
///
/// A `Thm` is a handle to a hash-consed derivation node (`ir::intern`, the
/// machinery terms use): structurally equal derivations are one
/// allocation, so a derivation is a DAG of distinct nodes, `clone` is a
/// reference-count bump and equality is a pointer comparison. A node lives
/// as long as some theorem holds it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Thm(Interned<ThmNode>);

/// One derivation node: the rule, its conclusion, the premise derivations
/// and the side data, hashed and compared in full (premises by their
/// interned handles).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ThmNode {
    rule: Rule,
    judgment: Judgment,
    premises: Vec<Thm>,
    side: Side,
}

impl Internable for ThmNode {
    /// The node's proof size: rule applications in its derivation tree
    /// (saturating, so a hostile node table cannot overflow it).
    fn shallow_size(&self) -> usize {
        self.premises
            .iter()
            .fold(1, |n: usize, p| n.saturating_add(p.proof_size()))
    }

    fn interner() -> &'static Interner<ThmNode> {
        static INTERNER: OnceLock<Interner<ThmNode>> = OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

impl Thm {
    /// The statement this theorem proves.
    #[must_use]
    pub fn judgment(&self) -> &Judgment {
        &self.0.judgment
    }

    /// The rule that admitted the conclusion.
    #[must_use]
    pub fn rule(&self) -> Rule {
        self.0.rule
    }

    /// The premise derivations.
    #[must_use]
    pub fn premises(&self) -> &[Thm] {
        &self.0.premises
    }

    /// Side data for oracle rules.
    #[must_use]
    pub fn side(&self) -> &Side {
        &self.0.side
    }

    /// Number of rule applications in the derivation tree (proof size),
    /// counting a shared sub-derivation once per use. O(1): cached on the
    /// node.
    #[must_use]
    pub fn proof_size(&self) -> usize {
        self.0.size()
    }

    /// The node's identity (its address), for tables keyed by node; valid
    /// only while the node is alive (see `ir::intern::Interned::key`).
    pub(crate) fn key(&self) -> usize {
        self.0.key()
    }

    /// Store-only constructor (`persist` feature) that rebuilds a theorem
    /// from one row of a node table **without validating it**.
    ///
    /// Only the store's node-table reader (the `Thm` codec in
    /// `kernel::codec`) calls this (`scripts/tier1.sh` checks). Nothing
    /// records a rebuilt node as checked: `check`/`check_all` validate it
    /// like any other. Certificates never take this path — `kernel::cert`
    /// admits every row through the validating [`Thm::admit`].
    #[cfg(feature = "persist")]
    #[must_use]
    pub(crate) fn from_row(rule: Rule, premises: Vec<Thm>, judgment: Judgment, side: Side) -> Thm {
        Thm::assemble(rule, premises, judgment, side)
    }

    /// The one constructor every other ends in: interns the node.
    fn assemble(rule: Rule, premises: Vec<Thm>, judgment: Judgment, side: Side) -> Thm {
        Thm(Interned::new(ThmNode {
            rule,
            judgment,
            premises,
            side,
        }))
    }

    /// Kernel-internal constructor for the rule constructors in
    /// [`crate::rules`]: applies the rule's conclusion function `concl` to
    /// the premises' judgments once. The function checks the rule's side
    /// conditions and its result is the theorem's judgment, with no second
    /// derivation (`scripts/tier1.sh` keeps every caller in `kernel::rules`).
    pub(crate) fn infer(
        rule: Rule,
        premises: Vec<Thm>,
        side: Side,
        concl: impl FnOnce(&[&Judgment]) -> Result<Judgment, String>,
    ) -> Result<Thm, KernelError> {
        let prem_judgments: Vec<&Judgment> = premises.iter().map(Thm::judgment).collect();
        let judgment = concl(&prem_judgments).map_err(|msg| KernelError { rule, msg })?;
        Ok(Thm::assemble(rule, premises, judgment, side))
    }

    /// Kernel-internal constructor for a *proposed* derivation node (the
    /// certificate reader's, `kernel::cert`): admits it only if
    /// `rules::validate` accepts it, i.e. the rule's conclusion function,
    /// recomputed from the premises and the parameters read off
    /// `judgment`, gives back `judgment`.
    pub(crate) fn admit(
        rule: Rule,
        premises: Vec<Thm>,
        judgment: Judgment,
        side: Side,
        cx: &CheckCtx,
    ) -> Result<Thm, KernelError> {
        validate(rule, &premises, &judgment, &side, cx)?;
        Ok(Thm::assemble(rule, premises, judgment, side))
    }
}

/// Runs `rules::validate` on one node: its rule, recomputed from the
/// premises' judgments and the parameters read off `judgment`, must give
/// back `judgment`.
fn validate(
    rule: Rule,
    premises: &[Thm],
    judgment: &Judgment,
    side: &Side,
    cx: &CheckCtx,
) -> Result<(), KernelError> {
    let prem_judgments: Vec<&Judgment> = premises.iter().map(Thm::judgment).collect();
    crate::rules::validate(rule, &prem_judgments, judgment, side, cx)
        .map_err(|msg| KernelError { rule, msg })
}

impl fmt::Display for Thm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⊢ {} [by {:?}, {} steps]",
            self.judgment().describe(),
            self.rule(),
            self.proof_size()
        )
    }
}

/// A kernel error: a rule application whose side conditions failed.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelError {
    /// The rule that was attempted.
    pub rule: Rule,
    /// Why it was rejected.
    pub msg: String,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel: rule {:?} rejected: {}", self.rule, self.msg)
    }
}

impl std::error::Error for KernelError {}

/// The checking context: structure layouts and the signatures of abstracted
/// functions, needed by layout-dependent and call rules.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CheckCtx {
    /// Structure layouts (for field-offset rules).
    pub tenv: ir::ty::TypeEnv,
    /// For each word-abstracted function: parameter abstractions, return
    /// abstraction, exception abstraction.
    pub fn_abs: BTreeMap<String, (Vec<AbsFun>, AbsFun, AbsFun)>,
}

/// Interned so a [`ReplayCache`] entry names the context it was validated
/// under by identity.
impl Internable for CheckCtx {
    fn shallow_size(&self) -> usize {
        1
    }

    fn interner() -> &'static Interner<CheckCtx> {
        static INTERNER: OnceLock<Interner<CheckCtx>> = OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

/// Replays a theorem's entire derivation ([`check_all`] on one root): every
/// node's rule recomputes its conclusion from the node's premises, and the
/// node must state it.
///
/// This is the independent proof checker: it does not trust the engine that
/// constructed the theorem, only the kernel rules.
///
/// # Errors
///
/// Returns the first failing rule application.
pub fn check(thm: &Thm, cx: &CheckCtx) -> Result<(), KernelError> {
    check_all([("", thm)], cx, 1)
        .map(|_| ())
        .map_err(|(_, e)| e)
}

/// The one derivation walk: appends to `out`, in postorder, the nodes under
/// `root` that `enter` admits when the walk reaches them (a refused node is
/// not expanded; both callers admit a node once). Iterative, because
/// derivations can be deeper than the stack.
pub(crate) fn postorder<'a>(
    root: &'a Thm,
    mut enter: impl FnMut(&'a Thm) -> bool,
    out: &mut Vec<&'a Thm>,
) {
    let mut stack = vec![(root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if expanded {
            out.push(t);
        } else if enter(t) {
            stack.push((t, true));
            stack.extend(t.premises().iter().rev().map(|p| (p, false)));
        }
    }
}

/// Validated nodes, keyed by the addresses of the node and of the context
/// it was checked under. The entry holds both handles, so neither address
/// is reused while it keys the entry.
type Validated = HashMap<(usize, usize), (Thm, Interned<CheckCtx>)>;

/// A replay-side cache of validated proof nodes, shared across calls. A
/// node is remembered by identity, paired with the interned checking
/// context it was validated under: theorems are hash-consed, so a
/// sub-derivation shared by several theorems (or several premises) is one
/// node, validated once and skipped thereafter, and a node checked under
/// one context is checked again under another. Calls through one cache
/// take turns.
///
/// Soundness: `rules::validate` is a deterministic pure function of the
/// node and the context, identity among live interned values is
/// structural equality (compared in full, symbols by identity), and only
/// *successful* validations are inserted — so a hit is a node that was
/// validated under an equal context, never one that merely hashes like it.
/// Nothing but a validation inserts: constructing a theorem, or rebuilding
/// one from the disk store, records nothing as checked.
/// Determinism: cache state never affects output, only whether a
/// validation is re-executed.
#[derive(Default)]
pub struct ReplayCache(Mutex<Validated>);

impl ReplayCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ReplayCache {
        ReplayCache::default()
    }
}

/// Statistics of a [`check_all`] replay run.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Theorems replayed.
    pub checked: usize,
    /// Total rule applications in the replayed derivations.
    pub proof_nodes: usize,
    /// Times the walk reached a proof node already validated under this
    /// context or planned by this call, so its derivation was skipped.
    pub cache_hits: u64,
    /// Distinct proof nodes this call validated.
    pub cache_misses: u64,
    /// Occupancy of the replay: requested vs granted workers, busy and
    /// wall time.
    pub pool: PoolStats,
}

/// Replays a batch of theorems on the shared executor
/// ([`ir::sched::par_map`]), at the width [`plan_workers`] grants
/// `workers` for the batch's proof-node count (`workers <= 1` replays
/// inline, on one big-stack thread). Each distinct node is validated
/// exactly once, whatever the width (see [`check_all_with`]). On failure
/// the error reported is the *first* failing theorem in input order,
/// independent of scheduling. Nothing is remembered after the call.
///
/// # Errors
///
/// Returns the failing theorem's label together with the kernel error.
pub fn check_all<'a, I>(
    items: I,
    cx: &CheckCtx,
    workers: usize,
) -> Result<ReplayReport, (String, KernelError)>
where
    I: IntoIterator<Item = (&'a str, &'a Thm)>,
{
    replay(items, cx, workers, None)
}

/// [`check_all`] against a caller-supplied [`ReplayCache`], which lets
/// re-checks skip proof nodes validated by earlier calls under an equal
/// `cx`; the report counts *this call's* walk.
///
/// Under the cache's lock, the [`postorder`] walk visits the roots in input
/// order and gives each node that neither the cache nor the walk holds to
/// the first theorem that reaches it; [`par_map`] validates each theorem's
/// nodes in postorder, and they enter the cache if every theorem passed.
/// Every node an earlier theorem owns is valid, so the first failing
/// theorem fails on a node of its own, as a sequential replay would.
///
/// # Errors
///
/// Returns the failing theorem's label together with the kernel error.
pub fn check_all_with<'a, I>(
    items: I,
    cx: &CheckCtx,
    workers: usize,
    cache: &ReplayCache,
) -> Result<ReplayReport, (String, KernelError)>
where
    I: IntoIterator<Item = (&'a str, &'a Thm)>,
{
    let mut validated = cache.0.lock().expect("replay cache poisoned");
    replay(items, cx, workers, Some(&mut validated))
}

/// [`check_all_with`], with `cache` absent for [`check_all`].
fn replay<'a, I>(
    items: I,
    cx: &CheckCtx,
    workers: usize,
    cache: Option<&mut Validated>,
) -> Result<ReplayReport, (String, KernelError)>
where
    I: IntoIterator<Item = (&'a str, &'a Thm)>,
{
    let items: Vec<(&str, &Thm)> = items.into_iter().collect();
    let cx = Interned::new(cx.clone());
    let none = Validated::new();
    let validated = cache.as_deref().unwrap_or(&none);
    let mut planned = HashSet::new();
    let mut lookups = 0;
    let plans: Vec<Vec<&Thm>> = items
        .iter()
        .map(|&(_, root)| {
            let mut nodes = Vec::new();
            postorder(
                root,
                |t| {
                    lookups += 1;
                    !validated.contains_key(&(t.key(), cx.key())) && planned.insert(t.key())
                },
                &mut nodes,
            );
            nodes
        })
        .collect();
    let cache_misses = planned.len() as u64;
    let proof_nodes = items
        .iter()
        .fold(0, |n: usize, (_, t)| n.saturating_add(t.proof_size()));
    let width = plan_workers(workers, proof_nodes as u64, false);
    let (results, mut pool) = par_map(&plans, width, |_, nodes| {
        nodes
            .iter()
            .try_for_each(|t| validate(t.rule(), t.premises(), t.judgment(), t.side(), &cx))
    });
    pool.requested = workers.max(1);
    for (r, (name, _)) in results.into_iter().zip(&items) {
        r.map_err(|e| ((*name).to_owned(), e))?;
    }
    if let Some(cache) = cache {
        cache.reserve(planned.len());
        cache.extend(
            plans
                .into_iter()
                .flatten()
                .map(|t| ((t.key(), cx.key()), (t.clone(), cx.clone()))),
        );
    }
    Ok(ReplayReport {
        checked: items.len(),
        proof_nodes,
        cache_hits: lookups - cache_misses,
        cache_misses,
        pool,
    })
}

// The parallel pipeline shares theorems, contexts, and programs across
// scoped threads; keep the core types `Send + Sync` (no interior
// mutability, no `Rc`) so that property is load-bearing, not incidental.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Thm>();
    assert_send_sync::<CheckCtx>();
    assert_send_sync::<Judgment>();
    assert_send_sync::<KernelError>();
};
