//! Proof-tree fault injection.
//!
//! The kernel's trust story is LCF-style: `Thm` has no public constructor,
//! and `kernel::check` replays every rule application bottom-up. This
//! module attacks that story head-on. It mints derivations that are
//! *lies* — a swapped rule name, a perturbed conclusion, a dropped, extra
//! or reordered premise, zeroed testing evidence, a renamed symbol on one
//! side of a correspondence — and asserts the checker rejects **every
//! single one** (a 100% mutation-kill rate, reported per mutation kind ×
//! pipeline phase).
//!
//! Mutants are written by the kernel's node-table writer
//! (`kernel::codec::NodeTable`) and minted through the one unvalidated
//! reader production has, the disk store's node-table codec ([`forge`]):
//! a lie reaches the checker the way a damaged cache record would, and no
//! build carries a backdoor constructor for the audit. Forged store
//! records go through the store's own record codec
//! (`autocorres::store::{encode_record, decode_record}`).
//!
//! Two mutation classes are deliberately *not* in the matrix and covered
//! elsewhere (DESIGN.md §6c):
//!
//! * Conclusion perturbations of **oracle nodes** (`ExecTested`,
//!   `WCustomSampled`): their replay re-runs randomized evidence rather
//!   than recomputing the conclusion, so a judgment tweak is only caught
//!   probabilistically. The cross-layer differential oracle
//!   ([`crate::differential`]) owns that half of the trust argument.
//! * Store corruption ([`attack_disk_store`]): reported separately
//!   because the property is different — a corrupted cache must never
//!   cause a forged theorem to be *accepted* (nor a valid one to be
//!   rejected), but it is allowed to cost a cache miss.

use std::collections::BTreeMap;
use std::fmt;

use autocorres::phase::{Artifact, Phase, PhaseArtifact};
use autocorres::{store, Options, Output, Session};
use ir::codec::{decode_from_slice, Encoder};
use ir::expr::Expr;
use ir::intern::Interned;
use ir::names::Symbol;
use kernel::codec::NodeTable;
use kernel::{check, Judgment, Rule, Side, Thm};
use monadic::Prog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One way of lying to the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    /// Replace the rule name with one from a different judgment family.
    SwapRuleFamily,
    /// Replace an L1 rule with the L1 rule for a different statement shape.
    SwapRuleShape,
    /// Perturb one subterm of the conclusion (wrap the concrete program in
    /// a no-op `skip; ·`, or strengthen the precondition with an
    /// unprovable conjunct).
    PerturbJudgment,
    /// Drop the first premise.
    DropPremise,
    /// Append a copy of the node itself as an extra premise.
    AddPremise,
    /// Swap the first two (distinct) premises.
    ReorderPremises,
    /// Zero out randomized-testing evidence (`trials = 0`, or strip the
    /// sampling record entirely).
    ZeroTestEvidence,
    /// Rename every occurrence of one symbol on the *concrete* side only,
    /// breaking the correspondence the judgment claims.
    CorruptSymbol,
}

/// Every mutation kind, in display order.
pub const MUTATIONS: &[Mutation] = &[
    Mutation::SwapRuleFamily,
    Mutation::SwapRuleShape,
    Mutation::PerturbJudgment,
    Mutation::DropPremise,
    Mutation::AddPremise,
    Mutation::ReorderPremises,
    Mutation::ZeroTestEvidence,
    Mutation::CorruptSymbol,
];

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mutation::SwapRuleFamily => "swap-rule-family",
            Mutation::SwapRuleShape => "swap-rule-shape",
            Mutation::PerturbJudgment => "perturb-judgment",
            Mutation::DropPremise => "drop-premise",
            Mutation::AddPremise => "add-premise",
            Mutation::ReorderPremises => "reorder-premises",
            Mutation::ZeroTestEvidence => "zero-test-evidence",
            Mutation::CorruptSymbol => "corrupt-symbol",
        };
        write!(f, "{s}")
    }
}

/// One cell of the kill matrix.
#[derive(Clone, Copy, Debug, Default)]
pub struct KillCell {
    /// Mutants injected.
    pub applied: u64,
    /// Mutants the checker rejected.
    pub killed: u64,
}

/// Mutation-kill results per mutation kind × pipeline phase.
#[derive(Clone, Debug, Default)]
pub struct KillMatrix {
    /// `(mutation, phase) → cell`.
    pub cells: BTreeMap<(Mutation, &'static str), KillCell>,
    /// Descriptions of mutants that were **accepted** (must stay empty).
    pub survivors: Vec<String>,
}

/// The phase columns of the matrix, in pipeline order.
pub const PHASE_COLS: &[&str] = &["l1", "l2", "hl", "wa"];

impl KillMatrix {
    /// Total mutants injected.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.cells.values().map(|c| c.applied).sum()
    }

    /// Total mutants rejected.
    #[must_use]
    pub fn killed(&self) -> u64 {
        self.cells.values().map(|c| c.killed).sum()
    }

    /// Mutants injected by one operator, across all phases.
    #[must_use]
    pub fn applied_for(&self, kind: Mutation) -> u64 {
        self.cells
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, c)| c.applied)
            .sum()
    }

    /// Did the checker reject every injected mutant (and was at least one
    /// injected)?
    #[must_use]
    pub fn all_killed(&self) -> bool {
        self.survivors.is_empty() && self.applied() > 0
    }

    /// Accumulates another matrix into this one.
    pub fn merge(&mut self, other: &KillMatrix) {
        for (k, c) in &other.cells {
            let cell = self.cells.entry(*k).or_default();
            cell.applied += c.applied;
            cell.killed += c.killed;
        }
        self.survivors.extend(other.survivors.iter().cloned());
    }

    /// Renders the matrix as a `killed/applied` table (kind rows × phase
    /// columns).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<20}", "mutation \\ phase"));
        for p in PHASE_COLS {
            s.push_str(&format!("{p:>12}"));
        }
        s.push('\n');
        for m in MUTATIONS {
            s.push_str(&format!("{:<20}", m.to_string()));
            for p in PHASE_COLS {
                let cell = self.cells.get(&(*m, *p)).copied().unwrap_or_default();
                if cell.applied == 0 {
                    s.push_str(&format!("{:>12}", "-"));
                } else {
                    s.push_str(&format!("{:>12}", format!("{}/{}", cell.killed, cell.applied)));
                }
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "total: {}/{} mutants killed\n",
            self.killed(),
            self.applied()
        ));
        s
    }
}

/// Injects up to `budget_per_site` mutants of every kind into every
/// theorem of `out` and replays each through the independent checker.
/// Accepted mutants land in [`KillMatrix::survivors`].
#[must_use]
pub fn attack_theorems(out: &Output, budget_per_site: usize) -> KillMatrix {
    let mut matrix = KillMatrix::default();
    for (phase, name, thm) in out.thms.iter() {
        let col = phase_col(phase);
        for &kind in MUTATIONS {
            let mut sites = Vec::new();
            collect_sites(thm, kind, &mut Vec::new(), &mut sites);
            for path in sample(&sites, budget_per_site) {
                let Some(mutant) = mutate_at(thm, path, kind) else {
                    continue;
                };
                // A mutation that did not change the theorem is a harness
                // bug, not a survivor.
                assert!(mutant != *thm, "no-op {kind} mutation at {path:?}");
                let cell = matrix.cells.entry((kind, col)).or_default();
                cell.applied += 1;
                if check(&mutant, &out.check_ctx).is_err() {
                    cell.killed += 1;
                } else {
                    matrix.survivors.push(format!(
                        "{kind} on {phase}/{name} at {path:?} (rule {:?}) was ACCEPTED",
                        node_at(thm, path).rule()
                    ));
                }
            }
        }
    }
    matrix
}

fn phase_col(phase: &'static str) -> &'static str {
    // `PhaseTheorems::iter` only tags with the four theorem-bearing
    // phases; keep a stable column even if that changes.
    if PHASE_COLS.contains(&phase) {
        phase
    } else {
        "wa"
    }
}

/// Evenly strided sample of at most `budget` site paths.
fn sample(sites: &[Vec<usize>], budget: usize) -> impl Iterator<Item = &Vec<usize>> {
    let n = sites.len();
    let take = budget.min(n);
    (0..take).map(move |k| &sites[k * n / take.max(1)])
}

fn node_at<'t>(thm: &'t Thm, path: &[usize]) -> &'t Thm {
    let mut node = thm;
    for &i in path {
        node = &node.premises()[i];
    }
    node
}

/// Walks the derivation collecting the paths of all nodes `kind` applies to.
fn collect_sites(thm: &Thm, kind: Mutation, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if applicable(thm, kind) {
        out.push(cur.clone());
    }
    for (i, p) in thm.premises().iter().enumerate() {
        cur.push(i);
        collect_sites(p, kind, cur, out);
        cur.pop();
    }
}

/// Structural rules recompute their conclusion from their premises on
/// replay; oracle rules re-run recorded randomized evidence instead.
fn structural(rule: Rule) -> bool {
    !matches!(rule, Rule::ExecTested | Rule::WCustomSampled)
}

fn is_l1_rule(rule: Rule) -> bool {
    matches!(
        rule,
        Rule::L1Skip
            | Rule::L1Basic
            | Rule::L1Seq
            | Rule::L1Cond
            | Rule::L1While
            | Rule::L1Guard
            | Rule::L1Throw
            | Rule::L1Catch
            | Rule::L1Call
    )
}

fn applicable(thm: &Thm, kind: Mutation) -> bool {
    match kind {
        Mutation::SwapRuleFamily => true,
        Mutation::SwapRuleShape => is_l1_rule(thm.rule()),
        // Oracle nodes don't recompute their conclusion on replay, so a
        // perturbed judgment there is only probabilistically detectable —
        // excluded by design (covered by the differential oracle).
        Mutation::PerturbJudgment => structural(thm.rule()),
        Mutation::DropPremise => structural(thm.rule()) && !thm.premises().is_empty(),
        // Every rule fixes its premise count, oracle rules included: an
        // `ExecTested` leaf with valid theorems hung under it is a lie too.
        Mutation::AddPremise => true,
        // A premise swap that still validates implies the swapped premise
        // *judgments* were equal (validators destructure positionally), so
        // equal-judgment pairs are no-ops, not mutations.
        Mutation::ReorderPremises => {
            structural(thm.rule())
                && thm.premises().len() >= 2
                && thm.premises()[0].judgment() != thm.premises()[1].judgment()
        }
        Mutation::ZeroTestEvidence => !matches!(thm.side(), Side::None),
        // DischargeGuard is excluded: renaming a symbol uniformly in a
        // guard like `x == x` can leave it still provable-by-simplifier.
        Mutation::CorruptSymbol => {
            structural(thm.rule())
                && thm.rule() != Rule::DischargeGuard
                && conc_symbol(thm.judgment()).is_some()
        }
    }
}

/// Mints the mutant of `thm` with `kind` applied at `path` and every
/// ancestor's conclusion unchanged (the lie is local): one node table
/// holding the mutated node and then one new row per ancestor from the
/// deepest up, each over the existing rows of its other premises, read
/// back once by the store's `Thm` codec.
fn mutate_at(thm: &Thm, path: &[usize], kind: Mutation) -> Option<Thm> {
    let mut chain = vec![thm];
    for &i in path {
        chain.push(&chain[chain.len() - 1].premises()[i]);
    }
    let (rule, premises, judgment, side) = apply(chain[path.len()], kind)?;
    let mut table = NodeTable::default();
    let ids = premises.iter().map(|p| table.add(p)).collect();
    let mut id = table.row(judgment, rule, side, ids);
    for (ancestor, &i) in chain.iter().zip(path).rev() {
        let ids = (ancestor.premises().iter().enumerate())
            .map(|(j, p)| if j == i { id } else { table.add(p) })
            .collect();
        let (judgment, side) = (ancestor.judgment().clone(), ancestor.side().clone());
        id = table.row(judgment, ancestor.rule(), side, ids);
    }
    Some(read_back(&table))
}

/// The node `kind` makes of `thm`: its rule, premises, conclusion and
/// side record.
fn apply(thm: &Thm, kind: Mutation) -> Option<(Rule, Vec<Thm>, Judgment, Side)> {
    let prems = thm.premises().to_vec();
    let j = thm.judgment().clone();
    let side = thm.side().clone();
    match kind {
        Mutation::SwapRuleFamily => {
            let new_rule = match thm.judgment() {
                Judgment::L1 { .. } => Rule::ReflRefines,
                _ => Rule::L1Skip,
            };
            Some((new_rule, prems, j, side))
        }
        Mutation::SwapRuleShape => {
            let new_rule = match thm.rule() {
                Rule::L1Skip => Rule::L1Basic,
                Rule::L1Basic => Rule::L1Skip,
                Rule::L1Seq => Rule::L1Cond,
                Rule::L1Cond => Rule::L1Seq,
                Rule::L1While => Rule::L1Guard,
                Rule::L1Guard => Rule::L1While,
                Rule::L1Throw => Rule::L1Basic,
                Rule::L1Catch => Rule::L1Seq,
                Rule::L1Call => Rule::L1Skip,
                _ => return None,
            };
            Some((new_rule, prems, j, side))
        }
        Mutation::PerturbJudgment => {
            let j2 = perturb_judgment(thm.judgment());
            Some((thm.rule(), prems, j2, side))
        }
        Mutation::DropPremise => Some((thm.rule(), prems[1..].to_vec(), j, side)),
        Mutation::AddPremise => {
            let mut prems = prems;
            prems.push(thm.clone());
            Some((thm.rule(), prems, j, side))
        }
        Mutation::ReorderPremises => {
            let mut prems = prems;
            prems.swap(0, 1);
            Some((thm.rule(), prems, j, side))
        }
        Mutation::ZeroTestEvidence => {
            let new_side = match thm.side() {
                Side::Tested { seed, .. } => Side::Tested { trials: 0, seed: *seed },
                // `trials = 0` could vacuously pass a sampling loop; strip
                // the record entirely so the destructure itself fails.
                Side::SampledWVal { .. } => Side::None,
                Side::None => return None,
            };
            Some((thm.rule(), prems, j, new_side))
        }
        Mutation::CorruptSymbol => {
            let sym = conc_symbol(thm.judgment())?;
            let forged = Symbol::intern(&format!("{}\u{b7}forged", sym.as_str()));
            let j2 = rename_conc(thm.judgment(), sym, forged);
            Some((thm.rule(), prems, j2, side))
        }
    }
}

/// Builds the derivation node `rule` ⊢ `judgment` over `premises` without
/// validating it, as the disk store would read a damaged record: the
/// kernel's node-table writer takes the premises' distinct nodes and one
/// new row for the node, and the store's `Thm` codec reads the table back
/// (`kernel::codec` tests that this yields exactly the requested node).
#[must_use]
pub fn forge(rule: Rule, premises: Vec<Thm>, judgment: Judgment, side: Side) -> Thm {
    let mut table = NodeTable::default();
    let ids = premises.iter().map(|p| table.add(p)).collect();
    table.row(judgment, rule, side, ids);
    read_back(&table)
}

/// The last row of `table`, read by the store's `Thm` codec.
fn read_back(table: &NodeTable) -> Thm {
    let mut e = Encoder::new();
    table.write(&mut e);
    decode_from_slice::<Thm>(&e.finish())
        .unwrap_or_else(|err| panic!("the store's Thm codec rejected a node table: {err:?}"))
}

/// An opaque, unprovable extra conjunct ('·' cannot appear in parsed C, so
/// the simplifier knows nothing about it).
fn audit_flag() -> Expr {
    Expr::var("\u{b7}audit\u{b7}unprovable")
}

/// Wraps a program in a semantically-equivalent-looking no-op so the term
/// no longer matches the validator's recomputation. Built with the raw
/// `Bind` constructor: `Prog::then` simplifies `skip; p` back to `p`,
/// which would make this a no-op rather than a mutation.
fn wrap(p: &Prog) -> Prog {
    Prog::Bind(
        Interned::new(Prog::skip()),
        "\u{b7}audit".into(),
        Interned::new(p.clone()),
    )
}

fn perturb_judgment(j: &Judgment) -> Judgment {
    match j {
        Judgment::L1 { prog, simpl } => Judgment::L1 {
            prog: wrap(prog),
            simpl: simpl.clone(),
        },
        Judgment::Refines { abs, conc } => Judgment::Refines {
            abs: abs.clone(),
            conc: wrap(conc),
        },
        Judgment::WStmt { ctx, rx, ex, abs, conc } => Judgment::WStmt {
            ctx: ctx.clone(),
            rx: rx.clone(),
            ex: ex.clone(),
            abs: abs.clone(),
            conc: wrap(conc),
        },
        Judgment::HStmt { abs, conc } => Judgment::HStmt {
            abs: abs.clone(),
            conc: wrap(conc),
        },
        Judgment::WVal { ctx, pre, f, abs, conc } => Judgment::WVal {
            ctx: ctx.clone(),
            pre: Expr::and(pre.clone(), audit_flag()),
            f: f.clone(),
            abs: abs.clone(),
            conc: conc.clone(),
        },
        Judgment::HVal { pre, abs, conc } => Judgment::HVal {
            pre: Expr::and(pre.clone(), audit_flag()),
            abs: abs.clone(),
            conc: conc.clone(),
        },
        Judgment::HUpd { pre, abs, conc } => Judgment::HUpd {
            pre: Expr::and(pre.clone(), audit_flag()),
            abs: abs.clone(),
            conc: conc.clone(),
        },
        Judgment::AbsGuard { hyp, kind, guard } => Judgment::AbsGuard {
            hyp: hyp.clone(),
            kind: kind.clone(),
            // Strengthen the conclusion past what the hypothesis supports.
            guard: Expr::and(guard.clone(), audit_flag()),
        },
    }
}

/// The first symbol occurring on the judgment's *concrete* side.
fn conc_symbol(j: &Judgment) -> Option<Symbol> {
    match j {
        Judgment::L1 { prog, .. } => first_symbol_prog(prog),
        Judgment::Refines { conc, .. }
        | Judgment::WStmt { conc, .. }
        | Judgment::HStmt { conc, .. } => first_symbol_prog(conc),
        Judgment::WVal { conc, .. } | Judgment::HVal { conc, .. } => first_symbol_expr(conc),
        Judgment::HUpd { conc, .. } => conc.exprs().into_iter().find_map(first_symbol_expr),
        Judgment::AbsGuard { guard, .. } => first_symbol_expr(guard),
    }
}

/// Renames `from` to `to` throughout the concrete side only, leaving the
/// abstract side (and, for L1, the Simpl side) untouched.
fn rename_conc(j: &Judgment, from: Symbol, to: Symbol) -> Judgment {
    let rename = |e: &Expr| {
        e.map(&|x| match x {
            Expr::Var(s) if s == from => Expr::Var(to),
            Expr::Local(s) if s == from => Expr::Local(to),
            Expr::Global(s) if s == from => Expr::Global(to),
            other => other,
        })
    };
    match j {
        Judgment::L1 { prog, simpl } => Judgment::L1 {
            prog: prog.map_exprs(&rename),
            simpl: simpl.clone(),
        },
        Judgment::Refines { abs, conc } => Judgment::Refines {
            abs: abs.clone(),
            conc: conc.map_exprs(&rename),
        },
        Judgment::WStmt { ctx, rx, ex, abs, conc } => Judgment::WStmt {
            ctx: ctx.clone(),
            rx: rx.clone(),
            ex: ex.clone(),
            abs: abs.clone(),
            conc: conc.map_exprs(&rename),
        },
        Judgment::HStmt { abs, conc } => Judgment::HStmt {
            abs: abs.clone(),
            conc: conc.map_exprs(&rename),
        },
        Judgment::WVal { ctx, pre, f, abs, conc } => Judgment::WVal {
            ctx: ctx.clone(),
            pre: pre.clone(),
            f: f.clone(),
            abs: abs.clone(),
            conc: rename(conc),
        },
        Judgment::HVal { pre, abs, conc } => Judgment::HVal {
            pre: pre.clone(),
            abs: abs.clone(),
            conc: rename(conc),
        },
        Judgment::HUpd { pre, abs, conc } => Judgment::HUpd {
            pre: pre.clone(),
            abs: abs.clone(),
            conc: conc.map_exprs(&rename),
        },
        Judgment::AbsGuard { hyp, kind, guard } => Judgment::AbsGuard {
            // Rename in the guard only: the hypothesis no longer bounds it.
            hyp: hyp.clone(),
            kind: kind.clone(),
            guard: rename(guard),
        },
    }
}

fn first_symbol_expr(e: &Expr) -> Option<Symbol> {
    let mut found = None;
    e.visit(&mut |sub| {
        if found.is_none() {
            if let Expr::Var(s) | Expr::Local(s) | Expr::Global(s) = sub {
                found = Some(*s);
            }
        }
    });
    found
}

fn first_symbol_prog(p: &Prog) -> Option<Symbol> {
    let mut found = None;
    p.visit_exprs(&mut |e| {
        if found.is_none() {
            found = first_symbol_expr(e);
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Disk-store corruption (DESIGN.md §6g)
// ---------------------------------------------------------------------------

/// Result of randomized corruption rounds on the store's segment
/// ([`corrupt_disk_store`]).
#[derive(Clone, Debug)]
pub struct CorruptionReport {
    /// Segment mutations performed (a bit flip inside a random record,
    /// truncation — into the header too —, appended garbage, deletion).
    pub mutations: usize,
    /// Rounds in which the loader visibly degraded (rejected entries or
    /// declared version skew). Deletions load cleanly as misses, so this
    /// may be less than `mutations`.
    pub loads_degraded: usize,
    /// The WA output stayed byte-identical through every attack.
    pub output_stable: bool,
    /// `check_all_report` accepted the (recomputed) theorems after every
    /// attack.
    pub verdicts_stable: bool,
}

/// Result of the on-disk store attack campaign ([`attack_disk_store`]).
#[derive(Clone, Debug)]
pub struct DiskAttackReport {
    /// The randomized corruption rounds.
    pub corruption: CorruptionReport,
    /// The theorem-bearing phases that had one artifact record rewritten
    /// to carry a forged false theorem, in pipeline order.
    pub forged_phases: Vec<&'static str>,
    /// Every such segment, re-sealed and re-framed, loaded without a
    /// rejection, and a warm translation used it without recomputing
    /// anything.
    pub forged_loaded: bool,
    /// A fresh session's `check_all_report` rejected every such
    /// translation.
    pub forged_rejected: bool,
}

impl DiskAttackReport {
    /// Did the disk store uphold the persistence trust property?
    #[must_use]
    pub fn sound(&self) -> bool {
        self.corruption.output_stable
            && self.corruption.verdicts_stable
            && self.forged_phases == FORGED_PHASES.map(Phase::name)
            && self.forged_loaded
            && self.forged_rejected
    }
}

/// The phases whose store records carry theorems, in pipeline order.
const FORGED_PHASES: [Phase; 4] = [Phase::L1, Phase::L2Thm, Phase::Hl, Phase::Wa];

/// `a` with its theorem replaced by a mutant of the theorem's root:
/// `CorruptSymbol` where it applies, else `SwapRuleFamily`, which applies
/// at any root (`ExecTested` leaves carry no symbol to corrupt). `None` if
/// `a` carries no theorem.
fn corrupt_artifact(a: &Artifact) -> Option<Artifact> {
    let lie = |thm: &Thm| {
        let kind = if applicable(thm, Mutation::CorruptSymbol) {
            Mutation::CorruptSymbol
        } else {
            Mutation::SwapRuleFamily
        };
        mutate_at(thm, &[], kind).expect("the mutation applies at the root")
    };
    Some(match a {
        Artifact::L1 { fun, thm } => Artifact::L1 {
            fun: fun.clone(),
            thm: lie(thm),
        },
        Artifact::L2Thm(thm) => Artifact::L2Thm(lie(thm)),
        Artifact::Hl { fun, thm: Some(thm) } => Artifact::Hl {
            fun: fun.clone(),
            thm: Some(lie(thm)),
        },
        Artifact::Wa { fun, thm: Some(thm) } => Artifact::Wa {
            fun: fun.clone(),
            thm: Some(lie(thm)),
        },
        _ => return None,
    })
}

/// `segment` with its first `phase` artifact record that carries a theorem
/// rewritten to carry a mutant of that theorem ([`corrupt_artifact`]) — a
/// false theorem — through the store's own record codec, so the record is
/// sealed and framed as the store writes records.
fn forge_record(segment: &[u8], phase: Phase) -> Option<Vec<u8>> {
    let records = store::frames(segment).into_iter().flatten();
    records.into_iter().find_map(|span| {
        let (rec_phase, name, artifact) = store::decode_record(&segment[span.clone()]).ok()?;
        if rec_phase != phase {
            return None;
        }
        let forged = PhaseArtifact {
            digest: artifact.digest,
            value: corrupt_artifact(&artifact.value)?,
        };
        let record = store::encode_record(phase, &name, &forged);
        Some([&segment[..span.start], &record, &segment[span.end..]].concat())
    })
}

/// The segment of a cache directory that a checked translation of `src`
/// filled, the session options pointing at it, and the translation as
/// [`render`]ed.
struct Filled {
    segment: std::path::PathBuf,
    opts: Options,
    baseline: String,
}

/// The deterministic stats plus the WA functions: what corruption must
/// never change.
fn render(out: &Output) -> String {
    let mut s = out.stats.deterministic_summary();
    for f in out.wa.fns.values() {
        s.push_str(&f.to_string());
        s.push('\n');
    }
    s
}

impl Filled {
    /// Translates `src` through a session backed by a fresh scratch
    /// directory and checks it.
    fn new(src: &str, opts: &Options, seed: u64) -> Filled {
        let dir =
            std::env::temp_dir().join(format!("acr-audit-disk-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            cache_dir: Some(dir.clone()),
            ..opts.clone()
        };
        let sess = Session::new(opts.clone());
        let out = sess.translate(src).expect("audit source translates");
        sess.check_all_report(&out, 1).expect("baseline checks");
        Filled {
            segment: dir.join(store::SEGMENT),
            opts,
            baseline: render(&out),
        }
    }

    /// `rounds` of randomized corruption: each round mutates the segment
    /// (a bit flip inside a random record, truncation, appended garbage,
    /// or deletion), warm-starts a fresh session from the damaged
    /// directory, requires the baseline output plus a passing checker
    /// replay, and restores the segment. Removes the directory after.
    fn corrupt(self, src: &str, rounds: usize, seed: u64) -> CorruptionReport {
        let segment = &self.segment;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut report = CorruptionReport {
            mutations: 0,
            loads_degraded: 0,
            output_stable: true,
            verdicts_stable: true,
        };
        for _ in 0..rounds {
            let orig = std::fs::read(segment).expect("store populated");
            match rng.gen_range(0..4u8) {
                0 => {
                    let records: Vec<_> = store::frames(&orig)
                        .into_iter()
                        .filter_map(Result::ok)
                        .collect();
                    let span = records[rng.gen_range(0..records.len())].clone();
                    let mut bad = orig.clone();
                    bad[rng.gen_range(span)] ^= 1 << rng.gen_range(0..8u8);
                    std::fs::write(segment, &bad).expect("writable");
                }
                1 => {
                    let keep = rng.gen_range(0..orig.len());
                    std::fs::write(segment, &orig[..keep]).expect("writable");
                }
                2 => {
                    let garbage: Vec<u8> =
                        (0..rng.gen_range(1..128u8)).map(|_| rng.gen()).collect();
                    std::fs::write(segment, [&orig[..], &garbage].concat()).expect("writable");
                }
                _ => std::fs::remove_file(segment).expect("removable"),
            }
            report.mutations += 1;

            let sess = Session::new(self.opts.clone());
            let load = sess.load_report().clone();
            if load.rejected > 0 || load.version_skew {
                report.loads_degraded += 1;
            }
            let out = sess
                .translate(src)
                .expect("translation survives corruption");
            if render(&out) != self.baseline {
                report.output_stable = false;
            }
            if sess.check_all_report(&out, 1).is_err() {
                report.verdicts_stable = false;
            }
            // Restore for the next round (the load healed the segment and
            // the session's own save appended what it recomputed; the
            // explicit restore makes the rounds independent).
            std::fs::write(segment, &orig).expect("writable");
        }
        let _ = std::fs::remove_dir_all(segment.parent().expect("in the cache directory"));
        report
    }
}

/// Translates `src` through a disk-backed session and checks it, then
/// runs `rounds` of randomized on-disk corruption of the store's segment,
/// each warm-starting a fresh session from the damaged directory and
/// requiring byte-identical WA output plus a passing checker replay:
/// corruption may cost cache misses, never a changed verdict or changed
/// output bytes.
///
/// # Panics
///
/// Panics if `src` does not translate or the scratch directory is not
/// writable (audit environments control their tempdir).
#[must_use]
pub fn corrupt_disk_store(src: &str, opts: &Options, rounds: usize, seed: u64) -> CorruptionReport {
    Filled::new(src, opts, seed).corrupt(src, rounds, seed)
}

/// [`corrupt_disk_store`], preceded by forged records: for each
/// theorem-bearing phase, a false theorem is forged into one of its
/// artifact records (see [`DiskAttackReport::forged_rejected`]). The disk
/// path must uphold the same property as the in-memory caches, and the
/// cache directory is never evidence.
///
/// # Panics
///
/// As for [`corrupt_disk_store`].
#[must_use]
pub fn attack_disk_store(src: &str, opts: &Options, rounds: usize, seed: u64) -> DiskAttackReport {
    let filled = Filled::new(src, opts, seed);
    // A false theorem in the cache directory, under valid seals and
    // frames, as anyone who can write the directory can plant it: the warm
    // translation takes it from the store, and the check of a fresh
    // session, which remembers no earlier validation, must reject it.
    let segment = &filled.segment;
    let clean = std::fs::read(segment).expect("store populated");
    let (mut forged_phases, mut forged_loaded, mut forged_rejected) = (Vec::new(), true, true);
    for phase in FORGED_PHASES {
        let forged = forge_record(&clean, phase)
            .unwrap_or_else(|| panic!("no `{}` record carries a theorem", phase.name()));
        std::fs::write(segment, forged).expect("writable");
        let sess = Session::new(filled.opts.clone());
        let out = sess.translate(src).expect("a forged record translates");
        forged_loaded &= sess.load_report().rejected == 0 && out.stats.dirty_fns == 0;
        forged_rejected &= sess.check_all_report(&out, 1).is_err();
        forged_phases.push(phase.name());
    }
    std::fs::write(segment, &clean).expect("writable");
    DiskAttackReport {
        corruption: filled.corrupt(src, rounds, seed),
        forged_phases,
        forged_loaded,
        forged_rejected,
    }
}
