//! A CDCL SAT solver.
//!
//! The decision procedure behind word-level (bit-vector) reasoning in the
//! `solver` crate: verification conditions over machine words are
//! bit-blasted to CNF and decided here. Features: two-watched-literal
//! propagation, first-UIP conflict-driven clause learning with
//! non-chronological backjumping, VSIDS-style activity decision heuristic,
//! and Luby restarts.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b)
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! s.add_clause([Lit::pos(a), Lit::neg(b)]);
//! let model = s.solve().expect("satisfiable");
//! assert!(model[a.index()] && model[b.index()]);
//! ```

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// The variable's index (dense, starting at 0).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal with the given polarity (`true` = positive).
    #[must_use]
    pub fn with_polarity(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Is this a negative literal?
    #[must_use]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unset,
    True,
    False,
}

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// Statistics from a solve run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt_clauses: u64,
}

/// A satisfying assignment, indexable by [`Var`], [`Lit`], or registered
/// variable name.
///
/// Produced by [`Solver::solve_model`] / [`Solver::solve_model_limited`].
/// Named lookups go through the solver's name registry (see
/// [`Solver::new_named_var`]), which records names in registration order —
/// the *stable naming* contract the upper layers (bit-blasting model
/// extraction) rely on to reconstruct word values bit by bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
    names: Vec<(String, Var)>,
}

impl Model {
    /// The assignment of a variable.
    #[must_use]
    pub fn value(&self, v: Var) -> bool {
        self.values[v.index()]
    }

    /// The truth value of a literal under the model.
    #[must_use]
    pub fn lit(&self, l: Lit) -> bool {
        self.value(l.var()) ^ l.is_neg()
    }

    /// The assignment of a registered named variable.
    #[must_use]
    pub fn named(&self, name: &str) -> Option<bool> {
        self.names
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| self.value(v))
    }

    /// All registered names with their assignments, in registration order.
    pub fn named_iter(&self) -> impl Iterator<Item = (&str, bool)> {
        self.names.iter().map(|(n, v)| (n.as_str(), self.value(*v)))
    }

    /// The raw assignment vector, indexed by variable.
    #[must_use]
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }
}

/// A CDCL SAT solver over clauses added incrementally.
pub struct Solver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// watches[lit.code()] = clause indices watching that literal.
    watches: Vec<Vec<usize>>,
    assigns: Vec<Assign>,
    /// Decision level of each variable.
    level: Vec<u32>,
    /// Reason clause for each implied variable.
    reason: Vec<Option<usize>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    act_inc: f64,
    /// Set when an empty clause was added.
    unsat: bool,
    /// Pending unit clauses to assert at level 0.
    pending_units: Vec<Lit>,
    /// Registered variable names in registration order (model extraction).
    names: Vec<(String, Var)>,
    /// Statistics of the last [`Solver::solve`] run.
    pub stats: Stats,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses.len())
            .field("unsat", &self.unsat)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Solver {
        Solver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            unsat: false,
            pending_units: Vec::new(),
            names: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(Assign::Unset);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        v
    }

    /// Allocates a fresh variable registered under `name` for named model
    /// lookup. Names are kept in registration order; registering the same
    /// name twice keeps both entries (the first wins on lookup), so callers
    /// should register each name once.
    pub fn new_named_var(&mut self, name: impl Into<String>) -> Var {
        let v = self.new_var();
        self.names.push((name.into(), v));
        v
    }

    /// Number of variables allocated.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Adds a clause. An empty clause makes the instance trivially unsat.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_by_key(|l| l.0);
        lits.dedup();
        // Tautology?
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        match lits.len() {
            0 => self.unsat = true,
            1 => self.pending_units.push(lits[0]),
            _ => {
                let idx = self.clauses.len();
                self.watches[lits[0].code()].push(idx);
                self.watches[lits[1].code()].push(idx);
                self.clauses.push(Clause { lits });
            }
        }
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assigns[l.var().index()] {
            Assign::Unset => Assign::Unset,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) -> bool {
        match self.value(l) {
            Assign::True => true,
            Assign::False => false,
            Assign::Unset => {
                let v = l.var().index();
                self.assigns[v] = if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                };
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = l.negate();
            let mut i = 0;
            // take the watch list to satisfy the borrow checker
            let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Ensure falsified is at position 1.
                if self.clauses[ci].lits[0] == falsified {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == Assign::True {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let lk = self.clauses[ci].lits[k];
                    if self.value(lk) != Assign::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[lk.code()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, Some(ci)) {
                    self.watches[falsified.code()] = watch_list;
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[falsified.code()] = watch_list;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.act_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis; returns (learnt clause, backjump level).
    fn analyze(&mut self, confl: usize) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars as usize];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut reason_idx = confl;
        let mut trail_pos = self.trail.len();

        loop {
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[reason_idx].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump(v);
                    if self.level[v.index()] == cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var();
            seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            reason_idx = self.reason[pv.index()].expect("implied var has a reason");
        }
        let uip = p.expect("first UIP");
        let mut clause = vec![uip.negate()];
        clause.extend(learnt);
        // Backjump level: the second-highest level in the clause.
        let bj = clause[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        (clause, bj)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.trail_lim.len() as u32 > to_level {
            let start = self.trail_lim.pop().expect("level exists");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var().index();
                self.assigns[v] = Assign::Unset;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    /// Re-establishes the watched-literal invariant at decision level 0.
    ///
    /// Clauses added between `solve` calls may be unit, falsified, or have
    /// watches on literals that were already assigned (and hence will never
    /// be re-examined by `propagate`). Rebuilding the watch lists with
    /// non-false literals in front, asserting the discovered units, and
    /// propagating restores the invariant. Returns `false` on a level-0
    /// conflict (the instance is unsatisfiable).
    fn restore_watches(&mut self) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        for w in &mut self.watches {
            w.clear();
        }
        let mut clauses = std::mem::take(&mut self.clauses);
        let mut falsified = false;
        let mut units: Vec<Lit> = Vec::new();
        for (idx, c) in clauses.iter_mut().enumerate() {
            // Stable partition: non-false literals first (level-0
            // assignments are permanent, so a false literal here stays
            // false forever).
            c.lits.sort_by_key(|&l| u8::from(self.value(l) == Assign::False));
            let nonfalse = c
                .lits
                .iter()
                .take_while(|&&l| self.value(l) != Assign::False)
                .count();
            match nonfalse {
                0 => falsified = true,
                1 => {
                    if self.value(c.lits[0]) == Assign::Unset {
                        units.push(c.lits[0]);
                    }
                    if c.lits.len() >= 2 {
                        self.watches[c.lits[0].code()].push(idx);
                        self.watches[c.lits[1].code()].push(idx);
                    }
                }
                _ => {
                    self.watches[c.lits[0].code()].push(idx);
                    self.watches[c.lits[1].code()].push(idx);
                }
            }
        }
        self.clauses = clauses;
        if falsified {
            return false;
        }
        for u in units {
            if !self.enqueue(u, None) {
                return false;
            }
        }
        self.propagate().is_none()
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<Var> = None;
        let mut best_act = -1.0;
        for i in 0..self.num_vars as usize {
            if self.assigns[i] == Assign::Unset && self.activity[i] > best_act {
                best_act = self.activity[i];
                best = Some(Var(i as u32));
            }
        }
        // Default polarity: negative (zeros first) — works well for
        // bit-blasted arithmetic.
        best.map(Lit::neg)
    }

    /// Solves the instance: `Some(model)` if satisfiable (indexed by
    /// variable), `None` if unsatisfiable.
    pub fn solve(&mut self) -> Option<Vec<bool>> {
        self.solve_limited(u64::MAX)
            .expect("no conflict limit in plain solve")
    }

    /// Solves and wraps a satisfying assignment as a [`Model`] carrying the
    /// solver's name registry: `Some(model)` if satisfiable, `None` if
    /// unsatisfiable.
    pub fn solve_model(&mut self) -> Option<Model> {
        self.solve_model_limited(u64::MAX)
            .expect("no conflict limit in plain solve")
    }

    /// [`Solver::solve_model`] with a conflict budget.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` if the conflict limit was exceeded before a
    /// verdict was reached.
    #[allow(clippy::result_unit_err)]
    pub fn solve_model_limited(&mut self, max_conflicts: u64) -> Result<Option<Model>, ()> {
        Ok(self.solve_limited(max_conflicts)?.map(|values| Model {
            values,
            names: self.names.clone(),
        }))
    }

    /// Solves with a conflict budget; `Err(())` when the budget runs out.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` if the conflict limit was exceeded before a
    /// verdict was reached.
    #[allow(clippy::result_unit_err)]
    pub fn solve_limited(&mut self, max_conflicts: u64) -> Result<Option<Vec<bool>>, ()> {
        if self.unsat {
            return Ok(None);
        }
        // Support incremental use: a previous call may have left decisions
        // on the trail (budget exhaustion) or clauses may have been added
        // whose watches point at literals already false at level 0.
        self.backtrack(0);
        // Assert pending units at level 0.
        let units = std::mem::take(&mut self.pending_units);
        for u in units {
            if !self.enqueue(u, None) {
                self.unsat = true;
                return Ok(None);
            }
        }
        if !self.restore_watches() {
            self.unsat = true;
            return Ok(None);
        }

        let mut restart_threshold = 100u64;
        let mut conflicts_since_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.stats.conflicts > max_conflicts {
                    return Err(());
                }
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return Ok(None);
                }
                let (clause, bj) = self.analyze(confl);
                self.backtrack(bj);
                self.act_inc /= 0.95;
                if clause.len() == 1 {
                    if !self.enqueue(clause[0], None) {
                        self.unsat = true;
                        return Ok(None);
                    }
                } else {
                    let idx = self.clauses.len();
                    self.watches[clause[0].code()].push(idx);
                    self.watches[clause[1].code()].push(idx);
                    let first = clause[0];
                    self.clauses.push(Clause { lits: clause });
                    self.stats.learnt_clauses += 1;
                    self.enqueue(first, Some(idx));
                }
            } else if conflicts_since_restart >= restart_threshold {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_threshold = restart_threshold * 3 / 2;
                self.backtrack(0);
            } else if let Some(decision) = self.decide() {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(decision, None);
            } else {
                // All variables assigned: a model.
                let model = self
                    .assigns
                    .iter()
                    .map(|a| *a == Assign::True)
                    .collect();
                self.backtrack(0);
                return Ok(Some(model));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([Lit::pos(v[0])]);
        assert!(s.solve().unwrap()[0]);

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([Lit::pos(v[0])]);
        s.add_clause([Lit::neg(v[0])]);
        assert!(s.solve().is_none());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        lits(&mut s, 1);
        s.add_clause([]);
        assert!(s.solve().is_none());
    }

    #[test]
    fn tautologies_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([Lit::pos(v[0]), Lit::neg(v[0])]);
        assert!(s.solve().is_some());
    }

    #[test]
    fn chain_implication() {
        // x0 ∧ (x_i → x_{i+1}) forces all true.
        let mut s = Solver::new();
        let v = lits(&mut s, 20);
        s.add_clause([Lit::pos(v[0])]);
        for i in 0..19 {
            s.add_clause([Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        let m = s.solve().unwrap();
        assert!(m.iter().all(|&b| b));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance.
        let mut s = Solver::new();
        // p[i][j] = pigeon i in hole j
        let p: Vec<Vec<Var>> = (0..3).map(|_| lits(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause([Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        assert!(s.solve().is_none());
        assert!(s.stats.conflicts > 0, "CDCL actually ran");
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, … encoded as CNF; satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        for i in 0..9 {
            s.add_clause([Lit::pos(v[i]), Lit::pos(v[i + 1])]);
            s.add_clause([Lit::neg(v[i]), Lit::neg(v[i + 1])]);
        }
        let m = s.solve().unwrap();
        for i in 0..9 {
            assert_ne!(m[i], m[i + 1]);
        }
    }

    #[test]
    fn models_satisfy_all_clauses_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(3..12);
            let m = rng.gen_range(5..40);
            let mut s = Solver::new();
            let vars = lits(&mut s, n);
            let mut clauses = Vec::new();
            for _ in 0..m {
                let len = rng.gen_range(1..4);
                let c: Vec<Lit> = (0..len)
                    .map(|_| {
                        Lit::with_polarity(vars[rng.gen_range(0..n)], rng.gen_bool(0.5))
                    })
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
            }
            match s.solve() {
                Some(model) => {
                    for c in &clauses {
                        // skip tautologies (ignored by the solver)
                        let taut = c.iter().any(|l| c.contains(&l.negate()));
                        if !taut {
                            assert!(
                                c.iter().any(|l| model[l.var().index()] != l.is_neg()),
                                "model must satisfy every clause"
                            );
                        }
                    }
                }
                None => {
                    // Cross-check with brute force.
                    let mut found = false;
                    'outer: for bits in 0u32..(1 << n) {
                        for c in &clauses {
                            let sat = c.iter().any(|l| {
                                let val = bits >> l.var().index() & 1 == 1;
                                val != l.is_neg()
                            });
                            if !sat {
                                continue 'outer;
                            }
                        }
                        found = true;
                        break;
                    }
                    assert!(!found, "solver said UNSAT but a model exists");
                }
            }
        }
    }

    #[test]
    fn conflict_limit() {
        // Pigeonhole 6 into 5 is hard enough to exceed a tiny budget.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..6).map(|_| lits(&mut s, 5)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..5 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause([Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        assert_eq!(s.solve_limited(5), Err(()));
    }

    #[test]
    fn named_model_extraction() {
        let mut s = Solver::new();
        let a = s.new_named_var("a");
        let b = s.new_named_var("b");
        let c = s.new_var(); // unnamed internal variable
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a), Lit::pos(b)]);
        s.add_clause([Lit::pos(c), Lit::pos(b)]);
        let m = s.solve_model().expect("satisfiable");
        assert_eq!(m.named("a"), Some(true));
        assert_eq!(m.named("b"), Some(true));
        assert_eq!(m.named("c"), None);
        assert!(m.value(a) && m.lit(Lit::pos(b)) && !m.lit(Lit::neg(b)));
        let names: Vec<&str> = m.named_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"], "registration order is stable");
        assert_eq!(m.as_slice().len(), s.num_vars());
    }
}
