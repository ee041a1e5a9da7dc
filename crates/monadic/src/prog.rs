//! The deep-embedded monadic program language.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fmt;

use ir::expr::Expr;
use ir::guard::GuardKind;
use ir::intern::{InternStats, Internable, Interned, Interner};
use ir::metrics::SpecMetrics;
use ir::ty::{Ty, TypeEnv};
use ir::update::Update;

/// An interned (hash-consed) program handle — the replacement for
/// `Box<Prog>` in the term representation (see `ir::intern`).
pub type IProg = Interned<Prog>;

/// A monadic program (Table 1 combinators plus structured control flow).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Prog {
    /// `return e` — yield a value without touching the state.
    Return(Expr),
    /// `gets (λs. e)` — read the state. Semantically identical to `Return`
    /// (expressions may read the state anyway); kept separate so printed
    /// specifications match the paper's figures.
    Gets(Expr),
    /// `modify m` — update the state.
    Modify(Update),
    /// `guard g` — fail (irrecoverably) unless `g` holds.
    Guard(GuardKind, Expr),
    /// `throw e` — raise an exception.
    Throw(Expr),
    /// `fail` — irrecoverable failure (`λs. (∅, True)`).
    Fail,
    /// `do v ← L; R od`.
    Bind(IProg, String, IProg),
    /// `do (v₁, …, vₙ) ← L; R od` — tuple-pattern bind (used to destructure
    /// `whileLoop` iterator values, as in the paper's Fig 6).
    BindTuple(IProg, Vec<String>, IProg),
    /// `condition c L R`.
    Condition(Expr, IProg, IProg),
    /// `whileLoop c B i` — `vars` are the loop-iterator names bound in both
    /// the condition and body; the body yields the next iterator value
    /// (a tuple when there are several variables). The loop's value is the
    /// final iterator value.
    While {
        /// Iterator variable names.
        vars: Vec<String>,
        /// Loop condition over the iterator variables and the state.
        cond: Expr,
        /// Loop body, yielding the next iterator value.
        body: IProg,
        /// Initial iterator values.
        init: Vec<Expr>,
    },
    /// `L <catch> (λe. H)` — run `L`; on an exception bind it and run `H`.
    Catch(IProg, String, IProg),
    /// Call a named function with argument expressions; yields its result.
    Call {
        /// Callee name.
        fname: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `exec_concrete M` — run a low-level (byte-heap) program from
    /// heap-abstracted code (Sec 4.6).
    ExecConcrete(IProg),
    /// `exec_abstract M` — run a heap-abstracted program from low-level code.
    ExecAbstract(IProg),
}

/// One immediate part of a program node, as [`Prog::each_child`] hands it
/// out.
#[derive(Clone, Copy, Debug)]
pub enum Child<'a> {
    /// An expression.
    Expr(&'a Expr),
    /// The update of a `modify` (its expressions are bound by nothing).
    Update(&'a Update),
    /// A sub-program.
    Prog(&'a IProg),
}

impl Internable for Prog {
    fn shallow_size(&self) -> usize {
        self.term_size()
    }

    fn interner() -> &'static Interner<Prog> {
        static INTERNER: std::sync::OnceLock<Interner<Prog>> = std::sync::OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

/// Counters of the `Prog` interner (the `Expr` counters live in
/// `ir::intern::expr_stats`).
#[must_use]
pub fn intern_stats() -> InternStats {
    <Prog as Internable>::interner().stats()
}

impl Prog {
    /// `return e`.
    #[must_use]
    pub fn ret(e: Expr) -> Prog {
        Prog::Return(e)
    }

    /// `skip ≡ return ()`.
    #[must_use]
    pub fn skip() -> Prog {
        Prog::Return(Expr::unit())
    }

    /// `do v ← l; r od`.
    #[must_use]
    pub fn bind(l: Prog, v: impl Into<String>, r: Prog) -> Prog {
        Prog::Bind(IProg::new(l), v.into(), IProg::new(r))
    }

    /// `do (v₁, …, vₙ) ← l; r od`.
    #[must_use]
    pub fn bind_tuple(l: Prog, vs: Vec<String>, r: Prog) -> Prog {
        Prog::BindTuple(IProg::new(l), vs, IProg::new(r))
    }

    /// Sequencing discarding the first value: `do _ ← l; r od`.
    /// Simplifies `skip ; r` to `r` and `l ; skip-return-unit` patterns are
    /// kept (they may carry state effects).
    #[must_use]
    pub fn then(l: Prog, r: Prog) -> Prog {
        if l == Prog::skip() {
            r
        } else {
            Prog::bind(l, "_", r)
        }
    }

    /// `condition c t e`.
    #[must_use]
    pub fn cond(c: Expr, t: Prog, e: Prog) -> Prog {
        Prog::Condition(c, IProg::new(t), IProg::new(e))
    }

    /// `guard g`.
    #[must_use]
    pub fn guard(kind: GuardKind, g: Expr) -> Prog {
        Prog::Guard(kind, g)
    }

    /// Sequences a list of programs, discarding intermediate values.
    #[must_use]
    pub fn seq_all(progs: impl IntoIterator<Item = Prog>) -> Prog {
        let mut items: Vec<Prog> = progs.into_iter().collect();
        match items.pop() {
            None => Prog::skip(),
            Some(last) => items.into_iter().rev().fold(last, |acc, p| Prog::then(p, acc)),
        }
    }

    /// Calls `f` on each immediate part of this node, in order, with the
    /// names the node binds over that part: a bind's continuation is under
    /// its pattern, a handler under the exception variable, and a loop's
    /// condition and body under its iterators (its initial values are not).
    /// This is the one decomposition of programs (as [`Expr::children`] is
    /// of expressions); [`Prog::try_map_children`] takes the parts back in
    /// the same order. It allocates nothing.
    pub fn each_child<'a>(&'a self, f: &mut impl FnMut(Child<'a>, &'a [String])) {
        match self {
            Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => {
                f(Child::Expr(e), &[]);
            }
            Prog::Modify(u) => f(Child::Update(u), &[]),
            Prog::Fail => {}
            Prog::Bind(l, v, r) | Prog::Catch(l, v, r) => {
                f(Child::Prog(l), &[]);
                f(Child::Prog(r), std::slice::from_ref(v));
            }
            Prog::BindTuple(l, vs, r) => {
                f(Child::Prog(l), &[]);
                f(Child::Prog(r), vs);
            }
            Prog::Condition(c, t, e) => {
                f(Child::Expr(c), &[]);
                f(Child::Prog(t), &[]);
                f(Child::Prog(e), &[]);
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => {
                f(Child::Expr(cond), vars);
                f(Child::Prog(body), vars);
                for i in init {
                    f(Child::Expr(i), &[]);
                }
            }
            Prog::Call { args, .. } => {
                for a in args {
                    f(Child::Expr(a), &[]);
                }
            }
            Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => f(Child::Prog(p), &[]),
        }
    }

    /// Rebuilds this node (same variant, binder names, guard kind and
    /// callee) with each expression replaced by `fe(e, bound)` and each
    /// sub-program by `fp(p, bound)`, in [`Prog::each_child`]'s order and
    /// with its `bound` names; an update's expressions go through `fe` one
    /// by one. The first error abandons the rebuild.
    ///
    /// # Errors
    ///
    /// The first error `fe` or `fp` returns.
    pub fn try_map_children<E>(
        &self,
        fe: &mut impl FnMut(&Expr, &[String]) -> Result<Expr, E>,
        fp: &mut impl FnMut(&IProg, &[String]) -> Result<IProg, E>,
    ) -> Result<Prog, E> {
        Ok(match self {
            Prog::Return(e) => Prog::Return(fe(e, &[])?),
            Prog::Gets(e) => Prog::Gets(fe(e, &[])?),
            Prog::Throw(e) => Prog::Throw(fe(e, &[])?),
            Prog::Guard(k, e) => Prog::Guard(k.clone(), fe(e, &[])?),
            Prog::Modify(u) => Prog::Modify(u.try_map_exprs(&mut |e| fe(e, &[]))?),
            Prog::Fail => Prog::Fail,
            Prog::Bind(l, v, r) => {
                Prog::Bind(fp(l, &[])?, v.clone(), fp(r, std::slice::from_ref(v))?)
            }
            Prog::BindTuple(l, vs, r) => Prog::BindTuple(fp(l, &[])?, vs.clone(), fp(r, vs)?),
            Prog::Catch(l, v, r) => {
                Prog::Catch(fp(l, &[])?, v.clone(), fp(r, std::slice::from_ref(v))?)
            }
            Prog::Condition(c, t, e) => Prog::Condition(fe(c, &[])?, fp(t, &[])?, fp(e, &[])?),
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => Prog::While {
                vars: vars.clone(),
                cond: fe(cond, vars)?,
                body: fp(body, vars)?,
                init: init.iter().map(|i| fe(i, &[])).collect::<Result<_, E>>()?,
            },
            Prog::Call { fname, args } => Prog::Call {
                fname: fname.clone(),
                args: args.iter().map(|a| fe(a, &[])).collect::<Result<_, E>>()?,
            },
            Prog::ExecConcrete(p) => Prog::ExecConcrete(fp(p, &[])?),
            Prog::ExecAbstract(p) => Prog::ExecAbstract(fp(p, &[])?),
        })
    }

    /// [`Prog::try_map_children`] with rewrites that cannot fail.
    #[must_use]
    pub fn map_children(
        &self,
        fe: &mut impl FnMut(&Expr, &[String]) -> Expr,
        fp: &mut impl FnMut(&IProg, &[String]) -> IProg,
    ) -> Prog {
        let Ok(p) = self
            .try_map_children::<Infallible>(&mut |e, bound| Ok(fe(e, bound)), &mut |p, bound| {
                Ok(fp(p, bound))
            });
        p
    }

    /// Number of AST nodes including contained expressions (term size).
    /// O(immediate children): interned sub-programs carry their size.
    #[must_use]
    pub fn term_size(&self) -> usize {
        let mut n = 1;
        self.each_child(&mut |c, _| {
            n += match c {
                Child::Expr(e) => e.term_size(),
                Child::Update(u) => u.term_size(),
                Child::Prog(p) => p.size(),
            };
        });
        n
    }

    /// Free lambda-bound variables (iterator/bind variables are binders).
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.each_child(&mut |c, bound| {
            let fv = match c {
                Child::Expr(e) => e.free_vars(),
                Child::Update(u) => u.free_vars(),
                Child::Prog(p) => p.free_vars(),
            };
            out.extend(fv.into_iter().filter(|v| !bound.contains(v)));
        });
        out
    }

    /// Visits every contained expression (preorder over the program).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.each_child(&mut |c, _| match c {
            Child::Expr(e) => f(e),
            Child::Update(u) => u.exprs().into_iter().for_each(&mut *f),
            Child::Prog(p) => p.visit_exprs(f),
        });
    }

    /// Rewrites every contained expression with `f` (does not descend into
    /// binder structure — names are left untouched).
    #[must_use]
    pub fn map_exprs(&self, f: &impl Fn(&Expr) -> Expr) -> Prog {
        self.map_children(&mut |e, _| f(e), &mut |p, _| IProg::new(p.map_exprs(f)))
    }

    /// Substitutes a state-stored local read by an expression everywhere
    /// (used by local-variable lifting).
    #[must_use]
    pub fn subst_local(&self, name: &str, repl: &Expr) -> Prog {
        self.map_exprs(&|e| e.subst_local(name, repl))
    }

    /// Capture-avoiding substitution of the free occurrences of variable
    /// `name` by `repl`: a part under a binder of `name` is left alone.
    /// Returns `None` when a binder would capture a free variable of
    /// `repl`.
    #[must_use]
    pub fn subst_var(&self, name: &str, repl: &Expr) -> Option<Prog> {
        self.subst_var_free(name, repl, &repl.free_vars())
    }

    fn subst_var_free(&self, name: &str, repl: &Expr, free: &BTreeSet<String>) -> Option<Prog> {
        // Whether a part under `bound` is substituted; `Err` is a capture.
        let enter = |bound: &[String]| {
            if bound.iter().any(|b| b == name) {
                Ok(false)
            } else if bound.iter().any(|b| free.contains(b)) {
                Err(())
            } else {
                Ok(true)
            }
        };
        self.try_map_children(
            &mut |e, bound| {
                Ok(if enter(bound)? {
                    e.subst_var(name, repl)
                } else {
                    e.clone()
                })
            },
            &mut |p, bound| {
                if !enter(bound)? {
                    return Ok(p.clone());
                }
                p.subst_var_free(name, repl, free).map(IProg::new).ok_or(())
            },
        )
        .ok()
    }

    /// Applies `f` to this program and every sub-program (preorder),
    /// including those under `exec_concrete`/`exec_abstract` markers.
    pub fn visit(&self, f: &mut impl FnMut(&Prog)) {
        f(self);
        self.each_child(&mut |c, _| {
            if let Child::Prog(p) = c {
                p.visit(f);
            }
        });
    }

    /// Rebuilds the program bottom-up: every sub-program is rewritten
    /// first, then `f` may replace the rebuilt node (`None` keeps it). The
    /// replacement is not rewritten again. Expressions and binder names
    /// are left untouched.
    #[must_use]
    pub fn rewrite(&self, f: &impl Fn(&Prog) -> Option<Prog>) -> Prog {
        // A child the rewrite leaves as it was keeps its handle: no second
        // intern lookup for an unchanged subtree.
        let rebuilt = self.map_children(&mut |e, _| e.clone(), &mut |p, _| {
            let q = p.rewrite(f);
            if q == **p {
                p.clone()
            } else {
                IProg::new(q)
            }
        });
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// Is this an `exec_concrete`/`exec_abstract` level-mixing marker?
    #[must_use]
    pub fn mixes_levels(&self) -> bool {
        matches!(self, Prog::ExecConcrete(_) | Prog::ExecAbstract(_))
    }

    /// The names of all functions this program calls (directly, at any
    /// nesting depth, including inside `exec_concrete`/`exec_abstract`
    /// level-mixing markers).
    #[must_use]
    pub fn calls(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |p| {
            if let Prog::Call { fname, .. } = p {
                out.insert(fname.clone());
            }
        });
        out
    }

    /// Does the program contain a `Throw` (outside of `catch` left sides is
    /// not distinguished — used as a conservative check by type
    /// specialisation)?
    #[must_use]
    pub fn contains_throw(&self) -> bool {
        match self {
            Prog::Throw(_) => true,
            Prog::Return(_) | Prog::Gets(_) | Prog::Modify(_) | Prog::Guard(..) | Prog::Fail => {
                false
            }
            Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) => {
                l.contains_throw() || r.contains_throw()
            }
            // A catch handles exceptions of its left side; only the
            // handler's throws escape.
            Prog::Catch(_, _, r) => r.contains_throw(),
            Prog::Condition(_, t, e) => t.contains_throw() || e.contains_throw(),
            Prog::While { body, .. } => body.contains_throw(),
            // Conservative: calls may throw (resolved by the caller).
            Prog::Call { .. } => true,
            Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => p.contains_throw(),
        }
    }

    fn needs_parens(&self) -> bool {
        matches!(
            self,
            Prog::Bind(..)
                | Prog::BindTuple(..)
                | Prog::Condition(..)
                | Prog::While { .. }
                | Prog::Catch(..)
        )
    }

    fn fmt_prog(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Prog::Return(e) => {
                if expr_is_atomic(e) {
                    write!(f, "return {e}")
                } else {
                    write!(f, "return ({e})")
                }
            }
            Prog::Gets(e) => write!(f, "gets (λs. {e})"),
            Prog::Modify(u) => write!(f, "modify (λs. {u})"),
            Prog::Guard(_, e) => write!(f, "guard (λs. {e})"),
            Prog::Throw(e) => {
                if expr_is_atomic(e) {
                    write!(f, "throw {e}")
                } else {
                    write!(f, "throw ({e})")
                }
            }
            Prog::Fail => write!(f, "fail"),
            Prog::Bind(..) | Prog::BindTuple(..) => {
                writeln!(f, "do")?;
                self.fmt_do_chain(f, indent + 1)?;
                write!(f, "\n{pad}od")
            }
            Prog::Condition(c, t, e) => {
                writeln!(f, "condition (λs. {c})")?;
                write!(f, "{pad}  (")?;
                t.fmt_prog(f, indent + 1)?;
                writeln!(f, ")")?;
                write!(f, "{pad}  (")?;
                e.fmt_prog(f, indent + 1)?;
                write!(f, ")")
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => {
                let vs = vars.join(", ");
                writeln!(f, "whileLoop (λ({vs}) s. {cond})")?;
                write!(f, "{pad}  (λ({vs}). ")?;
                body.fmt_prog(f, indent + 1)?;
                writeln!(f, ")")?;
                let is: Vec<String> = init.iter().map(|e| e.to_string()).collect();
                write!(f, "{pad}  ({})", is.join(", "))
            }
            Prog::Catch(l, v, r) => {
                write!(f, "try ")?;
                l.fmt_prog(f, indent + 1)?;
                write!(f, "\n{pad}catch (λ{v}. ")?;
                r.fmt_prog(f, indent + 1)?;
                write!(f, ")")
            }
            Prog::Call { fname, args } => {
                write!(f, "{fname}'")?;
                for a in args {
                    write!(f, " ({a})")?;
                }
                Ok(())
            }
            Prog::ExecConcrete(p) => {
                write!(f, "exec_concrete (")?;
                p.fmt_prog(f, indent + 1)?;
                write!(f, ")")
            }
            Prog::ExecAbstract(p) => {
                write!(f, "exec_abstract (")?;
                p.fmt_prog(f, indent + 1)?;
                write!(f, ")")
            }
        }
    }

    /// Collects the display spine of a bind chain: a list of
    /// `(pattern, program)` lines plus the final program. Left-nested binds
    /// are flattened when no binder of the inner chain is referenced by the
    /// outer continuation (pure display normalisation — the program and the
    /// theorems about it are untouched).
    fn collect_lines<'p>(&'p self, out: &mut Vec<(DisplayPat<'p>, &'p Prog)>) -> &'p Prog {
        match self {
            Prog::Bind(l, v, r) => {
                let safe = {
                    let mut inner_binders = Vec::new();
                    l.spine_binders(&mut inner_binders);
                    let cont_fv = r.free_vars();
                    inner_binders
                        .iter()
                        .all(|b| *b == "_" || !cont_fv.contains(*b))
                };
                if safe {
                    let lf = l.collect_lines(out);
                    out.push((DisplayPat::Single(v), lf));
                } else {
                    out.push((DisplayPat::Single(v), l));
                }
                r.collect_lines(out)
            }
            Prog::BindTuple(l, vs, r) => {
                out.push((DisplayPat::Tuple(vs), l));
                r.collect_lines(out)
            }
            other => other,
        }
    }

    /// The binder names introduced along the spine of a bind chain.
    fn spine_binders<'p>(&'p self, out: &mut Vec<&'p str>) {
        match self {
            Prog::Bind(l, v, r) => {
                l.spine_binders(out);
                out.push(v);
                r.spine_binders(out);
            }
            Prog::BindTuple(l, vs, r) => {
                l.spine_binders(out);
                for v in vs {
                    out.push(v);
                }
                r.spine_binders(out);
            }
            _ => {}
        }
    }

    /// Renders the spine of a bind chain as `do`-notation lines, dropping
    /// `_ ← return ()` noise and collapsing adjacent duplicate guards.
    fn fmt_do_chain(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let mut lines = Vec::new();
        let final_prog = self.collect_lines(&mut lines);
        let skip = Prog::skip();
        let mut rendered: Vec<(&DisplayPat, &Prog)> = Vec::new();
        for (pat, prog) in &lines {
            if matches!(pat, DisplayPat::Single(v) if *v == "_") {
                if *prog == &skip {
                    continue;
                }
                if matches!(prog, Prog::Guard(..)) {
                    if let Some((DisplayPat::Single("_"), prev)) = rendered.last() {
                        if prev == prog {
                            continue;
                        }
                    }
                }
            }
            rendered.push((pat, prog));
        }
        for (pat, prog) in rendered {
            write!(f, "{pad}")?;
            match pat {
                DisplayPat::Single(v) if *v != "_" => write!(f, "{v} ← ")?,
                DisplayPat::Single(_) => {}
                DisplayPat::Tuple(vs) => write!(f, "({}) ← ", vs.join(", "))?,
            }
            if prog.needs_parens() {
                write!(f, "(")?;
                prog.fmt_prog(f, indent)?;
                write!(f, ")")?;
            } else {
                prog.fmt_prog(f, indent)?;
            }
            writeln!(f, ";")?;
        }
        write!(f, "{pad}")?;
        final_prog.fmt_prog(f, indent)
    }
}

/// A display pattern on the left of `←`.
enum DisplayPat<'p> {
    Single(&'p str),
    Tuple(&'p [String]),
}

impl<'p> PartialEq for DisplayPat<'p> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DisplayPat::Single(a), DisplayPat::Single(b)) => a == b,
            (DisplayPat::Tuple(a), DisplayPat::Tuple(b)) => a == b,
            _ => false,
        }
    }
}

/// Expressions that print unambiguously without parentheses.
fn expr_is_atomic(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) | Expr::Tuple(_)
            | Expr::Field(..)
            | Expr::Proj(..)
    )
}

impl fmt::Display for Prog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prog(f, 0)
    }
}

/// A function at the monadic level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonadicFn {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Ty)>,
    /// Return type.
    pub ret_ty: Ty,
    /// When present, the function still keeps its locals in the state
    /// (L1 level): the list is the frame to allocate on call. After
    /// local-variable lifting this is `None` and parameters are
    /// lambda-bound.
    pub frame: Option<Vec<(String, Ty)>>,
    /// The body.
    pub body: Prog,
}

impl MonadicFn {
    /// Complexity metrics of this function's printed specification.
    #[must_use]
    pub fn metrics(&self) -> SpecMetrics {
        let wrapped = ir::metrics::wrap_text(&self.to_string(), 100);
        SpecMetrics {
            lines: ir::metrics::spec_lines(&wrapped),
            term_size: self.body.term_size(),
        }
    }
}

impl fmt::Display for MonadicFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'", self.name)?;
        for (p, _) in &self.params {
            write!(f, " {p}")?;
        }
        write!(f, " ≡\n  ")?;
        self.body.fmt_prog(f, 1)?;
        writeln!(f)
    }
}

/// The program context: functions, layouts and global initial values.
#[derive(Clone, Debug, Default)]
pub struct ProgramCtx {
    /// Structure layouts.
    pub tenv: TypeEnv,
    /// Functions by name.
    pub fns: BTreeMap<String, MonadicFn>,
    /// Global variables with initial values.
    pub globals: Vec<(String, ir::value::Value)>,
}

impl ProgramCtx {
    /// Looks up a function.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&MonadicFn> {
        self.fns.get(name)
    }

    /// An initial concrete state with globals initialised.
    #[must_use]
    pub fn initial_state(&self) -> ir::state::State {
        let mut st = ir::state::State::conc_empty();
        for (n, v) in &self.globals {
            st.set_global(n, v.clone());
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::expr::BinOp;

    #[test]
    fn do_notation_rendering() {
        let p = Prog::bind(
            Prog::Gets(Expr::Local("x".into())),
            "t",
            Prog::ret(Expr::binop(BinOp::Add, Expr::var("t"), Expr::u32(1))),
        );
        let s = p.to_string();
        assert!(s.starts_with("do"), "{s}");
        assert!(s.contains("t ← gets (λs. ´x);"), "{s}");
        assert!(s.contains("return (t + 1)"), "{s}");
        assert!(s.trim_end().ends_with("od"), "{s}");
    }

    #[test]
    fn free_vars_respect_binders() {
        let p = Prog::bind(
            Prog::ret(Expr::var("a")),
            "v",
            Prog::ret(Expr::binop(BinOp::Add, Expr::var("v"), Expr::var("b"))),
        );
        let fv = p.free_vars();
        assert!(fv.contains("a"));
        assert!(fv.contains("b"));
        assert!(!fv.contains("v"));
    }

    #[test]
    fn while_binds_iterators() {
        let p = Prog::While {
            vars: vec!["list".into(), "rev".into()],
            cond: Expr::binop(BinOp::Ne, Expr::var("list"), Expr::null(ir::ty::Ty::Unit)),
            body: IProg::new(Prog::ret(Expr::Tuple(vec![
                Expr::var("rev"),
                Expr::var("list"),
            ]))),
            init: vec![Expr::var("hd"), Expr::null(ir::ty::Ty::Unit)],
        };
        let fv = p.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["hd".to_owned()]);
        let s = p.to_string();
        assert!(s.contains("whileLoop (λ(list, rev) s."), "{s}");
    }

    #[test]
    fn throw_analysis() {
        assert!(Prog::Throw(Expr::unit()).contains_throw());
        let caught = Prog::Catch(
            IProg::new(Prog::Throw(Expr::unit())),
            "e".into(),
            IProg::new(Prog::skip()),
        );
        assert!(!caught.contains_throw());
    }

    #[test]
    fn seq_all_folds() {
        let p = Prog::seq_all([Prog::skip(), Prog::ret(Expr::u32(1))]);
        assert_eq!(p, Prog::ret(Expr::u32(1)));
        assert_eq!(Prog::seq_all([]), Prog::skip());
    }

    #[test]
    fn term_size() {
        let p = Prog::bind(Prog::ret(Expr::u32(1)), "v", Prog::ret(Expr::var("v")));
        // Bind + Return + Lit + Return + Var = 5
        assert_eq!(p.term_size(), 5);
    }
}
