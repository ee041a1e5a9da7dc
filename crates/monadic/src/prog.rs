//! The deep-embedded monadic program language.

use std::collections::{BTreeMap, BTreeSet};
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

    /// Number of AST nodes including contained expressions (term size).
    /// O(immediate children): interned sub-programs carry their size.
    #[must_use]
    pub fn term_size(&self) -> usize {
        match self {
            Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => {
                1 + e.term_size()
            }
            Prog::Modify(u) => 1 + u.term_size(),
            Prog::Fail => 1,
            Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) | Prog::Catch(l, _, r) => {
                1 + l.size() + r.size()
            }
            Prog::Condition(c, t, e) => 1 + c.term_size() + t.size() + e.size(),
            Prog::While {
                cond, body, init, ..
            } => {
                1 + cond.term_size()
                    + body.size()
                    + init.iter().map(Expr::term_size).sum::<usize>()
            }
            Prog::Call { args, .. } => 1 + args.iter().map(Expr::term_size).sum::<usize>(),
            Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => 1 + p.size(),
        }
    }

    /// Free lambda-bound variables (iterator/bind variables are binders).
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<String> {
        match self {
            Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => e.free_vars(),
            Prog::Modify(u) => u.free_vars(),
            Prog::Fail => BTreeSet::new(),
            Prog::Bind(l, v, r) | Prog::Catch(l, v, r) => {
                let mut out = l.free_vars();
                let mut rv = r.free_vars();
                rv.remove(v);
                out.extend(rv);
                out
            }
            Prog::BindTuple(l, vs, r) => {
                let mut out = l.free_vars();
                let mut rv = r.free_vars();
                for v in vs {
                    rv.remove(v);
                }
                out.extend(rv);
                out
            }
            Prog::Condition(c, t, e) => {
                let mut out = c.free_vars();
                out.extend(t.free_vars());
                out.extend(e.free_vars());
                out
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => {
                let mut inner = cond.free_vars();
                inner.extend(body.free_vars());
                for v in vars {
                    inner.remove(v);
                }
                for i in init {
                    inner.extend(i.free_vars());
                }
                inner
            }
            Prog::Call { args, .. } => args.iter().flat_map(Expr::free_vars).collect(),
            Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => p.free_vars(),
        }
    }

    /// Visits every contained expression (preorder over the program).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Prog::Return(e) | Prog::Gets(e) | Prog::Throw(e) | Prog::Guard(_, e) => f(e),
            Prog::Modify(u) => u.exprs().into_iter().for_each(f),
            Prog::Fail => {}
            Prog::Bind(l, _, r) | Prog::BindTuple(l, _, r) | Prog::Catch(l, _, r) => {
                l.visit_exprs(f);
                r.visit_exprs(f);
            }
            Prog::Condition(c, t, e) => {
                f(c);
                t.visit_exprs(f);
                e.visit_exprs(f);
            }
            Prog::While {
                cond, body, init, ..
            } => {
                f(cond);
                body.visit_exprs(f);
                for i in init {
                    f(i);
                }
            }
            Prog::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => p.visit_exprs(f),
        }
    }

    /// Rewrites every contained expression with `f` (does not descend into
    /// binder structure — names are left untouched).
    #[must_use]
    pub fn map_exprs(&self, f: &impl Fn(&Expr) -> Expr) -> Prog {
        match self {
            Prog::Return(e) => Prog::Return(f(e)),
            Prog::Gets(e) => Prog::Gets(f(e)),
            Prog::Throw(e) => Prog::Throw(f(e)),
            Prog::Guard(k, e) => Prog::Guard(k.clone(), f(e)),
            Prog::Modify(u) => Prog::Modify(u.map_exprs(f)),
            Prog::Fail => Prog::Fail,
            Prog::Bind(l, v, r) => Prog::Bind(
                IProg::new(l.map_exprs(f)),
                v.clone(),
                IProg::new(r.map_exprs(f)),
            ),
            Prog::BindTuple(l, vs, r) => Prog::BindTuple(
                IProg::new(l.map_exprs(f)),
                vs.clone(),
                IProg::new(r.map_exprs(f)),
            ),
            Prog::Catch(l, v, r) => Prog::Catch(
                IProg::new(l.map_exprs(f)),
                v.clone(),
                IProg::new(r.map_exprs(f)),
            ),
            Prog::Condition(c, t, e) => Prog::Condition(
                f(c),
                IProg::new(t.map_exprs(f)),
                IProg::new(e.map_exprs(f)),
            ),
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => Prog::While {
                vars: vars.clone(),
                cond: f(cond),
                body: IProg::new(body.map_exprs(f)),
                init: init.iter().map(f).collect(),
            },
            Prog::Call { fname, args } => Prog::Call {
                fname: fname.clone(),
                args: args.iter().map(f).collect(),
            },
            Prog::ExecConcrete(p) => Prog::ExecConcrete(IProg::new(p.map_exprs(f))),
            Prog::ExecAbstract(p) => Prog::ExecAbstract(IProg::new(p.map_exprs(f))),
        }
    }

    /// Substitutes a state-stored local read by an expression everywhere
    /// (used by local-variable lifting).
    #[must_use]
    pub fn subst_local(&self, name: &str, repl: &Expr) -> Prog {
        self.map_exprs(&|e| e.subst_local(name, repl))
    }

    /// Applies `f` to this program and every sub-program (preorder),
    /// including those under `exec_concrete`/`exec_abstract` markers.
    pub fn visit(&self, f: &mut impl FnMut(&Prog)) {
        f(self);
        match self {
            Prog::Return(_)
            | Prog::Gets(_)
            | Prog::Modify(_)
            | Prog::Guard(..)
            | Prog::Throw(_)
            | Prog::Fail
            | Prog::Call { .. } => {}
            Prog::Bind(l, _, r)
            | Prog::BindTuple(l, _, r)
            | Prog::Catch(l, _, r)
            | Prog::Condition(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Prog::While { body: p, .. } | Prog::ExecConcrete(p) | Prog::ExecAbstract(p) => {
                p.visit(f);
            }
        }
    }

    /// Rebuilds the program bottom-up: every sub-program is rewritten
    /// first, then `f` may replace the rebuilt node (`None` keeps it). The
    /// replacement is not rewritten again. Expressions and binder names
    /// are left untouched.
    #[must_use]
    pub fn rewrite(&self, f: &impl Fn(&Prog) -> Option<Prog>) -> Prog {
        let rebuilt = match self {
            Prog::Bind(l, v, r) => Prog::bind(l.rewrite(f), v.clone(), r.rewrite(f)),
            Prog::BindTuple(l, vs, r) => Prog::bind_tuple(l.rewrite(f), vs.clone(), r.rewrite(f)),
            Prog::Catch(l, v, r) => Prog::Catch(
                IProg::new(l.rewrite(f)),
                v.clone(),
                IProg::new(r.rewrite(f)),
            ),
            Prog::Condition(c, t, e) => Prog::cond(c.clone(), t.rewrite(f), e.rewrite(f)),
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => Prog::While {
                vars: vars.clone(),
                cond: cond.clone(),
                body: IProg::new(body.rewrite(f)),
                init: init.clone(),
            },
            Prog::ExecConcrete(q) => Prog::ExecConcrete(IProg::new(q.rewrite(f))),
            Prog::ExecAbstract(q) => Prog::ExecAbstract(IProg::new(q.rewrite(f))),
            other => other.clone(),
        };
        f(&rebuilt).unwrap_or(rebuilt)
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
