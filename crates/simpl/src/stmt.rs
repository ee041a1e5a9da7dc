//! The deep-embedded Simpl statement language.

use std::collections::BTreeMap;
use std::fmt;

use ir::expr::Expr;
use ir::intern::{Internable, Interned, Interner};
use ir::metrics::SpecMetrics;
use ir::ty::{Ty, TypeEnv};
use ir::update::Update;

pub use ir::guard::GuardKind;

/// An interned (hash-consed) statement handle — what a compound statement
/// holds its sub-statements in (see `ir::intern`), so an `l1corres`
/// theorem and its premises share their statements.
pub type ISimpl = Interned<SimplStmt>;

/// A Simpl statement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SimplStmt {
    /// `SKIP`.
    Skip,
    /// `Basic m` — a state update.
    Basic(Update),
    /// `c1 ;; c2`.
    Seq(ISimpl, ISimpl),
    /// `IF b THEN c1 ELSE c2 FI`.
    Cond(Expr, ISimpl, ISimpl),
    /// `WHILE b DO c OD`.
    While(Expr, ISimpl),
    /// `GUARD kind g c` — execute `c` if `g` holds, otherwise *fault*.
    Guard(GuardKind, Expr, ISimpl),
    /// `THROW` — abrupt termination; the reason is in `global_exn_var`.
    Throw,
    /// `TRY c1 CATCH c2 END`.
    TryCatch(ISimpl, ISimpl),
    /// Procedure call: evaluate arguments, run the callee, store the result
    /// (if any) into a caller local.
    Call {
        /// Callee name.
        fname: String,
        /// Argument expressions (call-by-value).
        args: Vec<Expr>,
        /// Caller local receiving the return value.
        ret_local: Option<String>,
    },
}

impl Internable for SimplStmt {
    fn shallow_size(&self) -> usize {
        self.term_size()
    }

    fn interner() -> &'static Interner<SimplStmt> {
        static INTERNER: std::sync::OnceLock<Interner<SimplStmt>> = std::sync::OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

impl SimplStmt {
    /// Sequencing that drops `SKIP` units.
    #[must_use]
    pub fn seq(a: SimplStmt, b: SimplStmt) -> SimplStmt {
        match (a, b) {
            (SimplStmt::Skip, b) => b,
            (a, SimplStmt::Skip) => a,
            (a, b) => SimplStmt::Seq(ISimpl::new(a), ISimpl::new(b)),
        }
    }

    /// `IF c THEN t ELSE e FI`.
    #[must_use]
    pub fn cond(c: Expr, t: SimplStmt, e: SimplStmt) -> SimplStmt {
        SimplStmt::Cond(c, ISimpl::new(t), ISimpl::new(e))
    }

    /// `WHILE c DO body OD`.
    #[must_use]
    pub fn while_loop(c: Expr, body: SimplStmt) -> SimplStmt {
        SimplStmt::While(c, ISimpl::new(body))
    }

    /// `GUARD kind g body`.
    #[must_use]
    pub fn guard(kind: GuardKind, g: Expr, body: SimplStmt) -> SimplStmt {
        SimplStmt::Guard(kind, g, ISimpl::new(body))
    }

    /// `TRY body CATCH handler END`.
    #[must_use]
    pub fn try_catch(body: SimplStmt, handler: SimplStmt) -> SimplStmt {
        SimplStmt::TryCatch(ISimpl::new(body), ISimpl::new(handler))
    }

    /// The sub-statements, in order (the premises of its Table 1 rule).
    #[must_use]
    pub fn children(&self) -> Vec<&ISimpl> {
        match self {
            SimplStmt::Seq(a, b) | SimplStmt::TryCatch(a, b) | SimplStmt::Cond(_, a, b) => {
                vec![a, b]
            }
            SimplStmt::While(_, b) | SimplStmt::Guard(_, _, b) => vec![b],
            SimplStmt::Skip | SimplStmt::Basic(_) | SimplStmt::Throw | SimplStmt::Call { .. } => {
                vec![]
            }
        }
    }

    /// Sequences a list of statements.
    #[must_use]
    pub fn seq_all(stmts: impl IntoIterator<Item = SimplStmt>) -> SimplStmt {
        stmts
            .into_iter()
            .fold(SimplStmt::Skip, SimplStmt::seq)
    }

    /// Wraps `self` in a chain of guards (innermost first in the vector).
    #[must_use]
    pub fn with_guards(self, guards: Vec<(GuardKind, Expr)>) -> SimplStmt {
        guards
            .into_iter()
            .rev()
            .fold(self, |acc, (k, g)| SimplStmt::guard(k, g, acc))
    }

    /// Number of statement + expression AST nodes (term-size metric).
    /// O(immediate children): interned sub-statements carry their size.
    #[must_use]
    pub fn term_size(&self) -> usize {
        match self {
            SimplStmt::Skip | SimplStmt::Throw => 1,
            SimplStmt::Basic(u) => 1 + u.term_size(),
            SimplStmt::Seq(a, b) | SimplStmt::TryCatch(a, b) => 1 + a.size() + b.size(),
            SimplStmt::Cond(c, a, b) => 1 + c.term_size() + a.size() + b.size(),
            SimplStmt::While(c, b) => 1 + c.term_size() + b.size(),
            SimplStmt::Guard(_, g, c) => 1 + g.term_size() + c.size(),
            SimplStmt::Call { args, .. } => {
                1 + args.iter().map(Expr::term_size).sum::<usize>()
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            SimplStmt::Skip => writeln!(f, "{pad}SKIP"),
            SimplStmt::Basic(u) => writeln!(f, "{pad}{u};;"),
            SimplStmt::Seq(a, b) => {
                a.fmt_indented(f, indent)?;
                b.fmt_indented(f, indent)
            }
            SimplStmt::Cond(c, a, b) => {
                writeln!(f, "{pad}IF {{|{c}|}} THEN")?;
                a.fmt_indented(f, indent + 1)?;
                if !matches!(**b, SimplStmt::Skip) {
                    writeln!(f, "{pad}ELSE")?;
                    b.fmt_indented(f, indent + 1)?;
                }
                writeln!(f, "{pad}FI;;")
            }
            SimplStmt::While(c, b) => {
                writeln!(f, "{pad}WHILE {{|{c}|}} DO")?;
                b.fmt_indented(f, indent + 1)?;
                writeln!(f, "{pad}OD;;")
            }
            SimplStmt::Guard(k, g, c) => {
                writeln!(f, "{pad}GUARD {k} {{|{g}|}};;")?;
                c.fmt_indented(f, indent)
            }
            SimplStmt::Throw => writeln!(f, "{pad}THROW;;"),
            SimplStmt::TryCatch(a, b) => {
                writeln!(f, "{pad}TRY")?;
                a.fmt_indented(f, indent + 1)?;
                writeln!(f, "{pad}CATCH")?;
                b.fmt_indented(f, indent + 1)?;
                writeln!(f, "{pad}END;;")
            }
            SimplStmt::Call {
                fname,
                args,
                ret_local,
            } => {
                write!(f, "{pad}")?;
                if let Some(r) = ret_local {
                    write!(f, "´{r} :== ")?;
                }
                write!(f, "CALL {fname}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ");;")
            }
        }
    }
}

impl fmt::Display for SimplStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// A translated function.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimplFn {
    /// Function name.
    pub name: String,
    /// Parameters with semantic types.
    pub params: Vec<(String, Ty)>,
    /// All locals (including parameters and generated temporaries).
    pub locals: Vec<(String, Ty)>,
    /// Semantic return type (`Ty::Unit` for `void`).
    pub ret_ty: Ty,
    /// The body (already wrapped in the outer `TRY … CATCH SKIP END`).
    pub body: ISimpl,
}

impl SimplFn {
    /// Complexity metrics of this function's Simpl body.
    #[must_use]
    pub fn metrics(&self) -> SpecMetrics {
        let wrapped = ir::metrics::wrap_text(&self.to_string(), 100);
        SpecMetrics {
            lines: ir::metrics::spec_lines(&wrapped),
            term_size: self.body.term_size(),
        }
    }
}

impl fmt::Display for SimplFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}_body ≡", self.name)?;
        self.body.fmt_indented(f, 1)
    }
}

/// A translated program: functions, layouts, and global initial values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimplProgram {
    /// Structure layouts.
    pub tenv: TypeEnv,
    /// Functions by name.
    pub fns: BTreeMap<String, SimplFn>,
    /// Global variables with initial values.
    pub globals: Vec<(String, ir::value::Value)>,
}

impl SimplProgram {
    /// Looks up a function.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&SimplFn> {
        self.fns.get(name)
    }

    /// An initial concrete state with globals set to their initial values.
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

    #[test]
    fn seq_drops_skip() {
        let b = SimplStmt::Basic(Update::Local("x".into(), Expr::u32(1)));
        assert_eq!(SimplStmt::seq(SimplStmt::Skip, b.clone()), b);
        assert_eq!(SimplStmt::seq(b.clone(), SimplStmt::Skip), b);
    }

    #[test]
    fn guards_wrap_in_order() {
        let s = SimplStmt::Skip.with_guards(vec![
            (GuardKind::PtrValid, Expr::var("g1")),
            (GuardKind::DivByZero, Expr::var("g2")),
        ]);
        let SimplStmt::Guard(GuardKind::PtrValid, g, inner) = &s else {
            panic!("outermost guard should be the first emitted: {s:?}");
        };
        assert_eq!(*g, Expr::var("g1"));
        assert!(matches!(**inner, SimplStmt::Guard(GuardKind::DivByZero, ..)));
    }

    #[test]
    fn term_size_counts() {
        let s = SimplStmt::cond(Expr::var("c"), SimplStmt::Skip, SimplStmt::Throw);
        assert_eq!(s.term_size(), 4);
    }

    #[test]
    fn rendering_shape() {
        let s = SimplStmt::try_catch(
            SimplStmt::while_loop(Expr::var("c"), SimplStmt::Throw),
            SimplStmt::Skip,
        );
        let out = s.to_string();
        assert!(out.contains("TRY"));
        assert!(out.contains("WHILE {|c|} DO"));
        assert!(out.contains("CATCH"));
        assert!(out.contains("END"));
    }
}
