//! The judgment (statement) language of the kernel.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use ir::expr::{CastKind, Expr};
use ir::guard::GuardKind;
use ir::intern::{Internable, Interned, Interner};
use ir::ty::{Signedness, Ty};
use ir::update::Update;
use ir::value::Value;
use monadic::Prog;
use simpl::ISimpl;

/// A value-abstraction function: how an abstract value relates to a concrete
/// one (the `rx`/`ex` of `abs_w_stmt` and the `f` of `abs_w_val`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AbsFun {
    /// Identity (pointers, booleans, unit, non-abstracted words).
    Id,
    /// `unat`: unsigned word → ideal natural.
    Unat,
    /// `sint`: signed word → ideal integer.
    Sint,
    /// Componentwise abstraction of a tuple (loop iterators).
    Tuple(Vec<AbsFun>),
}

impl AbsFun {
    /// Applies the abstraction to a concrete value.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not fit the abstraction
    /// (e.g. `Unat` of a pointer).
    pub fn apply(&self, v: &Value) -> Result<Value, String> {
        match (self, v) {
            (AbsFun::Id, v) => Ok(v.clone()),
            (AbsFun::Unat, Value::Word(w)) => Ok(Value::Nat(w.unat())),
            (AbsFun::Sint, Value::Word(w)) => Ok(Value::Int(w.sint())),
            (AbsFun::Tuple(fs), Value::Tuple(vs)) if fs.len() == vs.len() => {
                let mut out = Vec::with_capacity(vs.len());
                for (f, v) in fs.iter().zip(vs) {
                    out.push(f.apply(v)?);
                }
                Ok(Value::Tuple(out))
            }
            (f, v) => Err(format!("cannot apply {f:?} to `{v}`")),
        }
    }

    /// The natural abstraction for a concrete type under word abstraction.
    #[must_use]
    pub fn for_ty(ty: &Ty) -> AbsFun {
        match ty {
            Ty::Word(_, Signedness::Unsigned) => AbsFun::Unat,
            Ty::Word(_, Signedness::Signed) => AbsFun::Sint,
            Ty::Tuple(ts) => AbsFun::Tuple(ts.iter().map(AbsFun::for_ty).collect()),
            _ => AbsFun::Id,
        }
    }

    /// Is the abstraction (recursively) the identity: `id`, or a tuple of
    /// identities? `WTupleId` collapses such an abstraction to `id`.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        match self {
            AbsFun::Id => true,
            AbsFun::Tuple(fs) => fs.iter().all(AbsFun::is_identity),
            AbsFun::Unat | AbsFun::Sint => false,
        }
    }

    /// The cast implementing this abstraction on expressions (`unat`/`sint`).
    #[must_use]
    pub fn forward_cast(&self) -> Option<CastKind> {
        match self {
            AbsFun::Unat => Some(CastKind::Unat),
            AbsFun::Sint => Some(CastKind::Sint),
            AbsFun::Id | AbsFun::Tuple(_) => None,
        }
    }
}

impl fmt::Display for AbsFun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsFun::Id => write!(f, "id"),
            AbsFun::Unat => write!(f, "unat"),
            AbsFun::Sint => write!(f, "sint"),
            AbsFun::Tuple(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Variable abstraction context: which lambda-bound variables of the
/// concrete program are word-abstracted, and how. Shared by the abstract
/// and concrete sides (the variables keep their names; their *meaning*
/// differs by the recorded `AbsFun`).
///
/// A handle to an interned [`VarMap`] (`ir::intern`): the nodes of a word
/// abstraction derivation that agree on their context hold one
/// allocation, so cloning a context is a reference-count bump and
/// comparing two is a pointer comparison.
pub type VarCtx = Interned<VarMap>;

/// The variables of a [`VarCtx`] and their abstractions. Reads through to
/// the map; [`VarMap::with`] makes the context a binder enters.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct VarMap {
    pub(crate) vars: BTreeMap<String, AbsFun>,
}

/// Transparent, like the handle: printed judgments show the map.
impl fmt::Debug for VarMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.vars.fmt(f)
    }
}

impl VarMap {
    /// This context with `binds` added (a later binding of a name replaces
    /// an earlier one): the context a continuation, handler or loop body
    /// is abstracted in.
    #[must_use]
    pub fn with<'a>(&self, binds: impl IntoIterator<Item = (&'a str, &'a AbsFun)>) -> VarCtx {
        let mut vars = self.vars.clone();
        for (v, f) in binds {
            vars.insert(v.to_owned(), f.clone());
        }
        VarCtx::new(VarMap { vars })
    }
}

impl std::ops::Deref for VarMap {
    type Target = BTreeMap<String, AbsFun>;
    fn deref(&self) -> &Self::Target {
        &self.vars
    }
}

impl FromIterator<(String, AbsFun)> for VarMap {
    fn from_iter<I: IntoIterator<Item = (String, AbsFun)>>(iter: I) -> VarMap {
        VarMap {
            vars: iter.into_iter().collect(),
        }
    }
}

impl Internable for VarMap {
    fn shallow_size(&self) -> usize {
        1
    }

    fn interner() -> &'static Interner<VarMap> {
        static INTERNER: OnceLock<Interner<VarMap>> = OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

/// A kernel judgment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Judgment {
    /// `abs_w_val P f a c` under variable context `ctx` (Sec 3.3):
    /// whenever the abstract variables equal the abstraction of the
    /// concrete ones and `P` holds, `a = f c`.
    WVal {
        /// Variable abstraction context.
        ctx: VarCtx,
        /// Precondition (over abstract variables and the state).
        pre: Expr,
        /// The abstraction function.
        f: AbsFun,
        /// Abstract expression.
        abs: Expr,
        /// Concrete expression.
        conc: Expr,
    },
    /// `abs_w_stmt (λ_. True) rx ex A C` under variable context `ctx`:
    /// the abstract program `abs` refines `conc` with return values related
    /// by `rx` and exception values by `ex` (preconditions have been
    /// discharged into guards inside `abs`).
    WStmt {
        /// Variable abstraction context.
        ctx: VarCtx,
        /// Return-value abstraction.
        rx: AbsFun,
        /// Exception-value abstraction.
        ex: AbsFun,
        /// Abstract program.
        abs: Prog,
        /// Concrete program.
        conc: Prog,
    },
    /// `abs_h_val P a c` (Sec 4.5): under precondition `P` (over the
    /// abstract state), `c s = a (st s)`.
    HVal {
        /// Precondition over the abstract state.
        pre: Expr,
        /// Abstract expression.
        abs: Expr,
        /// Concrete expression.
        conc: Expr,
    },
    /// `abs_h_modifies P a c`: under `P`, `st (c s) = a (st s)`.
    HUpd {
        /// Precondition over the abstract state.
        pre: Expr,
        /// Abstract update.
        abs: Update,
        /// Concrete update.
        conc: Update,
    },
    /// `abs_h_stmt A C` (Sec 4.5).
    HStmt {
        /// Abstract (typed-split-heap) program.
        abs: Prog,
        /// Concrete (byte-heap) program.
        conc: Prog,
    },
    /// L1 correspondence: the monadic program has exactly the behaviour of
    /// the Simpl statement (Table 1 translation).
    L1 {
        /// Monadic program.
        prog: Prog,
        /// Simpl statement: the handle its premises' statements are
        /// children of.
        simpl: ISimpl,
    },
    /// Plain monadic refinement on the same state representation:
    /// if `abs` does not fail, then `conc`'s behaviour is contained in
    /// `abs`'s and `conc` does not fail. Used by the L2 rewrites.
    Refines {
        /// Abstract (rewritten) program.
        abs: Prog,
        /// Concrete (original) program.
        conc: Prog,
    },
    /// Abstract-interpretation guard discharge: `hyp ⟹ guard` by interval
    /// entailment. The judgment is self-contained — the hypothesis records
    /// everything the flow-sensitive analysis knew at the guard's program
    /// point, so the independent checker re-validates the entailment from
    /// the theorem alone (the flow-sensitivity claim itself is covered by
    /// the audit differential, which re-decides every discharge with the
    /// solver).
    AbsGuard {
        /// Conjunction of facts the abstract interpreter established at the
        /// guard's program point (variable bounds, validity facts).
        hyp: Expr,
        /// What kind of side condition the guard protects.
        kind: GuardKind,
        /// The guard condition being discharged.
        guard: Expr,
    },
}

impl Judgment {
    /// A one-line description for error messages.
    #[must_use]
    pub fn describe(&self) -> &'static str {
        match self {
            Judgment::WVal { .. } => "abs_w_val",
            Judgment::WStmt { .. } => "abs_w_stmt",
            Judgment::HVal { .. } => "abs_h_val",
            Judgment::HUpd { .. } => "abs_h_modifies",
            Judgment::HStmt { .. } => "abs_h_stmt",
            Judgment::L1 { .. } => "l1corres",
            Judgment::Refines { .. } => "refines",
            Judgment::AbsGuard { .. } => "abs_guard",
        }
    }
}

/// Prepends `guard pre` to a program unless the precondition is trivial.
#[must_use]
pub fn guarded(kind: GuardKind, pre: &Expr, prog: Prog) -> Prog {
    if pre.is_true_lit() {
        prog
    } else {
        Prog::then(Prog::guard(kind, pre.clone()), prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::word::Word;

    #[test]
    fn absfun_application() {
        assert_eq!(
            AbsFun::Unat.apply(&Value::u32(5)).unwrap(),
            Value::nat(5u64)
        );
        assert_eq!(
            AbsFun::Sint.apply(&Value::i32(-5)).unwrap(),
            Value::int(-5)
        );
        assert_eq!(
            AbsFun::Id.apply(&Value::Bool(true)).unwrap(),
            Value::Bool(true)
        );
        let t = AbsFun::Tuple(vec![AbsFun::Unat, AbsFun::Id]);
        assert_eq!(
            t.apply(&Value::Tuple(vec![Value::u32(3), Value::Bool(false)]))
                .unwrap(),
            Value::Tuple(vec![Value::nat(3u64), Value::Bool(false)])
        );
        assert!(AbsFun::Unat.apply(&Value::Bool(true)).is_err());
    }

    #[test]
    fn absfun_for_types() {
        assert_eq!(AbsFun::for_ty(&Ty::U32), AbsFun::Unat);
        assert_eq!(AbsFun::for_ty(&Ty::I32), AbsFun::Sint);
        assert_eq!(AbsFun::for_ty(&Ty::U32.ptr_to()), AbsFun::Id);
        assert_eq!(
            AbsFun::for_ty(&Ty::Tuple(vec![Ty::U32, Ty::Bool])),
            AbsFun::Tuple(vec![AbsFun::Unat, AbsFun::Id])
        );
    }

    #[test]
    fn unat_wraps_correctly() {
        // unat of the all-ones word is 2^32 - 1.
        let w = Word::u32(u32::MAX);
        assert_eq!(
            AbsFun::Unat.apply(&Value::Word(w)).unwrap(),
            Value::nat(u64::from(u32::MAX))
        );
    }

    #[test]
    fn guarded_helper() {
        let p = Prog::ret(Expr::u32(1));
        assert_eq!(guarded(GuardKind::UnsignedOverflow, &Expr::tt(), p.clone()), p);
        let g = guarded(GuardKind::UnsignedOverflow, &Expr::var("P"), p);
        assert!(matches!(g, Prog::Bind(..)));
    }
}
