//! The state-dependent expression language.
//!
//! An [`Expr`] denotes a function of an environment (the lambda-bound
//! variables of the monadic embedding) and a program state — the deep
//! analogue of the paper's `λs. …` terms. The same expression language is
//! used at every level of the pipeline; which constructors may appear is
//! constrained by the phase (e.g. `ReadHeap` over the byte heap before heap
//! abstraction, over the typed split heaps afterwards; `Nat`/`Int` literals
//! and `unat`/`sint` casts only during/after word abstraction).
//!
//! Children are hash-consed [`IExpr`] handles (see [`crate::intern`]):
//! structurally equal subterms share one allocation, `clone()` is a
//! refcount bump, equality is pointer-first, and the term-size metric reads
//! cached sizes. Names are interned [`Symbol`]s, so environment lookups
//! hash a `u32` id instead of a `String`.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use bignum::{Int, Nat};

use crate::intern::{Internable, Interned, Interner};
use crate::names::Symbol;
use crate::ty::{Signedness, Ty, Width};
use crate::value::{Ptr, Value};
use crate::word::Word;

/// An interned (hash-consed) expression handle — the replacement for
/// `Box<Expr>` in the term representation.
pub type IExpr = Interned<Expr>;

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Bitwise complement on words.
    BitNot,
    /// Arithmetic negation (words wrap; `Int` is exact; `Nat` is invalid).
    Neg,
}

/// Binary operators. Arithmetic and comparisons are polymorphic over
/// `Word`/`Nat`/`Int` (dispatching on the operand values); the word versions
/// carry C semantics (wrapping, signedness-aware comparison and division).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction (truncated on `Nat`, wrapping on words).
    Sub,
    /// Multiplication.
    Mul,
    /// Division (C semantics on words, flooring on `Nat`/`Int` — matching
    /// HOL's `div`, which the guards make coincide with C on defined cases).
    Div,
    /// Remainder, paired with `Div`.
    Mod,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift (shift amount is a word or nat).
    Shl,
    /// Right shift (logical/arithmetic per signedness).
    Shr,
    /// Equality (any type).
    Eq,
    /// Disequality.
    Ne,
    /// Less-than (signedness-aware on words).
    Lt,
    /// Less-or-equal.
    Le,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean implication.
    Implies,
    /// Pointer plus byte offset (offset operand is a word/nat; scaling by
    /// element size is applied by the C translation).
    PtrAdd,
}

/// Conversions between semantic types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// C integer conversion between word shapes.
    WordToWord(Width, Signedness),
    /// `unat`: unsigned word → ideal natural.
    Unat,
    /// `sint`: signed word → ideal integer.
    Sint,
    /// `of_nat`: natural → word (mod 2ⁿ).
    OfNat(Width, Signedness),
    /// `of_int`: integer → word (mod 2ⁿ).
    OfInt(Width, Signedness),
    /// `int`: natural → integer (exact).
    NatToInt,
    /// `nat`: integer → natural (negative ↦ 0, HOL convention).
    IntToNat,
    /// Pointer → unsigned 32-bit word (address).
    PtrToWord,
    /// Word → pointer of the given pointee type.
    WordToPtr(Ty),
    /// Pointer retyping (C pointer cast).
    PtrRetype(Ty),
}

/// A state-dependent expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A lambda-bound variable (resolved in the environment).
    Var(Symbol),
    /// A state-stored local variable (L1 level, before local-variable
    /// lifting; resolved in the state's local frame).
    Local(Symbol),
    /// A global variable (resolved in the state).
    Global(Symbol),
    /// Typed heap read `read (heap s) p` / `s[p]`: on a concrete state this
    /// decodes bytes at the pointer; on an abstract state it consults the
    /// typed heap for the pointee type.
    ReadHeap(Ty, IExpr),
    /// Byte-level heap read (concrete states only).
    ReadByte(IExpr),
    /// `is_valid_τ s p` — on an abstract state the validity function; on a
    /// concrete state, definedness of `heap_lift` at `p` (correct type
    /// tagging + alignment + non-null, Sec 4.2).
    IsValid(Ty, IExpr),
    /// `ptr_aligned p` for the given pointee type.
    PtrAligned(Ty, IExpr),
    /// `0 ∉ {p ..+ size τ}`: the object neither contains NULL nor wraps
    /// around the end of the address space.
    NullFree(Ty, IExpr),
    /// Struct field selection on a struct *value*.
    Field(IExpr, String),
    /// Functional struct update: `UpdateField(s, f, v)` is `s⦇f := v⦈`.
    UpdateField(IExpr, String, IExpr),
    /// Unary operation.
    UnOp(UnOp, IExpr),
    /// Binary operation.
    BinOp(BinOp, IExpr, IExpr),
    /// Conversion.
    Cast(CastKind, IExpr),
    /// Conditional expression.
    Ite(IExpr, IExpr, IExpr),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection (0-based).
    Proj(usize, IExpr),
    /// Array element read `a ! i` (HOL list indexing). Out of bounds it
    /// denotes the element type's zero value; bounds guards rule that out.
    Index(IExpr, IExpr),
    /// Functional array update `a[i := v]` (HOL `list_update`; the
    /// identity out of bounds).
    ArrUpd(IExpr, IExpr, IExpr),
}

impl Internable for Expr {
    fn shallow_size(&self) -> usize {
        self.term_size()
    }

    fn interner() -> &'static Interner<Expr> {
        static INTERNER: std::sync::OnceLock<Interner<Expr>> = std::sync::OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }
}

impl Expr {
    /// Boolean literal `true`.
    #[must_use]
    pub fn tt() -> Expr {
        Expr::Lit(Value::Bool(true))
    }

    /// Boolean literal `false`.
    #[must_use]
    pub fn ff() -> Expr {
        Expr::Lit(Value::Bool(false))
    }

    /// Unit literal.
    #[must_use]
    pub fn unit() -> Expr {
        Expr::Lit(Value::Unit)
    }

    /// Unsigned 32-bit word literal.
    #[must_use]
    pub fn u32(v: u32) -> Expr {
        Expr::Lit(Value::u32(v))
    }

    /// Signed 32-bit word literal.
    #[must_use]
    pub fn i32(v: i32) -> Expr {
        Expr::Lit(Value::i32(v))
    }

    /// Natural-number literal.
    #[must_use]
    pub fn nat(v: impl Into<Nat>) -> Expr {
        Expr::Lit(Value::Nat(v.into()))
    }

    /// Integer literal.
    #[must_use]
    pub fn int(v: impl Into<Int>) -> Expr {
        Expr::Lit(Value::Int(v.into()))
    }

    /// Word literal of arbitrary shape.
    #[must_use]
    pub fn word(w: Word) -> Expr {
        Expr::Lit(Value::Word(w))
    }

    /// NULL pointer literal.
    #[must_use]
    pub fn null(pointee: Ty) -> Expr {
        Expr::Lit(Value::Ptr(Ptr::null(pointee)))
    }

    /// Variable reference.
    #[must_use]
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// State-stored local reference.
    #[must_use]
    pub fn local(name: impl Into<Symbol>) -> Expr {
        Expr::Local(name.into())
    }

    /// Global variable reference.
    #[must_use]
    pub fn global(name: impl Into<Symbol>) -> Expr {
        Expr::Global(name.into())
    }

    /// Binary operation.
    #[must_use]
    pub fn binop(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::BinOp(op, IExpr::new(l), IExpr::new(r))
    }

    /// Unary operation.
    #[must_use]
    pub fn unop(op: UnOp, e: Expr) -> Expr {
        Expr::UnOp(op, IExpr::new(e))
    }

    /// Cast.
    #[must_use]
    pub fn cast(kind: CastKind, e: Expr) -> Expr {
        Expr::Cast(kind, IExpr::new(e))
    }

    /// Conditional expression.
    #[must_use]
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::Ite(IExpr::new(c), IExpr::new(t), IExpr::new(e))
    }

    /// Conjunction, simplifying the `true` unit.
    #[must_use]
    pub fn and(l: Expr, r: Expr) -> Expr {
        if l == Expr::tt() {
            r
        } else if r == Expr::tt() {
            l
        } else {
            Expr::binop(BinOp::And, l, r)
        }
    }

    /// Implication.
    #[must_use]
    pub fn implies(l: Expr, r: Expr) -> Expr {
        Expr::binop(BinOp::Implies, l, r)
    }

    /// Equality.
    #[must_use]
    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::binop(BinOp::Eq, l, r)
    }

    /// Boolean negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // constructor, not `!` on a receiver
    pub fn not(e: Expr) -> Expr {
        Expr::unop(UnOp::Not, e)
    }

    /// Typed heap read.
    #[must_use]
    pub fn read_heap(ty: Ty, p: Expr) -> Expr {
        Expr::ReadHeap(ty, IExpr::new(p))
    }

    /// Validity of a pointer for a type.
    #[must_use]
    pub fn is_valid(ty: Ty, p: Expr) -> Expr {
        Expr::IsValid(ty, IExpr::new(p))
    }

    /// Struct field selection.
    #[must_use]
    pub fn field(e: Expr, f: impl Into<String>) -> Expr {
        Expr::Field(IExpr::new(e), f.into())
    }

    /// Tuple projection.
    #[must_use]
    pub fn proj(i: usize, e: Expr) -> Expr {
        Expr::Proj(i, IExpr::new(e))
    }

    /// Array element read.
    #[must_use]
    pub fn index(a: Expr, i: Expr) -> Expr {
        Expr::Index(IExpr::new(a), IExpr::new(i))
    }

    /// Functional array update.
    #[must_use]
    pub fn arr_upd(a: Expr, i: Expr, v: Expr) -> Expr {
        Expr::ArrUpd(IExpr::new(a), IExpr::new(i), IExpr::new(v))
    }

    /// The "concrete-level pointer guard" of the paper's Fig 3:
    /// `ptr_aligned p ∧ 0 ∉ {p ..+ obj_size τ}`.
    #[must_use]
    pub fn c_guard(ty: Ty, p: Expr) -> Expr {
        let p = IExpr::new(p);
        Expr::and(
            Expr::PtrAligned(ty.clone(), p.clone()),
            Expr::NullFree(ty, p),
        )
    }

    /// Is this the literal `true`?
    #[must_use]
    pub fn is_true_lit(&self) -> bool {
        *self == Expr::tt()
    }

    /// The free [`Expr::Var`] names of this expression.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::Var(n) = e {
                out.insert(n.to_string());
            }
        });
        out
    }

    /// The [`Expr::Local`] names read by this expression.
    #[must_use]
    pub fn locals_read(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::Local(n) = e {
                out.insert(n.to_string());
            }
        });
        out
    }

    /// Does this expression read the state (heap, locals, globals)?
    #[must_use]
    pub fn reads_state(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(
                e,
                Expr::Local(_)
                    | Expr::Global(_)
                    | Expr::ReadHeap(..)
                    | Expr::ReadByte(_)
                    | Expr::IsValid(..)
            ) {
                found = true;
            }
        });
        found
    }

    /// Does this expression read the heap (typed or byte-level)?
    #[must_use]
    pub fn reads_heap(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::ReadHeap(..) | Expr::ReadByte(_) | Expr::IsValid(..)) {
                found = true;
            }
        });
        found
    }

    /// The immediate subexpressions, in the order [`Expr::with_children`]
    /// takes them back. This is the one decomposition the kernel's
    /// congruence rules and every engine share: a congruence step has one
    /// premise per entry, in this order.
    #[must_use]
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) => vec![],
            Expr::ReadHeap(_, a)
            | Expr::ReadByte(a)
            | Expr::IsValid(_, a)
            | Expr::PtrAligned(_, a)
            | Expr::NullFree(_, a)
            | Expr::Field(a, _)
            | Expr::UnOp(_, a)
            | Expr::Cast(_, a)
            | Expr::Proj(_, a) => vec![a],
            Expr::UpdateField(a, _, b) | Expr::BinOp(_, a, b) | Expr::Index(a, b) => vec![a, b],
            Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => vec![a, b, c],
            Expr::Tuple(es) => es.iter().collect(),
        }
    }

    /// Rebuilds this node with new children (same operator, same shape).
    ///
    /// # Errors
    ///
    /// Fails when `kids` does not hold one expression per
    /// [`Expr::children`] entry.
    pub fn with_children(&self, kids: &[Expr]) -> Result<Expr, String> {
        let expect = self.children().len();
        if kids.len() != expect {
            return Err(format!("expected {expect} children, got {}", kids.len()));
        }
        let k = |i: usize| IExpr::new(kids[i].clone());
        Ok(match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) => self.clone(),
            Expr::ReadHeap(t, _) => Expr::ReadHeap(t.clone(), k(0)),
            Expr::ReadByte(_) => Expr::ReadByte(k(0)),
            Expr::IsValid(t, _) => Expr::IsValid(t.clone(), k(0)),
            Expr::PtrAligned(t, _) => Expr::PtrAligned(t.clone(), k(0)),
            Expr::NullFree(t, _) => Expr::NullFree(t.clone(), k(0)),
            Expr::Field(_, n) => Expr::Field(k(0), n.clone()),
            Expr::UnOp(op, _) => Expr::UnOp(*op, k(0)),
            Expr::Cast(c, _) => Expr::Cast(c.clone(), k(0)),
            Expr::Proj(i, _) => Expr::Proj(*i, k(0)),
            Expr::UpdateField(_, n, _) => Expr::UpdateField(k(0), n.clone(), k(1)),
            Expr::BinOp(op, _, _) => Expr::BinOp(*op, k(0), k(1)),
            Expr::Index(..) => Expr::Index(k(0), k(1)),
            Expr::Ite(..) => Expr::Ite(k(0), k(1), k(2)),
            Expr::ArrUpd(..) => Expr::ArrUpd(k(0), k(1), k(2)),
            Expr::Tuple(_) => Expr::Tuple(kids.to_vec()),
        })
    }

    /// Applies `f` to every subexpression (preorder). Shared subterms are
    /// visited once per occurrence (tree semantics, as before interning).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) => {}
            Expr::ReadHeap(_, e)
            | Expr::ReadByte(e)
            | Expr::IsValid(_, e)
            | Expr::PtrAligned(_, e)
            | Expr::NullFree(_, e)
            | Expr::Field(e, _)
            | Expr::UnOp(_, e)
            | Expr::Cast(_, e)
            | Expr::Proj(_, e) => e.visit(f),
            Expr::UpdateField(a, _, b) | Expr::BinOp(_, a, b) | Expr::Index(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => {
                a.visit(f);
                b.visit(f);
                c.visit(f);
            }
            Expr::Tuple(es) => {
                for e in es {
                    e.visit(f);
                }
            }
        }
    }

    /// Rebuilds the expression, transforming each node bottom-up with `f`.
    ///
    /// The rewrite is sharing-aware: hash-consed children are memoised on
    /// node identity, so a subterm occurring many times is transformed once
    /// (sound because `f` is a pure function of the subterm), and children
    /// `f` leaves unchanged keep their existing allocation.
    #[must_use]
    pub fn map(&self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let mut memo: HashMap<usize, IExpr> = HashMap::new();
        self.map_memo(f, &mut memo)
    }

    fn map_memo(&self, f: &impl Fn(Expr) -> Expr, memo: &mut HashMap<usize, IExpr>) -> Expr {
        let rebuilt = match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Local(_) | Expr::Global(_) => self.clone(),
            Expr::ReadHeap(t, e) => Expr::ReadHeap(t.clone(), Self::map_child(e, f, memo)),
            Expr::ReadByte(e) => Expr::ReadByte(Self::map_child(e, f, memo)),
            Expr::IsValid(t, e) => Expr::IsValid(t.clone(), Self::map_child(e, f, memo)),
            Expr::PtrAligned(t, e) => Expr::PtrAligned(t.clone(), Self::map_child(e, f, memo)),
            Expr::NullFree(t, e) => Expr::NullFree(t.clone(), Self::map_child(e, f, memo)),
            Expr::Field(e, n) => Expr::Field(Self::map_child(e, f, memo), n.clone()),
            Expr::UpdateField(a, n, b) => Expr::UpdateField(
                Self::map_child(a, f, memo),
                n.clone(),
                Self::map_child(b, f, memo),
            ),
            Expr::UnOp(op, e) => Expr::UnOp(*op, Self::map_child(e, f, memo)),
            Expr::BinOp(op, a, b) => Expr::BinOp(
                *op,
                Self::map_child(a, f, memo),
                Self::map_child(b, f, memo),
            ),
            Expr::Cast(k, e) => Expr::Cast(k.clone(), Self::map_child(e, f, memo)),
            Expr::Ite(a, b, c) => Expr::Ite(
                Self::map_child(a, f, memo),
                Self::map_child(b, f, memo),
                Self::map_child(c, f, memo),
            ),
            Expr::Tuple(es) => Expr::Tuple(es.iter().map(|e| e.map_memo(f, memo)).collect()),
            Expr::Proj(i, e) => Expr::Proj(*i, Self::map_child(e, f, memo)),
            Expr::Index(a, i) => Expr::Index(
                Self::map_child(a, f, memo),
                Self::map_child(i, f, memo),
            ),
            Expr::ArrUpd(a, i, v) => Expr::ArrUpd(
                Self::map_child(a, f, memo),
                Self::map_child(i, f, memo),
                Self::map_child(v, f, memo),
            ),
        };
        f(rebuilt)
    }

    /// Rewrites one interned child, memoised on node identity and reusing
    /// the existing handle when the rewrite is the identity on it.
    fn map_child(
        h: &IExpr,
        f: &impl Fn(Expr) -> Expr,
        memo: &mut HashMap<usize, IExpr>,
    ) -> IExpr {
        if let Some(done) = memo.get(&h.key()) {
            return done.clone();
        }
        let out = h.as_ref().map_memo(f, memo);
        let out_h = if out == **h { h.clone() } else { IExpr::new(out) };
        memo.insert(h.key(), out_h.clone());
        out_h
    }

    /// Capture-free substitution of variable `name` by `repl`.
    ///
    /// The expression language has no binders, so substitution is plain
    /// replacement.
    #[must_use]
    pub fn subst_var(&self, name: &str, repl: &Expr) -> Expr {
        self.map(&|e| match &e {
            Expr::Var(n) if n == name => repl.clone(),
            _ => e,
        })
    }

    /// Simultaneous substitution of several variables.
    #[must_use]
    pub fn subst_vars(&self, map: &std::collections::HashMap<String, Expr>) -> Expr {
        self.map(&|e| match &e {
            Expr::Var(n) => map.get(n.as_str()).cloned().unwrap_or(e),
            _ => e,
        })
    }

    /// Substitution of a state-stored local by an expression (used by
    /// local-variable lifting).
    #[must_use]
    pub fn subst_local(&self, name: &str, repl: &Expr) -> Expr {
        self.map(&|e| match &e {
            Expr::Local(n) if n == name => repl.clone(),
            _ => e,
        })
    }

    /// Number of AST nodes (the paper's *term size* metric, Table 5).
    ///
    /// State-stored local reads count as the record-selector application
    /// they denote in Simpl (`a_' s` — selector, state, application), so
    /// the metric is comparable across levels: after local-variable
    /// lifting the same access is a single bound variable.
    ///
    /// O(immediate children): interned children carry their size, so the
    /// tree is never walked.
    #[must_use]
    pub fn term_size(&self) -> usize {
        match self {
            Expr::Local(_) => 3,
            Expr::Lit(_) | Expr::Var(_) | Expr::Global(_) => 1,
            Expr::ReadHeap(_, e)
            | Expr::ReadByte(e)
            | Expr::IsValid(_, e)
            | Expr::PtrAligned(_, e)
            | Expr::NullFree(_, e)
            | Expr::Field(e, _)
            | Expr::UnOp(_, e)
            | Expr::Cast(_, e)
            | Expr::Proj(_, e) => 1 + e.size(),
            Expr::UpdateField(a, _, b) | Expr::BinOp(_, a, b) | Expr::Index(a, b) => {
                1 + a.size() + b.size()
            }
            Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => 1 + a.size() + b.size() + c.size(),
            Expr::Tuple(es) => 1 + es.iter().map(Expr::term_size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Expr {
    /// Rendering lives in [`crate::pretty`], which mirrors the paper's
    /// notation (`s[p]`, `unat`, `+w`, …).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_expr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_helpers() {
        let e = Expr::binop(BinOp::Add, Expr::var("a"), Expr::u32(1));
        assert_eq!(e.term_size(), 3);
        assert!(e.free_vars().contains("a"));
        assert!(!e.reads_state());
    }

    #[test]
    fn and_simplifies_true() {
        assert_eq!(Expr::and(Expr::tt(), Expr::var("p")), Expr::var("p"));
        assert_eq!(Expr::and(Expr::var("p"), Expr::tt()), Expr::var("p"));
    }

    #[test]
    fn substitution() {
        let e = Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y"));
        let e2 = e.subst_var("x", &Expr::u32(5));
        assert_eq!(
            e2,
            Expr::binop(BinOp::Add, Expr::u32(5), Expr::var("y"))
        );
        // original untouched
        assert!(e.free_vars().contains("x"));
    }

    #[test]
    fn local_substitution() {
        let e = Expr::binop(BinOp::Add, Expr::local("t"), Expr::var("y"));
        let e2 = e.subst_local("t", &Expr::var("t_lifted"));
        assert!(e2.free_vars().contains("t_lifted"));
        assert!(e2.locals_read().is_empty());
    }

    #[test]
    fn state_dependence() {
        assert!(Expr::read_heap(Ty::U32, Expr::var("p")).reads_state());
        assert!(Expr::global("g").reads_state());
        assert!(!Expr::var("x").reads_state());
        assert!(Expr::is_valid(Ty::U32, Expr::var("p")).reads_heap());
        assert!(!Expr::local("l").reads_heap());
    }

    #[test]
    fn term_size_counts_nodes() {
        // (x + 1) == y  → Eq(Add(x,1),y): 5 nodes
        let e = Expr::eq(
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)),
            Expr::var("y"),
        );
        assert_eq!(e.term_size(), 5);
    }

    #[test]
    fn shared_children_are_one_allocation() {
        let shared = Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1));
        let e = Expr::eq(shared.clone(), shared);
        let Expr::BinOp(_, a, b) = &e else {
            panic!("not a binop")
        };
        assert!(IExpr::ptr_eq(a, b), "hash-consing must share equal children");
    }

    #[test]
    fn map_preserves_untouched_sharing() {
        let e = Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y"));
        let mapped = e.map(&|x| x);
        let (Expr::BinOp(_, a0, _), Expr::BinOp(_, a1, _)) = (&e, &mapped) else {
            panic!("not binops")
        };
        assert!(IExpr::ptr_eq(a0, a1), "identity map must reuse handles");
        assert_eq!(e, mapped);
    }
}
