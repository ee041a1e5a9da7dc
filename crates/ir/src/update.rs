//! State updates — the deep analogue of the paper's `λs. …` state
//! transformers used by Simpl `Basic` statements and monadic `modify`.

use std::fmt;

use crate::eval::{eval, Env, EvalError};
use crate::expr::Expr;
use crate::state::State;
use crate::ty::Ty;
use crate::value::Value;

/// A single state update.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Update {
    /// Assign a state-stored local variable.
    Local(String, Expr),
    /// Assign a global variable.
    Global(String, Expr),
    /// Typed heap write `write s p v` / `s[p := v]`: encodes bytes on a
    /// concrete state, updates the typed split heap on an abstract state.
    Heap(Ty, Expr, Expr),
    /// Byte-level heap write (concrete states only).
    Byte(Expr, Expr),
    /// Retype the region starting at the pointer to hold an object of the
    /// type (ghost operation; concrete states only).
    TagRegion(Ty, Expr),
}

impl Update {
    /// Applies the update to `st`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; errors if a byte-level update is
    /// applied to an abstract state.
    pub fn apply(&self, env: &Env, st: &mut State) -> Result<(), EvalError> {
        match self {
            Update::Local(n, e) => {
                let v = eval(e, env, st)?;
                st.set_local(n, v);
                Ok(())
            }
            Update::Global(n, e) => {
                let v = eval(e, env, st)?;
                st.set_global(n, v);
                Ok(())
            }
            Update::Heap(ty, p, e) => {
                let pv = match eval(p, env, st)? {
                    Value::Ptr(p) => p,
                    v => {
                        return Err(EvalError::TypeMismatch(format!(
                            "heap write through non-pointer `{v}`"
                        )))
                    }
                };
                let v = eval(e, env, st)?;
                match st {
                    State::Conc(cs) => cs
                        .mem
                        .encode(pv.addr, &v, &env.tenv)
                        .map_err(|e| EvalError::Codec(e.to_string())),
                    State::Abs(asx) => {
                        asx.heap_mut(ty).set(pv.addr, v);
                        Ok(())
                    }
                }
            }
            Update::Byte(p, e) => {
                let pv = match eval(p, env, st)? {
                    Value::Ptr(p) => p,
                    v => {
                        return Err(EvalError::TypeMismatch(format!(
                            "byte write through non-pointer `{v}`"
                        )))
                    }
                };
                let v = eval(e, env, st)?;
                let Some(w) = v.as_word() else {
                    return Err(EvalError::TypeMismatch(format!("byte write of `{v}`")));
                };
                match st {
                    State::Conc(cs) => {
                        cs.mem.write_byte(pv.addr, (w.bits() & 0xFF) as u8);
                        Ok(())
                    }
                    State::Abs(_) => Err(EvalError::WrongStateShape(
                        "byte write on abstract state".into(),
                    )),
                }
            }
            Update::TagRegion(ty, p) => {
                let pv = match eval(p, env, st)? {
                    Value::Ptr(p) => p,
                    v => {
                        return Err(EvalError::TypeMismatch(format!(
                            "retype through non-pointer `{v}`"
                        )))
                    }
                };
                match st {
                    State::Conc(cs) => cs
                        .mem
                        .tag_region(pv.addr, ty, &env.tenv)
                        .map_err(|e| EvalError::Codec(e.to_string())),
                    State::Abs(_) => Err(EvalError::WrongStateShape(
                        "retype on abstract state".into(),
                    )),
                }
            }
        }
    }

    /// The contained expressions, in the order [`Update::with_exprs`] takes
    /// them back (the kernel's `WsModify` has one premise per entry).
    #[must_use]
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Update::Local(_, e) | Update::Global(_, e) | Update::TagRegion(_, e) => vec![e],
            Update::Heap(_, p, e) | Update::Byte(p, e) => vec![p, e],
        }
    }

    /// Rebuilds the update with new expressions (same target, same shape).
    ///
    /// # Errors
    ///
    /// Fails when `es` does not hold one expression per [`Update::exprs`]
    /// entry.
    pub fn with_exprs(&self, es: &[Expr]) -> Result<Update, String> {
        let expect = self.exprs().len();
        if es.len() != expect {
            return Err(format!("expected {expect} expressions, got {}", es.len()));
        }
        let mut es = es.iter().cloned();
        self.try_map_exprs(&mut |_| es.next().ok_or_else(String::new))
    }

    /// Rebuilds the update (same target, same shape) with each expression
    /// replaced by `f` of it, in [`Update::exprs`] order.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_map_exprs<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Update, E> {
        Ok(match self {
            Update::Local(n, e) => Update::Local(n.clone(), f(e)?),
            Update::Global(n, e) => Update::Global(n.clone(), f(e)?),
            Update::TagRegion(t, e) => Update::TagRegion(t.clone(), f(e)?),
            Update::Heap(t, p, e) => Update::Heap(t.clone(), f(p)?, f(e)?),
            Update::Byte(p, e) => Update::Byte(f(p)?, f(e)?),
        })
    }

    /// The free lambda-bound variables of the contained expressions.
    #[must_use]
    pub fn free_vars(&self) -> std::collections::BTreeSet<String> {
        self.exprs().into_iter().flat_map(Expr::free_vars).collect()
    }

    /// Rewrites contained expressions with `f`.
    #[must_use]
    pub fn map_exprs(&self, f: &impl Fn(&Expr) -> Expr) -> Update {
        let Ok(u) = self.try_map_exprs::<std::convert::Infallible>(&mut |e| Ok(f(e)));
        u
    }

    /// Total number of expression AST nodes (for the term-size metric).
    ///
    /// A local update denotes a state-record update in Simpl
    /// (`s⦇a_' := e⦈`), counted accordingly.
    #[must_use]
    pub fn term_size(&self) -> usize {
        match self {
            Update::Local(_, e) => 4 + e.term_size(),
            Update::Global(_, e) | Update::TagRegion(_, e) => 1 + e.term_size(),
            Update::Heap(_, p, e) | Update::Byte(p, e) => 1 + p.term_size() + e.term_size(),
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Local(n, e) => write!(f, "´{n} :== {e}"),
            Update::Global(n, e) => write!(f, "g·{n} :== {e}"),
            Update::Heap(ty, p, e) => write!(f, "s[{p}]·{} := {e}", ty.tag_name()),
            Update::Byte(p, e) => write!(f, "byte s[{p}] := {e}"),
            Update::TagRegion(ty, p) => write!(f, "retype {} at {p}", ty.tag_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::TypeEnv;
    use crate::value::Ptr;

    #[test]
    fn local_and_global_updates() {
        let env = Env::new();
        let mut st = State::conc_empty();
        Update::Local("x".into(), Expr::u32(5))
            .apply(&env, &mut st)
            .unwrap();
        Update::Global("g".into(), Expr::u32(9))
            .apply(&env, &mut st)
            .unwrap();
        assert_eq!(st.local("x"), Some(&Value::u32(5)));
        assert_eq!(st.global("g"), Some(&Value::u32(9)));
    }

    #[test]
    fn heap_update_concrete_and_abstract() {
        let env = Env::with_tenv(TypeEnv::new());
        let p = Expr::Lit(Value::Ptr(Ptr::new(0x100, Ty::U32)));
        let upd = Update::Heap(Ty::U32, p.clone(), Expr::u32(7));

        let mut conc = State::conc_empty();
        upd.apply(&env, &mut conc).unwrap();
        assert_eq!(
            crate::eval::eval(&Expr::read_heap(Ty::U32, p.clone()), &env, &conc).unwrap(),
            Value::u32(7)
        );

        let mut abs = State::abs_empty();
        upd.apply(&env, &mut abs).unwrap();
        assert_eq!(
            crate::eval::eval(&Expr::read_heap(Ty::U32, p), &env, &abs).unwrap(),
            Value::u32(7)
        );
    }

    #[test]
    fn byte_update_only_concrete() {
        let env = Env::new();
        let p = Expr::Lit(Value::Ptr(Ptr::new(0x10, Ty::U8)));
        let upd = Update::Byte(p, Expr::Lit(Value::Word(crate::word::Word::u8(0xAB))));
        let mut conc = State::conc_empty();
        upd.apply(&env, &mut conc).unwrap();
        assert_eq!(conc.as_conc().unwrap().mem.read_byte(0x10), 0xAB);
        let mut abs = State::abs_empty();
        assert!(upd.apply(&env, &mut abs).is_err());
    }

    #[test]
    fn retype_changes_validity() {
        let env = Env::with_tenv(TypeEnv::new());
        let p = Expr::Lit(Value::Ptr(Ptr::new(0x100, Ty::U32)));
        let mut st = State::conc_empty();
        let valid = Expr::is_valid(Ty::U32, p.clone());
        assert_eq!(
            crate::eval::eval(&valid, &env, &st).unwrap(),
            Value::Bool(false)
        );
        Update::TagRegion(Ty::U32, p).apply(&env, &mut st).unwrap();
        assert_eq!(
            crate::eval::eval(&valid, &env, &st).unwrap(),
            Value::Bool(true)
        );
    }
}
