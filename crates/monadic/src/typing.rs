//! Best-effort value types of programs, shared by the abstraction engines
//! (the program counterpart of [`ir::typing::infer_ty`]).

use std::borrow::Cow;
use std::collections::HashMap;

use ir::ty::{Ty, TypeEnv};
use ir::typing::infer_ty;

use crate::prog::{Prog, ProgramCtx};

/// What a program is typed against.
#[derive(Clone, Copy)]
pub struct ProgTyping<'a> {
    /// Types of the variables in scope.
    pub vars: &'a HashMap<String, Ty>,
    /// Structure layouts.
    pub tenv: &'a TypeEnv,
    /// Where a call's type comes from: its callee's return type. `None`
    /// leaves calls untyped.
    pub callees: Option<&'a ProgramCtx>,
}

impl ProgTyping<'_> {
    /// The type of the value `p` yields, when inference finds one. A bind
    /// chain types the variables it binds on the way, so a trailing
    /// `return (x, y)` of locally bound words still infers: the L2
    /// simplifier inlines initializers, so the caller's environment often
    /// has no entry for them (e.g. a do-while's run-once body feeding its
    /// `whileLoop` inits).
    #[must_use]
    pub fn value_ty(&self, p: &Prog) -> Option<Ty> {
        self.value_ty_in(&mut Cow::Borrowed(self.vars), p)
    }

    /// The component types of an `n`-tuple `p` yields (a single value when
    /// `n` is 1), each `None` where inference finds none.
    #[must_use]
    pub fn tuple_tys(&self, p: &Prog, n: usize) -> Vec<Option<Ty>> {
        match self.value_ty(p) {
            Some(Ty::Tuple(ts)) if ts.len() == n => ts.into_iter().map(Some).collect(),
            Some(t) if n == 1 => vec![Some(t)],
            _ => vec![None; n],
        }
    }

    fn value_ty_in(&self, vars: &mut Cow<'_, HashMap<String, Ty>>, p: &Prog) -> Option<Ty> {
        match p {
            Prog::Return(e) | Prog::Gets(e) => infer_ty(e, vars, self.tenv),
            Prog::Bind(l, v, r) => {
                if let Some(t) = self.value_ty_in(vars, l) {
                    vars.to_mut().insert(v.clone(), t);
                }
                self.value_ty_in(vars, r)
            }
            Prog::BindTuple(l, vs, r) => {
                if let Some(Ty::Tuple(ts)) = self.value_ty_in(vars, l) {
                    if ts.len() == vs.len() {
                        vars.to_mut().extend(vs.iter().cloned().zip(ts));
                    }
                }
                self.value_ty_in(vars, r)
            }
            Prog::Condition(_, t, e) => self
                .value_ty_in(vars, t)
                .or_else(|| self.value_ty_in(vars, e)),
            Prog::While { init, .. } => {
                if init.len() == 1 {
                    infer_ty(&init[0], vars, self.tenv)
                } else {
                    init.iter()
                        .map(|i| infer_ty(i, vars, self.tenv))
                        .collect::<Option<Vec<_>>>()
                        .map(Ty::Tuple)
                }
            }
            Prog::Catch(l, _, _) => self.value_ty_in(vars, l),
            Prog::Call { fname, .. } => Some(self.callees?.function(fname)?.ret_ty.clone()),
            _ => None,
        }
    }
}
