//! The literal, conservative C-to-Simpl translation.
//!
//! Mirrors Norrish's parser (paper Sec 2, Fig 2): abrupt control flow via
//! `THROW` + `global_exn_var`, inline guards for every potentially undefined
//! operation, and pointer-offset field accesses.

use cparser::ast::{CBinOp, CType, CUnOp};
use cparser::typecheck::{ctype_to_ty, TExpr, TExprKind, TFunDef, TProgram, TStmt};
use ir::diag::{Diag, DiagKind, Phase};
use ir::expr::{BinOp, CastKind, Expr, UnOp};
use ir::ty::{Signedness, Ty, TypeEnv, Width};
use ir::update::Update;
use ir::value::Value;
use ir::word::Word;

use crate::stmt::{GuardKind, ISimpl, SimplFn, SimplProgram, SimplStmt};
use crate::{EXN_BREAK, EXN_CONTINUE, EXN_RETURN, EXN_VAR, RET_VAR};

/// Builds a translation diagnostic. The message keeps the historic
/// `translation error:` prefix so rendered errors are unchanged.
fn terr(msg: impl Into<String>) -> Diag {
    Diag::new(
        Phase::Simpl,
        DiagKind::Unsupported,
        format!("translation error: {}", msg.into()),
    )
}

/// Guards to emit before a call, plus the translated argument expressions.
pub type GuardedArgs = (Vec<(GuardKind, Expr)>, Vec<Expr>);

/// Decomposed array access: the array variable's name and locality, its
/// value expression, the translated index, and the accumulated guards.
type IndexParts = (String, bool, Expr, Expr, Vec<(GuardKind, Expr)>);

type Result<T> = std::result::Result<T, Diag>;

/// Translates a typechecked program into Simpl: its environment
/// ([`translate_env`]), then each function ([`translate_function`]) in
/// source order.
///
/// # Errors
///
/// Returns a [`Diag`] on constructs the literal translation cannot
/// encode (calls in loop conditions or short-circuit operands, `break`
/// outside a loop).
pub fn translate_program(tp: &TProgram) -> Result<SimplProgram> {
    let mut out = translate_env(tp)?;
    for f in &tp.functions {
        out.fns
            .insert(f.name.clone(), translate_function(&tp.tenv, f)?);
    }
    Ok(out)
}

/// The program's Simpl environment: its struct layouts and its globals
/// with their initial values, and no functions.
///
/// # Errors
///
/// Returns a [`Diag`] for a global initialiser that is not a guard-free
/// constant.
pub fn translate_env(tp: &TProgram) -> Result<SimplProgram> {
    let mut out = SimplProgram {
        tenv: tp.tenv.clone(),
        ..SimplProgram::default()
    };
    for g in &tp.globals {
        let ty = ctype_to_ty(&g.ty);
        let value = match &g.init {
            None => Value::zero_of(&ty, &tp.tenv),
            Some(e) => {
                let mut tr = FnTranslator::new(&tp.tenv);
                let mut pre = Vec::new();
                let te = tr.rvalue(e, &mut pre)?;
                if !pre.is_empty() || !te.guards.is_empty() {
                    return Err(terr(format!(
                        "global `{}` initialiser must be a guard-free constant",
                        g.name
                    )));
                }
                let env = ir::eval::Env::with_tenv(tp.tenv.clone());
                ir::eval::eval(&te.expr, &env, &ir::state::State::conc_empty())
                    .map_err(|e| terr(format!("global init: {e}")))?
            }
        };
        out.globals.push((g.name.clone(), value));
    }
    Ok(out)
}

/// Translates one function; `tenv` holds the program's struct layouts.
///
/// # Errors
///
/// As for [`translate_program`].
pub fn translate_function(tenv: &TypeEnv, f: &TFunDef) -> Result<SimplFn> {
    let ret_ty = ctype_to_ty(&f.ret);
    let mut tr = FnTranslator::new(tenv);
    for (n, t) in &f.locals {
        tr.locals.push((n.clone(), ctype_to_ty(t)));
    }
    tr.locals.push((EXN_VAR.to_owned(), Ty::U32));
    if ret_ty != Ty::Unit {
        tr.locals.push((RET_VAR.to_owned(), ret_ty.clone()));
    }

    let mut body = tr.stmts(&f.body)?;
    if ret_ty != Ty::Unit {
        // Fig 2: falling off the end of a non-void function is undefined.
        body = SimplStmt::seq(
            body,
            SimplStmt::guard(GuardKind::DontReach, Expr::ff(), SimplStmt::Skip),
        );
    }
    let wrapped = ISimpl::new(SimplStmt::try_catch(body, SimplStmt::Skip));
    Ok(SimplFn {
        name: f.name.clone(),
        params: f
            .params
            .iter()
            .map(|(n, t)| (n.clone(), ctype_to_ty(t)))
            .collect(),
        locals: tr.locals,
        ret_ty,
        body: wrapped,
    })
}

/// A translated expression: the guards it requires, then the value.
#[derive(Clone, Debug)]
pub struct TrExpr {
    /// Guards protecting the expression (evaluated before it).
    pub guards: Vec<(GuardKind, Expr)>,
    /// The translated expression (locals appear as [`Expr::Local`]).
    pub expr: Expr,
}

impl TrExpr {
    fn pure(expr: Expr) -> TrExpr {
        TrExpr {
            guards: Vec::new(),
            expr,
        }
    }
}

/// Expression/lvalue translator for one function.
///
/// Exposed so that the L2 phase (in the `autocorres` crate) reuses exactly
/// the same undefined-behaviour guard derivation as the Simpl translation —
/// the guard formulas must be identical across levels for the refinement
/// theorems to line up.
#[derive(Debug)]
pub struct FnTranslator<'a> {
    tenv: &'a TypeEnv,
    /// Locals registered so far (including generated temporaries).
    pub locals: Vec<(String, Ty)>,
    tmp_counter: u64,
    loop_depth: u32,
}

impl<'a> FnTranslator<'a> {
    /// Creates a translator for a program with the struct layouts `tenv`.
    #[must_use]
    pub fn new(tenv: &'a TypeEnv) -> FnTranslator<'a> {
        FnTranslator {
            tenv,
            locals: Vec::new(),
            tmp_counter: 0,
            loop_depth: 0,
        }
    }

    /// The structure layouts of the program being translated.
    #[must_use]
    pub fn tenv(&self) -> &'a TypeEnv {
        self.tenv
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(terr(msg))
    }

    fn fresh_tmp(&mut self, ty: Ty) -> String {
        let name = format!("tmp__{}", self.tmp_counter);
        self.tmp_counter += 1;
        self.locals.push((name.clone(), ty));
        name
    }

    // ---- statements -------------------------------------------------------

    fn stmts(&mut self, stmts: &[TStmt]) -> Result<SimplStmt> {
        let mut out = SimplStmt::Skip;
        for s in stmts {
            out = SimplStmt::seq(out, self.stmt(s)?);
        }
        Ok(out)
    }

    fn stmt(&mut self, s: &TStmt) -> Result<SimplStmt> {
        match s {
            TStmt::Decl { name, init, .. } => match init {
                None => Ok(SimplStmt::Skip),
                Some(e) => self.assign_to_local(name, e),
            },
            TStmt::Assign { lhs, rhs, .. } => self.assign(lhs, rhs),
            TStmt::ExprCall(e, _) => {
                let TExprKind::Call(name, args) = &e.kind else {
                    return self.err("expression statement is not a call");
                };
                let mut pre = Vec::new();
                let (guards, arg_exprs) = self.call_args(args, &mut pre)?;
                let call = SimplStmt::Call {
                    fname: name.clone(),
                    args: arg_exprs,
                    ret_local: None,
                }
                .with_guards(guards);
                Ok(SimplStmt::seq(SimplStmt::seq_all(pre), call))
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let mut pre = Vec::new();
                let c = self.cond(cond, &mut pre)?;
                let t = self.stmts(then_branch)?;
                let e = self.stmts(else_branch)?;
                let body = SimplStmt::cond(c.expr, t, e).with_guards(c.guards);
                Ok(SimplStmt::seq(SimplStmt::seq_all(pre), body))
            }
            TStmt::While { cond, body, .. } => self.while_loop(cond, body, None),
            TStmt::DoWhile { body, cond, .. } => self.while_loop(cond, body, Some(body)),
            TStmt::Return(value, _) => {
                let mut out = SimplStmt::Skip;
                if let Some(e) = value {
                    out = self.assign_to_local(RET_VAR, e)?;
                }
                out = SimplStmt::seq(
                    out,
                    SimplStmt::Basic(Update::Local(EXN_VAR.into(), Expr::u32(EXN_RETURN))),
                );
                Ok(SimplStmt::seq(out, SimplStmt::Throw))
            }
            TStmt::Break(_) => {
                if self.loop_depth == 0 {
                    return self.err("`break` outside of a loop");
                }
                Ok(SimplStmt::seq(
                    SimplStmt::Basic(Update::Local(EXN_VAR.into(), Expr::u32(EXN_BREAK))),
                    SimplStmt::Throw,
                ))
            }
            TStmt::Continue(_) => {
                if self.loop_depth == 0 {
                    return self.err("`continue` outside of a loop");
                }
                Ok(SimplStmt::seq(
                    SimplStmt::Basic(Update::Local(EXN_VAR.into(), Expr::u32(EXN_CONTINUE))),
                    SimplStmt::Throw,
                ))
            }
            TStmt::Block(b) => self.stmts(b),
        }
    }

    /// Translates a `while` (or, when `pre_body` is given, a `do`/`while`).
    ///
    /// The conservative encoding (the "exception dance"):
    ///
    /// ```text
    /// TRY
    ///   guards(c);;
    ///   WHILE c DO
    ///     TRY body CATCH IF exn = Continue THEN SKIP ELSE THROW FI END;;
    ///     guards(c)
    ///   OD
    /// CATCH IF exn = Break THEN SKIP ELSE THROW FI END
    /// ```
    fn while_loop(
        &mut self,
        cond: &TExpr,
        body: &[TStmt],
        pre_body: Option<&[TStmt]>,
    ) -> Result<SimplStmt> {
        let mut pre = Vec::new();
        let c = self.cond(cond, &mut pre)?;
        if !pre.is_empty() {
            return self.err("function calls in loop conditions are unsupported");
        }
        self.loop_depth += 1;
        let body_tr = self.stmts(body)?;
        let first_tr = match pre_body {
            Some(b) => Some(self.stmts(b)?),
            None => None,
        };
        self.loop_depth -= 1;

        let exn_is = |v: u32| Expr::eq(Expr::Local(EXN_VAR.into()), Expr::u32(v));
        let continue_handler =
            SimplStmt::cond(exn_is(EXN_CONTINUE), SimplStmt::Skip, SimplStmt::Throw);
        let break_handler = SimplStmt::cond(exn_is(EXN_BREAK), SimplStmt::Skip, SimplStmt::Throw);

        let cond_guards = |this: &TrExpr| {
            SimplStmt::seq_all(
                this.guards
                    .iter()
                    .cloned()
                    .map(|(k, g)| SimplStmt::guard(k, g, SimplStmt::Skip)),
            )
        };

        let guarded_body = SimplStmt::seq(
            SimplStmt::try_catch(body_tr, continue_handler.clone()),
            cond_guards(&c),
        );
        let mut inner = SimplStmt::seq(
            cond_guards(&c),
            SimplStmt::while_loop(c.expr.clone(), guarded_body),
        );
        if let Some(first) = first_tr {
            // do/while: run the body once before the loop proper.
            inner = SimplStmt::seq(
                SimplStmt::seq(
                    SimplStmt::try_catch(first, continue_handler),
                    SimplStmt::Skip,
                ),
                inner,
            );
        }
        Ok(SimplStmt::try_catch(inner, break_handler))
    }

    /// `local := e` with call hoisting and guards.
    fn assign_to_local(&mut self, name: &str, e: &TExpr) -> Result<SimplStmt> {
        let mut pre = Vec::new();
        let tr = self.rvalue(e, &mut pre)?;
        let upd =
            SimplStmt::Basic(Update::Local(name.to_owned(), tr.expr)).with_guards(tr.guards);
        Ok(SimplStmt::seq(SimplStmt::seq_all(pre), upd))
    }

    fn assign(&mut self, lhs: &TExpr, rhs: &TExpr) -> Result<SimplStmt> {
        let mut pre = Vec::new();
        let rv = self.rvalue(rhs, &mut pre)?;
        let (mut guards, upd) = self.lvalue_update(lhs, rv.expr, &mut pre)?;
        let mut all = rv.guards;
        all.append(&mut guards);
        Ok(SimplStmt::seq(
            SimplStmt::seq_all(pre),
            SimplStmt::Basic(upd).with_guards(all),
        ))
    }

    /// Resolves an lvalue to a state update storing `value`.
    pub fn lvalue_update(
        &mut self,
        lhs: &TExpr,
        value: Expr,
        pre: &mut Vec<SimplStmt>,
    ) -> Result<(Vec<(GuardKind, Expr)>, Update)> {
        match &lhs.kind {
            TExprKind::Local(n) => Ok((Vec::new(), Update::Local(n.clone(), value))),
            TExprKind::Global(n) => Ok((Vec::new(), Update::Global(n.clone(), value))),
            TExprKind::Unary(CUnOp::Deref, p) => {
                let pointee = ctype_to_ty(&lhs.ty);
                let pv = self.rvalue(p, pre)?;
                let mut guards = pv.guards;
                guards.push((
                    GuardKind::PtrValid,
                    Expr::c_guard(pointee.clone(), pv.expr.clone()),
                ));
                Ok((guards, Update::Heap(pointee, pv.expr, value)))
            }
            // a[i] = v — functional update of the array variable.
            TExprKind::Index(base, idx) => {
                let (name, is_local, arr, iv, guards) = self.index_parts(base, idx, pre)?;
                let upd = Expr::arr_upd(arr, iv, value);
                Ok((
                    guards,
                    if is_local {
                        Update::Local(name, upd)
                    } else {
                        Update::Global(name, upd)
                    },
                ))
            }
            TExprKind::Member(inner, field) => {
                // Walk down a member chain to its root.
                let mut path = vec![(field.clone(), ctype_to_ty(&lhs.ty))];
                let mut cur = inner;
                while let TExprKind::Member(deeper, f) = &cur.kind {
                    path.push((f.clone(), ctype_to_ty(&cur.ty)));
                    cur = deeper;
                }
                path.reverse();
                match &cur.kind {
                    // (*p).f…g = v  — pointer-offset heap write (Sec 4.5).
                    TExprKind::Unary(CUnOp::Deref, p) => {
                        let struct_ty = ctype_to_ty(&cur.ty);
                        let Ty::Struct(mut sname) = struct_ty.clone() else {
                            return self.err("member access through non-struct pointer");
                        };
                        let pv = self.rvalue(p, pre)?;
                        let mut guards = pv.guards;
                        guards.push((
                            GuardKind::PtrValid,
                            Expr::c_guard(struct_ty, pv.expr.clone()),
                        ));
                        let mut offset = 0u64;
                        let mut fty = Ty::Unit;
                        for (f, t) in &path {
                            offset += self
                                .tenv
                                .field_offset(&sname, f)
                                .map_err(|e| terr(e.to_string()))?;
                            fty = t.clone();
                            if let Ty::Struct(next) = t {
                                sname = next.clone();
                            }
                        }
                        let ptr = Expr::binop(BinOp::PtrAdd, pv.expr, Expr::u32(offset as u32));
                        Ok((guards, Update::Heap(fty, ptr, value)))
                    }
                    // x.f…g = v for a local/global struct — functional update.
                    TExprKind::Local(_) | TExprKind::Global(_) => {
                        let root = self.rvalue(cur, pre)?;
                        // Build nested UpdateField from the inside out.
                        let mut acc = value;
                        for i in (0..path.len()).rev() {
                            let mut target = root.expr.clone();
                            for (f, _) in &path[..i] {
                                target = Expr::field(target, f.clone());
                            }
                            acc = Expr::UpdateField(
                                ir::IExpr::new(target),
                                path[i].0.clone(),
                                ir::IExpr::new(acc),
                            );
                        }
                        let upd = match &cur.kind {
                            TExprKind::Local(n) => Update::Local(n.clone(), acc),
                            TExprKind::Global(n) => Update::Global(n.clone(), acc),
                            _ => unreachable!(),
                        };
                        Ok((root.guards, upd))
                    }
                    // arr[i].f…g = v — update the field inside the element,
                    // then store the element back (index evaluated once).
                    TExprKind::Index(base, idx) => {
                        let (name, is_local, arr, iv, guards) =
                            self.index_parts(base, idx, pre)?;
                        let element = Expr::index(arr.clone(), iv.clone());
                        let mut acc = value;
                        for i in (0..path.len()).rev() {
                            let mut target = element.clone();
                            for (f, _) in &path[..i] {
                                target = Expr::field(target, f.clone());
                            }
                            acc = Expr::UpdateField(
                                ir::IExpr::new(target),
                                path[i].0.clone(),
                                ir::IExpr::new(acc),
                            );
                        }
                        let upd = Expr::arr_upd(arr, iv, acc);
                        Ok((
                            guards,
                            if is_local {
                                Update::Local(name, upd)
                            } else {
                                Update::Global(name, upd)
                            },
                        ))
                    }
                    _ => self.err("unsupported lvalue shape"),
                }
            }
            _ => self.err(format!("not an lvalue: {lhs:?}")),
        }
    }

    /// Decomposes an array access `base[idx]`: the array variable's name and
    /// locality, its value expression, the translated index, and the
    /// accumulated guards ending in the in-bounds check.
    fn index_parts(
        &mut self,
        base: &TExpr,
        idx: &TExpr,
        pre: &mut Vec<SimplStmt>,
    ) -> Result<IndexParts> {
        let (name, is_local, arr) = match &base.kind {
            TExprKind::Local(n) => (n.clone(), true, Expr::local(n)),
            TExprKind::Global(n) => (n.clone(), false, Expr::global(n)),
            _ => return self.err("array expressions must be named variables"),
        };
        let CType::Arr(_, n) = &base.ty else {
            return self.err(format!("indexing non-array type `{}`", base.ty));
        };
        let iv = self.rvalue(idx, pre)?;
        let mut guards = iv.guards;
        let (w, s) = int_shape(&idx.ty)?;
        // i < N, and 0 ≤ i when the index is signed.
        let mut ok = Expr::binop(BinOp::Lt, iv.expr.clone(), Expr::word(Word::new(*n, w, s)));
        if s == Signedness::Signed {
            ok = Expr::and(
                Expr::binop(BinOp::Le, Expr::word(Word::zero(w, s)), iv.expr.clone()),
                ok,
            );
        }
        guards.push((GuardKind::ArrayBounds, ok));
        Ok((name, is_local, arr, iv.expr, guards))
    }

    // ---- calls -------------------------------------------------------------

    /// Translates call arguments, returning (guards, argument expressions)
    /// and pushing hoisted inner calls into `pre`.
    pub fn call_args(
        &mut self,
        args: &[TExpr],
        pre: &mut Vec<SimplStmt>,
    ) -> Result<GuardedArgs> {
        let mut guards = Vec::new();
        let mut exprs = Vec::new();
        for a in args {
            let tr = self.rvalue(a, pre)?;
            guards.extend(tr.guards);
            exprs.push(tr.expr);
        }
        Ok((guards, exprs))
    }

    /// Hoists a call expression into `pre`, returning the temp local.
    fn hoist_call(
        &mut self,
        name: &str,
        args: &[TExpr],
        ret: &CType,
        pre: &mut Vec<SimplStmt>,
    ) -> Result<Expr> {
        if *ret == CType::Void {
            return self.err(format!("void call `{name}` used as a value"));
        }
        let (guards, arg_exprs) = self.call_args(args, pre)?;
        let tmp = self.fresh_tmp(ctype_to_ty(ret));
        pre.push(
            SimplStmt::Call {
                fname: name.to_owned(),
                args: arg_exprs,
                ret_local: Some(tmp.clone()),
            }
            .with_guards(guards),
        );
        Ok(Expr::local(tmp))
    }

    // ---- expressions -------------------------------------------------------

    /// Translates an expression used for its value.
    pub fn rvalue(&mut self, e: &TExpr, pre: &mut Vec<SimplStmt>) -> Result<TrExpr> {
        if is_boolish(e) {
            let c = self.cond(e, pre)?;
            let (w, s) = int_shape(&e.ty)?;
            return Ok(TrExpr {
                guards: c.guards,
                expr: Expr::ite(
                    c.expr,
                    Expr::word(Word::new(1, w, s)),
                    Expr::word(Word::new(0, w, s)),
                ),
            });
        }
        match &e.kind {
            TExprKind::IntLit(v) => {
                let (w, s) = int_shape(&e.ty)?;
                Ok(TrExpr::pure(Expr::word(Word::new(*v, w, s))))
            }
            TExprKind::Null => Ok(TrExpr::pure(Expr::null(Ty::Unit))),
            TExprKind::Local(n) => Ok(TrExpr::pure(Expr::local(n))),
            TExprKind::Global(n) => Ok(TrExpr::pure(Expr::global(n))),
            TExprKind::Call(name, args) => {
                let ret = e.ty.clone();
                self.hoist_call(name, args, &ret, pre).map(TrExpr::pure)
            }
            TExprKind::Unary(CUnOp::Deref, p) => {
                let pointee = ctype_to_ty(&e.ty);
                let pv = self.rvalue(p, pre)?;
                let mut guards = pv.guards;
                guards.push((
                    GuardKind::PtrValid,
                    Expr::c_guard(pointee.clone(), pv.expr.clone()),
                ));
                Ok(TrExpr {
                    guards,
                    expr: Expr::read_heap(pointee, pv.expr),
                })
            }
            TExprKind::Unary(CUnOp::Neg, a) => {
                let av = self.rvalue(a, pre)?;
                let (w, s) = int_shape(&e.ty)?;
                let mut guards = av.guards;
                if s == Signedness::Signed {
                    // -(INT_MIN) overflows; everything else is fine.
                    guards.push((
                        GuardKind::SignedOverflow,
                        Expr::binop(
                            BinOp::Ne,
                            av.expr.clone(),
                            min_word_lit(w, s),
                        ),
                    ));
                }
                Ok(TrExpr {
                    guards,
                    expr: Expr::unop(UnOp::Neg, av.expr),
                })
            }
            TExprKind::Unary(CUnOp::BitNot, a) => {
                let av = self.rvalue(a, pre)?;
                Ok(TrExpr {
                    guards: av.guards,
                    expr: Expr::unop(UnOp::BitNot, av.expr),
                })
            }
            TExprKind::Unary(CUnOp::Not, _) => unreachable!("boolish handled above"),
            TExprKind::Member(inner, field) => {
                if let TExprKind::Unary(CUnOp::Deref, p) = &inner.kind {
                    // p->f : pointer-offset heap read.
                    let struct_ty = ctype_to_ty(&inner.ty);
                    let Ty::Struct(sname) = &struct_ty else {
                        return self.err("member access through non-struct pointer");
                    };
                    let offset = self
                        .tenv
                        .field_offset(sname, field)
                        .map_err(|e| terr(e.to_string()))?;
                    let fty = ctype_to_ty(&e.ty);
                    let pv = self.rvalue(p, pre)?;
                    let mut guards = pv.guards;
                    guards.push((
                        GuardKind::PtrValid,
                        Expr::c_guard(struct_ty.clone(), pv.expr.clone()),
                    ));
                    let ptr = Expr::binop(BinOp::PtrAdd, pv.expr, Expr::u32(offset as u32));
                    Ok(TrExpr {
                        guards,
                        expr: Expr::read_heap(fty, ptr),
                    })
                } else {
                    let iv = self.rvalue(inner, pre)?;
                    Ok(TrExpr {
                        guards: iv.guards,
                        expr: Expr::field(iv.expr, field.clone()),
                    })
                }
            }
            TExprKind::Index(base, idx) => {
                let (_, _, arr, iv, guards) = self.index_parts(base, idx, pre)?;
                Ok(TrExpr {
                    guards,
                    expr: Expr::index(arr, iv),
                })
            }
            TExprKind::Binary(op, l, r) => self.binary(*op, l, r, &e.ty, pre),
            TExprKind::Cast(to, inner) => self.cast(to, inner, pre),
            TExprKind::Cond(c, t, f) => {
                let cv = self.cond(c, pre)?;
                let tv = self.rvalue(t, pre)?;
                let fv = self.rvalue(f, pre)?;
                let mut guards = cv.guards;
                for (k, g) in tv.guards {
                    guards.push((k, Expr::implies(cv.expr.clone(), g)));
                }
                for (k, g) in fv.guards {
                    guards.push((k, Expr::implies(Expr::not(cv.expr.clone()), g)));
                }
                Ok(TrExpr {
                    guards,
                    expr: Expr::ite(cv.expr, tv.expr, fv.expr),
                })
            }
        }
    }

    fn cast(&mut self, to: &CType, inner: &TExpr, pre: &mut Vec<SimplStmt>) -> Result<TrExpr> {
        // NULL to a pointer type: produce a typed null directly.
        if matches!(inner.kind, TExprKind::Null) {
            if let CType::Ptr(p) = to {
                return Ok(TrExpr::pure(Expr::null(ctype_to_ty(p))));
            }
        }
        let iv = self.rvalue(inner, pre)?;
        let expr = match (&inner.ty, to) {
            (CType::Int(..), CType::Int(w, s)) => {
                Expr::cast(CastKind::WordToWord(*w, *s), iv.expr)
            }
            (CType::Ptr(_), CType::Ptr(p)) => {
                Expr::cast(CastKind::PtrRetype(ctype_to_ty(p)), iv.expr)
            }
            (CType::Int(..), CType::Ptr(p)) => Expr::cast(
                CastKind::WordToPtr(ctype_to_ty(p)),
                Expr::cast(
                    CastKind::WordToWord(Width::W32, Signedness::Unsigned),
                    iv.expr,
                ),
            ),
            (CType::Ptr(_), CType::Int(w, s)) => {
                let as_word = Expr::cast(CastKind::PtrToWord, iv.expr);
                if (*w, *s) == (Width::W32, Signedness::Unsigned) {
                    as_word
                } else {
                    Expr::cast(CastKind::WordToWord(*w, *s), as_word)
                }
            }
            (from, to) => {
                return self.err(format!("unsupported cast `{from}` → `{to}`"));
            }
        };
        Ok(TrExpr {
            guards: iv.guards,
            expr,
        })
    }

    fn binary(
        &mut self,
        op: CBinOp,
        l: &TExpr,
        r: &TExpr,
        result_ty: &CType,
        pre: &mut Vec<SimplStmt>,
    ) -> Result<TrExpr> {
        use CBinOp::*;
        // Pointer arithmetic: scale the index by the element size.
        if (op == Add || op == Sub) && l.ty.is_ptr() {
            let CType::Ptr(pointee) = &l.ty else { unreachable!() };
            let elem = ctype_to_ty(pointee);
            let size = self
                .tenv
                .size_of(&elem)
                .map_err(|e| terr(e.to_string()))?;
            let lv = self.rvalue(l, pre)?;
            let rv = self.rvalue(r, pre)?;
            let mut guards = lv.guards;
            guards.extend(rv.guards);
            let scaled = Expr::binop(
                BinOp::Mul,
                Expr::cast(
                    CastKind::WordToWord(Width::W32, Signedness::Unsigned),
                    rv.expr,
                ),
                Expr::u32(size as u32),
            );
            let offset = if op == Sub {
                Expr::unop(UnOp::Neg, scaled)
            } else {
                scaled
            };
            return Ok(TrExpr {
                guards,
                expr: Expr::binop(BinOp::PtrAdd, lv.expr, offset),
            });
        }

        let lv = self.rvalue(l, pre)?;
        let rv = self.rvalue(r, pre)?;
        let mut guards = lv.guards.clone();
        guards.extend(rv.guards.clone());
        let (w, s) = int_shape(result_ty)?;

        let signed = s == Signedness::Signed;
        let sint = |e: &Expr| Expr::cast(CastKind::Sint, e.clone());
        let in_range = |e: Expr| {
            let min = Expr::int(Word::min_value(w, s));
            let max = Expr::int(Word::max_value(w, s));
            Expr::and(
                Expr::binop(BinOp::Le, min, e.clone()),
                Expr::binop(BinOp::Le, e, max),
            )
        };

        let bop = match op {
            Add => BinOp::Add,
            Sub => BinOp::Sub,
            Mul => BinOp::Mul,
            Div => BinOp::Div,
            Mod => BinOp::Mod,
            BitAnd => BinOp::BitAnd,
            BitOr => BinOp::BitOr,
            BitXor => BinOp::BitXor,
            Shl => BinOp::Shl,
            Shr => BinOp::Shr,
            _ => unreachable!("comparisons/logical are boolish"),
        };

        match op {
            Add | Sub | Mul if signed => {
                let iop = match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    _ => BinOp::Mul,
                };
                guards.push((
                    GuardKind::SignedOverflow,
                    in_range(Expr::binop(iop, sint(&lv.expr), sint(&rv.expr))),
                ));
            }
            Div | Mod => {
                let zero = Expr::word(Word::zero(w, s));
                guards.push((
                    GuardKind::DivByZero,
                    Expr::binop(BinOp::Ne, rv.expr.clone(), zero),
                ));
                if signed {
                    // INT_MIN / -1 overflows.
                    guards.push((
                        GuardKind::SignedOverflow,
                        Expr::not(Expr::and(
                            Expr::eq(lv.expr.clone(), min_word_lit(w, s)),
                            Expr::eq(rv.expr.clone(), Expr::word(Word::of_int(
                                &bignum::Int::from(-1i64),
                                w,
                                s,
                            ))),
                        )),
                    ));
                }
            }
            Shl | Shr => {
                let width_lit = match &r.ty {
                    CType::Int(rw, rs) => Expr::word(Word::new(u64::from(w.bits()), *rw, *rs)),
                    _ => Expr::u32(w.bits()),
                };
                let mut ok = Expr::binop(BinOp::Lt, rv.expr.clone(), width_lit);
                if let CType::Int(rw, Signedness::Signed) = &r.ty {
                    ok = Expr::and(
                        Expr::binop(
                            BinOp::Le,
                            Expr::word(Word::zero(*rw, Signedness::Signed)),
                            rv.expr.clone(),
                        ),
                        ok,
                    );
                }
                guards.push((GuardKind::ShiftBound, ok));
                if signed {
                    // Shifting signed values requires a non-negative operand;
                    // left shift must also not overflow.
                    let mut ok =
                        Expr::binop(BinOp::Le, Expr::word(Word::zero(w, s)), lv.expr.clone());
                    if op == Shl {
                        let max = Expr::word(Word::of_int(&Word::max_value(w, s), w, s));
                        ok = Expr::and(
                            ok,
                            Expr::binop(
                                BinOp::Le,
                                lv.expr.clone(),
                                Expr::binop(BinOp::Shr, max, rv.expr.clone()),
                            ),
                        );
                    }
                    guards.push((GuardKind::SignedOverflow, ok));
                }
            }
            _ => {}
        }

        Ok(TrExpr {
            guards,
            expr: Expr::binop(bop, lv.expr, rv.expr),
        })
    }

    /// Translates a scalar expression into a boolean condition.
    pub fn cond(&mut self, e: &TExpr, pre: &mut Vec<SimplStmt>) -> Result<TrExpr> {
        use CBinOp::*;
        match &e.kind {
            TExprKind::Binary(op @ (Eq | Ne | Lt | Le | Gt | Ge), l, r) => {
                let lv = self.rvalue(l, pre)?;
                let rv = self.rvalue(r, pre)?;
                let mut guards = lv.guards;
                guards.extend(rv.guards);
                let expr = match op {
                    Eq => Expr::binop(BinOp::Eq, lv.expr, rv.expr),
                    Ne => Expr::binop(BinOp::Ne, lv.expr, rv.expr),
                    Lt => Expr::binop(BinOp::Lt, lv.expr, rv.expr),
                    Le => Expr::binop(BinOp::Le, lv.expr, rv.expr),
                    Gt => Expr::binop(BinOp::Lt, rv.expr, lv.expr),
                    Ge => Expr::binop(BinOp::Le, rv.expr, lv.expr),
                    _ => unreachable!(),
                };
                Ok(TrExpr { guards, expr })
            }
            TExprKind::Binary(op @ (LAnd | LOr), l, r) => {
                let lc = self.cond(l, pre)?;
                let mut rpre = Vec::new();
                let rc = self.cond(r, &mut rpre)?;
                if !rpre.is_empty() {
                    return self.err(
                        "function calls in short-circuit operands are unsupported",
                    );
                }
                let mut guards = lc.guards;
                // Short-circuit: the right operand's guards are only required
                // when it is actually evaluated.
                for (k, g) in rc.guards {
                    let weakened = if *op == LAnd {
                        Expr::implies(lc.expr.clone(), g)
                    } else {
                        Expr::implies(Expr::not(lc.expr.clone()), g)
                    };
                    guards.push((k, weakened));
                }
                let bop = if *op == LAnd { BinOp::And } else { BinOp::Or };
                Ok(TrExpr {
                    guards,
                    expr: Expr::binop(bop, lc.expr, rc.expr),
                })
            }
            TExprKind::Unary(CUnOp::Not, a) => {
                let ac = self.cond(a, pre)?;
                Ok(TrExpr {
                    guards: ac.guards,
                    expr: Expr::not(ac.expr),
                })
            }
            _ => {
                let v = self.rvalue(e, pre)?;
                let zero = match &e.ty {
                    CType::Int(w, s) => Expr::word(Word::zero(*w, *s)),
                    CType::Ptr(p) => Expr::null(ctype_to_ty(p)),
                    t => return self.err(format!("non-scalar condition of type `{t}`")),
                };
                Ok(TrExpr {
                    guards: v.guards,
                    expr: Expr::binop(BinOp::Ne, v.expr, zero),
                })
            }
        }
    }
}

/// Is this expression boolean-valued (a comparison, logical operator, or
/// negation)?
fn is_boolish(e: &TExpr) -> bool {
    use CBinOp::*;
    matches!(
        &e.kind,
        TExprKind::Binary(Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr, _, _)
            | TExprKind::Unary(CUnOp::Not, _)
    )
}

fn int_shape(t: &CType) -> Result<(Width, Signedness)> {
    match t {
        CType::Int(w, s) => Ok((*w, *s)),
        t => Err(terr(format!(
            "expected an integer type, got `{t}`"
        ))),
    }
}

fn min_word_lit(w: Width, s: Signedness) -> Expr {
    Expr::word(Word::of_int(&Word::min_value(w, s), w, s))
}
