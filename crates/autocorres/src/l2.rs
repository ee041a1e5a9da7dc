//! Phase L2: control-flow abstraction and local-variable lifting.
//!
//! The L1 output is verbose: abrupt termination is encoded with exceptions
//! and the `global_exn_var` ghost variable, and every local lives in the
//! state. L2 produces the reader-friendly form of the paper's figures:
//!
//! * locals become lambda-bound variables (`do t ← gets …; …`),
//! * loops become `whileLoop` combinators whose iterator tuple carries
//!   exactly the locals the loop modifies (Fig 6),
//! * the `return`/`break`/`continue` exception dance is eliminated where
//!   control flow allows (type specialisation), and kept as tagged
//!   exceptions where it does not,
//! * trailing `if (c) return a; return b;` becomes
//!   `return (if c then a else b)` (so `max` comes out exactly as in
//!   Fig 2).
//!
//! Correctness: each L2 function is related to its L1 counterpart by a
//! `refines` theorem admitted via the kernel's `ExecTested` rule — a
//! randomized differential test over generated heaps and arguments (the
//! documented substitute for Isabelle's rewrite-rule proofs, DESIGN.md §2).

use std::collections::{BTreeSet, HashMap};

use cparser::typecheck::{ctype_to_ty, Node, TExprKind, TFunDef, TProgram, TStmt};
use ir::diag::{Diag, DiagKind};
use ir::expr::Expr;
use ir::guard::GuardKind;
use ir::ty::Ty;
use ir::update::Update;
use kernel::rules::refine;
use kernel::{CheckCtx, Thm};
use monadic::{IProg, MonadicFn, Prog, ProgramCtx};
use simpl::stmt::SimplStmt;
use simpl::translate::FnTranslator;

/// Exception tag for `return`.
pub const TAG_RET: u32 = 0;
/// Exception tag for `break`.
pub const TAG_BRK: u32 = 1;
/// Exception tag for `continue`.
pub const TAG_CONT: u32 = 2;

/// An L2 diagnostic (phase `L2`, kind `Unsupported` unless noted).
fn l2_diag(msg: impl Into<String>) -> Diag {
    Diag::new(ir::diag::Phase::L2, DiagKind::Unsupported, msg)
}

fn err<T>(msg: impl Into<String>) -> Result<T, Diag> {
    Err(l2_diag(msg))
}

type R<T> = Result<T, Diag>;

/// The L2 `refines` theorem of one function: an `ExecTested` certificate
/// that the L2 body refines the L1 body, validated differentially. The RNG
/// stream is derived from `(seed, name)` so the theorem statement (which
/// records the seed) is independent of the order functions are processed
/// in — sequential and parallel pipelines produce identical theorems.
///
/// # Errors
///
/// Returns an error when a differential trial finds a refinement violation
/// (which would indicate a driver bug).
pub fn l2_fn_theorem(
    cx: &CheckCtx,
    l2ctx: &ProgramCtx,
    l1ctx: &ProgramCtx,
    heap_types: &[Ty],
    name: &str,
    trials: u32,
    seed: u64,
) -> R<Thm> {
    let fn_seed = crate::pipeline::derive_seed(seed, name);
    let l2b = &l2ctx.fns[name].body;
    let l1b = &l1ctx.fns[name].body;
    refine::exec_tested(cx, l2b, l1b, trials, fn_seed, || {
        crate::testing::exec_test_fn(l2ctx, l1ctx, name, heap_types, trials, fn_seed)
            .map_err(|m| Diag::new(ir::diag::Phase::L2, DiagKind::Testing, m))
    })
    .map_err(|e| {
        Diag::new(
            ir::diag::Phase::L2,
            DiagKind::Testing,
            format!("{name}: {e}"),
        )
        .with_function(name)
    })
}

/// Translates one function to its L2 form.
///
/// # Errors
///
/// Returns an error on unsupported control-flow shapes.
pub fn l2_function(tp: &TProgram, f: &TFunDef) -> R<MonadicFn> {
    let ret_ty = ctype_to_ty(&f.ret);
    let body = normalize(&f.body);
    let direct = returns_only_in_tail(&body, true);
    let mut tr = L2Tr {
        fx: FnTranslator::new(&tp.tenv),
        scope: f.params.iter().map(|(n, _)| n.clone()).collect(),
        locals_order: f.locals.iter().map(|(n, _)| n.clone()).collect(),
        direct,
        ret_void: ret_ty == Ty::Unit,
        tmp: 0,
    };
    // Non-void functions must return through an explicit `return`; falling
    // off the end is unreachable (`Fail`), whether or not control flow is
    // direct.
    let tail = if ret_ty == Ty::Unit {
        Prog::skip()
    } else {
        Prog::Fail
    };
    let mut prog = tr.tr_stmts(&body, tail, None)?;
    if !direct {
        // Early returns arrive as tagged exceptions.
        prog = Prog::Catch(
            ir::intern::Interned::new(prog),
            "·rv".to_owned(),
            ir::intern::Interned::new(Prog::ret(Expr::proj(1, Expr::var("·rv")))),
        );
    }
    let prog = tidy(&prog, &f.volatile_locals);
    // Guard simplification (the paper's Sec 2 phase): discharge guards the
    // decision procedures prove, and drop guards already established on
    // every path to this point.
    let var_tys: std::collections::HashMap<String, ir::ty::Ty> = f
        .locals
        .iter()
        .map(|(n, t)| (n.clone(), ctype_to_ty(t)))
        .collect();
    let prog = discharge_guards(&prog, &var_tys);
    let prog = dedup_guards(&prog, &mut Established::new());
    Ok(MonadicFn {
        name: f.name.clone(),
        params: f
            .params
            .iter()
            .map(|(n, t)| (n.clone(), ctype_to_ty(t)))
            .collect(),
        ret_ty,
        frame: None,
        body: prog,
    })
}

// ---- control-flow analyses -------------------------------------------------

/// Pushes the continuation of an always-exiting `if` into its empty `else`
/// branch, recursively — this is what turns `if (c) return b; return a;`
/// into a two-armed conditional.
fn normalize(stmts: &[TStmt]) -> Vec<TStmt> {
    let mut out: Vec<TStmt> = Vec::new();
    let mut i = 0;
    while i < stmts.len() {
        match &stmts[i] {
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } if else_branch.is_empty()
                && always_exits(then_branch)
                && i + 1 < stmts.len() =>
            {
                let rest = normalize(&stmts[i + 1..]);
                out.push(TStmt::If {
                    cond: cond.clone(),
                    then_branch: normalize(then_branch),
                    else_branch: rest,
                    span: *span,
                });
                return out;
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => out.push(TStmt::If {
                cond: cond.clone(),
                then_branch: normalize(then_branch),
                else_branch: normalize(else_branch),
                span: *span,
            }),
            TStmt::While { cond, body, span } => out.push(TStmt::While {
                cond: cond.clone(),
                body: normalize(body),
                span: *span,
            }),
            TStmt::DoWhile { body, cond, span } => out.push(TStmt::DoWhile {
                body: normalize(body),
                cond: cond.clone(),
                span: *span,
            }),
            TStmt::Block(b) => out.push(TStmt::Block(normalize(b))),
            s => out.push(s.clone()),
        }
        i += 1;
    }
    out
}

/// Does every control path through the block end in `return`/`break`/
/// `continue`?
fn always_exits(stmts: &[TStmt]) -> bool {
    match stmts.last() {
        Some(TStmt::Return(..) | TStmt::Break(_) | TStmt::Continue(_)) => true,
        Some(TStmt::If {
            then_branch,
            else_branch,
            ..
        }) => always_exits(then_branch) && always_exits(else_branch),
        Some(TStmt::Block(b)) => always_exits(b),
        _ => false,
    }
}

/// Do all `return`s occur in tail position (so the function can be
/// translated without the exception encoding)?
fn returns_only_in_tail(stmts: &[TStmt], tail: bool) -> bool {
    for (i, s) in stmts.iter().enumerate() {
        let is_last = i + 1 == stmts.len();
        match s {
            TStmt::Return(..)
                if !(tail && is_last) => {
                    return false;
                }
            TStmt::If {
                then_branch,
                else_branch,
                ..
            }
                if (!returns_only_in_tail(then_branch, tail && is_last)
                    || !returns_only_in_tail(else_branch, tail && is_last))
                => {
                    return false;
                }
            TStmt::While { body, .. } | TStmt::DoWhile { body, .. }
                if contains_return(body) => {
                    return false;
                }
            TStmt::Block(b)
                if !returns_only_in_tail(b, tail && is_last) => {
                    return false;
                }
            _ => {}
        }
    }
    true
}

fn contains_return(stmts: &[TStmt]) -> bool {
    let mut found = false;
    cparser::walk(stmts, &mut |n| {
        found |= matches!(n, Node::Stmt(TStmt::Return(..)));
        !found && matches!(n, Node::Stmt(_))
    });
    found
}

/// Does the block `break` or `continue` its own loop? Nested loops capture
/// their own.
fn contains_break_or_continue(stmts: &[TStmt]) -> (bool, bool) {
    let mut brk = false;
    let mut cont = false;
    cparser::walk(stmts, &mut |n| match n {
        Node::Stmt(TStmt::Break(_)) => {
            brk = true;
            false
        }
        Node::Stmt(TStmt::Continue(_)) => {
            cont = true;
            false
        }
        Node::Stmt(TStmt::While { .. } | TStmt::DoWhile { .. }) | Node::Expr(_) => false,
        Node::Stmt(_) => true,
    });
    (brk, cont)
}

/// Locals (by unique name) assigned anywhere in the block, in `order`.
fn assigned_locals(stmts: &[TStmt], order: &[String], scope: &BTreeSet<String>) -> Vec<String> {
    let mut set = BTreeSet::new();
    cparser::walk(stmts, &mut |n| {
        match n {
            // Member/index chains rooted at a local also assign it.
            Node::Stmt(TStmt::Assign { lhs, .. }) => {
                let mut cur = lhs;
                while let TExprKind::Member(inner, _) | TExprKind::Index(inner, _) = &cur.kind {
                    cur = inner;
                }
                if let TExprKind::Local(n) = &cur.kind {
                    set.insert(n.clone());
                }
            }
            Node::Stmt(TStmt::Decl { name, .. }) => {
                set.insert(name.clone());
            }
            _ => {}
        }
        matches!(n, Node::Stmt(_))
    });
    order
        .iter()
        .filter(|n| set.contains(*n) && scope.contains(*n))
        .cloned()
        .collect()
}

// ---- the translator ---------------------------------------------------------

struct LoopCtx {
    vars: Vec<String>,
}

struct L2Tr<'a> {
    fx: FnTranslator<'a>,
    /// Locals currently in scope (params + declarations seen so far).
    scope: BTreeSet<String>,
    /// Declaration order of all locals (from the typechecker).
    locals_order: Vec<String>,
    direct: bool,
    ret_void: bool,
    tmp: u64,
}

/// A converted pre-step: a guard, a bound call, or a hoisted state read.
enum PreStep {
    Guard(GuardKind, Expr),
    Call { tmp: String, prog: Prog },
    Gets { tmp: String, expr: Expr },
}

impl<'a> L2Tr<'a> {
    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("·t{}", self.tmp)
    }

    /// Converts Simpl pre-statements (hoisted calls wrapped in guards) into
    /// L2 pre-steps.
    fn convert_pre(&mut self, pre: Vec<SimplStmt>) -> R<Vec<PreStep>> {
        let mut out = Vec::new();
        for s in &pre {
            self.convert_pre_one(s, &mut out)?;
        }
        Ok(out)
    }

    fn convert_pre_one(&mut self, s: &SimplStmt, out: &mut Vec<PreStep>) -> R<()> {
        match s {
            SimplStmt::Guard(k, g, inner) => {
                out.push(PreStep::Guard(k.clone(), delocal(g)));
                self.convert_pre_one(inner, out)
            }
            SimplStmt::Call {
                fname,
                args,
                ret_local,
            } => {
                let tmp = ret_local.clone().unwrap_or_else(|| self.fresh());
                let args = self.hoist_heap_args(args.iter().map(delocal).collect(), out);
                out.push(PreStep::Call {
                    tmp,
                    prog: Prog::Call {
                        fname: fname.clone(),
                        args,
                    },
                });
                Ok(())
            }
            SimplStmt::Skip => Ok(()),
            other => err(format!("unexpected hoisted statement: {other:?}")),
        }
    }

    /// Heap-reading call arguments are hoisted into `gets` binds so that
    /// call nodes stay heap-free (a requirement of the heap-abstraction
    /// call rule).
    fn hoist_heap_args(&mut self, args: Vec<Expr>, out: &mut Vec<PreStep>) -> Vec<Expr> {
        args.into_iter()
            .map(|a| {
                if a.reads_state() {
                    let tmp = self.fresh();
                    out.push(PreStep::Gets {
                        tmp: tmp.clone(),
                        expr: a,
                    });
                    Expr::var(tmp)
                } else {
                    a
                }
            })
            .collect()
    }

    /// Wraps `body` in the pre-steps (binds and guards), innermost last.
    /// Trivially-true guards (e.g. division by a non-zero literal) are
    /// discharged by the simplifier here — the L2 guard simplification of
    /// the paper's Sec 2 phase list.
    fn with_pre(&self, pre: Vec<PreStep>, body: Prog) -> Prog {
        pre.into_iter().rev().fold(body, |acc, step| match step {
            PreStep::Guard(_, g)
                if solver::simplify::simplify(&g).is_true_lit() =>
            {
                acc
            }
            PreStep::Guard(k, g) => Prog::then(Prog::Guard(k, g), acc),
            PreStep::Call { tmp, prog } => Prog::bind(prog, tmp, acc),
            PreStep::Gets { tmp, expr } => Prog::bind(Prog::Gets(expr), tmp, acc),
        })
    }

    /// Translates an expression to a value-yielding program plus pre-steps.
    fn value(&mut self, e: &cparser::typecheck::TExpr) -> R<(Vec<PreStep>, Expr)> {
        let mut pre = Vec::new();
        let tr = self
            .fx
            .rvalue(e, &mut pre)
            .map_err(|e| e.in_phase(ir::diag::Phase::L2))?;
        let mut steps = self.convert_pre(pre)?;
        for (k, g) in tr.guards {
            steps.push(PreStep::Guard(k, delocal(&g)));
        }
        Ok((steps, delocal(&tr.expr)))
    }

    /// Translates a condition to a boolean expression plus pre-steps.
    fn condition(&mut self, e: &cparser::typecheck::TExpr) -> R<(Vec<PreStep>, Expr)> {
        let mut pre = Vec::new();
        let tr = self
            .fx
            .cond(e, &mut pre)
            .map_err(|e| e.in_phase(ir::diag::Phase::L2))?;
        let mut steps = self.convert_pre(pre)?;
        for (k, g) in tr.guards {
            steps.push(PreStep::Guard(k, delocal(&g)));
        }
        Ok((steps, delocal(&tr.expr)))
    }

    /// The program yielding a value expression (a `gets` when it reads the
    /// state, a `return` otherwise).
    fn yield_value(e: Expr) -> Prog {
        if e.reads_state() {
            Prog::Gets(e)
        } else {
            Prog::Return(e)
        }
    }

    fn tr_stmts(&mut self, stmts: &[TStmt], tail: Prog, lp: Option<&LoopCtx>) -> R<Prog> {
        let Some((first, rest)) = stmts.split_first() else {
            return Ok(tail);
        };
        let is_last = rest.is_empty();
        match first {
            TStmt::Decl { name, ty, init, .. } => {
                self.scope.insert(name.clone());
                let (steps, e) = match init {
                    Some(e) => self.value(e)?,
                    None => {
                        let zero = ir::value::Value::zero_of(&ctype_to_ty(ty), self.fx.tenv());
                        (Vec::new(), Expr::Lit(zero))
                    }
                };
                let k = self.tr_stmts(rest, tail, lp)?;
                Ok(self.with_pre(steps, Prog::bind(Self::yield_value(e), name.clone(), k)))
            }
            TStmt::Assign { lhs, rhs, .. } => {
                let (mut steps, re) = self.value(rhs)?;
                let mut pre_lhs = Vec::new();
                let (lguards, upd) = self
                    .fx
                    .lvalue_update(lhs, re, &mut pre_lhs)
                    .map_err(|e| e.in_phase(ir::diag::Phase::L2))?;
                steps.extend(self.convert_pre(pre_lhs)?);
                for (k, g) in lguards {
                    steps.push(PreStep::Guard(k, delocal(&g)));
                }
                let k = self.tr_stmts(rest, tail, lp)?;
                let prog = match upd {
                    Update::Local(n, e) => {
                        Prog::bind(Self::yield_value(delocal(&e)), n, k)
                    }
                    other => Prog::then(Prog::Modify(delocal_update(&other)), k),
                };
                Ok(self.with_pre(steps, prog))
            }
            TStmt::ExprCall(e, _) => {
                let TExprKind::Call(name, args) = &e.kind else {
                    return err("expression statement is not a call");
                };
                let mut pre = Vec::new();
                let (guards, arg_exprs) = self
                    .fx
                    .call_args(args, &mut pre)
                    .map_err(|e| e.in_phase(ir::diag::Phase::L2))?;
                let mut steps = self.convert_pre(pre)?;
                for (k, g) in guards {
                    steps.push(PreStep::Guard(k, delocal(&g)));
                }
                let hoisted =
                    self.hoist_heap_args(arg_exprs.iter().map(delocal).collect(), &mut steps);
                let call = Prog::Call {
                    fname: name.clone(),
                    args: hoisted,
                };
                let k = self.tr_stmts(rest, tail, lp)?;
                Ok(self.with_pre(steps, Prog::then(call, k)))
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let (steps, c) = self.condition(cond)?;
                if is_last {
                    // Tail position: both branches continue with the tail.
                    let t = self.tr_stmts(then_branch, tail.clone(), lp)?;
                    let e = self.tr_stmts(else_branch, tail, lp)?;
                    return Ok(self.with_pre(steps, Prog::cond(c, t, e)));
                }
                // Phi-style: branches yield the locals they may change.
                let mut both = then_branch.clone();
                both.extend(else_branch.iter().cloned());
                let vars = assigned_locals(&both, &self.locals_order, &self.scope);
                let k = self.tr_stmts(rest, tail, lp)?;
                if vars.is_empty() {
                    let t = self.tr_stmts(then_branch, Prog::skip(), lp)?;
                    let e = self.tr_stmts(else_branch, Prog::skip(), lp)?;
                    return Ok(self.with_pre(steps, Prog::then(Prog::cond(c, t, e), k)));
                }
                let yield_vars = Prog::ret(pack_expr(&vars));
                let t = self.tr_stmts(then_branch, yield_vars.clone(), lp)?;
                let e = self.tr_stmts(else_branch, yield_vars, lp)?;
                let joined = if vars.len() == 1 {
                    Prog::bind(Prog::cond(c, t, e), vars[0].clone(), k)
                } else {
                    Prog::bind_tuple(Prog::cond(c, t, e), vars.clone(), k)
                };
                Ok(self.with_pre(steps, joined))
            }
            TStmt::While { cond, body, .. } => {
                let (loop_prog, vars) = self.tr_loop(cond, body, None)?;
                let k = self.tr_stmts(rest, tail, lp)?;
                Ok(join_loop(loop_prog, &vars, k))
            }
            TStmt::DoWhile { body, cond, .. } => {
                let (loop_prog, vars) = self.tr_loop(cond, body, Some(body))?;
                let k = self.tr_stmts(rest, tail, lp)?;
                Ok(join_loop(loop_prog, &vars, k))
            }
            TStmt::Return(value, _) => {
                let (steps, e) = match value {
                    Some(e) => self.value(e)?,
                    None => (Vec::new(), Expr::unit()),
                };
                let prog = if self.direct {
                    if self.ret_void && value.is_none() {
                        Prog::skip()
                    } else {
                        Prog::Return(e)
                    }
                } else {
                    Prog::Throw(Expr::Tuple(vec![Expr::u32(TAG_RET), e]))
                };
                // Anything after a return is dead code.
                Ok(self.with_pre(steps, prog))
            }
            TStmt::Break(_) => {
                let Some(l) = lp else {
                    return err("break outside a loop");
                };
                Ok(Prog::Throw(Expr::Tuple(vec![
                    Expr::u32(TAG_BRK),
                    pack_expr(&l.vars),
                ])))
            }
            TStmt::Continue(_) => {
                let Some(l) = lp else {
                    return err("continue outside a loop");
                };
                Ok(Prog::Throw(Expr::Tuple(vec![
                    Expr::u32(TAG_CONT),
                    pack_expr(&l.vars),
                ])))
            }
            TStmt::Block(b) => {
                let mut combined: Vec<TStmt> = b.clone();
                // Keep block-scoping by flattening — names are unique.
                combined.extend(rest.iter().cloned());
                self.tr_stmts(&combined, tail, lp)
            }
        }
    }

    fn loop_vars(&self, body: &[TStmt]) -> Vec<String> {
        let vars = assigned_locals(body, &self.locals_order, &self.scope);
        if vars.is_empty() {
            vec!["_".to_owned()]
        } else {
            vars
        }
    }

    /// Translates a loop; `first` is `Some(body)` for do/while.
    /// Returns the loop program and its iterator variables.
    fn tr_loop(
        &mut self,
        cond: &cparser::typecheck::TExpr,
        body: &[TStmt],
        first: Option<&[TStmt]>,
    ) -> R<(Prog, Vec<String>)> {
        let vars = self.loop_vars(body);
        let dummy = vars == ["_".to_owned()];
        let (cond_steps, c) = self.condition(cond)?;
        // Condition guards must hold at every evaluation: before the loop
        // and at the end of each iteration.
        let cond_guards: Vec<(GuardKind, Expr)> = cond_steps
            .iter()
            .map(|s| match s {
                PreStep::Guard(k, g) => Ok((k.clone(), g.clone())),
                PreStep::Call { .. } | PreStep::Gets { .. } => {
                    err("calls in loop conditions are unsupported")
                }
            })
            .collect::<R<Vec<_>>>()?;

        let (has_brk, has_cont) = contains_break_or_continue(body);
        let lp = LoopCtx { vars: vars.clone() };

        // Body: run statements, then guard the next condition evaluation,
        // then yield the new iterator values.
        let mut body_tail = Prog::ret(if dummy {
            Expr::unit()
        } else {
            pack_expr(&vars)
        });
        for (k, g) in cond_guards.iter().rev() {
            body_tail = Prog::then(Prog::Guard(k.clone(), g.clone()), body_tail);
        }
        let mut body_prog = self.tr_stmts(body, body_tail.clone(), Some(&lp))?;
        if has_cont {
            body_prog = Prog::Catch(
                ir::intern::Interned::new(body_prog),
                "·e".to_owned(),
                ir::intern::Interned::new(Prog::cond(
                    Expr::eq(Expr::proj(0, Expr::var("·e")), Expr::u32(TAG_CONT)),
                    Prog::ret(Expr::proj(1, Expr::var("·e"))),
                    Prog::Throw(Expr::var("·e")),
                )),
            );
        }

        let init = if dummy {
            vec![Expr::unit()]
        } else {
            vars.iter().map(|v| Expr::var(v.clone())).collect()
        };
        let mut loop_prog = Prog::While {
            vars: vars.clone(),
            cond: c,
            body: ir::intern::Interned::new(body_prog.clone()),
            init,
        };
        // do/while: run the body once before the loop (its yielded values
        // seed the iterator).
        if let Some(first_body) = first {
            let mut first_prog = self.tr_stmts(first_body, body_tail, Some(&lp))?;
            if has_cont {
                first_prog = Prog::Catch(
                    ir::intern::Interned::new(first_prog),
                    "·e".to_owned(),
                    ir::intern::Interned::new(Prog::cond(
                        Expr::eq(Expr::proj(0, Expr::var("·e")), Expr::u32(TAG_CONT)),
                        Prog::ret(Expr::proj(1, Expr::var("·e"))),
                        Prog::Throw(Expr::var("·e")),
                    )),
                );
            }
            let mut inner = loop_prog;
            if let Prog::While { init, .. } = &mut inner {
                *init = if dummy {
                    vec![Expr::unit()]
                } else {
                    vars.iter().map(|v| Expr::var(v.clone())).collect()
                };
            }
            loop_prog = if dummy {
                Prog::then(first_prog, inner)
            } else if vars.len() == 1 {
                Prog::bind(first_prog, vars[0].clone(), inner)
            } else {
                Prog::bind_tuple(first_prog, vars.clone(), inner)
            };
        } else {
            // Pre-loop condition guards.
            for (k, g) in cond_guards.iter().rev() {
                loop_prog = Prog::then(Prog::Guard(k.clone(), g.clone()), loop_prog);
            }
        }
        if has_brk {
            loop_prog = Prog::Catch(
                ir::intern::Interned::new(loop_prog),
                "·e".to_owned(),
                ir::intern::Interned::new(Prog::cond(
                    Expr::eq(Expr::proj(0, Expr::var("·e")), Expr::u32(TAG_BRK)),
                    Prog::ret(Expr::proj(1, Expr::var("·e"))),
                    Prog::Throw(Expr::var("·e")),
                )),
            );
        }
        Ok((loop_prog, vars))
    }
}

fn pack_expr(vars: &[String]) -> Expr {
    if vars.len() == 1 {
        Expr::var(vars[0].clone())
    } else {
        Expr::Tuple(vars.iter().map(|v| Expr::var(v.clone())).collect())
    }
}

fn join_loop(loop_prog: Prog, vars: &[String], k: Prog) -> Prog {
    if vars == ["_".to_owned()] {
        Prog::then(loop_prog, k)
    } else if vars.len() == 1 {
        Prog::bind(loop_prog, vars[0].clone(), k)
    } else {
        Prog::bind_tuple(loop_prog, vars.to_vec(), k)
    }
}

/// Replaces state-stored local reads by lambda-bound variable reads.
fn delocal(e: &Expr) -> Expr {
    e.map(&|x| match &x {
        Expr::Local(n) => Expr::Var(*n),
        _ => x,
    })
}

fn delocal_update(u: &Update) -> Update {
    u.map_exprs(&delocal)
}

/// Cosmetic post-pass: the rewrites that make the output match the paper's
/// figures (`condition (return a) (return b)` → `return (if …)`, unit-bind
/// cleanup, `v ← p; return v` → `p`). Bindings of names in `pinned`
/// (`volatile` locals) are never substituted away: their reads must stay
/// exactly where the source put them.
fn tidy(p: &Prog, pinned: &BTreeSet<String>) -> Prog {
    let q = tidy_once(p, pinned);
    if q == *p {
        q
    } else {
        tidy(&q, pinned)
    }
}

fn tidy_once(p: &Prog, pinned: &BTreeSet<String>) -> Prog {
    p.rewrite(&|q| tidy_node(q, pinned))
}

/// One `tidy` rewrite at a node whose sub-programs are already tidied.
fn tidy_node(p: &Prog, pinned: &BTreeSet<String>) -> Option<Prog> {
    match p {
        Prog::Bind(l, v, r) => {
            // v ← return e; return v  →  return e
            if let Prog::Return(e) = &**r {
                if *e == Expr::var(v.clone()) {
                    return Some((**l).clone());
                }
            }
            // v ← return lit/var; r  →  r[v := e], substituting only the
            // free occurrences of v (binder-aware, capture-avoiding).
            // Volatile locals are pinned: their binding survives.
            if let Prog::Return(e) = &**l {
                if matches!(e, Expr::Lit(_) | Expr::Var(_)) && v != "_" && !pinned.contains(v) {
                    if let Some(substituted) = r.subst_var(v, e) {
                        return Some(tidy_once(&substituted, pinned));
                    }
                }
            }
            // _ ← return (); r  →  r
            (**l == Prog::skip()).then(|| (**r).clone())
        }
        Prog::Condition(c, t, e) => match (&**t, &**e) {
            (Prog::Return(a), Prog::Return(b)) => {
                Some(Prog::Return(Expr::ite(c.clone(), a.clone(), b.clone())))
            }
            (Prog::Gets(a), Prog::Gets(b)) => {
                Some(Prog::Gets(Expr::ite(c.clone(), a.clone(), b.clone())))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Drops guards that the solver proves outright (state-free, small goals
/// only — the analogue of Isabelle discharging `4 < 32`-style obligations
/// during translation).
fn discharge_guards(p: &Prog, var_tys: &std::collections::HashMap<String, ir::ty::Ty>) -> Prog {
    let rewrite = |q: &Prog| -> Option<Prog> {
        if let Prog::Guard(_, g) = q {
            if !g.reads_state() && g.term_size() <= 40
                && solver::decide(g, var_tys) == solver::Verdict::Valid {
                    return Some(Prog::skip());
                }
        }
        None
    };
    p.rewrite(&rewrite)
}

/// State-free guards that have executed on every path to a point, each
/// with its free variables.
type Established = HashMap<Expr, BTreeSet<String>>;

/// Drops a guard when an identical, state-independent guard has already
/// executed on every path to it (guards are idempotent; state-free guard
/// expressions are only invalidated by rebinding one of their variables).
/// Guards a sub-program establishes do not flow out of it.
fn dedup_guards(p: &Prog, established: &mut Established) -> Prog {
    if let Prog::Bind(l, v, r) = p {
        if let Prog::Guard(_, g) = &**l {
            if v == "_" && !g.reads_state() {
                if established.contains_key(g) {
                    return dedup_guards(r, established);
                }
                established.insert(g.clone(), g.free_vars());
                return Prog::Bind(
                    l.clone(),
                    v.clone(),
                    IProg::new(dedup_guards(r, established)),
                );
            }
        }
    }
    // The level-mixing markers are left alone. A handler runs after an
    // exception and a loop body after any number of iterations: neither
    // inherits what is established here (a loop binds at least `_`).
    if p.mixes_levels() {
        return p.clone();
    }
    let restart = matches!(p, Prog::Catch(..) | Prog::While { .. });
    p.map_children(&mut |e, _| e.clone(), &mut |q, bound| {
        IProg::new(if bound.is_empty() {
            dedup_guards(q, &mut established.clone())
        } else if restart {
            dedup_guards(q, &mut Established::new())
        } else {
            // Rebinding a variable forgets the guards over it.
            established.retain(|_, vars| !bound.iter().any(|b| vars.contains(b)));
            dedup_guards(q, established)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::expr::BinOp;

    fn nonzero(v: &str) -> Expr {
        Expr::binop(BinOp::Ne, Expr::var(v), Expr::u32(0))
    }

    fn guard(v: &str) -> Prog {
        Prog::guard(GuardKind::DivByZero, nonzero(v))
    }

    #[test]
    fn a_rebound_variable_forgets_only_its_own_guards() {
        // guard x; guard y; x ← return (x + 1); guard x; guard y; return x
        let after = Prog::seq_all([guard("x"), guard("y"), Prog::ret(Expr::var("x"))]);
        let rebind = Prog::ret(Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)));
        let p = Prog::seq_all([guard("x"), guard("y"), Prog::bind(rebind, "x", after)]);
        let out = dedup_guards(&p, &mut Established::new());
        let mut guards = Vec::new();
        out.visit(&mut |q| {
            if let Prog::Guard(_, g) = q {
                guards.push(g.clone());
            }
        });
        assert_eq!(guards, [nonzero("x"), nonzero("y"), nonzero("x")], "{out}");
    }

    #[test]
    fn a_break_in_a_nested_loop_belongs_to_that_loop() {
        let tp = cparser::parse_and_check(
            "unsigned f(unsigned n) {
                unsigned i = 0u;
                while (i < n) {
                    i = i + 1u;
                    while (i < n) { if (i == 5u) break; i = i + 2u; }
                    if (i == 3u) continue;
                }
                return i;
            }",
        )
        .unwrap();
        let first_loop = |stmts: &[TStmt]| {
            stmts.iter().find_map(|s| match s {
                TStmt::While { body, .. } => Some(body.clone()),
                _ => None,
            })
        };
        let outer = first_loop(&tp.functions[0].body).unwrap();
        assert_eq!(contains_break_or_continue(&outer), (false, true));
        let inner = first_loop(&outer).unwrap();
        assert_eq!(contains_break_or_continue(&inner), (true, false));
    }
}
