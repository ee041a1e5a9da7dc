//! The word-abstraction engine (paper Sec 3).
//!
//! Rewrites machine-word programs into ideal `nat`/`int` programs by
//! syntax-directed application of the kernel's Table 3 rules, producing the
//! abstract program together with an `abs_w_stmt` theorem. Unsigned words
//! abstract through `unat` to naturals, signed words through `sint` to
//! integers (Sec 3.2); each rule's precondition (`a + b ≤ UINT_MAX`, …)
//! accumulates and is emitted as a `guard` in the abstract program, exactly
//! as in the paper's worked midpoint example (Sec 3.3).
//!
//! The rule set is extensible (Sec 3.3): [`CustomRule`]s pattern-match
//! code-specific idioms (like the `x > x + y` overflow test) and are
//! admitted through the kernel's sampled-validation rule.
//!
//! Abstraction is selectable per function ([`WaOptions::abstract_fns`]);
//! calls from abstracted to non-abstracted functions re-concretise their
//! arguments with `of_nat`/`of_int` and wrap results in `unat`/`sint`.
//!
//! The engine splits terms with the kernel's own decomposition
//! ([`Expr::children`], [`ir::update::Update::exprs`],
//! [`AbsFun::is_identity`]), so its `WIdCong`/`WsModify` premises come in
//! the order the rules expect by construction.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use ir::expr::{BinOp, Expr, UnOp};
use ir::ty::{Signedness, Ty, Width};
use ir::typing::infer_ty;
use kernel::judgment::VarCtx;
use kernel::rules::word as wr;
use kernel::{AbsFun, CheckCtx, Judgment, KernelError, Rule, Thm};
use monadic::{MonadicFn, Prog, ProgTyping, ProgramCtx};

/// The result of a custom rule application.
#[derive(Clone, Debug)]
pub struct CustomAbs {
    /// Precondition over the abstract variables.
    pub pre: Expr,
    /// The abstraction function of the result.
    pub f: AbsFun,
    /// The abstract expression.
    pub abs: Expr,
}

/// A user-supplied idiom rule: given a concrete expression and the variable
/// abstraction context, optionally produce its abstraction. Admitted by the
/// kernel only after randomized semantic sampling.
pub type CustomRule = Arc<dyn Fn(&Expr, &VarCtx) -> Option<CustomAbs> + Send + Sync>;

/// Word-abstraction options.
#[derive(Clone, Default)]
pub struct WaOptions {
    /// Functions to abstract (`None` = all).
    pub abstract_fns: Option<BTreeSet<String>>,
    /// Additional idiom rules (tried before the built-in rules).
    pub custom_rules: Vec<CustomRule>,
    /// Sampling budget for custom rules.
    pub custom_trials: u32,
}

impl fmt::Debug for WaOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaOptions")
            .field("abstract_fns", &self.abstract_fns)
            .field("custom_rules", &self.custom_rules.len())
            .field("custom_trials", &self.custom_trials)
            .finish()
    }
}

/// An engine error.
#[derive(Clone, Debug)]
pub enum WaError {
    /// A kernel rule rejected an application (engine bug).
    Kernel(KernelError),
    /// Outside the abstractable fragment.
    Unsupported(String),
}

impl fmt::Display for WaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaError::Kernel(e) => write!(f, "word abstraction: {e}"),
            WaError::Unsupported(m) => write!(f, "word abstraction: {m}"),
        }
    }
}

impl std::error::Error for WaError {}

impl From<WaError> for ir::diag::Diag {
    fn from(e: WaError) -> ir::diag::Diag {
        let kind = match &e {
            WaError::Kernel(_) => ir::diag::DiagKind::Kernel,
            WaError::Unsupported(_) => ir::diag::DiagKind::Unsupported,
        };
        ir::diag::Diag::new(ir::diag::Phase::Wa, kind, e.to_string())
    }
}

impl From<KernelError> for WaError {
    fn from(e: KernelError) -> WaError {
        WaError::Kernel(e)
    }
}

type R<T> = Result<T, WaError>;

/// Result of [`wa_program`]: the abstracted program, one theorem per
/// abstracted function, and the extended checking context.
pub type WaProgram = (ProgramCtx, Vec<(String, Thm)>, CheckCtx);

/// Abstracts a program; returns the new context, the per-function
/// `abs_w_stmt` theorems, and the populated [`CheckCtx`] (whose `fn_abs`
/// table records each abstracted function's signature).
///
/// # Errors
///
/// Fails on expressions outside the abstractable fragment.
pub fn wa_program(
    cx: &CheckCtx,
    hlctx: &ProgramCtx,
    opts: &WaOptions,
) -> R<WaProgram> {
    let cx = wa_signatures(cx, hlctx, opts);
    let mut out = ProgramCtx {
        tenv: hlctx.tenv.clone(),
        globals: hlctx.globals.clone(),
        ..ProgramCtx::default()
    };
    let mut thms = Vec::new();
    for (name, f) in &hlctx.fns {
        if !selected(opts, name) {
            out.fns.insert(name.clone(), f.clone());
            continue;
        }
        let (fun, thm) = wa_function_in(&cx, hlctx, f, opts)?;
        out.fns.insert(name.clone(), fun);
        thms.push((name.clone(), thm));
    }
    Ok((out, thms, cx))
}

fn selected(opts: &WaOptions, name: &str) -> bool {
    opts.selects(name)
}

impl WaOptions {
    /// Is `name` selected for word abstraction under these options?
    #[must_use]
    pub fn selects(&self, name: &str) -> bool {
        self.abstract_fns
            .as_ref()
            .is_none_or(|s| s.contains(name))
    }
}

/// The signature pass of [`wa_program`]: extends the checking context's
/// `fn_abs` table with the parameter/return abstraction functions of every
/// selected function, so per-function abstraction (and cross-function call
/// rules) can run in any order afterwards.
#[must_use]
pub fn wa_signatures(cx: &CheckCtx, hlctx: &ProgramCtx, opts: &WaOptions) -> CheckCtx {
    let mut cx = cx.clone();
    for (name, f) in &hlctx.fns {
        if !opts.selects(name) {
            continue;
        }
        let param_fs = f.params.iter().map(|(_, t)| AbsFun::for_ty(t)).collect();
        let rx = AbsFun::for_ty(&f.ret_ty);
        cx.fn_abs
            .insert(name.clone(), (param_fs, rx, AbsFun::Id));
    }
    cx
}

/// Abstracts one function of a program.
///
/// # Errors
///
/// As for [`wa_program`].
pub fn wa_function_in(
    cx: &CheckCtx,
    prog: &ProgramCtx,
    f: &MonadicFn,
    opts: &WaOptions,
) -> R<(MonadicFn, Thm)> {
    let mut eng = Engine {
        cx,
        prog,
        opts,
        vars: f.params.iter().cloned().collect(),
        ctx: VarCtx::new(
            f.params
                .iter()
                .map(|(n, t)| (n.clone(), AbsFun::for_ty(t)))
                .collect(),
        ),
        seed: 0xC0FFEE,
    };
    let want_rx = AbsFun::for_ty(&f.ret_ty);
    let thm = eng.stmt(&f.body, Some(&want_rx))?;
    let Judgment::WStmt { abs, .. } = thm.judgment() else {
        unreachable!("word rules conclude abs_w_stmt");
    };
    Ok((
        MonadicFn {
            name: f.name.clone(),
            params: f
                .params
                .iter()
                .map(|(n, t)| (n.clone(), t.word_abstracted()))
                .collect(),
            ret_ty: f.ret_ty.word_abstracted(),
            frame: f.frame.clone(),
            body: abs.clone(),
        },
        thm,
    ))
}

/// What entering a binder replaced: the outer context, and each bound
/// variable's outer type.
struct Scope {
    ctx: VarCtx,
    tys: Vec<(String, Option<Ty>)>,
}

struct Engine<'a> {
    cx: &'a CheckCtx,
    prog: &'a ProgramCtx,
    opts: &'a WaOptions,
    /// Concrete types of variables in scope.
    vars: HashMap<String, Ty>,
    /// Variable abstraction context.
    ctx: VarCtx,
    seed: u64,
}

impl<'a> Engine<'a> {
    fn unsupported<T>(&self, msg: impl Into<String>) -> R<T> {
        Err(WaError::Unsupported(msg.into()))
    }

    fn ty_of(&self, e: &Expr) -> Option<Ty> {
        infer_ty(e, &self.vars, &self.cx.tenv)
    }

    fn width_of(&self, e: &Expr) -> R<(Width, Signedness)> {
        match self.ty_of(e) {
            Some(Ty::Word(w, s)) => Ok((w, s)),
            t => self.unsupported(format!("expected a word type, inferred {t:?} for `{e}`")),
        }
    }

    /// The natural abstraction of an expression by its type.
    fn natural(&self, e: &Expr) -> AbsFun {
        match self.ty_of(e) {
            Some(t) => AbsFun::for_ty(&t),
            None => AbsFun::Id,
        }
    }

    /// The f of a value theorem.
    fn f_of(t: &Thm) -> AbsFun {
        match t.judgment() {
            Judgment::WVal { f, .. } => f.clone(),
            _ => AbsFun::Id,
        }
    }

    /// Adapts a value theorem to the wanted abstraction function.
    fn adapt(&mut self, t: Thm, want: &AbsFun, conc: &Expr) -> R<Thm> {
        let have = Self::f_of(&t);
        if have == *want {
            return Ok(t);
        }
        match (&have, want) {
            (AbsFun::Unat | AbsFun::Sint, AbsFun::Id) => {
                let (w, s) = self.width_of(conc)?;
                Ok(wr::w_reconcretize(self.cx, w, s, t)?)
            }
            (AbsFun::Id, AbsFun::Unat | AbsFun::Sint) => {
                Ok(wr::w_wrap(self.cx, want.clone(), t)?)
            }
            (AbsFun::Tuple(_), AbsFun::Id) if have.is_identity() => {
                Ok(wr::w_tuple_id(self.cx, t)?)
            }
            (AbsFun::Id, AbsFun::Tuple(fs)) => Ok(wr::w_tuple_wrap(self.cx, fs, t)?),
            (h, w) => self.unsupported(format!("cannot adapt abstraction {h} to {w}")),
        }
    }

    /// Abstracts an expression towards the wanted abstraction function.
    fn val(&mut self, e: &Expr, want: &AbsFun) -> R<Thm> {
        // Custom idiom rules first (Sec 3.3).
        for rule in &self.opts.custom_rules {
            if let Some(c) = rule(e, &self.ctx) {
                let judgment = Judgment::WVal {
                    ctx: self.ctx.clone(),
                    pre: c.pre,
                    f: c.f.clone(),
                    abs: c.abs,
                    conc: e.clone(),
                };
                let mut var_tys = BTreeMap::new();
                for v in e.free_vars() {
                    if let Some(t) = self.vars.get(&v) {
                        var_tys.insert(v, t.clone());
                    }
                }
                self.seed = self.seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let trials = self.opts.custom_trials.max(500);
                let t = wr::w_custom_sampled(self.cx, judgment, var_tys, trials, self.seed)?;
                return self.adapt(t, want, e);
            }
        }
        let t = self.val_natural(e, want)?;
        self.adapt(t, want, e)
    }

    /// Abstracts an expression with its natural abstraction (or directly at
    /// `want` when that steers rule choice).
    fn val_natural(&mut self, e: &Expr, want: &AbsFun) -> R<Thm> {
        match e {
            Expr::Var(n) => Ok(wr::w_var(self.cx, &self.ctx, n)?),
            Expr::Lit(v) => {
                // Literal abstraction at the wanted function when possible.
                let f = match want {
                    AbsFun::Unat | AbsFun::Sint => want.clone(),
                    _ => self.natural(e),
                };
                Ok(wr::w_lit(self.cx, &self.ctx, f, v)?)
            }
            Expr::BinOp(op, a, b) => self.binop(*op, a, b, e, want),
            Expr::UnOp(UnOp::Neg, a) => {
                let (w, s) = self.width_of(e)?;
                if s == Signedness::Signed && *want == AbsFun::Sint {
                    let at = self.val(a, &AbsFun::Sint)?;
                    Ok(wr::s_neg(self.cx, w, at)?)
                } else {
                    self.id_cong(e)
                }
            }
            Expr::Ite(c, t, f2) => {
                let ct = self.val(c, &AbsFun::Id)?;
                let natural = if matches!(want, AbsFun::Unat | AbsFun::Sint) {
                    want.clone()
                } else {
                    self.natural(t)
                };
                let tt = self.val(t, &natural)?;
                let ft = self.val(f2, &natural)?;
                Ok(wr::w_ite(self.cx, ct, tt, ft)?)
            }
            Expr::Tuple(es) => {
                // Componentwise abstraction steered by the wanted function
                // (identity for exception payloads, the iterator tuple for
                // loop bodies, natural otherwise).
                let wants: Vec<AbsFun> = match want {
                    AbsFun::Tuple(fs) if fs.len() == es.len() => fs.clone(),
                    AbsFun::Id => vec![AbsFun::Id; es.len()],
                    _ => es.iter().map(|x| self.natural(x)).collect(),
                };
                let mut kids = Vec::with_capacity(es.len());
                for (x, w) in es.iter().zip(&wants) {
                    kids.push(self.val(x, w)?);
                }
                Ok(wr::w_tuple(self.cx, kids)?)
            }
            Expr::Proj(i, t) => {
                let tf = self.natural(t);
                let tt = self.val(t, &tf)?;
                if matches!(Self::f_of(&tt), AbsFun::Tuple(_)) {
                    Ok(wr::w_proj(self.cx, *i, tt)?)
                } else {
                    self.id_cong(e)
                }
            }
            // State reads, casts, fields, pointer predicates: identity
            // congruence (the state is untouched by word abstraction,
            // Sec 3.3), wrapped by `adapt` when an ideal value is wanted.
            _ => self.id_cong(e),
        }
    }

    fn binop(&mut self, op: BinOp, a: &Expr, b: &Expr, e: &Expr, want: &AbsFun) -> R<Thm> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                let Some(Ty::Word(w, s)) = self.ty_of(e) else {
                    return self.id_cong(e);
                };
                let natural = AbsFun::for_ty(&Ty::Word(w, s));
                if *want != natural {
                    // Identity mode: keep the word operator.
                    return self.id_cong(e);
                }
                let rule = match (op, s) {
                    (Add, Signedness::Unsigned) => Rule::WSum,
                    (Sub, Signedness::Unsigned) => Rule::WSub,
                    (Mul, Signedness::Unsigned) => Rule::WMul,
                    (Div, Signedness::Unsigned) => Rule::WDiv,
                    (Mod, Signedness::Unsigned) => Rule::WMod,
                    (Add, Signedness::Signed) => Rule::SSum,
                    (Sub, Signedness::Signed) => Rule::SSub,
                    (Mul, Signedness::Signed) => Rule::SMul,
                    (Div, Signedness::Signed) => Rule::SDiv,
                    (Mod, Signedness::Signed) => Rule::SMod,
                    _ => unreachable!(),
                };
                let at = self.val(a, &natural)?;
                let bt = self.val(b, &natural)?;
                Ok(wr::w_arith(self.cx, rule, w, at, bt)?)
            }
            Eq | Ne | Lt | Le => {
                // Compare under the operands' natural abstraction when both
                // sides are words; otherwise identity congruence.
                let fa = self.natural(a);
                let fb = self.natural(b);
                if fa == fb && matches!(fa, AbsFun::Unat | AbsFun::Sint) {
                    let at = self.val(a, &fa)?;
                    let bt = self.val(b, &fa)?;
                    Ok(wr::w_cmp(self.cx, op, at, bt)?)
                } else {
                    self.id_cong(e)
                }
            }
            _ => self.id_cong(e),
        }
    }

    /// Identity congruence: rebuild the operator with id-abstracted
    /// children.
    fn id_cong(&mut self, e: &Expr) -> R<Thm> {
        let kids = e.children();
        if kids.is_empty() {
            // Leaves in id mode.
            return match e {
                Expr::Var(n) => {
                    let t = wr::w_var(self.cx, &self.ctx, n)?;
                    self.adapt(t, &AbsFun::Id, e)
                }
                Expr::Lit(v) => Ok(wr::w_lit(self.cx, &self.ctx, AbsFun::Id, v)?),
                Expr::Global(_) | Expr::Local(_) => {
                    Ok(wr::w_id_cong(self.cx, &self.ctx, e, vec![])?)
                }
                other => self.unsupported(format!("unabstractable leaf `{other}`")),
            };
        }
        let mut thms = Vec::with_capacity(kids.len());
        for k in kids {
            thms.push(self.val(k, &AbsFun::Id)?);
        }
        Ok(wr::w_id_cong(self.cx, &self.ctx, e, thms)?)
    }

    /// Abstracts a statement. `want_rx` steers the return-value abstraction
    /// (needed to keep conditional branches consistent).
    fn stmt(&mut self, p: &Prog, want_rx: Option<&AbsFun>) -> R<Thm> {
        match p {
            Prog::Return(e) => {
                let f = want_rx.cloned().unwrap_or_else(|| self.natural(e));
                let vt = self.val(e, &f)?;
                Ok(wr::ws_value_stmt(self.cx, Rule::WsRet, AbsFun::Id, vt)?)
            }
            Prog::Gets(e) => {
                let f = want_rx.cloned().unwrap_or_else(|| self.natural(e));
                let vt = self.val(e, &f)?;
                Ok(wr::ws_value_stmt(self.cx, Rule::WsGets, AbsFun::Id, vt)?)
            }
            Prog::Throw(e) => {
                // Exceptions keep their concrete values (ex = id); the
                // normal-result abstraction is free, so it follows the
                // surrounding context's expectation.
                let vt = self.val(e, &AbsFun::Id)?;
                Ok(wr::ws_value_stmt(
                    self.cx,
                    Rule::WsThrow,
                    want_rx.cloned().unwrap_or(AbsFun::Id),
                    vt,
                )?)
            }
            Prog::Modify(u) => {
                let mut kids = Vec::new();
                for x in u.exprs() {
                    kids.push(self.val(x, &AbsFun::Id)?);
                }
                Ok(wr::ws_modify(self.cx, &self.ctx, AbsFun::Id, u, kids)?)
            }
            Prog::Guard(kind, g) => {
                let vt = self.val(g, &AbsFun::Id)?;
                Ok(wr::ws_guard(self.cx, kind.clone(), AbsFun::Id, vt)?)
            }
            Prog::Fail => Ok(wr::ws_fail(
                self.cx,
                &self.ctx,
                want_rx.cloned().unwrap_or(AbsFun::Id),
                AbsFun::Id,
            )?),
            Prog::Bind(l, v, r) => {
                let lt = self.stmt(l, None)?;
                let lrx = Self::rx_of(&lt);
                let lty = self.typing().value_ty(l);
                let scope = self.enter([(v.as_str(), lty, lrx)]);
                let rt = self.stmt(r, want_rx);
                self.leave(scope);
                Ok(wr::ws_bind(self.cx, v, lt, rt?)?)
            }
            Prog::BindTuple(l, vs, r) => {
                let lt = self.stmt(l, None)?;
                let lrx = Self::rx_of(&lt);
                let fs: Vec<AbsFun> = match &lrx {
                    AbsFun::Tuple(fs) if fs.len() == vs.len() => fs.clone(),
                    f if vs.len() == 1 => vec![f.clone()],
                    _ => {
                        return self.unsupported("tuple bind over a non-tuple abstraction")
                    }
                };
                let tys = self.typing().tuple_tys(l, vs.len());
                let scope = self.enter(vs.iter().map(String::as_str).zip(tys).zip(fs).map(
                    |((v, t), f)| (v, t, f),
                ));
                let rt = self.stmt(r, want_rx);
                self.leave(scope);
                Ok(wr::ws_bind_tuple(self.cx, vs, lt, rt?)?)
            }
            Prog::Catch(l, v, r) => {
                let lt = self.stmt(l, want_rx)?;
                let lrx = Self::rx_of(&lt);
                let scope = self.enter([(v.as_str(), None, AbsFun::Id)]);
                let rt = self.stmt(r, Some(&lrx));
                self.leave(scope);
                Ok(wr::ws_catch(self.cx, v, lt, rt?)?)
            }
            Prog::Condition(c, t, e) => {
                let ct = self.val(c, &AbsFun::Id)?;
                let tt = self.stmt(t, want_rx)?;
                let trx = Self::rx_of(&tt);
                let et = self.stmt(e, Some(&trx))?;
                Ok(wr::ws_cond(self.cx, ct, tt, et)?)
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => self.while_loop(vars, cond, body, init),
            Prog::Call { fname, args } => {
                let (arg_fs, rx_hint): (Vec<AbsFun>, AbsFun) =
                    match self.cx.fn_abs.get(fname) {
                        Some((fs, rx, _)) => (fs.clone(), rx.clone()),
                        None => (
                            args.iter().map(|_| AbsFun::Id).collect(),
                            want_rx.cloned().unwrap_or(AbsFun::Id),
                        ),
                    };
                let mut kids = Vec::with_capacity(args.len());
                for (a, f) in args.iter().zip(&arg_fs) {
                    kids.push(self.val(a, f)?);
                }
                Ok(wr::ws_call(self.cx, &self.ctx, fname, kids, rx_hint)?)
            }
            Prog::ExecConcrete(_) | Prog::ExecAbstract(_) => {
                // Mixed-level code stays at the concrete word level.
                Ok(wr::ws_exec_concrete(self.cx, &self.ctx, p)?)
            }
        }
    }

    fn while_loop(
        &mut self,
        vars: &[String],
        cond: &Expr,
        body: &Prog,
        init: &[Expr],
    ) -> R<Thm> {
        // Initialiser theorems fix each iterator's abstraction.
        let mut init_thms = Vec::with_capacity(init.len());
        let mut fs = Vec::with_capacity(init.len());
        let mut tys = Vec::with_capacity(init.len());
        for i in init {
            let f = self.natural(i);
            init_thms.push(self.val(i, &f)?);
            fs.push(f);
            tys.push(self.ty_of(i));
        }
        let packed = if fs.len() == 1 {
            fs[0].clone()
        } else {
            AbsFun::Tuple(fs.clone())
        };
        let scope = self.enter(
            vars.iter()
                .map(String::as_str)
                .zip(tys)
                .zip(fs)
                .map(|((v, t), f)| (v, t, f)),
        );
        // Condition and body are abstracted in the extended context, which
        // is left before any error propagates.
        let ct_res = self.val(cond, &AbsFun::Id);
        let bt_res = match &ct_res {
            Ok(_) => self.stmt(body, Some(&packed)),
            Err(_) => Err(WaError::Unsupported("skipped".into())),
        };
        self.leave(scope);
        let ct = ct_res?;
        if !Self::pre_of(&ct).is_true_lit() {
            // Should not happen: id-mode conditions have trivial pres.
            return self.unsupported("loop condition with non-trivial precondition");
        }
        let bt = bt_res?;
        Ok(wr::ws_while(
            self.cx, &self.ctx, vars, ct, bt, init_thms,
        )?)
    }

    fn rx_of(t: &Thm) -> AbsFun {
        match t.judgment() {
            Judgment::WStmt { rx, .. } => rx.clone(),
            _ => AbsFun::Id,
        }
    }

    fn pre_of(t: &Thm) -> Expr {
        match t.judgment() {
            Judgment::WVal { pre, .. } => pre.clone(),
            _ => Expr::tt(),
        }
    }

    /// Enters a binder of `binds` (variable, concrete type if known,
    /// abstraction), later ones shadowing earlier ones: records the types
    /// and interns the one context the binder's scope is abstracted in.
    /// Returns what [`Engine::leave`] restores.
    fn enter<'v>(
        &mut self,
        binds: impl IntoIterator<Item = (&'v str, Option<Ty>, AbsFun)>,
    ) -> Scope {
        let mut tys = Vec::new();
        let mut fs = Vec::new();
        for (v, ty, f) in binds {
            let old = match ty {
                Some(t) => self.vars.insert(v.to_owned(), t),
                None => self.vars.remove(v),
            };
            tys.push((v.to_owned(), old));
            fs.push((v, f));
        }
        let ctx = self.ctx.with(fs.iter().map(|(v, f)| (*v, f)));
        Scope {
            ctx: std::mem::replace(&mut self.ctx, ctx),
            tys,
        }
    }

    /// Leaves the binder `scope` entered: the outer context and types.
    fn leave(&mut self, scope: Scope) {
        self.ctx = scope.ctx;
        for (v, old) in scope.tys.into_iter().rev() {
            match old {
                Some(t) => self.vars.insert(v, t),
                None => self.vars.remove(&v),
            };
        }
    }

    /// Concrete value types of programs against the variables in scope,
    /// calls typed by their callees' return types.
    fn typing(&self) -> ProgTyping<'_> {
        ProgTyping {
            vars: &self.vars,
            tenv: &self.cx.tenv,
            callees: Some(self.prog),
        }
    }
}

/// The overflow-test idiom rule of Sec 3.3: `x +w y <w x` (i.e. "the
/// addition wrapped") abstracts to `UINT_MAX < x + y` on naturals.
#[must_use]
pub fn overflow_idiom_rule() -> CustomRule {
    Arc::new(|e: &Expr, ctx: &VarCtx| {
        let Expr::BinOp(BinOp::Lt, sum, x2) = e else {
            return None;
        };
        let Expr::BinOp(BinOp::Add, x, y) = &**sum else {
            return None;
        };
        if x != x2 {
            return None;
        }
        // Both operands must be unat-abstracted variables.
        for v in [x, y] {
            let Expr::Var(n) = &**v else { return None };
            if ctx.get(n.as_str()) != Some(&AbsFun::Unat) {
                return None;
            }
        }
        Some(CustomAbs {
            pre: Expr::tt(),
            f: AbsFun::Id,
            abs: Expr::binop(
                BinOp::Lt,
                Expr::nat(u64::from(u32::MAX)),
                Expr::binop(BinOp::Add, (**x).clone(), (**y).clone()),
            ),
        })
    })
}
