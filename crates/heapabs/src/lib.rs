//! The heap-abstraction engine (paper Sec 4).
//!
//! Translates byte-level heap programs into typed-split-heap programs,
//! syntax-directedly, applying one kernel rule per node — so the engine
//! simultaneously produces the abstract program *and* an `abs_h_stmt`
//! theorem that the abstraction is sound (Sec 4.5).
//!
//! Key moves, mirroring Table 4 and the surrounding text:
//!
//! * heap reads become lookups on the per-type heaps, with `is_valid`
//!   guards emitted for each access,
//! * pointer-offset field accesses (`read s (Ptr (ptr_val p + off))`)
//!   become field selects/functional updates on the struct heap,
//! * concrete pointer guards (`ptr_aligned ∧ ¬null`) become `is_valid`
//!   checks (the `HPTR` rule),
//! * functions the user keeps at the byte level are wrapped in
//!   `exec_concrete` at their call sites (Sec 4.6).
//!
//! Functions that use byte-level operations (`memset`-style code) cannot be
//! abstracted and must be listed in [`HlOptions::concrete_fns`].
//!
//! The engine splits expressions with [`Expr::children`], the decomposition
//! the kernel's `HCong` rebuilds with, and rewrites call sites with
//! [`Prog::rewrite`].

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use ir::expr::{BinOp, Expr};
use ir::ty::Ty;
use ir::typing::{infer_ty, ptr_pointee};
use ir::update::Update;
use kernel::rules::heap as hr;
use kernel::{CheckCtx, Judgment, KernelError, Thm};
use monadic::{MonadicFn, Prog, ProgTyping, ProgramCtx};

/// Heap-abstraction options.
#[derive(Clone, Debug, Default)]
pub struct HlOptions {
    /// Functions to keep at the byte level (callable from abstracted code
    /// through `exec_concrete`).
    pub concrete_fns: BTreeSet<String>,
}

/// An engine error.
#[derive(Clone, Debug)]
pub enum HlError {
    /// A kernel rule rejected an application (engine bug).
    Kernel(KernelError),
    /// The function uses features outside the abstractable fragment.
    Unsupported(String),
}

impl fmt::Display for HlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlError::Kernel(e) => write!(f, "heap abstraction: {e}"),
            HlError::Unsupported(m) => write!(f, "heap abstraction: {m}"),
        }
    }
}

impl std::error::Error for HlError {}

impl From<HlError> for ir::diag::Diag {
    fn from(e: HlError) -> ir::diag::Diag {
        let kind = match &e {
            HlError::Kernel(_) => ir::diag::DiagKind::Kernel,
            HlError::Unsupported(_) => ir::diag::DiagKind::Unsupported,
        };
        ir::diag::Diag::new(ir::diag::Phase::Hl, kind, e.to_string())
    }
}

impl From<KernelError> for HlError {
    fn from(e: KernelError) -> HlError {
        HlError::Kernel(e)
    }
}

type R<T> = Result<T, HlError>;

/// Abstracts a whole program; returns the abstracted context and the
/// per-function `abs_h_stmt` theorems (absent for concrete-kept functions).
///
/// # Errors
///
/// Fails when an abstracted function uses byte-level memory operations.
pub fn hl_program(
    cx: &CheckCtx,
    l2ctx: &ProgramCtx,
    opts: &HlOptions,
) -> R<(ProgramCtx, Vec<(String, Thm)>)> {
    let mut out = ProgramCtx {
        tenv: l2ctx.tenv.clone(),
        globals: l2ctx.globals.clone(),
        ..ProgramCtx::default()
    };
    let mut thms = Vec::new();
    for (name, f) in &l2ctx.fns {
        if opts.concrete_fns.contains(name) {
            out.fns.insert(name.clone(), hl_keep_concrete(f, opts));
            continue;
        }
        let (fun, thm) = hl_function(cx, f, opts)?;
        out.fns.insert(name.clone(), fun);
        thms.push((name.clone(), thm));
    }
    Ok((out, thms))
}

/// The HL treatment of a concrete-kept function: the body stays at the
/// byte level, with calls into *abstracted* callees routed through
/// `exec_abstract` markers (the analogous direction of Sec 4.6). No theorem
/// is produced — the function is not abstracted.
#[must_use]
pub fn hl_keep_concrete(f: &MonadicFn, opts: &HlOptions) -> MonadicFn {
    let mut kept = f.clone();
    kept.body = f.body.rewrite(&|p| match p {
        Prog::Call { fname, .. } if !opts.concrete_fns.contains(fname) => {
            Some(Prog::ExecAbstract(ir::intern::Interned::new(p.clone())))
        }
        _ => None,
    });
    kept
}

/// Abstracts one function.
///
/// # Errors
///
/// As for [`hl_program`].
pub fn hl_function(cx: &CheckCtx, f: &MonadicFn, opts: &HlOptions) -> R<(MonadicFn, Thm)> {
    let mut eng = Engine {
        cx,
        opts,
        vars: f.params.iter().cloned().collect(),
    };
    let thm = eng.stmt(&f.body)?;
    let Judgment::HStmt { abs, .. } = thm.judgment() else {
        unreachable!("heap rules conclude abs_h_stmt");
    };
    Ok((
        MonadicFn {
            name: f.name.clone(),
            params: f.params.clone(),
            ret_ty: f.ret_ty.clone(),
            frame: f.frame.clone(),
            body: abs.clone(),
        },
        thm,
    ))
}

struct Engine<'a> {
    cx: &'a CheckCtx,
    opts: &'a HlOptions,
    /// Types of the lambda-bound variables in scope.
    vars: HashMap<String, Ty>,
}

impl<'a> Engine<'a> {
    fn unsupported<T>(&self, msg: impl Into<String>) -> R<T> {
        Err(HlError::Unsupported(msg.into()))
    }

    /// Abstracts an expression, producing an `abs_h_val` theorem.
    fn val(&mut self, e: &Expr) -> R<Thm> {
        match e {
            Expr::Lit(_) | Expr::Var(_) | Expr::Global(_) | Expr::Local(_) => {
                Ok(hr::h_leaf(self.cx, e)?)
            }
            Expr::ReadByte(_) => self.unsupported(
                "byte-level heap access in an abstracted function (keep it concrete)",
            ),
            Expr::ReadHeap(fty, p) => {
                // Field access through a struct pointer?
                if let Expr::BinOp(BinOp::PtrAdd, base, off) = &**p {
                    if let Expr::Lit(ir::value::Value::Word(offw)) = &**off {
                        if let Some(Ty::Struct(sname)) =
                            ptr_pointee(base, &self.vars, &self.cx.tenv)
                        {
                            let pt = self.val(base)?;
                            return Ok(hr::h_read_field(
                                self.cx,
                                &sname,
                                fty,
                                offw.bits(),
                                pt,
                            )?);
                        }
                    }
                }
                let pt = self.val(p)?;
                Ok(hr::h_read(self.cx, fty, pt)?)
            }
            // Concrete pointer guard: ptr_aligned ∧ null-free → is_valid.
            Expr::BinOp(BinOp::And, l, r) => {
                if let (Expr::PtrAligned(t1, p1), Expr::NullFree(t2, p2)) = (&**l, &**r) {
                    if t1 == t2 && p1 == p2 {
                        let pt = self.val(p1)?;
                        return Ok(hr::h_guard_ptr(self.cx, t1, pt)?);
                    }
                }
                let lt = self.val(l)?;
                let rt = self.val(r)?;
                Ok(hr::h_val_weaken(self.cx, BinOp::And, lt, rt)?)
            }
            // Short-circuit weakening keeps validity side conditions of
            // guarded operands conditional (the C translation's weakened
            // guards survive abstraction unchanged in strength).
            Expr::BinOp(op @ (BinOp::Or | BinOp::Implies), l, r) => {
                let lt = self.val(l)?;
                let rt = self.val(r)?;
                Ok(hr::h_val_weaken(self.cx, *op, lt, rt)?)
            }
            Expr::PtrAligned(..) | Expr::NullFree(..) | Expr::IsValid(..) => {
                // A bare pointer-shape predicate outside the c_guard pattern:
                // conservatively keep the function concrete.
                self.unsupported("bare pointer-validity predicate outside a guard")
            }
            _ => self.cong(e),
        }
    }

    /// Congruence: abstract all children.
    fn cong(&mut self, e: &Expr) -> R<Thm> {
        let kids = e.children();
        let mut thms = Vec::with_capacity(kids.len());
        for k in kids {
            thms.push(self.val(k)?);
        }
        Ok(hr::h_cong(self.cx, e, thms)?)
    }

    /// Abstracts an update, producing an `abs_h_modifies` theorem.
    fn upd(&mut self, u: &Update) -> R<Thm> {
        match u {
            Update::Byte(..) | Update::TagRegion(..) => self.unsupported(
                "byte-level heap update in an abstracted function (keep it concrete)",
            ),
            Update::Local(_, e) | Update::Global(_, e) => {
                let vt = self.val(e)?;
                Ok(hr::h_upd_var(self.cx, u, vt)?)
            }
            Update::Heap(fty, p, v) => {
                if let Expr::BinOp(BinOp::PtrAdd, base, off) = p {
                    if let Expr::Lit(ir::value::Value::Word(offw)) = &**off {
                        if let Some(Ty::Struct(sname)) =
                            ptr_pointee(base, &self.vars, &self.cx.tenv)
                        {
                            let pt = self.val(base)?;
                            let vt = self.val(v)?;
                            return Ok(hr::h_upd_field(
                                self.cx,
                                &sname,
                                fty,
                                offw.bits(),
                                pt,
                                vt,
                            )?);
                        }
                    }
                }
                let pt = self.val(p)?;
                let vt = self.val(v)?;
                Ok(hr::h_upd(self.cx, fty, pt, vt)?)
            }
        }
    }

    /// Abstracts a statement, producing an `abs_h_stmt` theorem.
    fn stmt(&mut self, p: &Prog) -> R<Thm> {
        match p {
            Prog::Return(e) => {
                let vt = self.val(e)?;
                Ok(hr::hs_value_stmt(self.cx, kernel::Rule::HsRet, vt)?)
            }
            Prog::Gets(e) => {
                let vt = self.val(e)?;
                Ok(hr::hs_value_stmt(self.cx, kernel::Rule::HsGets, vt)?)
            }
            Prog::Throw(e) => {
                let vt = self.val(e)?;
                Ok(hr::hs_value_stmt(self.cx, kernel::Rule::HsThrow, vt)?)
            }
            Prog::Modify(u) => {
                let ut = self.upd(u)?;
                Ok(hr::hs_modify(self.cx, ut)?)
            }
            Prog::Guard(kind, g) => {
                let vt = self.val(g)?;
                Ok(hr::hs_guard(self.cx, kind.clone(), vt)?)
            }
            Prog::Fail => Ok(hr::hs_fail(self.cx)?),
            Prog::Bind(l, v, r) => {
                let lt = self.stmt(l)?;
                let saved = self.bind_var(v, l);
                let rt = self.stmt(r);
                self.restore(v, saved);
                Ok(hr::hs_bind(self.cx, v, lt, rt?)?)
            }
            Prog::BindTuple(l, vs, r) => {
                let lt = self.stmt(l)?;
                let mut saves = Vec::new();
                let comps = self.typing().tuple_tys(l, vs.len());
                for (v, t) in vs.iter().zip(comps) {
                    let old = match t {
                        Some(t) => self.vars.insert(v.clone(), t),
                        None => self.vars.remove(v),
                    };
                    saves.push(old);
                }
                let rt = self.stmt(r);
                for (v, old) in vs.iter().zip(saves) {
                    self.restore(v, old);
                }
                Ok(hr::hs_bind_tuple(self.cx, vs, lt, rt?)?)
            }
            Prog::Catch(l, v, r) => {
                let lt = self.stmt(l)?;
                // Exception payloads keep their (tuple) types; a best-effort
                // entry is enough for pointee resolution.
                let saved = self.vars.remove(v);
                let rt = self.stmt(r);
                self.restore(v, saved);
                Ok(hr::hs_catch(self.cx, v, lt, rt?)?)
            }
            Prog::Condition(c, t, e) => {
                let ct = self.val(c)?;
                let tt = self.stmt(t)?;
                let et = self.stmt(e)?;
                Ok(hr::hs_cond(self.cx, ct, tt, et)?)
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => {
                let mut saves = Vec::new();
                for (v, i) in vars.iter().zip(init) {
                    let t = infer_ty(i, &self.vars, &self.cx.tenv);
                    let old = match t {
                        Some(t) => self.vars.insert(v.clone(), t),
                        None => self.vars.remove(v),
                    };
                    saves.push(old);
                }
                let ct = self.val(cond);
                let bt = ct.and_then(|ct| {
                    let bt = self.stmt(body)?;
                    Ok((ct, bt))
                });
                for (v, old) in vars.iter().zip(saves) {
                    self.restore(v, old);
                }
                let (ct, bt) = bt?;
                Ok(hr::hs_while(self.cx, vars, init, ct, bt)?)
            }
            Prog::Call { fname, args } => {
                if args.iter().any(Expr::reads_heap) {
                    return self.unsupported("call with heap-reading arguments (L2 hoists these)");
                }
                if self.opts.concrete_fns.contains(fname) {
                    // Sec 4.6: keep the callee at the byte level.
                    let call = Prog::Call {
                        fname: fname.clone(),
                        args: args.clone(),
                    };
                    return Ok(hr::hs_exec_concrete(self.cx, &call)?);
                }
                Ok(hr::hs_call(self.cx, fname, args)?)
            }
            Prog::ExecConcrete(_) | Prog::ExecAbstract(_) => {
                self.unsupported("nested level-mixing markers")
            }
        }
    }

    fn bind_var(&mut self, v: &str, l: &Prog) -> Option<Ty> {
        match self.typing().value_ty(l) {
            Some(t) => self.vars.insert(v.to_owned(), t),
            None => self.vars.remove(v),
        }
    }

    fn restore(&mut self, v: &str, old: Option<Ty>) {
        match old {
            Some(t) => {
                self.vars.insert(v.to_owned(), t);
            }
            None => {
                self.vars.remove(v);
            }
        }
    }

    /// Value types of programs against the variables in scope (calls
    /// are left untyped).
    fn typing(&self) -> ProgTyping<'_> {
        ProgTyping {
            vars: &self.vars,
            tenv: &self.cx.tenv,
            callees: None,
        }
    }
}
