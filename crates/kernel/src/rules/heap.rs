//! Heap-abstraction rules (paper Sec 4.5, Table 4).
//!
//! Value rules (`abs_h_val`) relate byte-heap expressions to split-heap
//! expressions under `is_valid` preconditions; update rules
//! (`abs_h_modifies`) do the same for state updates; statement rules lift
//! them, emitting `guard` statements (kind [`GuardKind::HeapValid`]) for the
//! accumulated validity side conditions.

use ir::expr::{BinOp, Expr};
use ir::guard::GuardKind;
use ir::ty::Ty;
use ir::update::Update;
use ir::value::Value;
use monadic::Prog;

use crate::judgment::{guarded, Judgment};
use crate::rules::{pre_all, premises, Concl};
use crate::thm::{CheckCtx, KernelError, Rule, Side, Thm};

fn as_hval(j: &Judgment) -> Result<(&Expr, &Expr, &Expr), String> {
    match j {
        Judgment::HVal { pre, abs, conc } => Ok((pre, abs, conc)),
        other => Err(format!("expected abs_h_val, got {}", other.describe())),
    }
}

fn as_hupd(j: &Judgment) -> Result<(&Expr, &Update, &Update), String> {
    match j {
        Judgment::HUpd { pre, abs, conc } => Ok((pre, abs, conc)),
        other => Err(format!("expected abs_h_modifies, got {}", other.describe())),
    }
}

fn as_hstmt(j: &Judgment) -> Result<(&Prog, &Prog), String> {
    match j {
        Judgment::HStmt { abs, conc } => Ok((abs, conc)),
        other => Err(format!("expected abs_h_stmt, got {}", other.describe())),
    }
}

/// Resolves a concrete pointer-offset access `PtrAdd(p, off)` against a
/// struct type: which field chain starts at `off`?
fn field_at_offset(
    tenv: &ir::ty::TypeEnv,
    sname: &str,
    off: u64,
    want: &Ty,
) -> Option<Vec<String>> {
    let def = tenv.struct_def(sname)?;
    for f in &def.fields {
        if f.offset == off && f.ty == *want {
            return Some(vec![f.name.clone()]);
        }
        // Nested structs: recurse when the offset lands inside the field.
        if let Ty::Struct(inner) = &f.ty {
            let size = tenv.size_of(&f.ty).ok()?;
            if off >= f.offset && off < f.offset + size {
                if let Some(mut rest) = field_at_offset(tenv, inner, off - f.offset, want) {
                    let mut path = vec![f.name.clone()];
                    path.append(&mut rest);
                    return Some(path);
                }
            }
        }
    }
    None
}

/// The field path of struct `sname` at byte `offset` with type `fty`.
fn field_path(cx: &CheckCtx, sname: &str, fty: &Ty, offset: u64) -> Result<Vec<String>, String> {
    field_at_offset(&cx.tenv, sname, offset, fty)
        .ok_or_else(|| format!("no field of `{sname}` at offset {offset}"))
}

/// `p +p off` for a field at byte offset `off`.
fn at_offset(p: &Expr, off: u64) -> Expr {
    Expr::binop(BinOp::PtrAdd, p.clone(), Expr::u32(off as u32))
}

/// The byte offset of a field access `p +p off` (the field rules'
/// parameter, as `rules::validate` reads it back).
pub(super) fn offset(p: &Expr) -> Option<u64> {
    let Expr::BinOp(BinOp::PtrAdd, _, off) = p else {
        return None;
    };
    match &**off {
        Expr::Lit(Value::Word(w)) => Some(w.bits()),
        _ => None,
    }
}

/// The struct a field-select chain `Field(…Field(ReadHeap(S, p), f₀)…, fₙ)`
/// reads.
pub(super) fn struct_read(e: &Expr) -> Option<&str> {
    match e {
        Expr::Field(inner, _) => struct_read(inner),
        Expr::ReadHeap(Ty::Struct(s), _) => Some(s),
        _ => None,
    }
}

/// Builds `Field(Field(base, p₀), p₁)…` along a path.
fn field_chain(base: Expr, path: &[String]) -> Expr {
    path.iter().fold(base, |acc, f| Expr::field(acc, f.clone()))
}

/// Builds the nested functional update for a write at a field path.
fn field_update_chain(base: Expr, path: &[String], value: Expr) -> Expr {
    if path.is_empty() {
        return value;
    }
    let inner_base = field_chain(base.clone(), &path[..path.len() - 1]);
    let mut acc = Expr::UpdateField(
        ir::intern::Interned::new(inner_base),
        path[path.len() - 1].clone(),
        ir::intern::Interned::new(value),
    );
    for i in (0..path.len() - 1).rev() {
        let b = field_chain(base.clone(), &path[..i]);
        acc = Expr::UpdateField(
            ir::intern::Interned::new(b),
            path[i].clone(),
            ir::intern::Interned::new(acc),
        );
    }
    acc
}

/// The short-circuit-weakened right precondition: trivially true stays
/// trivial; otherwise it only needs to hold when the right operand is
/// evaluated (`la` for ∧/⟶, `¬la` for ∨).
fn weaken_pre(op: BinOp, la: &Expr, pr: &Expr) -> Expr {
    if pr.is_true_lit() {
        return Expr::tt();
    }
    let cond = match op {
        BinOp::Or => Expr::not(la.clone()),
        _ => la.clone(),
    };
    Expr::implies(cond, pr.clone())
}

/// The guarded abstract loop: the condition's validity precondition is
/// checked before the loop (over the initial values) and at the end of each
/// iteration (over the new iterator values, which the rebinding makes
/// current).
fn hs_while_abs(vars: &[String], ca: &Expr, pc: &Expr, ba: &Prog, init: &[Expr]) -> Prog {
    if pc.is_true_lit() {
        return Prog::While {
            vars: vars.to_vec(),
            cond: ca.clone(),
            body: ir::intern::Interned::new(ba.clone()),
            init: init.to_vec(),
        };
    }
    let pack = if vars.len() == 1 {
        Expr::var(vars[0].clone())
    } else {
        Expr::Tuple(vars.iter().map(|v| Expr::var(v.clone())).collect())
    };
    let tail = Prog::then(
        Prog::Guard(GuardKind::HeapValid, pc.clone()),
        Prog::ret(pack),
    );
    let wrapped_body = if vars.len() == 1 {
        Prog::bind(ba.clone(), vars[0].clone(), tail)
    } else {
        Prog::bind_tuple(ba.clone(), vars.to_vec(), tail)
    };
    // Head guard: the precondition over the initial values.
    let subst: std::collections::HashMap<String, Expr> =
        vars.iter().cloned().zip(init.iter().cloned()).collect();
    let head = pc.subst_vars(&subst);
    Prog::then(
        Prog::Guard(GuardKind::HeapValid, head),
        Prog::While {
            vars: vars.to_vec(),
            cond: ca.clone(),
            body: ir::intern::Interned::new(wrapped_body),
            init: init.to_vec(),
        },
    )
}

// ---- conclusion functions --------------------------------------------------
//
// One per rule (`HLit`/`HVar` and the value statements share one): premises
// and parameters in, side conditions checked, conclusion out. The public
// constructors below apply them through `Thm::infer`; `rules::validate`
// recomputes them.

/// `HLit`/`HVar`: a literal or variable is its own abstraction (`HLit`
/// also takes lambda-bound variables).
pub(super) fn leaf(prems: &[&Judgment], rule: Rule, e: &Expr) -> Concl {
    let [] = premises(prems)?;
    let applies = if rule == Rule::HLit {
        matches!(e, Expr::Lit(_) | Expr::Var(_))
    } else {
        matches!(e, Expr::Var(_) | Expr::Global(_) | Expr::Local(_))
    };
    if !applies {
        return Err(format!("{rule:?} does not apply to `{e}`"));
    }
    Ok(Judgment::HVal {
        pre: Expr::tt(),
        abs: e.clone(),
        conc: e.clone(),
    })
}

/// `HCong`: `conc`'s heap-free operator over abstracted operands, one
/// premise per child in [`Expr::children`] order.
pub(super) fn cong(prems: &[&Judgment], conc: &Expr) -> Concl {
    // Heap access has dedicated rules.
    if matches!(
        conc,
        Expr::ReadHeap(..)
            | Expr::ReadByte(_)
            | Expr::IsValid(..)
            | Expr::PtrAligned(..)
            | Expr::NullFree(..)
    ) {
        return Err("HCong does not apply to heap operators".into());
    }
    let kids = conc.children();
    if kids.len() != prems.len() {
        return Err("HCong arity mismatch".into());
    }
    let mut abs_kids = Vec::with_capacity(kids.len());
    let mut pres = Vec::with_capacity(kids.len());
    for (p, ck) in prems.iter().zip(kids) {
        let (pp, pa, pc) = as_hval(p)?;
        if pc != ck {
            return Err("HCong premise concrete side must be the child".into());
        }
        abs_kids.push(pa.clone());
        pres.push(pp.clone());
    }
    Ok(Judgment::HVal {
        pre: pre_all(pres),
        abs: conc.with_children(&abs_kids)?,
        conc: conc.clone(),
    })
}

/// `HValWeaken`: `∧`/`∨`/`⟶` with the right precondition needed only when
/// the right operand is evaluated.
pub(super) fn val_weaken(prems: &[&Judgment], op: BinOp) -> Concl {
    let [l, r] = premises(prems)?;
    if !matches!(op, BinOp::And | BinOp::Or | BinOp::Implies) {
        return Err("HValWeaken applies to ∧/∨/⟶".into());
    }
    let (pl, la, lc) = as_hval(l)?;
    let (pr, ra, rc) = as_hval(r)?;
    Ok(Judgment::HVal {
        pre: pre_all([pl.clone(), weaken_pre(op, la, pr)]),
        abs: Expr::binop(op, la.clone(), ra.clone()),
        conc: Expr::binop(op, lc.clone(), rc.clone()),
    })
}

/// `HRead`: a typed heap read becomes a split-heap lookup under `is_valid`.
pub(super) fn read(prems: &[&Judgment], ty: &Ty) -> Concl {
    let [p] = premises(prems)?;
    let (pp, pa, pc) = as_hval(p)?;
    Ok(Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(ty.clone(), pa.clone())]),
        abs: Expr::read_heap(ty.clone(), pa.clone()),
        conc: Expr::read_heap(ty.clone(), pc.clone()),
    })
}

/// `HReadField`: a read of type `fty` at byte `offset` into struct `sname`
/// becomes a field select on the struct heap.
pub(super) fn read_field(
    prems: &[&Judgment],
    cx: &CheckCtx,
    sname: &str,
    fty: &Ty,
    offset: u64,
) -> Concl {
    let [p] = premises(prems)?;
    let (pp, pa, pc) = as_hval(p)?;
    let path = field_path(cx, sname, fty, offset)?;
    let sty = Ty::Struct(sname.to_owned());
    Ok(Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(sty.clone(), pa.clone())]),
        abs: field_chain(Expr::read_heap(sty, pa.clone()), &path),
        conc: Expr::read_heap(fty.clone(), at_offset(pc, offset)),
    })
}

/// `HGuardPtr` (`HPTR`): the concrete pointer guard becomes `True` under
/// `is_valid`.
pub(super) fn guard_ptr(prems: &[&Judgment], ty: &Ty) -> Concl {
    let [p] = premises(prems)?;
    let (pp, pa, pc) = as_hval(p)?;
    Ok(Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(ty.clone(), pa.clone())]),
        abs: Expr::tt(),
        conc: Expr::c_guard(ty.clone(), pc.clone()),
    })
}

/// `HUpd`: a heap write becomes a split-heap update under `is_valid`.
pub(super) fn upd(prems: &[&Judgment], ty: &Ty) -> Concl {
    let [p, v] = premises(prems)?;
    let (pp, pa, pc) = as_hval(p)?;
    let (pv, va, vc) = as_hval(v)?;
    Ok(Judgment::HUpd {
        pre: pre_all([
            pp.clone(),
            pv.clone(),
            Expr::is_valid(ty.clone(), pa.clone()),
        ]),
        abs: Update::Heap(ty.clone(), pa.clone(), va.clone()),
        conc: Update::Heap(ty.clone(), pc.clone(), vc.clone()),
    })
}

/// `HUpdField`: a write of type `fty` at byte `offset` into struct `sname`
/// becomes a functional field update of the struct.
pub(super) fn upd_field(
    prems: &[&Judgment],
    cx: &CheckCtx,
    sname: &str,
    fty: &Ty,
    offset: u64,
) -> Concl {
    let [p, v] = premises(prems)?;
    let (pp, pa, pc) = as_hval(p)?;
    let (pv, va, vc) = as_hval(v)?;
    let path = field_path(cx, sname, fty, offset)?;
    let sty = Ty::Struct(sname.to_owned());
    let base_read = Expr::read_heap(sty.clone(), pa.clone());
    Ok(Judgment::HUpd {
        pre: pre_all([
            pp.clone(),
            pv.clone(),
            Expr::is_valid(sty.clone(), pa.clone()),
        ]),
        abs: Update::Heap(
            sty,
            pa.clone(),
            field_update_chain(base_read, &path, va.clone()),
        ),
        conc: Update::Heap(fty.clone(), at_offset(pc, offset), vc.clone()),
    })
}

/// `HUpdVar`: a local or global update whose value the premise abstracts.
pub(super) fn upd_var(prems: &[&Judgment], conc: &Update) -> Concl {
    let [v] = premises(prems)?;
    let (pv, va, vc) = as_hval(v)?;
    let abs = match conc {
        Update::Local(n, c) if c == vc => Update::Local(n.clone(), va.clone()),
        Update::Global(n, c) if c == vc => Update::Global(n.clone(), va.clone()),
        _ => return Err("HUpdVar relates matching variable updates".into()),
    };
    Ok(Judgment::HUpd {
        pre: pv.clone(),
        abs,
        conc: conc.clone(),
    })
}

/// `HsGets`/`HsRet`/`HsThrow`: a value premise lifted to the statement,
/// behind the guard of its precondition.
pub(super) fn value_stmt(prems: &[&Judgment], rule: Rule) -> Concl {
    let [v] = premises(prems)?;
    let (pre, va, vc) = as_hval(v)?;
    let mk: fn(Expr) -> Prog = match rule {
        Rule::HsGets => Prog::Gets,
        Rule::HsRet => Prog::Return,
        _ => Prog::Throw,
    };
    Ok(Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, mk(va.clone())),
        conc: mk(vc.clone()),
    })
}

/// `HsModify` (`HMODIFY`).
pub(super) fn modify(prems: &[&Judgment]) -> Concl {
    let [u] = premises(prems)?;
    let (pre, ua, uc) = as_hupd(u)?;
    Ok(Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, Prog::Modify(ua.clone())),
        conc: Prog::Modify(uc.clone()),
    })
}

/// `HsGuard`: a guard whose condition abstracts to `True` leaves only the
/// guard of its precondition.
pub(super) fn guard(prems: &[&Judgment], kind: &GuardKind) -> Concl {
    let [v] = premises(prems)?;
    let (pre, va, vc) = as_hval(v)?;
    let inner = if va.is_true_lit() {
        Prog::skip()
    } else {
        Prog::Guard(kind.clone(), va.clone())
    };
    Ok(Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, inner),
        conc: Prog::Guard(kind.clone(), vc.clone()),
    })
}

/// `HsFail`: `fail` abstracts `fail`.
pub(super) fn fail(prems: &[&Judgment]) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::HStmt {
        abs: Prog::Fail,
        conc: Prog::Fail,
    })
}

/// `HsBind` (`HBIND`).
pub(super) fn bind(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (la, lc) = as_hstmt(l)?;
    let (ra, rc) = as_hstmt(r)?;
    Ok(Judgment::HStmt {
        abs: Prog::bind(la.clone(), v, ra.clone()),
        conc: Prog::bind(lc.clone(), v, rc.clone()),
    })
}

/// `HsBindTuple`: `HBIND` with a tuple pattern.
pub(super) fn bind_tuple(prems: &[&Judgment], vs: &[String]) -> Concl {
    let [l, r] = premises(prems)?;
    let (la, lc) = as_hstmt(l)?;
    let (ra, rc) = as_hstmt(r)?;
    Ok(Judgment::HStmt {
        abs: Prog::bind_tuple(la.clone(), vs.to_vec(), ra.clone()),
        conc: Prog::bind_tuple(lc.clone(), vs.to_vec(), rc.clone()),
    })
}

/// `HsCond`: `condition` behind the guard of the condition's precondition.
pub(super) fn cond(prems: &[&Judgment]) -> Concl {
    let [c, t, e] = premises(prems)?;
    let (pc, ca, cc) = as_hval(c)?;
    let (ta, tc) = as_hstmt(t)?;
    let (ea, ec) = as_hstmt(e)?;
    Ok(Judgment::HStmt {
        abs: guarded(
            GuardKind::HeapValid,
            pc,
            Prog::cond(ca.clone(), ta.clone(), ea.clone()),
        ),
        conc: Prog::cond(cc.clone(), tc.clone(), ec.clone()),
    })
}

/// `HsWhile`: the loop over iterators `vars` from the heap-free
/// initialisers `init` (heap abstraction leaves them unchanged), the
/// condition's validity precondition guarding entry and every iteration.
pub(super) fn while_loop(prems: &[&Judgment], vars: &[String], init: &[Expr]) -> Concl {
    let [c, b] = premises(prems)?;
    if init.iter().any(Expr::reads_heap) {
        return Err("HsWhile initialisers must not read the heap".into());
    }
    let (pc, ca, cc) = as_hval(c)?;
    let (ba, bc) = as_hstmt(b)?;
    Ok(Judgment::HStmt {
        abs: hs_while_abs(vars, ca, pc, ba, init),
        conc: Prog::While {
            vars: vars.to_vec(),
            cond: cc.clone(),
            body: ir::intern::Interned::new(bc.clone()),
            init: init.to_vec(),
        },
    })
}

/// `HsCatch`.
pub(super) fn catch(prems: &[&Judgment], v: &str) -> Concl {
    let [l, r] = premises(prems)?;
    let (la, lc) = as_hstmt(l)?;
    let (ra, rc) = as_hstmt(r)?;
    Ok(Judgment::HStmt {
        abs: Prog::Catch(
            ir::intern::Interned::new(la.clone()),
            v.to_owned(),
            ir::intern::Interned::new(ra.clone()),
        ),
        conc: Prog::Catch(
            ir::intern::Interned::new(lc.clone()),
            v.to_owned(),
            ir::intern::Interned::new(rc.clone()),
        ),
    })
}

/// `HsCall`: a call with heap-free arguments is unchanged (the callee is
/// abstracted under the same name).
pub(super) fn call(prems: &[&Judgment], fname: &str, args: &[Expr]) -> Concl {
    let [] = premises(prems)?;
    if args.iter().any(Expr::reads_heap) {
        return Err("HsCall arguments must not read the heap".into());
    }
    let call = Prog::Call {
        fname: fname.to_owned(),
        args: args.to_vec(),
    };
    Ok(Judgment::HStmt {
        abs: call.clone(),
        conc: call,
    })
}

/// `HsExecConcrete`: `exec_concrete m` refines `m` (Sec 4.6).
pub(super) fn exec_concrete(prems: &[&Judgment], m: &Prog) -> Concl {
    let [] = premises(prems)?;
    Ok(Judgment::HStmt {
        abs: Prog::ExecConcrete(ir::intern::Interned::new(m.clone())),
        conc: m.clone(),
    })
}

// ---- public constructors ---------------------------------------------------

type R = Result<Thm, KernelError>;

fn err(rule: Rule, msg: impl Into<String>) -> KernelError {
    KernelError {
        rule,
        msg: msg.into(),
    }
}

/// `abs_h_val True e e` for literals/variables.
///
/// # Errors
///
/// Fails on non-leaf expressions.
pub fn h_leaf(_cx: &CheckCtx, e: &Expr) -> R {
    let rule = if matches!(e, Expr::Lit(_)) {
        Rule::HLit
    } else {
        Rule::HVar
    };
    Thm::infer(rule, vec![], Side::None, |p| leaf(p, rule, e))
}

/// Congruence over heap-free operators.
///
/// # Errors
///
/// Fails when premises do not match the children.
pub fn h_cong(_cx: &CheckCtx, conc: &Expr, kids: Vec<Thm>) -> R {
    Thm::infer(Rule::HCong, kids, Side::None, |p| cong(p, conc))
}

/// Boolean connective with short-circuit weakening.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_val_weaken(_cx: &CheckCtx, op: BinOp, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::HValWeaken, vec![l, r], Side::None, |p| {
        val_weaken(p, op)
    })
}

/// Typed heap read (direct, non-field).
///
/// # Errors
///
/// Fails on a malformed pointer premise.
pub fn h_read(_cx: &CheckCtx, ty: &Ty, p: Thm) -> R {
    Thm::infer(Rule::HRead, vec![p], Side::None, |ps| read(ps, ty))
}

/// Field read through a struct pointer (offset form → field select).
///
/// # Errors
///
/// Fails when the offset does not name a field of the struct.
pub fn h_read_field(cx: &CheckCtx, sname: &str, fty: &Ty, offset: u64, p: Thm) -> R {
    Thm::infer(Rule::HReadField, vec![p], Side::None, |ps| {
        read_field(ps, cx, sname, fty, offset)
    })
}

/// `HPTR`: the concrete pointer guard becomes `is_valid`.
///
/// # Errors
///
/// Fails on a malformed pointer premise.
pub fn h_guard_ptr(_cx: &CheckCtx, ty: &Ty, p: Thm) -> R {
    Thm::infer(Rule::HGuardPtr, vec![p], Side::None, |ps| guard_ptr(ps, ty))
}

/// Heap write (direct, non-field).
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_upd(_cx: &CheckCtx, ty: &Ty, p: Thm, v: Thm) -> R {
    Thm::infer(Rule::HUpd, vec![p, v], Side::None, |ps| upd(ps, ty))
}

/// Field write through a struct pointer (offset form → functional update).
///
/// # Errors
///
/// Fails when the offset does not name a field of the struct.
pub fn h_upd_field(cx: &CheckCtx, sname: &str, fty: &Ty, offset: u64, p: Thm, v: Thm) -> R {
    Thm::infer(Rule::HUpdField, vec![p, v], Side::None, |ps| {
        upd_field(ps, cx, sname, fty, offset)
    })
}

/// Lifts a value premise to a `gets`/`return`/`throw` statement.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_value_stmt(_cx: &CheckCtx, rule: Rule, v: Thm) -> R {
    if !matches!(rule, Rule::HsGets | Rule::HsRet | Rule::HsThrow) {
        return Err(err(rule, "not a value-statement rule"));
    }
    Thm::infer(rule, vec![v], Side::None, |p| value_stmt(p, rule))
}

/// `HMODIFY`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_modify(_cx: &CheckCtx, u: Thm) -> R {
    Thm::infer(Rule::HsModify, vec![u], Side::None, modify)
}

/// Guard-statement abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_guard(_cx: &CheckCtx, kind: GuardKind, v: Thm) -> R {
    Thm::infer(Rule::HsGuard, vec![v], Side::None, |p| guard(p, &kind))
}

/// `fail ⊑ fail`.
///
/// # Errors
///
/// Infallible in practice.
pub fn hs_fail(_cx: &CheckCtx) -> R {
    Thm::infer(Rule::HsFail, vec![], Side::None, fail)
}

/// `HBIND`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_bind(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::HsBind, vec![l, r], Side::None, |p| bind(p, v))
}

/// `HBIND` with a tuple pattern.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_bind_tuple(_cx: &CheckCtx, vs: &[String], l: Thm, r: Thm) -> R {
    Thm::infer(Rule::HsBindTuple, vec![l, r], Side::None, |p| {
        bind_tuple(p, vs)
    })
}

/// `condition` abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_cond(_cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    Thm::infer(Rule::HsCond, vec![c, t, e], Side::None, cond)
}

/// `whileLoop` abstraction (condition validity preconditions become loop
/// guards).
///
/// # Errors
///
/// Fails when the initialisers read the heap.
pub fn hs_while(_cx: &CheckCtx, vars: &[String], init: &[Expr], c: Thm, b: Thm) -> R {
    Thm::infer(Rule::HsWhile, vec![c, b], Side::None, |p| {
        while_loop(p, vars, init)
    })
}

/// Local/global update whose value may read the heap.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_upd_var(_cx: &CheckCtx, conc: &Update, v: Thm) -> R {
    Thm::infer(Rule::HUpdVar, vec![v], Side::None, |p| upd_var(p, conc))
}

/// `catch` abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_catch(_cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    Thm::infer(Rule::HsCatch, vec![l, r], Side::None, |p| catch(p, v))
}

/// Call congruence (arguments must be heap-free).
///
/// # Errors
///
/// Fails when an argument reads the heap.
pub fn hs_call(_cx: &CheckCtx, fname: &str, args: &[Expr]) -> R {
    Thm::infer(Rule::HsCall, vec![], Side::None, |p| call(p, fname, args))
}

/// `exec_concrete` introduction (Sec 4.6): keeps a function at the
/// byte-heap level inside heap-abstracted code.
///
/// # Errors
///
/// Infallible in practice.
pub fn hs_exec_concrete(_cx: &CheckCtx, m: &Prog) -> R {
    Thm::infer(Rule::HsExecConcrete, vec![], Side::None, |p| {
        exec_concrete(p, m)
    })
}
