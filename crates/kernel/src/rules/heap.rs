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
use monadic::Prog;

use crate::judgment::{guarded, Judgment};
use crate::rules::{pre_all, V};
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
        acc = Expr::UpdateField(ir::intern::Interned::new(b), path[i].clone(), ir::intern::Interned::new(acc));
    }
    acc
}

/// Validates a heap-abstraction value/update rule.
pub(crate) fn validate_val(rule: Rule, prems: &[&Judgment], concl: &Judgment, cx: &CheckCtx) -> V {
    match rule {
        Rule::HLit => {
            let (pre, abs, conc) = as_hval(concl)?;
            if !pre.is_true_lit() || abs != conc {
                return Err("HLit relates an expression to itself".into());
            }
            if matches!(conc, Expr::Lit(_) | Expr::Var(_)) {
                Ok(())
            } else {
                Err("HLit applies to literals and variables".into())
            }
        }
        Rule::HVar => {
            let (pre, abs, conc) = as_hval(concl)?;
            if !pre.is_true_lit() || abs != conc {
                return Err("HVar relates a variable to itself".into());
            }
            if matches!(conc, Expr::Var(_) | Expr::Global(_) | Expr::Local(_)) {
                Ok(())
            } else {
                Err("HVar applies to variables".into())
            }
        }
        Rule::HCong => {
            let (pre, abs, conc) = as_hval(concl)?;
            // The operator itself must not touch the heap (heap access has
            // dedicated rules).
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
            let conc_kids = conc.children();
            if conc_kids.len() != prems.len() {
                return Err("HCong arity mismatch".into());
            }
            let mut abs_kids = Vec::new();
            let mut pres = Vec::new();
            for (p, ck) in prems.iter().zip(&conc_kids) {
                let (pp, pa, pc) = as_hval(p)?;
                if pc != *ck {
                    return Err("HCong premise concrete side must be the child".into());
                }
                abs_kids.push(pa.clone());
                pres.push(pp.clone());
            }
            if *abs != conc.with_children(&abs_kids)? {
                return Err("HCong abstract side must be the rebuilt operator".into());
            }
            if *pre != pre_all(pres) {
                return Err("HCong precondition must be the conjunction".into());
            }
            Ok(())
        }
        Rule::HValWeaken => {
            let [l, r] = prems else {
                return Err("HValWeaken takes two premises".into());
            };
            let (pl, la, lc) = as_hval(l)?;
            let (pr, ra, rc) = as_hval(r)?;
            let (pre, abs, conc) = as_hval(concl)?;
            let (Expr::BinOp(op, ca, cb), Expr::BinOp(op2, aa, ab)) = (conc, abs) else {
                return Err("HValWeaken relates binary connectives".into());
            };
            if op != op2
                || !matches!(op, BinOp::And | BinOp::Or | BinOp::Implies)
            {
                return Err("HValWeaken applies to ∧/∨/⟶".into());
            }
            if **ca != *lc || **cb != *rc || **aa != *la || **ab != *ra {
                return Err("HValWeaken components mismatch".into());
            }
            let expect = pre_all([pl.clone(), weaken_pre(*op, la, pr)]);
            if *pre == expect {
                Ok(())
            } else {
                Err("HValWeaken precondition must be short-circuit weakened".into())
            }
        }
        Rule::HRead => {
            let [p] = prems else {
                return Err("HRead takes one pointer premise".into());
            };
            let (pp, pa, pc) = as_hval(p)?;
            let (pre, abs, conc) = as_hval(concl)?;
            let (Expr::ReadHeap(ty, cp), Expr::ReadHeap(ty2, ap)) = (conc, abs) else {
                return Err("HRead relates heap reads".into());
            };
            if ty != ty2 || **cp != *pc || **ap != *pa {
                return Err("HRead sides do not match the premise".into());
            }
            let expect = pre_all([pp.clone(), Expr::is_valid(ty.clone(), pa.clone())]);
            if *pre == expect {
                Ok(())
            } else {
                Err("HRead precondition must add is_valid".into())
            }
        }
        Rule::HReadField => {
            let [p] = prems else {
                return Err("HReadField takes one pointer premise".into());
            };
            let (pp, pa, pc) = as_hval(p)?;
            let (pre, abs, conc) = as_hval(concl)?;
            // conc = read (fty) (pc +p off)
            let Expr::ReadHeap(fty, cp) = conc else {
                return Err("HReadField concrete side must be a heap read".into());
            };
            let Expr::BinOp(BinOp::PtrAdd, base, off) = &**cp else {
                return Err("HReadField concrete pointer must be an offset".into());
            };
            if **base != *pc {
                return Err("HReadField base pointer mismatch".into());
            }
            let Expr::Lit(ir::value::Value::Word(offw)) = &**off else {
                return Err("HReadField offset must be a literal".into());
            };
            // abs = field chain of a struct read
            let (sname, path) = strip_field_chain(abs)?;
            let struct_ty = Ty::Struct(sname.clone());
            let expect_path = field_at_offset(&cx.tenv, &sname, offw.bits(), fty)
                .ok_or_else(|| format!("no field of `{sname}` at offset {}", offw.bits()))?;
            if path != expect_path {
                return Err("HReadField field path does not match the offset".into());
            }
            let expect_pre = pre_all([pp.clone(), Expr::is_valid(struct_ty, pa.clone())]);
            if *pre == expect_pre {
                Ok(())
            } else {
                Err("HReadField precondition must add struct is_valid".into())
            }
        }
        Rule::HGuardPtr => {
            let [p] = prems else {
                return Err("HGuardPtr takes one pointer premise".into());
            };
            let (pp, pa, pc) = as_hval(p)?;
            let (pre, abs, conc) = as_hval(concl)?;
            if !abs.is_true_lit() {
                return Err("HGuardPtr abstracts the guard to True".into());
            }
            // conc must be the c_guard of some type at pc.
            let ty = match conc {
                Expr::BinOp(BinOp::And, l, r) => match (&**l, &**r) {
                    (Expr::PtrAligned(t1, p1), Expr::NullFree(t2, p2))
                        if t1 == t2 && **p1 == *pc && **p2 == *pc =>
                    {
                        t1.clone()
                    }
                    _ => return Err("HGuardPtr concrete side must be a pointer guard".into()),
                },
                _ => return Err("HGuardPtr concrete side must be a pointer guard".into()),
            };
            let expect = pre_all([pp.clone(), Expr::is_valid(ty, pa.clone())]);
            if *pre == expect {
                Ok(())
            } else {
                Err("HGuardPtr precondition must be is_valid".into())
            }
        }
        Rule::HUpd => {
            let [p, v] = prems else {
                return Err("HUpd takes pointer and value premises".into());
            };
            let (pp, pa, pc) = as_hval(p)?;
            let (pv, va, vc) = as_hval(v)?;
            let (pre, abs, conc) = as_hupd(concl)?;
            let (Update::Heap(ty, cp, cv), Update::Heap(ty2, ap, av)) = (conc, abs) else {
                return Err("HUpd relates heap writes".into());
            };
            if ty != ty2 || cp != pc || cv != vc || ap != pa || av != va {
                return Err("HUpd sides do not match the premises".into());
            }
            let expect = pre_all([
                pp.clone(),
                pv.clone(),
                Expr::is_valid(ty.clone(), pa.clone()),
            ]);
            if *pre == expect {
                Ok(())
            } else {
                Err("HUpd precondition must add is_valid".into())
            }
        }
        Rule::HUpdField => {
            let [p, v] = prems else {
                return Err("HUpdField takes pointer and value premises".into());
            };
            let (pp, pa, pc) = as_hval(p)?;
            let (pv, va, vc) = as_hval(v)?;
            let (pre, abs, conc) = as_hupd(concl)?;
            let Update::Heap(fty, cp, cv) = conc else {
                return Err("HUpdField concrete side must be a heap write".into());
            };
            if cv != vc {
                return Err("HUpdField value mismatch".into());
            }
            let Expr::BinOp(BinOp::PtrAdd, base, off) = cp else {
                return Err("HUpdField concrete pointer must be an offset".into());
            };
            if **base != *pc {
                return Err("HUpdField base pointer mismatch".into());
            }
            let Expr::Lit(ir::value::Value::Word(offw)) = &**off else {
                return Err("HUpdField offset must be a literal".into());
            };
            // abs must be: heap write at struct ty of a functional field update.
            let Update::Heap(sty @ Ty::Struct(sname), ap, av) = abs else {
                return Err("HUpdField abstract side must be a struct-heap write".into());
            };
            if ap != pa {
                return Err("HUpdField abstract pointer mismatch".into());
            }
            let path = field_at_offset(&cx.tenv, sname, offw.bits(), fty)
                .ok_or_else(|| format!("no field of `{sname}` at offset {}", offw.bits()))?;
            let base_read = Expr::read_heap(sty.clone(), pa.clone());
            let expect_av = field_update_chain(base_read, &path, va.clone());
            if *av != expect_av {
                return Err("HUpdField functional update does not match".into());
            }
            let expect_pre = pre_all([
                pp.clone(),
                pv.clone(),
                Expr::is_valid(sty.clone(), pa.clone()),
            ]);
            if *pre == expect_pre {
                Ok(())
            } else {
                Err("HUpdField precondition must add struct is_valid".into())
            }
        }
        Rule::HUpdVar => {
            let [v] = prems else {
                return Err("HUpdVar takes one value premise".into());
            };
            let (pv, va, vc) = as_hval(v)?;
            let (pre, abs, conc) = as_hupd(concl)?;
            let ok = match (abs, conc) {
                (Update::Local(n1, a), Update::Local(n2, c)) => n1 == n2 && a == va && c == vc,
                (Update::Global(n1, a), Update::Global(n2, c)) => n1 == n2 && a == va && c == vc,
                _ => false,
            };
            if !ok {
                return Err("HUpdVar relates matching variable updates".into());
            }
            if pre == pv {
                Ok(())
            } else {
                Err("HUpdVar precondition must be the premise's".into())
            }
        }
        other => Err(format!("not a heap-value rule: {other:?}")),
    }
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

/// Destructures a field-select chain `Field(…Field(ReadHeap(S, p), f₀)…, fₙ)`.
fn strip_field_chain(e: &Expr) -> Result<(String, Vec<String>), String> {
    let mut path = Vec::new();
    let mut cur = e;
    while let Expr::Field(inner, f) = cur {
        path.push(f.clone());
        cur = inner;
    }
    path.reverse();
    match cur {
        Expr::ReadHeap(Ty::Struct(s), _) => Ok((s.clone(), path)),
        _ => Err("expected a field chain over a struct heap read".into()),
    }
}

/// Validates a heap-abstraction statement rule.
#[allow(clippy::too_many_lines)]
pub(crate) fn validate_stmt(rule: Rule, prems: &[&Judgment], concl: &Judgment, _cx: &CheckCtx) -> V {
    let (abs, conc) = as_hstmt(concl)?;
    match rule {
        Rule::HsGets | Rule::HsRet | Rule::HsThrow => {
            let [v] = prems else {
                return Err("rule takes one value premise".into());
            };
            let (pre, va, vc) = as_hval(v)?;
            let mk: fn(Expr) -> Prog = match rule {
                Rule::HsGets => Prog::Gets,
                Rule::HsRet => Prog::Return,
                _ => Prog::Throw,
            };
            let expect_abs = guarded(GuardKind::HeapValid, pre, mk(va.clone()));
            if *abs == expect_abs && *conc == mk(vc.clone()) {
                Ok(())
            } else {
                Err("conclusion does not match the guarded statement".into())
            }
        }
        Rule::HsModify => {
            let [u] = prems else {
                return Err("HsModify takes one update premise".into());
            };
            let (pre, ua, uc) = as_hupd(u)?;
            let expect_abs = guarded(GuardKind::HeapValid, pre, Prog::Modify(ua.clone()));
            if *abs == expect_abs && *conc == Prog::Modify(uc.clone()) {
                Ok(())
            } else {
                Err("HsModify conclusion does not match".into())
            }
        }
        Rule::HsGuard => {
            let [v] = prems else {
                return Err("HsGuard takes one premise".into());
            };
            let (pre, va, vc) = as_hval(v)?;
            let Prog::Guard(kind, gc) = conc else {
                return Err("HsGuard concrete side must be a guard".into());
            };
            if gc != vc {
                return Err("HsGuard guard expression mismatch".into());
            }
            // guard(True) after abstraction collapses to skip-like guard —
            // keep it literal: guard pre; guard abs (abs may be True).
            let inner = if va.is_true_lit() {
                Prog::skip()
            } else {
                Prog::Guard(kind.clone(), va.clone())
            };
            let expect_abs = guarded(GuardKind::HeapValid, pre, inner);
            if *abs == expect_abs {
                Ok(())
            } else {
                Err("HsGuard conclusion does not match".into())
            }
        }
        Rule::HsFail => {
            if prems.is_empty() && *abs == Prog::Fail && *conc == Prog::Fail {
                Ok(())
            } else {
                Err("HsFail relates fail to fail".into())
            }
        }
        Rule::HsBind => {
            let [l, r] = prems else {
                return Err("HsBind takes two premises".into());
            };
            let (la, lc) = as_hstmt(l)?;
            let (ra, rc) = as_hstmt(r)?;
            let (Prog::Bind(ca, v, cb), Prog::Bind(aa, v2, ab)) = (conc, abs) else {
                return Err("HsBind relates binds".into());
            };
            if v != v2 {
                return Err("HsBind variable mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("HsBind components do not match".into())
            }
        }
        Rule::HsBindTuple => {
            let [l, r] = prems else {
                return Err("HsBindTuple takes two premises".into());
            };
            let (la, lc) = as_hstmt(l)?;
            let (ra, rc) = as_hstmt(r)?;
            let (Prog::BindTuple(ca, vs, cb), Prog::BindTuple(aa, vs2, ab)) = (conc, abs) else {
                return Err("HsBindTuple relates tuple binds".into());
            };
            if vs != vs2 {
                return Err("HsBindTuple pattern mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("HsBindTuple components do not match".into())
            }
        }
        Rule::HsCond => {
            let [c, t, e] = prems else {
                return Err("HsCond takes three premises".into());
            };
            let (pc, ca, cc) = as_hval(c)?;
            let (ta, tc) = as_hstmt(t)?;
            let (ea, ec) = as_hstmt(e)?;
            let expect_abs = guarded(
                GuardKind::HeapValid,
                pc,
                Prog::cond(ca.clone(), ta.clone(), ea.clone()),
            );
            let expect_conc = Prog::cond(cc.clone(), tc.clone(), ec.clone());
            if *abs == expect_abs && *conc == expect_conc {
                Ok(())
            } else {
                Err("HsCond conclusion does not match".into())
            }
        }
        Rule::HsWhile => {
            let [c, b] = prems else {
                return Err("HsWhile takes condition and body premises".into());
            };
            let (pc, ca, cc) = as_hval(c)?;
            let (ba, bc) = as_hstmt(b)?;
            let Prog::While {
                vars: cv,
                cond: ccond,
                body: cbody,
                init: ci,
            } = conc
            else {
                return Err("HsWhile concrete side must be a loop".into());
            };
            // Initialisers must be heap-free (HL does not change them).
            if ci.iter().any(Expr::reads_heap) {
                return Err("HsWhile initialisers must not read the heap".into());
            }
            if *ccond != *cc || **cbody != *bc {
                return Err("HsWhile concrete components do not match".into());
            }
            let expect_abs = hs_while_abs(cv, ca, pc, ba, ci);
            if *abs == expect_abs {
                Ok(())
            } else {
                Err("HsWhile abstract side does not match the guarded loop".into())
            }
        }
        Rule::HsCatch => {
            let [l, r] = prems else {
                return Err("HsCatch takes two premises".into());
            };
            let (la, lc) = as_hstmt(l)?;
            let (ra, rc) = as_hstmt(r)?;
            let (Prog::Catch(ca, v, cb), Prog::Catch(aa, v2, ab)) = (conc, abs) else {
                return Err("HsCatch relates catches".into());
            };
            if v != v2 {
                return Err("HsCatch variable mismatch".into());
            }
            if **ca == *lc && **cb == *rc && **aa == *la && **ab == *ra {
                Ok(())
            } else {
                Err("HsCatch components do not match".into())
            }
        }
        Rule::HsCall => {
            // Arguments must be heap-free; the callee is abstracted
            // elsewhere (same name at both levels).
            let (Prog::Call { fname: cf, args: ca }, Prog::Call { fname: af, args: aa }) =
                (conc, abs)
            else {
                return Err("HsCall relates calls".into());
            };
            if cf != af || ca != aa {
                return Err("HsCall must preserve callee and arguments".into());
            }
            if ca.iter().any(Expr::reads_heap) {
                return Err("HsCall arguments must not read the heap".into());
            }
            Ok(())
        }
        Rule::HsExecConcrete => {
            // exec_concrete M refines M (Sec 4.6).
            let Prog::ExecConcrete(inner) = abs else {
                return Err("HsExecConcrete abstract side must be exec_concrete".into());
            };
            if **inner == *conc {
                Ok(())
            } else {
                Err("HsExecConcrete must wrap the concrete program".into())
            }
        }
        other => Err(format!("not a heap-statement rule: {other:?}")),
    }
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
pub fn h_leaf(cx: &CheckCtx, e: &Expr) -> R {
    let rule = if matches!(e, Expr::Lit(_)) {
        Rule::HLit
    } else {
        Rule::HVar
    };
    Thm::admit(
        rule,
        vec![],
        Judgment::HVal {
            pre: Expr::tt(),
            abs: e.clone(),
            conc: e.clone(),
        },
        Side::None,
        cx,
    )
}

/// Congruence over heap-free operators.
///
/// # Errors
///
/// Fails when premises do not match the children.
pub fn h_cong(cx: &CheckCtx, conc: &Expr, kids: Vec<Thm>) -> R {
    let mut abs_kids = Vec::new();
    let mut pres = Vec::new();
    for k in &kids {
        let (pp, pa, _) = as_hval(k.judgment()).map_err(|m| err(Rule::HCong, m))?;
        abs_kids.push(pa.clone());
        pres.push(pp.clone());
    }
    let abs = conc
        .with_children(&abs_kids)
        .map_err(|m| err(Rule::HCong, m))?;
    Thm::admit(
        Rule::HCong,
        kids,
        Judgment::HVal {
            pre: pre_all(pres),
            abs,
            conc: conc.clone(),
        },
        Side::None,
        cx,
    )
}

/// Boolean connective with short-circuit weakening.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_val_weaken(cx: &CheckCtx, op: BinOp, l: Thm, r: Thm) -> R {
    let (pl, la, lc) = as_hval(l.judgment()).map_err(|m| err(Rule::HValWeaken, m))?;
    let (pr, ra, rc) = as_hval(r.judgment()).map_err(|m| err(Rule::HValWeaken, m))?;
    let concl = Judgment::HVal {
        pre: pre_all([pl.clone(), weaken_pre(op, la, pr)]),
        abs: Expr::binop(op, la.clone(), ra.clone()),
        conc: Expr::binop(op, lc.clone(), rc.clone()),
    };
    Thm::admit(Rule::HValWeaken, vec![l, r], concl, Side::None, cx)
}

/// Typed heap read (direct, non-field).
///
/// # Errors
///
/// Fails on a malformed pointer premise.
pub fn h_read(cx: &CheckCtx, ty: &Ty, p: Thm) -> R {
    let (pp, pa, pc) = as_hval(p.judgment()).map_err(|m| err(Rule::HRead, m))?;
    let concl = Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(ty.clone(), pa.clone())]),
        abs: Expr::read_heap(ty.clone(), pa.clone()),
        conc: Expr::read_heap(ty.clone(), pc.clone()),
    };
    Thm::admit(Rule::HRead, vec![p], concl, Side::None, cx)
}

/// Field read through a struct pointer (offset form → field select).
///
/// # Errors
///
/// Fails when the offset does not name a field of the struct.
pub fn h_read_field(cx: &CheckCtx, sname: &str, fty: &Ty, offset: u64, p: Thm) -> R {
    let (pp, pa, pc) = as_hval(p.judgment()).map_err(|m| err(Rule::HReadField, m))?;
    let path = field_at_offset(&cx.tenv, sname, offset, fty)
        .ok_or_else(|| err(Rule::HReadField, format!("no field at offset {offset}")))?;
    let sty = Ty::Struct(sname.to_owned());
    let abs = field_chain(Expr::read_heap(sty.clone(), pa.clone()), &path);
    let conc = Expr::read_heap(
        fty.clone(),
        Expr::binop(BinOp::PtrAdd, pc.clone(), Expr::u32(offset as u32)),
    );
    let concl = Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(sty, pa.clone())]),
        abs,
        conc,
    };
    Thm::admit(Rule::HReadField, vec![p], concl, Side::None, cx)
}

/// `HPTR`: the concrete pointer guard becomes `is_valid`.
///
/// # Errors
///
/// Fails on a malformed pointer premise.
pub fn h_guard_ptr(cx: &CheckCtx, ty: &Ty, p: Thm) -> R {
    let (pp, pa, pc) = as_hval(p.judgment()).map_err(|m| err(Rule::HGuardPtr, m))?;
    let concl = Judgment::HVal {
        pre: pre_all([pp.clone(), Expr::is_valid(ty.clone(), pa.clone())]),
        abs: Expr::tt(),
        conc: Expr::c_guard(ty.clone(), pc.clone()),
    };
    Thm::admit(Rule::HGuardPtr, vec![p], concl, Side::None, cx)
}

/// Heap write (direct, non-field).
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_upd(cx: &CheckCtx, ty: &Ty, p: Thm, v: Thm) -> R {
    let (pp, pa, pc) = as_hval(p.judgment()).map_err(|m| err(Rule::HUpd, m))?;
    let (pv, va, vc) = as_hval(v.judgment()).map_err(|m| err(Rule::HUpd, m))?;
    let concl = Judgment::HUpd {
        pre: pre_all([
            pp.clone(),
            pv.clone(),
            Expr::is_valid(ty.clone(), pa.clone()),
        ]),
        abs: Update::Heap(ty.clone(), pa.clone(), va.clone()),
        conc: Update::Heap(ty.clone(), pc.clone(), vc.clone()),
    };
    Thm::admit(Rule::HUpd, vec![p, v], concl, Side::None, cx)
}

/// Field write through a struct pointer (offset form → functional update).
///
/// # Errors
///
/// Fails when the offset does not name a field of the struct.
pub fn h_upd_field(
    cx: &CheckCtx,
    sname: &str,
    fty: &Ty,
    offset: u64,
    p: Thm,
    v: Thm,
) -> R {
    let (pp, pa, pc) = as_hval(p.judgment()).map_err(|m| err(Rule::HUpdField, m))?;
    let (pv, va, vc) = as_hval(v.judgment()).map_err(|m| err(Rule::HUpdField, m))?;
    let path = field_at_offset(&cx.tenv, sname, offset, fty)
        .ok_or_else(|| err(Rule::HUpdField, format!("no field at offset {offset}")))?;
    let sty = Ty::Struct(sname.to_owned());
    let base_read = Expr::read_heap(sty.clone(), pa.clone());
    let concl = Judgment::HUpd {
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
        conc: Update::Heap(
            fty.clone(),
            Expr::binop(BinOp::PtrAdd, pc.clone(), Expr::u32(offset as u32)),
            vc.clone(),
        ),
    };
    Thm::admit(Rule::HUpdField, vec![p, v], concl, Side::None, cx)
}

/// Lifts a value premise to a `gets`/`return`/`throw` statement.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_value_stmt(cx: &CheckCtx, rule: Rule, v: Thm) -> R {
    let (pre, va, vc) = as_hval(v.judgment()).map_err(|m| err(rule, m))?;
    let mk: fn(Expr) -> Prog = match rule {
        Rule::HsGets => Prog::Gets,
        Rule::HsRet => Prog::Return,
        Rule::HsThrow => Prog::Throw,
        other => return Err(err(other, "not a value-statement rule")),
    };
    let concl = Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, mk(va.clone())),
        conc: mk(vc.clone()),
    };
    Thm::admit(rule, vec![v], concl, Side::None, cx)
}

/// `HMODIFY`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_modify(cx: &CheckCtx, u: Thm) -> R {
    let (pre, ua, uc) = as_hupd(u.judgment()).map_err(|m| err(Rule::HsModify, m))?;
    let concl = Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, Prog::Modify(ua.clone())),
        conc: Prog::Modify(uc.clone()),
    };
    Thm::admit(Rule::HsModify, vec![u], concl, Side::None, cx)
}

/// Guard-statement abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_guard(cx: &CheckCtx, kind: GuardKind, v: Thm) -> R {
    let (pre, va, vc) = as_hval(v.judgment()).map_err(|m| err(Rule::HsGuard, m))?;
    let inner = if va.is_true_lit() {
        Prog::skip()
    } else {
        Prog::Guard(kind.clone(), va.clone())
    };
    let concl = Judgment::HStmt {
        abs: guarded(GuardKind::HeapValid, pre, inner),
        conc: Prog::Guard(kind, vc.clone()),
    };
    Thm::admit(Rule::HsGuard, vec![v], concl, Side::None, cx)
}

/// `fail ⊑ fail`.
///
/// # Errors
///
/// Infallible in practice.
pub fn hs_fail(cx: &CheckCtx) -> R {
    Thm::admit(
        Rule::HsFail,
        vec![],
        Judgment::HStmt {
            abs: Prog::Fail,
            conc: Prog::Fail,
        },
        Side::None,
        cx,
    )
}

/// `HBIND`.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_bind(cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    let (la, lc) = as_hstmt(l.judgment()).map_err(|m| err(Rule::HsBind, m))?;
    let (ra, rc) = as_hstmt(r.judgment()).map_err(|m| err(Rule::HsBind, m))?;
    let concl = Judgment::HStmt {
        abs: Prog::bind(la.clone(), v, ra.clone()),
        conc: Prog::bind(lc.clone(), v, rc.clone()),
    };
    Thm::admit(Rule::HsBind, vec![l, r], concl, Side::None, cx)
}

/// `HBIND` with a tuple pattern.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_bind_tuple(cx: &CheckCtx, vs: &[String], l: Thm, r: Thm) -> R {
    let (la, lc) = as_hstmt(l.judgment()).map_err(|m| err(Rule::HsBindTuple, m))?;
    let (ra, rc) = as_hstmt(r.judgment()).map_err(|m| err(Rule::HsBindTuple, m))?;
    let concl = Judgment::HStmt {
        abs: Prog::bind_tuple(la.clone(), vs.to_vec(), ra.clone()),
        conc: Prog::bind_tuple(lc.clone(), vs.to_vec(), rc.clone()),
    };
    Thm::admit(Rule::HsBindTuple, vec![l, r], concl, Side::None, cx)
}

/// `condition` abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_cond(cx: &CheckCtx, c: Thm, t: Thm, e: Thm) -> R {
    let (pc, ca, cc) = as_hval(c.judgment()).map_err(|m| err(Rule::HsCond, m))?;
    let (ta, tc) = as_hstmt(t.judgment()).map_err(|m| err(Rule::HsCond, m))?;
    let (ea, ec) = as_hstmt(e.judgment()).map_err(|m| err(Rule::HsCond, m))?;
    let concl = Judgment::HStmt {
        abs: guarded(
            GuardKind::HeapValid,
            pc,
            Prog::cond(ca.clone(), ta.clone(), ea.clone()),
        ),
        conc: Prog::cond(cc.clone(), tc.clone(), ec.clone()),
    };
    Thm::admit(Rule::HsCond, vec![c, t, e], concl, Side::None, cx)
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
    let subst: std::collections::HashMap<String, Expr> = vars
        .iter()
        .cloned()
        .zip(init.iter().cloned())
        .collect();
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

/// `whileLoop` abstraction (condition validity preconditions become loop
/// guards).
///
/// # Errors
///
/// Fails when the initialisers read the heap.
pub fn hs_while(
    cx: &CheckCtx,
    vars: &[String],
    init: &[Expr],
    c: Thm,
    b: Thm,
) -> R {
    let (pc, ca, cc) = as_hval(c.judgment()).map_err(|m| err(Rule::HsWhile, m))?;
    let (ba, bc) = as_hstmt(b.judgment()).map_err(|m| err(Rule::HsWhile, m))?;
    let concl = Judgment::HStmt {
        abs: hs_while_abs(vars, ca, pc, ba, init),
        conc: Prog::While {
            vars: vars.to_vec(),
            cond: cc.clone(),
            body: ir::intern::Interned::new(bc.clone()),
            init: init.to_vec(),
        },
    };
    Thm::admit(Rule::HsWhile, vec![c, b], concl, Side::None, cx)
}

/// Local/global update whose value may read the heap.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn h_upd_var(cx: &CheckCtx, conc: &Update, v: Thm) -> R {
    let (pv, va, vc) = as_hval(v.judgment()).map_err(|m| err(Rule::HUpdVar, m))?;
    let abs = match conc {
        Update::Local(n, c) if c == vc => Update::Local(n.clone(), va.clone()),
        Update::Global(n, c) if c == vc => Update::Global(n.clone(), va.clone()),
        _ => return Err(err(Rule::HUpdVar, "update does not match the premise")),
    };
    let concl = Judgment::HUpd {
        pre: pv.clone(),
        abs,
        conc: conc.clone(),
    };
    Thm::admit(Rule::HUpdVar, vec![v], concl, Side::None, cx)
}

/// `catch` abstraction.
///
/// # Errors
///
/// Fails on malformed premises.
pub fn hs_catch(cx: &CheckCtx, v: &str, l: Thm, r: Thm) -> R {
    let (la, lc) = as_hstmt(l.judgment()).map_err(|m| err(Rule::HsCatch, m))?;
    let (ra, rc) = as_hstmt(r.judgment()).map_err(|m| err(Rule::HsCatch, m))?;
    let concl = Judgment::HStmt {
        abs: Prog::Catch(ir::intern::Interned::new(la.clone()), v.to_owned(), ir::intern::Interned::new(ra.clone())),
        conc: Prog::Catch(ir::intern::Interned::new(lc.clone()), v.to_owned(), ir::intern::Interned::new(rc.clone())),
    };
    Thm::admit(Rule::HsCatch, vec![l, r], concl, Side::None, cx)
}

/// Call congruence (arguments must be heap-free).
///
/// # Errors
///
/// Fails when an argument reads the heap.
pub fn hs_call(cx: &CheckCtx, fname: &str, args: &[Expr]) -> R {
    let call = Prog::Call {
        fname: fname.to_owned(),
        args: args.to_vec(),
    };
    Thm::admit(
        Rule::HsCall,
        vec![],
        Judgment::HStmt {
            abs: call.clone(),
            conc: call,
        },
        Side::None,
        cx,
    )
}

/// `exec_concrete` introduction (Sec 4.6): keeps a function at the
/// byte-heap level inside heap-abstracted code.
///
/// # Errors
///
/// Infallible in practice.
pub fn hs_exec_concrete(cx: &CheckCtx, m: &Prog) -> R {
    Thm::admit(
        Rule::HsExecConcrete,
        vec![],
        Judgment::HStmt {
            abs: Prog::ExecConcrete(ir::intern::Interned::new(m.clone())),
            conc: m.clone(),
        },
        Side::None,
        cx,
    )
}
