//! Intraprocedural lints over the typed C AST.
//!
//! These run where byte-offset spans are still available (the typed AST
//! mirrors the source shape), so every lint points at the offending
//! statement. All three passes are conservative in the lint direction:
//! they only report what is certainly suspicious on the AST alone —
//!
//! * **dead store** — an assignment (or initialiser) to a local whose
//!   value can never be read afterwards, computed by backward liveness;
//!   stores whose right-hand side calls a function are exempt (the call is
//!   the point of the statement).
//! * **unreachable code** — statements after a `return`/`break`/`continue`
//!   (or after an `if` both of whose branches terminate abruptly), and
//!   branches selected away by a constant condition.
//! * **use before initialisation** — a read of a local declared without an
//!   initialiser before any assignment definitely reaches it.
//!
//! The fourth lint kind, [`LintKind::DefiniteOverflow`], is produced by
//! the flow analysis in the crate root (a guard proved *false*) and only
//! rendered here.

use std::collections::BTreeSet;

use cparser::typecheck::{Node, TExpr, TExprKind, TFunDef, TStmt};
use ir::diag::Span;

/// What a lint is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// A store to a local that is never subsequently read.
    DeadStore,
    /// A statement or branch that can never execute.
    UnreachableCode,
    /// A local read before any initialisation reaches it.
    UseBeforeInit,
    /// A guard the abstract interpreter proved false on every reachable
    /// run: the function definitely faults (e.g. signed overflow).
    DefiniteOverflow,
}

impl LintKind {
    /// Short machine-readable name, used in rendered lint lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintKind::DeadStore => "dead-store",
            LintKind::UnreachableCode => "unreachable",
            LintKind::UseBeforeInit => "use-before-init",
            LintKind::DefiniteOverflow => "definite-overflow",
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Lint {
    /// Classification.
    pub kind: LintKind,
    /// Human-readable description.
    pub message: String,
    /// Statement-level source position.
    pub span: Span,
}

/// Runs all AST lints over one function. Results are in a deterministic
/// order: by pass, then by traversal order within the pass.
#[must_use]
pub fn lint_fn(f: &TFunDef) -> Vec<Lint> {
    let mut out = Vec::new();
    unreachable_pass(&f.body, &mut out);
    use_before_init_pass(f, &mut out);
    dead_store_pass(f, &mut out);
    out
}

// ---- expression helpers ---------------------------------------------------

/// Collects local-variable reads of an expression into `acc`.
fn expr_reads(e: &TExpr, acc: &mut BTreeSet<String>) {
    e.walk(&mut |x| {
        if let TExprKind::Local(n) = &x.kind {
            acc.insert(n.clone());
        }
        true
    });
}

/// Constant-evaluates a condition, when it is built from literals alone.
fn const_cond(e: &TExpr) -> Option<bool> {
    fn cv(e: &TExpr) -> Option<i128> {
        match &e.kind {
            TExprKind::IntLit(v) => Some(i128::from(*v)),
            TExprKind::Unary(cparser::ast::CUnOp::Neg, a) => Some(-cv(a)?),
            TExprKind::Unary(cparser::ast::CUnOp::Not, a) => Some(i128::from(cv(a)? == 0)),
            TExprKind::Cast(_, a) => cv(a),
            _ => None,
        }
    }
    use cparser::ast::CBinOp;
    match &e.kind {
        TExprKind::Binary(op, a, b) => {
            let (x, y) = (cv(a)?, cv(b)?);
            Some(match op {
                CBinOp::Eq => x == y,
                CBinOp::Ne => x != y,
                CBinOp::Lt => x < y,
                CBinOp::Le => x <= y,
                CBinOp::Gt => x > y,
                CBinOp::Ge => x >= y,
                CBinOp::LAnd => x != 0 && y != 0,
                CBinOp::LOr => x != 0 || y != 0,
                _ => return None,
            })
        }
        _ => cv(e).map(|v| v != 0),
    }
}

/// The first span inside a statement sequence (descending into blocks).
fn first_span(stmts: &[TStmt]) -> Option<Span> {
    for s in stmts {
        match s {
            TStmt::Decl { span, .. }
            | TStmt::Assign { span, .. }
            | TStmt::ExprCall(_, span)
            | TStmt::If { span, .. }
            | TStmt::While { span, .. }
            | TStmt::DoWhile { span, .. }
            | TStmt::Return(_, span) => return Some(*span),
            TStmt::Block(inner) => {
                if let Some(sp) = first_span(inner) {
                    return Some(sp);
                }
            }
            TStmt::Break(_) | TStmt::Continue(_) => {}
        }
    }
    None
}

// ---- unreachable code -----------------------------------------------------

/// Does this statement always leave the enclosing block abruptly?
fn terminates(s: &TStmt) -> bool {
    match s {
        TStmt::Return(..) | TStmt::Break(_) | TStmt::Continue(_) => true,
        TStmt::If {
            then_branch,
            else_branch,
            ..
        } => block_terminates(then_branch) && block_terminates(else_branch),
        TStmt::Block(inner) => block_terminates(inner),
        _ => false,
    }
}

fn block_terminates(stmts: &[TStmt]) -> bool {
    stmts.iter().any(terminates)
}

fn unreachable_pass(stmts: &[TStmt], out: &mut Vec<Lint>) {
    let mut dead = false;
    for s in stmts {
        if dead {
            if let Some(span) = first_span(std::slice::from_ref(s)) {
                out.push(Lint {
                    kind: LintKind::UnreachableCode,
                    message: "statement is unreachable".into(),
                    span,
                });
            }
            // One report per dead region.
            break;
        }
        match s {
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => match const_cond(cond) {
                Some(true) => {
                    unreachable_pass(then_branch, out);
                    if let Some(span) = first_span(else_branch) {
                        out.push(Lint {
                            kind: LintKind::UnreachableCode,
                            message: "branch is unreachable (condition is always true)".into(),
                            span,
                        });
                    }
                }
                Some(false) => {
                    if let Some(span) = first_span(then_branch) {
                        out.push(Lint {
                            kind: LintKind::UnreachableCode,
                            message: "branch is unreachable (condition is always false)".into(),
                            span,
                        });
                    }
                    unreachable_pass(else_branch, out);
                }
                None => {
                    unreachable_pass(then_branch, out);
                    unreachable_pass(else_branch, out);
                }
            },
            TStmt::While { cond, body, .. } => {
                if const_cond(cond) == Some(false) {
                    if let Some(span) = first_span(body) {
                        out.push(Lint {
                            kind: LintKind::UnreachableCode,
                            message: "loop body is unreachable (condition is always false)"
                                .into(),
                            span,
                        });
                    }
                } else {
                    unreachable_pass(body, out);
                }
            }
            TStmt::DoWhile { body, .. } => unreachable_pass(body, out),
            TStmt::Block(inner) => unreachable_pass(inner, out),
            _ => {}
        }
        if terminates(s) {
            dead = true;
        }
    }
}

// ---- use before initialisation --------------------------------------------

struct InitState {
    /// Locals declared without an initialiser and not yet assigned.
    uninit: BTreeSet<String>,
    /// Already reported (one lint per variable).
    reported: BTreeSet<String>,
}

fn check_reads(e: &TExpr, span: Span, st: &mut InitState, out: &mut Vec<Lint>) {
    let mut reads = BTreeSet::new();
    expr_reads(e, &mut reads);
    for n in reads {
        if st.uninit.contains(&n) && st.reported.insert(n.clone()) {
            out.push(Lint {
                kind: LintKind::UseBeforeInit,
                message: format!("`{n}` may be read before initialisation"),
                span,
            });
        }
    }
}

fn init_walk(stmts: &[TStmt], st: &mut InitState, out: &mut Vec<Lint>) {
    for s in stmts {
        match s {
            TStmt::Decl {
                name, init, span, ..
            } => {
                if let Some(e) = init {
                    check_reads(e, *span, st, out);
                    st.uninit.remove(name);
                } else {
                    st.uninit.insert(name.clone());
                }
            }
            TStmt::Assign { lhs, rhs, span } => {
                check_reads(rhs, *span, st, out);
                // Reads performed by the lvalue itself (pointer bases,
                // indices), excluding the stored-to local.
                if let TExprKind::Local(n) = &lhs.kind {
                    st.uninit.remove(n);
                } else if let TExprKind::Index(base, idx) = &lhs.kind {
                    // An element store reads the index; the functional
                    // update's read of the array itself is an encoding
                    // artefact, not a source-level read.
                    check_reads(idx, *span, st, out);
                    if let TExprKind::Local(n) = &base.kind {
                        st.uninit.remove(n);
                    }
                } else {
                    check_reads(lhs, *span, st, out);
                }
            }
            TStmt::ExprCall(e, span) => check_reads(e, *span, st, out),
            TStmt::Return(Some(e), span) => check_reads(e, *span, st, out),
            TStmt::Return(None, _) | TStmt::Break(_) | TStmt::Continue(_) => {}
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                check_reads(cond, *span, st, out);
                let saved = st.uninit.clone();
                init_walk(then_branch, st, out);
                let after_then = std::mem::replace(&mut st.uninit, saved);
                init_walk(else_branch, st, out);
                // Initialised-after = initialised on both paths, i.e.
                // still-uninitialised = union.
                st.uninit = st.uninit.union(&after_then).cloned().collect();
            }
            TStmt::While { cond, body, span } => {
                check_reads(cond, *span, st, out);
                let saved = st.uninit.clone();
                init_walk(body, st, out);
                // The body may not run.
                st.uninit = st.uninit.union(&saved).cloned().collect();
            }
            TStmt::DoWhile { body, cond, span } => {
                // The body runs at least once.
                init_walk(body, st, out);
                check_reads(cond, *span, st, out);
            }
            TStmt::Block(inner) => init_walk(inner, st, out),
        }
    }
}

fn use_before_init_pass(f: &TFunDef, out: &mut Vec<Lint>) {
    let mut st = InitState {
        uninit: BTreeSet::new(),
        reported: BTreeSet::new(),
    };
    init_walk(&f.body, &mut st, out);
}

// ---- dead stores ----------------------------------------------------------

/// Every local read anywhere inside `stmts` (used to close loop back
/// edges: a variable read anywhere in a loop body is live around it). A
/// store to a local does not read it.
fn all_reads(stmts: &[TStmt], acc: &mut BTreeSet<String>) {
    cparser::walk(stmts, &mut |n| match n {
        Node::Stmt(TStmt::Assign { lhs, rhs, .. }) if matches!(lhs.kind, TExprKind::Local(_)) => {
            expr_reads(rhs, acc);
            false
        }
        Node::Expr(TExpr {
            kind: TExprKind::Local(n),
            ..
        }) => {
            acc.insert(n.clone());
            true
        }
        _ => true,
    });
}

/// Backward liveness over a statement list. `live` is the live-after set
/// on entry and is updated to the live-before set. Dead stores found on
/// the way are appended to `dead` (re-sorted by the caller).
fn live_walk(stmts: &[TStmt], live: &mut BTreeSet<String>, dead: &mut Vec<Lint>) {
    for s in stmts.iter().rev() {
        match s {
            TStmt::Decl {
                name, init, span, ..
            } => {
                if let Some(e) = init {
                    if !live.contains(name) && !e.has_call() && !is_trivial_init(e) {
                        dead.push(Lint {
                            kind: LintKind::DeadStore,
                            message: format!("value assigned to `{name}` is never read"),
                            span: *span,
                        });
                    }
                    live.remove(name);
                    expr_reads(e, live);
                } else {
                    live.remove(name);
                }
            }
            TStmt::Assign { lhs, rhs, span } => {
                if let TExprKind::Local(n) = &lhs.kind {
                    if !live.contains(n) && !rhs.has_call() {
                        dead.push(Lint {
                            kind: LintKind::DeadStore,
                            message: format!("value assigned to `{n}` is never read"),
                            span: *span,
                        });
                    }
                    live.remove(n);
                    expr_reads(rhs, live);
                } else {
                    // Heap / global stores are observable effects.
                    expr_reads(lhs, live);
                    expr_reads(rhs, live);
                }
            }
            TStmt::ExprCall(e, _) => expr_reads(e, live),
            TStmt::Return(Some(e), _) => expr_reads(e, live),
            TStmt::Return(None, _) | TStmt::Break(_) | TStmt::Continue(_) => {}
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let mut live_t = live.clone();
                live_walk(then_branch, &mut live_t, dead);
                live_walk(else_branch, live, dead);
                live.extend(live_t);
                expr_reads(cond, live);
            }
            TStmt::While { cond, body, .. } => {
                // Live around the back edge: everything read in the body.
                all_reads(body, live);
                expr_reads(cond, live);
                live_walk(body, live, dead);
                expr_reads(cond, live);
            }
            TStmt::DoWhile { body, cond, .. } => {
                all_reads(body, live);
                expr_reads(cond, live);
                live_walk(body, live, dead);
            }
            TStmt::Block(inner) => live_walk(inner, live, dead),
        }
    }
}

/// `int x = 0;`-style defensive initialisers are idiomatic; don't lint
/// them even when the first real store overwrites the value.
fn is_trivial_init(e: &TExpr) -> bool {
    matches!(e.kind, TExprKind::IntLit(0) | TExprKind::Null)
}

fn dead_store_pass(f: &TFunDef, out: &mut Vec<Lint>) {
    let mut live = BTreeSet::new();
    let mut dead = Vec::new();
    live_walk(&f.body, &mut live, &mut dead);
    // Backward traversal finds stores last-first; report in source order.
    dead.sort_by_key(|l| (l.span.offset, l.message.clone()));
    out.extend(dead);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<(LintKind, u32)> {
        let tp = cparser::parse_and_check(src).expect("frontend accepts");
        tp.functions
            .iter()
            .flat_map(lint_fn)
            .map(|l| (l.kind, l.span.line))
            .collect()
    }

    #[test]
    fn detects_dead_store() {
        let ls = lints_of(
            "int f(int a) {\n    int x = a + 1;\n    x = 2;\n    return x;\n}\n",
        );
        assert_eq!(ls, vec![(LintKind::DeadStore, 2)]);
    }

    #[test]
    fn live_through_loop_back_edge_is_not_dead() {
        let ls = lints_of(
            "unsigned f(unsigned n) {\n    unsigned s = 1u;\n    unsigned i = 0u;\n    while (i < n) {\n        s = s + i;\n        i = i + 1u;\n    }\n    return s;\n}\n",
        );
        assert!(ls.is_empty(), "{ls:?}");
    }

    #[test]
    fn detects_unreachable_after_return() {
        let ls = lints_of("int f(int a) {\n    return a;\n    a = 2;\n    return a;\n}\n");
        assert!(
            ls.contains(&(LintKind::UnreachableCode, 3)),
            "{ls:?}"
        );
    }

    #[test]
    fn detects_constant_branch() {
        let ls = lints_of(
            "int f(int a) {\n    if (0) {\n        a = 1;\n    }\n    return a;\n}\n",
        );
        assert_eq!(ls, vec![(LintKind::UnreachableCode, 3)]);
    }

    #[test]
    fn detects_use_before_init() {
        let ls = lints_of("int f(int a) {\n    int x;\n    return x + a;\n}\n");
        assert_eq!(ls, vec![(LintKind::UseBeforeInit, 3)]);
    }

    #[test]
    fn init_on_both_branches_is_initialised() {
        let ls = lints_of(
            "int f(int a) {\n    int x;\n    if (a < 0) {\n        x = 1;\n    } else {\n        x = 2;\n    }\n    return x;\n}\n",
        );
        assert!(ls.is_empty(), "{ls:?}");
    }

    #[test]
    fn init_on_one_branch_only_is_flagged() {
        let ls = lints_of(
            "int f(int a) {\n    int x;\n    if (a < 0) {\n        x = 1;\n    }\n    return x;\n}\n",
        );
        assert_eq!(ls, vec![(LintKind::UseBeforeInit, 6)]);
    }
}
