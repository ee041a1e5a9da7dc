//! Weakest-precondition computation.

use std::collections::HashMap;
use std::fmt;

use ir::diag::Span;
use ir::expr::{BinOp, CastKind, Expr};
use ir::ty::{Ty, TypeEnv};
use ir::update::Update;
use monadic::Prog;

/// The result variable name used in postconditions.
pub const RV: &str = "·rv";

/// Which heap reasoning rules apply (the experiment's independent variable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapModel {
    /// Typed split heaps (post-HL): writes rewrite reads exactly; validity
    /// is independent of data (Sec 4.4).
    SplitHeaps,
    /// Byte-level heap (pre-HL): every read-over-write pair needs a
    /// disjointness obligation (the Fig 3 preconditions).
    ByteLevel,
}

/// A Hoare specification: `{pre} prog {λ·rv. post}`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Precondition over the initial state.
    pub pre: Expr,
    /// Postcondition; the result is the free variable [`RV`].
    pub post: Expr,
}

/// A loop annotation: invariant (over the iterator variables and the
/// state) and optional termination measure (a `nat`-valued expression) for
/// total correctness.
#[derive(Clone, Debug)]
pub struct LoopAnn {
    /// Loop invariant.
    pub inv: Expr,
    /// Termination measure (strictly decreasing).
    pub measure: Option<Expr>,
    /// Types of the iterator variables (for the solver).
    pub var_tys: Vec<(String, Ty)>,
}

/// Statement-level source positions for VC provenance, parallel to the
/// annotation list: `loops[i]` is the span of the loop consuming annotation
/// `i` (WP-traversal order, same convention as `anns`), and `main` is the
/// span of the statement the main VC's postcondition is checked at
/// (typically the `return`).
///
/// Threaded through the WP traversal so a refuted VC can point at the
/// statement whose obligation failed instead of the function header.
#[derive(Clone, Debug, Default)]
pub struct SpanInfo {
    /// Span for the "main" VC (the return statement / function exit).
    pub main: Option<Span>,
    /// Span of the loop statement per annotation index.
    pub loops: Vec<Span>,
}

/// A verification condition.
#[derive(Clone, Debug)]
pub struct Vc {
    /// Human-readable origin ("main", "loop 0 body", "loop 0 exit", …).
    pub name: String,
    /// The goal (free variables universally quantified).
    pub goal: Expr,
    /// Types of goal-local variables introduced by the generator.
    pub vars: HashMap<String, Ty>,
    /// Statement-level source position of the obligation, when the caller
    /// supplied a [`SpanInfo`].
    pub span: Option<Span>,
}

/// A generation error (outside the supported fragment).
#[derive(Clone, Debug)]
pub struct VcgError {
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for VcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcg: {}", self.msg)
    }
}

impl std::error::Error for VcgError {}

type R<T> = Result<T, VcgError>;

/// Computes the verification conditions for `{spec.pre} prog {spec.post}`.
///
/// Loop annotations are consumed in the order loops are encountered
/// (preorder).
///
/// # Errors
///
/// Returns a [`VcgError`] on unsupported constructs (calls without
/// contracts, `exec_concrete` blocks).
pub fn vcg(
    prog: &Prog,
    spec: &Spec,
    anns: &[LoopAnn],
    model: HeapModel,
    tenv: &TypeEnv,
) -> R<Vec<Vc>> {
    vcg_spanned(prog, spec, anns, model, tenv, &SpanInfo::default())
}

/// [`vcg`] with statement-level source provenance: each generated VC gets
/// the span of the statement its obligation comes from (loop VCs the loop
/// statement, the main VC `spans.main`).
///
/// # Errors
///
/// Returns a [`VcgError`] on unsupported constructs, like [`vcg`].
pub fn vcg_spanned(
    prog: &Prog,
    spec: &Spec,
    anns: &[LoopAnn],
    model: HeapModel,
    tenv: &TypeEnv,
    spans: &SpanInfo,
) -> R<Vec<Vc>> {
    // Pointer-distinctness facts from the precondition prune
    // read-over-write conditionals during generation (keeping WP terms
    // linear for write-heavy code like Suzuki's challenge).
    let mut nes = Vec::new();
    collect_nes(&spec.pre, &mut nes);
    let mut w = Wp {
        anns,
        next_ann: 0,
        model,
        tenv,
        fresh: 0,
        side: Vec::new(),
        nes,
        spans,
    };
    // Exceptions escaping the program are not allowed by default specs.
    let wp = w.wp(prog, &spec.post, RV, &Expr::ff())?;
    let mut out = vec![Vc {
        name: "main".into(),
        goal: Expr::implies(spec.pre.clone(), wp),
        vars: HashMap::new(),
        span: spans.main,
    }];
    out.extend(w.side);
    Ok(out)
}

struct Wp<'a> {
    anns: &'a [LoopAnn],
    next_ann: usize,
    model: HeapModel,
    tenv: &'a TypeEnv,
    fresh: u64,
    side: Vec<Vc>,
    /// Variable pairs known distinct from the precondition.
    nes: Vec<(ir::Symbol, ir::Symbol)>,
    /// Statement spans, indexed like `anns`.
    spans: &'a SpanInfo,
}

/// Collects `Var ≠ Var` conjuncts of a precondition.
fn collect_nes(pre: &Expr, out: &mut Vec<(ir::Symbol, ir::Symbol)>) {
    match pre {
        Expr::BinOp(BinOp::And, a, b) => {
            collect_nes(a, out);
            collect_nes(b, out);
        }
        Expr::BinOp(BinOp::Ne, l, r) => {
            if let (Expr::Var(a), Expr::Var(b)) = (&**l, &**r) {
                out.push((*a, *b));
            }
        }
        _ => {}
    }
}

impl<'a> Wp<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> R<T> {
        Err(VcgError { msg: msg.into() })
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("·{prefix}{}", self.fresh)
    }

    /// `wp(p, post, rv, xpost)` — `post` sees the result as variable `rv`;
    /// `xpost` is the exceptional postcondition (the exception value is the
    /// variable `·exn`).
    fn wp(&mut self, p: &Prog, post: &Expr, rv: &str, xpost: &Expr) -> R<Expr> {
        match p {
            Prog::Return(e) | Prog::Gets(e) => Ok(post.subst_var(rv, e)),
            Prog::Throw(e) => Ok(xpost.subst_var("·exn", e)),
            Prog::Guard(_, g) => Ok(Expr::and(
                g.clone(),
                post.subst_var(rv, &Expr::unit()),
            )),
            Prog::Fail => Ok(Expr::ff()),
            Prog::Modify(u) => {
                let post_unit = post.subst_var(rv, &Expr::unit());
                self.apply_update(&post_unit, u)
            }
            Prog::Bind(l, v, r) => {
                let inner = self.wp(r, post, rv, xpost)?;
                self.wp(l, &inner, v, xpost)
            }
            Prog::BindTuple(l, vs, r) => {
                let inner = self.wp(r, post, rv, xpost)?;
                let t = self.fresh("t");
                let mut inner2 = inner;
                for (i, v) in vs.iter().enumerate() {
                    inner2 = inner2.subst_var(v, &Expr::proj(i, Expr::var(t.clone())));
                }
                self.wp(l, &inner2, &t, xpost)
            }
            Prog::Catch(l, v, h) => {
                let hw = self.wp(h, post, rv, xpost)?;
                let xpost_l = hw.subst_var(v, &Expr::var("·exn"));
                self.wp(l, post, rv, &xpost_l)
            }
            Prog::Condition(c, t, e) => {
                let wt = self.wp(t, post, rv, xpost)?;
                let we = self.wp(e, post, rv, xpost)?;
                Ok(Expr::and(
                    Expr::implies(c.clone(), wt),
                    Expr::implies(Expr::not(c.clone()), we),
                ))
            }
            Prog::While {
                vars,
                cond,
                body,
                init,
            } => {
                let Some(ann) = self.anns.get(self.next_ann) else {
                    return self.err("missing loop annotation");
                };
                let ann = ann.clone();
                let loop_span = self.spans.loops.get(self.next_ann).copied();
                let idx = self.next_ann;
                self.next_ann += 1;

                let pack = if vars.len() == 1 {
                    Expr::var(vars[0].clone())
                } else {
                    Expr::Tuple(vars.iter().map(|v| Expr::var(v.clone())).collect())
                };
                // Exit VC: inv ∧ ¬cond → post[rv := pack].
                let exit_goal = Expr::implies(
                    Expr::and(ann.inv.clone(), Expr::not(cond.clone())),
                    post.subst_var(rv, &pack),
                );
                let mut vc_vars: HashMap<String, Ty> =
                    ann.var_tys.iter().cloned().collect();
                self.side.push(Vc {
                    name: format!("loop {idx} exit"),
                    goal: exit_goal,
                    vars: vc_vars.clone(),
                    span: loop_span,
                });

                // Body VC: inv ∧ cond (∧ measure = m₀) → wp(body, inv′ (∧ measure′ < m₀)).
                let rv_body = self.fresh("it");
                let mut inv_next = ann.inv.clone();
                for (i, v) in vars.iter().enumerate() {
                    let repl = if vars.len() == 1 {
                        Expr::var(rv_body.clone())
                    } else {
                        Expr::proj(i, Expr::var(rv_body.clone()))
                    };
                    inv_next = inv_next.subst_var(v, &repl);
                }
                let mut hyp = Expr::and(ann.inv.clone(), cond.clone());
                let mut body_post = inv_next;
                if let Some(m) = &ann.measure {
                    let m0 = self.fresh("m");
                    hyp = Expr::and(hyp, Expr::eq(m.clone(), Expr::var(m0.clone())));
                    let mut m_next = m.clone();
                    for (i, v) in vars.iter().enumerate() {
                        let repl = if vars.len() == 1 {
                            Expr::var(rv_body.clone())
                        } else {
                            Expr::proj(i, Expr::var(rv_body.clone()))
                        };
                        m_next = m_next.subst_var(v, &repl);
                    }
                    body_post = Expr::and(
                        body_post,
                        Expr::binop(BinOp::Lt, m_next, Expr::var(m0.clone())),
                    );
                    vc_vars.insert(m0, Ty::Nat);
                }
                let body_wp = self.wp(body, &body_post, &rv_body, xpost)?;
                self.side.push(Vc {
                    name: format!("loop {idx} body"),
                    goal: Expr::implies(hyp, body_wp),
                    vars: vc_vars,
                    span: loop_span,
                });

                // WP of the loop itself: the invariant holds initially.
                let mut entry = ann.inv.clone();
                for (v, i) in vars.iter().zip(init) {
                    entry = entry.subst_var(v, i);
                }
                Ok(entry)
            }
            Prog::Call { fname, .. } => {
                self.err(format!("calls need contracts (`{fname}`) — unsupported"))
            }
            Prog::ExecConcrete(_) | Prog::ExecAbstract(_) => self.err(
                "exec_concrete blocks need the manual mixed-level Hoare rule (Sec 4.6)",
            ),
        }
    }

    /// Substitutes a state update backwards through a postcondition.
    fn apply_update(&mut self, post: &Expr, u: &Update) -> R<Expr> {
        match u {
            Update::Global(n, e) => Ok(post.map(&|x| match &x {
                Expr::Global(m) if m == n => e.clone(),
                _ => x,
            })),
            Update::Local(n, e) => Ok(post.map(&|x| match &x {
                Expr::Local(m) if m == n => e.clone(),
                _ => x,
            })),
            Update::Heap(ty, p, v) => {
                let mut obligations = Vec::new();
                let rewritten = self.read_over_write(post, ty, p, v, &mut obligations);
                let mut out = rewritten;
                for ob in obligations.into_iter().rev() {
                    out = Expr::and(ob, out);
                }
                Ok(out)
            }
            Update::Byte(..) | Update::TagRegion(..) => {
                self.err("byte-level updates are outside the symbolic WP fragment")
            }
        }
    }

    /// Rewrites heap reads over a write `s[p := v]` at type `ty`.
    fn read_over_write(
        &mut self,
        e: &Expr,
        ty: &Ty,
        p: &Expr,
        v: &Expr,
        obligations: &mut Vec<Expr>,
    ) -> Expr {
        match e {
            Expr::ReadHeap(rt, q) => {
                let q2 = self.read_over_write(q, ty, p, v, obligations);
                if rt == ty {
                    // Exact on split heaps; on the byte level only with a
                    // non-partial-overlap obligation.
                    if self.model == HeapModel::ByteLevel && q2 != *p {
                        obligations.push(self.no_partial_overlap(rt, &q2, ty, p, true));
                    }
                    if q2 == *p {
                        v.clone()
                    } else if self.known_distinct(&q2, p) {
                        Expr::ReadHeap(rt.clone(), ir::intern::Interned::new(q2))
                    } else {
                        Expr::ite(
                            Expr::eq(q2.clone(), p.clone()),
                            v.clone(),
                            Expr::ReadHeap(rt.clone(), ir::intern::Interned::new(q2)),
                        )
                    }
                } else {
                    // Distinct heap types: unaffected on split heaps;
                    // on the byte level the objects must be disjoint.
                    if self.model == HeapModel::ByteLevel {
                        obligations.push(self.no_partial_overlap(rt, &q2, ty, p, false));
                    }
                    Expr::ReadHeap(rt.clone(), ir::intern::Interned::new(q2))
                }
            }
            // Validity is independent of data writes (the Sec 4.4 payoff).
            Expr::IsValid(rt, q) => {
                let q2 = self.read_over_write(q, ty, p, v, obligations);
                Expr::IsValid(rt.clone(), ir::intern::Interned::new(q2))
            }
            _ => {
                // Generic recursion.
                let kids: Vec<Expr> = e
                    .children()
                    .into_iter()
                    .map(|k| self.read_over_write(k, ty, p, v, obligations))
                    .collect();
                e.with_children(&kids).expect("one rewritten child per child")
            }
        }
    }

    /// Are the two pointer expressions known distinct (by a precondition
    /// `≠` fact)?
    fn known_distinct(&self, q: &Expr, p: &Expr) -> bool {
        if let (Expr::Var(a), Expr::Var(b)) = (q, p) {
            return self
                .nes
                .iter()
                .any(|(x, y)| (x == a && y == b) || (x == b && y == a));
        }
        false
    }

    /// `q = p ∨ q + size ≤ p ∨ p + size ≤ q` over ideal naturals — the
    /// "pointers do not partially overlap" precondition of Fig 3.
    fn no_partial_overlap(
        &self,
        qt: &Ty,
        q: &Expr,
        pt: &Ty,
        p: &Expr,
        allow_equal: bool,
    ) -> Expr {
        let addr = |e: &Expr| {
            Expr::cast(
                CastKind::Unat,
                Expr::cast(CastKind::PtrToWord, e.clone()),
            )
        };
        let qsz = self.tenv.size_of(qt).unwrap_or(1);
        let psz = self.tenv.size_of(pt).unwrap_or(1);
        let before = Expr::binop(
            BinOp::Le,
            Expr::binop(BinOp::Add, addr(q), Expr::nat(qsz)),
            addr(p),
        );
        let after = Expr::binop(
            BinOp::Le,
            Expr::binop(BinOp::Add, addr(p), Expr::nat(psz)),
            addr(q),
        );
        let disjoint = Expr::binop(BinOp::Or, before, after);
        if allow_equal {
            Expr::binop(BinOp::Or, Expr::eq(q.clone(), p.clone()), disjoint)
        } else {
            disjoint
        }
    }
}
