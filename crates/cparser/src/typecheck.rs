//! The typechecker: untyped AST → typed AST.
//!
//! Responsibilities:
//!
//! * compute struct layouts into an [`ir::TypeEnv`],
//! * annotate every expression with its C type, inserting implicit
//!   conversions (integer promotions and the usual arithmetic conversions)
//!   as explicit [`TExprKind::Cast`] nodes so the Simpl translation never
//!   has to re-derive them,
//! * normalise syntax: `e->f` becomes `(*e).f`, `e[i]` becomes `*(e + i)`,
//!   `sizeof` becomes a literal,
//! * alpha-rename shadowed locals (Simpl's local frame is flat),
//! * reject the remaining unsupported constructs (dereferencing `void *`,
//!   struct-valued parameters, calls to undeclared functions, …).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use ir::diag::Span;
use ir::ty::{Signedness, Ty, TypeEnv, Width};

use crate::ast::{CBinOp, CExpr, CType, CUnOp, FunDef, Program, Quals, Stmt, SwitchArm};

/// A type error (or use of an unsupported feature detected at this level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError {
    /// Explanation.
    pub msg: String,
    /// Position of the enclosing declaration, when known.
    pub span: Option<Span>,
}

impl TypeError {
    fn new(msg: impl Into<String>) -> TypeError {
        TypeError {
            msg: msg.into(),
            span: None,
        }
    }

    /// Attaches a declaration span, keeping an already-recorded (more
    /// precise) one.
    fn with_span(mut self, span: Span) -> TypeError {
        if self.span.is_none() {
            self.span = Some(span);
        }
        self
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "type error at line {}, column {}: {}",
                s.line, s.col, self.msg
            ),
            None => write!(f, "type error: {}", self.msg),
        }
    }
}

impl std::error::Error for TypeError {}

type Result<T> = std::result::Result<T, TypeError>;

/// A typed expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TExpr {
    /// The expression.
    pub kind: TExprKind,
    /// Its C type.
    pub ty: CType,
}

/// Typed expression kinds (post-normalisation).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TExprKind {
    /// Integer literal (bit pattern; interpretation given by `ty`).
    IntLit(u64),
    /// Null pointer constant.
    Null,
    /// Local variable or parameter (after alpha-renaming).
    Local(String),
    /// Global variable.
    Global(String),
    /// Unary operation (`Deref` reads the heap).
    Unary(CUnOp, Box<TExpr>),
    /// Binary operation on converted operands. For pointer arithmetic the
    /// left operand is the pointer and the right the (unscaled) index.
    Binary(CBinOp, Box<TExpr>, Box<TExpr>),
    /// Function call.
    Call(String, Vec<TExpr>),
    /// Field of a struct value.
    Member(Box<TExpr>, String),
    /// Conversion to `ty`.
    Cast(CType, Box<TExpr>),
    /// Conditional expression on a boolean-valued condition.
    Cond(Box<TExpr>, Box<TExpr>, Box<TExpr>),
    /// `a[i]` where `a` has a true array type (never a pointer — pointer
    /// indexing is normalised to `*(a + i)` instead). The Simpl translation
    /// inserts the in-bounds guard.
    Index(Box<TExpr>, Box<TExpr>),
}

impl TExpr {
    /// Does this expression (transitively) contain a function call?
    #[must_use]
    pub fn has_call(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            found |= matches!(e.kind, TExprKind::Call(..));
            !found
        });
        found
    }

    /// Calls `f` on this expression and every subexpression, each before
    /// its own subexpressions, in source order; `false` from `f` skips a
    /// node's subexpressions. [`walk`] enters expressions through this.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TExpr) -> bool) {
        if !f(self) {
            return;
        }
        match &self.kind {
            TExprKind::Unary(_, a) | TExprKind::Member(a, _) | TExprKind::Cast(_, a) => a.walk(f),
            TExprKind::Binary(_, a, b) | TExprKind::Index(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            TExprKind::Cond(a, b, c) => {
                a.walk(f);
                b.walk(f);
                c.walk(f);
            }
            TExprKind::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            TExprKind::IntLit(_) | TExprKind::Null | TExprKind::Local(_) | TExprKind::Global(_) => {
            }
        }
    }
}

/// A typed statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TStmt {
    /// Local declaration (name already unique within the function).
    Decl {
        /// Unique local name.
        name: String,
        /// Declared type.
        ty: CType,
        /// Initialiser, already converted to `ty`.
        init: Option<TExpr>,
        /// Position of the declared name in the source.
        span: Span,
    },
    /// Assignment; `lhs` is an lvalue (Local, Global, Deref, or Member
    /// chains over those).
    Assign {
        /// Target.
        lhs: TExpr,
        /// Value, already converted to the target type.
        rhs: TExpr,
        /// Position of the statement start in the source.
        span: Span,
    },
    /// A call evaluated for effect only; the span is the statement start.
    ExprCall(TExpr, Span),
    /// `if`/`else` on a boolean-valued condition.
    If {
        /// Condition (boolean-valued).
        cond: TExpr,
        /// Then branch.
        then_branch: Vec<TStmt>,
        /// Else branch.
        else_branch: Vec<TStmt>,
        /// Position of the `if` keyword in the source.
        span: Span,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: TExpr,
        /// Body.
        body: Vec<TStmt>,
        /// Position of the loop keyword in the source.
        span: Span,
    },
    /// `do`/`while` loop.
    DoWhile {
        /// Body.
        body: Vec<TStmt>,
        /// Condition.
        cond: TExpr,
        /// Position of the `do` keyword in the source.
        span: Span,
    },
    /// `return`, with the value converted to the return type; the span is
    /// the `return` keyword.
    Return(Option<TExpr>, Span),
    /// `break`; the span is the `break` keyword.
    Break(Span),
    /// `continue`; the span is the `continue` keyword.
    Continue(Span),
    /// Block (scoping already resolved; kept for shape preservation).
    Block(Vec<TStmt>),
}

/// A typechecked function. It has no `Hash`: its content is hashed
/// through [`TFunDef::hash_position_free`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TFunDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters (names are unique).
    pub params: Vec<(String, CType)>,
    /// All local declarations (including parameters), for frame setup.
    pub locals: Vec<(String, CType)>,
    /// Locals declared `volatile` (unique names): L2 flow-optimisation must
    /// not inline or eliminate their reads.
    pub volatile_locals: BTreeSet<String>,
    /// The body.
    pub body: Vec<TStmt>,
    /// Position of the function name in the source (the header span).
    pub span: Span,
}

impl TFunDef {
    /// Feeds `h` the function's content without its place in the file:
    /// each statement span is taken [`Span::relative_to`] the header span,
    /// and the header span itself is left out. Text added above the
    /// function, or before its name on the header's line, leaves the hash
    /// unchanged; a line added inside the body changes it, because the
    /// statements below that line moved relative to the header.
    pub fn hash_position_free<H: Hasher>(&self, h: &mut H) {
        self.name.hash(h);
        self.ret.hash(h);
        self.params.hash(h);
        self.locals.hash(h);
        self.volatile_locals.hash(h);
        hash_stmts(&self.body, self.span, h);
    }

    /// Calls `f` with the callee of every call in the body, in [`walk`]
    /// order.
    pub fn each_call(&self, mut f: impl FnMut(&str)) {
        walk(&self.body, &mut |n| {
            if let Node::Expr(TExpr {
                kind: TExprKind::Call(name, _),
                ..
            }) = n
            {
                f(name);
            }
            true
        });
    }

    /// The body's size: its statements plus its expression nodes.
    #[must_use]
    pub fn size(&self) -> usize {
        let mut n = 0;
        walk(&self.body, &mut |_| {
            n += 1;
            true
        });
        n
    }
}

/// The statement walk of [`TFunDef::hash_position_free`]: per statement
/// its variant, its fields and its span relative to `header`, with each
/// list's length first.
fn hash_stmts<H: Hasher>(stmts: &[TStmt], header: Span, h: &mut H) {
    stmts.len().hash(h);
    for s in stmts {
        std::mem::discriminant(s).hash(h);
        let span = match s {
            TStmt::Decl {
                name,
                ty,
                init,
                span,
            } => {
                name.hash(h);
                ty.hash(h);
                init.hash(h);
                Some(span)
            }
            TStmt::Assign { lhs, rhs, span } => {
                lhs.hash(h);
                rhs.hash(h);
                Some(span)
            }
            TStmt::ExprCall(e, span) => {
                e.hash(h);
                Some(span)
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                cond.hash(h);
                hash_stmts(then_branch, header, h);
                hash_stmts(else_branch, header, h);
                Some(span)
            }
            TStmt::While { cond, body, span } | TStmt::DoWhile { body, cond, span } => {
                cond.hash(h);
                hash_stmts(body, header, h);
                Some(span)
            }
            TStmt::Return(e, span) => {
                e.hash(h);
                Some(span)
            }
            TStmt::Break(span) | TStmt::Continue(span) => Some(span),
            TStmt::Block(b) => {
                hash_stmts(b, header, h);
                None
            }
        };
        if let Some(span) = span {
            span.relative_to(header).hash(h);
        }
    }
}

/// A typechecked global.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TGlobal {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: CType,
    /// Declaration qualifiers (`const` writes were rejected here).
    pub quals: Quals,
    /// Initialiser (converted), if any.
    pub init: Option<TExpr>,
}

/// A typechecked translation unit.
#[derive(Clone, Debug, Default)]
pub struct TProgram {
    /// Struct layouts.
    pub tenv: TypeEnv,
    /// Globals.
    pub globals: Vec<TGlobal>,
    /// Functions with non-empty bodies (prototypes resolved away).
    pub functions: Vec<TFunDef>,
}

impl TProgram {
    /// Looks up a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&TFunDef> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Converts a C type to the semantic type language.
///
/// `void` becomes `unit`; `void *` becomes `unit ptr`.
#[must_use]
pub fn ctype_to_ty(t: &CType) -> Ty {
    match t {
        CType::Void => Ty::Unit,
        CType::Int(w, s) => Ty::Word(*w, *s),
        CType::Ptr(p) => ctype_to_ty(p).ptr_to(),
        CType::Struct(n) => Ty::Struct(n.clone()),
        CType::Arr(t, n) => ctype_to_ty(t).arr_of(*n),
    }
}

/// Typechecks a parsed program.
///
/// # Errors
///
/// Returns a [`TypeError`] on any ill-typed construct.
pub fn typecheck(prog: &Program) -> Result<TProgram> {
    let mut tenv = TypeEnv::new();
    for s in &prog.structs {
        let fields: Vec<(String, Ty)> = s
            .fields
            .iter()
            .map(|(n, t)| (n.clone(), ctype_to_ty(t)))
            .collect();
        tenv.define_struct(&s.name, fields)
            .map_err(|e| TypeError::new(e.to_string()).with_span(s.span))?;
    }

    // Signature table: later definitions override earlier prototypes.
    let mut sigs: HashMap<String, (CType, Vec<CType>)> = HashMap::new();
    for f in &prog.functions {
        sigs.insert(
            f.name.clone(),
            (
                f.ret.clone(),
                f.params.iter().map(|(_, t)| t.clone()).collect(),
            ),
        );
    }

    let mut globals_map: HashMap<String, (CType, Quals)> = HashMap::new();
    let mut globals = Vec::new();
    for g in &prog.globals {
        if globals_map.contains_key(&g.name) {
            return Err(
                TypeError::new(format!("duplicate global `{}`", g.name)).with_span(g.span)
            );
        }
        if g.quals.is_const && g.init.is_none() {
            return Err(TypeError::new(format!(
                "`const` global `{}` must have an initialiser",
                g.name
            ))
            .with_span(g.span));
        }
        globals_map.insert(g.name.clone(), (g.ty.clone(), g.quals));
        let cx = Ctx {
            tenv: &tenv,
            sigs: &sigs,
            globals: &globals_map,
        };
        let init = match &g.init {
            None => None,
            Some(e) => {
                let te = cx.expr_no_scope(e).map_err(|e| e.with_span(g.span))?;
                if te.has_call() {
                    return Err(TypeError::new(format!(
                        "global `{}` initialiser may not call functions",
                        g.name
                    ))
                    .with_span(g.span));
                }
                Some(cx.convert(te, &g.ty).map_err(|e| e.with_span(g.span))?)
            }
        };
        globals.push(TGlobal {
            name: g.name.clone(),
            ty: g.ty.clone(),
            quals: g.quals,
            init,
        });
    }

    let mut functions = Vec::new();
    let mut defined = std::collections::HashSet::new();
    for f in &prog.functions {
        if !f.is_definition {
            continue; // prototype
        }
        if !defined.insert(f.name.as_str()) {
            return Err(
                TypeError::new(format!("function `{}` is defined twice", f.name)).with_span(f.span),
            );
        }
        let cx = Ctx {
            tenv: &tenv,
            sigs: &sigs,
            globals: &globals_map,
        };
        functions.push(cx.function(f).map_err(|e| e.with_span(f.span))?);
    }

    // Every called function must have a definition (we translate whole
    // programs; externs would need axiomatisation).
    let decl_spans: HashMap<&str, Span> = prog
        .functions
        .iter()
        .map(|f| (f.name.as_str(), f.span))
        .collect();
    for f in &functions {
        let mut undefined = None;
        f.each_call(|name| {
            if undefined.is_none() && !defined.contains(name) {
                undefined = Some(name.to_owned());
            }
        });
        if let Some(name) = undefined {
            let e = TypeError::new(format!("function `{name}` is declared but never defined"));
            return Err(match decl_spans.get(f.name.as_str()) {
                Some(&s) => e.with_span(s),
                None => e,
            });
        }
    }

    Ok(TProgram {
        tenv,
        globals,
        functions,
    })
}

/// What [`walk`] visits: a statement, or an expression node.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    /// A statement, before its expressions and sub-blocks.
    Stmt(&'a TStmt),
    /// An expression node, before its subexpressions.
    Expr(&'a TExpr),
}

/// The one walk of typed statements: calls `f` on every statement of
/// `stmts` and every expression node in them, each before what it
/// contains, in source order (a loop's condition before its body). When `f` returns `false` the walk does not
/// enter that node: a statement's expressions and sub-blocks (so a query
/// can stop at nested loops), or an expression's subexpressions.
pub fn walk<'a>(stmts: &'a [TStmt], f: &mut impl FnMut(Node<'a>) -> bool) {
    for s in stmts {
        if !f(Node::Stmt(s)) {
            continue;
        }
        let mut expr = |e: &'a TExpr| e.walk(&mut |x| f(Node::Expr(x)));
        match s {
            TStmt::Decl { init: Some(e), .. }
            | TStmt::ExprCall(e, _)
            | TStmt::Return(Some(e), _) => expr(e),
            TStmt::Assign { lhs, rhs, .. } => {
                expr(lhs);
                expr(rhs);
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                expr(cond);
                walk(then_branch, f);
                walk(else_branch, f);
            }
            TStmt::While { cond, body, .. } | TStmt::DoWhile { body, cond, .. } => {
                expr(cond);
                walk(body, f);
            }
            TStmt::Block(b) => walk(b, f),
            TStmt::Decl { init: None, .. }
            | TStmt::Return(None, _)
            | TStmt::Break(_)
            | TStmt::Continue(_) => {}
        }
    }
}

/// Shared checking context.
struct Ctx<'a> {
    tenv: &'a TypeEnv,
    sigs: &'a HashMap<String, (CType, Vec<CType>)>,
    globals: &'a HashMap<String, (CType, Quals)>,
}

/// Scope stack for locals with alpha-renaming of shadowed names.
#[derive(Default)]
struct Scope {
    /// Stack of (source name → unique name) maps.
    frames: Vec<HashMap<String, String>>,
    /// unique name → type.
    types: HashMap<String, CType>,
    /// unique name → declaration qualifiers.
    quals: HashMap<String, Quals>,
    /// All declarations in order.
    all: Vec<(String, CType)>,
}

impl Scope {
    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: CType, quals: Quals) -> String {
        let mut unique = name.to_owned();
        let mut i = 1;
        while self.types.contains_key(&unique) {
            i += 1;
            unique = format!("{name}__{i}");
        }
        self.frames
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name.to_owned(), unique.clone());
        self.types.insert(unique.clone(), ty.clone());
        self.quals.insert(unique.clone(), quals);
        self.all.push((unique.clone(), ty));
        unique
    }

    fn lookup(&self, name: &str) -> Option<(&str, &CType)> {
        for frame in self.frames.iter().rev() {
            if let Some(u) = frame.get(name) {
                return Some((u, &self.types[u]));
            }
        }
        None
    }
}

impl<'a> Ctx<'a> {
    fn function(&self, f: &FunDef) -> Result<TFunDef> {
        let mut scope = Scope::default();
        scope.push();
        let mut params = Vec::new();
        for (n, t) in &f.params {
            if matches!(t, CType::Struct(_)) {
                return Err(TypeError::new(format!(
                    "struct-valued parameter `{n}` of `{}` unsupported (pass a pointer)",
                    f.name
                )));
            }
            let unique = scope.declare(n, t.clone(), Quals::default());
            params.push((unique, t.clone()));
        }
        let body = self.stmts(&f.body, &mut scope, &f.ret)?;
        let volatile_locals = scope
            .quals
            .iter()
            .filter(|(_, q)| q.is_volatile)
            .map(|(n, _)| n.clone())
            .collect();
        Ok(TFunDef {
            name: f.name.clone(),
            ret: f.ret.clone(),
            params,
            locals: scope.all,
            volatile_locals,
            body,
            span: f.span,
        })
    }

    fn stmts(&self, stmts: &[Stmt], scope: &mut Scope, ret: &CType) -> Result<Vec<TStmt>> {
        let mut out = Vec::new();
        for s in stmts {
            out.push(self.stmt(s, scope, ret)?);
        }
        Ok(out)
    }

    fn stmt(&self, s: &Stmt, scope: &mut Scope, ret: &CType) -> Result<TStmt> {
        match s {
            Stmt::Decl {
                name,
                ty,
                quals,
                init,
                span,
            } => {
                if *ty == CType::Void {
                    return Err(TypeError::new(format!("variable `{name}` of type void")));
                }
                if quals.is_const && init.is_none() {
                    return Err(TypeError::new(format!(
                        "`const` variable `{name}` must have an initialiser"
                    )));
                }
                let init = match init {
                    None => None,
                    Some(e) => {
                        let te = self.expr(e, scope)?;
                        Some(self.convert(te, ty)?)
                    }
                };
                let unique = scope.declare(name, ty.clone(), *quals);
                Ok(TStmt::Decl {
                    name: unique,
                    ty: ty.clone(),
                    init,
                    span: *span,
                })
            }
            Stmt::Assign { lhs, rhs, span } => {
                // Attach the statement span so e.g. a rejected `const`
                // write points at the assignment, not the function.
                let at = |e: TypeError| e.with_span(*span);
                let tl = self.expr(lhs, scope).map_err(at)?;
                if !is_lvalue(&tl) {
                    return Err(at(TypeError::new(format!("not an lvalue: {lhs:?}"))));
                }
                if tl.ty.is_array() {
                    return Err(at(TypeError::new(
                        "whole-array assignment is not supported; assign elements individually",
                    )));
                }
                self.check_writable(&tl, scope).map_err(at)?;
                let tr = self.expr(rhs, scope).map_err(at)?;
                let tr = self.convert(tr, &tl.ty.clone()).map_err(at)?;
                Ok(TStmt::Assign {
                    lhs: tl,
                    rhs: tr,
                    span: *span,
                })
            }
            Stmt::Expr(e, span) => {
                let te = self.expr(e, scope)?;
                if !matches!(te.kind, TExprKind::Call(..)) {
                    return Err(TypeError::new(
                        "expression statements must be function calls (no side effects otherwise)",
                    ));
                }
                Ok(TStmt::ExprCall(te, *span))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let c = self.condition(cond, scope)?;
                scope.push();
                let t = self.stmts(then_branch, scope, ret)?;
                scope.pop();
                scope.push();
                let e = self.stmts(else_branch, scope, ret)?;
                scope.pop();
                Ok(TStmt::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e,
                    span: *span,
                })
            }
            Stmt::While { cond, body, span } => {
                let c = self.condition(cond, scope)?;
                scope.push();
                let b = self.stmts(body, scope, ret)?;
                scope.pop();
                Ok(TStmt::While {
                    cond: c,
                    body: b,
                    span: *span,
                })
            }
            Stmt::DoWhile { body, cond, span } => {
                scope.push();
                let b = self.stmts(body, scope, ret)?;
                scope.pop();
                let c = self.condition(cond, scope)?;
                Ok(TStmt::DoWhile {
                    body: b,
                    cond: c,
                    span: *span,
                })
            }
            Stmt::Return(None, span) => {
                if *ret != CType::Void {
                    return Err(TypeError::new("return without value in non-void function"));
                }
                Ok(TStmt::Return(None, *span))
            }
            Stmt::Return(Some(e), span) => {
                if *ret == CType::Void {
                    return Err(TypeError::new("return with value in void function"));
                }
                let te = self.expr(e, scope)?;
                Ok(TStmt::Return(Some(self.convert(te, ret)?), *span))
            }
            Stmt::Break(span) => Ok(TStmt::Break(*span)),
            Stmt::Continue(span) => Ok(TStmt::Continue(*span)),
            Stmt::Block(b) => {
                scope.push();
                let out = self.stmts(b, scope, ret)?;
                scope.pop();
                Ok(TStmt::Block(out))
            }
            Stmt::Switch {
                scrutinee,
                arms,
                span,
            } => self.switch(scrutinee, arms, *span, scope, ret),
        }
    }

    /// Desugars `switch` into guarded branches over a *match index* so that
    /// no layer below the typed AST sees a new statement form:
    ///
    /// 1. the scrutinee is evaluated once into a fresh temporary `t` at its
    ///    promoted type;
    /// 2. a match index `m` (an `int`) is computed as a pure conditional
    ///    chain: the 1-based source index of the first arm with a matching
    ///    `case` label, the default arm's index when nothing matches, or 0
    ///    when there is no `default`;
    /// 3. arm `j` runs iff `lower(j) ≤ m && m ≤ j`, where `lower(j)` is one
    ///    past the last arm before `j` whose body ended in a (stripped)
    ///    top-level `break` — this encodes fallthrough statically;
    /// 4. only when a conditional (non-trailing) `break` remains does the
    ///    chain get wrapped in a run-once `do … while (0)`, so `break`
    ///    binds through the existing loop exception dance.
    fn switch(
        &self,
        scrutinee: &CExpr,
        arms: &[SwitchArm],
        span: Span,
        scope: &mut Scope,
        ret: &CType,
    ) -> Result<TStmt> {
        let scrut = self.expr(scrutinee, scope)?;
        if !scrut.ty.is_integer() {
            return Err(TypeError::new(format!(
                "`switch` on non-integer type `{}`",
                scrut.ty
            )));
        }
        let sty = promote(&scrut.ty);
        let scrut = self.convert(scrut, &sty)?;
        let CType::Int(width, _) = sty else {
            unreachable!("promoted integer type")
        };
        let mask = width.mask();

        // Collect `case` constants (bit patterns at the promoted type) and
        // the default arm's 1-based index.
        let mut seen: HashSet<u64> = HashSet::new();
        let mut default_idx: Option<usize> = None;
        let mut cases: Vec<(u64, usize)> = Vec::new();
        for (j, arm) in arms.iter().enumerate() {
            for label in &arm.labels {
                match label {
                    None => {
                        if default_idx.replace(j + 1).is_some() {
                            return Err(TypeError::new("duplicate `default` label"));
                        }
                    }
                    Some(e) => {
                        let bits = case_constant(e)? & mask;
                        if !seen.insert(bits) {
                            return Err(TypeError::new(format!(
                                "duplicate `case` label (value {bits} at type `{sty}`)"
                            )));
                        }
                        cases.push((bits, j + 1));
                    }
                }
            }
        }

        scope.push();
        let tmp = scope.declare("switch__scrut", sty.clone(), Quals::default());
        let tmp_ref = TExpr {
            kind: TExprKind::Local(tmp.clone()),
            ty: sty.clone(),
        };
        let int_lit = |v: u64| TExpr {
            kind: TExprKind::IntLit(v),
            ty: CType::INT,
        };
        let mut stmts = vec![TStmt::Decl {
            name: tmp,
            ty: sty.clone(),
            init: Some(scrut),
            span,
        }];

        // m = if t == c1 then j1 else if t == c2 then j2 … else default/0
        let mut m_expr = int_lit(default_idx.unwrap_or(0) as u64);
        for (bits, j1) in cases.iter().rev() {
            let cmp = TExpr {
                kind: TExprKind::Binary(
                    CBinOp::Eq,
                    Box::new(tmp_ref.clone()),
                    Box::new(TExpr {
                        kind: TExprKind::IntLit(*bits),
                        ty: sty.clone(),
                    }),
                ),
                ty: CType::INT,
            };
            m_expr = TExpr {
                kind: TExprKind::Cond(
                    Box::new(cmp),
                    Box::new(int_lit(*j1 as u64)),
                    Box::new(m_expr),
                ),
                ty: CType::INT,
            };
        }
        let m = scope.declare("switch__m", CType::INT, Quals::default());
        let m_ref = TExpr {
            kind: TExprKind::Local(m.clone()),
            ty: CType::INT,
        };
        stmts.push(TStmt::Decl {
            name: m,
            ty: CType::INT,
            init: Some(m_expr),
            span,
        });

        // One guarded If per arm; fallthrough is the static window
        // lower(j) ≤ m ≤ j.
        let mut lower = 1usize;
        let mut residual_break = false;
        let mut ifs: Vec<TStmt> = Vec::new();
        for (j, arm) in arms.iter().enumerate() {
            let j1 = j + 1;
            let (body, terminated) = match arm.body.split_last() {
                Some((Stmt::Break(_), rest)) => (rest, true),
                _ => (&arm.body[..], false),
            };
            if contains_direct_break(body) {
                residual_break = true;
            }
            scope.push();
            let tbody = self.stmts(body, scope, ret)?;
            scope.pop();
            if !tbody.is_empty() {
                let le = |a: TExpr, b: TExpr| TExpr {
                    kind: TExprKind::Binary(CBinOp::Le, Box::new(a), Box::new(b)),
                    ty: CType::INT,
                };
                let cond = if lower == j1 {
                    TExpr {
                        kind: TExprKind::Binary(
                            CBinOp::Eq,
                            Box::new(m_ref.clone()),
                            Box::new(int_lit(j1 as u64)),
                        ),
                        ty: CType::INT,
                    }
                } else {
                    TExpr {
                        kind: TExprKind::Binary(
                            CBinOp::LAnd,
                            Box::new(le(int_lit(lower as u64), m_ref.clone())),
                            Box::new(le(m_ref.clone(), int_lit(j1 as u64))),
                        ),
                        ty: CType::INT,
                    }
                };
                ifs.push(TStmt::If {
                    cond,
                    then_branch: tbody,
                    else_branch: Vec::new(),
                    span: arm.span,
                });
            }
            if terminated {
                lower = j1 + 1;
            }
        }
        scope.pop();

        if residual_break {
            // A conditional break remains inside an arm: wrap in a run-once
            // loop so it binds via the loop exception dance.
            stmts.push(TStmt::DoWhile {
                body: ifs,
                cond: int_lit(0),
                span,
            });
        } else {
            stmts.extend(ifs);
        }
        Ok(TStmt::Block(stmts))
    }

    /// Typechecks an expression appearing in global-initialiser position.
    fn expr_no_scope(&self, e: &CExpr) -> Result<TExpr> {
        let mut empty = Scope::default();
        empty.push();
        self.expr(e, &empty)
    }

    /// A condition: any scalar; produces a boolean-valued `TExpr` (we mark
    /// it by comparing against zero when necessary at translation time, so
    /// here we only check scalar-ness and keep the C type).
    fn condition(&self, e: &CExpr, scope: &Scope) -> Result<TExpr> {
        let te = self.expr(e, scope)?;
        if !te.ty.is_integer() && !te.ty.is_ptr() {
            return Err(TypeError::new(format!(
                "condition has non-scalar type `{}`",
                te.ty
            )));
        }
        Ok(te)
    }

    fn expr(&self, e: &CExpr, scope: &Scope) -> Result<TExpr> {
        match e {
            CExpr::IntLit(v, unsigned) => {
                let ty = literal_type(*v, *unsigned);
                Ok(TExpr {
                    kind: TExprKind::IntLit(*v),
                    ty,
                })
            }
            CExpr::Null => Ok(TExpr {
                kind: TExprKind::Null,
                ty: CType::Void.ptr_to(),
            }),
            CExpr::Ident(n) => {
                if let Some((unique, ty)) = scope.lookup(n) {
                    Ok(TExpr {
                        kind: TExprKind::Local(unique.to_owned()),
                        ty: ty.clone(),
                    })
                } else if let Some((ty, _)) = self.globals.get(n) {
                    Ok(TExpr {
                        kind: TExprKind::Global(n.clone()),
                        ty: ty.clone(),
                    })
                } else {
                    Err(TypeError::new(format!("undeclared identifier `{n}`")))
                }
            }
            CExpr::Unary(CUnOp::Deref, inner) => {
                let ti = self.expr(inner, scope)?;
                match &ti.ty {
                    CType::Ptr(p) if **p == CType::Void => {
                        Err(TypeError::new("cannot dereference `void *`"))
                    }
                    CType::Ptr(p) => {
                        let ty = (**p).clone();
                        Ok(TExpr {
                            kind: TExprKind::Unary(CUnOp::Deref, Box::new(ti)),
                            ty,
                        })
                    }
                    t => Err(TypeError::new(format!("cannot dereference `{t}`"))),
                }
            }
            CExpr::Unary(op, inner) => {
                let ti = self.expr(inner, scope)?;
                match op {
                    CUnOp::Not => {
                        if !ti.ty.is_integer() && !ti.ty.is_ptr() {
                            return Err(TypeError::new(format!("`!` on `{}`", ti.ty)));
                        }
                        Ok(TExpr {
                            kind: TExprKind::Unary(CUnOp::Not, Box::new(ti)),
                            ty: CType::INT,
                        })
                    }
                    CUnOp::Neg | CUnOp::BitNot => {
                        if !ti.ty.is_integer() {
                            return Err(TypeError::new(format!("arithmetic on `{}`", ti.ty)));
                        }
                        let pty = promote(&ti.ty);
                        let ti = self.convert(ti, &pty)?;
                        Ok(TExpr {
                            kind: TExprKind::Unary(*op, Box::new(ti)),
                            ty: pty,
                        })
                    }
                    CUnOp::Deref => unreachable!("handled above"),
                }
            }
            CExpr::Binary(op, l, r) => self.binary(*op, l, r, scope),
            CExpr::Call(name, args) => {
                let (ret, ptys) = self
                    .sigs
                    .get(name)
                    .ok_or_else(|| TypeError::new(format!("call to undeclared `{name}`")))?
                    .clone();
                if ptys.len() != args.len() {
                    return Err(TypeError::new(format!(
                        "`{name}` expects {} arguments, got {}",
                        ptys.len(),
                        args.len()
                    )));
                }
                let mut targs = Vec::with_capacity(args.len());
                for (a, pt) in args.iter().zip(&ptys) {
                    let ta = self.expr(a, scope)?;
                    targs.push(self.convert(ta, pt)?);
                }
                Ok(TExpr {
                    kind: TExprKind::Call(name.clone(), targs),
                    ty: ret,
                })
            }
            CExpr::Member(inner, f) => {
                let ti = self.expr(inner, scope)?;
                let CType::Struct(sname) = &ti.ty else {
                    return Err(TypeError::new(format!("`.{f}` on non-struct `{}`", ti.ty)));
                };
                let fty = self.field_type(sname, f)?;
                Ok(TExpr {
                    kind: TExprKind::Member(Box::new(ti), f.clone()),
                    ty: fty,
                })
            }
            CExpr::Arrow(inner, f) => {
                // e->f  ≡  (*e).f
                let deref = CExpr::Unary(CUnOp::Deref, inner.clone());
                self.expr(&CExpr::Member(Box::new(deref), f.clone()), scope)
            }
            CExpr::Index(base, idx) => {
                let tb = self.expr(base, scope)?;
                if let CType::Arr(elem, _) = &tb.ty {
                    // True array indexing: a first-class lvalue with an
                    // in-bounds guard inserted by the Simpl translation.
                    let elem = (**elem).clone();
                    let ti = self.expr(idx, scope)?;
                    if !ti.ty.is_integer() {
                        return Err(TypeError::new(format!(
                            "array index has non-integer type `{}`",
                            ti.ty
                        )));
                    }
                    let ity = promote(&ti.ty);
                    let ti = self.convert(ti, &ity)?;
                    return Ok(TExpr {
                        kind: TExprKind::Index(Box::new(tb), Box::new(ti)),
                        ty: elem,
                    });
                }
                // Pointer indexing: e[i]  ≡  *(e + i)
                let sum = CExpr::Binary(CBinOp::Add, base.clone(), idx.clone());
                self.expr(&CExpr::Unary(CUnOp::Deref, Box::new(sum)), scope)
            }
            CExpr::Cast(to, inner) => {
                let ti = self.expr(inner, scope)?;
                // Explicit casts: integer↔integer, pointer↔pointer,
                // integer→pointer and pointer→integer (32-bit).
                let ok = match (&ti.ty, to) {
                    (CType::Int(..), CType::Int(..)) => true,
                    (CType::Ptr(_), CType::Ptr(_)) => true,
                    (CType::Int(..), CType::Ptr(_)) => true,
                    (CType::Ptr(_), CType::Int(Width::W32, _)) => true,
                    (t, CType::Void) => {
                        return Err(TypeError::new(format!("cast of `{t}` to void")))
                    }
                    _ => false,
                };
                if !ok {
                    return Err(TypeError::new(format!(
                        "unsupported cast from `{}` to `{to}`",
                        ti.ty
                    )));
                }
                Ok(TExpr {
                    kind: TExprKind::Cast(to.clone(), Box::new(ti)),
                    ty: to.clone(),
                })
            }
            CExpr::SizeOf(t) => {
                let size = self
                    .tenv
                    .size_of(&ctype_to_ty(t))
                    .map_err(|e| TypeError::new(e.to_string()))?;
                Ok(TExpr {
                    kind: TExprKind::IntLit(size),
                    ty: CType::UINT,
                })
            }
            CExpr::Cond(c, t, e2) => {
                let tc = self.condition(c, scope)?;
                let tt = self.expr(t, scope)?;
                let te = self.expr(e2, scope)?;
                let (tt, te, ty) = if tt.ty.is_integer() && te.ty.is_integer() {
                    let common = usual_arith(&tt.ty, &te.ty);
                    (
                        self.convert(tt, &common)?,
                        self.convert(te, &common)?,
                        common,
                    )
                } else if tt.ty == te.ty {
                    let ty = tt.ty.clone();
                    (tt, te, ty)
                } else if tt.ty.is_ptr() && matches!(te.kind, TExprKind::Null) {
                    let ty = tt.ty.clone();
                    let te = self.convert(te, &ty)?;
                    (tt, te, ty)
                } else if te.ty.is_ptr() && matches!(tt.kind, TExprKind::Null) {
                    let ty = te.ty.clone();
                    let tt = self.convert(tt, &ty)?;
                    (tt, te, ty)
                } else {
                    return Err(TypeError::new(format!(
                        "incompatible branches of `?:`: `{}` vs `{}`",
                        tt.ty, te.ty
                    )));
                };
                Ok(TExpr {
                    kind: TExprKind::Cond(Box::new(tc), Box::new(tt), Box::new(te)),
                    ty,
                })
            }
        }
    }

    fn binary(&self, op: CBinOp, l: &CExpr, r: &CExpr, scope: &Scope) -> Result<TExpr> {
        let tl = self.expr(l, scope)?;
        let tr = self.expr(r, scope)?;
        use CBinOp::*;
        match op {
            LAnd | LOr => {
                for t in [&tl, &tr] {
                    if !t.ty.is_integer() && !t.ty.is_ptr() {
                        return Err(TypeError::new(format!("`&&`/`||` on `{}`", t.ty)));
                    }
                }
                Ok(TExpr {
                    kind: TExprKind::Binary(op, Box::new(tl), Box::new(tr)),
                    ty: CType::INT,
                })
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (tl, tr) = self.comparable(tl, tr)?;
                Ok(TExpr {
                    kind: TExprKind::Binary(op, Box::new(tl), Box::new(tr)),
                    ty: CType::INT,
                })
            }
            Add | Sub if tl.ty.is_ptr() && tr.ty.is_integer() => {
                // Pointer arithmetic: keep the unscaled index; Simpl
                // translation multiplies by the element size.
                if tl.ty == CType::Void.ptr_to() {
                    return Err(TypeError::new("arithmetic on `void *`"));
                }
                let ty = tl.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::Binary(op, Box::new(tl), Box::new(tr)),
                    ty,
                })
            }
            Shl | Shr => {
                if !tl.ty.is_integer() || !tr.ty.is_integer() {
                    return Err(TypeError::new("shift on non-integers"));
                }
                let pty = promote(&tl.ty);
                let tl = self.convert(tl, &pty)?;
                let tr_p = promote(&tr.ty);
                let tr = self.convert(tr, &tr_p)?;
                Ok(TExpr {
                    kind: TExprKind::Binary(op, Box::new(tl), Box::new(tr)),
                    ty: pty,
                })
            }
            _ => {
                if !tl.ty.is_integer() || !tr.ty.is_integer() {
                    return Err(TypeError::new(format!(
                        "`{op:?}` on `{}` and `{}`",
                        tl.ty, tr.ty
                    )));
                }
                let common = usual_arith(&tl.ty, &tr.ty);
                let tl = self.convert(tl, &common)?;
                let tr = self.convert(tr, &common)?;
                Ok(TExpr {
                    kind: TExprKind::Binary(op, Box::new(tl), Box::new(tr)),
                    ty: common,
                })
            }
        }
    }

    /// Makes two operands comparable, inserting conversions.
    fn comparable(&self, tl: TExpr, tr: TExpr) -> Result<(TExpr, TExpr)> {
        if tl.ty.is_integer() && tr.ty.is_integer() {
            let common = usual_arith(&tl.ty, &tr.ty);
            return Ok((self.convert(tl, &common)?, self.convert(tr, &common)?));
        }
        if tl.ty.is_ptr() && tr.ty.is_ptr() {
            if tl.ty == tr.ty
                || tl.ty == CType::Void.ptr_to()
                || tr.ty == CType::Void.ptr_to()
            {
                return Ok((tl, tr));
            }
            return Err(TypeError::new(format!(
                "comparison of distinct pointer types `{}` and `{}`",
                tl.ty, tr.ty
            )));
        }
        if tl.ty.is_ptr() && is_null_constant(&tr) {
            let ty = tl.ty.clone();
            let tr = self.convert(tr, &ty)?;
            return Ok((tl, tr));
        }
        if tr.ty.is_ptr() && is_null_constant(&tl) {
            let ty = tr.ty.clone();
            let tl = self.convert(tl, &ty)?;
            return Ok((tl, tr));
        }
        Err(TypeError::new(format!(
            "cannot compare `{}` and `{}`",
            tl.ty, tr.ty
        )))
    }

    /// Implicit conversion of `e` to `to`, inserting a cast when needed.
    fn convert(&self, e: TExpr, to: &CType) -> Result<TExpr> {
        if e.ty == *to {
            return Ok(e);
        }
        let ok = match (&e.ty, to) {
            (CType::Int(..), CType::Int(..)) => true,
            // NULL (or literal 0) to any pointer.
            (_, CType::Ptr(_)) if is_null_constant(&e) => true,
            // void* converts implicitly to/from any object pointer.
            (CType::Ptr(p), CType::Ptr(_)) if **p == CType::Void => true,
            (CType::Ptr(_), CType::Ptr(q)) if **q == CType::Void => true,
            _ => false,
        };
        if !ok {
            return Err(TypeError::new(format!(
                "cannot implicitly convert `{}` to `{to}`",
                e.ty
            )));
        }
        Ok(TExpr {
            kind: TExprKind::Cast(to.clone(), Box::new(e)),
            ty: to.clone(),
        })
    }

    /// Rejects writes whose lvalue root was declared `const`. Heap writes
    /// (through `Deref`) are always allowed: qualified pointer types are
    /// rejected at parse, so no pointee is ever const.
    fn check_writable(&self, lhs: &TExpr, scope: &Scope) -> Result<()> {
        match lvalue_root(lhs) {
            LvalueRoot::Local(n) => {
                if scope.quals.get(n).is_some_and(|q| q.is_const) {
                    return Err(TypeError::new(format!(
                        "cannot assign to `const` variable `{n}`"
                    )));
                }
            }
            LvalueRoot::Global(n) => {
                if self.globals.get(n).is_some_and(|(_, q)| q.is_const) {
                    return Err(TypeError::new(format!(
                        "cannot assign to `const` global `{n}`"
                    )));
                }
            }
            LvalueRoot::Heap => {}
        }
        Ok(())
    }

    fn field_type(&self, sname: &str, f: &str) -> Result<CType> {
        let def = self
            .tenv
            .struct_def(sname)
            .ok_or_else(|| TypeError::new(format!("unknown struct `{sname}`")))?;
        let field = def
            .field(f)
            .ok_or_else(|| TypeError::new(format!("no field `{f}` in struct `{sname}`")))?;
        ty_to_ctype(&field.ty)
    }
}

/// Best-effort inverse of [`ctype_to_ty`] for field types.
fn ty_to_ctype(t: &Ty) -> Result<CType> {
    Ok(match t {
        Ty::Unit => CType::Void,
        Ty::Word(w, s) => CType::Int(*w, *s),
        Ty::Ptr(p) => ty_to_ctype(p)?.ptr_to(),
        Ty::Struct(n) => CType::Struct(n.clone()),
        other => {
            return Err(TypeError::new(format!(
                "type `{other}` cannot appear in C code"
            )))
        }
    })
}

fn is_lvalue(e: &TExpr) -> bool {
    match &e.kind {
        TExprKind::Local(_) | TExprKind::Global(_) => true,
        TExprKind::Unary(CUnOp::Deref, _) => true,
        TExprKind::Member(inner, _) | TExprKind::Index(inner, _) => is_lvalue(inner),
        _ => false,
    }
}

/// Where a write through this lvalue ultimately lands.
enum LvalueRoot<'a> {
    /// A local variable (unique name).
    Local(&'a str),
    /// A global variable.
    Global(&'a str),
    /// The heap (through a pointer dereference).
    Heap,
}

fn lvalue_root(e: &TExpr) -> LvalueRoot<'_> {
    match &e.kind {
        TExprKind::Local(n) => LvalueRoot::Local(n),
        TExprKind::Global(n) => LvalueRoot::Global(n),
        TExprKind::Member(inner, _) | TExprKind::Index(inner, _) => lvalue_root(inner),
        _ => LvalueRoot::Heap,
    }
}

/// Evaluates a `case` label: an integer literal, possibly negated. The
/// value is the label's bit pattern before masking to the promoted type.
fn case_constant(e: &CExpr) -> Result<u64> {
    match e {
        CExpr::IntLit(v, _) => Ok(*v),
        CExpr::Unary(CUnOp::Neg, inner) => match **inner {
            CExpr::IntLit(v, _) => Ok(v.wrapping_neg()),
            _ => Err(TypeError::new(
                "`case` labels must be integer literals (possibly negated)",
            )),
        },
        _ => Err(TypeError::new(
            "`case` labels must be integer literals (possibly negated)",
        )),
    }
}

/// Does this statement list contain a `break` that would bind to the
/// enclosing `switch` (i.e. not nested inside a loop or inner switch)?
fn contains_direct_break(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Break(_) => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => contains_direct_break(then_branch) || contains_direct_break(else_branch),
        Stmt::Block(b) => contains_direct_break(b),
        _ => false,
    })
}

fn is_null_constant(e: &TExpr) -> bool {
    matches!(e.kind, TExprKind::Null) || matches!(e.kind, TExprKind::IntLit(0))
}

/// C89-style literal typing restricted to our widths.
fn literal_type(v: u64, unsigned: bool) -> CType {
    if unsigned {
        if v <= u64::from(u32::MAX) {
            CType::UINT
        } else {
            CType::Int(Width::W64, Signedness::Unsigned)
        }
    } else if v <= i32::MAX as u64 {
        CType::INT
    } else if v <= u64::from(u32::MAX) {
        CType::UINT
    } else if v <= i64::MAX as u64 {
        CType::Int(Width::W64, Signedness::Signed)
    } else {
        CType::Int(Width::W64, Signedness::Unsigned)
    }
}

/// Integer promotion: anything narrower than `int` promotes to `int`.
fn promote(t: &CType) -> CType {
    match t {
        CType::Int(Width::W8 | Width::W16, _) => CType::INT,
        other => other.clone(),
    }
}

/// The usual arithmetic conversions (on promoted operands).
fn usual_arith(a: &CType, b: &CType) -> CType {
    let a = promote(a);
    let b = promote(b);
    let (CType::Int(wa, sa), CType::Int(wb, sb)) = (&a, &b) else {
        return a;
    };
    let w = (*wa).max(*wb);
    let s = if wa == wb {
        if *sa == Signedness::Unsigned || *sb == Signedness::Unsigned {
            Signedness::Unsigned
        } else {
            Signedness::Signed
        }
    } else if wa > wb {
        *sa
    } else {
        *sb
    };
    CType::Int(w, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer::lex, parser::parse};

    fn check(src: &str) -> TProgram {
        typecheck(&parse(&lex(src).unwrap()).unwrap()).unwrap()
    }

    fn check_err(src: &str) -> TypeError {
        typecheck(&parse(&lex(src).unwrap()).unwrap()).unwrap_err()
    }

    #[test]
    fn simple_function() {
        let p = check("int max(int a, int b) { if (a < b) return b; return a; }");
        let f = p.function("max").unwrap();
        assert_eq!(f.params.len(), 2);
        let TStmt::If { cond, .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(cond.ty, CType::INT);
    }

    #[test]
    fn promotions_inserted() {
        let p = check("int f(char c) { return c + 1; }");
        let f = p.function("f").unwrap();
        let TStmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        // c promoted to int via a cast node
        let TExprKind::Binary(CBinOp::Add, l, _) = &e.kind else {
            panic!()
        };
        assert!(matches!(&l.kind, TExprKind::Cast(CType::INT, _)));
        assert_eq!(e.ty, CType::INT);
    }

    #[test]
    fn usual_arith_conversions() {
        assert_eq!(usual_arith(&CType::INT, &CType::UINT), CType::UINT);
        assert_eq!(
            usual_arith(
                &CType::Int(Width::W64, Signedness::Signed),
                &CType::UINT
            ),
            CType::Int(Width::W64, Signedness::Signed)
        );
        assert_eq!(
            usual_arith(
                &CType::Int(Width::W8, Signedness::Unsigned),
                &CType::Int(Width::W16, Signedness::Signed)
            ),
            CType::INT,
            "both promote to int first"
        );
    }

    #[test]
    fn arrow_normalised() {
        let p = check(
            "struct node { struct node *next; unsigned data; };\n\
             unsigned f(struct node *p) { return p->data; }",
        );
        let f = p.function("f").unwrap();
        let TStmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        let TExprKind::Member(inner, field) = &e.kind else {
            panic!("expected member, got {e:?}")
        };
        assert_eq!(field, "data");
        assert!(matches!(&inner.kind, TExprKind::Unary(CUnOp::Deref, _)));
        assert_eq!(e.ty, CType::UINT);
    }

    #[test]
    fn index_normalised() {
        let p = check("int f(int *a) { return a[3]; }");
        let f = p.function("f").unwrap();
        let TStmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(&e.kind, TExprKind::Unary(CUnOp::Deref, _)));
    }

    #[test]
    fn sizeof_resolved() {
        let p = check(
            "struct pair { int a; int b; };\n\
             unsigned f(void) { return sizeof(struct pair); }",
        );
        let f = p.function("f").unwrap();
        let TStmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        // sizeof → literal 8, converted to unsigned (already UINT).
        assert!(matches!(e.kind, TExprKind::IntLit(8)));
    }

    #[test]
    fn shadowing_renamed() {
        let p = check("int f(int x) { { int x = 2; x = 3; } return x; }");
        let f = p.function("f").unwrap();
        assert_eq!(f.locals.len(), 2);
        assert_eq!(f.locals[1].0, "x__2");
        let TStmt::Return(Some(e), _) = &f.body[1] else {
            panic!()
        };
        assert!(matches!(&e.kind, TExprKind::Local(n) if n == "x"));
    }

    #[test]
    fn null_conversions() {
        check(
            "struct node { struct node *next; };\n\
             void f(struct node *p) { p->next = NULL; if (p != NULL) { } if (p == 0) { } }",
        );
    }

    #[test]
    fn pointer_arith_keeps_index() {
        let p = check("int f(int *a) { return *(a + 2); }");
        let f = p.function("f").unwrap();
        let TStmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        let TExprKind::Unary(CUnOp::Deref, inner) = &e.kind else {
            panic!()
        };
        let TExprKind::Binary(CBinOp::Add, l, r) = &inner.kind else {
            panic!()
        };
        assert!(l.ty.is_ptr());
        assert!(r.ty.is_integer(), "index unscaled at this level");
    }

    #[test]
    fn errors() {
        assert!(check_err("int f(void) { return g(); }").msg.contains("undeclared"));
        assert!(check_err("int f(int x) { y = 1; return 0; }")
            .msg
            .contains("undeclared identifier"));
        assert!(check_err("void f(int *p) { *p; }").msg.contains("function calls"));
        assert!(check_err("void f(void *p) { *p = 0; }").msg.contains("void"));
        assert!(check_err("int f(int x) { return; }").msg.contains("without value"));
        assert!(check_err("struct s { int a; }; void f(struct s v) { }")
            .msg
            .contains("struct-valued parameter"));
        assert!(check_err("int g(int x); int f(void) { return g(1); }")
            .msg
            .contains("never defined"));
        assert!(check_err("void f(int x) { 1 = x; }").msg.contains("lvalue"));
    }

    #[test]
    fn type_errors_carry_declaration_spans() {
        let e = check_err("int ok(void) { return 0; }\nint bad(void) { return g(); }");
        // The span points at `bad` on line 2 (column after "int ").
        let s = e.span.expect("function-level span");
        assert_eq!((s.line, s.col), (2, 5));
        assert!(e.to_string().contains("line 2, column 5"));
    }

    #[test]
    fn globals() {
        let p = check("unsigned counter = 5; void f(void) { counter = counter + 1; }");
        assert_eq!(p.globals.len(), 1);
        assert!(p.globals[0].init.is_some());
    }

    #[test]
    fn literal_types() {
        assert_eq!(literal_type(5, false), CType::INT);
        assert_eq!(literal_type(5, true), CType::UINT);
        assert_eq!(literal_type(3_000_000_000, false), CType::UINT);
        assert_eq!(
            literal_type(10_000_000_000, false),
            CType::Int(Width::W64, Signedness::Signed)
        );
    }
}
