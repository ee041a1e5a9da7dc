//! Parser and typechecker for the C99 subset supported by AutoCorres-rs.
//!
//! This crate plays the role of Norrish's C-to-Isabelle parser front half:
//! it turns C source text into a typed AST which the `simpl` crate then
//! translates, conservatively and literally, into the Simpl intermediate
//! language.
//!
//! # Supported subset (paper Sec 2, widened by ISSUE 9)
//!
//! Loops (`while`, `do`/`while`, `for`), `if`/`else`, `switch`/`case`/
//! `default` with fallthrough (the typechecker desugars it into guarded
//! branches over a one-shot scrutinee binding), function calls and
//! recursion, integer types of all widths and signednesses, type casts,
//! pointers and pointer arithmetic, structures (including pointers to
//! struct and `->`/`.` access), fixed-size arrays (`T a[N]`; every access
//! carries an in-bounds guard), compound assignment and `++`/`--`
//! (parser-level sugar with single evaluation of the lvalue),
//! `const`/`volatile` qualifiers on locals and globals,
//! `break`/`continue`/`return`.
//!
//! # Unsupported (rejected with an error)
//!
//! References to local variables (`&x`), `goto`, unions, floating point,
//! function pointers, expressions with side effects other than hoistable
//! function calls, variadic functions, array-to-pointer decay, array
//! initialisers, multi-dimensional arrays, qualified pointer declarations,
//! writes to `const` objects.
//!
//! # Example
//!
//! ```
//! let src = "int max(int a, int b) { if (a < b) return b; return a; }";
//! let program = cparser::parse_and_check(src).unwrap();
//! assert_eq!(program.functions.len(), 1);
//! assert_eq!(program.functions[0].name, "max");
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod typecheck;

use ir::diag::{Diag, DiagKind, Phase};

pub use ast::{CBinOp, CExpr, CType, CUnOp, FunDef, Program, Stmt};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse, ParseError};
pub use typecheck::{typecheck, walk, Node, TExpr, TExprKind, TFunDef, TProgram, TStmt, TypeError};

/// Parses and typechecks a complete C translation unit.
///
/// # Errors
///
/// Returns a frontend [`Diag`] describing the first lexical, syntactic, or
/// type error encountered; the message carries the full rendered error and
/// the span points at the offending token or declaration.
pub fn parse_and_check(src: &str) -> Result<TProgram, Diag> {
    let tokens = lex(src).map_err(Diag::from)?;
    let prog = parse(&tokens).map_err(Diag::from)?;
    typecheck(&prog).map_err(Diag::from)
}

impl From<LexError> for Diag {
    fn from(e: LexError) -> Self {
        Diag::new(Phase::Frontend, DiagKind::Lex, e.to_string()).with_span(e.span)
    }
}
impl From<ParseError> for Diag {
    fn from(e: ParseError) -> Self {
        Diag::new(Phase::Frontend, DiagKind::Parse, e.to_string()).with_span(e.span)
    }
}
impl From<TypeError> for Diag {
    fn from(e: TypeError) -> Self {
        let d = Diag::new(Phase::Frontend, DiagKind::Type, e.to_string());
        match e.span {
            Some(s) => d.with_span(s),
            None => d,
        }
    }
}
