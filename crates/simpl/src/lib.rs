//! The Simpl intermediate language (Schirmer) and the C-to-Simpl translation.
//!
//! Simpl is the *trusted* entry point of the AutoCorres chain: the
//! translation from C is intentionally verbose, literal and conservative
//! (paper Sec 2 and Fig 2). In particular:
//!
//! * abrupt termination (`return`, `break`, `continue`) is encoded with
//!   `THROW`/`TRY … CATCH` and the ghost variable `global_exn_var`,
//! * every potentially undefined C operation is protected by an inline
//!   `Guard` statement: signed overflow, division by zero, invalid shifts,
//!   invalid pointer accesses, and execution falling off the end of a
//!   non-`void` function (`DontReach`),
//! * `p->f` becomes a pointer-offset access `read s (Ptr (ptr_val p + off))`.
//!
//! The crate provides the IR ([`SimplStmt`]), the translation
//! ([`translate_program`]), a big-step interpreter ([`interp::exec_fn`]) used
//! by the refinement validators, and a Fig-2-style pretty printer.
//!
//! # Example
//!
//! ```
//! let src = "int max(int a, int b) { if (a < b) return b; return a; }";
//! let typed = cparser::parse_and_check(src).unwrap();
//! let simpl = simpl::translate_program(&typed).unwrap();
//! let rendered = simpl.function("max").unwrap().to_string();
//! assert!(rendered.contains("TRY"));
//! assert!(rendered.contains("global_exn_var"));
//! assert!(rendered.contains("GUARD DontReach"));
//! ```

pub mod codec;
pub mod interp;
pub mod stmt;
pub mod translate;

pub use interp::{exec_fn, exec_stmt, Fault, Outcome};
pub use stmt::{GuardKind, ISimpl, SimplFn, SimplProgram, SimplStmt};
pub use translate::{translate_env, translate_function, translate_program};

/// Name of the ghost local recording the abrupt-termination reason.
pub const EXN_VAR: &str = "global_exn_var";
/// Name of the local holding a function's return value.
pub const RET_VAR: &str = "ret__";
/// `global_exn_var` value for `return`.
pub const EXN_RETURN: u32 = 0;
/// `global_exn_var` value for `break`.
pub const EXN_BREAK: u32 = 1;
/// `global_exn_var` value for `continue`.
pub const EXN_CONTINUE: u32 = 2;
