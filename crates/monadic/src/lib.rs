//! The monadic shallow-embedding analogue: a deep embedding of the
//! nondeterministic state-exception monad
//! `('s, 'a, 'e) monadE ≡ 's ⇒ (('e + 'a) × 's) set × bool` (paper Sec 2).
//!
//! [`Prog`] provides exactly the combinators of Table 1 — `return`, `skip`,
//! `modify`, `throw`, `condition`, `fail`, `guard` — plus `bind`
//! (`do … od` notation), `whileLoop`, `catch`, procedure calls, and the
//! level-mixing `exec_concrete`/`exec_abstract` of Sec 4.6.
//!
//! The same program type is used at every abstraction level; the pipeline
//! phases (L1 → L2 → HL → WA) only change which expressions and state shapes
//! appear inside. [`interp::exec`] gives programs their executable meaning,
//! used by the refinement validators and the case-study test suites.
//!
//! # Example
//!
//! ```
//! use monadic::{Prog, interp::{exec, MonadResult}};
//! use ir::{Expr, BinOp};
//! use ir::eval::Env;
//! use ir::state::State;
//!
//! // do v ← return 2; return (v + 3) od
//! let p = Prog::bind(
//!     Prog::ret(Expr::nat(2u64)),
//!     "v",
//!     Prog::ret(Expr::binop(BinOp::Add, Expr::var("v"), Expr::nat(3u64))),
//! );
//! let ctx = monadic::ProgramCtx::default();
//! let (r, _) = exec(&ctx, &p, &Env::new(), State::abs_empty(), 100).unwrap();
//! assert_eq!(r, MonadResult::Normal(ir::Value::nat(5u64)));
//! ```

pub mod codec;
pub mod interp;
pub mod prog;
pub mod typing;

pub use interp::{exec, exec_fn, MonadFault, MonadResult};
pub use prog::{Child, IProg, MonadicFn, Prog, ProgramCtx};
pub use typing::ProgTyping;
