//! Shared semantic core of AutoCorres-rs.
//!
//! Every phase of the pipeline — Simpl, the monadic embeddings, heap
//! abstraction and word abstraction — manipulates the same small set of
//! semantic objects, defined here:
//!
//! * [`ty::Ty`] — the semantic type language (machine words, ideal `nat` and
//!   `int`, typed pointers, structures),
//! * [`word::Word`] — fixed-width machine words with C's wrap-around and
//!   two's-complement semantics,
//! * [`value::Value`] — runtime values,
//! * [`expr::Expr`] — the state-dependent expression language (the deep
//!   analogue of the paper's `λs. …` terms),
//! * [`state::State`] — program states: a concrete byte-level memory
//!   ([`mem::Memory`], Tuch's model) or abstract typed split heaps
//!   ([`state::AbsState`], Sec 4.4 of the paper),
//! * [`eval`] — the evaluator giving expressions their meaning,
//! * [`metrics`] — the *term size* and *lines of spec* metrics of Table 5.
//!
//! # Example
//!
//! ```
//! use ir::expr::{Expr, BinOp};
//! use ir::value::Value;
//! use ir::state::State;
//! use ir::eval::{eval, Env};
//! use bignum::Nat;
//!
//! // (2 + 3) evaluated over ideal naturals
//! let e = Expr::binop(BinOp::Add, Expr::nat(2u64), Expr::nat(3u64));
//! let v = eval(&e, &Env::new(), &State::abs_empty()).unwrap();
//! assert_eq!(v, Value::Nat(Nat::from(5u64)));
//! ```

pub mod codec;
pub mod diag;
pub mod eval;
pub mod guard;
pub mod expr;
pub mod intern;
pub mod mem;
pub mod metrics;
pub mod names;
pub mod pretty;
pub mod sched;
pub mod state;
pub mod ty;
pub mod typing;
pub mod update;
pub mod value;
pub mod word;

pub use diag::{Diag, DiagKind, Span};
pub use expr::{BinOp, CastKind, Expr, IExpr, UnOp};
pub use guard::GuardKind;
pub use intern::{Internable, InternStats, Interned, Interner};
pub use names::Symbol;
pub use state::{AbsState, ConcState, State};
pub use ty::{Signedness, StructDef, StructField, Ty, TypeEnv, Width};
pub use update::Update;
pub use value::{Ptr, Value};
pub use word::Word;

// The parallel pipeline shares programs, states, and values across scoped
// worker threads by reference. These types must stay `Send + Sync` (no
// interior mutability, no `Rc`); the assertion turns an accidental
// regression into a compile error at the source instead of a distant
// trait-bound failure in the scheduler.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Expr>();
    assert_send_sync::<Update>();
    assert_send_sync::<Value>();
    assert_send_sync::<State>();
    assert_send_sync::<Ty>();
    assert_send_sync::<TypeEnv>();
    assert_send_sync::<GuardKind>();
};
