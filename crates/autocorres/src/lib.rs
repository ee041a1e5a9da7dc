//! The AutoCorres-rs driver: C source to abstracted monadic specifications
//! with refinement theorems.
//!
//! Reproduces the pipeline of the paper's Fig 1:
//!
//! ```text
//! C99 ──parse──▶ Simpl ──L1──▶ monadic ──L2──▶ lifted ──HL──▶ split heaps ──WA──▶ output
//! ```
//!
//! * **Parsing** (`cparser` + `simpl`): trusted, unverified (dashed arrow in
//!   the figure).
//! * **L1** ([`l1`]): Simpl to the monadic deep embedding, one kernel rule
//!   per construct (Table 1), producing an `l1corres` theorem.
//! * **L2** ([`l2`]): control-flow abstraction — exception elimination,
//!   local-variable lifting into lambda-bound variables, guard
//!   simplification — producing a `refines` theorem validated by
//!   differential testing (the documented substitute for Isabelle's rewrite
//!   proofs, DESIGN.md §2).
//! * **HL** (`heapabs`): byte-level heap to typed split heaps, producing an
//!   `abs_h_stmt` theorem (Sec 4).
//! * **WA** (`wordabs`): machine words to ideal `nat`/`int`, producing an
//!   `abs_w_stmt` theorem (Sec 3).
//!
//! Heap and word abstraction are selectable per function via [`Options`]
//! (paper Sec 3.2 and 4.6).
//!
//! # Example
//!
//! ```
//! let src = "unsigned mid(unsigned l, unsigned r) { return (l + r) / 2u; }";
//! let out = autocorres::translate(src, &autocorres::Options::default()).unwrap();
//! let f = out.wa.function("mid").unwrap();
//! let text = f.to_string();
//! assert!(text.contains("guard"), "overflow obligation: {text}");
//! assert!(text.contains("div"), "ideal division: {text}");
//! ```

pub mod corpus;
pub mod l1;
pub mod l2;
pub mod phase;
pub mod pipeline;
pub mod session;
pub mod stats;
pub mod store;
pub mod testing;

pub use ir::diag::Diag;
pub use phase::{options_digest, ArtifactStore, Phase, PHASES};
pub use pipeline::{derive_seed, translate, translate_program, Options, Output, PhaseTheorems};
pub use session::Session;
pub use stats::{PhaseStat, PipelineStats};
pub use store::{DiskStore, LoadReport};
