//! The LCF-style proof kernel.
//!
//! In the paper, AutoCorres runs inside Isabelle/HOL: every abstraction step
//! is justified by applying proven inference rules through the kernel, so a
//! theorem can only come into existence via rules. This crate reproduces
//! that architecture in Rust:
//!
//! * [`Thm`] is the theorem type. Its constructor is private — the **only**
//!   way to obtain a `Thm` is through the rule functions in [`rules`]. Each
//!   rule is one conclusion function, which checks the rule's side
//!   conditions while it computes the conclusion; the constructor applies
//!   it once.
//! * [`judgment::Judgment`] is the statement language: the refinement
//!   judgments of the paper — `abs_w_val`/`abs_w_stmt` (Sec 3.3),
//!   `abs_h_val`/`abs_h_modifies`/`abs_h_stmt` (Sec 4.5), the L1
//!   Simpl-to-monadic correspondence, and plain monadic refinement used by
//!   the L2 rewrites.
//! * Every `Thm` carries its full derivation tree; [`check`] replays the
//!   derivation, recomputing each node's conclusion with the same rule
//!   functions and comparing, independently of the engine that produced it.
//! * [`semantics`] gives each judgment form its executable meaning, and
//!   provides randomized differential validators — the documented substitute
//!   for Isabelle's meta-level soundness proofs of the rules (DESIGN.md §2).
//!
//! Three rules consult oracles: `DischargeGuard` uses the `solver` simplifier
//! (the analogue of `simp` being part of Isabelle's trusted tactics),
//! `ExecTested` admits a refinement after randomized differential testing
//! with a recorded seed/trial count, and `WCustomSampled` admits a
//! user-supplied word-abstraction idiom after randomized sampling of its
//! semantics, with the sampled variables, seed and trial count recorded.

pub mod cert;
pub mod codec;
pub mod judgment;
pub mod rules;
pub mod semantics;
pub mod thm;

pub use judgment::{AbsFun, Judgment};
pub use thm::{
    check, check_all, check_all_with, CheckCtx, KernelError, ReplayCache, ReplayReport, Rule, Side,
    Thm,
};
