//! Typed pipeline diagnostics.
//!
//! Every phase of the pipeline used to report failures as `Result<_,
//! String>`, which meant the CLI (and tests) could only grep messages.
//! [`Diag`] is the shared structured replacement: it records *which phase*
//! failed, *which function* was being translated (when known), a coarse
//! [`DiagKind`], the human-readable message, and — for frontend errors —
//! a source [`Span`].
//!
//! The `Display` form is kept compatible with the old stringly errors
//! (`"frontend: …"`, `"L2: …"`, …) so driver output and error-matching
//! tests are unchanged.

use std::fmt;

/// The pipeline phase a diagnostic originated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// C parsing and type checking (`cparser`).
    Frontend,
    /// The trusted C → Simpl translation (`simpl::translate`).
    Simpl,
    /// Simpl → L1 monadic shallow embedding.
    L1,
    /// L1 → L2: lambda-bound locals, exception elimination.
    L2,
    /// Heap abstraction (byte memory → typed split heaps).
    Hl,
    /// Word abstraction (machine words → `nat`/`int`).
    Wa,
    /// The proof kernel itself (replay / rule application / testing).
    Kernel,
    /// The verification-condition / decision-procedure layer (`vcg` +
    /// `solver`): a spec was checked and a VC was refuted or undecided.
    Solver,
    /// The abstract-interpretation phase (`absint`): guard discharge and
    /// IR lints.
    Absint,
}

impl Phase {
    /// The short prefix used in rendered diagnostics. Matches the old
    /// `PipelineError` display prefixes verbatim.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Phase::Frontend => "frontend",
            Phase::Simpl => "simpl",
            Phase::L1 => "L1",
            Phase::L2 => "L2",
            Phase::Hl => "HL",
            Phase::Wa => "WA",
            Phase::Kernel => "kernel",
            Phase::Solver => "solver",
            Phase::Absint => "absint",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A position in the original C source, tracked from the lexer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset from the start of the translation unit.
    pub offset: u32,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes) within the line.
    pub col: u32,
}

impl Span {
    /// Creates a span at the given byte offset / line / column.
    #[must_use]
    pub fn new(offset: u32, line: u32, col: u32) -> Self {
        Span { offset, line, col }
    }

    /// This span measured from `base` (a function's header span): offset
    /// and line become differences, and so does the column on `base`'s own
    /// line. Text added before `base` moves both spans alike and leaves the
    /// result unchanged. [`Span::anchored_at`] is the exact inverse; the
    /// arithmetic wraps, so both are total.
    #[must_use]
    pub fn relative_to(self, base: Span) -> Span {
        let line = self.line.wrapping_sub(base.line);
        Span {
            offset: self.offset.wrapping_sub(base.offset),
            line,
            col: if line == 0 {
                self.col.wrapping_sub(base.col)
            } else {
                self.col
            },
        }
    }

    /// Places a span taken [`Span::relative_to`] a base back onto `base`:
    /// `s.relative_to(b).anchored_at(b) == s` for every `s` and `b`.
    #[must_use]
    pub fn anchored_at(self, base: Span) -> Span {
        Span {
            offset: self.offset.wrapping_add(base.offset),
            line: self.line.wrapping_add(base.line),
            col: if self.line == 0 {
                self.col.wrapping_add(base.col)
            } else {
                self.col
            },
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Coarse classification of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagKind {
    /// Lexical error in the C source.
    Lex,
    /// Syntax error in the C source.
    Parse,
    /// Type error (or unsupported construct found during type checking).
    Type,
    /// A construct the pipeline does not support at this phase.
    Unsupported,
    /// A kernel rule application failed during proof construction.
    Kernel,
    /// Differential testing found a divergence (an `ExecTested` oracle
    /// refused to certify a refinement).
    Testing,
    /// An internal invariant was violated; always a bug.
    Internal,
    /// A verification condition was refuted: the diagnostic carries a
    /// [`Counterexample`] when one could be extracted.
    Refuted,
    /// A static-analysis lint: the code is accepted but suspicious (dead
    /// store, unreachable code, use before initialisation, or a guard the
    /// abstract interpreter proved *false* on every run).
    Lint,
}

/// One typed heap cell of a counterexample's input state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CexHeapCell {
    /// The heap type the cell lives in.
    pub ty: crate::ty::Ty,
    /// The cell's address.
    pub addr: u64,
    /// The object stored at the address.
    pub value: crate::value::Value,
}

impl fmt::Display for CexHeapCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:#x} = {}", self.ty, self.addr, self.value)
    }
}

/// A concrete falsifying assignment for a refuted verification condition,
/// extracted from the solver layers and validated (when possible) by
/// concrete interpretation.
///
/// Lives in `ir` so a [`Diag`] can carry it without the diagnostics layer
/// depending on the solver stack; the extraction machinery that builds it
/// lives in the `counterexample` crate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counterexample {
    /// The function whose spec was refuted.
    pub function: String,
    /// Which VC ("main", "loop 0 exit", "loop 0 body", "spec", …).
    pub vc: String,
    /// Statement-level source span of the refuted obligation (the loop or
    /// return statement, not the function header).
    pub span: Option<Span>,
    /// The falsifying assignment, sorted by variable name.
    pub model: Vec<(String, crate::value::Value)>,
    /// Typed heap cells of the falsifying input state.
    pub heap: Vec<CexHeapCell>,
    /// `true` when the assignment was re-validated by running the function
    /// on the concrete input and observing the spec violation.
    pub validated: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: VC `{}` refuted", self.function, self.vc)?;
        if let Some(s) = self.span {
            write!(f, " at {s}")?;
        }
        for (n, v) in &self.model {
            write!(f, "; {n} = {v}")?;
        }
        for c in &self.heap {
            write!(f, "; {c}")?;
        }
        Ok(())
    }
}

/// A structured pipeline diagnostic.
///
/// `message` carries the legacy error text verbatim; the remaining fields
/// are structured metadata layered on top, so converting a phase from
/// `Result<_, String>` to `Result<_, Diag>` never rewords anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// The phase that produced the diagnostic.
    pub phase: Phase,
    /// The function being translated, when known.
    pub function: Option<String>,
    /// Coarse classification.
    pub kind: DiagKind,
    /// Human-readable message (legacy text, unchanged).
    pub message: String,
    /// Source position, for frontend diagnostics.
    pub span: Option<Span>,
    /// A concrete falsifying input, for refuted verification conditions.
    pub counterexample: Option<Box<Counterexample>>,
}

impl Diag {
    /// Creates a diagnostic with no function or span attached.
    #[must_use]
    pub fn new(phase: Phase, kind: DiagKind, message: impl Into<String>) -> Self {
        Diag {
            phase,
            function: None,
            kind,
            message: message.into(),
            span: None,
            counterexample: None,
        }
    }

    /// Attaches the function name, keeping an already-recorded one (inner
    /// frames know the function better than outer ones).
    #[must_use]
    pub fn with_function(mut self, name: impl Into<String>) -> Self {
        if self.function.is_none() {
            self.function = Some(name.into());
        }
        self
    }

    /// Attaches a source span, keeping an already-recorded one (spans
    /// recorded closer to the lexer are more precise).
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        if self.span.is_none() {
            self.span = Some(span);
        }
        self
    }

    /// Attaches a concrete counterexample, adopting its span and function
    /// when the diagnostic has none (the counterexample's span is the
    /// refuted statement — more precise than a function-header span).
    #[must_use]
    pub fn with_counterexample(mut self, cex: Counterexample) -> Self {
        if self.span.is_none() {
            self.span = cex.span;
        }
        if self.function.is_none() {
            self.function = Some(cex.function.clone());
        }
        self.counterexample = Some(Box::new(cex));
        self
    }

    /// Re-labels the diagnostic as coming from `phase`. Used when a lower
    /// layer's diagnostic (e.g. a kernel testing failure) is surfaced as a
    /// pipeline phase failure.
    #[must_use]
    pub fn in_phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.phase.prefix(), self.message)
    }
}

impl std::error::Error for Diag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_prefixes() {
        let d = Diag::new(Phase::L2, DiagKind::Testing, "gcd: trial 3: values differ");
        assert_eq!(d.to_string(), "L2: gcd: trial 3: values differ");
        let d = Diag::new(Phase::Frontend, DiagKind::Parse, "parse error at 1:2: x");
        assert_eq!(d.to_string(), "frontend: parse error at 1:2: x");
        assert_eq!(Phase::Hl.prefix(), "HL");
        assert_eq!(Phase::Wa.prefix(), "WA");
        assert_eq!(Phase::Simpl.prefix(), "simpl");
    }

    #[test]
    fn with_span_and_function_keep_inner_values() {
        let inner = Span::new(10, 2, 3);
        let d = Diag::new(Phase::Frontend, DiagKind::Type, "boom")
            .with_span(inner)
            .with_span(Span::new(99, 9, 9))
            .with_function("f")
            .with_function("g");
        assert_eq!(d.span, Some(inner));
        assert_eq!(d.function.as_deref(), Some("f"));
        assert_eq!(format!("{}", inner), "2:3");
    }

    #[test]
    fn relative_spans_survive_a_shift_and_invert_exactly() {
        let header = Span::new(40, 3, 10);
        let same_line = Span::new(52, 3, 22);
        let below = Span::new(90, 5, 5);
        assert_eq!(same_line.relative_to(header), Span::new(12, 0, 12));
        assert_eq!(below.relative_to(header), Span::new(50, 2, 5));
        // A comment line above moves offsets and lines, not columns; a
        // comment before the header on its own line moves the header's
        // line's columns too. Neither changes a relative span.
        for (d_off, d_line, d_col) in [(8u32, 1u32, 0u32), (8, 0, 8)] {
            let shift = |s: Span, col: u32| Span::new(s.offset + d_off, s.line + d_line, col);
            let header2 = shift(header, header.col + d_col);
            assert_eq!(
                shift(same_line, same_line.col + d_col).relative_to(header2),
                same_line.relative_to(header)
            );
            assert_eq!(
                shift(below, below.col).relative_to(header2),
                below.relative_to(header)
            );
        }
        let edge = [0, 1, 2, 7, u32::MAX - 1, u32::MAX];
        for &a in &edge {
            for &b in &edge {
                for &c in &edge {
                    let s = Span::new(a, b, c);
                    for base in [header, Span::new(c, a, b), Span::default()] {
                        assert_eq!(s.relative_to(base).anchored_at(base), s);
                        assert_eq!(s.anchored_at(base).relative_to(base), s);
                    }
                }
            }
        }
    }
}
