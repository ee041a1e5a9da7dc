//! Self-contained proof certificates (`cert-v3`).
//!
//! A certificate packages checked theorems for transport to an
//! *independent* checker (`certcheck`): the file carries the checking
//! context, one node table holding every distinct derivation node once
//! (`kernel::codec`), and named roots — nothing else is needed to replay
//! it. Layout:
//!
//! ```text
//! b"ACRCERT3"                                  8-byte magic + version
//! payload:
//!   CheckCtx                                   layouts + fn signatures
//!   node table   varint row-count, then per row: judgment, rule, side,
//!                varint premise-count, premise row ids (varints, each
//!                < the row's own id)
//!   varint root-count
//!   root*        label (string), varint row id
//! payload digest (`ir::codec::seal`)           16 bytes, little-endian
//! ```
//!
//! Trust model: **nothing in the file is trusted.** The checker admits
//! every row through the validating kernel (`Thm::admit`) as it reads it,
//! in row order: a row's premises are earlier rows, already admitted, so
//! each rule step is checked exactly once, and no hash or cache ever
//! decides acceptance. A certificate for a false judgment is structurally
//! impossible to accept — at worst a forged file names a *different*
//! theorem than the producer intended, which the caller detects by
//! reading the replayed root judgments. The trailing digest is not a
//! security boundary (the rules are); it exists so accidental corruption
//! fails fast with a precise diagnosis instead of a confusing rule error.

use std::fmt;

use ir::codec::{seal, unseal, Codec, DecodeError, Decoder, Encoder, SealError};

use crate::codec::{read_table, NodeTable};
use crate::thm::{CheckCtx, KernelError, Thm};

/// Magic + version prefix of a `cert-v3` file. Version 3 writes each
/// distinct Simpl statement and word-abstraction context once (interned
/// terms back-reference earlier ones); a `cert-v2` file is malformed.
pub const CERT_MAGIC: &[u8; 8] = b"ACRCERT3";

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum CertError {
    /// Not a `cert-v3` file, or the structure is malformed.
    Format(String),
    /// The payload digest does not match — the file was corrupted.
    Digest,
    /// A row failed rule validation.
    Replay {
        /// Row id of the failing row.
        node: usize,
        /// The kernel's rejection.
        err: KernelError,
    },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Format(msg) => write!(f, "certificate malformed: {msg}"),
            CertError::Digest => write!(f, "certificate integrity digest mismatch"),
            CertError::Replay { node, err } => {
                write!(f, "certificate node {node} failed replay: {err}")
            }
        }
    }
}

impl std::error::Error for CertError {}

impl From<DecodeError> for CertError {
    fn from(e: DecodeError) -> Self {
        CertError::Format(e.0)
    }
}

/// Result of a successful certificate replay.
#[derive(Clone, Debug)]
pub struct CertReport {
    /// Derivation nodes replayed (each one a validated rule application).
    pub nodes: usize,
    /// The certificate's named root theorems, freshly re-admitted.
    pub roots: Vec<(String, Thm)>,
    /// The checking context the certificate was replayed under.
    pub cx: CheckCtx,
}

/// Serializes checked theorems into a `cert-v3` byte vector: the context,
/// one node table for all roots, and the labelled root ids.
#[must_use]
pub fn encode_cert(cx: &CheckCtx, roots: &[(&str, &Thm)]) -> Vec<u8> {
    let mut e = Encoder::new();
    cx.encode(&mut e);
    let mut table = NodeTable::default();
    let ids: Vec<u64> = roots.iter().map(|(_, t)| table.add(t)).collect();
    table.write(&mut e);
    e.varint(roots.len() as u64);
    for ((label, _), id) in roots.iter().zip(ids) {
        e.str(label);
        e.varint(id);
    }
    seal(CERT_MAGIC, &e.finish())
}

/// Replays a `cert-v3` file, admitting every row of its node table
/// through the validating kernel as it is read.
///
/// # Errors
///
/// [`CertError::Format`] for anything that is not a well-formed
/// certificate (a premise id not below its row's own, a root id out of
/// range, another version's magic), [`CertError::Digest`] if the payload
/// was corrupted, and [`CertError::Replay`] if any row fails rule
/// validation.
pub fn check_cert(bytes: &[u8]) -> Result<CertReport, CertError> {
    let payload = unseal(CERT_MAGIC, bytes).map_err(|e| match e {
        SealError::Digest => CertError::Digest,
        SealError::Format(msg) => CertError::Format(msg),
    })?;

    let mut d = Decoder::new(payload);
    let cx = CheckCtx::decode(&mut d)?;
    let rows = read_table(&mut d, |node, rule, premises, judgment, side| {
        Thm::admit(rule, premises, judgment, side, &cx)
            .map_err(|err| CertError::Replay { node, err })
    })?;
    let nroots = d.seq_len()?;
    let mut roots = Vec::new();
    for _ in 0..nroots {
        let label = d.str()?;
        let id = d.varint()?;
        let thm = usize::try_from(id)
            .ok()
            .and_then(|id| rows.get(id))
            .cloned()
            .ok_or_else(|| CertError::Format(format!("root {label:?} id {id} out of range")))?;
        roots.push((label, thm));
    }
    if d.remaining() != 0 {
        return Err(CertError::Format(format!(
            "{} trailing bytes after roots",
            d.remaining()
        )));
    }
    Ok(CertReport {
        nodes: rows.len(),
        roots,
        cx,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use ir::expr::Expr;
    use monadic::Prog;

    use super::*;
    use crate::{Judgment, Rule, Side};

    fn sample() -> (CheckCtx, Thm) {
        let cx = CheckCtx::default();
        // ⊢ lit 5 ▹ unat: a tiny real derivation via the rule API.
        let t = crate::rules::word::w_lit(
            &cx,
            &Default::default(),
            crate::AbsFun::Unat,
            &ir::value::Value::u32(5),
        )
        .expect("w_lit");
        (cx, t)
    }

    #[test]
    fn cert_round_trips_and_replays() {
        let (cx, t) = sample();
        let bytes = encode_cert(&cx, &[("lit5", &t)]);
        let report = check_cert(&bytes).expect("replay");
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].0, "lit5");
        assert_eq!(report.roots[0].1.judgment(), t.judgment());
        assert!(report.nodes >= 1);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (cx, t) = sample();
        let bytes = encode_cert(&cx, &[("lit5", &t)]);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                assert!(
                    check_cert(&m).is_err(),
                    "flip of byte {i} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn each_distinct_row_is_checked_once() {
        let (cx, lit) = sample();
        let sum = |a: Thm, b: Thm| {
            crate::rules::word::w_arith(&cx, Rule::WSum, ir::ty::Width::W32, a, b).expect("w_arith")
        };
        let (a, b) = (sum(lit.clone(), lit.clone()), sum(lit.clone(), lit));
        let bytes = encode_cert(&cx, &[("a", &a), ("b", &b)]);
        let report = check_cert(&bytes).expect("replay");
        assert_eq!(report.nodes, 2, "one row for the literal, one for the sum");
        assert_eq!(report.roots[0].1, a);
        assert_eq!(report.roots[1].1.proof_size(), 3);
    }

    /// A sealed certificate under `cx` with the node table `rows`
    /// (judgment, rule, premise ids; no side data), written as new rows of
    /// a [`NodeTable`], and the roots `roots`.
    fn raw_cert(cx: &CheckCtx, rows: &[(&Judgment, Rule, &[u64])], roots: &[u64]) -> Vec<u8> {
        let mut e = Encoder::new();
        cx.encode(&mut e);
        let mut table = NodeTable::default();
        for &(judgment, rule, premises) in rows {
            table.row(judgment.clone(), rule, Side::None, premises.to_vec());
        }
        table.write(&mut e);
        e.varint(roots.len() as u64);
        for &r in roots {
            e.str(&format!("row{r}"));
            e.varint(r);
        }
        seal(CERT_MAGIC, &e.finish())
    }

    /// `refines (return abs) (return conc)`.
    fn refines(abs: &Expr, conc: &Expr) -> Judgment {
        Judgment::Refines {
            abs: Prog::ret(abs.clone()),
            conc: Prog::ret(conc.clone()),
        }
    }

    #[test]
    fn malformed_tables_and_other_versions_are_format_errors() {
        let (cx, t) = sample();
        let j = t.judgment();
        let self_premise = raw_cert(&cx, &[(j, Rule::WLit, &[0])], &[]);
        let root_out_of_range = raw_cert(&cx, &[(j, Rule::WLit, &[])], &[1]);
        assert!(check_cert(&raw_cert(&cx, &[(j, Rule::WLit, &[])], &[0])).is_ok());
        let older = |magic: &[u8; 8]| {
            let mut bytes = encode_cert(&cx, &[("lit5", &t)]);
            bytes[..8].copy_from_slice(magic);
            bytes
        };
        let (v1, v2) = (older(b"ACRCERT1"), older(b"ACRCERT2"));
        for bytes in [self_premise, root_out_of_range, v1, v2] {
            assert!(matches!(check_cert(&bytes), Err(CertError::Format(_))));
        }
    }

    #[test]
    fn a_false_row_is_rejected_wherever_it_sits() {
        let cx = CheckCtx::default();
        let (five, six) = (Expr::u32(5), Expr::u32(6));
        let truth = refines(&five, &five);
        // `return 6` refines `return 5`, "by reflexivity".
        let lie = refines(&six, &five);
        let refl = |j| (j, Rule::ReflRefines, &[][..]);
        assert!(check_cert(&raw_cert(&cx, &[refl(&truth)], &[0])).is_ok());
        // The lie as a root, as the only premise path of a root whose own
        // step is valid, and in a row no root reaches.
        let as_root = raw_cert(&cx, &[refl(&truth), refl(&lie)], &[1]);
        let as_premise = raw_cert(
            &cx,
            &[
                refl(&lie),
                refl(&truth),
                (&lie, Rule::TransRefines, &[0, 1]),
            ],
            &[2],
        );
        let unreachable = raw_cert(&cx, &[refl(&truth), refl(&lie)], &[0]);
        for (bytes, row) in [(as_root, 1), (as_premise, 0), (unreachable, 1)] {
            match check_cert(&bytes) {
                Err(CertError::Replay { node, .. }) => assert_eq!(node, row),
                other => panic!("row {row} was not rejected by replay: {other:?}"),
            }
        }
    }

    /// Two identifiers whose `Symbol` content hashes (64-bit FNV-1a) are
    /// equal, found by `cargo run --release -p ir --example
    /// symbol_collision`.
    const COLLIDING: (&str, &str) = ("vvzzknxxcn2uon", "vzdstvzqfrpefm");

    #[test]
    fn a_row_that_hashes_like_a_checked_row_is_still_checked() {
        let cx = CheckCtx::default();
        let (x, y) = (Expr::var(COLLIDING.0), Expr::var(COLLIDING.1));
        let valid = refines(&x, &x);
        let forged = refines(&x, &y);
        // Different judgments that feed a hasher the same bytes: a check
        // keyed by a hash of the row would take the forged row for the
        // valid one.
        let hash = |j: &Judgment| {
            let mut h = DefaultHasher::new();
            j.hash(&mut h);
            h.finish()
        };
        assert_ne!(valid, forged);
        assert_eq!(hash(&valid), hash(&forged));
        let rows = [
            (&valid, Rule::ReflRefines, &[][..]),
            (&forged, Rule::ReflRefines, &[]),
        ];
        match check_cert(&raw_cert(&cx, &rows, &[0, 1])) {
            Err(CertError::Replay { node, .. }) => assert_eq!(node, 1),
            other => panic!("the forged row was not rejected: {other:?}"),
        }
    }

    #[test]
    fn truncations_and_garbage_are_rejected() {
        let (cx, t) = sample();
        let bytes = encode_cert(&cx, &[("lit5", &t)]);
        for i in 0..bytes.len() {
            assert!(check_cert(&bytes[..i]).is_err(), "truncation at {i} accepted");
        }
        assert!(matches!(
            check_cert(b"not a certificate, definitely"),
            Err(CertError::Format(_))
        ));
    }
}
