//! Self-contained proof certificates (`cert-v1`).
//!
//! A certificate packages checked theorems for transport to an
//! *independent* checker (`certcheck`): the file carries the checking
//! context, every derivation node, and named roots — nothing else is
//! needed to replay it. Layout:
//!
//! ```text
//! b"ACRCERT1"                                  8-byte magic + version
//! payload:
//!   CheckCtx                                   layouts + fn signatures
//!   varint node-count
//!   node*        judgment, rule, side, varint premise-count,
//!                premise ids (varints, each < the node's own index —
//!                the DAG is stored in postorder, so premises always
//!                precede their conclusion)
//!   varint root-count
//!   root*        label (string), varint node id
//! digest128(payload)                           16 bytes, little-endian
//! ```
//!
//! Trust model: **nothing in the file is trusted.** The checker rebuilds
//! every node through [`Thm::admit`], which runs the full rule
//! validation, so a certificate for a false judgment is structurally
//! impossible to accept — at worst a forged file names a *different*
//! theorem than the producer intended, which the caller detects by
//! reading the replayed root judgments. The trailing digest is not a
//! security boundary (the rules are); it exists so accidental corruption
//! fails fast with a precise diagnosis instead of a confusing rule error.

use std::fmt;

use ir::codec::{seal, unseal, Codec, Decoder, Encoder, SealError};

use crate::thm::{CheckCtx, KernelError, Rule, Side, Thm};
use crate::Judgment;

/// Magic + version prefix of a `cert-v1` file.
pub const CERT_MAGIC: &[u8; 8] = b"ACRCERT1";

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum CertError {
    /// Not a `cert-v1` file, or the structure is malformed.
    Format(String),
    /// The payload digest does not match — the file was corrupted.
    Digest,
    /// A node failed rule validation during replay.
    Replay {
        /// Postorder index of the failing node.
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

/// Serializes checked theorems into a `cert-v1` byte vector.
///
/// The derivation DAG is linearized in postorder with pointer-identity
/// dedup, so a sub-derivation shared by several roots (or several times
/// within one — hash-consed programs produce hash-consed proofs) is
/// written once.
#[must_use]
pub fn encode_cert(cx: &CheckCtx, roots: &[(&str, &Thm)]) -> Vec<u8> {
    // Iterative postorder: derivations for large functions can be deeper
    // than the default stack allows.
    let mut ids: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut order: Vec<&Thm> = Vec::new();
    for &(_, root) in roots {
        let mut stack: Vec<(&Thm, bool)> = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            let key = std::ptr::from_ref(t) as usize;
            if ids.contains_key(&key) {
                continue;
            }
            if expanded {
                ids.insert(key, order.len() as u64);
                order.push(t);
            } else {
                stack.push((t, true));
                for p in t.premises() {
                    stack.push((p, false));
                }
            }
        }
    }

    let mut e = Encoder::new();
    cx.encode(&mut e);
    e.varint(order.len() as u64);
    for t in &order {
        t.judgment().encode(&mut e);
        t.rule().encode(&mut e);
        t.side().encode(&mut e);
        e.varint(t.premises().len() as u64);
        for p in t.premises() {
            let key = std::ptr::from_ref(p) as usize;
            e.varint(ids[&key]);
        }
    }
    e.varint(roots.len() as u64);
    for (label, root) in roots {
        e.str(label);
        let key = std::ptr::from_ref(*root) as usize;
        e.varint(ids[&key]);
    }

    seal(CERT_MAGIC, &e.finish())
}

/// Replays a `cert-v1` file, re-admitting every node through the
/// validating kernel.
///
/// # Errors
///
/// [`CertError::Format`] for anything that is not a well-formed
/// certificate, [`CertError::Digest`] if the payload was corrupted, and
/// [`CertError::Replay`] if any node fails rule validation.
pub fn check_cert(bytes: &[u8]) -> Result<CertReport, CertError> {
    let payload = unseal(CERT_MAGIC, bytes).map_err(|e| match e {
        SealError::Digest => CertError::Digest,
        SealError::Format(msg) => CertError::Format(msg),
    })?;

    let fmt_err = |e: ir::codec::DecodeError| CertError::Format(e.0);
    let mut d = Decoder::new(payload);
    let cx = CheckCtx::decode(&mut d).map_err(fmt_err)?;
    let n = d.seq_len().map_err(fmt_err)?;
    let mut thms: Vec<Thm> = Vec::with_capacity(n);
    for i in 0..n {
        let judgment = Judgment::decode(&mut d).map_err(fmt_err)?;
        let rule = Rule::decode(&mut d).map_err(fmt_err)?;
        let side = Side::decode(&mut d).map_err(fmt_err)?;
        let np = d.seq_len().map_err(fmt_err)?;
        let mut premises = Vec::with_capacity(np);
        for _ in 0..np {
            let id = d.varint().map_err(fmt_err)? as usize;
            if id >= i {
                return Err(CertError::Format(format!(
                    "node {i} references premise {id} (not in postorder)"
                )));
            }
            premises.push(thms[id].clone());
        }
        let thm = Thm::admit(rule, premises, judgment, side, &cx)
            .map_err(|err| CertError::Replay { node: i, err })?;
        thms.push(thm);
    }
    let nroots = d.seq_len().map_err(fmt_err)?;
    let mut roots = Vec::with_capacity(nroots);
    for _ in 0..nroots {
        let label = d.str().map_err(fmt_err)?;
        let id = d.varint().map_err(fmt_err)? as usize;
        let thm = thms
            .get(id)
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
        nodes: n,
        roots,
        cx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
