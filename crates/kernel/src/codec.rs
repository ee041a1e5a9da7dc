//! Binary codec impls for kernel statements and derivations.
//!
//! Judgments, rules, and side data are plain data. Derivations have one
//! encoding, the *node table* ([`write_table`], [`read_table`]): one row
//! per structurally distinct subtree, in postorder. Certificates
//! (`kernel::cert`) write one table for all their roots; the store writes
//! one per theorem through the [`Thm`] codec at the bottom.
//!
//! The reader takes each row's constructor from its caller: certificates
//! admit every row through the validating kernel, while the
//! `persist`-gated [`Thm`] codec rebuilds rows **without** validation for
//! the disk-backed store. Nothing records a rebuilt row as checked, so
//! `--check` validates store theorems like any other (see DESIGN.md §6g).
//! Adversarial-grade transport is the certificate path, never the store.

use std::collections::{HashMap, HashSet};

use ir::codec::{Codec, DecodeError, Decoder, Encoder};

use crate::judgment::{AbsFun, Judgment};
use crate::thm::{postorder, CheckCtx, Rule, Side, Thm};

/// Every rule, in a fixed order that defines the on-disk tag. Append new
/// rules at the end — reordering is a format break.
pub(crate) const RULES: [Rule; 79] = [
    Rule::WVar,
    Rule::WLit,
    Rule::WSum,
    Rule::WSub,
    Rule::WMul,
    Rule::WDiv,
    Rule::WMod,
    Rule::SSum,
    Rule::SSub,
    Rule::SMul,
    Rule::SDiv,
    Rule::SMod,
    Rule::SNeg,
    Rule::WCmp,
    Rule::WOfNat,
    Rule::WOfInt,
    Rule::WUnatWrap,
    Rule::WSintWrap,
    Rule::WIdCong,
    Rule::WIte,
    Rule::WTuple,
    Rule::WProj,
    Rule::WTupleId,
    Rule::WTupleWrap,
    Rule::WCustomSampled,
    Rule::WsRet,
    Rule::WsGets,
    Rule::WsModify,
    Rule::WsGuard,
    Rule::WsThrow,
    Rule::WsFail,
    Rule::WsBind,
    Rule::WsBindTuple,
    Rule::WsCond,
    Rule::WsWhile,
    Rule::WsCall,
    Rule::WsCatch,
    Rule::WsExecConcrete,
    Rule::HLit,
    Rule::HVar,
    Rule::HCong,
    Rule::HValWeaken,
    Rule::HRead,
    Rule::HReadField,
    Rule::HGuardPtr,
    Rule::HUpd,
    Rule::HUpdField,
    Rule::HUpdVar,
    Rule::HsGets,
    Rule::HsModify,
    Rule::HsGuard,
    Rule::HsRet,
    Rule::HsThrow,
    Rule::HsFail,
    Rule::HsBind,
    Rule::HsBindTuple,
    Rule::HsCond,
    Rule::HsWhile,
    Rule::HsCatch,
    Rule::HsCall,
    Rule::HsExecConcrete,
    Rule::L1Skip,
    Rule::L1Basic,
    Rule::L1Seq,
    Rule::L1Cond,
    Rule::L1While,
    Rule::L1Guard,
    Rule::L1Throw,
    Rule::L1Catch,
    Rule::L1Call,
    Rule::ReflRefines,
    Rule::TransRefines,
    Rule::BindCong,
    Rule::CondCong,
    Rule::CatchCong,
    Rule::WhileCong,
    Rule::DischargeGuard,
    Rule::AbsintDischarge,
    Rule::ExecTested,
];

impl Codec for Rule {
    fn encode(&self, e: &mut Encoder) {
        let tag = RULES
            .iter()
            .position(|r| r == self)
            .expect("rule missing from codec table");
        e.u8(tag as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let tag = d.u8()?;
        RULES
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| DecodeError(format!("invalid Rule tag {tag}")))
    }
}

ir::codec! {
    enum Side {
        0 => None,
        1 => Tested { trials, seed },
        2 => SampledWVal { vars, trials, seed },
    }
}

ir::codec! { enum AbsFun @depth { 0 => Id, 1 => Unat, 2 => Sint, 3 => Tuple(fs) } }

ir::codec! {
    enum Judgment @depth {
        0 => WVal { ctx, pre, f, abs, conc },
        1 => WStmt { ctx, rx, ex, abs, conc },
        2 => HVal { pre, abs, conc },
        3 => HUpd { pre, abs, conc },
        4 => HStmt { abs, conc },
        5 => L1 { prog, simpl },
        6 => Refines { abs, conc },
        7 => AbsGuard { hyp, kind, guard },
    }
}

ir::codec! { struct CheckCtx { tenv, fn_abs } }

/// Writes the node table of `roots` (a varint row count, then per row its
/// judgment, rule, side, varint premise count and premise row ids) and
/// returns each root's row id. Rows are in postorder, so a premise id is
/// below its row's own. Theorems are hash-consed, so a row is a node:
/// the kernel's one derivation walk ([`postorder`]) takes each node at its
/// first sight by address (every root, and so every node under it, is
/// alive for the call), equal sub-derivations share a row, and reading the
/// table rebuilds every theorem exactly, `proof_size` included.
pub(crate) fn write_table(e: &mut Encoder, roots: &[&Thm]) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut rows: Vec<&Thm> = Vec::new();
    for &root in roots {
        postorder(root, |t| seen.insert(t.key()), &mut rows);
    }
    let ids: HashMap<usize, u64> = rows
        .iter()
        .enumerate()
        .map(|(id, t)| (t.key(), id as u64))
        .collect();
    e.varint(rows.len() as u64);
    for t in &rows {
        t.judgment().encode(e);
        t.rule().encode(e);
        t.side().encode(e);
        e.varint(t.premises().len() as u64);
        for p in t.premises() {
            e.varint(ids[&p.key()]);
        }
    }
    roots.iter().map(|r| ids[&r.key()]).collect()
}

/// Reads a table [`write_table`] wrote, one theorem per row in row order:
/// `build(id, rule, premises, judgment, side)` makes row `id`'s theorem,
/// its premises being the earlier rows it names. A premise id not below
/// its row's own is an error.
pub(crate) fn read_table<E: From<DecodeError>>(
    d: &mut Decoder<'_>,
    mut build: impl FnMut(usize, Rule, Vec<Thm>, Judgment, Side) -> Result<Thm, E>,
) -> Result<Vec<Thm>, E> {
    let n = d.seq_len()?;
    let mut rows: Vec<Thm> = Vec::new();
    for i in 0..n {
        let judgment = Judgment::decode(d)?;
        let rule = Rule::decode(d)?;
        let side = Side::decode(d)?;
        let np = d.seq_len()?;
        let mut premises = Vec::new();
        for _ in 0..np {
            let id = d.varint()?;
            let p = usize::try_from(id).ok().and_then(|id| rows.get(id));
            premises.push(p.cloned().ok_or_else(|| {
                DecodeError(format!(
                    "row {i} references premise {id} (not in postorder)"
                ))
            })?);
        }
        rows.push(build(i, rule, premises, judgment, side)?);
    }
    Ok(rows)
}

/// Store-only theorem codec (`persist` feature): one node table per
/// theorem, whose last row is the theorem, read back **without
/// validation** (see [`Thm::from_row`]).
#[cfg(feature = "persist")]
impl Codec for Thm {
    fn encode(&self, e: &mut Encoder) {
        write_table(e, &[self]);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        read_table(d, |_, rule, premises, judgment, side| {
            Ok::<_, DecodeError>(Thm::from_row(rule, premises, judgment, side))
        })?
        .pop()
        .ok_or_else(|| DecodeError("empty node table".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::codec::{decode_from_slice, encode_to_vec};
    use ir::expr::Expr;

    #[test]
    fn rule_table_is_total_and_injective() {
        for (i, r) in RULES.iter().enumerate() {
            let bytes = encode_to_vec(r);
            assert_eq!(bytes, vec![i as u8]);
            assert_eq!(decode_from_slice::<Rule>(&bytes).unwrap(), *r);
        }
        assert!(decode_from_slice::<Rule>(&[RULES.len() as u8]).is_err());
    }

    #[test]
    fn side_and_absfun_round_trip() {
        for s in [
            Side::None,
            Side::Tested {
                trials: 80,
                seed: 2014,
            },
            Side::SampledWVal {
                vars: [("x".to_owned(), ir::ty::Ty::U32)].into_iter().collect(),
                trials: 64,
                seed: 7,
            },
        ] {
            let bytes = encode_to_vec(&s);
            assert_eq!(decode_from_slice::<Side>(&bytes).unwrap(), s);
        }
        let f = AbsFun::Tuple(vec![AbsFun::Unat, AbsFun::Id, AbsFun::Sint]);
        let bytes = encode_to_vec(&f);
        assert_eq!(decode_from_slice::<AbsFun>(&bytes).unwrap(), f);
    }

    #[cfg(feature = "persist")]
    #[test]
    fn thm_round_trips_with_dag_sharing() {
        let cx = CheckCtx::default();
        let lit = || {
            crate::rules::word::w_lit(
                &cx,
                &Default::default(),
                AbsFun::Unat,
                &ir::value::Value::u32(5),
            )
            .expect("w_lit")
        };
        let sum = |a: Thm, b: Thm| {
            crate::rules::word::w_arith(&cx, Rule::WSum, ir::ty::Width::W32, a, b).expect("w_arith")
        };
        // Equal sub-derivations are one node however they were built, and
        // one row.
        let inner = sum(lit(), lit());
        let shared = sum(inner.clone(), inner);
        let unshared = sum(sum(lit(), lit()), sum(lit(), lit()));
        assert_eq!(shared.key(), unshared.key());
        let bytes = encode_to_vec(&shared);
        let rows = Decoder::new(&bytes).seq_len().expect("row count");
        assert_eq!(rows, 3, "leaf, inner sum, outer sum");
        let back: Thm = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, unshared);
        assert_eq!(back.proof_size(), 7);
        assert_eq!(back.proof_size(), unshared.proof_size());
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x81;
            let _ = decode_from_slice::<Thm>(&m);
            let _ = decode_from_slice::<Thm>(&bytes[..i]);
        }
    }

    #[test]
    fn judgment_round_trips() {
        let j = Judgment::AbsGuard {
            hyp: Expr::binop(ir::expr::BinOp::Le, Expr::var("x"), Expr::nat(10u64)),
            kind: ir::guard::GuardKind::UnsignedOverflow,
            guard: Expr::binop(ir::expr::BinOp::Le, Expr::var("x"), Expr::nat(20u64)),
        };
        let bytes = encode_to_vec(&j);
        assert_eq!(decode_from_slice::<Judgment>(&bytes).unwrap(), j);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x11;
            let _ = decode_from_slice::<Judgment>(&m);
        }
    }
}
