//! Binary codec impls for kernel statements and derivations.
//!
//! Judgments, rules, and side data are plain data and always
//! serialisable — the certificate format (`kernel::cert`) is built from
//! them, and reconstructing a [`Thm`] *from* them goes through
//! [`Thm::admit`], i.e. through full rule validation.
//!
//! The direct [`Thm`] codec at the bottom is different: its decoder
//! rebuilds theorems **without** re-validating, so it is gated behind the
//! `persist` feature and reserved for the disk-backed artifact store,
//! where every entry is protected by a whole-payload integrity digest and
//! the store directory is part of the trusted base (see DESIGN.md §6g).
//! Adversarial-grade transport is the certificate path, never this one.

use ir::codec::{Codec, DecodeError, Decoder, Encoder};

use crate::judgment::{AbsFun, Judgment};
use crate::thm::{CheckCtx, Rule, Side};
#[cfg(feature = "persist")]
use crate::thm::Thm;

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

/// Store-only theorem codec (`persist` feature): derivations are written
/// as a DAG — premise slices shared between parents (`Arc<[Thm]>` clones)
/// are encoded once and back-referenced — and **rebuilt without
/// re-validation** on decode. Trust rests on the store's per-entry
/// integrity digest; replay through `kernel::check` (or warm-start's
/// preloaded replay digests) still covers the result. The adversarial
/// path is `kernel::cert`, whose reconstruction validates every node.
#[cfg(feature = "persist")]
impl Codec for Thm {
    fn encode(&self, e: &mut Encoder) {
        let key = self as *const Thm as usize;
        if let Some(id) = e.backref::<Thm>(key) {
            e.u8(1);
            e.varint(id);
            return;
        }
        e.u8(0);
        self.judgment().encode(e);
        self.rule().encode(e);
        self.side().encode(e);
        e.varint(self.premises().len() as u64);
        for p in self.premises() {
            p.encode(e);
        }
        e.define::<Thm>(key);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            1 => {
                let id = d.varint()?;
                d.shared_get::<Thm>(id)
            }
            0 => {
                d.enter()?;
                let judgment = Judgment::decode(d)?;
                let rule = Rule::decode(d)?;
                let side = Side::decode(d)?;
                let premises = Vec::decode(d)?;
                d.exit();
                let t = Thm::from_persisted(rule, premises, judgment, side);
                d.shared_push(t.clone());
                Ok(t)
            }
            b => Err(DecodeError(format!("invalid Thm tag {b}"))),
        }
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
        use crate::thm::{CheckCtx, Thm};
        let cx = CheckCtx::default();
        let leaf = || {
            crate::rules::word::w_lit(
                &cx,
                &Default::default(),
                AbsFun::Unat,
                &ir::value::Value::u32(5),
            )
            .expect("w_lit")
        };
        let hval = || crate::Judgment::HVal {
            pre: ir::expr::Expr::tt(),
            abs: ir::expr::Expr::var("a"),
            conc: ir::expr::Expr::var("a"),
        };
        let mid = |l: Thm| Thm::from_persisted(Rule::WIdCong, vec![l], hval(), Side::None);
        let top = |a: Thm, b: Thm| {
            Thm::from_persisted(Rule::WIdCong, vec![a, b], hval(), Side::None)
        };
        // Cloning a mid shares its premises Arc, so the leaf below it is
        // written once; structurally equal but unshared mids are not.
        let shared_mid = mid(leaf());
        let t = top(shared_mid.clone(), shared_mid);
        let bytes = encode_to_vec(&t);
        let unshared = encode_to_vec(&top(mid(leaf()), mid(leaf())));
        assert!(
            bytes.len() < unshared.len(),
            "shared sub-derivation not deduplicated ({} vs {})",
            bytes.len(),
            unshared.len()
        );
        let back: Thm = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, t);
        assert_eq!(back.proof_size(), t.proof_size());
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
