//! Binary codec impls for kernel statements and derivations.
//!
//! Judgments, rules, and side data are plain data. Derivations have one
//! encoding, the *node table* ([`NodeTable`], [`read_table`]): one row
//! per structurally distinct subtree, in postorder. Certificates
//! (`kernel::cert`) write one table for all their roots; the store writes
//! one per theorem through the [`Thm`] codec at the bottom; the soundness
//! audit writes its mutants as new rows over existing ones. Rules and side
//! data are encoded here only, so no other module writes a row.
//!
//! The reader takes each row's constructor from its caller: certificates
//! admit every row through the validating kernel, while the
//! `persist`-gated [`Thm`] codec rebuilds rows **without** validation for
//! the disk-backed store. Nothing records a rebuilt row as checked, so
//! `--check` validates store theorems like any other (see DESIGN.md §6g).
//! Adversarial-grade transport is the certificate path, never the store.

use std::collections::hash_map::{Entry, HashMap};

use ir::codec::{Codec, DecodeError, Decoder, Encoder};

use crate::judgment::{AbsFun, Judgment, VarMap};
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

ir::codec! { struct VarMap { vars } }

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

/// A node table being written: a varint row count, then per row its
/// judgment, rule, side, varint premise count and premise row ids. The
/// kernel's one writer of derivations, for certificates, the store and the
/// audit's mutants alike. It only writes bytes: a theorem still comes
/// only from a rule, `Thm::admit` or the store's reader ([`read_table`]).
#[derive(Default)]
pub struct NodeTable {
    rows: Vec<Row>,
    /// Each node row's id, keyed by the node's address: `rows` holds the
    /// node, so the address keys no other node while the table lives.
    ids: HashMap<usize, u64>,
}

enum Row {
    /// A node; its premises are rows already.
    Node(Thm),
    /// A node that does not exist yet: its judgment, rule, side and
    /// premise rows.
    New(Box<(Judgment, Rule, Side, Vec<u64>)>),
}

impl NodeTable {
    /// Adds the distinct nodes under `root` that are not rows yet and
    /// returns `root`'s row id. Rows are in postorder, so a premise id is
    /// below its row's own. Theorems are hash-consed, so a row is a node:
    /// the kernel's one derivation walk ([`postorder`]) takes each node at
    /// its first sight by address, equal sub-derivations share a row, and
    /// reading the table rebuilds every theorem exactly, `proof_size`
    /// included.
    pub fn add(&mut self, root: &Thm) -> u64 {
        let mut nodes = Vec::new();
        let ids = &mut self.ids;
        // A node the walk enters gets its id when the walk leaves it.
        let enter = |t: &Thm| match ids.entry(t.key()) {
            Entry::Vacant(id) => {
                id.insert(u64::MAX);
                true
            }
            Entry::Occupied(_) => false,
        };
        postorder(root, enter, &mut nodes);
        for t in nodes {
            self.ids.insert(t.key(), self.rows.len() as u64);
            self.rows.push(Row::Node(t.clone()));
        }
        self.ids[&root.key()]
    }

    /// Appends a row for a node that does not exist yet, `rule` ⊢
    /// `judgment` over the rows `premises` (written as given: a reader
    /// rejects an id not below the row's own), and returns its id.
    pub fn row(&mut self, judgment: Judgment, rule: Rule, side: Side, premises: Vec<u64>) -> u64 {
        self.rows.push(Row::New(Box::new((judgment, rule, side, premises))));
        self.rows.len() as u64 - 1
    }

    /// Writes the row count, then the rows, into `e`: the caller's encoder,
    /// because interned terms in the rows back-reference terms `e` already
    /// wrote.
    pub fn write(&self, e: &mut Encoder) {
        e.varint(self.rows.len() as u64);
        for row in &self.rows {
            match row {
                Row::Node(t) => {
                    let premises = t.premises().iter().map(|p| self.ids[&p.key()]);
                    write_row(e, t.judgment(), t.rule(), t.side(), premises);
                }
                Row::New(row) => {
                    let (judgment, rule, side, premises) = &**row;
                    write_row(e, judgment, *rule, side, premises.iter().copied());
                }
            }
        }
    }
}

fn write_row(
    e: &mut Encoder,
    judgment: &Judgment,
    rule: Rule,
    side: &Side,
    premises: impl ExactSizeIterator<Item = u64>,
) {
    judgment.encode(e);
    rule.encode(e);
    side.encode(e);
    e.varint(premises.len() as u64);
    for id in premises {
        e.varint(id);
    }
}

/// Reads a table a [`NodeTable`] wrote, one theorem per row in row order:
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
        let mut table = NodeTable::default();
        table.add(self);
        table.write(e);
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

    /// The audit mints its mutants this way: the rows of existing
    /// premises, then a new row over them, read back by the store's `Thm`
    /// codec as exactly that node over exactly those premises.
    #[cfg(feature = "persist")]
    #[test]
    fn a_new_row_over_added_premises_reads_back_as_that_node() {
        let cx = CheckCtx::default();
        let lit = |n| {
            crate::rules::word::w_lit(
                &cx,
                &Default::default(),
                AbsFun::Unat,
                &ir::value::Value::u32(n),
            )
            .expect("w_lit")
        };
        let sum = crate::rules::word::w_arith(&cx, Rule::WSum, ir::ty::Width::W32, lit(5), lit(5))
            .expect("w_arith");
        let premises = vec![sum, lit(6), lit(5)];
        let mut table = NodeTable::default();
        let ids: Vec<u64> = premises.iter().map(|p| table.add(p)).collect();
        assert_eq!(ids, [1, 2, 0], "5, 5 + 5, 6; the last premise is row 0");
        // A node no rule made: three premises under a two-premise rule.
        let judgment = premises[1].judgment().clone();
        let side = Side::Tested { trials: 3, seed: 9 };
        assert_eq!(table.row(judgment.clone(), Rule::WSum, side.clone(), ids), 3);
        let mut e = Encoder::new();
        table.write(&mut e);
        let thm: Thm = decode_from_slice(&e.finish()).expect("decode");
        assert_eq!(thm.rule(), Rule::WSum);
        assert_eq!(*thm.judgment(), judgment);
        assert_eq!(*thm.side(), side);
        assert_eq!(thm.premises(), premises);
        assert!(crate::check(&thm, &cx).is_err(), "the checker rejects it");
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
