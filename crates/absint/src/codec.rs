//! Binary codec impls for abstract-interpretation results (see
//! `ir::codec`), so `absint` phase artifacts can live in the disk store.

use crate::lint::{Lint, LintKind};
use crate::{FnAbsint, GuardInfo, Verdict};

ir::codec! { enum Verdict { 0 => ProvedTrue { hyp }, 1 => ProvedFalse, 2 => Unknown } }

ir::codec! { struct GuardInfo { index, kind, guard, verdict } }

ir::codec! {
    enum LintKind {
        0 => DeadStore,
        1 => UnreachableCode,
        2 => UseBeforeInit,
        3 => DefiniteOverflow,
    }
}

ir::codec! { struct Lint { kind, message, span } }

ir::codec! { struct FnAbsint { guards, lints } }

#[cfg(test)]
mod tests {
    use super::*;
    use ir::codec::{decode_from_slice, encode_to_vec};
    use ir::diag::Span;
    use ir::expr::Expr;
    use ir::guard::GuardKind;

    #[test]
    fn fn_absint_round_trips() {
        let a = FnAbsint {
            guards: vec![GuardInfo {
                index: 3,
                kind: GuardKind::SignedOverflow,
                guard: Expr::binop(ir::expr::BinOp::Lt, Expr::var("x"), Expr::u32(10)),
                verdict: Verdict::ProvedTrue {
                    hyp: Expr::binop(ir::expr::BinOp::Lt, Expr::var("x"), Expr::u32(5)),
                },
            }],
            lints: vec![Lint {
                kind: LintKind::DeadStore,
                message: "store to `x` is never read".into(),
                span: Span::default(),
            }],
        };
        let bytes = encode_to_vec(&a);
        assert_eq!(decode_from_slice::<FnAbsint>(&bytes).unwrap(), a);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x22;
            let _ = decode_from_slice::<FnAbsint>(&m);
            let _ = decode_from_slice::<FnAbsint>(&bytes[..i]);
        }
    }
}
