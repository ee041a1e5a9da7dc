//! Binary codec impls for the Simpl statement language (see `ir::codec`).
//!
//! Needed because `kernel::Judgment::L1` embeds the Simpl statement a
//! monadic program was translated from, so persisted theorems carry
//! Simpl terms. Sub-statements are interned handles, so an encoder writes
//! each distinct statement once and back-references it after.

use crate::stmt::SimplStmt;

ir::codec! {
    enum SimplStmt @depth {
        0 => Skip,
        1 => Basic(u),
        2 => Seq(a, b),
        3 => Cond(c, a, b),
        4 => While(c, b),
        5 => Guard(k, g, c),
        6 => Throw,
        7 => TryCatch(a, b),
        8 => Call { fname, args, ret_local },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::GuardKind;
    use ir::codec::{decode_from_slice, encode_to_vec};
    use ir::expr::Expr;
    use ir::update::Update;

    #[test]
    fn simpl_round_trips() {
        let s = SimplStmt::guard(
            GuardKind::DivByZero,
            Expr::var("b"),
            SimplStmt::seq(
                SimplStmt::Basic(Update::Local("x".into(), Expr::u32(1))),
                SimplStmt::cond(
                    Expr::var("c"),
                    SimplStmt::Throw,
                    SimplStmt::Call {
                        fname: "f".into(),
                        args: vec![Expr::var("x")],
                        ret_local: Some("r".into()),
                    },
                ),
            ),
        );
        let bytes = encode_to_vec(&s);
        let back: SimplStmt = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn corrupt_simpl_never_panics() {
        let s = SimplStmt::while_loop(Expr::var("c"), SimplStmt::Skip);
        let bytes = encode_to_vec(&s);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] = m[i].wrapping_add(1);
            let _ = decode_from_slice::<SimplStmt>(&m);
        }
    }
}
