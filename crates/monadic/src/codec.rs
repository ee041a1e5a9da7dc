//! Binary codec impls for the monadic program language (see `ir::codec`).
//!
//! `Prog` children are hash-consed [`IProg`] handles, so the generic
//! `Interned` codec gives DAG sharing for free: a subprogram shared by
//! several functions is written once per encoder.

use crate::prog::{MonadicFn, Prog, ProgramCtx};

ir::codec! {
    enum Prog @depth {
        0 => Return(x),
        1 => Gets(x),
        2 => Modify(u),
        3 => Guard(k, g),
        4 => Throw(x),
        5 => Fail,
        6 => Bind(l, v, r),
        7 => BindTuple(l, vs, r),
        8 => Condition(c, t, f),
        9 => While { vars, cond, body, init },
        10 => Catch(l, v, r),
        11 => Call { fname, args },
        12 => ExecConcrete(p),
        13 => ExecAbstract(p),
    }
}

ir::codec! { struct MonadicFn { name, params, ret_ty, frame, body } }

ir::codec! { struct ProgramCtx { tenv, fns, globals } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::IProg;
    use ir::codec::{decode_from_slice, encode_to_vec};
    use ir::expr::Expr;
    use ir::guard::GuardKind;
    use ir::ty::Ty;
    use ir::update::Update;

    #[test]
    fn prog_round_trips_with_sharing() {
        let step = IProg::new(Prog::Modify(Update::Local(
            "x".into(),
            Expr::binop(ir::expr::BinOp::Add, Expr::var("x"), Expr::u32(1)),
        )));
        let p = Prog::Bind(step.clone(), "_".into(), step.clone());
        let bytes = encode_to_vec(&p);
        let back: Prog = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, p);
        match &back {
            Prog::Bind(l, _, r) => assert_eq!(l.key(), r.key(), "sharing survives"),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn monadic_fn_round_trips() {
        let f = MonadicFn {
            name: "inc".into(),
            params: vec![("x".into(), Ty::U32)],
            ret_ty: Ty::U32,
            frame: None,
            body: Prog::ret(Expr::binop(
                ir::expr::BinOp::Add,
                Expr::var("x"),
                Expr::u32(1),
            )),
        };
        let bytes = encode_to_vec(&f);
        let back: MonadicFn = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, f);
    }

    #[test]
    fn corrupt_prog_never_panics() {
        let p = Prog::cond(
            Expr::var("c"),
            Prog::guard(GuardKind::DivByZero, Expr::var("g")),
            Prog::Fail,
        );
        let bytes = encode_to_vec(&p);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            let _ = decode_from_slice::<Prog>(&m);
            let _ = decode_from_slice::<Prog>(&bytes[..i]);
        }
    }
}
