//! Table 1: each Simpl construct corresponds to its monadic function — as
//! derived by the kernel's L1 rules and validated against both interpreters
//! on random states.

use ir::expr::{BinOp, Expr};
use ir::state::State;
use ir::update::Update;
use ir::value::Value;
use kernel::rules::refine;
use kernel::{CheckCtx, Judgment};
use monadic::{Prog, ProgramCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simpl::stmt::{ISimpl, SimplStmt};

fn l1_thm(cx: &CheckCtx, s: &ISimpl) -> kernel::Thm {
    let subs = s.children().into_iter().map(|c| l1_thm(cx, c)).collect();
    refine::l1(cx, s, subs).unwrap()
}

fn l1_of(cx: &CheckCtx, s: &SimplStmt) -> Prog {
    let thm = l1_thm(cx, &ISimpl::new(s.clone()));
    let Judgment::L1 { prog, .. } = thm.judgment() else {
        unreachable!()
    };
    prog.clone()
}

#[test]
fn table1_shapes() {
    let cx = CheckCtx::default();
    assert_eq!(l1_of(&cx, &SimplStmt::Skip), Prog::skip());
    assert_eq!(l1_of(&cx, &SimplStmt::Throw), Prog::Throw(Expr::unit()));
    let upd = Update::Local("x".into(), Expr::u32(1));
    assert_eq!(
        l1_of(&cx, &SimplStmt::Basic(upd.clone())),
        Prog::Modify(upd)
    );
    let guard = SimplStmt::Guard(
        ir::GuardKind::DivByZero,
        Expr::var("g"),
        ISimpl::new(SimplStmt::Skip),
    );
    // Guard t g B ≡ guard g; B  (the condition/skip/fail composite of
    // Table 1's last row).
    let p = l1_of(&cx, &guard);
    assert!(matches!(p, Prog::Bind(l, _, _) if matches!(*l, Prog::Guard(..))));
}

#[test]
fn constructs_agree_with_both_interpreters() {
    // Random straight-line statements over two locals: exec through the
    // Simpl interpreter and the monadic interpreter; outcomes and states
    // must agree (the executable content of l1corres).
    let cx = CheckCtx::default();
    let mut rng = StdRng::seed_from_u64(5);
    let sprog = simpl::SimplProgram::default();
    let mctx = ProgramCtx::default();
    for i in 0..200 {
        let stmt = random_stmt(&mut rng, 3);
        let prog = l1_of(&cx, &stmt);
        let mut st = State::conc_empty();
        st.set_local("x", Value::u32(rng.gen_range(0..100)));
        st.set_local("y", Value::u32(rng.gen_range(0..100)));

        let mut s_state = st.clone();
        let mut fuel = 10_000;
        let s_out = simpl::exec_stmt(&sprog, &stmt, &mut s_state, &mut fuel);
        let env = ir::eval::Env::new();
        let m_out = monadic::exec(&mctx, &prog, &env, st, 10_000);
        match (s_out, m_out) {
            (Ok(simpl::Outcome::Normal), Ok((monadic::MonadResult::Normal(_), m_state))) => {
                assert_eq!(s_state, m_state, "iteration {i}");
            }
            (Ok(simpl::Outcome::Abrupt), Ok((monadic::MonadResult::Except(_), m_state))) => {
                assert_eq!(s_state, m_state, "iteration {i}");
            }
            (Err(simpl::Fault::GuardFailure(_)), Err(monadic::MonadFault::Failure(_))) => {}
            (s, m) => panic!("iteration {i}: outcomes diverge: {s:?} vs {m:?}"),
        }
    }
}

fn random_stmt(rng: &mut StdRng, depth: u32) -> SimplStmt {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        match rng.gen_range(0..4) {
            0 => SimplStmt::Skip,
            1 => SimplStmt::Basic(Update::Local(
                if rng.gen() { "x" } else { "y" }.into(),
                Expr::binop(
                    BinOp::Add,
                    Expr::Local("x".into()),
                    Expr::u32(rng.gen_range(0..5)),
                ),
            )),
            2 => SimplStmt::Throw,
            _ => SimplStmt::Guard(
                ir::GuardKind::DivByZero,
                Expr::binop(
                    BinOp::Lt,
                    Expr::Local("y".into()),
                    Expr::u32(rng.gen_range(1..200)),
                ),
                ISimpl::new(SimplStmt::Skip),
            ),
        }
    } else {
        match rng.gen_range(0..3) {
            0 => SimplStmt::Seq(
                ISimpl::new(random_stmt(rng, depth - 1)),
                ISimpl::new(random_stmt(rng, depth - 1)),
            ),
            1 => SimplStmt::Cond(
                Expr::binop(
                    BinOp::Lt,
                    Expr::Local("x".into()),
                    Expr::u32(rng.gen_range(0..100)),
                ),
                ISimpl::new(random_stmt(rng, depth - 1)),
                ISimpl::new(random_stmt(rng, depth - 1)),
            ),
            _ => SimplStmt::TryCatch(
                ISimpl::new(random_stmt(rng, depth - 1)),
                ISimpl::new(random_stmt(rng, depth - 1)),
            ),
        }
    }
}
