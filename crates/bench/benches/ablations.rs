//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! 1. **Heap abstraction on/off** — what the user would face without Sec 4:
//!    VC sizes for swap at the byte level vs split heaps.
//! 2. **Word abstraction on/off** — the Sec 3 contrast: deciding the
//!    midpoint VC with and without abstraction.
//! 3. **L2 guard simplification on/off** — measured indirectly: the count
//!    of guards surviving in the output with the optimisation (the
//!    baseline is the raw count of guard-emitting operations).
//! 4. **Differential-testing budget** — translation cost as a function of
//!    the `l2_trials` validation budget.

use autocorres::{translate, Options};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;

fn count_guards(p: &monadic::Prog) -> usize {
    let mut n = 0;
    p.visit(&mut |q| n += usize::from(matches!(q, monadic::Prog::Guard(..))));
    n
}

fn print_ablations() {
    println!("Ablation 1 — heap abstraction (swap verification)");
    {
        let out = translate(casestudies::sources::SWAP, &Options::default()).unwrap();
        let read = |p: &str| ir::Expr::read_heap(ir::Ty::U32, ir::Expr::var(p));
        let spec = vcg::Spec {
            pre: ir::Expr::and(
                ir::Expr::and(
                    ir::Expr::is_valid(ir::Ty::U32, ir::Expr::var("a")),
                    ir::Expr::is_valid(ir::Ty::U32, ir::Expr::var("b")),
                ),
                ir::Expr::and(
                    ir::Expr::eq(read("a"), ir::Expr::var("x")),
                    ir::Expr::eq(read("b"), ir::Expr::var("y")),
                ),
            ),
            post: ir::Expr::and(
                ir::Expr::eq(read("a"), ir::Expr::var("y")),
                ir::Expr::eq(read("b"), ir::Expr::var("x")),
            ),
        };
        let hl_vcs = vcg::vcg(
            &out.hl.function("swap").unwrap().body,
            &spec,
            &[],
            vcg::HeapModel::SplitHeaps,
            &out.hl.tenv,
        )
        .unwrap();
        let byte_vcs = vcg::vcg(
            &out.l2.function("swap").unwrap().body,
            &spec,
            &[],
            vcg::HeapModel::ByteLevel,
            &out.l2.tenv,
        )
        .unwrap();
        let hs: usize = hl_vcs.iter().map(|v| v.goal.term_size()).sum();
        let bs: usize = byte_vcs.iter().map(|v| v.goal.term_size()).sum();
        println!("  split-heap VC size: {hs}; byte-level VC size: {bs} ({:.1}x)", bs as f64 / hs as f64);
        assert!(bs > hs);
    }

    println!("Ablation 2 — word abstraction (midpoint decision procedure)");
    {
        let nat_goal = {
            let l = || ir::Expr::var("l");
            let r = || ir::Expr::var("r");
            let mid = ir::Expr::binop(
                ir::BinOp::Div,
                ir::Expr::binop(ir::BinOp::Add, l(), r()),
                ir::Expr::nat(2u64),
            );
            ir::Expr::implies(
                ir::Expr::and(
                    ir::Expr::binop(ir::BinOp::Lt, l(), r()),
                    ir::Expr::binop(
                        ir::BinOp::Le,
                        ir::Expr::binop(ir::BinOp::Add, l(), r()),
                        ir::Expr::nat(u64::from(u32::MAX)),
                    ),
                ),
                ir::Expr::binop(ir::BinOp::Le, l(), mid),
            )
        };
        let nv: HashMap<String, ir::Ty> =
            [("l".into(), ir::Ty::Nat), ("r".into(), ir::Ty::Nat)].into();
        let info = solver::decide_with_info(&nat_goal, &nv);
        println!("  with WA:    {:?} via {}", info.verdict, info.procedure);
        let word_goal = {
            let l = || ir::Expr::var("l");
            let r = || ir::Expr::var("r");
            let sum = ir::Expr::binop(ir::BinOp::Add, l(), r());
            let mid = ir::Expr::binop(ir::BinOp::Div, sum.clone(), ir::Expr::u32(2));
            ir::Expr::implies(
                ir::Expr::and(
                    ir::Expr::binop(ir::BinOp::Lt, l(), r()),
                    ir::Expr::binop(ir::BinOp::Le, l(), sum),
                ),
                ir::Expr::binop(ir::BinOp::Le, l(), mid),
            )
        };
        let wv: HashMap<String, ir::Ty> =
            [("l".into(), ir::Ty::U32), ("r".into(), ir::Ty::U32)].into();
        let winfo = solver::decide_with_info(&word_goal, &wv);
        let st = winfo.sat_stats.unwrap_or_default();
        println!(
            "  without WA: {:?} via {} ({} SAT conflicts)",
            winfo.verdict, winfo.procedure, st.conflicts
        );
    }

    println!("Ablation 3 — L2 guard simplification (guards in the gcd output)");
    {
        let out = translate(casestudies::sources::GCD, &Options::default()).unwrap();
        let l1_guards = count_guards(&out.l1.function("gcd").unwrap().body);
        let l2_guards = count_guards(&out.l2.function("gcd").unwrap().body);
        println!("  guards at L1 (parser-emitted): {l1_guards}; after L2 simplification: {l2_guards}");
        assert!(l2_guards <= l1_guards);
    }
}

fn bench(c: &mut Criterion) {
    print_ablations();
    // Ablation 4: translation cost vs differential-testing budget.
    let typed = cparser::parse_and_check(casestudies::sources::SCHORR_WAITE).unwrap();
    for trials in [2u32, 20, 80] {
        let opts = Options {
            l2_trials: trials,
            seed: 1,
            ..Options::default()
        };
        c.bench_function(&format!("ablation/translate_sw_trials_{trials}"), |b| {
            b.iter(|| {
                std::hint::black_box(autocorres::translate_program(&typed, &opts).unwrap())
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
