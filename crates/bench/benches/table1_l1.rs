//! Table 1: the Simpl-construct ↔ monadic-function correspondence, printed
//! from the kernel's actual L1 rules, plus the cost of the L1 phase on the
//! case-study sources.

use criterion::{criterion_group, criterion_main, Criterion};
use kernel::rules::refine;
use kernel::{CheckCtx, Judgment};
use simpl::stmt::{ISimpl, SimplStmt};

fn print_table() {
    println!("Table 1 — Simpl commands and their monadic counterparts (from the L1 rules)");
    println!("{:-<70}", "");
    let cx = CheckCtx::default();
    let rows: Vec<(&str, SimplStmt)> = vec![
        ("Skip", SimplStmt::Skip),
        (
            "Basic m",
            SimplStmt::Basic(ir::update::Update::Local("x".into(), ir::Expr::u32(1))),
        ),
        ("Throw", SimplStmt::Throw),
        (
            "Cond c L R",
            SimplStmt::cond(ir::Expr::var("c"), SimplStmt::Skip, SimplStmt::Throw),
        ),
        (
            "Guard t g B",
            SimplStmt::guard(ir::GuardKind::DivByZero, ir::Expr::var("g"), SimplStmt::Skip),
        ),
    ];
    for (name, stmt) in rows {
        // The rows' sub-statements are leaves.
        let subs: Vec<kernel::Thm> = stmt
            .children()
            .into_iter()
            .map(|c| refine::l1(&cx, c, vec![]).unwrap())
            .collect();
        let thm = refine::l1(&cx, &ISimpl::new(stmt), subs).unwrap();
        let Judgment::L1 { prog, .. } = thm.judgment() else {
            unreachable!()
        };
        let rendered = prog.to_string().replace('\n', " ");
        println!("{name:<14} ↦  {rendered}");
    }
    println!("{:-<70}", "");
}

fn bench(c: &mut Criterion) {
    print_table();
    let typed = cparser::parse_and_check(casestudies::sources::SCHORR_WAITE).unwrap();
    let sp = simpl::translate_program(&typed).unwrap();
    let cx = CheckCtx {
        tenv: sp.tenv.clone(),
        ..CheckCtx::default()
    };
    c.bench_function("table1/l1_phase_schorr_waite", |b| {
        b.iter(|| std::hint::black_box(autocorres::l1::l1_program(&cx, &sp).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
