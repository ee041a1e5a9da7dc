//! Quickstart: translate a C function through the full AutoCorres-rs
//! pipeline and inspect every level (the paper's Fig 1 and Fig 2).
//!
//! Run with: `cargo run --example quickstart`

use autocorres::{translate, Options};

fn main() {
    let src = "int max(int a, int b) {\n    if (a < b)\n        return b;\n    return a;\n}\n";
    println!("C source (Fig 2):\n{src}");

    let opts = Options {
        workers: 4,
        ..Options::default()
    };
    let out = translate(src, &opts).expect("pipeline runs");

    println!("── parser output (Simpl, the trusted literal translation) ──");
    println!("{}", out.simpl.function("max").unwrap());

    println!("── L1 (monadic, locals in state) ──");
    println!("{}", out.l1.function("max").unwrap());

    println!("── L2 (control-flow abstraction, lambda-bound locals) ──");
    println!("{}", out.l2.function("max").unwrap());

    println!("── HL (typed split heaps) ──");
    println!("{}", out.hl.function("max").unwrap());

    println!("── WA (ideal integers) — the AutoCorres output ──");
    println!("{}", out.wa.function("max").unwrap());

    println!("── theorems ──");
    for (phase, thms) in [
        ("L1", &out.thms.l1),
        ("L2", &out.thms.l2),
        ("HL", &out.thms.hl),
        ("WA", &out.thms.wa),
    ] {
        for (name, thm) in thms {
            println!("{phase}: {name}: {thm}");
        }
    }

    let report = out
        .check_all_report(opts.workers)
        .expect("every theorem replays through the checker");
    println!(
        "\n{} theorems ({} rule applications) replayed by the proof checker on {} worker(s) ✓",
        report.checked, report.proof_nodes, report.pool.workers
    );

    let pm = out.parser_metrics();
    let om = out.output_metrics();
    println!(
        "spec size: parser {} lines / {} nodes → AutoCorres {} lines / {} nodes",
        pm.lines, pm.term_size, om.lines, om.term_size
    );
    println!(
        "guards: {} total, {} discharged statically",
        out.stats.guards_total, out.stats.guards_discharged
    );

    println!("\n── pipeline stats ──");
    println!("{}", out.stats);
}
