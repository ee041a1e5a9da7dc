//! Property tests of the work scheduler over random call graphs.
//!
//! The graphs come from `codegen::gen_call_graph` — the same acyclic
//! caller-calls-lower-index shape the synthetic Table 5 code bases have —
//! used here as generic dependency graphs. For every graph and worker
//! count the scheduler must (1) run each node exactly once, (2) never
//! start a node before all of its dependencies have finished — the
//! invariant every `SameFn` and barrier edge of the pipeline's phase
//! graph relies on — and (3) terminate (no deadlock; the test would hang
//! otherwise).

use ir::sched::{par_map, run_dag};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs the scheduler on the graph, recording per-node start and finish
/// ticks from a shared logical clock.
fn schedule_and_trace(deps: &[Vec<usize>], workers: usize) -> Vec<(usize, usize)> {
    let clock = AtomicUsize::new(0);
    let (trace, stats) = run_dag(deps.len(), deps, workers, |_| {
        let start = clock.fetch_add(1, Ordering::SeqCst);
        let finish = clock.fetch_add(1, Ordering::SeqCst);
        (start, finish)
    });
    assert!(stats.workers >= 1);
    assert_eq!(trace.len(), deps.len(), "one result slot per function");
    trace
}

proptest! {
    #[test]
    fn dag_schedules_each_function_exactly_once_after_its_callees(
        seed in 0u64..1000,
        n in 1usize..60,
        density_pct in 0usize..100,
        workers in 1usize..9,
    ) {
        let deps = codegen::gen_call_graph(seed, n, density_pct as f64 / 100.0);
        let trace = schedule_and_trace(&deps, workers);
        // Exactly once: every slot filled with a coherent interval, and
        // all ticks distinct (2n ticks for n jobs).
        let mut ticks: Vec<usize> = trace.iter().flat_map(|&(s, f)| [s, f]).collect();
        ticks.sort_unstable();
        ticks.dedup();
        prop_assert_eq!(ticks.len(), 2 * deps.len());
        // Callee-before-caller: a caller's job starts only after every
        // callee's job finished.
        for (caller, callees) in deps.iter().enumerate() {
            for &callee in callees {
                prop_assert!(
                    trace[callee].1 < trace[caller].0,
                    "caller {} started at {} before callee {} finished at {}",
                    caller, trace[caller].0, callee, trace[callee].1
                );
            }
        }
    }

    #[test]
    fn sequential_dag_order_is_reproducible(
        seed in 0u64..200,
        n in 1usize..40,
    ) {
        let deps = codegen::gen_call_graph(seed, n, 0.7);
        let order = |_unused: ()| {
            let log = Mutex::new(Vec::new());
            run_dag(deps.len(), &deps, 1, |i| log.lock().unwrap().push(i));
            log.into_inner().unwrap()
        };
        prop_assert_eq!(order(()), order(()));
    }

    #[test]
    fn par_map_matches_sequential_map(
        xs in proptest::collection::vec(0u32..1000, 0..50),
        workers in 1usize..9,
    ) {
        let expected: Vec<u64> = xs.iter().map(|&x| u64::from(x) * 7 + 3).collect();
        let (got, _) = par_map(&xs, workers, |_, &x| u64::from(x) * 7 + 3);
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn pipeline_wa_phase_orders_adaptations_after_callee_theorems() {
    // End-to-end shape check on a mixed-level program: the concrete-kept
    // caller's adaptation theorem exists, and the abstracted callee's WA
    // theorem exists. WA jobs run in any order (they read only the HL
    // context and the signature table); adaptation waits for the WA
    // barrier, so it always sees every callee's WA result.
    let src = "unsigned inc(unsigned x) { return x + 1u; }\n\
               unsigned twice(unsigned x) { return inc(inc(x)); }\n";
    let opts = autocorres::Options {
        concrete_fns: ["twice".to_owned()].into(),
        l2_trials: 12,
        workers: 4,
        ..autocorres::Options::default()
    };
    let out = autocorres::translate(src, &opts).unwrap();
    let wa_names: Vec<&str> = out.thms.wa.iter().map(|(n, _)| n.as_str()).collect();
    assert!(wa_names.contains(&"inc"), "callee WA theorem missing: {wa_names:?}");
    assert!(wa_names.contains(&"twice"), "caller adaptation theorem missing: {wa_names:?}");
    out.check_all().unwrap();
}
