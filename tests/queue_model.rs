//! A composite multi-function program — a linked queue with a header
//! struct — checked against a model implementation over random operation
//! sequences. Exercises two typed heaps (`queue`, `node`) at once, struct
//! field updates through pointers, and NULL handling.

use autocorres::{translate, Options};
use ir::state::State;
use ir::ty::Ty;
use ir::value::{Ptr, Value};
use monadic::MonadResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const SRC: &str = "struct node { struct node *next; unsigned data; };\n\
struct queue { struct node *head; struct node *tail; unsigned len; };\n\
void enqueue(struct queue *q, struct node *n) {\n\
    n->next = NULL;\n\
    if (!q->head) { q->head = n; q->tail = n; }\n\
    else { q->tail->next = n; q->tail = n; }\n\
    q->len = q->len + 1u;\n\
}\n\
struct node *dequeue(struct queue *q) {\n\
    struct node *n = q->head;\n\
    if (!n) return n;\n\
    q->head = n->next;\n\
    if (!q->head) { q->tail = NULL; }\n\
    q->len = q->len - 1u;\n\
    return n;\n\
}\n\
unsigned length(struct queue *q) { return q->len; }\n";

fn node_ty() -> Ty {
    Ty::Struct("node".into())
}

fn queue_ty() -> Ty {
    Ty::Struct("queue".into())
}

fn pipeline() -> &'static autocorres::Output {
    static OUT: std::sync::OnceLock<autocorres::Output> = std::sync::OnceLock::new();
    OUT.get_or_init(|| translate(SRC, &Options::default()).expect("queue translates"))
}

#[test]
fn queue_translates_and_checks() {
    let out = pipeline();
    out.check_all().unwrap();
    // `length` word-abstracts its result; the pointer plumbing stays.
    assert_eq!(out.wa.function("length").unwrap().ret_ty, Ty::Nat);
    assert_eq!(out.wa.function("dequeue").unwrap().ret_ty, node_ty().ptr_to());
}

#[test]
fn random_operation_sequences_match_the_model() {
    let out = pipeline();
    let tenv = out.wa.tenv.clone();
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..25 {
        // Fresh empty queue at 0x100; node pool above it.
        let mut conc = ir::state::ConcState::default();
        let empty = Value::Struct(
            "queue".into(),
            vec![
                ("head".into(), Value::Ptr(Ptr::new(0, node_ty()))),
                ("tail".into(), Value::Ptr(Ptr::new(0, node_ty()))),
                ("len".into(), Value::u32(0)),
            ],
        );
        conc.mem.alloc(0x100, &empty, &tenv).unwrap();
        let n_nodes = rng.gen_range(1..10u64);
        let mut pool: Vec<u64> = Vec::new();
        for k in 0..n_nodes {
            let addr = 0x1000 + k * 0x10;
            let node = Value::Struct(
                "node".into(),
                vec![
                    ("next".into(), Value::Ptr(Ptr::new(0, node_ty()))),
                    ("data".into(), Value::u32(k as u32)),
                ],
            );
            conc.mem.alloc(addr, &node, &tenv).unwrap();
            pool.push(addr);
        }
        let mut st = State::Abs(heapmodel::lift_state(
            &conc,
            &tenv,
            &[node_ty(), queue_ty()],
        ));
        let q = Value::Ptr(Ptr::new(0x100, queue_ty()));
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut free = pool.clone();
        for step in 0..40 {
            if !free.is_empty() && (model.is_empty() || rng.gen_bool(0.5)) {
                let addr = free.remove(rng.gen_range(0..free.len()));
                let n = Value::Ptr(Ptr::new(addr, node_ty()));
                let (r, st2) = monadic::exec_fn(
                    &out.wa,
                    "enqueue",
                    &[q.clone(), n],
                    st,
                    1_000_000,
                )
                .unwrap_or_else(|e| panic!("round {round} step {step}: {e}"));
                assert!(matches!(r, MonadResult::Normal(Value::Unit)));
                st = st2;
                model.push_back(addr);
            } else {
                let (r, st2) =
                    monadic::exec_fn(&out.wa, "dequeue", std::slice::from_ref(&q), st, 1_000_000)
                        .unwrap_or_else(|e| panic!("round {round} step {step}: {e}"));
                let MonadResult::Normal(Value::Ptr(p)) = r else {
                    panic!("dequeue returned {r:?}");
                };
                let expect = model.pop_front().unwrap_or(0);
                assert_eq!(p.addr, expect, "round {round} step {step}");
                st = st2;
                if expect != 0 {
                    free.push(expect);
                }
            }
            // The stored length always matches the model.
            let (r, st2) =
                monadic::exec_fn(&out.wa, "length", std::slice::from_ref(&q), st, 1_000_000).unwrap();
            assert_eq!(
                r,
                MonadResult::Normal(Value::nat(model.len() as u64)),
                "round {round} step {step}"
            );
            st = st2;
        }
    }
}

#[test]
fn enqueue_to_invalid_queue_fails_guards() {
    let out = pipeline();
    let tenv = out.wa.tenv.clone();
    // No queue object allocated: the very first q->head read must fail.
    let conc = ir::state::ConcState::default();
    let st = State::Abs(heapmodel::lift_state(&conc, &tenv, &[node_ty(), queue_ty()]));
    let q = Value::Ptr(Ptr::new(0x100, queue_ty()));
    let n = Value::Ptr(Ptr::new(0x1000, node_ty()));
    let r = monadic::exec_fn(&out.wa, "enqueue", &[q, n], st, 1_000_000);
    assert!(
        matches!(r, Err(monadic::MonadFault::Failure(_))),
        "unallocated queue must fail validity: {r:?}"
    );
}

#[test]
fn queue_functions_refine_the_c_level() {
    // Differential check of every adjacent layer pair (Simpl, L1, L2, HL,
    // WA) on random states, as for the paper's case studies.
    let out = pipeline();
    for f in ["enqueue", "dequeue", "length"] {
        let decided = audit::check_layers(out, f, &[node_ty(), queue_ty()], 120, 99)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(decided > 20, "{f}: only {decided} conclusive trials");
    }
}
