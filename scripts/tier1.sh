#!/usr/bin/env bash
# Tier-1 gate: what every PR must keep green (see ROADMAP.md).
#
#   scripts/tier1.sh          # build + full test suite + audit smoke
#   scripts/tier1.sh --lint   # additionally clippy (-D warnings) the
#                             # crates this PR series touches
#   scripts/tier1.sh --quick  # additionally smoke the Table 5 bench on
#                             # the Schorr-Waite + eChronos rows
#                             # (regenerates dedup/replay-cache stats,
#                             # fails on any panic/assertion)
#   scripts/tier1.sh --audit  # run the full soundness audit instead of
#                             # the smoke: ≥200-program differential
#                             # campaign + large mutation budget
#                             # (prints the kill matrix; ~30s) + the
#                             # 100-program discharge-vs-solver
#                             # differential (ISSUE 8)
set -euo pipefail
cd "$(dirname "$0")/.."

# One executor (DESIGN.md §6e): every thread is spawned by `ir::sched`,
# so every pool width comes from its planner.
if grep -rnE 'thread::scope|thread::spawn|spawn_scoped' crates/*/src src --include='*.rs' \
    | grep -v '^crates/ir/src/sched\.rs:'; then
    echo "tier1: thread spawned outside crates/ir/src/sched.rs" >&2; exit 1
fi

# One stack rule (DESIGN.md §6e): every job and every `with_stack` closure
# runs on a thread `ir::sched` spawned with `BIG_STACK_BYTES` (a pool worker
# or the one thread of an inline run), so no other code sets a stack size.
if grep -rn 'stack_size(' crates/*/src crates/*/examples src tests --include='*.rs' \
    | grep -v '^crates/ir/src/sched\.rs:'; then
    echo "tier1: a thread stack size set outside crates/ir/src/sched.rs" >&2; exit 1
fi

# One codec macro (DESIGN.md §6g): plain struct/enum codecs are
# `ir::codec!` invocations; hand-written `Codec` impls (encodings that are
# not "tag, then fields") live only in the ir and kernel codec modules.
if grep -rnE 'impl(<[^>]*>)? +([A-Za-z_]+::)*Codec +for' crates/*/src src --include='*.rs' \
    | grep -vE '^crates/(ir|kernel)/src/codec\.rs:'; then
    echo "tier1: hand-written Codec impl outside crates/{ir,kernel}/src/codec.rs; use ir::codec!" >&2; exit 1
fi

# One checker (DESIGN.md §6g): rules are validated only in kernel::thm
# (`Thm::admit` and replay), and the one unvalidated constructor,
# `Thm::from_row`, has one caller: the store's node-table reader, the
# `Thm` codec in kernel::codec (certificates admit every row instead).
if grep -rn 'rules::validate(' crates src tests --include='*.rs' \
    | grep -v '^crates/kernel/src/thm\.rs:'; then
    echo "tier1: rules::validate called outside crates/kernel/src/thm.rs" >&2; exit 1
fi
from_row=$(grep -rn 'from_row(' crates src tests --include='*.rs' \
    | grep -v '^crates/kernel/src/thm\.rs:[0-9]*: *pub(crate) fn from_row(' || true)
if [[ $(grep -c . <<< "$from_row") -ne 1 ]] || ! grep -q '^crates/kernel/src/codec\.rs:' <<< "$from_row"; then
    echo "tier1: Thm::from_row must be called only by the store's node-table reader:" >&2
    echo "$from_row" >&2; exit 1
fi

# No hash is evidence (DESIGN.md §6g): replay keys validated nodes by
# identity, not by a digest, and no process inherits another's replay
# state — the store's segment holds artifact records only.
if grep -rn 'digest128' crates/kernel/src --include='*.rs'; then
    echo "tier1: digest128 in crates/kernel/src; the kernel accepts nothing on a hash" >&2; exit 1
fi
if grep -rnE 'ACRSRPL|export_digests|replay[A-Za-z_]*\.preload\(' crates/*/src src --include='*.rs' \
    || grep -rn 'fn preload' crates/kernel/src --include='*.rs'; then
    echo "tier1: persisted replay state; replay validates what its own process has not" >&2; exit 1
fi

# One derivation walk (DESIGN.md §7): replay is planned by one walk and
# counted by it, so the kernel needs no atomics, and the node-table writer
# numbers its rows with the same walk instead of a second loop; no other
# crate walks derivations to write them either.
if grep -rn 'std::sync::atomic' crates/kernel/src --include='*.rs'; then
    echo "tier1: std::sync::atomic in crates/kernel/src; replay is planned, not raced" >&2; exit 1
fi
walks=$(grep -rn 'premises().iter().rev()' crates/*/src src --include='*.rs' || true)
if [[ $(grep -c . <<< "$walks") -gt 1 ]]; then
    echo "tier1: more than one derivation walk in crates/*/src and src:" >&2
    echo "$walks" >&2; exit 1
fi

# One writer per persisted format (DESIGN.md §6c, §6g): node-table rows are
# written only by `kernel::codec::NodeTable` (a `Rule` or `Side` encoded
# anywhere else is a second row writer), and segment records only by
# `autocorres::store::encode_record` (the record magic appears nowhere
# else), so the audit forges through the production writers.
if grep -rnE '([Rr]ule|[Ss]ide)(::[A-Za-z]+|\(\))?\.encode\(' crates src tests --include='*.rs' \
    | grep -v '^crates/kernel/src/codec\.rs:'; then
    echo "tier1: a Rule or Side encoded outside crates/kernel/src/codec.rs; write rows with kernel::codec::NodeTable" >&2; exit 1
fi
if grep -rn 'ACRSART' crates src tests --include='*.rs' \
    | grep -v '^crates/autocorres/src/store\.rs:'; then
    echo "tier1: a store record magic outside crates/autocorres/src/store.rs; use store::{encode_record, decode_record}" >&2; exit 1
fi

# One rule definition (DESIGN.md §2): each rule is one conclusion function,
# applied once by its constructor through `Thm::infer` and recomputed by
# `rules::validate`. Only the certificate reader proposes nodes through
# `Thm::admit` (besides the per-rule table in kernel::rules, which
# proposes broken ones), only the rule constructors call `Thm::infer`, and
# the hand-written second copies of the rules stay deleted.
if grep -rn 'Thm::admit(' crates src tests --include='*.rs' \
    | grep -vE '^crates/kernel/src/(cert|rules/tests)\.rs:'; then
    echo "tier1: Thm::admit called outside crates/kernel/src/cert.rs" >&2; exit 1
fi
if grep -rn 'Thm::infer(' crates src tests --include='*.rs' \
    | grep -v '^crates/kernel/src/rules/'; then
    echo "tier1: Thm::infer called outside crates/kernel/src/rules/" >&2; exit 1
fi
if grep -rnE 'fn +(validate_val|validate_stmt|validate_l1|validate_refines|validate_absint|clone_wstmt)\b' \
    crates/kernel/src --include='*.rs'; then
    echo "tier1: second copy of a kernel rule; a rule is one conclusion function" >&2; exit 1
fi

# One term decomposition (DESIGN.md §2): the kernel's congruence rules and
# every engine split terms with `Expr::children`/`with_children` (ir::expr),
# `Update::exprs`/`with_exprs` (ir::update), `AbsFun::is_identity`
# (kernel::judgment) and `Prog::each_child`/`try_map_children`
# (monadic::prog), which carry `Prog::rewrite`/`visit`, the one
# capture-avoiding substitution (`Prog::subst_var`) and, beside them, the one
# program typing (monadic::typing); typed C statements and expressions are
# walked by `cparser::walk`/`TExpr::walk`. So a second child list, a revived
# private copy, a second walk of typed expressions, a program rebuilt by
# hand in autocorres or a term matched by its `Debug` text fails here.
if grep -rnF 'Expr::Ite(a, b, c) | Expr::ArrUpd(a, b, c) => vec![a, b, c]' crates/*/src src --include='*.rs' \
    | grep -v '^crates/ir/src/expr\.rs:'; then
    echo "tier1: second Expr child list outside crates/ir/src/expr.rs; use Expr::children" >&2; exit 1
fi
if grep -rnE 'fn +(expr_children|kernel_children|update_exprs|update_with_exprs|map_prog|absfun_id_like|subst_free|prog_value_ty|prog_value_ty_in|prog_tuple_tys)\b' \
    crates/*/src src --include='*.rs' | grep -v '^crates/monadic/src/'; then
    echo "tier1: private copy of a shared term decomposition; use the ir/kernel/monadic methods" >&2; exit 1
fi
if grep -rnF 'TExprKind::Cond(' crates/*/src src --include='*.rs' \
    | grep -vE '^(crates/cparser/src/|crates/simpl/src/translate\.rs:)'; then
    echo "tier1: second walk of typed expressions; use cparser::walk or TExpr::walk" >&2; exit 1
fi
if grep -rnE 'Prog::Exec(Concrete|Abstract)' crates/autocorres/src --include='*.rs'; then
    echo "tier1: a program rebuilt by hand in crates/autocorres/src; use the monadic decomposition" >&2; exit 1
fi
if grep -rnF 'format!("Var(' crates/*/src --include='*.rs'; then
    echo "tier1: a term matched by its Debug text; compare terms or use Expr::free_vars" >&2; exit 1
fi

# No audit backdoor (DESIGN.md §6c): the audit mints its mutants through
# the store's node-table reader and plants them in the segment file, so
# no build carries an unvalidated constructor, an audit-only feature or an
# artifact-store hook, and `ExecTested` has one differential tester
# (`autocorres::testing::exec_test_fn`).
kernel_features=$(cargo tree --offline -e features,no-dev -i kernel -p autocorres-repro \
    | grep -oE 'kernel feature "[^"]*"' | sort -u | grep -vE '"(default|persist)"' || true)
if [[ -n "$kernel_features" ]]; then
    echo "tier1: the build enables kernel features besides default and persist:" >&2
    echo "$kernel_features" >&2; exit 1
fi
if grep -rnE 'Thm::forge|fn +forge\b' crates/kernel/src --include='*.rs'; then
    echo "tier1: a forge constructor in crates/kernel/src; a Thm comes from a rule, a certificate or the store" >&2; exit 1
fi
if grep -nE '^ *(forge|audit) *= *\[' Cargo.toml crates/*/Cargo.toml \
    || grep -rnE 'feature *= *"(forge|audit)"' crates/*/src src --include='*.rs'; then
    echo "tier1: an audit-only build feature; the audit uses production's own paths" >&2; exit 1
fi
if grep -rnE 'audit_(keys|get|replace|store)' crates/*/src --include='*.rs'; then
    echo "tier1: an audit hook into the artifact store; poison the segment file instead" >&2; exit 1
fi
if grep -rnE 'fn +(test_adapted_fn|test_fn_refines)\b' crates/*/src --include='*.rs'; then
    echo "tier1: a second ExecTested tester; use autocorres::testing::exec_test_fn" >&2; exit 1
fi

# Shared statements and contexts (DESIGN.md §6a): Simpl statements hold
# their sub-statements as interned handles (`simpl::ISimpl`), and a word
# abstraction context is an interned handle (`kernel::judgment::VarCtx`),
# so an L1 or WA proof node shares them with its premises; a boxed child
# or a plain map alias would be a deep copy per node again.
if grep -rnE 'Box<SimplStmt>|Box::new\(SimplStmt' crates/*/src src --include='*.rs'; then
    echo "tier1: a boxed Simpl sub-statement; children are simpl::ISimpl handles" >&2; exit 1
fi
if grep -rnE 'type +VarCtx *= *([A-Za-z_]+::)*BTreeMap' crates/*/src src --include='*.rs'; then
    echo "tier1: VarCtx is a plain BTreeMap alias; it is an interned kernel::judgment::VarMap" >&2; exit 1
fi

# Simpl inside the phase graph (DESIGN.md §6b): each `l1` job translates
# its own function, so an L1 cache hit skips it, and `Output::simpl` is read
# back from the L1 artifacts; the pipeline never translates the whole
# program (test modules, which start at `#[cfg(test)]`, may).
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /simpl::(translate::)?translate_program/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/autocorres/src/*.rs; then
    echo "tier1: whole-program Simpl translation in crates/autocorres/src; the l1 jobs translate per function" >&2; exit 1
fi

# A closed phase table (DESIGN.md §6b): the pipeline's phases are one enum,
# `autocorres::phase::Phase`, which states each phase's name, dependencies,
# stage, digest and job once; no phase is a trait object, and no `PhaseCx`
# lookup names a phase by a string.
if grep -rnE 'impl +Phase +for|dyn +Phase\b' crates/*/src src --include='*.rs'; then
    echo "tier1: a Phase trait object or impl; the phases are one enum in autocorres::phase" >&2; exit 1
fi
if grep -rnE '\b(artifact|program_ctx|theorems)\("' crates/autocorres/src --include='*.rs'; then
    echo "tier1: a phase named by a string in a PhaseCx lookup; use the Phase enum" >&2; exit 1
fi

# One byte hash (DESIGN.md §6g): FNV-1a and its SplitMix64 finaliser are
# `ir::codec::{fnv1a, splitmix64}`; symbol hashes, derived seeds and
# `digest128_bytes` call them, so the FNV prime appears once.
if grep -rnE '0x0000_0100_0000_01b3|0x100000001b3' crates/*/src crates/*/examples src --include='*.rs' \
    | grep -v '^crates/ir/src/codec\.rs:'; then
    echo "tier1: a second FNV-1a outside crates/ir/src/codec.rs; use ir::codec::fnv1a" >&2; exit 1
fi

cargo build --release
cargo test -q --workspace

# Benchmark smoke: acbench (its own workspace, outside this one) calls the
# crates' public API; build and test it here so an API break fails tier-1
# instead of the benchmark run.
cargo test --offline -q --manifest-path acbench/Cargo.toml

# Incremental smoke: the session store must re-run only the dirty cone and
# stay byte-identical to from-scratch translation (tests/incremental.rs
# asserts both; run it by name so a filtered workspace run can't skip it).
cargo test -q --test incremental

# Counterexample playback smoke: every checked-in counterexample seed must
# still reproduce its recorded verdict through the release binary (the
# same `--playback` path users run; tests/pipeline_fuzz.rs covers the
# debug build).
for seed in tests/corpus/cex-*.seed; do
    ./target/release/autocorres --quiet --playback "$seed" > /dev/null
done

# Scheduler smoke: the quickstart source must print byte-identical WA
# specs at every worker count — including counts that oversubscribe this
# host (the adaptive planner sizes the pool down; the work-stealing
# scheduler must never let scheduling leak into the output bytes).
tmp_c=$(mktemp --suffix=.c)
tmp_out=$(mktemp)
trap 'rm -f "$tmp_c" "$tmp_out"' EXIT
printf 'int max(int a, int b) {\n    if (a < b) {\n        return b;\n    }\n    return a;\n}\n' > "$tmp_c"
golden=$(mktemp)
trap 'rm -f "$tmp_c" "$tmp_out" "$golden"' EXIT
# The CLI prints each function with a trailing blank line; the golden
# snapshot stores the bare pretty-printing.
{ cat tests/golden/quickstart_wa.txt; echo; } > "$golden"
for w in 1 2 4 8; do
    ./target/release/autocorres --quiet --level wa --fn max --workers "$w" "$tmp_c" > "$tmp_out"
    diff -u "$golden" "$tmp_out" \
        || { echo "tier1: scheduler smoke diverged at --workers $w" >&2; exit 1; }
done

# Lint smoke: the release CLI's --lint output on the checked-in demo
# program must match the golden warning set (all four lint kinds, with the
# validated counterexample attached to the definite overflow), and
# --lint=deny must exit nonzero on it.
./target/release/autocorres --quiet --lint tests/golden/lint_demo.c \
    | grep -E '^(warning|    counterexample)' > "$tmp_out"
diff -u tests/golden/lint_demo.txt "$tmp_out" \
    || { echo "tier1: lint smoke diverged from tests/golden/lint_demo.txt" >&2; exit 1; }
if ./target/release/autocorres --quiet --lint=deny tests/golden/lint_demo.c > /dev/null 2>&1; then
    echo "tier1: --lint=deny did not fail on the lint demo" >&2; exit 1
fi

# Warm-start smoke (DESIGN.md §6g): translate the quickstart with a cache
# directory, then re-run from a *fresh process* reusing the directory —
# the warm output must be byte-identical and recompute nothing.
# The store is one segment file per cache directory, with no per-file
# layout beside it, and a warm start that computes and checks nothing new
# leaves the segment's size unchanged.
cache_dir=$(mktemp -d)
trap 'rm -f "$tmp_c" "$tmp_out" "$golden"; rm -rf "$cache_dir"' EXIT
./target/release/autocorres --quiet --level wa --fn max --check --cache-dir "$cache_dir" "$tmp_c" > "$tmp_out"
diff -u "$golden" "$tmp_out" \
    || { echo "tier1: cold cache-dir run diverged" >&2; exit 1; }
segment_bytes=$(stat -c %s "$cache_dir/segment")
./target/release/autocorres --quiet --level wa --fn max --cache-dir "$cache_dir" "$tmp_c" > "$tmp_out"
diff -u "$golden" "$tmp_out" \
    || { echo "tier1: warm-start run diverged" >&2; exit 1; }
./target/release/autocorres --quiet --metrics --check --cache-dir "$cache_dir" "$tmp_c" \
    | grep -q 'misses=0 rejected=0 dirty_fns=0' \
    || { echo "tier1: warm start recomputed work" >&2; exit 1; }
if [[ -e "$cache_dir/artifacts" ]]; then
    echo "tier1: the cache directory has an artifacts/ directory" >&2; exit 1
fi
[[ $(stat -c %s "$cache_dir/segment") == "$segment_bytes" ]] \
    || { echo "tier1: a warm start wrote to the store's segment" >&2; exit 1; }

# Shifted warm start (DESIGN.md §6b): function digests are position-free,
# so the lint demo with a comment line prepended warm-starts in a fresh
# process from a cache written for the unshifted file, recomputes nothing,
# and prints the lints (spans included) of a run without a cache.
lint_cache="$cache_dir/lint"
shifted_c="$cache_dir/lint_demo_shifted.c"
{ echo '/* one line above every function */'; cat tests/golden/lint_demo.c; } > "$shifted_c"
./target/release/autocorres --quiet --lint --cache-dir "$lint_cache" tests/golden/lint_demo.c > /dev/null
./target/release/autocorres --quiet --metrics --cache-dir "$lint_cache" "$shifted_c" \
    | grep -q 'rejected=0 dirty_fns=0' \
    || { echo "tier1: a shifted file recomputed work" >&2; exit 1; }
./target/release/autocorres --quiet --lint "$shifted_c" > "$tmp_out"
grep -q '^warning' "$tmp_out" \
    || { echo "tier1: the shifted lint demo printed no lints" >&2; exit 1; }
./target/release/autocorres --quiet --lint --cache-dir "$lint_cache" "$shifted_c" \
    | diff -u "$tmp_out" - \
    || { echo "tier1: shifted warm-start lints diverged from a run without a cache" >&2; exit 1; }

# Certificate smoke: the exported proof certificate must replay through
# the independent certcheck binary, match the golden cert-v3 snapshot,
# and any mutation must be rejected.
cert="$cache_dir/quickstart.cert"
./target/release/autocorres --quiet --emit-cert "$cert" "$tmp_c" > /dev/null
cmp tests/golden/quickstart.cert "$cert" \
    || { echo "tier1: certificate drifted from tests/golden/quickstart.cert" >&2; exit 1; }
./target/release/certcheck --quiet "$cert" \
    || { echo "tier1: certcheck rejected a valid certificate" >&2; exit 1; }
head -c -1 "$cert" > "$cert.bad"; printf '\xff' >> "$cert.bad"
if ./target/release/certcheck --quiet "$cert.bad" 2> /dev/null; then
    echo "tier1: certcheck accepted a mutated certificate" >&2; exit 1
fi

# Corpus smoke: the checked-in real-world-shaped corpus (arrays, switch
# with fallthrough, compound assignment, qualifiers) must sweep end to
# end — every file translated, every theorem replayed, zero failures.
./target/release/autocorres --corpus tests/corpus/c > "$tmp_out" \
    || { echo "tier1: corpus sweep failed" >&2; cat "$tmp_out" >&2; exit 1; }
grep -q ' 0 failed' "$tmp_out" \
    || { echo "tier1: corpus sweep reported failures" >&2; cat "$tmp_out" >&2; exit 1; }

# Soundness audit (crates/audit): fault-injection against the kernel
# checker plus the cross-layer differential oracle. The smoke runs by
# default (small mutation budget, a few fuzz seeds, two worker counts);
# `--audit` runs the full acceptance campaign from ISSUE 5 / DESIGN.md §6c.
if [[ "${1:-}" == "--audit" ]]; then
    cargo run --release -q -p audit -- --full
else
    cargo run --release -q -p audit
fi

if [[ "${1:-}" == "--quick" ]]; then
    scripts/bench.sh --quick
fi

if [[ "${1:-}" == "--lint" ]]; then
    # Clippy on the crates touched by the parallel-pipeline work; extend
    # the list as later PRs touch more crates.
    cargo clippy -q --release \
        -p autocorres -p kernel -p monadic -p wordabs -p heapabs \
        -p codegen -p bench -p ir -p solver -p vcg -p simpl \
        -p autocorres-repro -p proptest -p audit -p cparser \
        -p absint -p counterexample \
        --all-targets -- -D warnings
fi

echo "tier1: OK"
