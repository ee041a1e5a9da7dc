//! Whole-system fuzzing: random synthetic C programs through the complete
//! pipeline, with every theorem replayed and every function checked for
//! end-to-end refinement between the parser level and the final output.
//!
//! The fixed seeds live in a checked-in corpus (`tests/corpus/*.seed`) so a
//! failing configuration can be named, re-run alone, and new regressions
//! added as data rather than code. On failure the generated C source is
//! printed so the program can be reproduced without re-running the
//! generator.

use std::path::{Path, PathBuf};

use autocorres::{translate, Options};

/// Every corpus entry, replayed by the named tests below.
/// `corpus_dir_matches_replayed_names` fails if this list and the
/// `tests/corpus` directory drift apart.
///
/// Two kinds of entry share the directory: `seed-*` files name a fuzz
/// configuration (generator seed + function count) to re-run through the
/// whole pipeline, and `cex-*` files are counterexample seeds
/// (`format = cex-v1`) replayed through concrete playback — each one a
/// verification failure checked in as a regression test.
const CORPUS: &[&str] = &[
    "cex-001", "cex-002", "cex-003", "cex-004", "cex-005", "cex-006", "cex-007", "cex-008",
    "cex-009", "seed-001", "seed-002", "seed-003", "seed-004", "seed-005",
];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// A parsed `tests/corpus/<name>.seed` entry.
struct SeedEntry {
    seed: u64,
    functions: usize,
}

fn load_entry(name: &str) -> SeedEntry {
    let path = corpus_dir().join(format!("{name}.seed"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus entry {} unreadable: {e}", path.display()));
    let mut seed = None;
    let mut functions = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            panic!("{name}.seed: malformed line `{line}`");
        };
        match k.trim() {
            "seed" => seed = Some(v.trim().parse().expect("seed is a u64")),
            "functions" => functions = Some(v.trim().parse().expect("functions is a usize")),
            other => panic!("{name}.seed: unknown key `{other}`"),
        }
    }
    SeedEntry {
        seed: seed.unwrap_or_else(|| panic!("{name}.seed: missing `seed`")),
        functions: functions.unwrap_or_else(|| panic!("{name}.seed: missing `functions`")),
    }
}

/// Replays a counterexample seed (`format = cex-v1`): re-translates the
/// embedded C source, rebuilds the recorded input state, re-runs the
/// function, and re-checks that the input still falsifies the spec with
/// the same observed outcome. On mismatch the concrete input state is
/// printed so the failure can be reproduced by hand.
fn replay_cex(name: &str) {
    let path = corpus_dir().join(format!("{name}.seed"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus entry {} unreadable: {e}", path.display()));
    let pb = counterexample::playback(&text)
        .unwrap_or_else(|e| panic!("corpus {name}: playback failed: {e}"));
    assert!(
        pb.verdict_matches,
        "corpus {name}: recorded input no longer falsifies the spec\n{}",
        pb.seed.describe_input()
    );
    assert!(
        pb.observed_matches,
        "corpus {name}: observed outcome drifted (recorded {})\n{}",
        pb.seed.observed.render(),
        pb.seed.describe_input()
    );
}

/// Replays one corpus entry by name. Panics with the generated C source on
/// any failure so the offending program is visible in the test log.
fn replay(name: &str) {
    let entry = load_entry(name);
    let seed = entry.seed;
    let profile = codegen::Profile {
        name: "fuzz",
        loc: entry.functions * 10,
        functions: entry.functions,
    };
    let src = codegen::generate(&profile, seed);
    let opts = Options {
        l2_trials: 10,
        seed,
        ..Options::default()
    };
    let out = translate(&src, &opts)
        .unwrap_or_else(|e| panic!("corpus {name} (seed {seed}): pipeline failed: {e}\n{src}"));
    out.check_all()
        .unwrap_or_else(|e| panic!("corpus {name} (seed {seed}): checker rejected: {e}\n{src}"));

    // Heap types come from the generated program itself (its struct
    // definitions and pointer parameters), not a hardcoded list — the
    // generator's type vocabulary can grow without this test silently
    // fuzzing states that alias no heap cell.
    let heap_types = autocorres::testing::heap_types_of(&out.simpl.tenv, &out.l1);
    assert!(
        !heap_types.is_empty(),
        "corpus {name}: no heap types found in generated program\n{src}"
    );
    let names: Vec<String> = out.wa.fns.keys().cloned().collect();
    let mut total_decided = 0;
    for fname in &names {
        total_decided += audit::check_layers(&out, fname, &heap_types, 12, seed ^ 0x55)
            .unwrap_or_else(|e| panic!("corpus {name} (seed {seed}): {e}\n{src}"));
    }
    assert!(
        total_decided > 0,
        "corpus {name} (seed {seed}): no trial decidable across {} functions\n{src}",
        names.len()
    );
}

#[test]
fn corpus_dir_matches_replayed_names() {
    let mut on_disk: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seed"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut named: Vec<String> = CORPUS.iter().map(|s| (*s).to_owned()).collect();
    named.sort();
    assert_eq!(
        on_disk, named,
        "tests/corpus/*.seed and the CORPUS list have drifted"
    );
}

#[test]
fn corpus_seed_001() {
    replay("seed-001");
}

#[test]
fn corpus_cex_001() {
    replay_cex("cex-001");
}

#[test]
fn corpus_cex_002() {
    replay_cex("cex-002");
}

#[test]
fn corpus_cex_003() {
    replay_cex("cex-003");
}

#[test]
fn corpus_cex_004() {
    replay_cex("cex-004");
}

#[test]
fn corpus_cex_005() {
    replay_cex("cex-005");
}

#[test]
fn corpus_cex_006() {
    replay_cex("cex-006");
}

#[test]
fn corpus_cex_007() {
    replay_cex("cex-007");
}

#[test]
fn corpus_cex_008() {
    replay_cex("cex-008");
}

#[test]
fn corpus_cex_009() {
    // Array out-of-bounds read (ISSUE 9); regenerated by
    // tests/array_oob_cex.rs.
    replay_cex("cex-009");
}

#[test]
fn corpus_seed_002() {
    replay("seed-002");
}

#[test]
fn corpus_seed_003() {
    replay("seed-003");
}

#[test]
fn corpus_seed_004() {
    replay("seed-004");
}

#[test]
fn corpus_seed_005() {
    replay("seed-005");
}
