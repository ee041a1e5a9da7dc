//! Pipeline observability: per-phase wall times, theorem and proof-tree
//! counts, and worker-pool utilization.
//!
//! [`PipelineStats`] is threaded through [`crate::Output`] so callers (the
//! quickstart example, the Table 5 bench) can report where translation time
//! goes without instrumenting the pipeline themselves. Timings vary run to
//! run; everything else (function/theorem/proof-node counts) is
//! deterministic and is compared by the determinism test suite.
//!
//! Worker counts are reported twice: `requested` (what the caller asked
//! for) and `workers` (what [`ir::sched::plan_workers`] actually
//! granted). Utilization is busy time over `wall × effective workers`,
//! deliberately *unclamped* — a ratio above `1.0` or a big
//! requested/effective gap is a scheduling pathology that must stay
//! visible, not be rounded away.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use ir::sched::PoolStats;

/// One pipeline phase's measurements, folded over its function nodes.
#[derive(Clone, Debug, Default)]
pub struct PhaseStat {
    /// Phase name, as in [`crate::PHASES`] (`l1`, `l2`, `l2thm`, `hl`,
    /// `wa`, `adapt`, `absint`).
    pub name: &'static str,
    /// Wall-clock time of the phase: from its first job's start to its
    /// last job's end.
    pub wall: Duration,
    /// Sum of per-worker busy time.
    pub busy: Duration,
    /// Workers the phase actually ran with (after the adaptive policy).
    pub workers: usize,
    /// Workers the caller asked for.
    pub requested: usize,
    /// Functions processed.
    pub fns: usize,
    /// Theorems produced.
    pub thms: usize,
    /// Kernel rule applications across the phase's proof trees.
    pub proof_nodes: usize,
    /// Per-function jobs answered from the session artifact store instead
    /// of being recomputed (always `0` for one-shot `translate` runs).
    pub cached: usize,
}

impl PhaseStat {
    /// Raw busy time over capacity, as [`PoolStats::utilization`].
    #[must_use]
    pub fn utilization(&self) -> f64 {
        utilization(self.busy, self.wall, self.workers)
    }
}

/// [`PoolStats::utilization`] of a pool that was `busy` for `wall` on
/// `workers` workers — the one definition every stats row reports.
fn utilization(busy: Duration, wall: Duration, workers: usize) -> f64 {
    PoolStats {
        busy,
        wall,
        workers,
        ..PoolStats::default()
    }
    .utilization()
}

/// Observability of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Worker count the phase graph actually ran with (≥ 1), after the
    /// adaptive sizing policy. This is also the width later
    /// [`crate::Output::check_all`] replays with.
    pub workers: usize,
    /// Worker count the caller configured ([`crate::Options::workers`],
    /// normalized to ≥ 1) — may exceed `workers` when the policy shrank
    /// the pool (single-CPU host, tiny workload).
    pub requested_workers: usize,
    /// Per-phase measurements, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Wall-clock time of the whole translation.
    pub total_wall: Duration,
    /// Theorems per function, across all phases.
    pub fn_theorems: BTreeMap<String, usize>,
    /// Proof-tree nodes (kernel rule applications) per function.
    pub fn_proof_nodes: BTreeMap<String, usize>,
    /// Functions with at least one recomputed (non-cached) phase job — the
    /// dirty cone of an incremental [`crate::Session`] run. Equal to the
    /// function count for one-shot runs with a fresh store.
    pub dirty_fns: usize,
    /// Phase jobs answered from the session artifact store, summed over
    /// phases. Excluded from [`PipelineStats::deterministic_summary`]:
    /// cache occupancy varies between runs, output bytes must not.
    pub cached_nodes: usize,
    /// Phase jobs the session artifact store had no entry for, so they
    /// ran, summed over phases. Excluded from the deterministic summary
    /// like `cached_nodes`.
    pub computed_nodes: usize,
    /// Guards the abstract-interpretation phase saw on reachable paths
    /// (0 with `--no-absint`).
    pub guards_total: usize,
    /// Guards proved true statically — each carries an `absint_discharge`
    /// theorem and needs no VCG/solver work.
    pub guards_discharged: usize,
    /// Guards proved *false* — definite faults, surfaced as lints.
    pub guards_refuted: usize,
}

impl PipelineStats {
    /// Total theorem count.
    #[must_use]
    pub fn total_theorems(&self) -> usize {
        self.phases.iter().map(|p| p.thms).sum()
    }

    /// Total proof-tree node count.
    #[must_use]
    pub fn total_proof_nodes(&self) -> usize {
        self.phases.iter().map(|p| p.proof_nodes).sum()
    }

    /// Overall worker utilization across the timed phases: summed busy
    /// time over summed phase wall time × `workers` (raw, unclamped — see
    /// [`PoolStats::utilization`]).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let wall = self.phases.iter().map(|p| p.wall).sum();
        let busy = self.phases.iter().map(|p| p.busy).sum();
        utilization(busy, wall, self.workers)
    }

    /// The deterministic subset of the stats (counts, no timings, no
    /// scheduling artifacts like worker counts), for byte-comparison
    /// between sequential and parallel runs.
    #[must_use]
    pub fn deterministic_summary(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for p in &self.phases {
            let _ = writeln!(
                s,
                "{}: fns={} thms={} proof_nodes={}",
                p.name, p.fns, p.thms, p.proof_nodes
            );
        }
        for (name, n) in &self.fn_theorems {
            let nodes = self.fn_proof_nodes.get(name).copied().unwrap_or(0);
            let _ = writeln!(s, "fn {name}: thms={n} proof_nodes={nodes}");
        }
        s
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: {} workers ({} requested), {:.1?} wall, {} theorems, {} proof nodes, \
             {:.0}% utilization",
            self.workers,
            self.requested_workers,
            self.total_wall,
            self.total_theorems(),
            self.total_proof_nodes(),
            self.utilization() * 100.0,
        )?;
        writeln!(
            f,
            "  {:<8} {:>10} {:>6} {:>6} {:>12} {:>6}",
            "phase", "wall", "fns", "thms", "proof nodes", "util"
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<8} {:>10.1?} {:>6} {:>6} {:>12} {:>5.0}%",
                p.name,
                p.wall,
                p.fns,
                p.thms,
                p.proof_nodes,
                p.utilization() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_raw_busy_over_capacity() {
        let p = PhaseStat {
            name: "l1",
            wall: Duration::from_millis(10),
            busy: Duration::from_millis(35),
            workers: 4,
            requested: 4,
            fns: 3,
            thms: 3,
            proof_nodes: 30,
            ..PhaseStat::default()
        };
        assert!(p.utilization() <= 1.0 && p.utilization() > 0.8);
        let empty = PhaseStat::default();
        assert_eq!(empty.utilization(), 0.0);

        // The pathology that motivated the unclamped report: more busy
        // time than the claimed worker count admits must *show*, not be
        // clamped to a clean-looking 100%.
        let lying = PhaseStat {
            name: "l1",
            wall: Duration::from_millis(10),
            busy: Duration::from_millis(40),
            workers: 1,
            requested: 4,
            ..PhaseStat::default()
        };
        assert!(
            lying.utilization() > 3.9,
            "oversubscription must be visible: {}",
            lying.utilization()
        );
    }

    #[test]
    fn summary_is_deterministic_text() {
        let mut s = PipelineStats {
            workers: 2,
            requested_workers: 4,
            ..PipelineStats::default()
        };
        s.phases.push(PhaseStat {
            name: "l1",
            fns: 2,
            thms: 2,
            proof_nodes: 17,
            ..PhaseStat::default()
        });
        s.fn_theorems.insert("f".into(), 4);
        s.fn_proof_nodes.insert("f".into(), 21);
        let a = s.deterministic_summary();
        assert!(a.contains("l1: fns=2 thms=2 proof_nodes=17"));
        assert!(a.contains("fn f: thms=4 proof_nodes=21"));
        assert!(
            !a.contains("workers"),
            "scheduling artifacts vary with worker count and must stay out \
             of the byte-compared summary"
        );
        assert_eq!(a, s.deterministic_summary());
    }
}
