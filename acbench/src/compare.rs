//! `--compare`: sets of runs against each other, or one set against the
//! bounds of `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it prints each set's median
//! and quartiles, the run-to-run spread (interquartile distance over the
//! median), and — with two sets — the change of the median and a verdict:
//!
//! * `ok`: within the bound;
//! * `REGRESSED` / `improved`: beyond the bound, in the metric's worse or
//!   better direction;
//! * `unresolved`: a set's spread is wider than the bound, so the change
//!   cannot be told from noise — unless every run of the second set reads
//!   better than every run of the first.
//!
//! It also checks the deterministic counts: every run of a workload must
//! record the same value for each count (seeds may differ).

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_spec(path: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced, non-smoke run records of a results file, by workload.
fn read_runs(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let r = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if r.get("trace").and_then(Json::as_f64) != Some(0.0)
            || r.get("smoke") == Some(&Json::Bool(true))
        {
            continue;
        }
        let w = r
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        by.entry(w).or_default().push(r);
    }
    Ok(by)
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn summary(xs: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(xs);
    let (q1, q3) = quartiles(xs).unwrap_or((med, med));
    let spread = if med != 0.0 {
        (q3 - q1) / med.abs()
    } else {
        0.0
    };
    (med, q1, q3, spread)
}

/// Prints the comparison; returns the exit code (1 when anything
/// regressed, is unresolved, or a count is not deterministic).
pub fn compare(spec_path: &str, a_path: &str, b_path: Option<&str>) -> i32 {
    let loaded = (|| {
        let spec = read_spec(spec_path)?;
        let a = read_runs(a_path)?;
        let b = b_path.map(read_runs).transpose()?;
        Ok::<_, String>((spec, a, b))
    })();
    let (spec, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("acbench --compare: {e}");
            return 2;
        }
    };
    let mut bad = 0;
    for w in WORKLOADS {
        let ra = a.get(w).map_or(&[][..], Vec::as_slice);
        let rb = b.as_ref().map(|b| b.get(w).map_or(&[][..], Vec::as_slice));
        if ra.is_empty() && rb.is_none_or(<[Json]>::is_empty) {
            continue;
        }
        match rb {
            Some(rb) => println!("{w}: A {} run(s), B {} run(s)", ra.len(), rb.len()),
            None => println!("{w}: {} run(s)", ra.len()),
        }
        for m in &spec {
            let xa = values(ra, &m.name);
            let (ma, q1a, q3a, sa) = summary(&xa);
            let mut line = format!(
                "  {:<12} A {ma:>11.4} [{q1a:.4}, {q3a:.4}] spread {:>5.1}%",
                m.name,
                100.0 * sa
            );
            // The set-up time's spread is not bounded, only its median.
            let spread_ok = |s: f64| s <= m.bound || m.name == "setup_s";
            let verdict = if let Some(rb) = rb {
                let xb = values(rb, &m.name);
                let (mb, q1b, q3b, sb) = summary(&xb);
                let worse = |x: f64, y: f64| if m.lower_is_better { y > x } else { y < x };
                let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
                let change = if m.lower_is_better { delta } else { -delta };
                line += &format!(
                    " | B {mb:>11.4} [{q1b:.4}, {q3b:.4}] spread {:>5.1}% | {:+6.1}% (bound {:.0}%)",
                    100.0 * sb,
                    100.0 * delta,
                    100.0 * m.bound
                );
                let all_better =
                    !xa.is_empty() && xb.iter().all(|y| xa.iter().all(|x| worse(*y, *x)));
                if xa.is_empty() || xb.is_empty() {
                    "missing"
                } else if !(all_better || (spread_ok(sa) && spread_ok(sb))) {
                    "unresolved"
                } else if change > m.bound {
                    "REGRESSED"
                } else if change < -m.bound {
                    "improved"
                } else {
                    "ok"
                }
            } else {
                line += &format!(" (bound {:.0}%)", 100.0 * m.bound);
                if xa.is_empty() {
                    "missing"
                } else if !spread_ok(sa) {
                    "SPREAD"
                } else if m.name != "setup_s" && sa > m.bound / 3.0 {
                    "ok (spread above a third of the bound)"
                } else {
                    "ok"
                }
            };
            if !verdict.starts_with("ok") && verdict != "improved" {
                bad += 1;
            }
            println!("{line}  {verdict}");
        }
        let mut counts: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for r in ra.iter().chain(rb.unwrap_or(&[])) {
            for (k, v) in r.get("counts").map(Json::as_obj).unwrap_or_default() {
                let vs = counts.entry(k.clone()).or_default();
                let v = v.as_str().unwrap_or("").to_owned();
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        for (k, vs) in &counts {
            if vs.len() == 1 {
                println!("  count {k:<18} {} (every run)", vs[0]);
            } else {
                bad += 1;
                println!("  count {k:<18} NOT DETERMINISTIC: {}", vs.join(" / "));
            }
        }
        let fails: f64 = ra
            .iter()
            .chain(rb.unwrap_or(&[]))
            .filter_map(|r| r.get("failed")?.as_f64())
            .sum();
        if fails > 0.0 {
            bad += 1;
            println!("  {fails} failed operation(s)");
        }
    }
    i32::from(bad > 0)
}
