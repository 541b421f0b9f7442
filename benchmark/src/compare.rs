//! `compare`: judge a change against its parent from two sets of result
//! files, one row per (workload, end-to-end metric).
//!
//! The rules are those of a small, noisy machine:
//! - a metric whose run-to-run spread (quartile distance over median, on
//!   either side) exceeds its bound is *unresolved* — unless every change
//!   run reads better than every parent run (*improved*), or every change
//!   run reads worse than every parent run and the median is worse by more
//!   than the bound (*regressed*);
//! - otherwise it *regressed* when the change's median is worse than the
//!   parent's by more than the bound;
//! - it *improved* only when the change wins at least nine tenths of the
//!   pairs (run i of each side; ties count for neither) and the medians
//!   differ by more than the parent's own quartile distance;
//! - anything else is *unchanged*.
//!
//! The comparison fails on any regression, and on a workload whose
//! change runs fail a larger share of their checks than the parent's. An
//! unresolved row does not fail it, but the report ends with a warning
//! naming how many rows could not be judged.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{num_of, parse, Json};
use crate::stats::{median, quartiles};

/// An end-to-end metric's direction and regression bound, from
/// `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Read the `end_to_end` table of a `BENCHMARK.json`.
pub fn load_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text)?;
    let rows = doc.arr_of("end_to_end");
    if rows.is_empty() {
        return Err("BENCHMARK.json has no end_to_end list".into());
    }
    rows.iter()
        .map(|r| {
            let name = r.str_of("name");
            if name.is_empty() {
                return Err("end_to_end entry without \"name\"".into());
            }
            Ok(Bound {
                name: name.to_string(),
                unit: r.str_of("unit").to_string(),
                lower_is_better: match r.str_of("better") {
                    "lower" => true,
                    "higher" => false,
                    other => {
                        return Err(format!("\"better\" must be lower or higher, not {other:?}"))
                    }
                },
                bound: num_of(r, "bound").ok_or("end_to_end entry without \"bound\"")?,
            })
        })
        .collect()
}

/// One result file, reduced to what the comparison needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Read a result file written by a benchmark run.
pub fn load_sample(text: &str) -> Result<Sample, String> {
    let doc = parse(text)?;
    let num = |k: &str| num_of(&doc, k).ok_or(format!("result without \"{k}\""));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result without \"metrics\"".into());
    };
    let workload = doc.str_of("workload");
    if workload.is_empty() {
        return Err("result without \"workload\"".into());
    }
    Ok(Sample {
        workload: workload.to_string(),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), num_of(v, "value")?)))
            .collect(),
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(xs: &[f64]) -> Side {
        let (q1, q3) = quartiles(xs);
        Side {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
        }
    }

    fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub parent: Side,
    pub change: Side,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative: better).
    pub worse_by: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// The judgement of one change.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose change runs failed a larger share of checks.
    pub more_errors: Vec<String>,
}

impl Comparison {
    pub fn failed(&self) -> bool {
        !self.more_errors.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<8} {:<12} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict\n",
            "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "worse", "wins"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:<12} {:>12.4} [{:>11.4}, {:>11.4}] {:>12.4} [{:>11.4}, {:>11.4}] {:>7.2}% {:>3}/{:<3} {}\n",
                r.workload,
                r.metric,
                r.parent.median,
                r.parent.q1,
                r.parent.q3,
                r.change.median,
                r.change.q1,
                r.change.q3,
                100.0 * r.worse_by,
                r.wins,
                r.pairs,
                r.verdict
            ));
        }
        for w in &self.more_errors {
            out.push_str(&format!("{w}: the change fails a larger share of checks\n"));
        }
        let unresolved = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count();
        if unresolved > 0 {
            out.push_str(&format!(
                "warning: {unresolved} row(s) unresolved: the spread exceeds the bound, \
                 so a change within it cannot be told from noise; run more pairs\n"
            ));
        }
        out
    }
}

fn judge(bound: &Bound, p: &[f64], c: &[f64]) -> (Side, Side, f64, usize, usize, Verdict) {
    let (ps, cs) = (Side::of(p), Side::of(c));
    // Positive when the change is better.
    let gain = |parent: f64, change: f64| {
        if bound.lower_is_better {
            parent - change
        } else {
            change - parent
        }
    };
    let worse_by = if ps.median == 0.0 {
        0.0
    } else {
        -gain(ps.median, cs.median) / ps.median.abs()
    };
    let pairs: Vec<f64> = p.iter().zip(c).map(|(&a, &b)| gain(a, b)).collect();
    let wins = pairs.iter().filter(|&&g| g > 0.0).count();
    let all_better = p.iter().all(|&a| c.iter().all(|&b| gain(a, b) > 0.0));
    let all_worse = p.iter().all(|&a| c.iter().all(|&b| gain(a, b) < 0.0));
    let verdict = if ps.rel_spread().max(cs.rel_spread()) > bound.bound {
        if all_better {
            Verdict::Improved
        } else if all_worse && worse_by > bound.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && gain(ps.median, cs.median) > ps.q3 - ps.q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (ps, cs, worse_by, wins, pairs.len(), verdict)
}

/// Compare every workload present on both sides, metric by metric.
pub fn compare(bounds: &[Bound], parent: &[Sample], change: &[Sample]) -> Comparison {
    let mut workloads: Vec<&str> = parent.iter().map(|s| s.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    workloads.retain(|w| change.iter().any(|s| s.workload == *w));
    let mut rows = Vec::new();
    let mut more_errors = Vec::new();
    for w in workloads {
        let side = |set: &[Sample]| -> Vec<Sample> {
            set.iter().filter(|s| s.workload == w).cloned().collect()
        };
        let (ps, cs) = (side(parent), side(change));
        let rate = |set: &[Sample]| {
            let (f, a) = set
                .iter()
                .fold((0, 0), |(f, a), s| (f + s.failed, a + s.attempted));
            f as f64 / a.max(1) as f64
        };
        if rate(&cs) > rate(&ps) {
            more_errors.push(w.to_string());
        }
        for b in bounds {
            let values = |set: &[Sample]| -> Vec<f64> {
                set.iter()
                    .filter_map(|s| s.metrics.get(&b.name).copied())
                    .collect()
            };
            let (p, c) = (values(&ps), values(&cs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (parent, change, worse_by, wins, pairs, verdict) = judge(b, &p, &c);
            rows.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                parent,
                change,
                worse_by,
                wins,
                pairs,
                verdict,
            });
        }
    }
    Comparison { rows, more_errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, lower: bool, b: f64) -> Bound {
        Bound {
            name: name.into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    fn samples(workload: &str, metric: &str, values: &[f64], failed: u64) -> Vec<Sample> {
        values
            .iter()
            .map(|&v| Sample {
                workload: workload.into(),
                attempted: 100,
                failed,
                metrics: BTreeMap::from([(metric.to_string(), v)]),
            })
            .collect()
    }

    fn verdict(b: &Bound, p: &[f64], c: &[f64]) -> Verdict {
        let cmp = compare(
            std::slice::from_ref(b),
            &samples("w", &b.name, p, 0),
            &samples("w", &b.name, c, 0),
        );
        cmp.rows[0].verdict
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn same_distribution_is_unchanged() {
        let b = bound("round_ms", true, 0.10);
        let change: Vec<f64> = PARENT.iter().rev().copied().collect();
        assert_eq!(verdict(&b, &PARENT, &change), Verdict::Unchanged);
    }

    #[test]
    fn worsening_beyond_the_bound_regresses_and_fails() {
        let b = bound("round_ms", true, 0.10);
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        let cmp = compare(
            std::slice::from_ref(&b),
            &samples("w", "round_ms", &PARENT, 0),
            &samples("w", "round_ms", &change, 0),
        );
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
        assert!((cmp.rows[0].worse_by - 0.2).abs() < 0.01);
        assert!(cmp.failed());
        // Within the bound: not a regression.
        let slight: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&b, &PARENT, &slight), Verdict::Unchanged);
    }

    #[test]
    fn nine_of_ten_pair_wins_and_a_clear_median_gap_improve() {
        let b = bound("round_ms", true, 0.10);
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&b, &PARENT, &change), Verdict::Improved);
        // Two narrowly lost pairs out of ten: no longer a claimable gain.
        change[0] = 101.5;
        change[1] = 101.5;
        assert_eq!(verdict(&b, &PARENT, &change), Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let b = bound("ops_per_s", false, 0.10);
        let up: Vec<f64> = PARENT.iter().map(|v| v * 1.3).collect();
        let down: Vec<f64> = PARENT.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(&b, &PARENT, &up), Verdict::Improved);
        assert_eq!(verdict(&b, &PARENT, &down), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let b = bound("round_ms", true, 0.05);
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        let cmp = compare(
            std::slice::from_ref(&b),
            &samples("w", "round_ms", &noisy, 0),
            &samples("w", "round_ms", &worse, 0),
        );
        assert_eq!(cmp.rows[0].verdict, Verdict::Unresolved);
        assert!(!cmp.failed());
        assert!(cmp.render().contains("warning: 1 row(s) unresolved"));
        let far_better: Vec<f64> = noisy.iter().map(|v| v * 0.4).collect();
        assert_eq!(verdict(&b, &noisy, &far_better), Verdict::Improved);
        // Every change run worse than every parent run: a regression,
        // however noisy each side is.
        let cmp = compare(
            std::slice::from_ref(&b),
            &samples("w", "round_ms", &noisy, 0),
            &samples("w", "round_ms", &noisy.map(|v| v * 3.0), 0),
        );
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
        assert!(cmp.failed());
        // For a higher-is-better metric, falling to a third is the same.
        let up = bound("ops_per_s", false, 0.05);
        assert_eq!(
            verdict(&up, &noisy, &noisy.map(|v| v / 3.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_higher_error_rate_fails_the_comparison() {
        let b = bound("round_ms", true, 0.10);
        let cmp = compare(
            std::slice::from_ref(&b),
            &samples("w", "round_ms", &PARENT, 0),
            &samples("w", "round_ms", &PARENT, 1),
        );
        assert_eq!(cmp.more_errors, vec!["w".to_string()]);
        assert!(cmp.failed());
        assert!(cmp.render().contains("larger share of checks"));
    }

    #[test]
    fn workloads_are_judged_in_their_own_rows() {
        let b = bound("round_ms", true, 0.10);
        let mut parent = samples("a", "round_ms", &PARENT, 0);
        parent.extend(samples("b", "round_ms", &PARENT, 0));
        let mut change = samples("a", "round_ms", &PARENT, 0);
        change.extend(samples("b", "round_ms", &PARENT.map(|v| v * 1.5), 0));
        let cmp = compare(std::slice::from_ref(&b), &parent, &change);
        let v: Vec<(&str, Verdict)> = cmp
            .rows
            .iter()
            .map(|r| (r.workload.as_str(), r.verdict))
            .collect();
        assert_eq!(v, [("a", Verdict::Unchanged), ("b", Verdict::Regressed)]);
    }

    #[test]
    fn bounds_and_samples_load_from_json() {
        let bounds = load_bounds(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"x","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert!(load_bounds(r#"{"end_to_end":[{"name":"y","better":"up","bound":1}]}"#).is_err());
        assert!(load_bounds(r#"{"end_to_end":[{"name":"y","better":"lower"}]}"#).is_err());
        assert!(load_bounds(r#"{"workloads":[]}"#).is_err());
        let s = load_sample(
            r#"{"workload":"serve","attempted":10,"failed":1,
                "metrics":{"round_ms":{"value":12.5,"unit":"ms"}}}"#,
        )
        .unwrap();
        assert_eq!(s.metrics["round_ms"], 12.5);
        assert_eq!((s.attempted, s.failed), (10, 1));
    }
}
