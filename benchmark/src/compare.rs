//! `--compare A.json B.json`: judges run B against run A, one row per
//! (workload, end-to-end metric), with the bounds of `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, spread};
use crate::Definition;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change of B against A, positive when B is worse.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Untraced records of a run file (`{"records": [...]}`), grouped by
/// workload in first-seen order.
fn by_workload(doc: &Json) -> Vec<(String, Vec<&Json>)> {
    let mut groups: Vec<(String, Vec<&Json>)> = Vec::new();
    let records = doc.get("records").map(Json::as_array).unwrap_or_default();
    for r in records
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
    {
        let Some(w) = r.get("workload").and_then(Json::as_str) else {
            continue;
        };
        match groups.iter_mut().find(|(name, _)| name == w) {
            Some((_, v)) => v.push(r),
            None => groups.push((w.to_string(), vec![r])),
        }
    }
    groups
}

fn values(records: &[&Json], metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

/// Share of attempted circuits that failed, over all records.
fn fail_frac(records: &[&Json]) -> f64 {
    let total = |key| {
        records
            .iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    crate::stats::ratio(total("failed"), total("attempted"))
}

/// Compares every workload present in both run files. Returns the rows
/// and, per workload whose failure share rose, a message.
pub fn compare(def: &Definition, a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let (a, b) = (by_workload(a), by_workload(b));
    let mut rows = Vec::new();
    let mut fail_rises = Vec::new();
    for (workload, ra) in &a {
        let Some((_, rb)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        let (fa, fb) = (fail_frac(ra), fail_frac(rb));
        if fb > fa {
            fail_rises.push(format!("{workload}: fail_frac rose from {fa} to {fb}"));
        }
        for m in &def.end_to_end {
            let (va, vb) = (values(ra, &m.name), values(rb, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse_by = if m.higher_is_better { -change } else { change };
            let bound = m.bound.unwrap_or(0.0);
            let spread = spread(&va).max(spread(&vb));
            let b_always_better = if m.higher_is_better {
                vb.iter().all(|y| va.iter().all(|x| y > x))
            } else {
                vb.iter().all(|y| va.iter().all(|x| y < x))
            };
            let verdict = if spread > bound && !b_always_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else if worse_by < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    (rows, fail_rises)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(runs: &[(f64, f64)]) -> Json {
        Json::obj([(
            "records",
            Json::Arr(
                runs.iter()
                    .map(|&(p50, failed)| {
                        Json::obj([
                            ("workload", Json::str("w")),
                            ("trace", Json::Bool(false)),
                            ("attempted", Json::Num(100.0)),
                            ("failed", Json::Num(failed)),
                            ("end_to_end", Json::obj([("flow_s_p50", Json::Num(p50))])),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn verdict(a: &[(f64, f64)], b: &[(f64, f64)]) -> (Verdict, usize) {
        let def = Definition::load();
        let (rows, rises) = compare(&def, &run_file(a), &run_file(b));
        assert_eq!(rows.len(), 1);
        (rows[0].verdict, rises.len())
    }

    #[test]
    fn bounds_decide_the_verdict() {
        let bound = Definition::load()
            .end_to_end
            .iter()
            .find(|m| m.name == "flow_s_p50")
            .and_then(|m| m.bound)
            .unwrap();
        let slower = 1.0 + 2.0 * bound;
        assert_eq!(verdict(&[(1.0, 0.0)], &[(1.0, 0.0)]), (Verdict::Same, 0));
        assert_eq!(
            verdict(&[(1.0, 0.0)], &[(slower, 0.0)]),
            (Verdict::Worse, 0)
        );
        assert_eq!(
            verdict(&[(slower, 0.0)], &[(1.0, 0.0)]),
            (Verdict::Better, 0)
        );
        // A side whose own runs disagree by more than the bound.
        let noisy = [(1.0, 0.0), (slower, 0.0), (1.0, 0.0), (slower, 0.0)];
        assert_eq!(verdict(&noisy, &[(1.0, 0.0)]).0, Verdict::Unresolved);
        // A rise in failures is reported whatever the timings say.
        assert_eq!(verdict(&[(1.0, 0.0)], &[(1.0, 1.0)]), (Verdict::Same, 1));
    }
}
