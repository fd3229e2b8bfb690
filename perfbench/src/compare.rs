//! `bench compare <dirA> <dirB>`: the noise-aware comparison of two
//! sets of runs, A the parent and B the change.
//!
//! Each directory holds the captured standard output of bench runs, one
//! file per run. A run of A pairs with the run of B on the same workload
//! and seed (the k-th such run of A, in file-name order, with the k-th of
//! B), so both sides should run the same seeds, alternating A and B. A
//! run that failed its output check (`"correct": false`) or left no
//! result fails the comparison.
//!
//! * **Gain**: at least 10 pairs, B better in at least 9/10 of them
//!   (ties count for neither side), and the medians apart by more than
//!   A's interquartile range. A gain is withheld when B fails a larger
//!   share of its operations than A.
//! * **No regression**: B's median no worse than A's by more than the
//!   metric's bound. When either side's spread (interquartile range over
//!   median) exceeds the bound, the metric is `unresolved` — unless
//!   every B run beats every A run. A metric that repeats exactly per
//!   seed regresses when B is worse on any pair, and the share of failed
//!   operations regresses when B's exceeds A's.

use crate::json::{self, Json};
use crate::stats;
use crate::{spec, Better};
use std::collections::BTreeMap;
use std::path::Path;

/// Pairs a gain claim needs.
pub const GAIN_PAIRS: usize = 10;
/// Pairs a no-regression verdict needs.
pub const BOUND_PAIRS: usize = 5;

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the gain rule.
    Gain,
    /// B is better by the gain rule, but fails a larger share of its
    /// operations than A.
    Withheld,
    /// Within the bound and no gain.
    Unchanged,
    /// B is worse than A by more than the bound.
    Regression,
    /// The spread exceeds the bound: no verdict either way.
    Unresolved,
    /// Too few pairs for any verdict.
    TooFew,
}

impl Verdict {
    /// Label printed in the verdict column.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Withheld => "gain withheld (B fails more)",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::TooFew => "too-few-pairs",
        }
    }
}

/// How much B improves on A in one sample: positive when B is better.
fn gain(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    }
}

/// Pairs B wins (ties count for neither side).
fn b_wins(a: &[f64], b: &[f64], better: Better) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| gain(better, **x, **y) > 0.0)
        .count()
}

/// The gain rule: enough pairs, B winning at least 9/10 of them, and
/// the medians apart by more than A's interquartile range.
fn is_gain(a: &[f64], b: &[f64], better: Better) -> bool {
    let n = a.len();
    let iqr_a = stats::quartiles(a).map_or(0.0, |[q1, _, q3]| q3 - q1);
    n >= GAIN_PAIRS
        && b_wins(a, b, better) * 10 >= 9 * n
        && gain(better, stats::median(a), stats::median(b)) > iqr_a
}

/// Judges one metric from paired samples (`a[i]` pairs with `b[i]`).
/// `bound` is `None` for per-layer metrics, which only get gain
/// verdicts.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    if n < BOUND_PAIRS {
        return Verdict::TooFew;
    }
    if is_gain(a, b, better) {
        return Verdict::Gain;
    }
    let Some(bound) = bound else {
        return Verdict::Unchanged;
    };
    let every_b_better = a
        .iter()
        .all(|x| b.iter().all(|y| gain(better, *x, *y) > 0.0));
    if stats::spread(a).max(stats::spread(b)) > bound && !every_b_better {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    if med_a != 0.0 && -gain(better, med_a, med_b) / med_a.abs() > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

/// Judges a metric that repeats exactly per seed, from samples paired by
/// seed: any pair on which B is worse is a regression.
pub fn judge_exact(a: &[f64], b: &[f64], better: Better) -> Verdict {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    if n < BOUND_PAIRS {
        Verdict::TooFew
    } else if a.iter().zip(b).any(|(x, y)| gain(better, *x, *y) < 0.0) {
        Verdict::Regression
    } else if is_gain(a, b, better) {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    }
}

/// One run read back from its captured output.
#[derive(Debug)]
struct RunFile {
    workload: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Parses one captured run: the detail line names the workload and the
/// seed, the last line is the result.
fn parse_run(text: &str) -> Result<RunFile, String> {
    let mut detail = None;
    let mut last = None;
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let v = json::parse(line)?;
        if v.get("workload").is_some() {
            detail = Some(v.clone());
        }
        last = Some(v);
    }
    let (Some(detail), Some(last)) = (detail, last) else {
        return Err("not a bench run".to_string());
    };
    let workload = detail
        .get("workload")
        .and_then(Json::str)
        .ok_or("the detail line has no workload")?
        .to_string();
    let seed = detail
        .get("seed")
        .and_then(Json::num)
        .ok_or("the detail line has no seed")? as u64;
    if last.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed} failed its output check or printed no result"
        ));
    }
    let count = |key: &str| {
        last.get(key)
            .and_then(Json::num)
            .map(|x| x as u64)
            .ok_or(format!("the result has no `{key}`"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = last.get("metrics") {
        for (name, v) in m {
            if let Some(x) = v.get("value").and_then(Json::num) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(RunFile {
        workload,
        seed,
        attempted,
        failed,
        metrics,
    })
}

/// Every run in `dir`, in file-name order.
fn read_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Runs keyed by workload, then by (seed, occurrence of that seed).
type Keyed<'a> = BTreeMap<&'a str, BTreeMap<(u64, usize), &'a RunFile>>;

fn key_runs(runs: &[RunFile]) -> Keyed<'_> {
    let mut out: Keyed<'_> = BTreeMap::new();
    for r in runs {
        let by_seed = out.entry(r.workload.as_str()).or_default();
        let k = by_seed.keys().filter(|(s, _)| *s == r.seed).count();
        by_seed.insert((r.seed, k), r);
    }
    out
}

/// One printed row.
#[derive(Debug)]
struct Row {
    workload: String,
    metric: String,
    pairs: usize,
    med_a: f64,
    med_b: f64,
    spread_a: f64,
    spread_b: f64,
    bound: String,
    wins: usize,
    verdict: Verdict,
}

/// Failed operations over attempted ones, pooled over `runs`.
fn failed_share<'a>(runs: impl Iterator<Item = &'a RunFile>) -> f64 {
    let (failed, attempted) = runs.fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Compares two sets of runs: one row per workload × metric, plus one
/// row per workload for the share of failed operations.
fn rows(runs_a: &[RunFile], runs_b: &[RunFile]) -> Vec<Row> {
    let (a, b) = (key_runs(runs_a), key_runs(runs_b));
    let mut out = Vec::new();
    for (workload, by_seed_a) in &a {
        let Some(by_seed_b) = b.get(workload) else {
            continue;
        };
        let pairs: Vec<(&RunFile, &RunFile)> = by_seed_a
            .iter()
            .filter_map(|(k, ra)| Some((*ra, *by_seed_b.get(k)?)))
            .collect();
        let (failed_a, failed_b) = (
            failed_share(pairs.iter().map(|p| p.0)),
            failed_share(pairs.iter().map(|p| p.1)),
        );
        let fails_more = failed_b > failed_a;
        let names: Vec<&String> = pairs
            .first()
            .map_or(Vec::new(), |p| p.0.metrics.keys().collect());
        for name in names {
            let Some(ms) = spec(name) else { continue };
            // A pair missing the metric on either side is left out whole,
            // so the remaining samples stay paired.
            let (va, vb): (Vec<f64>, Vec<f64>) = pairs
                .iter()
                .filter_map(|(ra, rb)| Some((*ra.metrics.get(name)?, *rb.metrics.get(name)?)))
                .unzip();
            let verdict = if ms.per_seed {
                judge_exact(&va, &vb, ms.better)
            } else {
                judge(&va, &vb, ms.better, ms.bound)
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: name.clone(),
                pairs: va.len(),
                med_a: stats::median(&va),
                med_b: stats::median(&vb),
                spread_a: stats::spread(&va),
                spread_b: stats::spread(&vb),
                bound: match (ms.per_seed, ms.bound) {
                    (true, _) => "exact".to_string(),
                    (false, Some(b)) => format!("{b}"),
                    (false, None) => "-".to_string(),
                },
                wins: b_wins(&va, &vb, ms.better),
                verdict: if verdict == Verdict::Gain && fails_more {
                    Verdict::Withheld
                } else {
                    verdict
                },
            });
        }
        out.push(Row {
            workload: workload.to_string(),
            metric: "failed_frac".to_string(),
            pairs: pairs.len(),
            med_a: failed_a,
            med_b: failed_b,
            spread_a: 0.0,
            spread_b: 0.0,
            bound: "+0".to_string(),
            wins: pairs
                .iter()
                .filter(|(ra, rb)| {
                    failed_share([*rb].into_iter()) < failed_share([*ra].into_iter())
                })
                .count(),
            verdict: if pairs.len() < BOUND_PAIRS {
                Verdict::TooFew
            } else if fails_more {
                Verdict::Regression
            } else {
                Verdict::Unchanged
            },
        });
    }
    out
}

/// Compares two directories of runs, printing one row per workload ×
/// metric; returns whether any metric regressed.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_dir(dir_a)?, read_dir(dir_b)?);
    println!(
        "{:<15} {:<27} {:>5} {:>12} {:>12} {:>8} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "pairs",
        "median A",
        "median B",
        "spreadA",
        "spreadB",
        "bound",
        "B wins"
    );
    let rows = rows(&a, &b);
    for r in &rows {
        println!(
            "{:<15} {:<27} {:>5} {:>12.4} {:>12.4} {:>8.3} {:>8.3} {:>6} {:>3}/{:<2}  {}",
            r.workload,
            r.metric,
            r.pairs,
            r.med_a,
            r.med_b,
            r.spread_a,
            r.spread_b,
            r.bound,
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    let (ka, kb) = (key_runs(&a), key_runs(&b));
    for (side, mine, other) in [("A", &ka, &kb), ("B", &kb, &ka)] {
        for (workload, by_seed) in mine {
            let alone = by_seed
                .keys()
                .filter(|k| other.get(workload).is_none_or(|o| !o.contains_key(k)))
                .count();
            if alone > 0 {
                println!(
                    "{workload}: {alone} run(s) of {side} have no run of the same seed \
                     on the other side"
                );
            }
        }
    }
    Ok(rows.iter().any(|r| r.verdict == Verdict::Regression))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten parent samples, 100 to 109: interquartile range 4.5.
    fn parent() -> Vec<f64> {
        (0..10).map(|i| 100.0 + f64::from(i)).collect()
    }

    fn scaled(a: &[f64], k: f64) -> Vec<f64> {
        a.iter().map(|x| x * k).collect()
    }

    #[test]
    fn a_clear_improvement_is_a_gain() {
        let a = parent();
        assert_eq!(
            judge(&a, &scaled(&a, 0.8), Better::Lower, Some(0.1)),
            Verdict::Gain
        );
        assert_eq!(
            judge(&a, &scaled(&a, 1.2), Better::Higher, None),
            Verdict::Gain
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_pairs() {
        let a = parent();
        let mut b = scaled(&a, 0.8);
        // Two of ten pairs now go to the parent: 8/10 is not enough.
        b[0] = a[0] + 1.0;
        b[1] = a[1] + 1.0;
        assert_eq!(judge(&a, &b, Better::Lower, Some(0.1)), Verdict::Unchanged);
        // One loss still leaves 9/10.
        b[0] = a[0] * 0.8;
        assert_eq!(judge(&a, &b, Better::Lower, Some(0.1)), Verdict::Gain);
    }

    #[test]
    fn a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr() {
        let a = parent();
        // B wins every pair, but only by 1 against an IQR of 4.5.
        let b: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert_eq!(judge(&a, &b, Better::Lower, Some(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let a = &parent()[..9];
        assert_eq!(
            judge(a, &scaled(a, 0.8), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a[..4], &a[..4], Better::Lower, Some(0.1)),
            Verdict::TooFew
        );
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let a = parent();
        assert_eq!(judge(&a, &a, Better::Lower, Some(0.1)), Verdict::Unchanged);
        assert_eq!(judge(&a, &a, Better::Higher, None), Verdict::Unchanged);
        assert_eq!(judge_exact(&a, &a, Better::Higher), Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let a = parent();
        assert_eq!(
            judge(&a, &scaled(&a, 1.2), Better::Lower, Some(0.1)),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &scaled(&a, 1.05), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &scaled(&a, 0.8), Better::Higher, Some(0.1)),
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * f64::from(i)).collect();
        assert_eq!(
            judge(&a, &scaled(&a, 1.02), Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Unless every run of B beats every run of A.
        let b = vec![10.0; 5];
        assert_eq!(
            judge(&a[..5], &b, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_per_seed_metric_regresses_on_any_worse_pair() {
        let a = parent();
        let mut b = a.clone();
        b[3] -= 0.5;
        assert_eq!(judge_exact(&a, &b, Better::Higher), Verdict::Regression);
        // The same loss is far inside a 10% bound on the median.
        assert_eq!(judge(&a, &b, Better::Higher, Some(0.1)), Verdict::Unchanged);
        assert_eq!(
            judge_exact(&a, &scaled(&a, 1.2), Better::Higher),
            Verdict::Gain
        );
    }

    /// The captured output of a run: the detail line and the result.
    fn run_text(workload: &str, seed: u64, failed: u64, wall: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}}}\n\
             {{\"correct\": true, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": \
             {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"bugs_found\": {{\"value\": {}, \"unit\": \"count\"}}}}}}\n",
            seed % 3
        )
    }

    fn runs(texts: &[String]) -> Vec<RunFile> {
        texts
            .iter()
            .map(|t| parse_run(t).expect("well-formed run"))
            .collect()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("the metric has a row")
    }

    #[test]
    fn a_run_that_failed_its_check_fails_the_comparison() {
        let text = "{\"workload\": \"ho-iof\", \"seed\": 3}\n\
                    {\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}\n";
        let err = parse_run(text).expect_err("an incorrect run is refused");
        assert!(err.contains("ho-iof seed 3"), "{err}");
        assert!(parse_run("{\"workload\": \"ho-iof\", \"seed\": 3}\n").is_err());
    }

    #[test]
    fn runs_pair_by_seed_not_by_file_order() {
        // A runs seeds 1..=10; B runs them in reverse file order with one
        // run missing its metric. Every remaining pair must still match
        // its seed: B is exactly 20% faster on each.
        let a: Vec<String> = (1..=10)
            .map(|s| run_text("ho-iof", s, 0, s as f64))
            .collect();
        let mut b: Vec<String> = (1..=10)
            .rev()
            .map(|s| run_text("ho-iof", s, 0, 0.8 * s as f64))
            .collect();
        b[4] = b[4].replace("\"wall_s\"", "\"other\"");
        let rows = rows(&runs(&a), &runs(&b));
        let wall = row(&rows, "wall_s");
        assert_eq!(wall.pairs, 9);
        assert_eq!(wall.wins, 9);
        assert_eq!(row(&rows, "bugs_found").verdict, Verdict::Unchanged);
    }

    #[test]
    fn failing_more_operations_withholds_a_gain_and_regresses() {
        let a: Vec<String> = (1..=10)
            .map(|s| run_text("ho-iof", s, 0, 100.0 + s as f64))
            .collect();
        let faster = |failed| -> Vec<String> {
            (1..=10)
                .map(|s| run_text("ho-iof", s, failed, 50.0 + s as f64))
                .collect()
        };
        let rows_ok = rows(&runs(&a), &runs(&faster(0)));
        assert_eq!(row(&rows_ok, "wall_s").verdict, Verdict::Gain);
        assert_eq!(row(&rows_ok, "failed_frac").verdict, Verdict::Unchanged);
        let rows_bad = rows(&runs(&a), &runs(&faster(1)));
        assert_eq!(row(&rows_bad, "wall_s").verdict, Verdict::Withheld);
        assert_eq!(row(&rows_bad, "failed_frac").verdict, Verdict::Regression);
    }
}
