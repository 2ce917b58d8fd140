//! `mnbench run` and `mnbench compare`: result sets on disk.
//!
//! `run` executes every workload in a process of its own (peak memory and
//! CPU time are then the workload's, not the orchestrator's), several
//! untraced runs plus one traced run each, brackets each workload with the
//! calibration loop, re-runs a workload the machine disturbed, and writes
//! one JSON result set. `compare` applies the registry's bounds to two
//! result sets, one row per workload × metric.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::config::Workload;
use crate::metrics::{
    per_layer, Better, ALSO_COMPARED, END_TO_END, EXACT, RUN_SECONDS, TEST_ERROR_SLACK,
};
use crate::stats::{median, quartile_spread, sorted};
use crate::{env, Args};

/// A workload is noisy when the calibration loop — before it, after it or
/// inside its runs — stands more than this above the quietest value seen,
/// or the generator ran later than `GEN_LAG_LIMIT_MS` at r2.
const CALIB_LIMIT: f64 = 0.10;
const GEN_LAG_LIMIT_MS: f64 = 3.0;
const MAX_ATTEMPTS: usize = 3;
/// Untraced runs per attempt (one traced run follows them).
const RUNS: usize = 5;

type Metrics = BTreeMap<String, f64>;

struct ChildRun {
    metrics: Metrics,
    correct: bool,
    violations: Vec<String>,
}

/// Runs one workload once in a child process and reads back its metric
/// lines.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: &Path,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        metrics: Metrics::new(),
        correct: output.status.success(),
        violations: Vec::new(),
    };
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(v))) =
                    (parts.next(), parts.next().map(str::parse::<f64>))
                {
                    run.metrics.insert(name.to_string(), v);
                }
            }
            Some("violation") => run.violations.push(line.to_string()),
            _ => {}
        }
    }
    if run.metrics.is_empty() {
        return Err(format!(
            "{} printed no metrics (exit {:?}): {}",
            workload.name(),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(run)
}

/// A measurement as JSON; one that is not a number becomes `null`, which
/// `compare` reads as "not measured" (its run is marked incorrect anyway).
fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Num(v)
    } else {
        Value::Null
    }
}

fn metrics_value(m: &Metrics) -> Value {
    Value::Obj(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
}

/// The orchestrator's view of the machine at one instant: the median of
/// the FMA-bound loop that notices a busy sibling hyperthread, sampled on
/// the CPU the measured processes pin themselves to (the CPUs are
/// disturbed independently of each other). The orchestrator itself stays
/// unpinned, or its children would inherit a single CPU.
fn calib_fma_ms() -> f64 {
    let pinned = env::pin_to_first_cpu();
    let mut calib = env::Calib::default();
    calib.sample(15);
    if pinned {
        env::unpin();
    }
    calib.fma_ms()
}

struct Attempt {
    /// `calib_fma_ms` before and after the workload's runs.
    before: f64,
    after: f64,
    /// The slowest calibration reading of this attempt stands more than
    /// `CALIB_LIMIT` above the quietest one this invocation has seen.
    above_floor: bool,
    untraced: Vec<ChildRun>,
    traced: ChildRun,
}

impl Attempt {
    /// What the calibration loop read while the workload ran: the median
    /// over the untraced runs of each run's own `env.calib_fma_ms`. (An
    /// episode can begin and end between the readings before and after.)
    fn calib_in_runs(&self) -> f64 {
        median(&self.values("env.calib_fma_ms"))
    }

    fn gen_lag_ms(&self) -> f64 {
        let lags: Vec<f64> = self
            .untraced
            .iter()
            .filter_map(|r| r.metrics.get("serve.gen_lag_ms_p95").copied())
            .collect();
        median(&lags)
    }

    /// Disturbed at either end of the workload or inside it (against the
    /// quietest calibration seen so far), or in its generator's punctuality.
    fn noisy(&self) -> bool {
        self.above_floor || self.gen_lag_ms() > GEN_LAG_LIMIT_MS
    }

    fn correct(&self) -> bool {
        self.traced.correct && self.untraced.iter().all(|r| r.correct)
    }

    fn values(&self, name: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    }

    /// Throughput lost with tracing on: the difference between the traced
    /// run and the median untraced run.
    fn trace_overhead_share(&self) -> f64 {
        let untraced = median(&self.values("throughput_eps"));
        match self.traced.metrics.get("throughput_eps") {
            Some(&traced) if untraced > 0.0 => 1.0 - traced / untraced,
            _ => 0.0,
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("noisy".into(), Value::Bool(self.noisy())),
            ("correct".into(), Value::Bool(self.correct())),
            ("calib_fma_ms_before".into(), num(self.before)),
            ("calib_fma_ms_after".into(), num(self.after)),
            (
                "trace_overhead_share".into(),
                num(self.trace_overhead_share()),
            ),
            (
                "violations".into(),
                Value::Arr(
                    self.untraced
                        .iter()
                        .chain([&self.traced])
                        .flat_map(|r| r.violations.iter().cloned().map(Value::Str))
                        .collect(),
                ),
            ),
            (
                "untraced".into(),
                Value::Arr(
                    self.untraced
                        .iter()
                        .map(|r| metrics_value(&r.metrics))
                        .collect(),
                ),
            ),
            ("traced".into(), metrics_value(&self.traced.metrics)),
        ])
    }
}

fn set_letter(i: usize) -> char {
    (b'a' + (i % 26) as u8) as char
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<Workload> = match args.value("--workload") {
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?]
        }
        None => Workload::ALL.to_vec(),
    };
    let seed: u64 = args.parsed("--seed", 7)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let sets: usize = args.parsed("--sets", 1)?;
    let quick = args.flag("--quick");
    let prefix = PathBuf::from(args.value("--out").unwrap_or("benchmark/out/BENCH"));
    let out_dir = prefix.parent().map(Path::to_path_buf).unwrap_or_default();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    // Workload by workload, set by set (a, b, a, b, …): slow machine drift
    // then lands on every set alike.
    let mut per_set: Vec<Vec<(Workload, Vec<Attempt>)>> = (0..sets).map(|_| Vec::new()).collect();
    let mut all_correct = true;
    // The quietest FMA-loop median seen in this invocation: the reference an
    // attempt's readings are held against (an episode that covers a whole
    // attempt shows in no difference between its own readings).
    let mut fma_floor = f64::INFINITY;
    for &workload in &workloads {
        for (s, set) in per_set.iter_mut().enumerate() {
            let mut attempts: Vec<Attempt> = Vec::new();
            while attempts.len() < MAX_ATTEMPTS {
                let before = calib_fma_ms();
                let untraced = (0..RUNS)
                    .map(|_| child(workload, seed, seconds, false, quick, &out_dir))
                    .collect::<Result<Vec<_>, _>>()?;
                let traced = child(workload, seed, seconds, true, quick, &out_dir)?;
                let after = calib_fma_ms();
                let mut attempt = Attempt {
                    before,
                    after,
                    above_floor: false,
                    untraced,
                    traced,
                };
                let readings = [before, attempt.calib_in_runs(), after];
                fma_floor = readings.into_iter().fold(fma_floor, f64::min);
                attempt.above_floor =
                    readings.into_iter().fold(0.0, f64::max) > fma_floor * (1.0 + CALIB_LIMIT);
                println!(
                    "{} set {} attempt {}: calib fma {:.3} -> {:.3} (in its runs) -> {:.3} ms, gen lag p95 {:.3} ms, {}{}",
                    workload.name(),
                    set_letter(s),
                    attempts.len() + 1,
                    attempt.before,
                    attempt.calib_in_runs(),
                    attempt.after,
                    attempt.gen_lag_ms(),
                    if attempt.noisy() { "noisy" } else { "steady" },
                    if attempt.correct() { "" } else { ", INCORRECT" },
                );
                let done = !attempt.noisy();
                attempts.push(attempt);
                if done {
                    break;
                }
            }
            let last = attempts.last().expect("at least one attempt");
            all_correct &= last.correct();
            for m in END_TO_END {
                let v = last.values(m.name);
                println!(
                    "  {} {} {} (spread {:.3} over {} runs)",
                    m.name,
                    median(&v),
                    m.unit,
                    quartile_spread(&v),
                    v.len()
                );
            }
            println!(
                "  trace_overhead_share {:.4} (traced run against the untraced median)",
                last.trace_overhead_share()
            );
            for r in last.untraced.iter().chain([&last.traced]) {
                for v in &r.violations {
                    println!("  {v}");
                }
            }
            set.push((workload, attempts));
        }
    }

    let env_block = Value::Obj(
        env::describe()
            .into_iter()
            .chain([(
                "input_hash".to_string(),
                format!("{:016x}", crate::inputs::input_hash(seed)),
            )])
            .map(|(k, v)| (k, Value::Str(v)))
            .collect(),
    );
    for (s, set) in per_set.iter().enumerate() {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str("mnbench-1".into())),
            ("set".into(), Value::Str(set_letter(s).to_string())),
            ("seed".into(), num(seed as f64)),
            ("seconds".into(), num(seconds)),
            ("runs".into(), num(RUNS as f64)),
            ("env".into(), env_block.clone()),
            (
                "workloads".into(),
                Value::Obj(
                    set.iter()
                        .map(|(w, attempts)| {
                            (
                                w.name().to_string(),
                                Value::Obj(vec![(
                                    "attempts".into(),
                                    Value::Arr(attempts.iter().map(Attempt::to_value).collect()),
                                )]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = if sets > 1 {
            prefix.with_extension(format!("{}.json", set_letter(s)))
        } else {
            prefix.with_extension("json")
        };
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What `compare` reads from a result set: which build measured it, and
/// the last attempt of every workload (earlier ones were disturbed) as
/// (name, untraced runs, traced run).
struct Loaded {
    build_id: Option<String>,
    workloads: Vec<(String, Vec<Metrics>, Metrics)>,
}

fn as_metrics(v: &Value) -> Metrics {
    match v {
        Value::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => Metrics::new(),
    }
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(path, &text)
}

fn parse_set(path: &str, text: &str) -> Result<Loaded, String> {
    let doc = serde_json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no `workloads` object"));
    };
    let build_id = match doc.get("env").and_then(|env| env.get("build_id")) {
        Some(Value::Str(id)) if id != "unknown" => Some(id.clone()),
        _ => None,
    };
    let mut out = Vec::new();
    for (name, w) in workloads {
        let Some(Value::Arr(attempts)) = w.get("attempts") else {
            return Err(format!("{path}: {name} has no attempts"));
        };
        let last = attempts
            .last()
            .ok_or_else(|| format!("{path}: {name} has no attempts"))?;
        let untraced = match last.get("untraced") {
            Some(Value::Arr(runs)) => runs.iter().map(as_metrics).collect(),
            _ => Vec::new(),
        };
        let traced = last.get("traced").map(as_metrics).unwrap_or_default();
        out.push((name.clone(), untraced, traced));
    }
    Ok(Loaded {
        build_id,
        workloads: out,
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median against median under `bound`. A spread wider than the bound
/// makes the row unresolved, unless every run of `b` reads better than
/// every run of `a`; so does a ratio that is not a number (a zero base).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let (sa, sb) = (sorted(a), sorted(b));
    let all_better = match (sa.first(), sa.last(), sb.first(), sb.last()) {
        (Some(a_lo), Some(a_hi), Some(b_lo), Some(b_hi)) => match better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        },
        _ => false,
    };
    let verdict = if !worse_by.is_finite() || (spread > bound && !all_better) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// One relative row: prints it and returns whether it is ok.
fn relative_row(
    workload: &str,
    (name, unit, better, bound): (&str, &str, Better, f64),
    va: &[f64],
    vb: &[f64],
) -> bool {
    let (worse_by, verdict) = judge(va, vb, better, bound);
    println!(
        "{workload:<18} {:<34} {:>14.6} {:>14.6} {:>8.4} {:>+9.4} {:>7.3} {:>8.4} {:>8.4}  {}",
        format!("{name} [{unit}]"),
        median(va),
        median(vb),
        median(vb) / median(va),
        worse_by,
        bound,
        quartile_spread(va),
        quartile_spread(vb),
        verdict.label()
    );
    verdict == Verdict::Ok
}

pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_build = a.build_id.is_some() && a.build_id == b.build_id;
    println!("base A = {path_a}\nnew  B = {path_b}");
    println!(
        "build {} -> {}: {}",
        a.build_id.as_deref().unwrap_or("unknown"),
        b.build_id.as_deref().unwrap_or("unknown"),
        if same_build {
            "the same code measured both, exact metrics must be identical"
        } else {
            "different code, exact metrics are not demanded identical"
        }
    );
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>8} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        "worse by",
        "bound",
        "spread A",
        "spread B"
    );
    let mut bad = 0;
    for (name, runs_a, traced_a) in &a.workloads {
        let Some((_, runs_b, traced_b)) = b.workloads.iter().find(|(n, _, _)| n == name) else {
            println!("{name:<18} missing from B");
            bad += 1;
            continue;
        };
        let column = |runs: &[Metrics], metric: &str| -> Vec<f64> {
            runs.iter().filter_map(|r| r.get(metric).copied()).collect()
        };
        for m in END_TO_END {
            let (va, vb) = (column(runs_a, m.name), column(runs_b, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<18} {:<34} not measured in both sets", m.name);
                bad += 1;
                continue;
            }
            bad += !relative_row(name, (m.name, m.unit, m.better, m.bound), &va, &vb) as usize;
        }
        // Per-layer metrics judged as well, where the workload has them
        // (every untraced run prints them too).
        for &(metric, bound) in ALSO_COMPARED {
            let m = per_layer(metric).expect("ALSO_COMPARED names registered metrics");
            let (va, vb) = (column(runs_a, metric), column(runs_b, metric));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                println!("{name:<18} {metric:<34} not measured in both sets");
                bad += 1;
                continue;
            }
            bad += !relative_row(name, (m.name, m.unit, m.better, bound), &va, &vb) as usize;
        }
        let (ea, eb) = (
            column(runs_a, "core.ensemble_test_error"),
            column(runs_b, "core.ensemble_test_error"),
        );
        if !ea.is_empty() && !eb.is_empty() {
            let rise = median(&eb) - median(&ea);
            let ok = rise <= TEST_ERROR_SLACK;
            println!(
                "{name:<18} {:<34} {:>14.6} {:>14.6} {:>8} {rise:>+9.4} {:>7.3}  absolute: {}",
                "core.ensemble_test_error [ratio]",
                median(&ea),
                median(&eb),
                "",
                TEST_ERROR_SLACK,
                if ok { "ok" } else { "regressed" }
            );
            bad += !ok as usize;
        }
        // Counts that repeat bit for bit at one seed must be identical —
        // when the same build produced both sets.
        for metric in EXACT.iter().filter(|_| same_build) {
            let pick = |runs: &[Metrics], traced: &Metrics| -> Vec<f64> {
                let mut v = column(runs, metric);
                v.extend(traced.get(*metric));
                v
            };
            let (va, vb) = (pick(runs_a, traced_a), pick(runs_b, traced_b));
            let (Some(&first), false) = (va.first(), vb.is_empty()) else {
                continue;
            };
            let same = va.iter().chain(&vb).all(|v| v.to_bits() == first.to_bits());
            println!(
                "{name:<18} {:<34} {:>14} {:>14}  exact: {}",
                metric,
                first,
                vb[0],
                if same { "identical" } else { "DIFFERS" }
            );
            bad += !same as usize;
        }
    }
    println!("{bad} row(s) not ok");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let calm = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 5 % slower under a 10 % bound: ok; 20 % slower: regressed.
        let (w, v) = judge(&calm, &[10.5, 10.6, 10.4, 10.5, 10.5], Better::Lower, 0.10);
        assert!((w - 0.05).abs() < 1e-9 && v == Verdict::Ok);
        let (_, v) = judge(&calm, &[12.0, 12.1, 11.9, 12.0, 12.0], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Regressed);
        // Higher-is-better flips the sign.
        let (w, v) = judge(&calm, &[8.0, 8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10);
        assert!(w > 0.19 && v == Verdict::Regressed);
        // A spread wider than the bound resolves nothing ...
        let wild = [10.0, 14.0, 7.0, 12.0, 8.0];
        let (_, v) = judge(&wild, &calm, Better::Lower, 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every new run beats every old one.
        let (_, v) = judge(&wild, &[5.0, 5.1, 4.9, 5.0, 5.0], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        // A zero base gives no ratio: unresolved, never ok.
        let (_, v) = judge(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn result_sets_round_trip_through_json() {
        let run = |p50: f64| ChildRun {
            metrics: Metrics::from([
                ("p50_ms".to_string(), p50),
                ("artifact_bytes".to_string(), 7.0),
            ]),
            correct: true,
            violations: Vec::new(),
        };
        let attempt = Attempt {
            before: 2.40,
            after: 2.50,
            above_floor: false,
            untraced: vec![run(1.0), run(1.2)],
            traced: run(1.1),
        };
        assert!(!attempt.noisy() && attempt.correct());
        let doc = Value::Obj(vec![
            (
                "env".into(),
                Value::Obj(vec![("build_id".into(), Value::Str("0badf00d".into()))]),
            ),
            (
                "workloads".into(),
                Value::Obj(vec![(
                    "serve_diverse".into(),
                    Value::Obj(vec![(
                        "attempts".into(),
                        Value::Arr(vec![attempt.to_value()]),
                    )]),
                )]),
            ),
        ]);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let loaded = parse_set("in-memory", &text).unwrap();
        assert_eq!(loaded.build_id.as_deref(), Some("0badf00d"));
        let (name, untraced, traced) = &loaded.workloads[0];
        assert_eq!(name, "serve_diverse");
        assert_eq!(untraced.len(), 2);
        assert_eq!(untraced[1]["p50_ms"], 1.2);
        assert_eq!(traced["artifact_bytes"], 7.0);
    }
}
