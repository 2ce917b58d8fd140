//! `mnbench`: the repository's benchmark. Four workloads, eight end-to-end
//! metrics, per-layer attribution from outside. See `benchmark/README.md`.
//!
//! ```text
//! mnbench --workload W --seed N --seconds S --trace 0|1   one run (what a driver calls)
//! mnbench run [--workload W] [--seed N] [--seconds S] [--sets M] [--out PREFIX]
//! mnbench compare A.json B.json
//! mnbench manifest                                        prints BENCHMARK.json
//! ```
//!
//! It drives the stack only through public functions (`train_ensemble`,
//! `hatch`, `EnginePlan`/`EngineSession`, `Server::builder`,
//! `Network::forward_eval_*`, `mn_tensor::ops`/`im2col`) and times the
//! calls into each layer from here.

mod config;
mod env;
mod inputs;
mod ledger;
mod metrics;
mod probes;
mod reference;
mod score;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use config::{RunConfig, Workload};
use metrics::Outcome;
use trace::Tracer;

/// Runs one workload in this process, pinned to one CPU and with the
/// compute pool held to one thread.
///
/// The sandboxes this repository is measured on report two CPUs, of which
/// the second is unreliable: minutes apart, two busy threads get anything
/// between one and two cores' worth of work done, and the guest scheduler
/// stacks or spreads the generator and the server's worker as it pleases
/// (see `env::set_affinity`). Every end-to-end number would inherit those
/// factors. Pinned and single-threaded, the numbers are per-core and
/// repeat. The one exception is `score_offline`'s pass (d), which runs on
/// every allowed CPU (`env::on_all_cpus`) so that the parallel paths are
/// measured and gated at all.
pub fn run_workload(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let pinned = env::pin_to_first_cpu();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim always builds a pool");
    let mut outcome = one_thread.install(|| match cfg.workload {
        Workload::TrainFig5 => train::run(cfg, tr),
        Workload::ServeDiverse | Workload::ServeTrunkBurst => serve::run(cfg, tr),
        Workload::ScoreOffline => score::run(cfg, tr),
    });
    outcome.set("env.pinned", pinned as u8 as f64);
    outcome.set("env.nproc", env::nproc() as f64);
    outcome
}

/// `--name value` pairs after the subcommand.
pub(crate) struct Args(Vec<String>);

impl Args {
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub(crate) fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mnbench --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]\n  \
         mnbench run [--workload W] [--seed N] [--seconds S] [--sets M] [--out PREFIX] [--quick]\n  \
         mnbench compare A.json B.json\n  mnbench manifest\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// One run of one workload: metric lines, then the result object as the
/// last line of standard output. Exit code 1 on a correctness violation.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("missing --workload")?;
    let cfg = RunConfig {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: args.parsed("--seed", 7u64)?,
        seconds: args.parsed("--seconds", metrics::RUN_SECONDS as f64)?,
        trace: args.parsed("--trace", 0u8)? != 0,
        quick: args.flag("--quick"),
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside 1..=60", cfg.seconds));
    }
    let dir = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let mut tr = Tracer::new(cfg.trace);
    let outcome = run_workload(&cfg, &mut tr);

    if cfg.trace {
        let path = dir.join(format!("{}.trace.jsonl", cfg.workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| tr.write_jsonl(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {} spans -> {}", tr.spans().len(), path.display());
        for (name, t) in tr.totals_by_name() {
            println!(
                "span {name} count {} total_ms {:.3} self_ms {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for (name, value) in &outcome.metrics {
        println!("metric {name} {value} {}", metrics::unit_of(name));
    }
    for v in &outcome.violations {
        println!("violation {v}");
    }
    println!("{}", metrics::result_line(&outcome, cfg.trace)?);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => ledger::run(&Args(argv[1..].to_vec())),
        Some("compare") if argv.len() == 3 => ledger::compare(&argv[1], &argv[2]),
        Some("manifest") => {
            print!("{}", metrics::manifest_json(metrics::RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        Some(first) if first.starts_with("--") => single(&Args(argv)),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mnbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick`: all four workloads, smallest sizes, every correctness
    /// check on, both untraced and traced. Keeps the benchmark compiling
    /// and correct under `cargo test`; its timings mean nothing.
    #[test]
    fn quick_mode_runs_every_workload_correctly() {
        let started = std::time::Instant::now();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let mut tr = Tracer::new(trace);
                let outcome = run_workload(&cfg, &mut tr);
                assert!(
                    outcome.correct,
                    "{} (trace {trace}): {:?}",
                    workload.name(),
                    outcome.violations
                );
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 1);
                let line = metrics::result_line(&outcome, trace).expect("every metric measured");
                assert!(serde_json::parse(&line).is_ok(), "{line}");
                assert_eq!(tr.spans().is_empty(), !trace);
                if trace {
                    let serve_spans = tr.spans().iter().any(|s| s.name.starts_with("serve."));
                    let serving =
                        matches!(workload, Workload::ServeDiverse | Workload::ServeTrunkBurst);
                    assert_eq!(serve_spans, serving, "{}", workload.name());
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "--quick must stay quick even in a debug-ish test build"
        );
    }
}
