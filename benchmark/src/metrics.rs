//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! is generated from these tables (`mnbench manifest`) and a test keeps the
//! two identical.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_fig5",
        "paper Fig. 5: MotherNets trains the five Table-1 VGGs to the shared convergence criterion; only nn/tensor backward, morph and core work, engine and server idle",
    ),
    (
        "serve_diverse",
        "5 fine-tuned-looking members with no shared prefix behind the server, open-loop Poisson arrivals: flat plans, engine-dominated, bypasses trunk sharing and cascade",
    ),
    (
        "serve_trunk_burst",
        "8 members sharing a 17-node trunk behind the server, open-loop bursty arrivals: engine work is cheap, so queue, coalesce and reply cost shows",
    ),
    (
        "score_offline",
        "bare sessions scoring 256-example batches under the trunk-shared, flat and cascade plans, no server: a serve change must not move it",
    ),
];

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "examples/s",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_ex",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "cold_start_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "artifact_bytes",
        unit: "bytes",
        better: Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "label_agreement",
        unit: "ratio",
        better: Higher,
        bound: 0.01,
    },
];

macro_rules! per_layer {
    ($($name:literal $unit:literal $better:ident;)*) => {
        pub const PER_LAYER: &[PerLayer] = &[
            $(PerLayer { name: $name, unit: $unit, better: $better },)*
        ];
    };
}

per_layer! {
    "tensor.gemm_gflops_256" "GFLOP/s" Higher;
    "tensor.gemm_gflops_trunk" "GFLOP/s" Higher;
    "tensor.gemm_gflops_vgg" "GFLOP/s" Higher;
    "tensor.im2col_gbps" "GB/s" Higher;
    "tensor.conv_fwd_us" "us" Lower;
    "tensor.conv_bwd_input_us" "us" Lower;
    "tensor.conv_bwd_params_us" "us" Lower;
    "tensor.sgd_update_gbps" "GB/s" Higher;
    "tensor.softmax_us" "us" Lower;
    "tensor.simd_backend" "id" Higher;
    "nn.forward_eval_us_per_ex" "us" Lower;
    "nn.prefix_us" "us" Lower;
    "nn.tail_us" "us" Lower;
    "nn.test_batch_p95_ms" "ms" Lower;
    "nn.train_step_ms" "ms" Lower;
    "nn.fwd_share" "ratio" Lower;
    "nn.bwd_share" "ratio" Lower;
    "nn.optim_share" "ratio" Lower;
    "nn.load_network_us" "us" Lower;
    "nn.save_network_us" "us" Lower;
    "nn.param_count" "count" Lower;
    "morph.hatch_ms" "ms" Lower;
    "morph.hatch_logit_err" "abs" Lower;
    "data.generate_s" "s" Lower;
    "data.bootstrap_ms" "ms" Lower;
    "data.gather_eps" "examples/s" Higher;
    "core.construct_ms" "ms" Lower;
    "core.cluster_ms" "ms" Lower;
    "core.train_wall_s" "s" Lower;
    "core.train_eps" "examples/s" Higher;
    "core.ensemble_test_error" "ratio" Lower;
    "core.mother_phase_s" "s" Lower;
    "core.member_phase_s" "s" Lower;
    "core.orchestration_s" "s" Lower;
    "core.mother_epochs" "count" Lower;
    "core.member_epochs_mean" "count" Lower;
    "core.gradient_steps" "count" Lower;
    "core.cost_units_ratio" "ratio" Lower;
    "core.speedup_vs_fulldata" "ratio" Higher;
    "core.speedup_vs_bagging" "ratio" Higher;
    "engine.plan_build_ms" "ms" Lower;
    "engine.trunk_len" "count" Higher;
    "engine.shared_param_share" "ratio" Higher;
    "engine.trunk_plan_eps" "examples/s" Higher;
    "engine.flat_plan_eps" "examples/s" Higher;
    "engine.cascade_plan_eps" "examples/s" Higher;
    "engine.parallel_plan_eps" "examples/s" Higher;
    "engine.trunk_ms" "ms" Lower;
    "engine.tails_ms" "ms" Lower;
    "engine.combine_ms" "ms" Lower;
    "engine.overhead_share" "ratio" Lower;
    "engine.early_exit_rate" "ratio" Higher;
    "engine.cascade_threshold" "ratio" Higher;
    "engine.calibrated_exit_rate" "ratio" Higher;
    "engine.label_mismatch_share" "ratio" Lower;
    "engine.prob_drift_max" "abs" Lower;
    "engine.mt_scaling" "ratio" Higher;
    "engine.parallel_cpu_ratio" "ratio" Lower;
    "engine.batch_p95_ms" "ms" Lower;
    "serve.submit_us_p50" "us" Lower;
    "serve.mean_batch_r1" "count" Higher;
    "serve.mean_batch_r2" "count" Higher;
    "serve.mean_batch_r3" "count" Higher;
    "serve.max_batch_filled" "count" Higher;
    "serve.batches" "count" Lower;
    "serve.queue_depth_p95" "count" Lower;
    "serve.eval_ms_est" "ms" Lower;
    "serve.wait_ms_est" "ms" Lower;
    "serve.wait_share" "ratio" Lower;
    "serve.p50_ms_r1" "ms" Lower;
    "serve.p95_ms_r1" "ms" Lower;
    "serve.p50_ms_r3" "ms" Lower;
    "serve.p95_ms_r3" "ms" Lower;
    "serve.p95_ms_r2" "ms" Lower;
    "serve.p99_ms_r2" "ms" Lower;
    "serve.p999_ms_r2" "ms" Lower;
    "serve.rate_ok_rps" "1/s" Higher;
    "serve.drain_rps" "1/s" Higher;
    "serve.gen_lag_ms_p95" "ms" Lower;
    "serve.gen_lag_ms_max" "ms" Lower;
    "serve.start_ms" "ms" Lower;
    "serve.shutdown_ms" "ms" Lower;
    "serve.fail_share" "ratio" Lower;
    "serve.overloaded" "count" Lower;
    "serve.deadline_expired" "count" Lower;
    "serve.degraded" "count" Lower;
    "serve.restarts" "count" Lower;
    "serve.worker_panics" "count" Lower;
    "artifact.save_ms" "ms" Lower;
    "artifact.load_ms" "ms" Lower;
    "artifact.crc_gbps" "GB/s" Higher;
    "env.nproc" "count" Higher;
    "env.pinned" "flag" Higher;
    "env.calib_fma_ms" "ms" Lower;
    "trace.spans" "count" Lower;
}

/// Per-layer metrics `compare` judges as well, each with its relative
/// bound: the tail latency the end-to-end list could not hold across seeds
/// (at one seed it can), and the one pass that runs on every allowed CPU.
pub const ALSO_COMPARED: &[(&str, f64)] = &[
    ("serve.p95_ms_r2", 0.15),
    ("engine.parallel_plan_eps", 0.15),
];

/// How much `core.ensemble_test_error` may rise, absolute, between two
/// result sets of one seed.
pub const TEST_ERROR_SLACK: f64 = 0.01;

/// Metrics that repeat bit for bit at one seed *when the same build
/// measured both result sets*: only then does `compare` demand equality (a
/// later change may reorder a float sum and move them within the bounds
/// above).
pub const EXACT: &[&str] = &[
    "artifact_bytes",
    "core.ensemble_test_error",
    "core.cost_units_ratio",
    "core.gradient_steps",
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or("-")
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Everything measured, by registry name (diagnostics included).
    pub metrics: BTreeMap<String, f64>,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    /// Stores a measurement. One that is not a finite number is a
    /// correctness violation: written out as 0 it would read as an
    /// improvement of a lower-is-better metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.check(value.is_finite(), || {
            format!("metric {name} is not a finite number: {value}")
        });
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.violations.push(what());
        }
    }
}

/// JSON has no NaN or infinity: such a value is written `null` (and its
/// run is already marked incorrect, see [`Outcome::set`]).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The one-line JSON object a driver reads: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one. A per-layer metric
/// of a layer the workload never enters reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    if traced {
        for m in PER_LAYER {
            let v = outcome.get(m.name).unwrap_or(0.0);
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            ));
        }
    } else {
        for m in END_TO_END {
            let v = outcome
                .get(m.name)
                .ok_or_else(|| format!("workload did not measure `{}`", m.name))?;
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Nominal run length the workloads are sized for; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "s")));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        for name in EXACT.iter().chain(ALSO_COMPARED.iter().map(|(n, _)| n)) {
            assert_ne!(unit_of(name), "-", "{name} is not a registered metric");
        }
        assert!(ALSO_COMPARED.iter().all(|(_, bound)| *bound <= 0.15));
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(RUN_SECONDS),
            "regenerate with `mnbench manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 10;
        for m in END_TO_END {
            o.set(m.name, 1.25);
        }
        let line = result_line(&o, false).unwrap();
        let v = serde_json::parse(&line).unwrap();
        let serde::Value::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let serde::Value::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = serde_json::parse(&result_line(&o, true).unwrap()).unwrap();
        let serde::Value::Obj(metrics) = traced.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        o.metrics.remove("p50_ms");
        assert!(result_line(&o, false).is_err());
        // A measurement that is not a number fails the run; it is never
        // written as 0.
        assert!(o.correct);
        o.set("p50_ms", f64::NAN);
        assert!(!o.correct && o.violations.len() == 1);
        assert!(result_line(&o, false)
            .unwrap()
            .contains("\"p50_ms\": {\"value\": null"));
    }
}
