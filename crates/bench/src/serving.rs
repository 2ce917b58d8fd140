//! Serving-stack measurements: cold start, dynamic batching, shard
//! scaling, and the engine's parallelism axes.
//!
//! The harness exercises the full production path once per run:
//!
//! 1. **save → load** — the 8-member bench ensemble is written as an
//!    `MNE1` artifact and booted back through
//!    [`EnginePlan::from_artifact_bytes`]; the run *asserts* the round
//!    trip is bitwise exact before measuring anything (a serving smoke
//!    check, not just a benchmark).
//! 2. **cold start** — artifact boot time, plus a direct comparison of
//!    the zero-init restore-target construction path
//!    (`Network::zeroed`) against the random-init path
//!    (`Network::seeded`); the run *asserts* zero-init is cheaper, since
//!    restore overwrites every sampled value anyway.
//! 3. **shard sweep** — a sharded [`Server`] (1, 2, and 4 worker shards
//!    over **one** shared plan) answers a closed loop of single-example
//!    requests from several client threads; per-request latencies yield
//!    p50/p99 and wall-clock throughput per shard count.
//! 4. **policy sweep** — a bare session runs one large batch under
//!    member-parallel, data-parallel, and auto plans.
//! 5. **cascade on skewed traffic** — an uncertainty-gated cascade
//!    (threshold from [`calibrate`]) serves a batch that is mostly easy
//!    (saturated) examples with a hard (near-uniform) minority, against
//!    the flat full-ensemble baseline on the same weights. Both sides
//!    are timed in a **single-thread pool**, so the numbers measure the
//!    compute the cascade eliminates (its capacity win under load)
//!    rather than idle-core wall-clock; the parallelism axes compose
//!    with the cascade and are measured separately above.
//!
//! 6. **worker kill** — a fault-injected worker panic mid-traffic
//!    (`faults::sites::QUEUE_POP`, one shot) against the supervised
//!    server: the scenario measures goodput before the kill, time until
//!    the first successful answer after it, and goodput after the
//!    supervisor respawns the shard. The CI gate holds post-kill goodput
//!    at ≥ 0.9x pre-kill.
//!
//! 7. **quantized artifacts** — the plan is saved under every
//!    `WeightEncoding` (`f32`/`f16`/`i8`); the scenario records artifact
//!    bytes, the resident `f32` weight footprint after load, and the
//!    served-probability drift each encoding costs, asserting the `i8`
//!    artifact is ≤ 0.30x the full-precision bytes.
//!
//! Run via `cargo run --release -p mn-bench --bin serving` — prints the
//! tables and saves `results/serving.json`.

use std::time::Instant;

use mn_ensemble::engine::{calibrate, Confidence, EnginePlan, EngineSession, ExecPolicy};
use mn_ensemble::faults::{self, FaultAction};
use mn_ensemble::serve::{BatchingConfig, ServeError, Server};
use mn_ensemble::{EnsembleManifest, EnsembleMember, WeightEncoding};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec};
use mn_nn::{LayerNode, Network};
use mn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::kernels::bench_ensemble_members;
use crate::report::{median_ms, render_table};

/// Throughput of one engine execution policy on the sweep batch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyThroughput {
    /// Policy label (`member-parallel`, `data-parallel`, `auto`).
    pub policy: String,
    /// Examples per second over the sweep batch.
    pub examples_per_sec: f64,
}

/// Closed-loop server measurements for one shard count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardSweepEntry {
    /// Worker shards (each an `EngineSession` over the shared plan).
    pub shards: usize,
    /// Requests per second over the whole closed loop.
    pub throughput_rps: f64,
    /// Median end-to-end request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean examples per engine call the micro-batchers achieved.
    pub mean_batch: f64,
}

/// Trunk-sharing measurements on a deep-shared-trunk ensemble: flat
/// (member-parallel) vs trunk-shared throughput on the same weights, with
/// outputs asserted bitwise identical before timing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrunkSharingResult {
    /// Members in the trunked ensemble.
    pub members: usize,
    /// Layer nodes per member.
    pub member_nodes: usize,
    /// Shared-prefix nodes the plan detected.
    pub trunk_len: usize,
    /// Analytic fraction of one member's parameters living in the shared
    /// trunk (the work the trunk plan runs once instead of `members`
    /// times).
    pub shared_params_fraction: f64,
    /// Examples/s under the flat member-parallel plan.
    pub flat_examples_per_sec: f64,
    /// Examples/s under the trunk-shared plan.
    pub trunk_examples_per_sec: f64,
    /// `trunk_examples_per_sec / flat_examples_per_sec`.
    pub speedup: f64,
}

/// Uncertainty-gated cascade vs flat full-ensemble execution on skewed
/// traffic (mostly easy examples, a hard minority), same weights.
///
/// Both throughputs are measured in a **single-thread pool**: the
/// cascade's win is the compute it skips, which a wall-clock measurement
/// on idle cores would hide (the gate costs one member either way; the
/// saving is the members that never run). Single-thread examples/s is
/// that saving directly — the extra per-core capacity a loaded server
/// gains.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CascadeServingResult {
    /// Members in the cascade ensemble (member 0 is the gate).
    pub members: usize,
    /// Confidence metric the gate scores with (`max-prob` / `margin`).
    pub metric: String,
    /// Exit threshold chosen by offline calibration.
    pub threshold: f64,
    /// Fraction of easy (saturated) examples in the skewed batch.
    pub easy_fraction: f64,
    /// Gate-vs-ensemble agreement the calibration demanded.
    pub min_agreement: f64,
    /// Fraction of the skewed batch that exited at the gate.
    pub early_exit_rate: f64,
    /// Fraction of examples whose cascade label differs from the flat
    /// full-ensemble label (the accuracy cost of early exits).
    pub label_mismatch_rate: f64,
    /// Flat full-ensemble examples/s, single-thread pool.
    pub flat_examples_per_sec: f64,
    /// Cascade examples/s on the same batch, single-thread pool.
    pub cascade_examples_per_sec: f64,
    /// `cascade_examples_per_sec / flat_examples_per_sec`.
    pub speedup: f64,
}

/// The worker-kill scenario: goodput before an injected worker panic,
/// recovery time, and goodput after the supervisor respawned the shard.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerKillResult {
    /// Worker shards the server ran with.
    pub shards: usize,
    /// Successful answers per second before the kill.
    pub pre_kill_rps: f64,
    /// Successful answers per second after recovery.
    pub post_kill_rps: f64,
    /// `post_kill_rps / pre_kill_rps` — the CI floor holds this ≥ 0.9.
    pub recovery_ratio: f64,
    /// Milliseconds from the kill until the first successful answer.
    pub recovery_ms: f64,
    /// Requests lost to the panic (typed `WorkerGone`, never a hang).
    pub killed_requests: u64,
    /// Worker panics the server recorded (the injected one).
    pub worker_panics: u64,
    /// Shards the supervisor respawned.
    pub restarts: u64,
}

/// The quantized-artifact scenario: deployment footprint per
/// [`mn_ensemble::WeightEncoding`] plus the served-probability drift each
/// encoding costs, measured on the bench ensemble.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuantizationResult {
    /// Full-precision (`MNW1`-sectioned) artifact bytes.
    pub f32_artifact_bytes: u64,
    /// `f16`-encoded artifact bytes.
    pub f16_artifact_bytes: u64,
    /// `i8`-encoded artifact bytes.
    pub i8_artifact_bytes: u64,
    /// `f16_artifact_bytes / f32_artifact_bytes` (≈ 0.5).
    pub f16_ratio: f64,
    /// `i8_artifact_bytes / f32_artifact_bytes` — the CI gate holds this
    /// ≤ 0.30.
    pub i8_ratio: f64,
    /// Resident `f32` weight bytes once loaded ([`EnginePlan::param_bytes`])
    /// — identical for every encoding, since artifacts dequantize on load.
    pub resident_param_bytes: u64,
    /// Max absolute served-probability drift of the f16-loaded plan vs
    /// the f32-loaded plan on the probe batch.
    pub f16_prob_drift: f64,
    /// Same for the i8-loaded plan.
    pub i8_prob_drift: f64,
}

/// Cold-start timings (medians over repetitions).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ColdStartTimings {
    /// Booting the ensemble plan from `MNE1` artifact bytes,
    /// milliseconds (zero-init restore path).
    pub artifact_boot_ms: f64,
    /// Constructing every bench-ensemble network via `Network::zeroed`,
    /// milliseconds.
    pub zero_init_ms: f64,
    /// Constructing every bench-ensemble network via `Network::seeded`
    /// (Box–Muller sampling that a restore would immediately overwrite),
    /// milliseconds.
    pub seeded_init_ms: f64,
}

impl ColdStartTimings {
    /// Sampling cost eliminated by the zero-init restore path.
    pub fn init_speedup(&self) -> f64 {
        self.seeded_init_ms / self.zero_init_ms.max(1e-9)
    }
}

/// The full serving-bench report (saved as `results/serving.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServingBenchResult {
    /// Worker threads available to the engine.
    pub threads: usize,
    /// Ensemble members served.
    pub members: usize,
    /// Single-example requests answered per shard-sweep entry.
    pub requests: u64,
    /// Closed-loop client threads that issued them.
    pub clients: usize,
    /// Micro-batcher bound: max examples per engine call.
    pub max_batch: usize,
    /// Micro-batcher bound: max microseconds a batch stays open.
    pub max_wait_us: u64,
    /// Requests per second of the single-shard configuration (the
    /// baseline; the full curve is in `shard_sweep`).
    pub throughput_rps: f64,
    /// Single-shard median end-to-end request latency, milliseconds.
    pub p50_ms: f64,
    /// Single-shard 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Single-shard mean examples per engine call.
    pub mean_batch: f64,
    /// Cold-start timings and the zero-init construction win.
    pub cold_start: ColdStartTimings,
    /// Closed-loop measurements per shard count (1, 2, 4).
    pub shard_sweep: Vec<ShardSweepEntry>,
    /// Engine-level throughput of each parallelism policy on a large
    /// batch.
    pub policies: Vec<PolicyThroughput>,
    /// Trunk-shared vs flat execution on a deep-shared-trunk ensemble.
    pub trunk_sharing: TrunkSharingResult,
    /// Uncertainty-gated cascade vs flat execution on skewed traffic.
    pub cascade: CascadeServingResult,
    /// Goodput across an injected worker panic and supervised respawn.
    pub worker_kill: WorkerKillResult,
    /// Quantized-artifact footprint and served-probability drift.
    pub quantization: QuantizationResult,
}

impl ServingBenchResult {
    /// Renders the report as fixed-width tables.
    pub fn table(&self) -> String {
        let sweep_rows: Vec<Vec<String>> = self
            .shard_sweep
            .iter()
            .map(|e| {
                vec![
                    format!("{}", e.shards),
                    format!("{}", self.requests),
                    format!("{}", self.clients),
                    format!("{:.0}", e.throughput_rps),
                    format!("{:.2}", e.p50_ms),
                    format!("{:.2}", e.p99_ms),
                    format!("{:.1}", e.mean_batch),
                ]
            })
            .collect();
        let mut out = render_table(
            &[
                "shards",
                "requests",
                "clients",
                "req/s",
                "p50 ms",
                "p99 ms",
                "mean batch",
            ],
            &sweep_rows,
        );
        out.push('\n');
        out.push_str(&render_table(
            &["cold start", "ms"],
            &[
                vec![
                    "artifact boot".to_string(),
                    format!("{:.3}", self.cold_start.artifact_boot_ms),
                ],
                vec![
                    "zero-init nets".to_string(),
                    format!("{:.3}", self.cold_start.zero_init_ms),
                ],
                vec![
                    "seeded nets".to_string(),
                    format!("{:.3}", self.cold_start.seeded_init_ms),
                ],
            ],
        ));
        let policy_rows: Vec<Vec<String>> = self
            .policies
            .iter()
            .map(|p| vec![p.policy.clone(), format!("{:.0}", p.examples_per_sec)])
            .collect();
        out.push('\n');
        out.push_str(&render_table(
            &["engine policy", "examples/s"],
            &policy_rows,
        ));
        let t = &self.trunk_sharing;
        out.push('\n');
        out.push_str(&render_table(
            &["trunk sharing", "value"],
            &[
                vec![
                    "trunk nodes".to_string(),
                    format!("{}/{}", t.trunk_len, t.member_nodes),
                ],
                vec![
                    "shared params".to_string(),
                    format!("{:.1}%", t.shared_params_fraction * 100.0),
                ],
                vec![
                    "flat examples/s".to_string(),
                    format!("{:.0}", t.flat_examples_per_sec),
                ],
                vec![
                    "trunk examples/s".to_string(),
                    format!("{:.0}", t.trunk_examples_per_sec),
                ],
                vec!["speedup".to_string(), format!("{:.2}x", t.speedup)],
            ],
        ));
        let c = &self.cascade;
        out.push('\n');
        out.push_str(&render_table(
            &["cascade (1 thread)", "value"],
            &[
                vec![
                    "gate metric".to_string(),
                    format!("{} @ {:.3}", c.metric, c.threshold),
                ],
                vec![
                    "easy traffic".to_string(),
                    format!("{:.1}%", c.easy_fraction * 100.0),
                ],
                vec![
                    "early exits".to_string(),
                    format!("{:.1}%", c.early_exit_rate * 100.0),
                ],
                vec![
                    "label mismatch".to_string(),
                    format!("{:.2}%", c.label_mismatch_rate * 100.0),
                ],
                vec![
                    "flat examples/s".to_string(),
                    format!("{:.0}", c.flat_examples_per_sec),
                ],
                vec![
                    "cascade examples/s".to_string(),
                    format!("{:.0}", c.cascade_examples_per_sec),
                ],
                vec!["speedup".to_string(), format!("{:.2}x", c.speedup)],
            ],
        ));
        let w = &self.worker_kill;
        out.push('\n');
        out.push_str(&render_table(
            &["worker kill", "value"],
            &[
                vec!["shards".to_string(), format!("{}", w.shards)],
                vec![
                    "pre-kill req/s".to_string(),
                    format!("{:.0}", w.pre_kill_rps),
                ],
                vec![
                    "post-kill req/s".to_string(),
                    format!("{:.0}", w.post_kill_rps),
                ],
                vec![
                    "recovery ratio".to_string(),
                    format!("{:.2}x", w.recovery_ratio),
                ],
                vec!["recovery ms".to_string(), format!("{:.2}", w.recovery_ms)],
                vec![
                    "killed requests".to_string(),
                    format!("{}", w.killed_requests),
                ],
                vec![
                    "panics/restarts".to_string(),
                    format!("{}/{}", w.worker_panics, w.restarts),
                ],
            ],
        ));
        let q = &self.quantization;
        out.push('\n');
        out.push_str(&render_table(
            &["quantized artifact", "bytes", "ratio", "prob drift"],
            &[
                vec![
                    "f32".to_string(),
                    format!("{}", q.f32_artifact_bytes),
                    "1.00x".to_string(),
                    "0".to_string(),
                ],
                vec![
                    "f16".to_string(),
                    format!("{}", q.f16_artifact_bytes),
                    format!("{:.2}x", q.f16_ratio),
                    format!("{:.2e}", q.f16_prob_drift),
                ],
                vec![
                    "i8".to_string(),
                    format!("{}", q.i8_artifact_bytes),
                    format!("{:.2}x", q.i8_ratio),
                    format!("{:.2e}", q.i8_prob_drift),
                ],
                vec![
                    "resident f32".to_string(),
                    format!("{}", q.resident_param_bytes),
                    "-".to_string(),
                    "-".to_string(),
                ],
            ],
        ));
        out
    }
}

/// Sorted-percentile over latencies in milliseconds.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Engine examples/second on `x` under `policy`, median of `reps` calls
/// (the shared helper's warm-up call also fills workspaces / replica
/// lanes).
fn policy_examples_per_sec(
    engine: &mut EngineSession,
    policy: ExecPolicy,
    x: &Tensor,
    reps: usize,
) -> f64 {
    engine.set_policy(policy);
    let ms = median_ms(reps, || {
        std::hint::black_box(engine.predict(x));
    });
    x.shape().dim(0) as f64 / (ms / 1000.0)
}

/// Cold-start timings; asserts the zero-init construction path is
/// actually cheaper than sampling a random init that restore would
/// overwrite.
fn measure_cold_start(
    bytes: &[u8],
    archs: &[mn_nn::arch::Architecture],
    reps: usize,
) -> ColdStartTimings {
    let reps = reps.max(5);
    let artifact_boot_ms = median_ms(reps, || {
        std::hint::black_box(EnginePlan::from_artifact_bytes(bytes, 32).expect("artifact boots"));
    });
    let zero_init_ms = median_ms(reps, || {
        for arch in archs {
            std::hint::black_box(Network::zeroed(arch));
        }
    });
    let seeded_init_ms = median_ms(reps, || {
        for (s, arch) in archs.iter().enumerate() {
            std::hint::black_box(Network::seeded(arch, s as u64));
        }
    });
    let timings = ColdStartTimings {
        artifact_boot_ms,
        zero_init_ms,
        seeded_init_ms,
    };
    // The point of the zero-init path: restore targets skip Box–Muller
    // sampling entirely, so construction must be measurably cheaper.
    assert!(
        timings.zero_init_ms < timings.seeded_init_ms,
        "zero-init construction ({:.3} ms) should beat random init ({:.3} ms)",
        timings.zero_init_ms,
        timings.seeded_init_ms
    );
    timings
}

/// The trunk-sharing scenario: an 8-member ensemble whose members are
/// head-perturbed clones of one deep convolutional base — the shape a
/// MotherNets hatch produces (shared conv trunk, divergent classifier).
fn deep_trunk_members() -> Vec<EnsembleMember> {
    let arch = Architecture::plain(
        "trunked",
        InputSpec::new(3, 8, 8),
        10,
        vec![
            ConvBlockSpec::repeated(3, 8, 2),
            ConvBlockSpec::repeated(3, 8, 2),
        ],
        vec![16],
    );
    let base = Network::seeded(&arch, 77);
    (0..8)
        .map(|s| {
            let mut net = base.clone();
            match net.nodes_mut().last_mut() {
                Some(LayerNode::Dense(l)) => {
                    for w in l.weight.value.data_mut() {
                        *w += (s as f32 + 1.0) * 0.01;
                    }
                }
                other => panic!("expected a dense head, got {other:?}"),
            }
            EnsembleMember::new(format!("t{s}"), net)
        })
        .collect()
}

/// Measures flat vs trunk-shared throughput on the deep-trunk ensemble,
/// asserting first that the plan detected the trunk and that both paths
/// produce bitwise-identical output.
fn measure_trunk_sharing(reps: usize) -> TrunkSharingResult {
    let plan = EnginePlan::new(deep_trunk_members(), 32)
        .expect("trunked ensemble builds")
        .into_shared();
    assert!(
        plan.shares_trunk(),
        "deep-trunk bench ensemble must share a parameterized trunk"
    );
    let trunk_len = plan.trunk_len();
    let nodes = plan.members()[0].network.nodes();
    let member_nodes = nodes.len();
    let params_in = |nodes: &[LayerNode]| -> usize {
        nodes
            .iter()
            .map(|n| {
                let mut count = 0usize;
                n.visit_state(&mut |t| count += t.len());
                count
            })
            .sum()
    };
    let shared_params_fraction =
        params_in(&nodes[..trunk_len]) as f64 / params_in(nodes).max(1) as f64;

    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::randn([256, 3, 8, 8], 1.0, &mut rng);
    let mut engine = plan.session();
    let trunk_policy = ExecPolicy::TrunkShared {
        shards: rayon::current_num_threads(),
    };
    // Correctness gate before timing anything: the two paths must agree
    // bit for bit.
    engine.set_policy(ExecPolicy::MemberParallel);
    let flat_out = engine.predict(&x);
    engine.set_policy(trunk_policy);
    let trunk_out = engine.predict(&x);
    for (m, (a, b)) in flat_out.probs().iter().zip(trunk_out.probs()).enumerate() {
        assert_eq!(
            a.data(),
            b.data(),
            "member {m}: trunk-shared output diverged from flat"
        );
    }

    let flat = policy_examples_per_sec(&mut engine, ExecPolicy::MemberParallel, &x, reps);
    let trunk = policy_examples_per_sec(&mut engine, trunk_policy, &x, reps);
    TrunkSharingResult {
        members: plan.num_members(),
        member_nodes,
        trunk_len,
        shared_params_fraction,
        flat_examples_per_sec: flat,
        trunk_examples_per_sec: trunk,
        speedup: trunk / flat.max(1e-9),
    }
}

/// The cascade scenario ensemble: the deep-trunk architecture with
/// *genuinely diverged* classifier heads (multiplicative noise per
/// member), so the gate can actually disagree with the full ensemble on
/// hard examples — a uniform additive head shift would cancel under
/// softmax and make every member identical.
fn cascade_members() -> Vec<EnsembleMember> {
    let arch = Architecture::plain(
        "cascaded",
        InputSpec::new(3, 8, 8),
        10,
        vec![
            ConvBlockSpec::repeated(3, 8, 2),
            ConvBlockSpec::repeated(3, 8, 2),
        ],
        vec![16],
    );
    let base = Network::seeded(&arch, 78);
    (0..8)
        .map(|s| {
            let mut net = base.clone();
            let mut rng = StdRng::seed_from_u64(900 + s as u64);
            match net.nodes_mut().last_mut() {
                Some(LayerNode::Dense(l)) => {
                    for w in l.weight.value.data_mut() {
                        *w *= 1.0 + rng.gen_range(-0.15..0.15f32);
                    }
                }
                other => panic!("expected a dense head, got {other:?}"),
            }
            EnsembleMember::new(format!("c{s}"), net)
        })
        .collect()
}

/// A skewed traffic batch: mostly easy examples (large-magnitude inputs
/// that saturate the softmax) with an interleaved hard minority
/// (near-zero inputs whose logits land near uniform). Returns the batch
/// and the realized easy fraction.
fn skewed_batch(n: usize, seed: u64) -> (Tensor, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let row = 3 * 8 * 8;
    let mut data = Vec::with_capacity(n * row);
    let mut easy = 0usize;
    for i in 0..n {
        // Every 7th request is hard -> ~86% easy traffic, interleaved the
        // way a live request stream would be.
        let scale = if i % 7 == 3 {
            0.05
        } else {
            easy += 1;
            6.0
        };
        let x = Tensor::randn([row], scale, &mut rng);
        data.extend_from_slice(x.data());
    }
    (
        Tensor::from_vec([n, 3, 8, 8], data),
        easy as f64 / n.max(1) as f64,
    )
}

/// Scored-prediction examples/second under `policy` (cascade plans only
/// run through `predict_scored`; the flat baseline uses the same entry
/// point so both sides pay the same annotation cost).
fn scored_examples_per_sec(
    session: &mut EngineSession,
    policy: ExecPolicy,
    x: &Tensor,
    reps: usize,
) -> f64 {
    session.set_policy(policy);
    let ms = median_ms(reps, || {
        std::hint::black_box(session.predict_scored(x));
    });
    x.shape().dim(0) as f64 / (ms / 1000.0)
}

/// Calibrates and measures the uncertainty-gated cascade against the
/// flat full ensemble on skewed traffic, inside a single-thread pool
/// (see [`CascadeServingResult`] for why single-thread).
///
/// Asserts that calibration found a usable threshold and that the
/// cascade actually exited early on the easy majority — a zero exit
/// rate would mean the scenario is measuring nothing.
fn measure_cascade(reps: usize) -> CascadeServingResult {
    let plan = EnginePlan::new(cascade_members(), 32)
        .expect("cascade ensemble builds")
        .into_shared();
    assert!(
        plan.shares_trunk(),
        "cascade bench ensemble must share a trunk so the gate reuses it"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread bench pool builds");
    pool.install(|| {
        let (cal_x, _) = skewed_batch(128, 41);
        let (x, easy_fraction) = skewed_batch(256, 42);
        let min_agreement = 0.98;
        let mut session = plan.session();
        let calibration = calibrate(&mut session, &cal_x, Confidence::MaxProb, min_agreement);
        let policy = calibration.policy;
        assert!(
            policy.threshold > 0.0,
            "calibration found no separable confident prefix on the skewed batch"
        );

        // Accuracy cost: cascade labels vs the flat full-ensemble labels.
        session.set_policy(ExecPolicy::MemberParallel);
        let flat_labels = session.predict_scored(&x).labels();
        session.set_policy(ExecPolicy::Cascade(policy));
        let scored = session.predict_scored(&x);
        let early_exit_rate = scored.early_exit_rate();
        assert!(
            early_exit_rate > 0.0,
            "cascade never exited early on mostly-easy traffic"
        );
        let n = flat_labels.len();
        let mismatches = flat_labels
            .iter()
            .zip(scored.labels())
            .filter(|(a, b)| *a != b)
            .count();

        let flat = scored_examples_per_sec(&mut session, ExecPolicy::MemberParallel, &x, reps);
        let casc = scored_examples_per_sec(&mut session, ExecPolicy::Cascade(policy), &x, reps);
        CascadeServingResult {
            members: plan.num_members(),
            metric: policy.metric.label().to_string(),
            threshold: policy.threshold as f64,
            easy_fraction,
            min_agreement,
            early_exit_rate,
            label_mismatch_rate: mismatches as f64 / n.max(1) as f64,
            flat_examples_per_sec: flat,
            cascade_examples_per_sec: casc,
            speedup: casc / flat.max(1e-9),
        }
    })
}

/// Closed-loop single-example clients against a sharded server over the
/// shared plan; panics if the server drops a request.
fn closed_loop(
    plan: &std::sync::Arc<EnginePlan>,
    shards: usize,
    cfg: BatchingConfig,
    per_client: usize,
    clients: usize,
) -> ShardSweepEntry {
    let server = Server::builder(std::sync::Arc::clone(plan))
        .shards(shards)
        .batching(cfg)
        .start();
    let total = per_client * clients;
    let started = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let x = Tensor::randn([3, 8, 8], 1.0, &mut rng);
                        let prediction = client
                            .submit(&x)
                            .expect("closed-loop client stays under the queue bound")
                            .wait()
                            .expect("server answers before shutdown");
                        lat.push(prediction.latency.as_secs_f64() * 1000.0);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread exits cleanly"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let report = server.shutdown();
    assert_eq!(
        report.aggregate.requests, total as u64,
        "server dropped requests at {shards} shard(s)"
    );
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ShardSweepEntry {
        shards,
        throughput_rps: total as f64 / wall,
        p50_ms: percentile_ms(&latencies_ms, 50.0),
        p99_ms: percentile_ms(&latencies_ms, 99.0),
        mean_batch: report.aggregate.mean_batch(),
    }
}

/// Closed-loop goodput against an already-running server: successful
/// answers per second, tolerating typed losses (a killed worker's
/// in-flight requests resolve to [`ServeError::WorkerGone`]).
fn goodput_rps(server: &Server, clients: usize, per_client: usize, seed: u64) -> (f64, u64) {
    let started = Instant::now();
    let ok: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + c as u64);
                    let mut ok = 0u64;
                    for _ in 0..per_client {
                        let x = Tensor::randn([3, 8, 8], 1.0, &mut rng);
                        match client.submit(&x) {
                            Ok(pending) => {
                                if pending.wait().is_ok() {
                                    ok += 1;
                                }
                            }
                            Err(ServeError::Overloaded { .. }) => {}
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread exits cleanly"))
            .sum()
    });
    let wall = started.elapsed().as_secs_f64();
    (ok as f64 / wall, ok)
}

/// Kills one worker mid-traffic with a one-shot injected panic at the
/// queue-pop failpoint, then measures how the supervised server recovers:
/// goodput before vs after, and the time from the kill to the first
/// successful answer. Asserts the panic fired, that the supervisor
/// respawned the shard, and that every request resolved to a typed
/// outcome.
fn measure_worker_kill(
    plan: &std::sync::Arc<EnginePlan>,
    clients: usize,
    per_client: usize,
) -> WorkerKillResult {
    let shards = 2;
    let server = Server::builder(std::sync::Arc::clone(plan))
        .shards(shards)
        .batching(BatchingConfig::default())
        .restart_budget(4)
        .restart_backoff(std::time::Duration::from_millis(1))
        .start();

    let (pre_kill_rps, pre_ok) = goodput_rps(&server, clients, per_client, 2000);
    assert!(pre_ok > 0, "pre-kill phase must answer requests");

    // The kill: the next queue pop panics the worker that performs it.
    let scope = faults::scope();
    scope.enable_times(faults::sites::QUEUE_POP, FaultAction::Panic, 1);
    let kill_at = Instant::now();
    let mut killed_requests = 0u64;
    let mut rng = StdRng::seed_from_u64(3000);
    let recovery_ms = loop {
        let x = Tensor::randn([3, 8, 8], 1.0, &mut rng);
        match server
            .submit(&x)
            .expect("kill-phase submits stay under the queue bound")
            .wait()
        {
            Ok(_) if faults::fired(faults::sites::QUEUE_POP) >= 1 => {
                break kill_at.elapsed().as_secs_f64() * 1000.0;
            }
            Ok(_) => {} // the armed pop hasn't happened yet; keep driving
            Err(ServeError::WorkerGone) => killed_requests += 1,
            Err(e) => panic!("unexpected kill-phase outcome: {e}"),
        }
    };
    drop(scope);

    let (post_kill_rps, post_ok) = goodput_rps(&server, clients, per_client, 4000);
    assert!(post_ok > 0, "post-kill phase must answer requests");

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 1, "exactly the injected panic fired");
    assert_eq!(report.restarts, 1, "the supervisor respawned the shard");
    WorkerKillResult {
        shards,
        pre_kill_rps,
        post_kill_rps,
        recovery_ratio: post_kill_rps / pre_kill_rps.max(1e-9),
        recovery_ms,
        killed_requests,
        worker_panics: report.worker_panics,
        restarts: report.restarts,
    }
}

/// The quantization scenario: saves the plan under every
/// [`WeightEncoding`], records artifact bytes and resident weight
/// footprint, then boots each quantized artifact and measures the
/// served-probability drift against the full-precision plan.
///
/// # Panics
///
/// Panics when the `i8` artifact exceeds 0.30x the `f32` bytes or a
/// quantized artifact fails to boot/serve — footprint and loadability
/// are the contract, not noise.
fn measure_quantization(
    plan: &std::sync::Arc<EnginePlan>,
    f32_bytes: &[u8],
    probe: &Tensor,
) -> QuantizationResult {
    let manifest = EnsembleManifest::default();
    let f16_bytes = plan
        .to_artifact_bytes_quantized(&manifest, WeightEncoding::F16)
        .expect("bench weights are finite");
    let i8_bytes = plan
        .to_artifact_bytes_quantized(&manifest, WeightEncoding::I8)
        .expect("bench weights are finite");
    let f16_ratio = f16_bytes.len() as f64 / f32_bytes.len() as f64;
    let i8_ratio = i8_bytes.len() as f64 / f32_bytes.len() as f64;
    assert!(
        i8_ratio <= 0.30,
        "i8 artifact is {i8_ratio:.3}x the f32 bytes (contract: <= 0.30x)"
    );
    let reference = plan.session().predict_average(probe);
    let drift = |bytes: &[u8]| -> f64 {
        let served = EnginePlan::from_artifact_bytes(bytes, 32)
            .expect("quantized artifact boots")
            .into_shared()
            .session()
            .predict_average(probe);
        mn_tensor::max_abs_diff(reference.data(), served.data()) as f64
    };
    let f16_prob_drift = drift(&f16_bytes);
    let i8_prob_drift = drift(&i8_bytes);
    QuantizationResult {
        f32_artifact_bytes: f32_bytes.len() as u64,
        f16_artifact_bytes: f16_bytes.len() as u64,
        i8_artifact_bytes: i8_bytes.len() as u64,
        f16_ratio,
        i8_ratio,
        resident_param_bytes: plan.param_bytes() as u64,
        f16_prob_drift,
        i8_prob_drift,
    }
}

/// Runs the save → load → serve smoke plus all measurements.
///
/// # Panics
///
/// Panics when the artifact round trip is not bitwise exact, when the
/// zero-init construction path is not cheaper than random init, or when
/// the server drops a request — all correctness failures, not noise.
pub fn run(requests: usize, clients: usize, reps: usize) -> ServingBenchResult {
    let members = bench_ensemble_members();
    let num_members = members.len();
    let direct_plan = EnginePlan::new(members, 32)
        .expect("bench ensemble builds")
        .into_shared();
    let mut direct = direct_plan.session();

    // --- save → load: cold start must be bitwise exact ---
    let bytes = direct_plan.to_artifact_bytes(&EnsembleManifest::default());
    let loaded_plan = EnginePlan::from_artifact_bytes(&bytes, 32)
        .expect("artifact round trip")
        .into_shared();
    let mut loaded = loaded_plan.session();
    let mut rng = StdRng::seed_from_u64(99);
    let probe = Tensor::randn([16, 3, 8, 8], 1.0, &mut rng);
    let a = direct.predict(&probe);
    let b = loaded.predict(&probe);
    for (m, (pa, pb)) in a.probs().iter().zip(b.probs()).enumerate() {
        assert_eq!(
            pa.data(),
            pb.data(),
            "member {m}: loaded plan diverged from in-memory plan"
        );
    }
    drop(loaded);

    // --- cold start: artifact boot + zero-init vs seeded construction ---
    // (architectures come from the loaded plan — no need to build another
    // fully-sampled ensemble just to read them)
    let archs: Vec<_> = loaded_plan
        .members()
        .iter()
        .map(|m| m.network.arch().clone())
        .collect();
    let cold_start = measure_cold_start(&bytes, &archs, reps);

    // --- shard sweep: 1, 2, 4 worker shards over ONE shared plan ---
    // The requested count is rounded up here, once, to an even per-client
    // share; closed_loop and the report both derive from it.
    let cfg = BatchingConfig::default();
    let clients = clients.max(1);
    let per_client = requests.div_ceil(clients);
    let total = per_client * clients;
    let shard_sweep: Vec<ShardSweepEntry> = [1usize, 2, 4]
        .iter()
        .map(|&s| closed_loop(&loaded_plan, s, cfg, per_client, clients))
        .collect();
    let baseline = shard_sweep[0].clone();

    // --- engine policy sweep on a large batch ---
    let sweep = Tensor::randn([256, 3, 8, 8], 1.0, &mut rng);
    let mut engine = loaded_plan.session();
    let threads = rayon::current_num_threads();
    let policies = vec![
        PolicyThroughput {
            policy: "member-parallel".to_string(),
            examples_per_sec: policy_examples_per_sec(
                &mut engine,
                ExecPolicy::MemberParallel,
                &sweep,
                reps,
            ),
        },
        PolicyThroughput {
            policy: "data-parallel".to_string(),
            examples_per_sec: policy_examples_per_sec(
                &mut engine,
                ExecPolicy::DataParallel { shards: threads },
                &sweep,
                reps,
            ),
        },
        PolicyThroughput {
            policy: "auto".to_string(),
            examples_per_sec: policy_examples_per_sec(&mut engine, ExecPolicy::Auto, &sweep, reps),
        },
    ];

    // --- trunk sharing: flat vs shared-prefix execution ---
    let trunk_sharing = measure_trunk_sharing(reps);

    // --- cascade: uncertainty-gated early exit on skewed traffic ---
    let cascade = measure_cascade(reps);

    // --- worker kill: goodput across a supervised panic + respawn ---
    let worker_kill = measure_worker_kill(&loaded_plan, clients, per_client);

    // --- quantized artifacts: footprint + served-probability drift ---
    let quantization = measure_quantization(&loaded_plan, &bytes, &probe);

    ServingBenchResult {
        threads,
        members: num_members,
        requests: total as u64,
        clients,
        max_batch: cfg.max_batch,
        max_wait_us: cfg.max_wait.as_micros() as u64,
        throughput_rps: baseline.throughput_rps,
        p50_ms: baseline.p50_ms,
        p99_ms: baseline.p99_ms,
        mean_batch: baseline.mean_batch,
        cold_start,
        shard_sweep,
        policies,
        trunk_sharing,
        cascade,
        worker_kill,
        quantization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_renders() {
        let result = ServingBenchResult {
            threads: 4,
            members: 8,
            requests: 100,
            clients: 2,
            max_batch: 64,
            max_wait_us: 2000,
            throughput_rps: 1234.5,
            p50_ms: 1.5,
            p99_ms: 9.75,
            mean_batch: 6.5,
            cold_start: ColdStartTimings {
                artifact_boot_ms: 2.0,
                zero_init_ms: 0.5,
                seeded_init_ms: 2.5,
            },
            shard_sweep: vec![ShardSweepEntry {
                shards: 2,
                throughput_rps: 2000.0,
                p50_ms: 1.0,
                p99_ms: 4.0,
                mean_batch: 5.0,
            }],
            policies: vec![PolicyThroughput {
                policy: "auto".into(),
                examples_per_sec: 9999.0,
            }],
            trunk_sharing: TrunkSharingResult {
                members: 8,
                member_nodes: 18,
                trunk_len: 17,
                shared_params_fraction: 0.94,
                flat_examples_per_sec: 1000.0,
                trunk_examples_per_sec: 4000.0,
                speedup: 4.0,
            },
            cascade: CascadeServingResult {
                members: 8,
                metric: "max-prob".into(),
                threshold: 0.4,
                easy_fraction: 0.86,
                min_agreement: 0.98,
                early_exit_rate: 0.85,
                label_mismatch_rate: 0.01,
                flat_examples_per_sec: 500.0,
                cascade_examples_per_sec: 2000.0,
                speedup: 4.0,
            },
            worker_kill: WorkerKillResult {
                shards: 2,
                pre_kill_rps: 1000.0,
                post_kill_rps: 950.0,
                recovery_ratio: 0.95,
                recovery_ms: 12.5,
                killed_requests: 1,
                worker_panics: 1,
                restarts: 1,
            },
            quantization: QuantizationResult {
                f32_artifact_bytes: 1000,
                f16_artifact_bytes: 510,
                i8_artifact_bytes: 265,
                f16_ratio: 0.51,
                i8_ratio: 0.265,
                resident_param_bytes: 980,
                f16_prob_drift: 1.2e-4,
                i8_prob_drift: 3.4e-3,
            },
        };
        let json = serde_json::to_string(&result).unwrap();
        let back: ServingBenchResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests, 100);
        assert_eq!(back.policies[0].policy, "auto");
        assert_eq!(back.shard_sweep[0].shards, 2);
        assert!((back.cold_start.init_speedup() - 5.0).abs() < 1e-9);
        assert_eq!(back.trunk_sharing.trunk_len, 17);
        assert_eq!(back.cascade.metric, "max-prob");
        assert!((back.cascade.speedup - 4.0).abs() < 1e-9);
        let table = result.table();
        assert!(table.contains("p99"));
        assert!(table.contains("auto"));
        assert!(table.contains("zero-init"));
        assert!(table.contains("trunk"));
        assert!(table.contains("cascade"));
        assert!(table.contains("early exits"));
        assert!(table.contains("worker kill"));
        assert!(table.contains("recovery ratio"));
        assert!((back.worker_kill.recovery_ratio - 0.95).abs() < 1e-9);
        assert!(table.contains("quantized artifact"));
        assert!(table.contains("resident f32"));
        assert!((back.quantization.i8_ratio - 0.265).abs() < 1e-9);
    }

    #[test]
    fn percentiles_pick_sorted_positions() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_ms(&sorted, 50.0), 3.0);
        assert_eq!(percentile_ms(&sorted, 100.0), 5.0);
        assert_eq!(percentile_ms(&sorted, 0.0), 1.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn smoke_run_save_load_serve() {
        // Small but end-to-end: exercises the bitwise round-trip assert,
        // the cold-start assert, the shard sweep, and the policy sweep.
        let result = run(24, 2, 1);
        assert_eq!(result.requests, 24);
        assert!(result.throughput_rps > 0.0);
        assert!(result.p99_ms >= result.p50_ms);
        assert_eq!(result.shard_sweep.len(), 3);
        assert_eq!(
            result
                .shard_sweep
                .iter()
                .map(|e| e.shards)
                .collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        for e in &result.shard_sweep {
            assert!(e.throughput_rps > 0.0, "{e:?}");
        }
        assert!(result.cold_start.zero_init_ms < result.cold_start.seeded_init_ms);
        assert_eq!(result.policies.len(), 3);
        for p in &result.policies {
            assert!(p.examples_per_sec > 0.0, "{p:?}");
        }
        // The trunk scenario detected a deep shared prefix (the bitwise
        // flat-vs-trunk agreement is asserted inside the measurement);
        // speedup itself is only pinned in the release-mode CI gate.
        let t = &result.trunk_sharing;
        assert_eq!(t.members, 8);
        assert!(t.trunk_len > 0 && t.trunk_len < t.member_nodes);
        assert!(t.shared_params_fraction > 0.5, "{t:?}");
        assert!(t.flat_examples_per_sec > 0.0 && t.trunk_examples_per_sec > 0.0);
        // The cascade scenario calibrated a usable threshold and exited
        // early on the easy majority (both asserted inside the
        // measurement); the >= 1.2x speedup itself is the release-mode
        // CI gate's job.
        let c = &result.cascade;
        assert_eq!(c.members, 8);
        assert!(c.threshold > 0.0 && c.early_exit_rate > 0.0, "{c:?}");
        assert!(c.easy_fraction > 0.5, "{c:?}");
        assert!(c.flat_examples_per_sec > 0.0 && c.cascade_examples_per_sec > 0.0);
        // The worker-kill scenario recorded exactly the injected panic
        // and its respawn (asserted inside the measurement); the ≥ 0.9x
        // goodput-recovery floor is the release-mode CI gate's job.
        let w = &result.worker_kill;
        assert_eq!(w.worker_panics, 1);
        assert_eq!(w.restarts, 1);
        assert!(w.pre_kill_rps > 0.0 && w.post_kill_rps > 0.0);
        assert!(w.recovery_ms >= 0.0);
        // The quantization scenario hit its footprint contract (the
        // i8 ≤ 0.30x assert lives inside the measurement) and served
        // within sane drift of full precision.
        let q = &result.quantization;
        assert!(q.f16_ratio > 0.4 && q.f16_ratio <= 0.55, "{q:?}");
        assert!(q.i8_ratio > 0.2 && q.i8_ratio <= 0.30, "{q:?}");
        assert!(q.resident_param_bytes > 0);
        assert!(q.f16_prob_drift > 0.0 && q.f16_prob_drift < 0.05, "{q:?}");
        assert!(q.i8_prob_drift > 0.0 && q.i8_prob_drift < 0.25, "{q:?}");
        assert!(q.f16_prob_drift <= q.i8_prob_drift, "{q:?}");
    }
}
