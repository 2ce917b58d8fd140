//! `score_offline`: bare `EngineSession`s scoring 256-example batches, no
//! server anywhere. Four passes execute every plan variant:
//!
//! * (a) the trunk ensemble under `Auto` (resolves to trunk-shared),
//! * (b) the diverse ensemble under `Auto` (resolves to a flat plan),
//! * (c) the diverse ensemble under a `Cascade` on skewed traffic,
//! * (d) the diverse ensemble under `Auto` again, on every CPU the process
//!   was started with and a compute pool of that many threads — the only
//!   timed work in the benchmark that leaves the one pinned CPU, so that
//!   the engine's parallel fan-out is in a gated number.
//!
//! Passes are interleaved rep by rep (a, b, c, d, a, b, c, d, …) so slow
//! machine drift lands on all four. Then the diverse ensemble is written
//! as an artifact and cold-started from the bytes.

use std::sync::Arc;

use mn_ensemble::{
    calibrate, CascadePolicy, Confidence, EnginePlan, EngineSession, EnsembleManifest,
    EnsembleMember, ExecPolicy,
};
use mn_tensor::{ops, Tensor};

use crate::config::RunConfig;
use crate::env;
use crate::inputs::{self, Pool, PLAN_BATCH};
use crate::metrics::Outcome;
use crate::probes;
use crate::reference::{self, Reference};
use crate::stats::{median, percentile, repeat_set_up};
use crate::trace::Tracer;

/// Set-up repetitions (see `repeat_set_up`).
const SETUPS: usize = 5;

const BATCH: usize = 256;
/// Examples per repetition at the nominal run length: pass (a), and each
/// of passes (b), (c) and (d).
const TRUNK_EXAMPLES: usize = 32_768;
const DIVERSE_EXAMPLES: usize = 4_096;

struct Pass {
    span: &'static str,
    /// The per-layer metric this pass's examples per second go under.
    eps_metric: &'static str,
    session: EngineSession,
    scored: bool,
    /// Runs on every allowed CPU with the machine-sized pool (pass (d)).
    parallel: bool,
    pool: Pool,
    /// The pool cut into 256-example batches, ahead of the clock.
    inputs: Vec<Tensor>,
    reference: Reference,
    /// Batches per repetition; batch `i` is `inputs[i % inputs.len()]`.
    batches: usize,
    /// Per repetition: seconds inside the engine, summed over its batches.
    rep_s: Vec<f64>,
    /// Process CPU seconds over all repetitions.
    cpu_s: f64,
    batch_ms: Vec<f64>,
    wrong_bits: u64,
    wrong_label: u64,
    early_exits: u64,
    drift: f64,
}

impl Pass {
    fn new(
        span: &'static str,
        eps_metric: &'static str,
        session: EngineSession,
        scored: bool,
        pool: Pool,
        batches: usize,
    ) -> Pass {
        Pass {
            span,
            eps_metric,
            session,
            scored,
            parallel: false,
            inputs: (0..pool.len() / BATCH)
                .map(|b| pool.slice(b * BATCH, BATCH))
                .collect(),
            pool,
            // Filled in after set-up: computing the reference is the
            // benchmark's own work, not the system's.
            reference: Reference {
                probs: Vec::new(),
                labels: Vec::new(),
                classes: inputs::CLASSES,
            },
            batches,
            rep_s: Vec::new(),
            cpu_s: 0.0,
            batch_ms: Vec::new(),
            wrong_bits: 0,
            wrong_label: 0,
            early_exits: 0,
            drift: 0.0,
        }
    }

    /// Runs `f` where this pass runs: on the one pinned CPU, or (pass (d))
    /// on every allowed CPU with the machine-sized pool.
    fn on_its_cpus<T>(&mut self, f: impl FnOnce(&mut Pass) -> T) -> T {
        if self.parallel {
            env::on_all_cpus(|| f(self))
        } else {
            f(self)
        }
    }

    /// One batch through the session: the answer and how many examples
    /// exited early.
    fn predict(&mut self, x: &Tensor) -> (Tensor, u64) {
        predict(&mut self.session, self.scored, x)
    }

    /// One repetition: every batch through the session. Only the calls
    /// into the engine are on the clocks (wall and CPU); the batches were
    /// cut beforehand and the answers are checked afterwards.
    fn rep(&mut self, rep: usize, tr: &mut Tracer) {
        let s = tr.begin(self.span, rep as u64);
        let mut answers = Vec::with_capacity(self.batches);
        let mut engine_s = 0.0;
        let cpu0 = env::cpu_seconds();
        for b in 0..self.batches {
            let x = &self.inputs[b % self.inputs.len()];
            let id = (rep * self.batches + b) as u64;
            let (session, scored) = (&mut self.session, self.scored);
            let (answer, d) = tr.time("engine.predict", id, || predict(session, scored, x));
            engine_s += d.as_secs_f64();
            self.batch_ms.push(d.as_secs_f64() * 1e3);
            answers.push(answer);
        }
        self.cpu_s += env::cpu_seconds() - cpu0;
        self.rep_s.push(engine_s);
        tr.end(s);
        for (b, (probs, exits)) in answers.iter().enumerate() {
            self.early_exits += exits;
            self.verify((b % self.inputs.len()) * BATCH, probs);
        }
    }

    fn verify(&mut self, row0: usize, probs: &Tensor) {
        let k = self.reference.classes;
        for (i, got) in probs.data().chunks(k).enumerate() {
            let want = self.reference.row(row0 + i);
            if !reference::bits_equal(want, got) {
                self.wrong_bits += 1;
                self.drift = self.drift.max(mn_tensor::max_abs_diff(want, got) as f64);
            }
            if reference::argmax(got) != self.reference.labels[row0 + i] {
                self.wrong_label += 1;
            }
        }
    }

    fn examples(&self) -> u64 {
        (self.batches * BATCH * self.rep_s.len()) as u64
    }

    /// Examples per second at the median repetition time.
    fn eps(&self) -> f64 {
        (self.batches * BATCH) as f64 / median(&self.rep_s)
    }
}

fn predict(session: &mut EngineSession, scored: bool, x: &Tensor) -> (Tensor, u64) {
    if scored {
        let s = session.predict_scored(x);
        let exits = s.escalated.iter().filter(|e| !**e).count() as u64;
        (s.probs, exits)
    } else {
        (session.predict_average(x), 0)
    }
}

struct SetUp {
    passes: Vec<Pass>,
    diverse_plan: Arc<EnginePlan>,
    trunk_plan: Arc<EnginePlan>,
    threshold: f64,
    calibrated_exit_rate: f64,
    plan_build_ms: f64,
}

fn plan_of(members: Vec<EnsembleMember>, tr: &mut Tracer) -> (Arc<EnginePlan>, f64) {
    let (plan, d) = tr.time("engine.plan_build", 0, || {
        EnginePlan::new(members, PLAN_BATCH)
            .expect("the frozen ensembles are servable")
            .into_shared()
    });
    (plan, d.as_secs_f64() * 1e3)
}

/// The gate uncertainty that separates a skewed batch's easy examples
/// (all but every 7th) from its hard ones: the midpoint between the
/// largest easy-side and the smallest hard-side value in sorted order.
fn easy_share_threshold(gate: &EnsembleMember, skewed: &Tensor) -> f32 {
    let mut probs = gate.network.forward_eval(skewed);
    ops::softmax_rows(&mut probs);
    let mut u: Vec<f32> = probs
        .data()
        .chunks(inputs::CLASSES)
        .map(|row| Confidence::MaxProb.uncertainty(row))
        .collect();
    u.sort_by(|a, b| a.partial_cmp(b).expect("uncertainties are finite"));
    let easy = (0..u.len()).filter(|i| i % 7 != 3).count();
    (u[easy - 1] + u[easy]) / 2.0
}

fn set_up(cfg: &RunConfig, tr: &mut Tracer) -> SetUp {
    let s = tr.begin("setup", 0);
    let pool_len = if cfg.quick { BATCH } else { 2048 };
    let (trunk_plan, build_ms) = plan_of(inputs::trunk_members(cfg.seed), tr);
    let (diverse_plan, _) = plan_of(inputs::diverse_members(cfg.seed), tr);

    let skewed = inputs::skewed_pool(cfg.seed, pool_len);
    let mut cascade = diverse_plan.session();
    let calibration_batch = inputs::skewed_pool(inputs::sub_seed(cfg.seed, 40), BATCH).batch;
    let (calibration, _) = tr.time("engine.calibrate", 0, || {
        calibrate(&mut cascade, &calibration_batch, Confidence::MaxProb, 0.98)
    });
    // On these untrained members `calibrate` lands anywhere between 50 %
    // and 100 % early exits depending on the seed, which would make pass
    // (c) — and every number pooled over the passes — differ 2x from seed
    // to seed. Its answer is reported; the pass itself runs at the
    // operating point the traffic defines: the easy 6/7 exit, the hard
    // 1/7 escalate.
    let threshold = easy_share_threshold(&diverse_plan.members()[0], &calibration_batch);
    cascade.set_policy(ExecPolicy::Cascade(CascadePolicy::max_prob(threshold)));

    let mut passes = vec![
        Pass::new(
            "score.pass_trunk",
            "engine.trunk_plan_eps",
            trunk_plan.session(),
            false,
            inputs::uniform_pool(cfg.seed, pool_len),
            cfg.scaled(TRUNK_EXAMPLES, BATCH) / BATCH,
        ),
        Pass::new(
            "score.pass_flat",
            "engine.flat_plan_eps",
            diverse_plan.session(),
            false,
            inputs::uniform_pool(inputs::sub_seed(cfg.seed, 41), pool_len),
            cfg.scaled(DIVERSE_EXAMPLES, BATCH) / BATCH,
        ),
        Pass::new(
            "score.pass_cascade",
            "engine.cascade_plan_eps",
            cascade,
            true,
            skewed,
            cfg.scaled(DIVERSE_EXAMPLES, BATCH) / BATCH,
        ),
        Pass {
            parallel: true,
            ..Pass::new(
                "score.pass_parallel",
                "engine.parallel_plan_eps",
                diverse_plan.session(),
                false,
                inputs::uniform_pool(inputs::sub_seed(cfg.seed, 42), pool_len),
                cfg.scaled(DIVERSE_EXAMPLES, BATCH) / BATCH,
            )
        },
    ];
    // Warm every session: the first batch pays for workspace growth.
    for p in passes.iter_mut() {
        let (_, _) = tr.time("engine.warmup", 0, || {
            std::hint::black_box(p.on_its_cpus(|p| {
                let x = p.inputs[0].clone();
                p.predict(&x)
            }));
        });
    }
    tr.end(s);
    SetUp {
        passes,
        diverse_plan,
        trunk_plan,
        threshold: threshold as f64,
        calibrated_exit_rate: calibration.exit_rate,
        plan_build_ms: build_ms,
    }
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let (ready, setup_s) = repeat_set_up(SETUPS, || set_up(cfg, tr));
    let SetUp {
        mut passes,
        diverse_plan,
        trunk_plan,
        threshold,
        calibrated_exit_rate,
        plan_build_ms,
    } = ready;
    out.set("setup_s", setup_s);
    out.set("engine.plan_build_ms", plan_build_ms);
    out.set("engine.cascade_threshold", threshold);
    out.set("engine.calibrated_exit_rate", calibrated_exit_rate);
    for p in passes.iter_mut() {
        p.reference = Reference::compute(p.session.plan().members(), &p.pool.batch, PLAN_BATCH);
    }

    // --- timed section: five interleaved repetitions of the four passes ---
    let reps = if cfg.quick { 1 } else { 5 };
    let section = tr.begin("score.timed_section", 0);
    let mut calib = env::Calib::default();
    calib.sample(1);
    for rep in 0..reps {
        for p in passes.iter_mut() {
            p.on_its_cpus(|p| p.rep(rep, tr));
            calib.sample(1);
        }
    }
    tr.end(section);
    out.set("env.calib_fma_ms", calib.fma_ms());

    // The end-to-end numbers pool the three pinned passes. Pass (d)
    // depends on what the machine's second CPU happens to give (its rate
    // swings 3500-6000 examples/s between quiet runs here), so it has
    // metrics of its own, which `mnbench compare` judges.
    out.attempted = passes.iter().map(|p| p.batch_ms.len() as u64).sum();
    let parallel = passes.pop().expect("pass (d) is the last");
    let examples: u64 = passes.iter().map(|p| p.examples()).sum();
    let per_rep: f64 = passes.iter().map(|p| (p.batches * BATCH) as f64).sum();
    let median_rep_s: f64 = passes.iter().map(|p| median(&p.rep_s)).sum();
    let cpu_s: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let batch_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.batch_ms.iter().copied())
        .collect();
    out.set("throughput_eps", per_rep / median_rep_s);
    out.set("p50_ms", percentile(&batch_ms, 50.0));
    out.set("engine.batch_p95_ms", percentile(&batch_ms, 95.0));
    out.set("cpu_us_per_ex", cpu_s * 1e6 / examples as f64);
    let wrong_label: u64 = passes.iter().map(|p| p.wrong_label).sum();
    out.set(
        "label_agreement",
        1.0 - wrong_label as f64 / examples as f64,
    );

    for p in passes.iter().chain([&parallel]) {
        out.set(p.eps_metric, p.eps());
        if !p.scored {
            out.check(p.wrong_bits == 0, || {
                format!(
                    "pass {}: {} rows differ from the reference in their bits (max drift {:e})",
                    p.span, p.wrong_bits, p.drift
                )
            });
        }
    }
    let cascade = &passes[2];
    let exit_rate = cascade.early_exits as f64 / cascade.examples() as f64;
    out.set("engine.early_exit_rate", exit_rate);
    out.set(
        "engine.label_mismatch_share",
        cascade.wrong_label as f64 / cascade.examples() as f64,
    );
    out.set(
        "engine.prob_drift_max",
        passes[0].drift.max(passes[1].drift).max(parallel.drift),
    );
    out.check(exit_rate > 0.0, || {
        "the cascade never exited early on mostly-easy traffic".to_string()
    });
    let plain_wrong = passes[0].wrong_label + passes[1].wrong_label + parallel.wrong_label;
    out.check(plain_wrong == 0, || {
        "a non-cascade pass answered with a label the reference does not have".to_string()
    });
    // Pass (d) against pass (b), the same plan on the same number of
    // examples: what the other CPUs add in speed, and what fanning out
    // costs in CPU time (which does not depend on whether they were free).
    let flat = &passes[1];
    out.set("engine.mt_scaling", parallel.eps() / flat.eps());
    out.set("engine.parallel_cpu_ratio", parallel.cpu_s / flat.cpu_s);
    out.set("engine.trunk_len", trunk_plan.trunk_len() as f64);

    // --- hand-off: artifact written and read side by side, cold start ---
    let manifest = EnsembleManifest::default();
    let (bytes, _) = tr.time("artifact.save", 0, || {
        diverse_plan.to_artifact_bytes(&manifest)
    });
    let flat = &passes[1];
    probes::session_cold_start(
        &bytes,
        &flat.pool.slice(0, 1),
        flat.reference.row(0),
        if cfg.quick { 2 } else { 30 },
        tr,
        &mut out,
    );

    if tr.enabled() {
        let x = passes[0].pool.slice(0, BATCH);
        probes::engine_decomposition(
            &trunk_plan,
            &x,
            if cfg.quick { 2 } else { 15 },
            tr,
            &mut out,
        );
        // The fixed-shape probes of every layer run here and nowhere else:
        // this traced pass is the shortest, and has no server or training
        // run beside it to disturb.
        probes::layer_probes(cfg.seed, cfg.quick, tr, &mut out);
        out.set("trace.spans", tr.spans().len() as f64);
    }
    out.set("peak_rss_mb", env::peak_rss_mb());
    out
}
