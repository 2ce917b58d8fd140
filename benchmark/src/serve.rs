//! The two serving workloads: one generator thread (this one) offers
//! single-example requests to a `Server` on a schedule, open loop.
//!
//! * Each request is timed from the instant it was **due**, so a stall of
//!   the generator or the server is charged to every request it delayed;
//!   how late the generator ran is reported beside the latencies.
//! * `Prediction::latency` is stamped by the server when the answer is
//!   ready, so no collector thread is needed: pending replies are drained
//!   after each window.
//! * Every latency statistic is the median over windows of the per-window
//!   percentile.
//! * Every answer is compared bit for bit with the reference the benchmark
//!   computed itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mn_ensemble::serve::{PendingPrediction, Prediction, ServeError, Server, ServerReport};
use mn_ensemble::{EnginePlan, EnsembleManifest, EnsembleMember};
use mn_tensor::Tensor;

use crate::config::{RunConfig, Workload};
use crate::env;
use crate::inputs::{self, Pool, PLAN_BATCH};
use crate::metrics::Outcome;
use crate::probes;
use crate::reference::Reference;
use crate::stats::{median, median_of_windows, percentile, repeat_set_up};
use crate::trace::Tracer;

/// Set-up repetitions (see `repeat_set_up`).
const SETUPS: usize = 5;

/// Latency limit behind `serve.rate_ok_rps`.
const P95_LIMIT_MS: f64 = 10.0;
const FAIL_SHARE_LIMIT: f64 = 0.001;

/// Traffic and sizing of one serving workload.
pub struct ServeSpec {
    /// Trunk ensemble (8 members, shared prefix) or diverse (5, none).
    pub trunk: bool,
    /// Requests per arrival: 1 = Poisson singles, 32 = bursts of 32
    /// back-to-back requests whose starts are Poisson.
    pub burst: usize,
    /// Mean offered rates r1 < r2 < r3, requests per second.
    pub rates: [f64; 3],
    pub windows: [usize; 3],
    pub window_s: f64,
    /// Burst-drain: `drains` times, `drain_size` requests enqueued at once.
    pub drains: usize,
    pub drain_size: usize,
    pub pool: usize,
    pub warmup: usize,
    pub cold_starts: usize,
}

impl ServeSpec {
    pub fn of(cfg: &RunConfig) -> ServeSpec {
        let trunk = cfg.workload == Workload::ServeTrunkBurst;
        let q = cfg.quick;
        ServeSpec {
            trunk,
            burst: if trunk { 32 } else { 1 },
            rates: if trunk {
                [2000.0, 8000.0, 16000.0]
            } else {
                [200.0, 800.0, 1600.0]
            },
            windows: if q { [1, 2, 1] } else { [3, 11, 3] },
            window_s: if q { 0.05 } else { cfg.scale() },
            drains: match (q, trunk) {
                (true, _) => 2,
                (false, true) => 9,
                (false, false) => 7,
            },
            drain_size: cfg.scaled(if trunk { 8192 } else { 2048 }, 32),
            pool: if q { 64 } else { 1024 },
            warmup: if q { 32 } else { 512 },
            cold_starts: if q { 2 } else { 15 },
        }
    }

    fn members(&self, seed: u64) -> Vec<EnsembleMember> {
        if self.trunk {
            inputs::trunk_members(seed)
        } else {
            inputs::diverse_members(seed)
        }
    }

    fn schedule(&self, rate: f64, seed: u64) -> Vec<f64> {
        if self.burst > 1 {
            inputs::burst_schedule(rate, self.burst, self.window_s, seed)
        } else {
            inputs::poisson_schedule(rate, self.window_s, seed)
        }
    }
}

/// Latency of one request, timed from the instant it was due: how late it
/// was submitted plus what the server stamped from submit to answer.
pub fn due_latency(due: Instant, submitted: Instant, server_latency: Duration) -> Duration {
    submitted.saturating_duration_since(due) + server_latency
}

struct InFlight {
    handle: Result<PendingPrediction, ServeError>,
    due: Instant,
    submitted: Instant,
    pool_idx: u32,
    id: u64,
}

/// What one window (or one drain burst) observed.
#[derive(Default)]
pub struct WindowStats {
    pub sent: u64,
    pub failed: u64,
    /// Answers whose probabilities differ from the reference in any bit.
    pub wrong_bits: u64,
    pub wrong_label: u64,
    pub latency_ms: Vec<f64>,
    /// Generator lateness per request.
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    /// Σ 1/batch over answers = number of engine calls that served them.
    pub engine_calls: f64,
    pub batch_sizes: Vec<f64>,
    pub queue_depths: Vec<f64>,
    pub depth_mid: usize,
    pub depth_end: usize,
    /// First submit to last reply.
    pub elapsed_s: f64,
}

impl WindowStats {
    pub fn mean_batch(&self) -> f64 {
        if self.engine_calls > 0.0 {
            (self.sent - self.failed) as f64 / self.engine_calls
        } else {
            0.0
        }
    }

    fn backlog_grew(&self, max_batch: usize) -> bool {
        self.depth_end > self.depth_mid + max_batch
    }
}

/// Offers `dues.len()` requests on schedule (offsets in seconds from now),
/// then drains every reply and checks it. `dues` all zero is a burst.
fn run_window(
    server: &Server,
    pool: &Pool,
    reference: &Reference,
    order: &[u32],
    dues: &[f64],
    first_id: u64,
    tr: &mut Tracer,
) -> WindowStats {
    let mut st = WindowStats::default();
    let mut inflight: Vec<InFlight> = Vec::with_capacity(dues.len());
    let begin = Instant::now();
    let start = begin + Duration::from_micros(200);
    for (i, &offset) in dues.iter().enumerate() {
        let due = if offset > 0.0 {
            start + Duration::from_secs_f64(offset)
        } else {
            begin
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let pool_idx = order[i % order.len()];
        let id = first_id + i as u64;
        let submitted = Instant::now();
        let handle = server.submit(&pool.examples[pool_idx as usize]);
        let done = Instant::now();
        tr.record("serve.submit", submitted, done, id);
        st.submit_us.push((done - submitted).as_secs_f64() * 1e6);
        st.lag_ms
            .push(submitted.saturating_duration_since(due).as_secs_f64() * 1e3);
        if i % 16 == 0 {
            st.queue_depths.push(server.queue_depth() as f64);
        }
        if i == dues.len() / 2 {
            st.depth_mid = server.queue_depth();
        }
        inflight.push(InFlight {
            handle,
            due,
            submitted,
            pool_idx,
            id,
        });
    }
    st.depth_end = server.queue_depth();
    st.sent = inflight.len() as u64;
    for r in inflight {
        let answer: Result<Prediction, ServeError> = r.handle.and_then(|p| p.wait());
        match answer {
            Ok(p) => {
                let latency = due_latency(r.due, r.submitted, p.latency);
                tr.record("serve.request", r.due, r.due + latency, r.id);
                st.latency_ms.push(latency.as_secs_f64() * 1e3);
                st.engine_calls += 1.0 / p.batch.max(1) as f64;
                st.batch_sizes.push(p.batch as f64);
                if !reference.row_matches(r.pool_idx as usize, &p.probs) {
                    st.wrong_bits += 1;
                }
                if p.label != reference.labels[r.pool_idx as usize] {
                    st.wrong_label += 1;
                }
            }
            Err(_) => st.failed += 1,
        }
    }
    st.elapsed_s = begin.elapsed().as_secs_f64();
    st
}

struct Running {
    pool: Pool,
    members: Vec<EnsembleMember>,
    plan: Arc<EnginePlan>,
    server: Server,
    plan_build_ms: f64,
    start_ms: f64,
}

/// Everything before timing: traffic pool, members, plan, server start and
/// warm-up (the first requests pay for workspace growth).
fn set_up(spec: &ServeSpec, seed: u64, capacity: usize, tr: &mut Tracer) -> Running {
    let s = tr.begin("setup", 0);
    let (pool, _) = tr.time("data.uniform_pool", 0, || {
        inputs::uniform_pool(seed, spec.pool)
    });
    let (members, _) = tr.time("setup.members", 0, || spec.members(seed));
    let (plan, d_plan) = tr.time("engine.plan_build", 0, || {
        EnginePlan::new(members.clone(), PLAN_BATCH)
            .expect("the frozen ensembles are servable")
            .into_shared()
    });
    let (server, d_start) = tr.time("serve.start", 0, || {
        Server::builder(Arc::clone(&plan))
            .queue_capacity(capacity)
            .start()
    });
    let w = tr.begin("serve.warmup", 0);
    let handles: Vec<_> = (0..spec.warmup)
        .map(|i| server.submit(&pool.examples[i % pool.len()]))
        .collect();
    for h in handles {
        let _ = h.and_then(|p| p.wait());
    }
    tr.end(w);
    tr.end(s);
    Running {
        pool,
        members,
        plan,
        server,
        plan_build_ms: d_plan.as_secs_f64() * 1e3,
        start_ms: d_start.as_secs_f64() * 1e3,
    }
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let spec = ServeSpec::of(cfg);
    let mut out = Outcome::new();
    let capacity = spec.drain_size.max(16 * 1024);

    let (running, setup_s) = repeat_set_up(SETUPS, || set_up(&spec, cfg.seed, capacity, tr));
    let Running {
        pool,
        members,
        plan,
        server,
        plan_build_ms,
        start_ms,
    } = running;
    out.set("setup_s", setup_s);
    out.set("engine.plan_build_ms", plan_build_ms);
    out.set("serve.start_ms", start_ms);
    out.set("engine.trunk_len", plan.trunk_len() as f64);
    out.check(plan.shares_trunk() == spec.trunk, || {
        format!(
            "plan trunk_len {} does not fit the workload",
            plan.trunk_len()
        )
    });

    let reference = Reference::compute(&members, &pool.batch, PLAN_BATCH);
    let mut next_id = 1u64;
    let mut seed_stream = 0u64;

    // --- timed section: open-loop windows at r1, r2, r3, then burst-drain ---
    let cpu0 = env::cpu_seconds();
    let section = tr.begin("serve.timed_section", 0);
    let mut calib = env::Calib::default();
    calib.sample(1);
    let mut phases: Vec<Vec<WindowStats>> = Vec::new();
    for (phase, (&rate, &count)) in spec.rates.iter().zip(&spec.windows).enumerate() {
        let mut windows = Vec::new();
        for _ in 0..count {
            seed_stream += 1;
            let wseed = inputs::sub_seed(cfg.seed, 1000 + seed_stream);
            let dues = spec.schedule(rate, wseed);
            let order = inputs::request_order(wseed, dues.len().max(1), pool.len());
            let w = tr.begin("serve.window", phase as u64);
            let st = run_window(&server, &pool, &reference, &order, &dues, next_id, tr);
            tr.end(w);
            calib.sample(1);
            next_id += st.sent;
            windows.push(st);
        }
        phases.push(windows);
    }
    let mut drains = Vec::new();
    let zeros = vec![0.0; spec.drain_size];
    for d in 0..spec.drains {
        let order = inputs::request_order(
            inputs::sub_seed(cfg.seed, 2000 + d as u64),
            spec.drain_size,
            pool.len(),
        );
        let b = tr.begin("serve.drain_burst", d as u64);
        let st = run_window(&server, &pool, &reference, &order, &zeros, next_id, tr);
        tr.end(b);
        calib.sample(1);
        next_id += st.sent;
        drains.push(st);
    }
    tr.end(section);
    let cpu_s = env::cpu_seconds() - cpu0 - calib.spent_s;
    out.set("env.calib_fma_ms", calib.fma_ms());

    let (report, shutdown_ms) = {
        let t = Instant::now();
        let (report, _) = tr.time("serve.shutdown", 0, || server.shutdown());
        (report, t.elapsed().as_secs_f64() * 1e3)
    };

    // --- accounting ---
    let all = || phases.iter().flatten().chain(drains.iter());
    let sent: u64 = all().map(|w| w.sent).sum();
    let failed: u64 = all().map(|w| w.failed).sum();
    let wrong_bits: u64 = all().map(|w| w.wrong_bits).sum();
    let wrong_label: u64 = all().map(|w| w.wrong_label).sum();
    out.attempted = sent;
    out.failed = failed;
    out.check(failed == 0, || {
        format!("{failed} of {sent} requests failed or were refused")
    });
    out.check(wrong_bits == 0, || {
        format!("{wrong_bits} served answers differ from the reference in their bits")
    });
    check_report(&report, sent + spec.warmup as u64 - failed, &mut out);

    let lat = |phase: usize, p: f64| {
        median_of_windows(phases[phase].iter().map(|w| w.latency_ms.as_slice()), p)
    };
    out.set("p50_ms", lat(1, 50.0));
    out.set("serve.p95_ms_r2", lat(1, 95.0));
    let drain_rps: Vec<f64> = drains
        .iter()
        .map(|d| (d.sent - d.failed) as f64 / d.elapsed_s)
        .collect();
    out.set("throughput_eps", median(&drain_rps));
    out.set("serve.drain_rps", median(&drain_rps));
    out.set("cpu_us_per_ex", cpu_s * 1e6 / (sent - failed).max(1) as f64);
    out.set(
        "label_agreement",
        1.0 - wrong_label as f64 / (sent - failed).max(1) as f64,
    );
    out.set("serve.fail_share", failed as f64 / sent.max(1) as f64);

    out.set("serve.p50_ms_r1", lat(0, 50.0));
    out.set("serve.p95_ms_r1", lat(0, 95.0));
    out.set("serve.p50_ms_r3", lat(2, 50.0));
    out.set("serve.p95_ms_r3", lat(2, 95.0));
    out.set("serve.p99_ms_r2", lat(1, 99.0));
    out.set("serve.p999_ms_r2", lat(1, 99.9));
    for (phase, name) in [
        "serve.mean_batch_r1",
        "serve.mean_batch_r2",
        "serve.mean_batch_r3",
    ]
    .iter()
    .enumerate()
    {
        let batches: Vec<f64> = phases[phase].iter().map(|w| w.mean_batch()).collect();
        out.set(name, median(&batches));
    }
    let pooled = |f: fn(&WindowStats) -> &Vec<f64>, phase: usize| -> Vec<f64> {
        phases[phase]
            .iter()
            .flat_map(|w| f(w).iter().copied())
            .collect()
    };
    let submit_us: Vec<f64> = all().flat_map(|w| w.submit_us.iter().copied()).collect();
    out.set("serve.submit_us_p50", percentile(&submit_us, 50.0));
    out.set(
        "serve.queue_depth_p95",
        percentile(&pooled(|w| &w.queue_depths, 1), 95.0),
    );
    let lag_r2 = pooled(|w| &w.lag_ms, 1);
    out.set("serve.gen_lag_ms_p95", percentile(&lag_r2, 95.0));
    out.set("serve.gen_lag_ms_max", percentile(&lag_r2, 100.0));
    out.set(
        "serve.max_batch_filled",
        report.aggregate.max_batch_filled as f64,
    );
    out.set("serve.batches", report.aggregate.batches as f64);
    out.set("serve.shutdown_ms", shutdown_ms);
    out.set("serve.overloaded", report.rejected as f64);
    out.set(
        "serve.deadline_expired",
        report.aggregate.deadline_expired as f64,
    );
    out.set("serve.degraded", report.aggregate.degraded as f64);
    out.set("serve.restarts", report.restarts as f64);
    out.set("serve.worker_panics", report.worker_panics as f64);

    // The highest offered rate that met the latency limit with no growing
    // backlog and (almost) no failures; 0 if none did.
    let mut rate_ok = 0.0;
    for (phase, &rate) in spec.rates.iter().enumerate() {
        let ws = &phases[phase];
        let offered: u64 = ws.iter().map(|w| w.sent).sum();
        let lost: u64 = ws.iter().map(|w| w.failed).sum();
        let growing = ws.iter().filter(|w| w.backlog_grew(64)).count() * 2 > ws.len();
        if lat(phase, 95.0) <= P95_LIMIT_MS
            && !growing
            && lost as f64 <= FAIL_SHARE_LIMIT * offered as f64
        {
            rate_ok = rate;
        }
    }
    out.set("serve.rate_ok_rps", rate_ok);

    // --- hand-off: artifact round trip and cold start of a server ---
    cold_start(&spec, &plan, &pool, &reference, tr, &mut out);

    if tr.enabled() {
        // What a bare session needs for the batch the server typically
        // formed at r2; the rest of p50 is queueing, coalescing and reply.
        let typical = median(&pooled(|w| &w.batch_sizes, 1)).round().max(1.0) as usize;
        let xb = pool.slice(0, typical.min(pool.len()));
        let mut session = plan.session();
        let us = probes::median_us(tr, "engine.predict_scored", 41, || {
            std::hint::black_box(session.predict_scored(&xb));
        });
        let p50 = lat(1, 50.0);
        out.set("serve.eval_ms_est", us / 1e3);
        out.set("serve.wait_ms_est", p50 - us / 1e3);
        out.set("serve.wait_share", (p50 - us / 1e3) / p50);
        let x256 = pool.slice(0, 256.min(pool.len()));
        probes::engine_decomposition(&plan, &x256, if cfg.quick { 2 } else { 15 }, tr, &mut out);
        out.set("trace.spans", tr.spans().len() as f64);
    }
    out.set("peak_rss_mb", env::peak_rss_mb());
    out
}

/// `ServerStats.requests` equals what was sent and answered, and nothing
/// was shed, degraded or restarted along the way.
fn check_report(report: &ServerReport, answered: u64, out: &mut Outcome) {
    out.check(report.aggregate.requests == answered, || {
        format!(
            "server counted {} requests, the generator had {answered} answered",
            report.aggregate.requests
        )
    });
    out.check(
        report.rejected == 0
            && report.worker_panics == 0
            && report.restarts == 0
            && report.aggregate.degraded == 0
            && report.aggregate.deadline_expired == 0,
        || format!("server shed, degraded or restarted: {report:?}"),
    );
}

/// Artifact bytes → plan → server → first answer, `cold_starts` times.
/// The loaded plan must answer exactly as the in-memory one did.
fn cold_start(
    spec: &ServeSpec,
    plan: &Arc<EnginePlan>,
    pool: &Pool,
    reference: &Reference,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let (bytes, _) = tr.time("artifact.save", 0, || {
        plan.to_artifact_bytes(&EnsembleManifest::default())
    });
    out.set("artifact_bytes", bytes.len() as f64);
    let example: &Tensor = &pool.examples[0];
    let mut samples = Vec::new();
    let mut exact = true;
    for i in 0..spec.cold_starts {
        let s = tr.begin("cold_start", i as u64);
        let t = Instant::now();
        let (loaded, _) = tr.time("artifact.load", i as u64, || {
            EnginePlan::from_artifact_bytes(&bytes, PLAN_BATCH).map(EnginePlan::into_shared)
        });
        let answer = loaded.ok().and_then(|loaded| {
            let (server, _) = tr.time("serve.start", i as u64, || Server::builder(loaded).start());
            let answer = server.submit(example).and_then(|p| p.wait()).ok();
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(s);
            server.shutdown();
            answer
        });
        exact &= answer.is_some_and(|p| reference.row_matches(0, &p.probs));
    }
    out.check(exact, || {
        "artifact round trip is not bitwise exact".to_string()
    });
    out.set("cold_start_ms", median(&samples));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_timed_from_the_due_instant() {
        let due = Instant::now();
        // The generator was stalled for 3 ms; the server then took 2 ms.
        let submitted = due + Duration::from_millis(3);
        let got = due_latency(due, submitted, Duration::from_millis(2));
        assert_eq!(got, Duration::from_millis(5));
        // Submitting early (never happens, but must not underflow).
        let got = due_latency(
            due + Duration::from_millis(1),
            due,
            Duration::from_millis(2),
        );
        assert_eq!(got, Duration::from_millis(2));
    }

    #[test]
    fn mean_batch_counts_engine_calls() {
        let st = WindowStats {
            sent: 6,
            engine_calls: 4.0 / 4.0 + 2.0 / 2.0,
            ..Default::default()
        };
        assert_eq!(st.mean_batch(), 3.0);
        assert!(WindowStats {
            depth_mid: 10,
            depth_end: 200,
            ..Default::default()
        }
        .backlog_grew(64));
        assert!(!WindowStats {
            depth_mid: 10,
            depth_end: 60,
            ..Default::default()
        }
        .backlog_grew(64));
    }
}
