//! Serving throughput demo: batched parallel ensemble inference.
//!
//! ```text
//! cargo run --release --example serve_throughput
//! ```
//!
//! Builds an 8-member convolutional ensemble, then walks the whole
//! serving stack:
//!
//! 1. **naive vs engine** — members one-by-one on a single thread with
//!    the pre-optimization direct convolution kernels (the state of the
//!    repo before the performance layer) against the
//!    an [`mn_ensemble::EngineSession`] over a shared
//!    [`mn_ensemble::EnginePlan`] (parallel fan-out, persistent
//!    workspaces, blocked GEMM);
//! 2. **parallelism axes** — the same engine under member-parallel,
//!    data-parallel, and auto plans, verified bitwise identical;
//! 3. **artifact cold start** — the ensemble is saved as an `MNE1`
//!    artifact and booted back (zero-init restore), bitwise exact;
//! 4. **sharded dynamic batching** — a [`mn_ensemble::Server`] built via
//!    [`mn_ensemble::ServerBuilder`] runs two worker shards over ONE
//!    shared [`mn_ensemble::EnginePlan`] (no weight clones) and answers
//!    a burst of single-example requests, reporting latency, micro-batch
//!    fill, and the per-shard split.
//!
//! Speedups are execution-strategy changes, never model changes — every
//! step asserts its predictions against the previous one.

use std::time::Instant;

use mn_bench::kernels::{bench_ensemble_members, force_conv_formulation};
use mn_ensemble::serve::{BatchingConfig, Server};
use mn_ensemble::{EnginePlan, EnsembleManifest, ExecPolicy, MemberPredictions};
use mn_nn::layers::ConvFormulation;
use mn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 64;
const ROUNDS: usize = 20;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let requests: Vec<Tensor> = (0..ROUNDS)
        .map(|_| Tensor::randn([BATCH, 3, 8, 8], 1.0, &mut rng))
        .collect();
    let total_examples = (BATCH * ROUNDS) as f64;

    println!(
        "serving {ROUNDS} batches of {BATCH} through 8 members on {} worker thread(s)\n",
        rayon::current_num_threads()
    );

    // Naive path: one-by-one members, direct conv kernels, one thread.
    let mut naive_members = bench_ensemble_members();
    for m in naive_members.iter_mut() {
        force_conv_formulation(&mut m.network, ConvFormulation::Direct);
    }
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    let start = Instant::now();
    let naive_last = single.install(|| {
        let mut last = None;
        for x in &requests {
            last = Some(MemberPredictions::collect(&mut naive_members, x, 32));
        }
        last.expect("at least one round")
    });
    let naive_secs = start.elapsed().as_secs_f64();

    // Engine path: parallel fan-out + workspace reuse + blocked kernels.
    let mut engine = EnginePlan::new(bench_ensemble_members(), 32)
        .expect("bench ensemble builds")
        .into_shared()
        .session();
    let start = Instant::now();
    let mut engine_last = None;
    for x in &requests {
        engine_last = Some(engine.predict(x));
    }
    let engine_secs = start.elapsed().as_secs_f64();
    let engine_last = engine_last.expect("at least one round");

    // Same members, same requests: predictions must agree to float noise
    // (the naive path runs a different conv formulation, so summation
    // order differs slightly).
    let mut worst = 0.0f32;
    for (a, b) in naive_last.probs().iter().zip(engine_last.probs()) {
        worst = worst.max(mn_tensor::max_abs_diff(a.data(), b.data()));
    }
    assert!(
        worst <= 1e-4,
        "engine diverged from naive path by {worst} — not an execution-strategy change!"
    );

    println!(
        "naive one-by-one: {:8.0} examples/s  ({naive_secs:.2} s total)",
        total_examples / naive_secs
    );
    println!(
        "inference engine: {:8.0} examples/s  ({engine_secs:.2} s total)",
        total_examples / engine_secs
    );
    println!(
        "\nspeedup: {:.2}x (outputs agree to {worst:.1e})",
        naive_secs / engine_secs
    );

    // Parallelism axes: plans change wall clock, never output bits.
    println!("\nexecution plans over one {BATCH}-example batch:");
    let x = &requests[0];
    let threads = rayon::current_num_threads();
    engine.set_policy(ExecPolicy::MemberParallel);
    let reference = engine.predict(x);
    for (label, policy) in [
        ("member-parallel", ExecPolicy::MemberParallel),
        (
            "data-parallel",
            ExecPolicy::DataParallel { shards: threads },
        ),
        ("auto", ExecPolicy::Auto),
    ] {
        engine.set_policy(policy);
        let _ = engine.predict(x); // warm replica lanes
        let start = Instant::now();
        let preds = engine.predict(x);
        let secs = start.elapsed().as_secs_f64();
        for (a, b) in reference.probs().iter().zip(preds.probs()) {
            assert_eq!(a.data(), b.data(), "{label} changed the predictions!");
        }
        println!(
            "  {label:>15} -> plan {:?}: {:8.0} examples/s",
            engine.plan_for(BATCH),
            BATCH as f64 / secs
        );
    }

    // Artifact cold start: save, boot a fresh shared plan (zero-init
    // restore — no RNG sampling), verify bitwise.
    let bytes = engine
        .plan()
        .to_artifact_bytes(&EnsembleManifest::default());
    let cold_plan = EnginePlan::from_artifact_bytes(&bytes, 32)
        .expect("artifact round trip loads")
        .into_shared();
    let warm_preds = engine.predict(x);
    let cold_preds = cold_plan.session().predict(x);
    for (a, b) in warm_preds.probs().iter().zip(cold_preds.probs()) {
        assert_eq!(a.data(), b.data(), "cold start changed the predictions!");
    }
    println!(
        "\nMNE1 artifact: {} KiB, cold-started plan is bitwise identical",
        bytes.len() / 1024
    );

    // Sharded dynamic batching: two worker shards over the one shared
    // plan (sessions hold scratch only — the weights are never cloned),
    // a bounded queue, and a burst of single-example requests.
    let server = Server::builder(cold_plan)
        .shards(2)
        .queue_capacity(256)
        .batching(BatchingConfig::default())
        .start();
    let mut pending = Vec::new();
    let mut rng = StdRng::seed_from_u64(8);
    let burst = 128;
    let start = Instant::now();
    for _ in 0..burst {
        let example = Tensor::randn([3, 8, 8], 1.0, &mut rng);
        pending.push(server.submit(&example).expect("example accepted"));
    }
    let mut worst_latency_ms = 0.0f64;
    for p in pending {
        let prediction = p.wait().expect("server answers");
        worst_latency_ms = worst_latency_ms.max(prediction.latency.as_secs_f64() * 1000.0);
    }
    let wall = start.elapsed().as_secs_f64();
    let report = server.shutdown();
    println!(
        "sharded dynamic batching: {burst} single-example requests across {} shard(s) \
         in {:.0} ms ({:.0} req/s), mean micro-batch {:.1}, worst latency {worst_latency_ms:.1} ms",
        report.per_shard.len(),
        wall * 1000.0,
        burst as f64 / wall,
        report.aggregate.mean_batch()
    );
    for (shard, s) in report.per_shard.iter().enumerate() {
        println!(
            "  shard {shard}: {} requests in {} micro-batches (mean {:.1})",
            s.requests,
            s.batches,
            s.mean_batch()
        );
    }
}
