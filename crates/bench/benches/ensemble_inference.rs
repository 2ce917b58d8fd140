//! Serving throughput: the batched parallel inference engine against the
//! naive one-by-one member loop, on the same 8-member convolutional
//! ensemble the `kernels` JSON harness measures.

use criterion::{criterion_group, criterion_main, Criterion};
use mn_bench::kernels::{bench_ensemble_members, force_conv_formulation};
use mn_ensemble::{EnginePlan, MemberPredictions};
use mn_nn::layers::ConvFormulation;
use mn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_engine_vs_naive(c: &mut Criterion) {
    let x = Tensor::randn([64, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(2));
    let mut group = c.benchmark_group("ensemble_infer_8x64");

    let mut engine = EnginePlan::new(bench_ensemble_members(), 32)
        .expect("bench ensemble builds")
        .into_shared()
        .session();
    group.bench_function("engine", |b| b.iter(|| black_box(engine.predict(&x))));

    let mut naive = bench_ensemble_members();
    for m in naive.iter_mut() {
        force_conv_formulation(&mut m.network, ConvFormulation::Direct);
    }
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    group.bench_function("naive_one_by_one", |b| {
        b.iter(|| single.install(|| black_box(MemberPredictions::collect(&mut naive, &x, 32))))
    });
    group.finish();
}

fn bench_engine_batch_sizes(c: &mut Criterion) {
    let x = Tensor::randn([256, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(3));
    let mut group = c.benchmark_group("engine_batch_size");
    for bs in [16usize, 64, 256] {
        let mut engine = EnginePlan::new(bench_ensemble_members(), bs)
            .expect("bench ensemble builds")
            .into_shared()
            .session();
        group.bench_function(format!("bs{bs}_n256"), |b| {
            b.iter(|| black_box(engine.predict(&x)))
        });
    }
    group.finish();
}

fn bench_engine_policies(c: &mut Criterion) {
    use mn_ensemble::ExecPolicy;
    let x = Tensor::randn([256, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(4));
    let mut group = c.benchmark_group("engine_policy_n256");
    let threads = rayon::current_num_threads();
    for (label, policy) in [
        ("member_parallel", ExecPolicy::MemberParallel),
        (
            "data_parallel",
            ExecPolicy::DataParallel { shards: threads },
        ),
        ("auto", ExecPolicy::Auto),
    ] {
        let mut engine = EnginePlan::new(bench_ensemble_members(), 32)
            .expect("bench ensemble builds")
            .into_shared()
            .session();
        engine.set_policy(policy);
        group.bench_function(label, |b| b.iter(|| black_box(engine.predict(&x))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_vs_naive,
    bench_engine_batch_sizes,
    bench_engine_policies
);
criterion_main!(benches);
