//! Determinism-under-parallelism: the planned ensemble inference engine
//! must produce **bitwise identical** output regardless of how many rayon
//! worker threads execute it, which execution plan (member-parallel,
//! data-parallel sharding, trunk-shared, or auto) it picks, and across
//! repeated runs from the same seeds.
//!
//! This holds by construction — members fan out over disjoint result
//! slots, batch shards cover disjoint example ranges, and every tensor
//! kernel splits work over disjoint output regions with a fixed
//! per-element accumulation order — and this suite pins it so a future
//! kernel or executor rewrite cannot silently trade it away.
//!
//! Note: the vendored rayon's `ThreadPool::install` sets a process-global
//! thread-count override, so these tests serialize on a local lock.

use mn_ensemble::engine::{EnginePlan, EngineSession, ExecPolicy};
use mn_ensemble::EnsembleMember;
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec, ResBlockSpec};
use mn_nn::Network;
use mn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

static THREAD_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A small but representative ensemble: conv, residual, and MLP members,
/// so the determinism check exercises every kernel family.
fn build_members(master_seed: u64) -> Vec<EnsembleMember> {
    let input = InputSpec::new(3, 8, 8);
    let archs = vec![
        Architecture::plain(
            "conv",
            input,
            5,
            vec![ConvBlockSpec::repeated(3, 6, 1)],
            vec![12],
        ),
        Architecture::plain(
            "conv5",
            input,
            5,
            vec![ConvBlockSpec::repeated(5, 4, 1)],
            vec![8],
        ),
        Architecture::residual("res", input, 5, vec![ResBlockSpec::new(1, 4, 3)]),
        Architecture::mlp("mlp", input, 5, vec![16]),
    ];
    archs
        .into_iter()
        .enumerate()
        .map(|(i, arch)| {
            let name = arch.name.clone();
            EnsembleMember::new(name, Network::seeded(&arch, master_seed + i as u64))
        })
        .collect()
}

/// One session over a fresh plan of `members`, mini-batches of 4.
fn session(members: Vec<EnsembleMember>) -> EngineSession {
    EnginePlan::new(members, 4)
        .expect("members build")
        .into_shared()
        .session()
}

fn predict_with_threads_and_policy(
    threads: usize,
    master_seed: u64,
    x: &Tensor,
    policy: ExecPolicy,
) -> Vec<Vec<f32>> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    pool.install(|| {
        let mut engine = session(build_members(master_seed));
        engine.set_policy(policy);
        // Two rounds so the second runs against warm (reused) workspaces.
        let _ = engine.predict(x);
        engine
            .predict(x)
            .probs()
            .iter()
            .map(|p| p.data().to_vec())
            .collect()
    })
}

fn predict_with_threads(threads: usize, master_seed: u64, x: &Tensor) -> Vec<Vec<f32>> {
    predict_with_threads_and_policy(threads, master_seed, x, ExecPolicy::Auto)
}

#[test]
fn engine_output_is_bitwise_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([11, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(42));
    let single = predict_with_threads(1, 7, &x);
    let multi = predict_with_threads(4, 7, &x);
    assert_eq!(single.len(), multi.len());
    for (m, (a, b)) in single.iter().zip(&multi).enumerate() {
        let bits_a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits_a, bits_b,
            "member {m} diverged between 1 and 4 threads"
        );
    }
}

#[test]
fn engine_output_is_bitwise_identical_across_runs_with_same_seed() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([9, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(43));
    let first = predict_with_threads(2, 11, &x);
    let second = predict_with_threads(2, 11, &x);
    for (m, (a, b)) in first.iter().zip(&second).enumerate() {
        let bits_a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits_a, bits_b,
            "member {m} diverged between two seeded runs"
        );
    }
}

#[test]
fn engine_output_is_bitwise_identical_across_execution_plans() {
    // Member-parallel, every data-parallel shard count, and auto must
    // agree bit for bit — under both a single- and a multi-thread pool.
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([17, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(45));
    let reference = predict_with_threads_and_policy(1, 5, &x, ExecPolicy::MemberParallel);
    let mut policies = vec![ExecPolicy::Auto, ExecPolicy::MemberParallel];
    policies.extend([2usize, 3, 4, 8, 17].map(|shards| ExecPolicy::DataParallel { shards }));
    // Mixed-architecture members share no trunk; the trunk-shared plan
    // must still agree bit for bit (it just shares nothing).
    policies.extend([1usize, 3, 17].map(|shards| ExecPolicy::TrunkShared { shards }));
    for threads in [1usize, 4] {
        for &policy in &policies {
            let got = predict_with_threads_and_policy(threads, 5, &x, policy);
            for (m, (a, b)) in reference.iter().zip(&got).enumerate() {
                let bits_a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits_a, bits_b,
                    "member {m} diverged under {policy:?} on {threads} thread(s)"
                );
            }
        }
    }
}

/// Members cloned from one seed network with only the classifier head
/// perturbed — the hatched-ensemble shape with a deep shared conv trunk.
fn build_trunked_members(master_seed: u64) -> Vec<EnsembleMember> {
    let input = InputSpec::new(3, 8, 8);
    let arch = Architecture::plain(
        "trunked",
        input,
        5,
        vec![ConvBlockSpec::repeated(3, 6, 2)],
        vec![12],
    );
    let base = Network::seeded(&arch, master_seed);
    (0..4)
        .map(|s| {
            let mut net = base.clone();
            match net.nodes_mut().last_mut() {
                Some(mn_nn::LayerNode::Dense(l)) => {
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

#[test]
fn trunk_sharing_is_bitwise_identical_across_threads_and_shards() {
    // The tentpole's determinism criterion: trunk-shared output equals
    // the flat reference across ExecPolicy × shard count × thread count,
    // on an ensemble that genuinely shares a deep trunk (Auto picks the
    // trunk plan here).
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([13, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(47));
    let run = |threads: usize, policy: ExecPolicy| -> Vec<Vec<u32>> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        pool.install(|| {
            let plan = EnginePlan::new(build_trunked_members(19), 4)
                .expect("members build")
                .into_shared();
            let mut session = plan.session();
            session.set_policy(policy);
            let _ = session.predict(&x); // warm lanes
            session
                .predict(&x)
                .probs()
                .iter()
                .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        })
    };
    let reference = run(1, ExecPolicy::MemberParallel);
    let mut policies = vec![ExecPolicy::Auto, ExecPolicy::MemberParallel];
    policies.extend([1usize, 2, 5, 13].map(|shards| ExecPolicy::TrunkShared { shards }));
    policies.push(ExecPolicy::DataParallel { shards: 3 });
    for threads in [1usize, 4] {
        for &policy in &policies {
            let got = run(threads, policy);
            assert_eq!(
                reference, got,
                "trunked ensemble diverged under {policy:?} on {threads} thread(s)"
            );
        }
    }
}

#[test]
fn concurrent_sessions_over_one_plan_are_bitwise_identical() {
    // Many sessions executing ONE shared plan from separate OS threads —
    // under different per-session policies — must all produce the bits
    // the single-owner engine produces. This is the determinism contract
    // of the plan/session split (weights shared, scratch private).
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([14, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(46));
    let mut reference_engine = session(build_members(13));
    let reference: Vec<Vec<u32>> = reference_engine
        .predict(&x)
        .probs()
        .iter()
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect();

    let plan = EnginePlan::new(build_members(13), 4)
        .expect("members build")
        .into_shared();
    let policies = [
        ExecPolicy::Auto,
        ExecPolicy::MemberParallel,
        ExecPolicy::DataParallel { shards: 3 },
        ExecPolicy::DataParallel { shards: 7 },
        ExecPolicy::TrunkShared { shards: 2 },
    ];
    let results: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        policies
            .iter()
            .map(|&policy| {
                let plan = std::sync::Arc::clone(&plan);
                let x = &x;
                scope.spawn(move || {
                    let mut session = plan.session();
                    session.set_policy(policy);
                    let _ = session.predict(x); // warm lanes
                    session
                        .predict(x)
                        .probs()
                        .iter()
                        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("session thread exits cleanly"))
            .collect()
    });
    for (policy, got) in policies.iter().zip(&results) {
        assert_eq!(
            &reference, got,
            "a concurrent session diverged under {policy:?}"
        );
    }
}

#[test]
fn engine_agrees_with_plain_member_prediction() {
    // The engine is an execution strategy, not a different model: its
    // per-member probabilities must equal each member predicting alone.
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let x = Tensor::randn([6, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(44));
    let mut engine = session(build_members(3));
    let fanned = engine.predict(&x);
    let mut solo_members = build_members(3);
    for (m, solo) in solo_members.iter_mut().enumerate() {
        let solo_probs = solo.predict_proba(&x, 4);
        assert_eq!(
            fanned.probs()[m].data(),
            solo_probs.data(),
            "member {m} diverged from solo prediction"
        );
    }
}
