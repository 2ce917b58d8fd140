//! The serving stack end to end: train → save → load → serve must be
//! bitwise faithful at every hand-off, and the sharded dynamic-batching
//! server must be an execution strategy — never a model change.

use std::sync::Arc;
use std::time::Duration;

use mn_data::presets::{cifar10_sim, Scale};
use mn_ensemble::engine::{EngineError, EnginePlan, EngineSession, ExecPolicy};
use mn_ensemble::serve::{BatchingConfig, ServeError, Server};
use mn_ensemble::{artifact, EnsembleManifest, EnsembleMember};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec, ResBlockSpec};
use mn_nn::train::TrainConfig;
use mn_nn::Network;
use mn_tensor::Tensor;
use mothernets::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Conv + residual + MLP members, so every kernel family crosses the
/// artifact boundary.
fn mixed_members(master_seed: u64) -> Vec<EnsembleMember> {
    let input = InputSpec::new(3, 8, 8);
    let archs = vec![
        Architecture::plain(
            "conv",
            input,
            5,
            vec![ConvBlockSpec::repeated(3, 6, 1)],
            vec![12],
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

/// One session over a fresh plan of `members`.
fn session(members: Vec<EnsembleMember>, batch_size: usize) -> EngineSession {
    EnginePlan::new(members, batch_size)
        .unwrap()
        .into_shared()
        .session()
}

#[test]
fn save_load_serve_round_trip_is_bitwise_exact() {
    let mut warm = session(mixed_members(7), 4);
    let bytes = warm.plan().to_artifact_bytes(&EnsembleManifest::default());
    let mut cold = EnginePlan::from_artifact_bytes(&bytes, 4)
        .unwrap()
        .into_shared()
        .session();
    assert_eq!(cold.plan().num_members(), 3);
    assert_eq!(
        cold.plan().member_names().collect::<Vec<_>>(),
        vec!["conv", "res", "mlp"]
    );

    let x = Tensor::randn([9, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(1));
    let a = warm.predict(&x);
    let b = cold.predict(&x);
    for (m, (pa, pb)) in a.probs().iter().zip(b.probs()).enumerate() {
        let bits_a: Vec<u32> = pa.data().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = pb.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "member {m} changed through the artifact");
    }
}

#[test]
fn trained_ensemble_saves_and_cold_starts() {
    let task = cifar10_sim(Scale::Tiny, 41);
    let input = InputSpec::new(3, 8, 8);
    let archs = vec![
        Architecture::mlp("small", input, 10, vec![12]),
        Architecture::mlp("large", input, 10, vec![16]),
    ];
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        },
        ..Default::default()
    };
    let trained = train_ensemble(&archs, &task.train, &Strategy::mothernets(), &cfg).unwrap();
    assert_eq!(trained.manifest().strategy, "MotherNets");
    assert_eq!(trained.manifest().combine, "average");

    let dir = std::env::temp_dir().join("mn-serving-stack-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.mne1");
    trained.save(&path).unwrap();

    // The manifest survives the file round trip.
    let (manifest, _) = artifact::read_ensemble_file(&path).unwrap();
    assert_eq!(manifest.strategy, "MotherNets");

    // Cold-started engine vs an engine over the in-memory members.
    let mut cold = EnginePlan::load(&path, 8).unwrap().into_shared().session();
    let mut warm = session(trained.members.clone(), 8);
    let x = Tensor::randn([6, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(2));
    let a = warm.predict(&x);
    let b = cold.predict(&x);
    for (m, (pa, pb)) in a.probs().iter().zip(b.probs()).enumerate() {
        assert_eq!(
            pa.data(),
            pb.data(),
            "member {m}: disk cold start diverged from training output"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn server_answers_match_direct_engine_bitwise() {
    // Requests served one at a time through the micro-batcher must equal
    // the same examples predicted as one direct engine batch.
    let x = Tensor::randn([12, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(3));
    let mut direct = session(mixed_members(11), 4);
    let expected = direct.predict_average(&x);
    let expected_labels = direct.predict_labels(&x);

    let server = Server::builder(EnginePlan::new(mixed_members(11), 4).unwrap().into_shared())
        .batching(BatchingConfig {
            max_batch: 5,
            max_wait: Duration::from_millis(1),
        })
        .start();
    let n = x.shape().dim(0);
    let row = x.len() / n;
    let k = expected.shape().dim(1);
    let pending: Vec<_> = (0..n)
        .map(|i| {
            let example = Tensor::from_vec([3, 8, 8], x.data()[i * row..(i + 1) * row].to_vec());
            server.submit(&example).unwrap()
        })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let got = p.wait().unwrap();
        let want = &expected.data()[i * k..(i + 1) * k];
        let bits_got: Vec<u32> = got.probs.iter().map(|v| v.to_bits()).collect();
        let bits_want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_got, bits_want, "request {i} diverged through batching");
        assert_eq!(got.label, expected_labels[i]);
        assert!(got.batch >= 1 && got.batch <= 5);
    }
    let report = server.shutdown();
    assert_eq!(report.aggregate.requests, n as u64);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let mut direct = session(mixed_members(13), 8);
    let server =
        Server::builder(EnginePlan::new(mixed_members(13), 8).unwrap().into_shared()).start();
    let answers: Vec<(Vec<f32>, Vec<f32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + c);
                    let mut out = Vec::new();
                    for _ in 0..8 {
                        let x = Tensor::randn([3, 8, 8], 1.0, &mut rng);
                        let got = client.submit(&x).unwrap().wait().unwrap();
                        out.push((x.into_vec(), got.probs));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let report = server.shutdown();
    assert_eq!(report.aggregate.requests, 32);
    // Every interleaved answer must equal the direct single-example path.
    for (example, probs) in answers {
        let x = Tensor::from_vec([1, 3, 8, 8], example);
        let want = direct.predict_average(&x);
        assert_eq!(
            probs,
            want.data(),
            "a concurrent request got a wrong answer"
        );
    }
}

#[test]
fn engine_rejects_bad_ensembles_with_typed_errors() {
    assert_eq!(
        EnginePlan::new(Vec::new(), 8).unwrap_err(),
        EngineError::EmptyEnsemble
    );
    let input = InputSpec::new(3, 8, 8);
    let mismatched = vec![
        EnsembleMember::new(
            "five",
            Network::seeded(&Architecture::mlp("a", input, 5, vec![8]), 0),
        ),
        EnsembleMember::new(
            "ten",
            Network::seeded(&Architecture::mlp("b", input, 10, vec![8]), 1),
        ),
    ];
    assert!(matches!(
        EnginePlan::new(mismatched, 8),
        Err(EngineError::MemberMismatch { .. })
    ));
}

#[test]
fn server_rejects_malformed_requests_and_survives() {
    let server =
        Server::builder(EnginePlan::new(mixed_members(17), 4).unwrap().into_shared()).start();
    assert!(matches!(
        server.submit(&Tensor::zeros([3, 4, 4])),
        Err(ServeError::BadExample { .. })
    ));
    // A good request still goes through after the rejection.
    let good = server.submit(&Tensor::zeros([3, 8, 8])).unwrap();
    assert_eq!(good.wait().unwrap().probs.len(), 5);
    let report = server.shutdown();
    assert_eq!(report.aggregate.requests, 1);
}

#[test]
fn data_parallel_engine_behind_server_stays_exact() {
    // Force the sharding axis under the server and compare to the
    // member-parallel direct path.
    let mut direct = session(mixed_members(19), 2);
    direct.set_policy(ExecPolicy::MemberParallel);
    let x = Tensor::randn([6, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(5));
    let expected = direct.predict_average(&x);

    let server = Server::builder(EnginePlan::new(mixed_members(19), 2).unwrap().into_shared())
        .policy(ExecPolicy::DataParallel { shards: 3 })
        .batching(BatchingConfig {
            max_batch: 6,
            max_wait: Duration::from_millis(20),
        })
        .start();
    let n = x.shape().dim(0);
    let row = x.len() / n;
    let k = expected.shape().dim(1);
    let pending: Vec<_> = (0..n)
        .map(|i| {
            let example = Tensor::from_vec([3, 8, 8], x.data()[i * row..(i + 1) * row].to_vec());
            server.submit(&example).unwrap()
        })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let got = p.wait().unwrap();
        assert_eq!(
            got.probs,
            &expected.data()[i * k..(i + 1) * k],
            "request {i}: sharded serving diverged"
        );
    }
    server.shutdown();
}

#[test]
fn multi_shard_server_over_shared_plan_is_bitwise_exact() {
    // The plan/session acceptance criterion: N >= 2 worker shards over
    // ONE shared EnginePlan must produce bitwise-identical predictions
    // to the single-engine path, while sharing member weights (no
    // per-shard clones — pointer identity on the plan).
    let x = Tensor::randn([16, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(23));
    let mut direct = session(mixed_members(23), 4);
    let expected = direct.predict_average(&x);
    let expected_labels = direct.predict_labels(&x);
    let k = expected.shape().dim(1);

    let plan = EnginePlan::new(mixed_members(23), 4).unwrap().into_shared();
    for shards in [2usize, 4] {
        let server = Server::builder(Arc::clone(&plan))
            .shards(shards)
            .batching(BatchingConfig {
                max_batch: 3,
                max_wait: Duration::from_millis(1),
            })
            .start();
        assert_eq!(server.num_shards(), shards);
        let n = x.shape().dim(0);
        let row = x.len() / n;
        let pending: Vec<_> = (0..n)
            .map(|i| {
                let example =
                    Tensor::from_vec([3, 8, 8], x.data()[i * row..(i + 1) * row].to_vec());
                server.submit(&example).unwrap()
            })
            .collect();
        let mut shards_seen = std::collections::HashSet::new();
        for (i, p) in pending.into_iter().enumerate() {
            let got = p.wait().unwrap();
            shards_seen.insert(got.shard);
            let bits_got: Vec<u32> = got.probs.iter().map(|v| v.to_bits()).collect();
            let bits_want: Vec<u32> = expected.data()[i * k..(i + 1) * k]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                bits_got, bits_want,
                "request {i} diverged on a {shards}-shard server"
            );
            assert_eq!(got.label, expected_labels[i]);
            assert!(got.shard < shards);
        }
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, n as u64);
        assert_eq!(report.per_shard.len(), shards);
        assert_eq!(
            report.per_shard.iter().map(|s| s.requests).sum::<u64>(),
            n as u64
        );
        // The aggregate is exactly the per-shard sums — including the
        // fault-handling counters, which a healthy run leaves at zero.
        assert_eq!(
            report.aggregate.deadline_expired,
            report
                .per_shard
                .iter()
                .map(|s| s.deadline_expired)
                .sum::<u64>()
        );
        assert_eq!(
            report.aggregate.degraded,
            report.per_shard.iter().map(|s| s.degraded).sum::<u64>()
        );
        assert_eq!(report.aggregate.deadline_expired, 0);
        assert_eq!(report.aggregate.degraded, 0);
        assert_eq!(
            report.worker_panics, 0,
            "healthy run must not record panics"
        );
        assert_eq!(report.restarts, 0, "healthy run must not record restarts");
    }
    // The servers consumed only sessions: the plan (and its weights) is
    // still uniquely reachable from here, never cloned per shard.
    assert_eq!(
        Arc::strong_count(&plan),
        1,
        "worker shards must not retain weight clones after shutdown"
    );
}

#[test]
fn overloaded_server_rejects_typed_and_recovers() {
    // Fill the bounded queue, assert typed rejection, then assert the
    // server keeps answering admitted work and accepts again.
    let plan = EnginePlan::new(mixed_members(29), 4).unwrap().into_shared();
    let server = Server::builder(plan)
        .shards(1)
        .queue_capacity(3)
        .batching(BatchingConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
        })
        .start();
    let x = Tensor::zeros([3, 8, 8]);
    let mut admitted = Vec::new();
    let mut rejection = None;
    for _ in 0..100_000 {
        match server.submit(&x) {
            Ok(p) => admitted.push(p),
            Err(ServeError::Overloaded { queue_depth }) => {
                rejection = Some(queue_depth);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(
        rejection.expect("a capacity-3 queue must overflow under a submit flood"),
        3,
        "Overloaded reports the configured queue bound"
    );
    for p in admitted {
        p.wait().expect("admitted requests are still answered");
    }
    // Recovery: the same server accepts and serves again.
    let again = server.submit(&x).expect("server recovers after overload");
    assert_eq!(again.wait().unwrap().probs.len(), 5);
    let report = server.shutdown();
    assert!(report.rejected >= 1, "rejections are tallied in the report");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let plan = EnginePlan::new(mixed_members(31), 4).unwrap().into_shared();
    let server = Server::builder(plan)
        .shards(2)
        .batching(BatchingConfig {
            max_batch: 64,
            // A window long enough that requests are still coalescing
            // when shutdown lands.
            max_wait: Duration::from_millis(250),
        })
        .start();
    let pending: Vec<_> = (0..10)
        .map(|_| server.submit(&Tensor::zeros([3, 8, 8])).unwrap())
        .collect();
    let report = server.shutdown();
    assert_eq!(
        report.aggregate.requests, 10,
        "shutdown must drain admitted requests, not drop them"
    );
    for (i, p) in pending.into_iter().enumerate() {
        p.wait()
            .unwrap_or_else(|e| panic!("request {i} dropped during graceful shutdown: {e}"));
    }
}

#[test]
fn trained_ensemble_hands_off_to_plan_without_disk() {
    // train -> EnginePlan -> sharded server, all in memory, bitwise
    // equal to the artifact path.
    let task = cifar10_sim(Scale::Tiny, 43);
    let input = InputSpec::new(3, 8, 8);
    let archs = vec![
        Architecture::mlp("small", input, 10, vec![12]),
        Architecture::mlp("large", input, 10, vec![16]),
    ];
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        },
        ..Default::default()
    };
    let trained = train_ensemble(&archs, &task.train, &Strategy::mothernets(), &cfg).unwrap();
    let plan = trained.to_engine_plan(8).unwrap().into_shared();
    assert_eq!(plan.num_members(), 2);
    assert_eq!(
        plan.member_names().collect::<Vec<_>>(),
        vec!["small", "large"]
    );

    let x = Tensor::randn([5, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(6));
    let mut direct = plan.session();
    let expected = direct.predict_average(&x);

    let bytes = trained.to_artifact_bytes();
    let mut from_artifact = EnginePlan::from_artifact_bytes(&bytes, 8)
        .unwrap()
        .into_shared()
        .session();
    assert_eq!(
        from_artifact.predict_average(&x).data(),
        expected.data(),
        "in-memory plan hand-off diverged from the artifact path"
    );
}
