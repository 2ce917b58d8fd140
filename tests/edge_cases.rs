//! Edge cases and failure injection across the public API: boundary sizes,
//! degenerate ensembles, and corrupted inputs must fail loudly (or work)
//! rather than corrupt results silently.

use mn_data::presets::{cifar10_sim, Scale};
use mn_data::synthetic::{generate, SyntheticSpec};
use mn_ensemble::engine::EnginePlan;
use mn_ensemble::{EnsembleMember, MemberPredictions};
use mn_morph::{morph_to, MorphError};
use mn_nn::arch::{Architecture, ConvBlockSpec, ConvLayerSpec, InputSpec, ResBlockSpec};
use mn_nn::io::{load_weights, save_weights};
use mn_nn::train::TrainConfig;
use mn_nn::{Mode, Network};
use mn_tensor::Tensor;
use mothernets::prelude::*;

#[test]
fn single_member_ensemble_works_end_to_end() {
    // The degenerate ensemble of one network: MotherNet == member.
    let task = cifar10_sim(Scale::Tiny, 31);
    let arch = Architecture::mlp("only", InputSpec::new(3, 8, 8), 10, vec![12]);
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        },
        ..Default::default()
    };
    let trained = train_ensemble(
        std::slice::from_ref(&arch),
        &task.train,
        &Strategy::mothernets(),
        &cfg,
    )
    .unwrap();
    assert_eq!(trained.members.len(), 1);
    let clustering = trained.clustering.unwrap();
    assert_eq!(clustering.len(), 1);
    assert_eq!(
        clustering.clusters[0].mothernet.param_count(),
        arch.param_count()
    );
}

#[test]
fn one_by_one_convolutions_throughout() {
    // A network made entirely of 1x1 convolutions is legal and morphable.
    let input = InputSpec::new(3, 8, 8);
    let small = Architecture::plain(
        "one",
        input,
        5,
        vec![ConvBlockSpec::new(vec![ConvLayerSpec::new(1, 4)])],
        vec![8],
    );
    let big = Architecture::plain(
        "three",
        input,
        5,
        vec![ConvBlockSpec::new(vec![
            ConvLayerSpec::new(3, 8),
            ConvLayerSpec::new(3, 8),
        ])],
        vec![8],
    );
    let mut src = Network::seeded(&small, 32);
    let mut hatched = morph_to(&src, &big).unwrap();
    let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rand::thread_rng());
    let a = src.forward(&x, Mode::Eval);
    let b = hatched.forward(&x, Mode::Eval);
    assert!(mn_tensor::max_abs_diff(a.data(), b.data()) <= mn_tensor::PRESERVATION_TOLERANCE);
}

#[test]
fn minimal_spatial_extent_survives_pooling() {
    // 4x4 input with two pooling stages bottoms out at 1x1 — still legal.
    let arch = Architecture::plain(
        "tiny-spatial",
        InputSpec::new(1, 4, 4),
        3,
        vec![
            ConvBlockSpec::repeated(3, 2, 1),
            ConvBlockSpec::repeated(3, 4, 1),
        ],
        vec![6],
    );
    arch.validate().unwrap();
    let mut net = Network::seeded(&arch, 33);
    let y = net.forward(&Tensor::zeros([2, 1, 4, 4]), Mode::Eval);
    assert_eq!(y.shape().dims(), &[2, 3]);
    // One more pooling stage would underflow and must be rejected.
    let too_deep = Architecture::plain(
        "too-deep",
        InputSpec::new(1, 4, 4),
        3,
        vec![
            ConvBlockSpec::repeated(3, 2, 1),
            ConvBlockSpec::repeated(3, 2, 1),
            ConvBlockSpec::repeated(3, 2, 1),
        ],
        vec![],
    );
    assert!(too_deep.validate().is_err());
}

#[test]
fn residual_and_plain_never_cross_morph() {
    let input = InputSpec::new(3, 8, 8);
    let plain = Architecture::plain(
        "p",
        input,
        5,
        vec![ConvBlockSpec::repeated(3, 4, 1)],
        vec![8],
    );
    let residual = Architecture::residual("r", input, 5, vec![ResBlockSpec::new(1, 4, 3)]);
    let p_net = Network::seeded(&plain, 34);
    let r_net = Network::seeded(&residual, 35);
    assert!(matches!(
        morph_to(&p_net, &residual),
        Err(MorphError::NotExpandable { .. })
    ));
    assert!(matches!(
        morph_to(&r_net, &plain),
        Err(MorphError::NotExpandable { .. })
    ));
}

#[test]
fn corrupted_checkpoint_cannot_poison_a_network() {
    let arch = Architecture::mlp("m", InputSpec::new(3, 8, 8), 5, vec![8]);
    let mut net = Network::seeded(&arch, 36);
    let mut blob = save_weights(&net);
    // Flip the tensor count field.
    blob[4] = blob[4].wrapping_add(1);
    assert!(load_weights(&mut net, &blob).is_err());
    // The network must still run (state intact or partially written but
    // structurally sound).
    let y = net.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval);
    assert!(y.data().iter().all(|v| v.is_finite()));
}

#[test]
fn two_class_two_example_task_trains() {
    // Smallest legal task: 2 classes, handful of examples, batch norm
    // still satisfied (batch of >= 2).
    let task = generate(&SyntheticSpec {
        num_classes: 2,
        train_per_class: 4,
        test_per_class: 2,
        channels: 1,
        height: 4,
        width: 4,
        modes_per_class: 1,
        ..SyntheticSpec::default()
    });
    let arch = Architecture::plain(
        "tiny",
        InputSpec::new(1, 4, 4),
        2,
        vec![ConvBlockSpec::repeated(3, 2, 1)],
        vec![4],
    );
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        },
        val_fraction: 0.25,
        ..Default::default()
    };
    let trained = train_ensemble(&[arch], &task.train, &Strategy::FullData, &cfg).unwrap();
    assert_eq!(trained.members.len(), 1);
}

#[test]
fn snapshot_on_single_architecture() {
    let task = cifar10_sim(Scale::Tiny, 37);
    let arch = Architecture::mlp("solo", InputSpec::new(3, 8, 8), 10, vec![16]);
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 4,
            ..TrainConfig::default()
        },
        ..Default::default()
    };
    let strategy = Strategy::Snapshot(SnapshotStrategy {
        cycle_epochs: 2,
        min_lr_factor: 0.1,
    });
    let trained = train_ensemble(&[arch], &task.train, &strategy, &cfg).unwrap();
    assert_eq!(trained.members.len(), 1);
    assert_eq!(trained.member_records[0].epochs, 2);
}

fn small_conv_members(n: u64) -> Vec<EnsembleMember> {
    let arch = Architecture::plain(
        "edge",
        InputSpec::new(3, 8, 8),
        4,
        vec![ConvBlockSpec::repeated(3, 4, 1)],
        vec![8],
    );
    (0..n)
        .map(|s| EnsembleMember::new(format!("edge{s}"), Network::seeded(&arch, 50 + s)))
        .collect()
}

#[test]
fn member_predictions_prefix_invariants() {
    let probs: Vec<Tensor> = (0..4)
        .map(|m| Tensor::filled([3, 2], 0.25 * (m + 1) as f32))
        .collect();
    let preds = MemberPredictions::from_probs(probs);
    assert_eq!(preds.num_members(), 4);
    assert_eq!(preds.num_examples(), 3);
    assert_eq!(preds.num_classes(), 2);
    // prefix(k) keeps exactly the first k members, in order, unchanged.
    for k in 1..=4 {
        let p = preds.prefix(k);
        assert_eq!(p.num_members(), k);
        assert_eq!(p.num_examples(), 3);
        assert_eq!(p.num_classes(), 2);
        for (i, t) in p.probs().iter().enumerate() {
            assert_eq!(t.data(), preds.probs()[i].data());
        }
    }
    // The full prefix is the identity.
    let full = preds.prefix(4);
    assert_eq!(full.num_members(), preds.num_members());
}

#[test]
#[should_panic(expected = "out of range")]
fn member_predictions_prefix_rejects_zero() {
    MemberPredictions::from_probs(vec![Tensor::filled([1, 2], 0.5)]).prefix(0);
}

#[test]
#[should_panic(expected = "out of range")]
fn member_predictions_prefix_rejects_overrun() {
    MemberPredictions::from_probs(vec![Tensor::filled([1, 2], 0.5)]).prefix(2);
}

#[test]
#[should_panic(expected = "shapes disagree")]
fn member_predictions_from_probs_rejects_ragged_shapes() {
    MemberPredictions::from_probs(vec![Tensor::zeros([2, 3]), Tensor::zeros([2, 4])]);
}

#[test]
fn empty_batch_through_engine() {
    // A serving engine sees empty request batches (e.g. a drained queue);
    // they must flow through cleanly rather than panic.
    let mut engine = EnginePlan::new(small_conv_members(3), 8)
        .unwrap()
        .into_shared()
        .session();
    let empty = Tensor::zeros([0, 3, 8, 8]);
    let preds = engine.predict(&empty);
    assert_eq!(preds.num_members(), 3);
    assert_eq!(preds.num_examples(), 0);
    assert_eq!(preds.num_classes(), 4);
    assert!(engine.predict_labels(&empty).is_empty());
    assert!(engine.predict_vote_labels(&empty).is_empty());
    let avg = engine.predict_average(&empty);
    assert_eq!(avg.shape().dims(), &[0, 4]);
}

#[test]
fn single_example_through_engine_matches_batched() {
    // One-example requests (interactive traffic) must agree exactly with
    // the same example served inside a larger batch.
    let x = Tensor::randn([5, 3, 8, 8], 1.0, &mut rand::thread_rng());
    let mut engine = EnginePlan::new(small_conv_members(2), 8)
        .unwrap()
        .into_shared()
        .session();
    let batched = engine.predict(&x);
    let first = mn_nn::metrics::gather_examples(&x, &[0]);
    let single = engine.predict(&first);
    assert_eq!(single.num_examples(), 1);
    for m in 0..2 {
        let batch_row = &batched.probs()[m].data()[..batched.num_classes()];
        assert_eq!(
            single.probs()[m].data(),
            batch_row,
            "member {m}: single-example prediction diverged from batched"
        );
    }
}

#[test]
fn hatch_additional_rejects_incompatible_member() {
    let task = cifar10_sim(Scale::Tiny, 38);
    let input = InputSpec::new(3, 8, 8);
    let base = Architecture::mlp("base", input, 10, vec![16]);
    let strategy = MotherNetsStrategy::default();
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 1,
            ..TrainConfig::default()
        },
        ..Default::default()
    };
    let mut trained =
        train_ensemble(&[base], &task.train, &Strategy::MotherNets(strategy), &cfg).unwrap();
    // Smaller than the MotherNet: not hatchable.
    let smaller = Architecture::mlp("smaller", input, 10, vec![8]);
    assert!(trained
        .hatch_additional(&smaller, &task.train, &strategy, &cfg)
        .is_err());
    // Different family: not hatchable.
    let conv = Architecture::plain(
        "conv",
        input,
        10,
        vec![ConvBlockSpec::repeated(3, 4, 1)],
        vec![8],
    );
    assert!(trained
        .hatch_additional(&conv, &task.train, &strategy, &cfg)
        .is_err());
    // Members unchanged after failed growth.
    assert_eq!(trained.members.len(), 1);
}

/// Every input the validation split or `train_with` would panic on is a
/// typed error from both training entry points, returned before any job
/// runs (under `parallel`, the panic would fire inside a worker).
#[test]
fn bad_training_inputs_are_typed_errors_from_both_entry_points() {
    let task = cifar10_sim(Scale::Tiny, 39);
    let input = InputSpec::new(3, 8, 8);
    let base = Architecture::mlp("base", input, 10, vec![12]);
    let extra = Architecture::mlp("extra", input, 10, vec![16]);
    let mcfg = MotherNetsStrategy::default();
    let good = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 1,
            ..TrainConfig::default()
        },
        parallel: true,
        ..Default::default()
    };
    let archs = std::slice::from_ref(&base);
    let mut trained =
        train_ensemble(archs, &task.train, &Strategy::MotherNets(mcfg), &good).unwrap();

    let with_train = |train: TrainConfig| EnsembleTrainConfig {
        train,
        ..good.clone()
    };
    let with_val = |val_fraction: f64| EnsembleTrainConfig {
        val_fraction,
        ..good.clone()
    };
    let bad = [
        ("val_fraction", with_val(0.0)),
        ("val_fraction", with_val(1.0)),
        ("val_fraction", with_val(f64::NAN)),
        (
            "batch_size",
            with_train(TrainConfig {
                batch_size: 0,
                ..good.train.clone()
            }),
        ),
        (
            "max_epochs",
            with_train(TrainConfig {
                max_epochs: 0,
                ..good.train.clone()
            }),
        ),
    ];
    let is_invalid = |r: Result<_, MotherNetsError>, what: &str| matches!(r, Err(MotherNetsError::InvalidParameter { what: w, .. }) if w == what);
    for (what, cfg) in &bad {
        for strategy in [
            Strategy::FullData,
            Strategy::Bagging,
            Strategy::MotherNets(mcfg),
        ] {
            let r = train_ensemble(archs, &task.train, &strategy, cfg).map(|_| ());
            assert!(is_invalid(r, what), "{strategy}: {what}");
        }
        let r = trained.hatch_additional(&extra, &task.train, &mcfg, cfg);
        assert!(is_invalid(r, what), "hatch_additional: {what}");
    }

    // Snapshot cycles replace `max_epochs`: `cycle_epochs` is checked
    // instead.
    let snapshot = |cycle_epochs| {
        Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs,
            ..SnapshotStrategy::default()
        })
    };
    let r = train_ensemble(archs, &task.train, &snapshot(0), &good).map(|_| ());
    assert!(is_invalid(r, "cycle_epochs"));
    assert!(train_ensemble(archs, &task.train, &snapshot(1), &bad[4].1).is_ok());

    // Too few examples to split off a validation set.
    let one = task.train.subset(&[0]);
    assert!(matches!(
        train_ensemble(archs, &one, &Strategy::FullData, &good),
        Err(MotherNetsError::DataMismatch { .. })
    ));
    assert!(matches!(
        trained.hatch_additional(&extra, &one, &mcfg, &good),
        Err(MotherNetsError::DataMismatch { .. })
    ));

    // Failed growth appended nothing; a good configuration still grows.
    assert_eq!(trained.members.len(), 1);
    trained
        .hatch_additional(&extra, &task.train, &mcfg, &good)
        .unwrap();
    assert_eq!(trained.members.len(), 2);
    assert_eq!(trained.member_records.len(), 2);
}
