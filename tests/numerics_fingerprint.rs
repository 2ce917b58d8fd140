//! Bit identity of training with a committed fingerprint.
//!
//! `training_determinism` and `deterministic_given_seed` compare two runs
//! of one build with each other; nothing there notices a change that moves
//! every run the same way. This suite pins what the trained bits *are*:
//! each strategy trains the three small VGGs of `pipeline.rs` for two
//! epochs at seed 7 on `cifar10_sim(Scale::Tiny, 7)`, and the 64-bit
//! FNV-1a hash of the resulting `MNE1` artifact is compared with a
//! committed constant. A kernel rewrite that claims bit identity leaves
//! every constant unchanged; a change that moves numerics on purpose
//! updates the constants it moves and says so in CHANGES.md.
//!
//! The artifact ends in its own CRC-32, so a CRC-32 of the whole artifact
//! is the same residue for every artifact: FNV-1a is used instead.
//!
//! The constants are keyed on [`mn_tensor::simd::COMPILED_FMA`], the one
//! compile-time switch that changes rounding (fused or separate
//! multiply-add). The native build checks the FMA column; a
//! `-C target-cpu=generic` build checks the other.

use mn_data::presets::{cifar10_sim, Scale};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec};
use mn_nn::train::TrainConfig;
use mothernets::prelude::*;

fn small_vgg_ensemble(classes: usize) -> Vec<Architecture> {
    let input = InputSpec::new(3, 8, 8);
    let vgg = |name, blocks, dense| Architecture::plain(name, input, classes, blocks, dense);
    vec![
        vgg(
            "a",
            vec![
                ConvBlockSpec::repeated(3, 4, 1),
                ConvBlockSpec::repeated(3, 8, 1),
            ],
            vec![32],
        ),
        vgg(
            "b",
            vec![
                ConvBlockSpec::repeated(3, 6, 1),
                ConvBlockSpec::repeated(3, 8, 2),
            ],
            vec![32],
        ),
        vgg(
            "c",
            vec![
                ConvBlockSpec::repeated(5, 4, 1),
                ConvBlockSpec::repeated(3, 12, 1),
            ],
            vec![48],
        ),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn strategies() -> [Strategy; 4] {
    [
        Strategy::mothernets(),
        Strategy::FullData,
        Strategy::Bagging,
        Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs: 2,
            ..SnapshotStrategy::default()
        }),
    ]
}

/// The artifact hash of every strategy, in [`strategies`] order.
fn fingerprints(parallel: bool) -> Vec<u64> {
    let task = cifar10_sim(Scale::Tiny, 7);
    let archs = small_vgg_ensemble(task.train.num_classes());
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        },
        seed: 7,
        parallel,
        ..Default::default()
    };
    strategies()
        .iter()
        .map(|strategy| {
            let trained =
                train_ensemble(&archs, &task.train, strategy, &cfg).expect("training succeeds");
            fnv1a64(&trained.to_artifact_bytes())
        })
        .collect()
}

/// Committed hashes: MotherNets, full-data, bagging, snapshot.
const FMA: [u64; 4] = [
    0xec90_9f14_066d_94de,
    0x2548_5b01_38b9_470f,
    0x07c1_d9b1_f629_9d51,
    0x6e2f_e9e6_b7d2_691f,
];
const NO_FMA: [u64; 4] = [
    0xb067_8c69_343f_312f,
    0x9f88_73d3_920e_087f,
    0x2e1a_22c2_b6bd_629c,
    0xdc77_9bcc_1360_7ffb,
];

fn check(parallel: bool) {
    let want = if mn_tensor::simd::COMPILED_FMA {
        FMA
    } else {
        NO_FMA
    };
    let got = fingerprints(parallel);
    let hex = |v: &[u64]| v.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>();
    let labels = strategies().map(|s| s.label());
    assert_eq!(
        hex(&got),
        hex(&want),
        "trained-artifact fingerprints moved (order {labels:?}, COMPILED_FMA = {}, parallel = {parallel})",
        mn_tensor::simd::COMPILED_FMA
    );
}

#[test]
fn serial_training_matches_committed_fingerprint() {
    check(false);
}

#[test]
fn parallel_training_matches_committed_fingerprint() {
    check(true);
}

#[test]
fn fnv1a64_known_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}
