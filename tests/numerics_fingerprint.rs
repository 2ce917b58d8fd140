//! Bit identity of training with a committed fingerprint.
//!
//! `training_determinism` and `deterministic_given_seed` compare two runs
//! of one build with each other; nothing there notices a change that moves
//! every run the same way. This suite pins what the trained bits *are*:
//! each run trains the three small VGGs of `pipeline.rs` for two epochs at
//! seed 7 on `cifar10_sim(Scale::Tiny, 7)`, and two 64-bit FNV-1a hashes
//! of the result are compared with committed constants: one of the `MNE1`
//! artifact (the members), one of the cost records and the MotherNets
//! (every record's name, phase, cluster, epochs, gradient steps,
//! convergence flag, final validation error and cost units, then every
//! MotherNet's `save_network` bytes). The runs are the four default
//! strategies, MotherNets at τ = 1.0 (one MotherNet per member),
//! MotherNets with full-data and with no member training, and the
//! default MotherNets ensemble grown by `hatch_additional`. A kernel or
//! orchestration rewrite that claims bit identity leaves every constant
//! unchanged; a change that moves numerics on purpose updates the
//! constants it moves and says so in CHANGES.md.
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
use mn_nn::io::save_network;
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

/// One more small VGG, hatchable from the default MotherNet of
/// [`small_vgg_ensemble`], for the `hatch_additional` run.
fn extra_vgg(classes: usize) -> Architecture {
    Architecture::plain(
        "d",
        InputSpec::new(3, 8, 8),
        classes,
        vec![
            ConvBlockSpec::repeated(3, 6, 1),
            ConvBlockSpec::repeated(3, 10, 1),
        ],
        vec![40],
    )
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn strategies() -> [Strategy; 7] {
    [
        Strategy::mothernets(),
        Strategy::FullData,
        Strategy::Bagging,
        Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs: 2,
            ..SnapshotStrategy::default()
        }),
        Strategy::MotherNets(MotherNetsStrategy {
            tau: 1.0,
            ..MotherNetsStrategy::default()
        }),
        Strategy::MotherNets(MotherNetsStrategy {
            member_training: MemberTraining::FullData,
            ..MotherNetsStrategy::default()
        }),
        Strategy::MotherNets(MotherNetsStrategy {
            member_training: MemberTraining::None,
            ..MotherNetsStrategy::default()
        }),
    ]
}

/// Names of the runs, in hash order: every strategy of [`strategies`],
/// then the default MotherNets ensemble grown by [`extra_vgg`].
const RUNS: [&str; 8] = [
    "MotherNets",
    "full-data",
    "bagging",
    "snapshot",
    "MotherNets tau=1",
    "MotherNets full-data members",
    "MotherNets untrained members",
    "MotherNets + hatch_additional",
];

/// Hash of every cost record (MotherNets first, then members) and every
/// MotherNet's `save_network` bytes. `wall_secs` is the one field left out.
fn records_hash(trained: &TrainedEnsemble) -> u64 {
    let mut bytes = Vec::new();
    for r in trained.mother_records.iter().chain(&trained.member_records) {
        bytes.extend(r.name.as_bytes());
        bytes.push(0);
        bytes.push(match r.phase {
            Phase::Mother => 0,
            Phase::Member => 1,
        });
        bytes.extend(r.cluster.map_or(u64::MAX, |g| g as u64).to_le_bytes());
        bytes.extend((r.epochs as u64).to_le_bytes());
        bytes.extend(r.gradient_steps.to_le_bytes());
        bytes.push(u8::from(r.converged));
        bytes.extend(r.final_val_error.to_bits().to_le_bytes());
        bytes.extend(r.cost_units.to_bits().to_le_bytes());
    }
    for (_, net) in &trained.mothernets {
        bytes.extend(save_network(net));
    }
    fnv1a64(&bytes)
}

/// The artifact hashes and the record hashes of every run, in [`RUNS`]
/// order.
fn fingerprints(parallel: bool) -> (Vec<u64>, Vec<u64>) {
    let task = cifar10_sim(Scale::Tiny, 7);
    let classes = task.train.num_classes();
    let archs = small_vgg_ensemble(classes);
    let cfg = EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        },
        seed: 7,
        parallel,
        ..Default::default()
    };
    let mut runs: Vec<TrainedEnsemble> = strategies()
        .iter()
        .map(|strategy| {
            train_ensemble(&archs, &task.train, strategy, &cfg).expect("training succeeds")
        })
        .collect();
    assert_eq!(
        runs[4].mothernets.len(),
        3,
        "tau = 1 trains three MotherNets"
    );
    let mut grown = runs[0].clone();
    grown
        .hatch_additional(
            &extra_vgg(classes),
            &task.train,
            &MotherNetsStrategy::default(),
            &cfg,
        )
        .expect("the extra VGG hatches");
    runs.push(grown);
    let artifacts = runs
        .iter()
        .map(|t| fnv1a64(&t.to_artifact_bytes()))
        .collect();
    (artifacts, runs.iter().map(records_hash).collect())
}

/// Committed artifact hashes: MotherNets, full-data, bagging, snapshot.
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
/// Committed artifact hashes of the last four [`RUNS`].
const FMA_MORE: [u64; 4] = [
    0x851a_18da_04f9_d13d,
    0xe78d_9554_e96d_3572,
    0x5133_588c_4334_33d9,
    0x8051_d5f9_69dc_6958,
];
const NO_FMA_MORE: [u64; 4] = [
    0x2ac2_e3d8_16f4_ae9c,
    0x511a_811c_6f1c_4504,
    0xa80e_6f49_147e_039d,
    0x3cd2_3941_5e86_5963,
];
/// Committed record hashes of every run, in [`RUNS`] order.
const FMA_RECORDS: [u64; 8] = [
    0x2feb_1143_76f6_1061,
    0x7d39_dc68_9596_5e4f,
    0xd738_e3e3_e5d8_7a53,
    0xf8e7_1624_4c95_1bba,
    0x8f8b_70b3_d6a2_a6a6,
    0x196c_32b5_f8aa_dd0a,
    0xd59d_83b3_65b1_4c0f,
    0x0c41_9403_3176_e6a9,
];
const NO_FMA_RECORDS: [u64; 8] = [
    0xf7e9_910b_c1f5_f3f5,
    0x7d39_dc68_9596_5e4f,
    0xd738_e3e3_e5d8_7a53,
    0xf8e7_1624_4c95_1bba,
    0x757c_8bdf_6b94_0e0e,
    0x964f_d5f2_6022_7d92,
    0x3ead_4bfb_f169_5a1b,
    0x9805_61dd_442e_524d,
];

fn check(parallel: bool) {
    let (first, more, records) = if mn_tensor::simd::COMPILED_FMA {
        (FMA, FMA_MORE, FMA_RECORDS)
    } else {
        (NO_FMA, NO_FMA_MORE, NO_FMA_RECORDS)
    };
    let (artifacts, got_records) = fingerprints(parallel);
    let hex = |v: &[u64]| v.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>();
    let context = format!(
        "order {RUNS:?}, COMPILED_FMA = {}, parallel = {parallel}",
        mn_tensor::simd::COMPILED_FMA
    );
    assert_eq!(
        hex(&artifacts),
        hex(&[first, more].concat()),
        "trained-artifact fingerprints moved ({context})"
    );
    assert_eq!(
        hex(&got_records),
        hex(&records),
        "record and MotherNet fingerprints moved ({context})"
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
