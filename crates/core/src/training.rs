//! End-to-end ensemble training: MotherNets and the paper's two baselines.
//!
//! The three strategies of the evaluation (§3):
//!
//! * [`Strategy::FullData`] — every member trained from scratch on the full
//!   training split;
//! * [`Strategy::Bagging`] — every member trained from scratch on a
//!   bootstrap resample;
//! * [`Strategy::MotherNets`] — cluster the ensemble (§2.3), train each
//!   cluster's MotherNet once on the full data (low bias), hatch every
//!   member by function-preserving transformations, then fine-tune each
//!   member on a bootstrap resample (diversity / low variance).
//!
//! All strategies use the **same convergence criterion** (validation-loss
//! patience), as the paper requires; the MotherNets speedup *is* the
//! reduction in epochs-to-convergence of hatched members.
//!
//! Timing: every record carries wall-clock seconds and a deterministic cost
//! counter. Total ensemble training time is reported **two ways**:
//! [`TrainedEnsemble::total_wall_secs`] is the *sum over networks*
//! (sequential-equivalent compute — what the paper's Figures 5b–9b plot),
//! while [`TrainedEnsemble::wall_clock_secs`] is the elapsed time of the
//! whole strategy run, which drops below the sequential-equivalent figure
//! when members train in parallel ([`EnsembleTrainConfig::parallel`]).
//!
//! Parallel member training composes with the parallel tensor kernels
//! without oversubscription: each member job owns a private [`Workspace`]
//! (no shared scratch, no locks), and the vendored rayon shim runs nested
//! pipelines inline on its workers, so a machine-wide member fan-out
//! never multiplies into a kernel-level spawn storm.

use std::time::Instant;

use mn_data::sampler::{bag_seeded, train_val_split};
use mn_data::Dataset;
use mn_ensemble::{ArtifactError, EngineError, EnginePlan, EnsembleManifest, EnsembleMember};
use mn_morph::MorphOptions;
use mn_nn::arch::Architecture;
use mn_nn::train::{train_with, TrainConfig, TrainReport};
use mn_nn::{LrSchedule, Network};
use mn_tensor::Workspace;
use rayon::prelude::*;

use crate::cluster::{cluster_architectures, Clustering};
use crate::error::MotherNetsError;
use crate::hatch::hatch_with_report;

/// How hatched members are trained after hatching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemberTraining {
    /// Fine-tune on a bootstrap resample — the paper's method.
    Bagging,
    /// Fine-tune on the full training split (ablation: no bagging
    /// diversity).
    FullData,
    /// No fine-tuning (ablation: pure inherited function).
    None,
}

/// Configuration of the MotherNets strategy.
#[derive(Clone, Copy, Debug)]
pub struct MotherNetsStrategy {
    /// Clustering parameter τ ∈ (0, 1]: minimum fraction of each member's
    /// parameters that must originate from its MotherNet (§2.3).
    pub tau: f64,
    /// Symmetry-breaking noise added while hatching (0 = exact transfer).
    pub hatch_noise: f32,
    /// How members are trained after hatching.
    pub member_training: MemberTraining,
    /// Learning-rate multiplier for hatched members relative to the shared
    /// base rate. Hatched networks start from a trained function, so they
    /// are *fine-tuned* rather than trained: a reduced rate keeps the
    /// inherited function intact and lets the shared convergence criterion
    /// fire after a handful of epochs. The paper folds such schedule
    /// choices under §2.2 ("existing approaches to accelerate the training
    /// of individual neural networks … can all be incorporated into our
    /// training phases").
    pub member_lr_scale: f32,
}

impl Default for MotherNetsStrategy {
    fn default() -> Self {
        MotherNetsStrategy {
            tau: 0.5,
            hatch_noise: 1e-2,
            member_training: MemberTraining::Bagging,
            member_lr_scale: 0.6,
        }
    }
}

/// Configuration of the snapshot-ensembles comparator (Huang et al.,
/// discussed in the paper's related work §4): train *one* network with
/// cyclic cosine annealing and snapshot it at every cycle minimum. The
/// resulting ensemble is monolithic — every member shares one architecture
/// — which is exactly the limitation MotherNets remove; the comparator
/// exists for the ablation harness.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotStrategy {
    /// Epochs per annealing cycle (= per snapshot).
    pub cycle_epochs: usize,
    /// Annealing floor as a fraction of the base learning rate.
    pub min_lr_factor: f32,
}

impl Default for SnapshotStrategy {
    fn default() -> Self {
        SnapshotStrategy {
            cycle_epochs: 4,
            min_lr_factor: 0.05,
        }
    }
}

/// An ensemble training strategy.
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    /// MotherNets (the paper's contribution).
    MotherNets(MotherNetsStrategy),
    /// Train every member from scratch on the full data.
    FullData,
    /// Train every member from scratch on a bootstrap resample.
    Bagging,
    /// Snapshot ensembles: one architecture, one training run, one member
    /// per learning-rate cycle (related-work comparator).
    Snapshot(SnapshotStrategy),
}

impl Strategy {
    /// The paper's default MotherNets configuration (τ = 0.5).
    pub fn mothernets() -> Strategy {
        Strategy::MotherNets(MotherNetsStrategy::default())
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::MotherNets(_) => "MotherNets",
            Strategy::FullData => "full-data",
            Strategy::Bagging => "bagging",
            Strategy::Snapshot(_) => "snapshot",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Configuration shared by all strategies.
#[derive(Clone, Debug)]
pub struct EnsembleTrainConfig {
    /// Per-network training hyper-parameters (including the shared
    /// convergence criterion).
    pub train: TrainConfig,
    /// Fraction of the training set held out for validation/convergence.
    pub val_fraction: f64,
    /// Master seed; all member seeds derive from it.
    pub seed: u64,
    /// Train members of a strategy in parallel with rayon. Does not affect
    /// reported (sequential-equivalent) training time.
    pub parallel: bool,
}

impl Default for EnsembleTrainConfig {
    fn default() -> Self {
        EnsembleTrainConfig {
            train: TrainConfig::default(),
            val_fraction: 0.15,
            seed: 0,
            parallel: true,
        }
    }
}

/// Whether a record describes a MotherNet or an ensemble member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// A cluster's MotherNet (trained once, full data).
    Mother,
    /// An ensemble member.
    Member,
}

/// Cost accounting for one trained network.
#[derive(Clone, Debug)]
pub struct MemberRecord {
    /// Network name (architecture name, or `mothernet-g`).
    pub name: String,
    /// MotherNet or member.
    pub phase: Phase,
    /// Cluster index (MotherNets strategy only).
    pub cluster: Option<usize>,
    /// Wall-clock training seconds (this network only).
    pub wall_secs: f64,
    /// Epochs run until convergence.
    pub epochs: usize,
    /// Gradient steps taken.
    pub gradient_steps: u64,
    /// Deterministic cost: gradient steps × parameter count.
    pub cost_units: f64,
    /// Validation error at the end of training.
    pub final_val_error: f32,
    /// Whether the patience criterion fired.
    pub converged: bool,
}

impl MemberRecord {
    fn from_report(name: &str, phase: Phase, cluster: Option<usize>, report: &TrainReport) -> Self {
        MemberRecord {
            name: name.to_string(),
            phase,
            cluster,
            wall_secs: report.wall_secs,
            epochs: report.epochs_run(),
            gradient_steps: report.gradient_steps,
            cost_units: report.cost_units,
            final_val_error: report.final_val.error,
            converged: report.converged,
        }
    }
}

/// A fully trained ensemble with its cost accounting.
#[derive(Clone, Debug)]
pub struct TrainedEnsemble {
    /// Trained members, in the order the architectures were supplied.
    pub members: Vec<EnsembleMember>,
    /// Records for the MotherNets (empty for baselines).
    pub mother_records: Vec<MemberRecord>,
    /// Records for the members, aligned with `members`.
    pub member_records: Vec<MemberRecord>,
    /// Trained MotherNets (kept for incremental ensemble growth).
    pub mothernets: Vec<(Architecture, Network)>,
    /// The clustering used (MotherNets strategy only).
    pub clustering: Option<Clustering>,
    /// Elapsed wall-clock seconds of the whole strategy run (vs. the
    /// sequential-equivalent [`TrainedEnsemble::total_wall_secs`]).
    /// Incremental growth via [`TrainedEnsemble::hatch_additional`] adds
    /// its own elapsed time.
    pub wall_clock_secs: f64,
    /// Label of the strategy that trained the ensemble (see
    /// [`Strategy::label`]); recorded in the serving artifact's manifest.
    pub strategy_label: String,
}

fn derive_seed(master: u64, salt: u64, index: usize) -> u64 {
    // SplitMix64-style mixing — cheap, deterministic, well spread.
    let mut z = master
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn check_data(archs: &[Architecture], data: &Dataset) -> Result<(), MotherNetsError> {
    let (c, h, w) = data.geometry();
    for a in archs {
        if (a.input.channels, a.input.height, a.input.width) != (c, h, w) {
            return Err(MotherNetsError::DataMismatch {
                reason: format!(
                    "{} expects {}x{}x{} input, data is {c}x{h}x{w}",
                    a.name, a.input.channels, a.input.height, a.input.width
                ),
            });
        }
        if a.num_classes != data.num_classes() {
            return Err(MotherNetsError::DataMismatch {
                reason: format!(
                    "{} has {} classes, data has {}",
                    a.name,
                    a.num_classes,
                    data.num_classes()
                ),
            });
        }
    }
    Ok(())
}

/// Trains an ensemble of architectures on `train_set` with the given
/// strategy.
///
/// # Errors
///
/// Returns [`MotherNetsError`] for empty/incompatible ensembles, bad
/// parameters, or data/architecture mismatches.
pub fn train_ensemble(
    archs: &[Architecture],
    train_set: &Dataset,
    strategy: &Strategy,
    cfg: &EnsembleTrainConfig,
) -> Result<TrainedEnsemble, MotherNetsError> {
    if archs.is_empty() {
        return Err(MotherNetsError::EmptyEnsemble);
    }
    for a in archs {
        a.validate()?;
    }
    check_data(archs, train_set)?;
    if !(cfg.val_fraction > 0.0 && cfg.val_fraction < 1.0) {
        return Err(MotherNetsError::InvalidParameter {
            what: "val_fraction".into(),
            value: cfg.val_fraction,
        });
    }

    let run_start = Instant::now();
    let (train_core, val) = train_val_split(train_set, cfg.val_fraction, cfg.seed);

    match strategy {
        Strategy::FullData => {
            let jobs: Vec<(usize, &Architecture)> = archs.iter().enumerate().collect();
            let results = run_members(&jobs, cfg, |i, arch, tcfg, ws| {
                let mut net = Network::seeded(arch, derive_seed(cfg.seed, 1, i));
                let report = train_with(
                    &mut net,
                    train_core.images(),
                    train_core.labels(),
                    val.images(),
                    val.labels(),
                    &tcfg,
                    ws,
                );
                (net, report)
            });
            Ok(assemble(
                archs,
                results,
                Vec::new(),
                Vec::new(),
                None,
                run_start,
                strategy.label(),
            ))
        }
        Strategy::Bagging => {
            let jobs: Vec<(usize, &Architecture)> = archs.iter().enumerate().collect();
            let results = run_members(&jobs, cfg, |i, arch, tcfg, ws| {
                let bagged = bag_seeded(&train_core, derive_seed(cfg.seed, 2, i));
                let mut net = Network::seeded(arch, derive_seed(cfg.seed, 3, i));
                let report = train_with(
                    &mut net,
                    bagged.images(),
                    bagged.labels(),
                    val.images(),
                    val.labels(),
                    &tcfg,
                    ws,
                );
                (net, report)
            });
            Ok(assemble(
                archs,
                results,
                Vec::new(),
                Vec::new(),
                None,
                run_start,
                strategy.label(),
            ))
        }
        Strategy::Snapshot(scfg) => {
            if scfg.cycle_epochs == 0 {
                return Err(MotherNetsError::InvalidParameter {
                    what: "cycle_epochs".into(),
                    value: 0.0,
                });
            }
            // One training run of the ensemble's largest architecture;
            // every cosine cycle contributes one snapshot member.
            let base = archs
                .iter()
                .max_by_key(|a| a.param_count())
                .expect("non-empty ensemble");
            let mut net = Network::seeded(base, derive_seed(cfg.seed, 20, 0));
            let mut members = Vec::with_capacity(archs.len());
            let mut member_records = Vec::with_capacity(archs.len());
            // One training run, one workspace: every cycle reuses the pool.
            let mut ws = Workspace::new();
            for c in 0..archs.len() {
                let cycle_cfg = TrainConfig {
                    max_epochs: scfg.cycle_epochs,
                    // Never stop inside a cycle: snapshots are taken at
                    // cycle minima, not at convergence.
                    patience: usize::MAX,
                    schedule: LrSchedule::Cosine {
                        period: scfg.cycle_epochs,
                        min_factor: scfg.min_lr_factor,
                    },
                    shuffle_seed: derive_seed(cfg.seed, 21, c),
                    ..cfg.train.clone()
                };
                let report = train_with(
                    &mut net,
                    train_core.images(),
                    train_core.labels(),
                    val.images(),
                    val.labels(),
                    &cycle_cfg,
                    &mut ws,
                );
                let name = format!("snapshot-{}-{}", c, base.name);
                member_records.push(MemberRecord::from_report(
                    &name,
                    Phase::Member,
                    None,
                    &report,
                ));
                let mut snapshot = net.clone();
                snapshot.clear_caches();
                members.push(EnsembleMember::new(name, snapshot));
            }
            Ok(TrainedEnsemble {
                members,
                mother_records: Vec::new(),
                member_records,
                mothernets: Vec::new(),
                clustering: None,
                wall_clock_secs: run_start.elapsed().as_secs_f64(),
                strategy_label: strategy.label().to_string(),
            })
        }
        Strategy::MotherNets(mcfg) => {
            let clustering = cluster_architectures(archs, mcfg.tau)?;
            let mut mothernets: Vec<(Architecture, Network)> = Vec::new();
            let mut mother_records: Vec<MemberRecord> = Vec::new();

            // Train each cluster's MotherNet on the full training split
            // (one retained workspace across the cluster loop).
            let mut mother_ws = Workspace::new();
            for (g, cluster) in clustering.clusters.iter().enumerate() {
                let mut net = Network::seeded(&cluster.mothernet, derive_seed(cfg.seed, 4, g));
                let tcfg = cfg.train.clone().with_seed(derive_seed(cfg.seed, 5, g));
                let report = train_with(
                    &mut net,
                    train_core.images(),
                    train_core.labels(),
                    val.images(),
                    val.labels(),
                    &tcfg,
                    &mut mother_ws,
                );
                mother_records.push(MemberRecord::from_report(
                    &cluster.mothernet.name,
                    Phase::Mother,
                    Some(g),
                    &report,
                ));
                mothernets.push((cluster.mothernet.clone(), net));
            }

            // Hatch and fine-tune every member.
            let jobs: Vec<(usize, &Architecture)> = archs.iter().enumerate().collect();
            let clustering_ref = &clustering;
            let mothernets_ref = &mothernets;
            let results: Vec<(Network, TrainReport, usize)> = {
                // Each member job owns a private workspace: parallel
                // hatched-member training composes with the parallel
                // kernels (which run inline on fan-out workers) without
                // shared scratch or oversubscription.
                let work = |&(i, arch): &(usize, &Architecture)| {
                    let mut ws = Workspace::new();
                    let g = clustering_ref.cluster_of(i);
                    let mother = &mothernets_ref[g].1;
                    let opts =
                        MorphOptions::with_noise(mcfg.hatch_noise, derive_seed(cfg.seed, 6, i));
                    let (mut net, _report) = hatch_with_report(mother, arch, &opts)
                        .expect("clustering guarantees hatchability");
                    let mut tcfg = cfg.train.clone().with_seed(derive_seed(cfg.seed, 7, i));
                    tcfg.lr *= mcfg.member_lr_scale;
                    let report = match mcfg.member_training {
                        MemberTraining::Bagging => {
                            let bagged = bag_seeded(&train_core, derive_seed(cfg.seed, 8, i));
                            train_with(
                                &mut net,
                                bagged.images(),
                                bagged.labels(),
                                val.images(),
                                val.labels(),
                                &tcfg,
                                &mut ws,
                            )
                        }
                        MemberTraining::FullData => train_with(
                            &mut net,
                            train_core.images(),
                            train_core.labels(),
                            val.images(),
                            val.labels(),
                            &tcfg,
                            &mut ws,
                        ),
                        MemberTraining::None => zero_report(&mut net, &val),
                    };
                    (net, report, g)
                };
                if cfg.parallel {
                    jobs.par_iter().map(work).collect()
                } else {
                    jobs.iter().map(work).collect()
                }
            };

            let mut members = Vec::with_capacity(archs.len());
            let mut member_records = Vec::with_capacity(archs.len());
            for ((arch, (net, report, g)), _i) in archs.iter().zip(results).zip(0..archs.len()) {
                member_records.push(MemberRecord::from_report(
                    &arch.name,
                    Phase::Member,
                    Some(g),
                    &report,
                ));
                members.push(EnsembleMember::new(arch.name.clone(), net));
            }
            Ok(TrainedEnsemble {
                members,
                mother_records,
                member_records,
                mothernets,
                clustering: Some(clustering),
                wall_clock_secs: run_start.elapsed().as_secs_f64(),
                strategy_label: strategy.label().to_string(),
            })
        }
    }
}

/// Runs the per-member closure, optionally in parallel, preserving order.
/// Every job receives its own private [`Workspace`] — per-worker scratch
/// that keeps parallel member training lock-free and lets each training
/// run reach its zero-allocation steady state independently.
fn run_members<F>(
    jobs: &[(usize, &Architecture)],
    cfg: &EnsembleTrainConfig,
    work: F,
) -> Vec<(Network, TrainReport)>
where
    F: Fn(usize, &Architecture, TrainConfig, &mut Workspace) -> (Network, TrainReport) + Sync,
{
    let run = |&(i, arch): &(usize, &Architecture)| {
        let tcfg = cfg.train.clone().with_seed(derive_seed(cfg.seed, 10, i));
        let mut ws = Workspace::new();
        work(i, arch, tcfg, &mut ws)
    };
    if cfg.parallel {
        jobs.par_iter().map(run).collect()
    } else {
        jobs.iter().map(run).collect()
    }
}

fn assemble(
    archs: &[Architecture],
    results: Vec<(Network, TrainReport)>,
    mother_records: Vec<MemberRecord>,
    mothernets: Vec<(Architecture, Network)>,
    clustering: Option<Clustering>,
    run_start: Instant,
    strategy_label: &str,
) -> TrainedEnsemble {
    let mut members = Vec::with_capacity(archs.len());
    let mut member_records = Vec::with_capacity(archs.len());
    for (arch, (net, report)) in archs.iter().zip(results) {
        member_records.push(MemberRecord::from_report(
            &arch.name,
            Phase::Member,
            None,
            &report,
        ));
        members.push(EnsembleMember::new(arch.name.clone(), net));
    }
    TrainedEnsemble {
        members,
        mother_records,
        member_records,
        mothernets,
        clustering,
        wall_clock_secs: run_start.elapsed().as_secs_f64(),
        strategy_label: strategy_label.to_string(),
    }
}

/// A report for the "no member training" ablation: zero cost, evaluated
/// validation error only.
fn zero_report(net: &mut Network, val: &Dataset) -> TrainReport {
    let eval = mn_nn::metrics::evaluate(net, val.images(), val.labels(), 64);
    TrainReport {
        epochs: Vec::new(),
        wall_secs: 0.0,
        gradient_steps: 0,
        cost_units: 0.0,
        converged: true,
        final_val: eval,
    }
}

impl TrainedEnsemble {
    /// The manifest recorded in this ensemble's serving artifact: the
    /// paper's default combination rule (ensemble averaging) plus the
    /// training strategy that produced the members.
    pub fn manifest(&self) -> EnsembleManifest {
        EnsembleManifest {
            combine: "average".to_string(),
            strategy: self.strategy_label.clone(),
        }
    }

    /// Serializes the trained members as `MNE1` ensemble-artifact bytes
    /// (see `mn_ensemble::artifact`). An `EnginePlan` booted from these
    /// bytes produces predictions bitwise identical to one built from
    /// [`TrainedEnsemble::members`] directly.
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        mn_ensemble::artifact::save_ensemble(&self.members, &self.manifest())
    }

    /// Writes the `MNE1` serving artifact to `path` — the hand-off from
    /// training to serving: a server cold-starts from this file via
    /// `EnginePlan::load` without touching training code or data.
    ///
    /// # Errors
    ///
    /// [`mn_ensemble::ArtifactError::Io`] when the file cannot be
    /// written.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ArtifactError> {
        mn_ensemble::artifact::write_ensemble_file(path, &self.members, &self.manifest())
    }

    /// [`TrainedEnsemble::to_artifact_bytes`] with member weights stored
    /// under `encoding` (`f16` ≈ 0.5x, `i8` ≈ 0.25x the full-precision
    /// artifact bytes). Loading dequantizes into `f32` members, so the
    /// engine and serving stack run unchanged; predictions drift by at
    /// most the encoding's quantization error (pinned by the
    /// `quantized_artifacts` integration suite).
    ///
    /// # Errors
    ///
    /// Any `save_ensemble_quantized` error (a member holding NaN/±Inf
    /// weights).
    pub fn to_artifact_bytes_quantized(
        &self,
        encoding: mn_ensemble::WeightEncoding,
    ) -> Result<Vec<u8>, ArtifactError> {
        mn_ensemble::artifact::save_ensemble_quantized(&self.members, &self.manifest(), encoding)
    }

    /// [`TrainedEnsemble::save`] with quantized member weights — the
    /// small-footprint deployment hand-off.
    ///
    /// # Errors
    ///
    /// [`mn_ensemble::ArtifactError::Io`] when the file cannot be
    /// written, else any `save_ensemble_quantized` error.
    pub fn save_quantized(
        &self,
        path: impl AsRef<std::path::Path>,
        encoding: mn_ensemble::WeightEncoding,
    ) -> Result<(), ArtifactError> {
        mn_ensemble::artifact::write_ensemble_file_quantized(
            path,
            &self.members,
            &self.manifest(),
            encoding,
        )
    }

    /// The in-process hand-off from training to serving: builds a shared
    /// [`EnginePlan`] over clones of the trained members. Wrap it
    /// (`.into_shared()`) and open one `EngineSession` per serving worker
    /// — or hand it straight to `mn_ensemble::ServerBuilder` — without a
    /// disk round trip. Predictions are bitwise identical to the artifact
    /// path.
    ///
    /// # Errors
    ///
    /// [`EngineError::MemberMismatch`] when the trained members disagree
    /// on geometry (distinct tasks trained into one ensemble);
    /// [`EngineError::EmptyEnsemble`] is unreachable for a successfully
    /// trained ensemble.
    pub fn to_engine_plan(&self, batch_size: usize) -> Result<EnginePlan, EngineError> {
        EnginePlan::new(self.members.clone(), batch_size)
    }

    /// Sum of wall-clock seconds over MotherNets and members —
    /// sequential-equivalent total training time (what Figures 5b–9b plot).
    /// Compare against [`TrainedEnsemble::wall_clock_secs`] (elapsed time
    /// of the run) to see the member-parallel speedup.
    pub fn total_wall_secs(&self) -> f64 {
        self.mother_records
            .iter()
            .chain(&self.member_records)
            .map(|r| r.wall_secs)
            .sum()
    }

    /// Sequential-equivalent time divided by elapsed time — > 1 when
    /// parallel member training actually bought wall-clock time.
    pub fn parallel_speedup(&self) -> f64 {
        self.total_wall_secs() / self.wall_clock_secs.max(1e-12)
    }

    /// Sum of deterministic cost units over MotherNets and members.
    pub fn total_cost_units(&self) -> f64 {
        self.mother_records
            .iter()
            .chain(&self.member_records)
            .map(|r| r.cost_units)
            .sum()
    }

    /// Training time if the ensemble had been stopped after its first `k`
    /// members: all MotherNet time plus the first `k` member times. This is
    /// the "training time vs ensemble size" curve of Figures 6b–9b.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the member count.
    pub fn cumulative_wall_secs(&self, k: usize) -> f64 {
        assert!(k <= self.member_records.len(), "k out of range");
        let mothers: f64 = self.mother_records.iter().map(|r| r.wall_secs).sum();
        mothers
            + self.member_records[..k]
                .iter()
                .map(|r| r.wall_secs)
                .sum::<f64>()
    }

    /// Deterministic-cost analogue of [`Self::cumulative_wall_secs`].
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the member count.
    pub fn cumulative_cost_units(&self, k: usize) -> f64 {
        assert!(k <= self.member_records.len(), "k out of range");
        let mothers: f64 = self.mother_records.iter().map(|r| r.cost_units).sum();
        mothers
            + self.member_records[..k]
                .iter()
                .map(|r| r.cost_units)
                .sum::<f64>()
    }

    /// Mean epochs to convergence across members (the per-network speedup
    /// the paper reports comes from this dropping after hatching).
    pub fn mean_member_epochs(&self) -> f64 {
        self.member_records
            .iter()
            .map(|r| r.epochs as f64)
            .sum::<f64>()
            / self.member_records.len().max(1) as f64
    }

    /// Hatches one more member from an existing MotherNet and fine-tunes it
    /// — incremental ensemble growth without retraining anything else
    /// (paper §1: "every additional network can be hatched from the trained
    /// MotherNet").
    ///
    /// The member is appended to `members`/`member_records`.
    ///
    /// # Errors
    ///
    /// Returns [`MotherNetsError::IncompatibleMembers`] if no stored
    /// MotherNet can hatch `arch` under the strategy's τ.
    pub fn hatch_additional(
        &mut self,
        arch: &Architecture,
        train_set: &Dataset,
        strategy: &MotherNetsStrategy,
        cfg: &EnsembleTrainConfig,
    ) -> Result<(), MotherNetsError> {
        arch.validate()?;
        check_data(std::slice::from_ref(arch), train_set)?;
        let index = self.members.len();
        let (g, mother) = self
            .mothernets
            .iter()
            .enumerate()
            .find(|(_, (m_arch, _))| {
                mn_morph::check_compatible(m_arch, arch).is_ok()
                    && crate::cluster::satisfies_condition(arch, m_arch, strategy.tau)
            })
            .map(|(g, (_, net))| (g, net))
            .ok_or_else(|| MotherNetsError::IncompatibleMembers {
                reason: format!("no stored MotherNet can hatch {}", arch.name),
            })?;

        let hatch_start = Instant::now();
        let opts = MorphOptions::with_noise(strategy.hatch_noise, derive_seed(cfg.seed, 6, index));
        let (mut net, _) = hatch_with_report(mother, arch, &opts)?;
        let (train_core, val) = train_val_split(train_set, cfg.val_fraction, cfg.seed);
        let mut tcfg = cfg.train.clone().with_seed(derive_seed(cfg.seed, 7, index));
        tcfg.lr *= strategy.member_lr_scale;
        let mut ws = Workspace::new();
        let report = match strategy.member_training {
            MemberTraining::Bagging => {
                let bagged = bag_seeded(&train_core, derive_seed(cfg.seed, 8, index));
                train_with(
                    &mut net,
                    bagged.images(),
                    bagged.labels(),
                    val.images(),
                    val.labels(),
                    &tcfg,
                    &mut ws,
                )
            }
            MemberTraining::FullData => train_with(
                &mut net,
                train_core.images(),
                train_core.labels(),
                val.images(),
                val.labels(),
                &tcfg,
                &mut ws,
            ),
            MemberTraining::None => zero_report(&mut net, &val),
        };
        self.member_records.push(MemberRecord::from_report(
            &arch.name,
            Phase::Member,
            Some(g),
            &report,
        ));
        self.members
            .push(EnsembleMember::new(arch.name.clone(), net));
        self.wall_clock_secs += hatch_start.elapsed().as_secs_f64();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_data::presets::{cifar10_sim, Scale};
    use mn_nn::arch::InputSpec;

    fn archs() -> Vec<Architecture> {
        let input = InputSpec::new(3, 8, 8);
        vec![
            Architecture::mlp("small", input, 10, vec![12]),
            Architecture::mlp("medium", input, 10, vec![16]),
            Architecture::mlp("large", input, 10, vec![20]),
        ]
    }

    fn fast_cfg() -> EnsembleTrainConfig {
        EnsembleTrainConfig {
            train: TrainConfig {
                max_epochs: 2,
                batch_size: 32,
                ..TrainConfig::default()
            },
            val_fraction: 0.2,
            seed: 42,
            parallel: false,
        }
    }

    #[test]
    fn full_data_strategy_trains_all_members_in_order() {
        let task = cifar10_sim(Scale::Tiny, 1);
        let trained =
            train_ensemble(&archs(), &task.train, &Strategy::FullData, &fast_cfg()).unwrap();
        assert_eq!(trained.members.len(), 3);
        assert_eq!(trained.member_records.len(), 3);
        assert_eq!(trained.members[0].name, "small");
        assert_eq!(trained.members[2].name, "large");
        assert!(trained.mother_records.is_empty());
        assert!(trained.clustering.is_none());
        assert!(trained.total_wall_secs() > 0.0);
        assert!(trained.total_cost_units() > 0.0);
    }

    #[test]
    fn bagging_strategy_differs_from_full_data() {
        let task = cifar10_sim(Scale::Tiny, 2);
        let fd = train_ensemble(&archs(), &task.train, &Strategy::FullData, &fast_cfg()).unwrap();
        let bag = train_ensemble(&archs(), &task.train, &Strategy::Bagging, &fast_cfg()).unwrap();
        // Different training data must produce different validation errors
        // for at least one member (same seeds otherwise).
        let fd_errs: Vec<f32> = fd
            .member_records
            .iter()
            .map(|r| r.final_val_error)
            .collect();
        let bag_errs: Vec<f32> = bag
            .member_records
            .iter()
            .map(|r| r.final_val_error)
            .collect();
        assert_ne!(fd_errs, bag_errs);
    }

    #[test]
    fn mothernets_strategy_produces_mothers_and_records() {
        let task = cifar10_sim(Scale::Tiny, 3);
        let trained =
            train_ensemble(&archs(), &task.train, &Strategy::mothernets(), &fast_cfg()).unwrap();
        assert_eq!(trained.members.len(), 3);
        let clustering = trained.clustering.as_ref().expect("clustering present");
        assert_eq!(trained.mothernets.len(), clustering.len());
        assert_eq!(trained.mother_records.len(), clustering.len());
        for r in &trained.mother_records {
            assert_eq!(r.phase, Phase::Mother);
            assert!(r.cluster.is_some());
        }
        for r in &trained.member_records {
            assert_eq!(r.phase, Phase::Member);
        }
        // Cumulative time is monotone and includes the mother cost at k=0.
        let t0 = trained.cumulative_wall_secs(0);
        let t3 = trained.cumulative_wall_secs(3);
        assert!(t0 > 0.0, "mother time must be included");
        assert!(t3 >= t0);
        assert!((trained.total_wall_secs() - t3).abs() < 1e-9);
    }

    #[test]
    fn member_training_none_skips_fine_tuning() {
        let task = cifar10_sim(Scale::Tiny, 4);
        let strategy = Strategy::MotherNets(MotherNetsStrategy {
            member_training: MemberTraining::None,
            ..MotherNetsStrategy::default()
        });
        let trained = train_ensemble(&archs(), &task.train, &strategy, &fast_cfg()).unwrap();
        for r in &trained.member_records {
            assert_eq!(r.gradient_steps, 0);
            assert_eq!(r.cost_units, 0.0);
        }
    }

    #[test]
    fn hatch_additional_grows_the_ensemble() {
        let task = cifar10_sim(Scale::Tiny, 5);
        let strategy = MotherNetsStrategy::default();
        let mut trained = train_ensemble(
            &archs(),
            &task.train,
            &Strategy::MotherNets(strategy),
            &fast_cfg(),
        )
        .unwrap();
        let extra = Architecture::mlp("extra", InputSpec::new(3, 8, 8), 10, vec![18]);
        trained
            .hatch_additional(&extra, &task.train, &strategy, &fast_cfg())
            .unwrap();
        assert_eq!(trained.members.len(), 4);
        assert_eq!(trained.members[3].name, "extra");
        assert_eq!(trained.member_records[3].name, "extra");
    }

    #[test]
    fn data_mismatch_is_rejected() {
        let task = cifar10_sim(Scale::Tiny, 6);
        let wrong = vec![Architecture::mlp(
            "wrong",
            InputSpec::new(1, 8, 8),
            10,
            vec![8],
        )];
        assert!(matches!(
            train_ensemble(&wrong, &task.train, &Strategy::FullData, &fast_cfg()),
            Err(MotherNetsError::DataMismatch { .. })
        ));
        let wrong_classes = vec![Architecture::mlp(
            "wrong",
            InputSpec::new(3, 8, 8),
            7,
            vec![8],
        )];
        assert!(matches!(
            train_ensemble(
                &wrong_classes,
                &task.train,
                &Strategy::FullData,
                &fast_cfg()
            ),
            Err(MotherNetsError::DataMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let task = cifar10_sim(Scale::Tiny, 7);
        let a =
            train_ensemble(&archs(), &task.train, &Strategy::mothernets(), &fast_cfg()).unwrap();
        let b =
            train_ensemble(&archs(), &task.train, &Strategy::mothernets(), &fast_cfg()).unwrap();
        for (ra, rb) in a.member_records.iter().zip(&b.member_records) {
            assert_eq!(ra.final_val_error, rb.final_val_error);
            assert_eq!(ra.gradient_steps, rb.gradient_steps);
        }
    }

    #[test]
    fn snapshot_strategy_yields_one_member_per_cycle() {
        let task = cifar10_sim(Scale::Tiny, 9);
        let strategy = Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs: 2,
            ..SnapshotStrategy::default()
        });
        let trained = train_ensemble(&archs(), &task.train, &strategy, &fast_cfg()).unwrap();
        assert_eq!(trained.members.len(), 3);
        assert!(trained.mother_records.is_empty());
        assert!(trained.clustering.is_none());
        // All snapshots share the largest architecture.
        for m in &trained.members {
            assert!(m.name.contains("large"));
        }
        // Each cycle ran exactly cycle_epochs epochs (no early stop).
        for r in &trained.member_records {
            assert_eq!(r.epochs, 2);
        }
        // Snapshots from different cycles are different functions.
        let mut members = trained.members;
        let probe = task.test.images();
        let a = members[0].predict_proba(probe, 64);
        let b = members[2].predict_proba(probe, 64);
        assert_ne!(a.data(), b.data(), "snapshots should differ across cycles");
    }

    #[test]
    fn snapshot_rejects_zero_cycle() {
        let task = cifar10_sim(Scale::Tiny, 10);
        let strategy = Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs: 0,
            ..SnapshotStrategy::default()
        });
        assert!(matches!(
            train_ensemble(&archs(), &task.train, &strategy, &fast_cfg()),
            Err(MotherNetsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn wall_clock_is_reported_alongside_sequential_equivalent() {
        let task = cifar10_sim(Scale::Tiny, 11);
        let mut trained =
            train_ensemble(&archs(), &task.train, &Strategy::mothernets(), &fast_cfg()).unwrap();
        // Sequential run: elapsed time covers every member's training (plus
        // clustering and hatching), so it is at least the per-network sum.
        assert!(trained.wall_clock_secs > 0.0);
        assert!(
            trained.wall_clock_secs >= trained.total_wall_secs() * 0.99,
            "sequential elapsed {} < sum over networks {}",
            trained.wall_clock_secs,
            trained.total_wall_secs()
        );
        assert!(trained.parallel_speedup().is_finite());
        // Incremental growth accumulates its own elapsed time.
        let before = trained.wall_clock_secs;
        let extra = Architecture::mlp("extra", InputSpec::new(3, 8, 8), 10, vec![14]);
        trained
            .hatch_additional(
                &extra,
                &task.train,
                &MotherNetsStrategy::default(),
                &fast_cfg(),
            )
            .unwrap();
        assert!(trained.wall_clock_secs > before);
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let task = cifar10_sim(Scale::Tiny, 8);
        let seq_cfg = fast_cfg();
        let par_cfg = EnsembleTrainConfig {
            parallel: true,
            ..fast_cfg()
        };
        let seq = train_ensemble(&archs(), &task.train, &Strategy::FullData, &seq_cfg).unwrap();
        let par = train_ensemble(&archs(), &task.train, &Strategy::FullData, &par_cfg).unwrap();
        for (ra, rb) in seq.member_records.iter().zip(&par.member_records) {
            assert_eq!(ra.final_val_error, rb.final_val_error);
        }
    }
}
