//! End-to-end ensemble training: MotherNets and its comparators.
//!
//! The four strategies of the evaluation (§3) and of the related-work
//! comparison (§4):
//!
//! * [`Strategy::FullData`] — every member trained from scratch on the full
//!   training split;
//! * [`Strategy::Bagging`] — every member trained from scratch on a
//!   bootstrap resample;
//! * [`Strategy::MotherNets`] — cluster the ensemble (§2.3), train each
//!   cluster's MotherNet once on the full data (low bias), hatch every
//!   member by function-preserving transformations, then fine-tune each
//!   member on a bootstrap resample (diversity / low variance);
//! * [`Strategy::Snapshot`] — one network of the ensemble's largest
//!   architecture trained through cyclic cosine annealing, one member
//!   snapshotted per cycle.
//!
//! All strategies use the **same convergence criterion** (validation-loss
//! patience), as the paper requires; the MotherNets speedup *is* the
//! reduction in epochs-to-convergence of hatched members.
//!
//! Every strategy is a list of training jobs run by one runner. A job
//! names the network it produces (a MotherNet or a member, with its
//! cluster), how that network starts (freshly seeded, hatched from a
//! trained MotherNet, or continued from the previous job), what it trains
//! on (the training split, or a bootstrap resample drawn inside the job)
//! and its fully resolved training configuration. The baselines are one
//! phase of seeded jobs; MotherNets is a phase of MotherNets followed by
//! a phase of hatched members; snapshot is one seeded job and a chain of
//! continued ones; [`TrainedEnsemble::hatch_additional`] is one hatch job
//! over the stored MotherNets. The runner runs the phases in order and a
//! phase's jobs in member order, so seeding, hatching, resampling and
//! training each happen in one place for every strategy.
//!
//! Timing: every record carries wall-clock seconds and a deterministic cost
//! counter. Total ensemble training time is reported **two ways**:
//! [`TrainedEnsemble::total_wall_secs`] is the *sum over networks*
//! (sequential-equivalent compute — what the paper's Figures 5b–9b plot),
//! while [`TrainedEnsemble::wall_clock_secs`] is the elapsed time of the
//! whole strategy run, which drops below the sequential-equivalent figure
//! when jobs train in parallel ([`EnsembleTrainConfig::parallel`]).
//!
//! Parallel training composes with the parallel tensor kernels without
//! oversubscription: each chain of jobs owns a private [`Workspace`] (no
//! shared scratch, no locks), and the vendored rayon shim runs nested
//! pipelines inline on its workers, so a machine-wide job fan-out never
//! multiplies into a kernel-level spawn storm.

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
    /// Train the jobs of each phase in parallel with rayon: the MotherNets
    /// of a MotherNets run as well as the members (a snapshot chain stays
    /// serial). Does not affect the trained bits or the reported
    /// (sequential-equivalent) training time.
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

/// The one input check of [`train_ensemble`] and
/// [`TrainedEnsemble::hatch_additional`]: everything the jobs rely on is
/// checked before any of them runs, so a bad input is a typed error rather
/// than a panic (under [`EnsembleTrainConfig::parallel`], inside a worker).
fn check_inputs(
    archs: &[Architecture],
    train_set: &Dataset,
    strategy: &Strategy,
    cfg: &EnsembleTrainConfig,
) -> Result<(), MotherNetsError> {
    if archs.is_empty() {
        return Err(MotherNetsError::EmptyEnsemble);
    }
    let mismatch = |reason: String| Err(MotherNetsError::DataMismatch { reason });
    let (c, h, w) = train_set.geometry();
    for a in archs {
        a.validate()?;
        if (a.input.channels, a.input.height, a.input.width) != (c, h, w) {
            return mismatch(format!(
                "{} expects {}x{}x{} input, data is {c}x{h}x{w}",
                a.name, a.input.channels, a.input.height, a.input.width
            ));
        }
        if a.num_classes != train_set.num_classes() {
            return mismatch(format!(
                "{} has {} classes, data has {}",
                a.name,
                a.num_classes,
                train_set.num_classes()
            ));
        }
    }
    if train_set.len() < 2 {
        return mismatch(format!(
            "{} training examples; a validation split needs at least 2",
            train_set.len()
        ));
    }
    let invalid = |what: &str, value: f64| {
        Err(MotherNetsError::InvalidParameter {
            what: what.into(),
            value,
        })
    };
    if !(cfg.val_fraction > 0.0 && cfg.val_fraction < 1.0) {
        return invalid("val_fraction", cfg.val_fraction);
    }
    if cfg.train.batch_size == 0 {
        return invalid("batch_size", 0.0);
    }
    // Snapshot cycles replace `max_epochs` with `cycle_epochs`.
    let (what, epochs) = match strategy {
        Strategy::Snapshot(s) => ("cycle_epochs", s.cycle_epochs),
        _ => ("max_epochs", cfg.train.max_epochs),
    };
    if epochs == 0 {
        return invalid(what, 0.0);
    }
    Ok(())
}

/// How a job's network starts.
enum Init {
    /// A freshly initialized network from this seed.
    Seeded(u64),
    /// Hatched from the trained MotherNet of cluster `mother`.
    Hatch {
        mother: usize,
        noise: f32,
        seed: u64,
    },
    /// The network the previous job of the chain trained (which stays that
    /// job's result; training goes on from a copy).
    Continue,
}

/// What a job trains on.
enum Data {
    /// The training split itself (borrowed, never copied).
    Full,
    /// A bootstrap resample of the training split with this seed, drawn
    /// inside the job.
    Bag(u64),
}

/// One network to produce: a MotherNet or an ensemble member.
struct Job<'a> {
    name: String,
    arch: &'a Architecture,
    phase: Phase,
    cluster: Option<usize>,
    init: Init,
    data: Data,
    /// The fully resolved training configuration; `None` skips training
    /// ([`MemberTraining::None`]).
    train: Option<TrainConfig>,
}

/// The job of hatched member `i` (MotherNet `g`): shared by
/// [`train_ensemble`] and [`TrainedEnsemble::hatch_additional`].
fn hatch_job<'a>(
    arch: &'a Architecture,
    i: usize,
    g: usize,
    mcfg: &MotherNetsStrategy,
    cfg: &EnsembleTrainConfig,
) -> Job<'a> {
    let mut train = cfg.train.clone().with_seed(derive_seed(cfg.seed, 7, i));
    train.lr *= mcfg.member_lr_scale;
    let (data, train) = match mcfg.member_training {
        MemberTraining::Bagging => (Data::Bag(derive_seed(cfg.seed, 8, i)), Some(train)),
        MemberTraining::FullData => (Data::Full, Some(train)),
        MemberTraining::None => (Data::Full, None),
    };
    Job {
        name: arch.name.clone(),
        arch,
        phase: Phase::Member,
        cluster: Some(g),
        init: Init::Hatch {
            mother: g,
            noise: mcfg.hatch_noise,
            seed: derive_seed(cfg.seed, 6, i),
        },
        data,
        train,
    }
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
    check_inputs(archs, train_set, strategy, cfg)?;
    let run_start = Instant::now();
    let (train_core, val) = train_val_split(train_set, cfg.val_fraction, cfg.seed);
    let seed = |salt, index| derive_seed(cfg.seed, salt, index);

    let mut clustering = None;
    let jobs: Vec<Job> = match strategy {
        Strategy::FullData | Strategy::Bagging => {
            let bagging = matches!(strategy, Strategy::Bagging);
            archs
                .iter()
                .enumerate()
                .map(|(i, arch)| Job {
                    name: arch.name.clone(),
                    arch,
                    phase: Phase::Member,
                    cluster: None,
                    init: Init::Seeded(seed(if bagging { 3 } else { 1 }, i)),
                    data: if bagging {
                        Data::Bag(seed(2, i))
                    } else {
                        Data::Full
                    },
                    train: Some(cfg.train.clone().with_seed(seed(10, i))),
                })
                .collect()
        }
        // One training run of the ensemble's largest architecture; every
        // cosine cycle contributes one snapshot member.
        Strategy::Snapshot(scfg) => {
            let base = archs
                .iter()
                .max_by_key(|a| a.param_count())
                .expect("non-empty ensemble");
            (0..archs.len())
                .map(|c| Job {
                    name: format!("snapshot-{}-{}", c, base.name),
                    arch: base,
                    phase: Phase::Member,
                    cluster: None,
                    init: if c == 0 {
                        Init::Seeded(seed(20, 0))
                    } else {
                        Init::Continue
                    },
                    data: Data::Full,
                    train: Some(TrainConfig {
                        max_epochs: scfg.cycle_epochs,
                        // Never stop inside a cycle: snapshots are taken
                        // at cycle minima, not at convergence.
                        patience: usize::MAX,
                        schedule: LrSchedule::Cosine {
                            period: scfg.cycle_epochs,
                            min_factor: scfg.min_lr_factor,
                        },
                        shuffle_seed: seed(21, c),
                        ..cfg.train.clone()
                    }),
                })
                .collect()
        }
        // Each cluster's MotherNet on the full training split, then every
        // member hatched from its cluster's MotherNet.
        Strategy::MotherNets(mcfg) => {
            let clustering = clustering.insert(cluster_architectures(archs, mcfg.tau)?);
            let mothers = clustering
                .clusters
                .iter()
                .enumerate()
                .map(|(g, cluster)| Job {
                    name: cluster.mothernet.name.clone(),
                    arch: &cluster.mothernet,
                    phase: Phase::Mother,
                    cluster: Some(g),
                    init: Init::Seeded(seed(4, g)),
                    data: Data::Full,
                    train: Some(cfg.train.clone().with_seed(seed(5, g))),
                });
            let members = archs
                .iter()
                .enumerate()
                .map(|(i, arch)| hatch_job(arch, i, clustering.cluster_of(i), mcfg, cfg));
            mothers.chain(members).collect()
        }
    };

    let mut trained = TrainedEnsemble {
        members: Vec::with_capacity(archs.len()),
        mother_records: Vec::new(),
        member_records: Vec::with_capacity(archs.len()),
        mothernets: Vec::new(),
        clustering: None,
        wall_clock_secs: 0.0,
        strategy_label: strategy.label().to_string(),
    };
    trained.run_jobs(&jobs, &train_core, &val, cfg.parallel)?;
    trained.clustering = clustering;
    trained.wall_clock_secs = run_start.elapsed().as_secs_f64();
    Ok(trained)
}

/// Runs one chain — a job and the [`Init::Continue`] jobs after it — in
/// order on one private [`Workspace`]: per-worker scratch that keeps
/// parallel training lock-free and lets each chain reach its
/// zero-allocation steady state independently. `mothers` are the trained
/// MotherNets that [`Init::Hatch`] refers to.
fn run_chain(
    chain: &[Job<'_>],
    mothers: &[(Architecture, Network)],
    train_core: &Dataset,
    val: &Dataset,
) -> Result<Vec<(Network, TrainReport)>, MotherNetsError> {
    let mut ws = Workspace::new();
    let mut done: Vec<(Network, TrainReport)> = Vec::with_capacity(chain.len());
    for job in chain {
        let mut net = match job.init {
            Init::Seeded(seed) => Network::seeded(job.arch, seed),
            Init::Hatch {
                mother,
                noise,
                seed,
            } => {
                let opts = MorphOptions::with_noise(noise, seed);
                hatch_with_report(&mothers[mother].1, job.arch, &opts)?.0
            }
            Init::Continue => done
                .last()
                .map(|(net, _)| net.clone())
                .expect("a chain starts with a job that makes its network"),
        };
        let report = match &job.train {
            Some(tcfg) => {
                let bagged;
                let data = match job.data {
                    Data::Full => train_core,
                    Data::Bag(seed) => {
                        bagged = bag_seeded(train_core, seed);
                        &bagged
                    }
                };
                train_with(
                    &mut net,
                    data.images(),
                    data.labels(),
                    val.images(),
                    val.labels(),
                    tcfg,
                    &mut ws,
                )
            }
            None => zero_report(&mut net, val),
        };
        done.push((net, report));
    }
    Ok(done)
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
    /// The job runner. Runs `jobs` one phase (a run of jobs of equal
    /// [`Phase`]) after the other and appends every job's network and
    /// record in job order: MotherNets to `mothernets`, members to
    /// `members`. Within a phase the chains (see [`run_chain`]) run in
    /// parallel when `parallel` is set; a phase's results land only once
    /// all of its chains succeed.
    fn run_jobs(
        &mut self,
        jobs: &[Job<'_>],
        train_core: &Dataset,
        val: &Dataset,
        parallel: bool,
    ) -> Result<(), MotherNetsError> {
        for phase in jobs.chunk_by(|a, b| a.phase == b.phase) {
            let chains: Vec<&[Job]> = phase
                .chunk_by(|_, next| matches!(next.init, Init::Continue))
                .collect();
            let mothers = &self.mothernets;
            let run = |chain: &&[Job]| run_chain(chain, mothers, train_core, val);
            let results: Result<Vec<_>, MotherNetsError> = if parallel {
                chains.par_iter().map(run).collect()
            } else {
                chains.iter().map(run).collect()
            };
            for (job, (net, report)) in phase.iter().zip(results?.into_iter().flatten()) {
                let record = MemberRecord::from_report(&job.name, job.phase, job.cluster, &report);
                match job.phase {
                    Phase::Mother => {
                        self.mother_records.push(record);
                        self.mothernets.push((job.arch.clone(), net));
                    }
                    Phase::Member => {
                        self.member_records.push(record);
                        self.members
                            .push(EnsembleMember::new(job.name.clone(), net));
                    }
                }
            }
        }
        Ok(())
    }
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
    /// MotherNet can hatch `arch` under the strategy's τ, and the errors of
    /// [`train_ensemble`] for a bad architecture, data set or
    /// configuration.
    pub fn hatch_additional(
        &mut self,
        arch: &Architecture,
        train_set: &Dataset,
        strategy: &MotherNetsStrategy,
        cfg: &EnsembleTrainConfig,
    ) -> Result<(), MotherNetsError> {
        check_inputs(
            std::slice::from_ref(arch),
            train_set,
            &Strategy::MotherNets(*strategy),
            cfg,
        )?;
        let g = self
            .mothernets
            .iter()
            .position(|(m_arch, _)| {
                mn_morph::check_compatible(m_arch, arch).is_ok()
                    && crate::cluster::satisfies_condition(arch, m_arch, strategy.tau)
            })
            .ok_or_else(|| MotherNetsError::IncompatibleMembers {
                reason: format!("no stored MotherNet can hatch {}", arch.name),
            })?;

        let start = Instant::now();
        let (train_core, val) = train_val_split(train_set, cfg.val_fraction, cfg.seed);
        let job = hatch_job(arch, self.members.len(), g, strategy, cfg);
        self.run_jobs(&[job], &train_core, &val, cfg.parallel)?;
        self.wall_clock_secs += start.elapsed().as_secs_f64();
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

    #[test]
    fn parallel_matches_sequential_for_every_strategy() {
        let task = cifar10_sim(Scale::Tiny, 8);
        let seq_cfg = fast_cfg();
        let par_cfg = EnsembleTrainConfig {
            parallel: true,
            ..fast_cfg()
        };
        // Every record field but `wall_secs`.
        let fields = |r: &MemberRecord| {
            (
                r.name.clone(),
                r.phase,
                r.cluster,
                r.epochs,
                r.gradient_steps,
                r.cost_units.to_bits(),
                r.final_val_error.to_bits(),
                r.converged,
            )
        };
        let one_mother_each = Strategy::MotherNets(MotherNetsStrategy {
            tau: 1.0,
            ..MotherNetsStrategy::default()
        });
        let snapshot = Strategy::Snapshot(SnapshotStrategy {
            cycle_epochs: 1,
            ..SnapshotStrategy::default()
        });
        let mut mothers = 0;
        for strategy in [
            Strategy::FullData,
            Strategy::Bagging,
            Strategy::mothernets(),
            snapshot,
            one_mother_each,
        ] {
            let seq = train_ensemble(&archs(), &task.train, &strategy, &seq_cfg).unwrap();
            let par = train_ensemble(&archs(), &task.train, &strategy, &par_cfg).unwrap();
            assert_eq!(
                seq.to_artifact_bytes(),
                par.to_artifact_bytes(),
                "{strategy} members"
            );
            for (a, b) in [
                (&seq.mother_records, &par.mother_records),
                (&seq.member_records, &par.member_records),
            ] {
                let a: Vec<_> = a.iter().map(fields).collect();
                let b: Vec<_> = b.iter().map(fields).collect();
                assert_eq!(a, b, "{strategy} records");
            }
            mothers = par.mother_records.len();
        }
        // The last strategy trained one MotherNet per member, in parallel.
        assert_eq!(mothers, 3);
    }
}
