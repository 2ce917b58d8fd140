//! # mn-ensemble
//!
//! Ensemble inference for the MotherNets reproduction: the four methods the
//! paper evaluates trained ensembles with (§3, "Evaluation metrics"):
//!
//! * **Ensemble Averaging (EA)** — mean of member probabilities
//!   ([`combine::ensemble_average`]);
//! * **Voting** — majority vote with probability tie-breaking
//!   ([`combine::vote_labels`]);
//! * **Super Learner (SL)** — a convex combination of members with weights
//!   fit on validation data ([`super_learner::SuperLearner`]);
//! * **Oracle (O)** — correct if any member is correct
//!   ([`combine::oracle_error`]), the specialist-knowledge measure of the
//!   paper's Figure 10.
//!
//! [`evaluate::evaluate_members`] runs all four at once.
//!
//! Serving is a three-layer stack:
//!
//! * [`engine`] — split into an immutable, `Arc`-shared
//!   [`engine::EnginePlan`] (members/weights, planning logic, artifact
//!   load/save) and cheap per-worker [`engine::EngineSession`]s
//!   (workspaces + replica-lane scratch only), so N workers execute one
//!   copy of the ensemble. Every batch runs one executor pass; the plan
//!   it resolves to — member-parallel fan-out, data-parallel batch
//!   sharding, or trunk-shared prefix reuse, chosen by
//!   [`engine::ExecPolicy::Auto`] — only sets that pass's shard count
//!   and shared-trunk length, and results stream into the same
//!   [`MemberPredictions`]/combine machinery. Output is bitwise identical
//!   across plans, sessions, and thread counts. An opt-in
//!   uncertainty-gated cascade ([`engine::ExecPolicy::Cascade`], threshold
//!   from [`engine::calibrate`]) lets confidently-gated examples skip the
//!   full ensemble entirely ([`engine::EngineSession::predict_scored`]).
//! * [`artifact`] — the `MNE1` ensemble artifact format (manifest +
//!   per-member architecture JSON and `MNW1` weights), so serving
//!   cold-starts from disk via [`engine::EnginePlan::load`] (zero-init
//!   restore, no RNG) without retraining.
//! * [`serve`] — a sharded, backpressured [`serve::Server`]
//!   ([`serve::ServerBuilder`]): N worker shards, each an
//!   [`engine::EngineSession`] over the shared plan, pull from one
//!   bounded MPMC queue with typed [`serve::ServeError::Overloaded`]
//!   admission control, dynamic micro-batching per shard, per-shard +
//!   aggregate [`serve::ServerStats`], and graceful drain on shutdown.
//!
//! ## Example
//!
//! ```
//! use mn_ensemble::member::MemberPredictions;
//! use mn_ensemble::evaluate::evaluate_predictions;
//! use mn_tensor::Tensor;
//!
//! let m0 = Tensor::from_vec([2, 2], vec![0.9, 0.1, 0.2, 0.8]);
//! let m1 = Tensor::from_vec([2, 2], vec![0.7, 0.3, 0.4, 0.6]);
//! let preds = MemberPredictions::from_probs(vec![m0, m1]);
//! let labels = vec![0, 1];
//! let eval = evaluate_predictions(&preds, &labels, &preds, &labels);
//! assert_eq!(eval.ea_error, 0.0);
//! assert_eq!(eval.oracle_error, 0.0);
//! ```

pub mod artifact;
pub mod combine;
pub mod diversity;
pub mod engine;
pub mod evaluate;
pub mod faults;
pub mod member;
pub mod serve;
pub mod super_learner;

pub use artifact::{ArtifactError, EnsembleManifest};
pub use engine::{
    calibrate, CascadeCalibration, CascadePolicy, Confidence, EngineError, EnginePlan,
    EngineSession, ExecPolicy, Plan, ScoredPredictions,
};
pub use evaluate::{evaluate_members, evaluate_predictions, EnsembleEvaluation};
pub use faults::FaultAction;
pub use member::{EnsembleMember, MemberPredictions};
pub use mn_nn::io::WeightEncoding;
pub use serve::{
    BatchingConfig, BrownoutConfig, Prediction, ServeError, Server, ServerBuilder, ServerReport,
    ServerStats,
};
pub use super_learner::{SuperLearner, SuperLearnerConfig};
