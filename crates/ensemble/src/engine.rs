//! The two-layer inference engine: an immutable, shareable [`EnginePlan`]
//! and cheap per-worker [`EngineSession`]s.
//!
//! Serving an ensemble means paying the "combine many members per query"
//! cost on every request — and a server only scales past one worker if
//! additional workers do **not** mean additional copies of every member's
//! weights. The engine therefore splits into two layers:
//!
//! * [`EnginePlan`] — everything immutable: the members (weights), input
//!   geometry, mini-batch size, default execution policy, the planning
//!   logic ([`EnginePlan::resolve`]), and artifact load/save. A plan is
//!   wrapped in an [`Arc`] and shared by every worker; eval-mode forward
//!   passes read it through `&self` only (see
//!   [`mn_nn::Network::forward_eval_with`]), so N workers execute **one**
//!   copy of the ensemble concurrently.
//! * [`EngineSession`] — everything mutable and per-worker: workspaces
//!   (activations, im2col scratch, GEMM packing buffers), replica-lane
//!   scratch for sharded plans, and staging buffers. Sessions are
//!   cheap — a handful of empty buffer pools — so a server spins up one
//!   per shard without cloning a single weight.
//!
//! ## One pass, four plans
//!
//! Every request runs the same private loop, `EngineSession::pass`: cut
//! the rows into contiguous shards
//! ([`mn_tensor::chunking::shard_ranges`]), one per *replica lane* (a
//! per-member set of workspaces — the weights stay shared); each lane
//! walks its shard in `batch_size` chunks, stages the chunk **once**
//! whatever the member count, optionally runs member 0's leading `trunk`
//! nodes once, fans every requested member's remaining nodes plus the
//! softmax across rayon workers, and writes each member's rows straight
//! into its `[N, K]` output. A [`Plan`] only sets the loop's parameters:
//!
//! | plan | shards | trunk | members |
//! |------|--------|-------|---------|
//! | [`Plan::MemberParallel`] | 1 | 0 | all |
//! | [`Plan::DataParallel`] | `shards` | 0 | all |
//! | [`Plan::TrunkShared`] | `shards` | [`EnginePlan::trunk_len`] | all |
//! | [`Plan::Cascade`] gate | 1 | trunk if [`EnginePlan::shares_trunk`] | member 0 |
//! | [`Plan::Cascade`] escalation | 1 | same | members 1.. over the survivors |
//!
//! * **Shards** buy parallelism when the batch is large and threads
//!   outnumber members. Lanes are materialized lazily, so a session that
//!   never shards never pays the extra scratch.
//! * **Trunk** — members hatched from one MotherNet share a prefix of
//!   bitwise-identical layers (the paper's hatching step). The plan
//!   detects it at build time and the pass evaluates it once per chunk
//!   instead of once per member: roughly `1/K` of the trunk FLOPs for a
//!   `K`-member ensemble with a deep trunk.
//! * **Cascade** is the one plan that trades *work* for latency: the
//!   gate pass scores every example's uncertainty with member 0 alone,
//!   confident examples return its answer, and only the uncertain
//!   remainder — gathered into one contiguous batch, with the gate's
//!   trunk activations when there is a shared trunk — goes through a
//!   second pass over the other members. It is opt-in
//!   ([`ExecPolicy::Cascade`]), surfaced through
//!   [`EngineSession::predict_scored`], and its threshold should come
//!   from [`calibrate`]. At threshold 0 nothing exits early.
//!
//! [`ExecPolicy::Auto`] (the default) shares the trunk whenever it
//! contains parameterized work, and otherwise picks a shard count per
//! batch from batch size × member count × worker-thread count;
//! [`EnginePlan::resolve`] exposes the decision for inspection and tests.
//!
//! ## Determinism
//!
//! Output is bitwise identical across plans, shard counts, session
//! counts and thread counts, because the parameters above never change
//! what is computed for a row: every row goes through the same node walk
//! over the same nodes (prefix-then-tail is the whole-network walk cut in
//! two), each example's forward pass is independent of its batch
//! neighbors, and every tensor kernel partitions work over disjoint
//! output regions with a fixed per-element accumulation order. The
//! `engine_determinism`, `trunk_sharing` and `cascade_serving`
//! integration suites pin this against a plan-free reference.
//!
//! ## Cold start
//!
//! [`EnginePlan::load`] boots a plan straight from an `MNE1` ensemble
//! artifact on disk (see [`crate::artifact`]) — no retraining, zero-init
//! construction (weights are restored, never sampled), and
//! bitwise-identical predictions to the ensemble that saved it.
//!
//! ## Example
//!
//! ```
//! use mn_ensemble::engine::EnginePlan;
//! use mn_ensemble::EnsembleMember;
//! use mn_nn::arch::{Architecture, InputSpec};
//! use mn_nn::Network;
//! use mn_tensor::Tensor;
//!
//! let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
//! let members: Vec<EnsembleMember> = (0..4)
//!     .map(|s| EnsembleMember::new(format!("m{s}"), Network::seeded(&arch, s)))
//!     .collect();
//! let plan = EnginePlan::new(members, 32).unwrap().into_shared();
//! // Two sessions over one plan: no weight clones, independent scratch.
//! let mut a = plan.session();
//! let mut b = plan.session();
//! let x = Tensor::zeros([5, 1, 2, 2]);
//! assert_eq!(a.predict_labels(&x), b.predict_labels(&x));
//! ```

use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use mn_nn::arch::InputSpec;
use mn_nn::metrics::gather_examples;
use mn_tensor::chunking::shard_ranges;
use mn_tensor::{ops, Tensor, Workspace};

use rayon::prelude::*;

use crate::artifact::{self, ArtifactError, EnsembleManifest};
use crate::combine;
use crate::member::{EnsembleMember, MemberPredictions};

/// Why an engine plan could not be constructed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// No members were supplied.
    EmptyEnsemble,
    /// Members disagree on input geometry or class count, so they cannot
    /// serve the same requests.
    MemberMismatch {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyEnsemble => write!(f, "inference engine needs at least one member"),
            EngineError::MemberMismatch { detail } => {
                write!(f, "ensemble members are not servable together: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The per-example confidence signal a cascade gates on, computed from
/// the gate member's class probabilities. The *uncertainty* of an example
/// is `1 - confidence`, so both metrics live in `[0, 1]` with 0 meaning
/// "the gate is sure".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Confidence {
    /// Confidence = the largest class probability
    /// ([`combine::max_prob_confidence`]). 1 when the gate's distribution
    /// is a one-hot, `1/K` when it is uniform.
    #[default]
    MaxProb,
    /// Confidence = top-1 minus top-2 probability
    /// ([`combine::margin_confidence`]). 0 when the two best classes tie
    /// — maximally ambiguous even if the max-prob is large.
    Margin,
}

impl Confidence {
    /// The uncertainty (`1 - confidence`) of one probability row.
    pub fn uncertainty(&self, row: &[f32]) -> f32 {
        let mut top1 = f32::NEG_INFINITY;
        let mut top2 = f32::NEG_INFINITY;
        for &p in row {
            if p > top1 {
                top2 = top1;
                top1 = p;
            } else if p > top2 {
                top2 = p;
            }
        }
        match self {
            Confidence::MaxProb => 1.0 - top1,
            Confidence::Margin => {
                if row.len() < 2 {
                    1.0 - top1
                } else {
                    1.0 - (top1 - top2)
                }
            }
        }
    }

    /// Human-readable label (used by benches and reports).
    pub fn label(&self) -> &'static str {
        match self {
            Confidence::MaxProb => "max-prob",
            Confidence::Margin => "margin",
        }
    }
}

/// Uncertainty-gated cascade configuration: which confidence signal the
/// gate member is scored with, and the uncertainty threshold below which
/// an example exits early with the gate's answer alone.
///
/// An example **exits early** iff its gate uncertainty is strictly below
/// `threshold`; everything else **escalates** to the full ensemble. The
/// two ends of the knob are exact:
///
/// * `threshold = 0.0` — never exit early (uncertainty is never below
///   zero). The cascade output is **bitwise identical** to the flat and
///   trunk-shared plans, pinned by proptests.
/// * `threshold = 1.0` — trust the gate on everything except completely
///   ambiguous examples (uncertainty exactly 1.0 — e.g. a perfect top-2
///   tie under [`Confidence::Margin`] — still escalates).
///
/// Thresholds between the ends should come from
/// [`calibrate`](crate::engine::calibrate) against held-out data, not
/// from guessing.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CascadePolicy {
    /// Confidence signal the gate is scored with.
    pub metric: Confidence,
    /// Gate uncertainty below which an example exits early. `0.0`
    /// disables early exit entirely (full-ensemble bitwise identity).
    pub threshold: f32,
}

impl CascadePolicy {
    /// A max-prob cascade at `threshold` (the common case).
    pub fn max_prob(threshold: f32) -> Self {
        CascadePolicy {
            metric: Confidence::MaxProb,
            threshold,
        }
    }

    /// A margin cascade at `threshold`.
    pub fn margin(threshold: f32) -> Self {
        CascadePolicy {
            metric: Confidence::Margin,
            threshold,
        }
    }
}

/// How a session chooses its parallelism axis (see module docs).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ExecPolicy {
    /// Pick per batch from batch size × member count × thread count.
    #[default]
    Auto,
    /// Always fan members across threads, each running the whole batch.
    MemberParallel,
    /// Always shard the batch across this many replica lanes (clamped to
    /// at least 1, to the batch size, and to [`EnginePlan::max_shards`]).
    DataParallel {
        /// Number of batch shards / replica lanes.
        shards: usize,
    },
    /// Always evaluate the shared member prefix once per mini-batch chunk
    /// and fan only the divergent tails across members, over this many
    /// batch shards (clamped like [`ExecPolicy::DataParallel`], but a
    /// single shard still shares the trunk rather than falling back to
    /// the flat member-parallel plan). Correct — and bitwise identical to
    /// the flat plans — even when the detected trunk is empty; it just
    /// saves nothing then.
    TrunkShared {
        /// Number of batch shards / replica lanes.
        shards: usize,
    },
    /// Uncertainty-gated cascade: score each mini-batch with one cheap
    /// gate pass (the shared trunk + member 0's tail when the plan shares
    /// a parameterized trunk, member 0's whole network otherwise), return
    /// immediately for examples whose gate uncertainty clears
    /// [`CascadePolicy::threshold`], and re-fan only the uncertain
    /// remainder across the full ensemble — restitched in example order.
    /// Surfaced through [`EngineSession::predict_scored`]; the
    /// member-probability APIs ([`EngineSession::predict`] and friends)
    /// need every member and therefore always run fully escalated.
    Cascade(CascadePolicy),
}

/// The resolved execution plan for one request batch.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Plan {
    /// One task per member over the full batch.
    MemberParallel,
    /// `shards` tasks, each running every member over one batch shard.
    DataParallel {
        /// Number of batch shards actually used.
        shards: usize,
    },
    /// `shards` tasks, each evaluating the shared trunk once per
    /// mini-batch chunk and fanning the divergent member tails.
    TrunkShared {
        /// Number of batch shards actually used.
        shards: usize,
    },
    /// One gate pass over the batch, then a partial re-fan of the
    /// uncertain remainder to the full ensemble.
    Cascade(CascadePolicy),
}

/// Per-example scored output of [`EngineSession::predict_scored`]: final
/// probabilities plus the uncertainty/escalation trail the serving layer
/// surfaces per request.
#[derive(Clone, Debug)]
pub struct ScoredPredictions {
    /// `[N, K]` final probabilities: the full ensemble average for
    /// escalated examples, the gate member's row for early exits.
    pub probs: Tensor,
    /// Per-example gate uncertainty in `[0, 1]` (`1 - confidence` under
    /// the scoring metric), indexed in example order.
    pub uncertainty: Vec<f32>,
    /// Per-example escalation flag: `true` when the example ran the full
    /// ensemble, `false` when it exited early with the gate's answer.
    pub escalated: Vec<bool>,
}

impl ScoredPredictions {
    /// Hard labels (row argmax) of the final probabilities.
    pub fn labels(&self) -> Vec<usize> {
        ops::argmax_rows(&self.probs)
    }

    /// Number of examples that escalated to the full ensemble.
    pub fn num_escalated(&self) -> usize {
        self.escalated.iter().filter(|&&e| e).count()
    }

    /// Fraction of examples that exited early (0.0 for an empty batch).
    pub fn early_exit_rate(&self) -> f64 {
        if self.escalated.is_empty() {
            return 0.0;
        }
        (self.escalated.len() - self.num_escalated()) as f64 / self.escalated.len() as f64
    }
}

/// A calibrated cascade operating point, from [`calibrate`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CascadeCalibration {
    /// The calibrated policy (metric + threshold) — hand it to
    /// [`ExecPolicy::Cascade`].
    pub policy: CascadePolicy,
    /// Fraction of the calibration batch that would exit early at this
    /// threshold.
    pub exit_rate: f64,
    /// Gate-vs-full-ensemble label agreement *among the exiting
    /// examples* at this threshold (1.0 when nothing exits).
    pub agreement: f64,
}

/// The immutable half of the engine: members (weights), geometry, planning
/// logic, and artifact load/save. Wrap it in an [`Arc`]
/// ([`EnginePlan::into_shared`]) and hand it to as many
/// [`EngineSession`]s — across as many threads — as the machine can run:
/// they all execute this one copy of the weights.
#[derive(Debug)]
pub struct EnginePlan {
    members: Vec<EnsembleMember>,
    batch_size: usize,
    policy: ExecPolicy,
    input: InputSpec,
    num_classes: usize,
    /// Longest common prefix of bitwise-identical (config and state)
    /// layer nodes across *all* members; 0 for fewer than two members.
    trunk_len: usize,
    /// Whether the trunk contains at least one parameterized node — i.e.
    /// whether sharing it actually saves work.
    trunk_profitable: bool,
}

impl EnginePlan {
    /// Builds a plan that runs each member in mini-batches of `batch_size`
    /// examples (clamped to at least 1), defaulting sessions to
    /// [`ExecPolicy::Auto`].
    ///
    /// Cached training activations are dropped from every member (a
    /// serving plan never needs them, and sessions never write new ones).
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyEnsemble`] for zero members, and
    /// [`EngineError::MemberMismatch`] when members disagree on input
    /// geometry or class count.
    pub fn new(mut members: Vec<EnsembleMember>, batch_size: usize) -> Result<Self, EngineError> {
        let Some(first) = members.first() else {
            return Err(EngineError::EmptyEnsemble);
        };
        let input = first.network.arch().input;
        let num_classes = first.network.arch().num_classes;
        for m in &members {
            let arch = m.network.arch();
            if arch.input != input || arch.num_classes != num_classes {
                return Err(EngineError::MemberMismatch {
                    detail: format!(
                        "member {} expects {}x{}x{} -> {} classes, member {} expects \
                         {}x{}x{} -> {} classes",
                        first.name,
                        input.channels,
                        input.height,
                        input.width,
                        num_classes,
                        m.name,
                        arch.input.channels,
                        arch.input.height,
                        arch.input.width,
                        arch.num_classes
                    ),
                });
            }
        }
        // Trunk detection: the longest member prefix whose nodes are
        // bitwise identical (weights, running stats, and eval-relevant
        // config) across every member. Hatched ensembles share their
        // MotherNet prefix by construction; independently trained members
        // degrade gracefully to a trunk of 0 (or of cheap stateless
        // nodes, which `trunk_profitable` filters out).
        let trunk_len = if members.len() < 2 {
            0
        } else {
            members[1..]
                .iter()
                .map(|m| members[0].network.shared_eval_prefix(&m.network))
                .min()
                .unwrap_or(0)
        };
        let trunk_profitable = members[0].network.nodes()[..trunk_len].iter().any(|node| {
            let mut stateful = false;
            node.visit_state(&mut |_| stateful = true);
            stateful
        });
        for m in members.iter_mut() {
            m.network.clear_caches();
        }
        Ok(EnginePlan {
            members,
            batch_size: batch_size.max(1),
            policy: ExecPolicy::Auto,
            input,
            num_classes,
            trunk_len,
            trunk_profitable,
        })
    }

    /// Sets the default policy sessions start with (builder-style, before
    /// the plan is shared).
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Boots a plan from an `MNE1` ensemble artifact file — the serving
    /// cold-start path. Member networks are constructed zero-initialized
    /// and restored in place (no RNG sampling), and predictions are
    /// bitwise identical to the ensemble that saved the artifact.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from reading or parsing the file.
    pub fn load(path: impl AsRef<Path>, batch_size: usize) -> Result<Self, ArtifactError> {
        let (_, members) = artifact::read_ensemble_file(path)?;
        EnginePlan::new(members, batch_size).map_err(ArtifactError::from)
    }

    /// [`EnginePlan::load`] over in-memory artifact bytes.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from parsing the bytes.
    pub fn from_artifact_bytes(bytes: &[u8], batch_size: usize) -> Result<Self, ArtifactError> {
        let (_, members) = artifact::load_ensemble(bytes)?;
        EnginePlan::new(members, batch_size).map_err(ArtifactError::from)
    }

    /// Serializes the plan's members as an `MNE1` artifact.
    pub fn to_artifact_bytes(&self, manifest: &EnsembleManifest) -> Vec<u8> {
        let members: Vec<&EnsembleMember> = self.members.iter().collect();
        artifact::save_ensemble_refs(&members, manifest)
    }

    /// [`EnginePlan::to_artifact_bytes`] with member weights stored under
    /// `encoding` — the deployment-footprint knob: `f16` ≈ 0.5x, `i8` ≈
    /// 0.25x the full-precision artifact bytes. [`EnginePlan::load`] /
    /// [`EnginePlan::from_artifact_bytes`] restore either variant
    /// transparently (members dequantize into `f32` networks, so the
    /// serving path runs unchanged).
    ///
    /// # Errors
    ///
    /// Any [`artifact::save_ensemble_refs_quantized`] error (a member
    /// holding NaN/±Inf weights).
    pub fn to_artifact_bytes_quantized(
        &self,
        manifest: &EnsembleManifest,
        encoding: mn_nn::io::WeightEncoding,
    ) -> Result<Vec<u8>, ArtifactError> {
        let members: Vec<&EnsembleMember> = self.members.iter().collect();
        artifact::save_ensemble_refs_quantized(&members, manifest, encoding)
    }

    /// Bytes of resident `f32` parameter/state memory across all members:
    /// every persistent tensor element at 4 bytes. This is the serving
    /// process's weight footprint — independent of the artifact encoding,
    /// since quantized artifacts dequantize to `f32` on load.
    pub fn param_bytes(&self) -> usize {
        let mut elements = 0usize;
        for m in &self.members {
            for node in m.network.nodes() {
                node.visit_state(&mut |t| elements += t.len());
            }
        }
        elements * std::mem::size_of::<f32>()
    }

    /// Wraps the plan for sharing across sessions/threads.
    pub fn into_shared(self) -> Arc<EnginePlan> {
        Arc::new(self)
    }

    /// The default policy sessions start with.
    pub fn default_policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Resolves the execution plan for a batch of `n` examples under
    /// `policy` and the current worker-thread count.
    ///
    /// The auto rule: shard the batch only when sharding yields more
    /// parallel tasks than member fan-out can — i.e. when the thread count
    /// exceeds the member count *and* the batch is large enough to cut
    /// into more than `num_members` shards of at least one mini-batch
    /// each. Plans never affect results (see module docs), only wall
    /// clock.
    ///
    /// Explicit [`ExecPolicy::DataParallel`] and
    /// [`ExecPolicy::TrunkShared`] shard requests are clamped by
    /// [`EnginePlan::clamp_shards`] — lanes beyond the worker count buy no
    /// parallelism, so an oversized request must not be able to pin
    /// unbounded per-lane scratch.
    pub fn resolve(&self, n: usize, policy: ExecPolicy) -> Plan {
        match policy {
            ExecPolicy::MemberParallel => Plan::MemberParallel,
            ExecPolicy::DataParallel { shards } => {
                let shards = self.clamp_shards(shards, n);
                if shards == 1 {
                    Plan::MemberParallel
                } else {
                    Plan::DataParallel { shards }
                }
            }
            ExecPolicy::TrunkShared { shards } => Plan::TrunkShared {
                shards: self.clamp_shards(shards, n),
            },
            // The cascade is an explicit opt-in: it changes *what work
            // runs* (early-exiting examples skip K-1 members), so Auto
            // never silently picks it.
            ExecPolicy::Cascade(cp) => Plan::Cascade(cp),
            ExecPolicy::Auto => {
                let threads = rayon::current_num_threads();
                let members = self.members.len();
                if self.shares_trunk() && n > 0 {
                    // Sharing a parameterized trunk saves FLOPs on every
                    // plan shape; shard only as far as there are whole
                    // mini-batch chunks and threads to run them.
                    let shards = n.div_ceil(self.batch_size).min(threads);
                    return Plan::TrunkShared {
                        shards: self.clamp_shards(shards, n),
                    };
                }
                if n == 0 || threads <= members {
                    return Plan::MemberParallel;
                }
                let shards = n.div_ceil(self.batch_size).min(threads);
                if shards > members {
                    Plan::DataParallel { shards }
                } else {
                    Plan::MemberParallel
                }
            }
        }
    }

    /// Clamps a requested shard count for a batch of `n` examples. The
    /// constraint order is deliberate and pinned by unit tests: an empty
    /// batch always resolves to one shard (nothing to split, and `0`
    /// shards would be degenerate); otherwise the request is raised to at
    /// least 1, lowered to at most one shard per example, and finally
    /// capped at [`EnginePlan::max_shards`] so an absurd request cannot
    /// pin unbounded per-lane scratch.
    pub fn clamp_shards(&self, requested: usize, n: usize) -> usize {
        if n == 0 {
            return 1;
        }
        requested.max(1).min(n).min(self.max_shards())
    }

    /// Upper bound on data-parallel shards (and so on replica lanes): the
    /// worker-thread count, with a small floor so the sharding path stays
    /// exercisable on single-core machines. Caps the per-lane scratch an
    /// explicit [`ExecPolicy::DataParallel`] request can pin.
    pub fn max_shards(&self) -> usize {
        const SHARD_FLOOR: usize = 16;
        rayon::current_num_threads().max(SHARD_FLOOR)
    }

    /// Length (in layer nodes) of the shared member trunk: the longest
    /// common prefix of bitwise-identical layers across every member,
    /// detected at plan build time. 0 when there are fewer than two
    /// members or the members share nothing.
    pub fn trunk_len(&self) -> usize {
        self.trunk_len
    }

    /// Whether the detected trunk contains parameterized work worth
    /// sharing (a trunk of only stateless nodes — e.g. the leading
    /// `Flatten` every MLP starts with — is not). [`ExecPolicy::Auto`]
    /// picks [`Plan::TrunkShared`] exactly when this holds.
    pub fn shares_trunk(&self) -> bool {
        self.trunk_profitable
    }

    /// Number of ensemble members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Mini-batch size used per member.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Input geometry every member expects.
    pub fn input_spec(&self) -> InputSpec {
        self.input
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Read access to the members, in plan order — a borrowed slice, no
    /// per-call allocation.
    pub fn members(&self) -> &[EnsembleMember] {
        &self.members
    }

    /// Member names, in plan order — an iterator, no per-call allocation.
    pub fn member_names(&self) -> impl Iterator<Item = &str> {
        self.members.iter().map(|m| m.name.as_str())
    }

    /// Decomposes the plan back into its members.
    pub fn into_members(self) -> Vec<EnsembleMember> {
        self.members
    }
}

/// One session over a shared [`EnginePlan`].
impl EnginePlan {
    /// Opens a new session over this shared plan: per-worker workspaces
    /// and replica-lane scratch, zero weight clones. Cheap — a server
    /// opens one per shard.
    pub fn session(self: &Arc<Self>) -> EngineSession {
        EngineSession::new(Arc::clone(self))
    }
}

/// The mutable half of the engine, private to one worker: per-member
/// workspaces (lane 0) plus lazily-built replica-lane scratch for
/// sharded plans. Holds **no weights** — every forward pass reads
/// the shared [`EnginePlan`] through `&self`.
#[derive(Debug)]
pub struct EngineSession {
    plan: Arc<EnginePlan>,
    policy: ExecPolicy,
    /// `lanes[lane][member]`: workspace scratch. Lane 0 always exists;
    /// lanes 1.. appear the first time a plan cuts a batch into that
    /// many shards and are reused afterwards.
    lanes: Vec<Vec<Workspace>>,
}

impl EngineSession {
    fn new(plan: Arc<EnginePlan>) -> Self {
        let lane0 = (0..plan.num_members()).map(|_| Workspace::new()).collect();
        let policy = plan.default_policy();
        EngineSession {
            plan,
            policy,
            lanes: vec![lane0],
        }
    }

    /// The shared plan this session executes.
    pub fn plan(&self) -> &Arc<EnginePlan> {
        &self.plan
    }

    /// Overrides this session's parallelism policy (other sessions over
    /// the same plan are unaffected).
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The session's active parallelism policy.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Resolves the execution plan for a batch of `n` examples under this
    /// session's policy (see [`EnginePlan::resolve`]).
    pub fn plan_for(&self, n: usize) -> Plan {
        self.plan.resolve(n, self.policy)
    }

    /// Number of materialized workspace lanes (including the primary).
    /// Starts at 1 and grows only when a plan shards a batch.
    pub fn replica_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Runs every member over the request batch `x: [N, C, H, W]` under
    /// the resolved plan and collects per-member probabilities.
    ///
    /// An empty batch (`N = 0`) is legal and yields `[0, K]` predictions.
    ///
    /// Per-member probabilities need every member on every example, so a
    /// [`Plan::Cascade`] session answers this API fully escalated: the
    /// batch is re-resolved under [`ExecPolicy::Auto`] (a cascade with
    /// nothing exiting early *is* the full ensemble). Early exit only
    /// ever applies through [`EngineSession::predict_scored`].
    pub fn predict(&mut self, x: &Tensor) -> MemberPredictions {
        let n = x.shape().dim(0);
        let policy = match self.policy {
            ExecPolicy::Cascade(_) => ExecPolicy::Auto,
            policy => policy,
        };
        let (shards, trunk) = match self.plan.resolve(n, policy) {
            // `policy` is no cascade and Auto never picks one: the arm is
            // here for exhaustiveness, and the flat full ensemble is what
            // this API promises of a cascade anyway.
            Plan::MemberParallel | Plan::Cascade(_) => (1, 0),
            Plan::DataParallel { shards } => (shards, 0),
            Plan::TrunkShared { shards } => (shards, self.plan.trunk_len()),
        };
        let members = 0..self.plan.num_members();
        let (probs, _) = self.pass(x, 0, members, shards, trunk, false);
        MemberPredictions::from_probs(probs)
    }

    /// The executor every plan runs (see the module docs): `src` is the
    /// activation entering node `at` for every row — the request batch at
    /// 0, or trunk activations a previous pass kept at `trunk` — and the
    /// result is one `[N, K]` probability tensor per member of `who`.
    ///
    /// Rows are cut into at most `shards` contiguous ranges, one per
    /// lane. A lane walks its range in `batch_size` chunks counted from
    /// the range's first row, stages each chunk once in its first
    /// workspace, runs member 0's `nodes[..trunk]` on it when `src` sits
    /// before the trunk (bitwise every member's own prefix by
    /// construction, see [`EnginePlan::trunk_len`]), then fans the
    /// members' remaining nodes and the softmax across their own lane
    /// workspaces. With `keep_trunk`, each lane also hands back the trunk
    /// activations of its rows (second result, in lane order) so a later
    /// pass can start at `trunk` without paying for the prefix again.
    fn pass(
        &mut self,
        src: &Tensor,
        at: usize,
        who: Range<usize>,
        shards: usize,
        trunk: usize,
        keep_trunk: bool,
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        let n = src.shape().dim(0);
        let ranges = shard_ranges(n, shards);
        self.ensure_lanes(ranges.len());
        let plan = &self.plan;
        let (bs, k) = (plan.batch_size(), plan.num_classes());
        let trunk_net = &plan.members()[0].network;
        let members = &plan.members()[who.clone()];
        let row = src.len() / n.max(1);
        let tail = at.max(trunk);

        // One output per member, cut into one disjoint row block per lane
        // so lanes write their rows in place, in example order.
        let mut probs: Vec<Tensor> = members.iter().map(|_| Tensor::zeros([n, k])).collect();
        let mut blocks: Vec<Vec<&mut [f32]>> = ranges.iter().map(|_| Vec::new()).collect();
        for out in &mut probs {
            let mut rest = out.data_mut();
            for (range, lane_blocks) in ranges.iter().zip(&mut blocks) {
                let (block, after) = rest.split_at_mut(range.len() * k);
                lane_blocks.push(block);
                rest = after;
            }
        }

        let mut jobs: Vec<_> = ranges
            .into_iter()
            .zip(self.lanes.iter_mut())
            .zip(blocks)
            .collect();
        let kept: Vec<Option<Tensor>> = jobs
            .par_iter_mut()
            .map(|((range, lane), outs)| {
                let mut kept: Option<Tensor> = None;
                let mut start = range.start;
                while start < range.end {
                    let end = (start + bs).min(range.end);
                    let (chunk, local) = (end - start, start - range.start);
                    let mut xb = lane[0].acquire_uninit(src.shape().with_dim(0, chunk));
                    xb.data_mut()
                        .copy_from_slice(&src.data()[start * row..end * row]);
                    let h = if at < trunk {
                        let h = trunk_net.forward_eval_prefix_with(&xb, trunk, &mut lane[0]);
                        lane[0].release(xb);
                        h
                    } else {
                        xb
                    };
                    if keep_trunk {
                        let h_row = h.len() / chunk;
                        let all = kept.get_or_insert_with(|| {
                            Tensor::zeros(h.shape().with_dim(0, range.len()))
                        });
                        all.data_mut()[local * h_row..(local + chunk) * h_row]
                            .copy_from_slice(h.data());
                    }
                    let mut tails: Vec<_> = members
                        .iter()
                        .zip(lane[who.clone()].iter_mut())
                        .zip(outs.iter_mut())
                        .collect();
                    tails.par_iter_mut().for_each(|((member, ws), out)| {
                        let mut p = member.network.forward_eval_tail_with(&h, tail, ws);
                        ops::softmax_rows(&mut p);
                        out[local * k..(local + chunk) * k].copy_from_slice(p.data());
                        ws.release(p);
                    });
                    lane[0].release(h);
                    start = end;
                }
                kept
            })
            .collect();
        (probs, kept.into_iter().flatten().collect())
    }

    /// Runs the request batch with per-example uncertainty and escalation
    /// tracking — the serving-facing API.
    ///
    /// Under a [`Plan::Cascade`] session this is the early-exit path (gate
    /// pass, threshold, escalation pass). Under every other plan the
    /// full ensemble runs as usual and the result is annotated: final
    /// probabilities are the ensemble average, uncertainty is the
    /// [`Confidence::MaxProb`] signal of that average, and every example
    /// counts as escalated (the full ensemble did run on it).
    pub fn predict_scored(&mut self, x: &Tensor) -> ScoredPredictions {
        if let Plan::Cascade(cp) = self.plan_for(x.shape().dim(0)) {
            return self.predict_cascade(x, cp);
        }
        let probs = self.predict_average(x);
        let (n, k) = (probs.shape().dim(0), probs.shape().dim(1));
        let uncertainty = (0..n)
            .map(|i| Confidence::MaxProb.uncertainty(&probs.data()[i * k..(i + 1) * k]))
            .collect();
        ScoredPredictions {
            probs,
            uncertainty,
            escalated: vec![true; n],
        }
    }

    /// [`EngineSession::predict_scored`] under a one-batch policy
    /// override: the session's own policy is restored afterwards, so a
    /// server shard can degrade a single micro-batch (e.g. force
    /// gate-only cascade execution during a brownout) without disturbing
    /// its steady-state configuration.
    pub fn predict_scored_with(&mut self, x: &Tensor, policy: ExecPolicy) -> ScoredPredictions {
        let saved = self.policy;
        self.policy = policy;
        let scored = self.predict_scored(x);
        self.policy = saved;
        scored
    }

    /// Uncertainty-gated cascade execution (see [`Plan::Cascade`]): two
    /// passes with a filter between them.
    ///
    /// **Gate pass:** member 0 scores the whole batch — over the shared
    /// trunk when the plan has a parameterized one, keeping the trunk
    /// activations so the escalation pays nothing for the trunk a second
    /// time; as its whole network otherwise.
    ///
    /// **Escalation:** rows whose gate uncertainty is not strictly below
    /// `cp.threshold` are gathered into a contiguous survivor batch and
    /// passed through members 1..K (tails over the kept trunk
    /// activations, or whole networks), then averaged with the gate's row
    /// in member order — the exact accumulation order (and therefore the
    /// exact bits) of [`combine::ensemble_average`] over a full
    /// [`EngineSession::predict`]. Early-exit rows keep the gate's row.
    ///
    /// Bitwise consistency: each example's forward pass is independent of
    /// its batch neighbors and prefix-then-tail evaluation equals
    /// whole-network evaluation (both pinned by the determinism suites),
    /// so an escalated row's probabilities are bit-for-bit what the flat
    /// plans produce for that row — and at `threshold = 0.0` (everything
    /// escalates) the whole output is bitwise identical to
    /// [`EngineSession::predict_average`] under any other plan.
    fn predict_cascade(&mut self, x: &Tensor, cp: CascadePolicy) -> ScoredPredictions {
        let n = x.shape().dim(0);
        let k = self.plan.num_classes();
        let m = self.plan.num_members();
        let trunk = if self.plan.shares_trunk() {
            self.plan.trunk_len()
        } else {
            0
        };

        let (mut gate, kept) = self.pass(x, 0, 0..1, 1, trunk, trunk > 0);
        let mut probs = gate.swap_remove(0);
        let uncertainty: Vec<f32> = (0..n)
            .map(|g| cp.metric.uncertainty(&probs.data()[g * k..(g + 1) * k]))
            .collect();
        // NaN uncertainty (impossible for finite inputs, but cheap to be
        // safe about) escalates rather than exits.
        let escalated: Vec<bool> = uncertainty
            .iter()
            .map(|&u| u.is_nan() || u >= cp.threshold)
            .collect();
        let survivors: Vec<usize> = (0..n).filter(|&g| escalated[g]).collect();

        // A single-member ensemble needs no escalation: its "full
        // ensemble" is the gate itself, and `ensemble_average`'s multiply
        // by 1/1 is a bitwise no-op, so the gate rows already are the
        // answer.
        if !survivors.is_empty() && m > 1 {
            let (src, at) = match kept.first() {
                Some(h) => (h, trunk),
                None => (x, 0),
            };
            let (esc_probs, _) =
                self.pass(&gather_examples(src, &survivors), at, 1..m, 1, trunk, false);
            // Average escalated rows exactly as `combine::ensemble_average`
            // over a full predict: member 0 first, then 1..K in order,
            // then one multiply by 1/K.
            let inv_k = 1.0 / m as f32;
            for (si, &g) in survivors.iter().enumerate() {
                let dst = &mut probs.data_mut()[g * k..(g + 1) * k];
                for (c, v) in dst.iter_mut().enumerate() {
                    let mut acc = *v;
                    for t in &esc_probs {
                        acc += t.data()[si * k + c];
                    }
                    *v = acc * inv_k;
                }
            }
        }

        ScoredPredictions {
            probs,
            uncertainty,
            escalated,
        }
    }

    /// Grows the workspace-lane pool to at least `lanes` lanes. This
    /// clones **no weights** — a lane is just one empty workspace per
    /// member.
    fn ensure_lanes(&mut self, lanes: usize) {
        let members = self.plan.num_members();
        while self.lanes.len() < lanes {
            self.lanes
                .push((0..members).map(|_| Workspace::new()).collect());
        }
    }

    /// Ensemble-averaged probabilities `[N, K]` for the request batch.
    pub fn predict_average(&mut self, x: &Tensor) -> Tensor {
        combine::ensemble_average(&self.predict(x))
    }

    /// Hard labels under ensemble averaging (the paper's EA rule).
    pub fn predict_labels(&mut self, x: &Tensor) -> Vec<usize> {
        ops::argmax_rows(&self.predict_average(x))
    }

    /// Hard labels under majority voting with probability tie-breaking.
    pub fn predict_vote_labels(&mut self, x: &Tensor) -> Vec<usize> {
        combine::vote_labels(&self.predict(x))
    }

    /// Closes the session, returning its handle on the shared plan.
    pub fn into_plan(self) -> Arc<EnginePlan> {
        self.plan
    }
}

/// Calibrates a cascade threshold offline against a held-out batch `x`,
/// label-free: the full ensemble's own answer is the reference, so any
/// representative traffic sample works.
///
/// The session runs `x` once under [`ExecPolicy::Auto`] (its configured
/// policy is saved and restored), yielding both the gate member's
/// probabilities and the full-ensemble labels. Examples are sorted by
/// gate uncertainty and the **largest** prefix whose gate-vs-ensemble
/// label agreement stays at or above `min_agreement` is taken as the
/// early-exit set; the returned threshold is the midpoint between the
/// boundary uncertainties (so the exit set is reproduced exactly by the
/// strict `u < threshold` rule), `0.0` when no prefix qualifies (cascade
/// disabled — bitwise full-ensemble behavior), and `1.0` when every
/// example qualifies. Prefixes that would split a tie in uncertainty are
/// never chosen: no threshold could separate them.
///
/// The reported `exit_rate` and `agreement` are recomputed from the
/// returned threshold, so they describe exactly what a
/// [`Plan::Cascade`] session will do on this batch.
pub fn calibrate(
    session: &mut EngineSession,
    x: &Tensor,
    metric: Confidence,
    min_agreement: f64,
) -> CascadeCalibration {
    let saved = session.policy();
    session.set_policy(ExecPolicy::Auto);
    let preds = session.predict(x);
    session.set_policy(saved);

    let n = preds.num_examples();
    let k = preds.num_classes();
    if n == 0 {
        return CascadeCalibration {
            policy: CascadePolicy {
                metric,
                threshold: 0.0,
            },
            exit_rate: 0.0,
            agreement: 1.0,
        };
    }
    let gate = &preds.probs()[0];
    let gate_labels = ops::argmax_rows(gate);
    let ens_labels = combine::ensemble_average_labels(&preds);
    let unc: Vec<f32> = (0..n)
        .map(|i| metric.uncertainty(&gate.data()[i * k..(i + 1) * k]))
        .collect();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        unc[a]
            .partial_cmp(&unc[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut best_s = 0usize;
    let mut agree = 0usize;
    for s in 1..=n {
        if gate_labels[order[s - 1]] == ens_labels[order[s - 1]] {
            agree += 1;
        }
        // A prefix is only realizable if a threshold can separate it:
        // its last uncertainty must be strictly below the next one.
        let separable = s == n || unc[order[s - 1]] < unc[order[s]];
        if separable && agree as f64 / s as f64 >= min_agreement {
            best_s = s;
        }
    }
    let threshold = if best_s == 0 {
        0.0
    } else if best_s == n {
        1.0
    } else {
        (unc[order[best_s - 1]] + unc[order[best_s]]) / 2.0
    };

    let exits: Vec<usize> = (0..n).filter(|&i| unc[i] < threshold).collect();
    let exit_rate = exits.len() as f64 / n as f64;
    let agreement = if exits.is_empty() {
        1.0
    } else {
        exits
            .iter()
            .filter(|&&i| gate_labels[i] == ens_labels[i])
            .count() as f64
            / exits.len() as f64
    };
    CascadeCalibration {
        policy: CascadePolicy { metric, threshold },
        exit_rate,
        agreement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_nn::arch::{Architecture, InputSpec};
    use mn_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn members(n: u64) -> Vec<EnsembleMember> {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![6]);
        (0..n)
            .map(|s| EnsembleMember::new(format!("m{s}"), Network::seeded(&arch, s)))
            .collect()
    }

    fn engine(n: u64, batch: usize) -> EngineSession {
        EnginePlan::new(members(n), batch)
            .unwrap()
            .into_shared()
            .session()
    }

    /// Members cloned from one seed network with only the classifier head
    /// re-perturbed — the hatched-ensemble shape: every node but the last
    /// Dense is bitwise shared.
    fn trunked_members(n: u64) -> Vec<EnsembleMember> {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![6]);
        let base = Network::seeded(&arch, 42);
        (0..n)
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
    fn engine_matches_sequential_collection() {
        let x = Tensor::randn([7, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(1));
        let mut seq_members = members(3);
        let sequential = MemberPredictions::collect(&mut seq_members, &x, 2);
        let mut engine = engine(3, 2);
        let parallel = engine.predict(&x);
        assert_eq!(parallel.num_members(), 3);
        for (p, s) in parallel.probs().iter().zip(sequential.probs()) {
            assert_eq!(p.data(), s.data(), "engine diverged from sequential path");
        }
    }

    #[test]
    fn repeated_predictions_reuse_workspaces_and_stay_identical() {
        let mut engine = engine(2, 4);
        let x = Tensor::randn([9, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(2));
        let first = engine.predict(&x);
        let second = engine.predict(&x);
        for (a, b) in first.probs().iter().zip(second.probs()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn combination_rules_run_on_engine_output() {
        let mut engine = engine(3, 8);
        let x = Tensor::randn([5, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(3));
        let avg = engine.predict_average(&x);
        assert_eq!(avg.shape().dims(), &[5, 3]);
        for i in 0..5 {
            let row: f32 = (0..3).map(|j| avg.at2(i, j)).sum();
            assert!((row - 1.0).abs() < 1e-4, "row {i} sums to {row}");
        }
        assert_eq!(engine.predict_labels(&x).len(), 5);
        assert_eq!(engine.predict_vote_labels(&x).len(), 5);
    }

    #[test]
    fn accessors_expose_members() {
        let engine = engine(2, 16);
        assert_eq!(engine.plan().num_members(), 2);
        assert_eq!(engine.plan().batch_size(), 16);
        assert_eq!(
            engine.plan().member_names().collect::<Vec<_>>(),
            vec!["m0", "m1"]
        );
        assert_eq!(engine.plan().members().len(), 2);
        assert_eq!(engine.plan().members()[1].name, "m1");
        assert_eq!(engine.plan().num_classes(), 3);
        assert_eq!(engine.plan().input_spec(), InputSpec::new(1, 2, 2));
        let back = Arc::try_unwrap(engine.into_plan()).unwrap().into_members();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn empty_ensemble_yields_typed_error() {
        assert_eq!(
            EnginePlan::new(Vec::new(), 8).unwrap_err(),
            EngineError::EmptyEnsemble
        );
    }

    #[test]
    fn mismatched_members_yield_typed_error() {
        let arch_a = Architecture::mlp("a", InputSpec::new(1, 2, 2), 3, vec![4]);
        let arch_b = Architecture::mlp("b", InputSpec::new(1, 2, 2), 5, vec![4]);
        let mixed = vec![
            EnsembleMember::new("a", Network::seeded(&arch_a, 0)),
            EnsembleMember::new("b", Network::seeded(&arch_b, 1)),
        ];
        assert!(matches!(
            EnginePlan::new(mixed, 8),
            Err(EngineError::MemberMismatch { .. })
        ));
    }

    #[test]
    fn zero_batch_size_clamps_to_one() {
        let mut engine = engine(1, 0);
        assert_eq!(engine.plan().batch_size(), 1);
        let x = Tensor::zeros([2, 1, 2, 2]);
        assert_eq!(engine.predict_labels(&x).len(), 2);
    }

    #[test]
    fn data_parallel_plan_matches_member_parallel_bitwise() {
        let x = Tensor::randn([13, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(4));
        let mut baseline = engine(3, 4);
        baseline.set_policy(ExecPolicy::MemberParallel);
        let reference = baseline.predict(&x);
        for shards in [2usize, 3, 5, 13, 40] {
            let mut sharded = engine(3, 4);
            sharded.set_policy(ExecPolicy::DataParallel { shards });
            let got = sharded.predict(&x);
            for (m, (a, b)) in reference.probs().iter().zip(got.probs()).enumerate() {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "member {m} diverged under {shards}-way sharding"
                );
            }
            assert!(sharded.replica_lanes() >= 2, "sharding built replica lanes");
        }
    }

    #[test]
    fn replica_lanes_grow_lazily_and_persist() {
        let mut e = engine(2, 2);
        assert_eq!(e.replica_lanes(), 1);
        e.set_policy(ExecPolicy::MemberParallel);
        let x = Tensor::zeros([8, 1, 2, 2]);
        let _ = e.predict(&x);
        assert_eq!(e.replica_lanes(), 1, "member-parallel must not build lanes");
        e.set_policy(ExecPolicy::DataParallel { shards: 4 });
        let _ = e.predict(&x);
        assert_eq!(e.replica_lanes(), 4);
        let _ = e.predict(&x);
        assert_eq!(e.replica_lanes(), 4, "lanes are reused, not rebuilt");
    }

    #[test]
    fn explicit_shards_clamp_to_batch_and_lane_cap() {
        let mut e = engine(2, 2);
        e.set_policy(ExecPolicy::DataParallel { shards: 0 });
        assert_eq!(e.plan_for(5), Plan::MemberParallel);
        e.set_policy(ExecPolicy::DataParallel { shards: 8 });
        assert_eq!(e.plan_for(3), Plan::DataParallel { shards: 3 });
        assert_eq!(e.plan_for(0), Plan::MemberParallel);
        // An absurd request must not be able to demand one lane per
        // example of a huge batch.
        e.set_policy(ExecPolicy::DataParallel { shards: usize::MAX });
        match e.plan_for(1_000_000) {
            Plan::DataParallel { shards } => assert_eq!(shards, e.plan().max_shards()),
            plan => panic!("expected a capped data-parallel plan, got {plan:?}"),
        }
        let x = Tensor::zeros([64, 1, 2, 2]);
        let _ = e.predict(&x);
        assert!(e.replica_lanes() <= e.plan().max_shards());
    }

    #[test]
    fn trunk_detection_finds_hatched_prefix_and_ignores_stateless_trunks() {
        // Head-only divergence: everything up to (not including) the
        // final Dense is shared, and the trunk carries real weights.
        let plan = EnginePlan::new(trunked_members(4), 8).unwrap();
        let nodes = plan.members()[0].network.nodes().len();
        assert_eq!(plan.trunk_len(), nodes - 1);
        assert!(plan.shares_trunk());

        // Independently seeded members share only the leading stateless
        // Flatten — detected, but not worth sharing.
        let flat = EnginePlan::new(members(3), 8).unwrap();
        assert_eq!(flat.trunk_len(), 1);
        assert!(!flat.shares_trunk());

        // A single member has no trunk to share.
        let solo = EnginePlan::new(members(1), 8).unwrap();
        assert_eq!(solo.trunk_len(), 0);
        assert!(!solo.shares_trunk());
    }

    #[test]
    fn auto_picks_trunk_shared_exactly_when_trunk_is_parameterized() {
        let trunked = EnginePlan::new(trunked_members(3), 4).unwrap();
        assert!(matches!(
            trunked.resolve(16, ExecPolicy::Auto),
            Plan::TrunkShared { .. }
        ));
        // Empty batches never shard and never need the trunk path.
        assert_eq!(trunked.resolve(0, ExecPolicy::Auto), Plan::MemberParallel);
        // A stateless trunk keeps the flat auto rule.
        let flat = EnginePlan::new(members(3), 4).unwrap();
        assert!(!matches!(
            flat.resolve(16, ExecPolicy::Auto),
            Plan::TrunkShared { .. }
        ));
    }

    #[test]
    fn trunk_shared_matches_member_parallel_bitwise() {
        let x = Tensor::randn([13, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(6));
        let plan = EnginePlan::new(trunked_members(4), 4)
            .unwrap()
            .into_shared();
        let mut baseline = plan.session();
        baseline.set_policy(ExecPolicy::MemberParallel);
        let reference = baseline.predict(&x);
        // Members genuinely diverge (the trunk path has something to get
        // wrong): head perturbations must show up in the outputs.
        assert_ne!(
            reference.probs()[0].data(),
            reference.probs()[1].data(),
            "trunked members must still disagree at the head"
        );
        for shards in [1usize, 2, 3, 5, 13, 40] {
            let mut trunked = plan.session();
            trunked.set_policy(ExecPolicy::TrunkShared { shards });
            let got = trunked.predict(&x);
            for (m, (a, b)) in reference.probs().iter().zip(got.probs()).enumerate() {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "member {m} diverged under {shards}-shard trunk sharing"
                );
            }
        }
        // Zero shared prefix (explicit policy on unrelated members) is
        // correct too — it just shares nothing.
        let flat_plan = EnginePlan::new(members(3), 4).unwrap().into_shared();
        let mut a = flat_plan.session();
        a.set_policy(ExecPolicy::MemberParallel);
        let mut b = flat_plan.session();
        b.set_policy(ExecPolicy::TrunkShared { shards: 2 });
        let ra = a.predict(&x);
        let rb = b.predict(&x);
        for (p, q) in ra.probs().iter().zip(rb.probs()) {
            assert_eq!(p.data(), q.data());
        }
    }

    #[test]
    fn trunk_shared_handles_empty_batch_and_single_shard() {
        let plan = EnginePlan::new(trunked_members(2), 4)
            .unwrap()
            .into_shared();
        let mut s = plan.session();
        s.set_policy(ExecPolicy::TrunkShared { shards: 3 });
        let empty = Tensor::zeros([0, 1, 2, 2]);
        let preds = s.predict(&empty);
        assert_eq!(preds.num_examples(), 0);
        assert_eq!(preds.num_members(), 2);
        // One shard stays on the trunk-shared plan (unlike data-parallel,
        // which would fall back to member-parallel).
        assert_eq!(
            plan.resolve(8, ExecPolicy::TrunkShared { shards: 1 }),
            Plan::TrunkShared { shards: 1 }
        );
        let x = Tensor::randn([3, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(7));
        s.set_policy(ExecPolicy::TrunkShared { shards: 1 });
        assert_eq!(s.predict(&x).num_examples(), 3);
    }

    #[test]
    fn clamp_shards_pins_constraint_order() {
        let plan = EnginePlan::new(members(2), 2).unwrap();
        // Empty batch: always one shard, regardless of the request.
        assert_eq!(plan.clamp_shards(0, 0), 1);
        assert_eq!(plan.clamp_shards(usize::MAX, 0), 1);
        // Zero-shard requests are raised to one.
        assert_eq!(plan.clamp_shards(0, 5), 1);
        // At most one shard per example.
        assert_eq!(plan.clamp_shards(8, 3), 3);
        // The lane cap binds last.
        assert_eq!(plan.clamp_shards(usize::MAX, 1_000_000), plan.max_shards());
        // And resolve() exposes the same behavior through both policies.
        assert_eq!(
            plan.resolve(0, ExecPolicy::DataParallel { shards: 7 }),
            Plan::MemberParallel
        );
        assert_eq!(
            plan.resolve(0, ExecPolicy::TrunkShared { shards: 7 }),
            Plan::TrunkShared { shards: 1 }
        );
        assert_eq!(
            plan.resolve(5, ExecPolicy::DataParallel { shards: 0 }),
            Plan::MemberParallel
        );
        assert_eq!(
            plan.resolve(3, ExecPolicy::DataParallel { shards: 8 }),
            Plan::DataParallel { shards: 3 }
        );
        assert_eq!(
            plan.resolve(1_000_000, ExecPolicy::DataParallel { shards: usize::MAX }),
            Plan::DataParallel {
                shards: plan.max_shards()
            }
        );
    }

    #[test]
    fn auto_plan_prefers_member_fanout_unless_sharding_wins() {
        let e = engine(3, 4);
        // Empty batches never shard.
        assert_eq!(e.plan_for(0), Plan::MemberParallel);
        // With the test runner's thread count unknown, pin only the
        // invariants: sharding must yield strictly more tasks than member
        // fan-out, and never more shards than threads or mini-batches.
        for n in [1usize, 8, 64, 1024] {
            match e.plan_for(n) {
                Plan::MemberParallel => {}
                Plan::DataParallel { shards } => {
                    assert!(shards > e.plan().num_members());
                    assert!(shards <= rayon::current_num_threads());
                    assert!(shards <= n.div_ceil(e.plan().batch_size()));
                }
                Plan::TrunkShared { .. } => {
                    panic!("independently seeded members must not auto-share a trunk")
                }
                Plan::Cascade(_) => panic!("auto must never pick the cascade"),
            }
        }
    }

    #[test]
    fn empty_batch_under_data_parallel_policy() {
        let mut e = engine(2, 4);
        e.set_policy(ExecPolicy::DataParallel { shards: 3 });
        let empty = Tensor::zeros([0, 1, 2, 2]);
        let preds = e.predict(&empty);
        assert_eq!(preds.num_examples(), 0);
        assert_eq!(preds.num_members(), 2);
    }

    #[test]
    fn sessions_share_one_plan_without_weight_clones() {
        // The acceptance criterion of the plan/session split: N sessions
        // over one plan reference the *same* member storage (pointer
        // identity), produce identical output, and per-session policies
        // stay independent.
        let plan = EnginePlan::new(members(3), 4).unwrap().into_shared();
        let mut a = plan.session();
        let mut b = plan.session();
        assert!(
            Arc::ptr_eq(a.plan(), b.plan()),
            "sessions must share one plan"
        );
        let pa = a.plan().members().as_ptr();
        let pb = b.plan().members().as_ptr();
        assert_eq!(pa, pb, "sessions must not clone member storage");
        // First member's weight data is the same allocation from both.
        let wa = a.plan().members()[0].network.nodes().as_ptr();
        let wb = b.plan().members()[0].network.nodes().as_ptr();
        assert_eq!(wa, wb, "member weights must be shared, not cloned");

        let x = Tensor::randn([10, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(9));
        b.set_policy(ExecPolicy::DataParallel { shards: 4 });
        assert_eq!(a.policy(), ExecPolicy::Auto, "policies are per-session");
        let ra = a.predict(&x);
        let rb = b.predict(&x);
        for (m, (p, q)) in ra.probs().iter().zip(rb.probs()).enumerate() {
            assert_eq!(p.data(), q.data(), "member {m} diverged across sessions");
        }
        // Data-parallel lanes grew only in the session that ran them.
        assert_eq!(a.replica_lanes(), 1);
        assert!(b.replica_lanes() >= 2);
    }

    #[test]
    fn with_policy_sets_the_session_default() {
        let plan = EnginePlan::new(members(2), 4)
            .unwrap()
            .with_policy(ExecPolicy::DataParallel { shards: 2 })
            .into_shared();
        assert_eq!(
            plan.default_policy(),
            ExecPolicy::DataParallel { shards: 2 }
        );
        // New sessions inherit the plan default; overriding one session
        // leaves the plan (and future sessions) untouched.
        let mut session = plan.session();
        assert_eq!(session.policy(), ExecPolicy::DataParallel { shards: 2 });
        assert_eq!(session.plan_for(8), Plan::DataParallel { shards: 2 });
        session.set_policy(ExecPolicy::MemberParallel);
        assert_eq!(
            plan.session().policy(),
            ExecPolicy::DataParallel { shards: 2 }
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cascade_policy_resolves_and_other_plans_stay_put() {
        let plan = EnginePlan::new(members(3), 4).unwrap();
        let cp = CascadePolicy::max_prob(0.25);
        assert_eq!(plan.resolve(16, ExecPolicy::Cascade(cp)), Plan::Cascade(cp));
        assert_eq!(plan.resolve(0, ExecPolicy::Cascade(cp)), Plan::Cascade(cp));
        // Auto never picks the cascade: it changes what work runs.
        for n in [0usize, 1, 16, 1024] {
            assert!(!matches!(
                plan.resolve(n, ExecPolicy::Auto),
                Plan::Cascade(_)
            ));
        }
    }

    #[test]
    fn uncertainty_metrics_match_their_confidence_complements() {
        let row = [0.6f32, 0.3, 0.1];
        assert!((Confidence::MaxProb.uncertainty(&row) - 0.4).abs() < 1e-6);
        assert!((Confidence::Margin.uncertainty(&row) - 0.7).abs() < 1e-6);
        // A top-2 tie: max-prob still semi-confident, margin maximally not.
        let tie = [0.5f32, 0.5];
        assert!((Confidence::MaxProb.uncertainty(&tie) - 0.5).abs() < 1e-6);
        assert!((Confidence::Margin.uncertainty(&tie) - 1.0).abs() < 1e-6);
        // One class: no runner-up, both metrics agree.
        let solo = [1.0f32];
        assert_eq!(Confidence::MaxProb.uncertainty(&solo), 0.0);
        assert_eq!(Confidence::Margin.uncertainty(&solo), 0.0);
    }

    #[test]
    fn cascade_threshold_zero_is_bitwise_identical_to_flat_average() {
        let x = Tensor::randn([11, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(11));
        for trunked in [false, true] {
            let ms = if trunked {
                trunked_members(4)
            } else {
                members(4)
            };
            let plan = EnginePlan::new(ms, 4).unwrap().into_shared();
            let mut flat = plan.session();
            flat.set_policy(ExecPolicy::MemberParallel);
            let reference = combine::ensemble_average(&flat.predict(&x));
            for metric in [Confidence::MaxProb, Confidence::Margin] {
                let mut casc = plan.session();
                casc.set_policy(ExecPolicy::Cascade(CascadePolicy {
                    metric,
                    threshold: 0.0,
                }));
                let scored = casc.predict_scored(&x);
                assert_eq!(
                    bits(&reference),
                    bits(&scored.probs),
                    "threshold-0 cascade diverged (trunked={trunked}, {metric:?})"
                );
                assert!(scored.escalated.iter().all(|&e| e), "nothing may exit at 0");
                assert_eq!(scored.early_exit_rate(), 0.0);
                assert_eq!(scored.num_escalated(), 11);
            }
        }
    }

    #[test]
    fn cascade_exit_rows_are_the_gate_member_bitwise() {
        // Threshold 1.0: everything except complete ties exits early with
        // member 0's row.
        let x = Tensor::randn([9, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(12));
        let plan = EnginePlan::new(trunked_members(3), 4)
            .unwrap()
            .into_shared();
        let mut flat = plan.session();
        flat.set_policy(ExecPolicy::MemberParallel);
        let gate_ref = flat.predict(&x).probs()[0].clone();
        let mut casc = plan.session();
        casc.set_policy(ExecPolicy::Cascade(CascadePolicy::max_prob(1.0)));
        let scored = casc.predict_scored(&x);
        let k = plan.num_classes();
        for (i, &esc) in scored.escalated.iter().enumerate() {
            if !esc {
                assert_eq!(
                    bits(&gate_ref)[i * k..(i + 1) * k],
                    bits(&scored.probs)[i * k..(i + 1) * k],
                    "exit row {i} is not the gate's row"
                );
            }
        }
        assert!(
            scored.early_exit_rate() > 0.0,
            "a 1.0 threshold on smooth inputs must exit something"
        );
    }

    #[test]
    fn cascade_empty_batch_and_single_member() {
        let plan = EnginePlan::new(members(1), 4).unwrap().into_shared();
        let mut s = plan.session();
        s.set_policy(ExecPolicy::Cascade(CascadePolicy::max_prob(0.5)));
        let empty = s.predict_scored(&Tensor::zeros([0, 1, 2, 2]));
        assert_eq!(empty.probs.shape().dims(), &[0, 3]);
        assert!(empty.uncertainty.is_empty());
        assert_eq!(empty.early_exit_rate(), 0.0);
        // One member: gate == full ensemble, exits and escalations agree.
        let x = Tensor::randn([5, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(13));
        let scored = s.predict_scored(&x);
        let mut flat = plan.session();
        flat.set_policy(ExecPolicy::MemberParallel);
        let reference = combine::ensemble_average(&flat.predict(&x));
        assert_eq!(bits(&reference), bits(&scored.probs));
    }

    #[test]
    fn predict_scored_annotates_non_cascade_plans() {
        let plan = EnginePlan::new(members(3), 4).unwrap().into_shared();
        let mut s = plan.session();
        s.set_policy(ExecPolicy::MemberParallel);
        let x = Tensor::randn([6, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(14));
        let scored = s.predict_scored(&x);
        let reference = combine::ensemble_average(&plan.session().predict(&x));
        assert_eq!(bits(&reference), bits(&scored.probs));
        assert!(scored.escalated.iter().all(|&e| e));
        assert_eq!(scored.labels(), ops::argmax_rows(&reference));
        let k = plan.num_classes();
        for (i, &u) in scored.uncertainty.iter().enumerate() {
            let want = Confidence::MaxProb.uncertainty(&reference.data()[i * k..(i + 1) * k]);
            assert_eq!(u, want);
        }
    }

    #[test]
    fn member_probability_apis_ignore_cascade_early_exit() {
        // predict() needs every member on every example, so a cascade
        // session answers it fully escalated.
        let plan = EnginePlan::new(trunked_members(3), 4)
            .unwrap()
            .into_shared();
        let x = Tensor::randn([7, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(15));
        let mut flat = plan.session();
        flat.set_policy(ExecPolicy::MemberParallel);
        let reference = flat.predict(&x);
        let mut casc = plan.session();
        casc.set_policy(ExecPolicy::Cascade(CascadePolicy::max_prob(1.0)));
        let got = casc.predict(&x);
        for (a, b) in reference.probs().iter().zip(got.probs()) {
            assert_eq!(bits(a), bits(b));
        }
    }

    /// Refills every pooled buffer of every lane workspace with NaN, so
    /// anything a pass reads from scratch it did not first write shows up
    /// in its output.
    fn poison_lanes(session: &mut EngineSession) {
        for ws in session.lanes.iter_mut().flatten() {
            let mut bufs = Vec::new();
            while ws.pooled_buffers() > 0 {
                bufs.push(ws.acquire_uninit([0]).into_vec());
            }
            for buf in bufs {
                ws.release(Tensor::filled([buf.capacity()], f32::NAN));
            }
        }
    }

    #[test]
    fn warm_poisoned_scratch_never_leaks_across_plans() {
        // One session serves a sharded trunk plan, a smaller flat batch,
        // then a cascade — all through the one staging path — and must
        // answer each with the bits of a fresh session.
        let plan = EnginePlan::new(trunked_members(4), 4)
            .unwrap()
            .into_shared();
        let mut rng = StdRng::seed_from_u64(17);
        let big = Tensor::randn([40, 1, 2, 2], 1.0, &mut rng);
        let small = Tensor::randn([5, 1, 2, 2], 1.0, &mut rng);
        let mixed = Tensor::randn([23, 1, 2, 2], 2.0, &mut rng);
        // The median gate uncertainty splits `mixed` into exits and
        // survivors.
        let mut gate = plan.session();
        gate.set_policy(ExecPolicy::Cascade(CascadePolicy::max_prob(0.0)));
        let mut unc = gate.predict_scored(&mixed).uncertainty;
        unc.sort_by(f32::total_cmp);
        let cascade = ExecPolicy::Cascade(CascadePolicy::max_prob(unc[unc.len() / 2]));

        let mut warm = plan.session();
        for (policy, x) in [
            (ExecPolicy::TrunkShared { shards: 3 }, &big),
            (ExecPolicy::MemberParallel, &small),
            (cascade, &mixed),
        ] {
            let mut fresh = plan.session();
            fresh.set_policy(policy);
            let want = fresh.predict_scored(x);
            poison_lanes(&mut warm);
            warm.set_policy(policy);
            let got = warm.predict_scored(x);
            assert_eq!(bits(&want.probs), bits(&got.probs), "{policy:?}");
            assert_eq!(want.escalated, got.escalated, "{policy:?}");
            if policy == cascade {
                let escalated = got.num_escalated();
                assert!(
                    0 < escalated && escalated < 23,
                    "{escalated} of 23 escalated"
                );
            }
        }
        assert_eq!(warm.replica_lanes(), 3, "lanes grow lazily and persist");
    }

    #[test]
    fn calibrate_finds_a_separating_threshold() {
        let plan = EnginePlan::new(trunked_members(4), 8)
            .unwrap()
            .into_shared();
        let mut s = plan.session();
        let x = Tensor::randn([64, 1, 2, 2], 2.0, &mut StdRng::seed_from_u64(16));
        let saved = ExecPolicy::Cascade(CascadePolicy::max_prob(0.9));
        s.set_policy(saved);
        let cal = calibrate(&mut s, &x, Confidence::MaxProb, 0.0);
        // min_agreement 0 accepts the full batch: threshold 1.0.
        assert_eq!(cal.policy.threshold, 1.0);
        assert_eq!(s.policy(), saved, "calibrate must restore the policy");
        // An impossible bar (> 1.0) accepts nothing: cascade disabled.
        let cal = calibrate(&mut s, &x, Confidence::Margin, 1.5);
        assert_eq!(cal.policy.threshold, 0.0);
        assert_eq!(cal.exit_rate, 0.0);
        assert_eq!(cal.agreement, 1.0);
        // A mid bar yields a threshold whose strict-< exit set reproduces
        // the reported exit rate and agreement on the same batch.
        let cal = calibrate(&mut s, &x, Confidence::MaxProb, 0.95);
        s.set_policy(ExecPolicy::Cascade(cal.policy));
        let scored = s.predict_scored(&x);
        assert!((scored.early_exit_rate() - cal.exit_rate).abs() < 1e-12);
        assert!(cal.agreement >= 0.95 || cal.exit_rate == 0.0);
        // Empty calibration batch: disabled, vacuous agreement.
        let cal = calibrate(
            &mut s,
            &Tensor::zeros([0, 1, 2, 2]),
            Confidence::MaxProb,
            0.5,
        );
        assert_eq!(cal.policy.threshold, 0.0);
        assert_eq!(cal.agreement, 1.0);
    }
}
