//! Ensemble members and batched prediction collection.

use mn_nn::metrics::predict_proba_batched;
use mn_nn::Network;
use mn_tensor::Tensor;

/// A named member of an ensemble.
#[derive(Clone, Debug)]
pub struct EnsembleMember {
    /// Human-readable name (usually the architecture name).
    pub name: String,
    /// The trained network.
    pub network: Network,
}

impl EnsembleMember {
    /// Wraps a trained network as an ensemble member.
    pub fn new(name: impl Into<String>, network: Network) -> Self {
        EnsembleMember {
            name: name.into(),
            network,
        }
    }

    /// Class-probability predictions `[N, K]` over a batch of examples.
    pub fn predict_proba(&mut self, x: &Tensor, batch_size: usize) -> Tensor {
        predict_proba_batched(&mut self.network, x, batch_size)
    }
}

/// The collected probability predictions of every member over one data set:
/// one `[N, K]` tensor per member.
///
/// Collecting once and combining many ways is how the paper evaluates the
/// same trained ensemble under EA / Voting / SL / Oracle.
#[derive(Clone, Debug)]
pub struct MemberPredictions {
    probs: Vec<Tensor>,
}

impl MemberPredictions {
    /// Runs every member over `x` and stores the probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or members disagree on class count.
    pub fn collect(members: &mut [EnsembleMember], x: &Tensor, batch_size: usize) -> Self {
        assert!(
            !members.is_empty(),
            "cannot collect predictions of an empty ensemble"
        );
        let probs: Vec<Tensor> = members
            .iter_mut()
            .map(|m| m.predict_proba(x, batch_size))
            .collect();
        let shape = *probs[0].shape();
        assert!(
            probs.iter().all(|p| *p.shape() == shape),
            "members disagree on prediction shape"
        );
        MemberPredictions { probs }
    }

    /// Builds directly from per-member probability tensors (used by tests
    /// and by the harness when predictions are loaded from disk).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or shapes disagree.
    pub fn from_probs(probs: Vec<Tensor>) -> Self {
        assert!(!probs.is_empty(), "need at least one member");
        let shape = *probs[0].shape();
        assert!(
            probs.iter().all(|p| *p.shape() == shape),
            "prediction shapes disagree"
        );
        MemberPredictions { probs }
    }

    /// Number of members.
    pub fn num_members(&self) -> usize {
        self.probs.len()
    }

    /// Number of examples.
    pub fn num_examples(&self) -> usize {
        self.probs[0].shape().dim(0)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.probs[0].shape().dim(1)
    }

    /// Per-member probability tensors.
    pub fn probs(&self) -> &[Tensor] {
        &self.probs
    }

    /// A view restricted to the first `k` members (prefix ensembles are how
    /// the "error vs ensemble size" figures are produced).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= num_members()`.
    pub fn prefix(&self, k: usize) -> MemberPredictions {
        assert!(k > 0 && k <= self.probs.len(), "prefix {k} out of range");
        MemberPredictions {
            probs: self.probs[..k].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_nn::arch::{Architecture, InputSpec};

    fn member(seed: u64) -> EnsembleMember {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
        EnsembleMember::new(format!("m{seed}"), Network::seeded(&arch, seed))
    }

    #[test]
    fn collect_shapes() {
        let mut members = vec![member(0), member(1)];
        let x = Tensor::zeros([5, 1, 2, 2]);
        let preds = MemberPredictions::collect(&mut members, &x, 2);
        assert_eq!(preds.num_members(), 2);
        assert_eq!(preds.num_examples(), 5);
        assert_eq!(preds.num_classes(), 3);
    }

    #[test]
    fn prefix_takes_first_k() {
        let probs = vec![
            Tensor::filled([2, 2], 0.5),
            Tensor::from_vec([2, 2], vec![1.0, 0.0, 1.0, 0.0]),
        ];
        let preds = MemberPredictions::from_probs(probs);
        let p1 = preds.prefix(1);
        assert_eq!(p1.num_members(), 1);
        assert_eq!(p1.probs()[0].data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "empty ensemble")]
    fn collect_rejects_empty() {
        MemberPredictions::collect(&mut [], &Tensor::zeros([1, 1, 2, 2]), 1);
    }
}
