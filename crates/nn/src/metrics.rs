//! Evaluation metrics and batching helpers.

use mn_tensor::{ops, Tensor, Workspace};

use crate::layer::Mode;
use crate::loss::softmax_cross_entropy;
use crate::network::Network;

/// Fraction of predictions that differ from the labels, in `[0, 1]`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn error_rate(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "prediction/label length mismatch"
    );
    assert!(
        !labels.is_empty(),
        "cannot compute error rate of an empty set"
    );
    let wrong = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p != l)
        .count();
    wrong as f32 / labels.len() as f32
}

/// Copies the examples at `indices` out of a batched tensor `[N, ...]`.
///
/// # Panics
///
/// Panics if any index is out of range.
pub fn gather_examples(x: &Tensor, indices: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(x.shape().with_dim(0, indices.len()));
    gather_examples_into(x, indices, &mut out);
    out
}

/// [`gather_examples`] writing into a caller-provided (e.g.
/// workspace-acquired) output of shape `[indices.len(), ...]`; every
/// element is overwritten. This is the training loop's persistent
/// batch-gather buffer path.
///
/// # Panics
///
/// Panics if any index is out of range or `out` has the wrong shape.
pub fn gather_examples_into(x: &Tensor, indices: &[usize], out: &mut Tensor) {
    let n = x.shape().dim(0);
    let row = x.len().checked_div(n).unwrap_or(0);
    assert_eq!(
        out.shape(),
        &x.shape().with_dim(0, indices.len()),
        "gather output shape mismatch"
    );
    let xd = x.data();
    let od = out.data_mut();
    for (dst, &src) in indices.iter().enumerate() {
        assert!(src < n, "index {src} out of range for batch {n}");
        od[dst * row..(dst + 1) * row].copy_from_slice(&xd[src * row..(src + 1) * row]);
    }
}

/// Result of evaluating a network on a labelled set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evaluation {
    /// Mean softmax cross-entropy.
    pub loss: f32,
    /// Misclassification rate in `[0, 1]`.
    pub error: f32,
}

/// Evaluates a network (eval mode) over a labelled set in mini-batches.
///
/// # Panics
///
/// Panics if `labels` length does not match the example count or is zero.
pub fn evaluate(net: &mut Network, x: &Tensor, labels: &[usize], batch_size: usize) -> Evaluation {
    let n = x.shape().dim(0);
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert!(n > 0, "cannot evaluate on an empty set");
    let bs = batch_size.max(1);
    let mut total_loss = 0.0f64;
    let mut wrong = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + bs).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let xb = gather_examples(x, &idx);
        let logits = net.forward(&xb, Mode::Eval);
        let (loss, _) = softmax_cross_entropy(&logits, &labels[start..end]);
        total_loss += loss as f64 * (end - start) as f64;
        let preds = ops::argmax_rows(&logits);
        wrong += preds
            .iter()
            .zip(&labels[start..end])
            .filter(|(p, l)| p != l)
            .count();
        start = end;
    }
    Evaluation {
        loss: (total_loss / n as f64) as f32,
        error: wrong as f32 / n as f32,
    }
}

/// Collects class-probability predictions over a set in mini-batches.
pub fn predict_proba_batched(net: &mut Network, x: &Tensor, batch_size: usize) -> Tensor {
    predict_proba_batched_eval(net, x, batch_size, &mut Workspace::new())
}

/// [`predict_proba_batched`] through shared access only, staging the
/// mini-batch and every activation in a [`Workspace`]: after the first
/// batch, steady-state prediction stops allocating activations,
/// mini-batches, and im2col scratch, and because eval-mode forward passes
/// never write back into the network, many callers — each with its own
/// workspace — can batch-predict over one shared set of weights
/// concurrently. The `&mut` variant above delegates here, so the two
/// paths are the same code and bitwise identical.
pub fn predict_proba_batched_eval(
    net: &Network,
    x: &Tensor,
    batch_size: usize,
    ws: &mut Workspace,
) -> Tensor {
    let n = x.shape().dim(0);
    let k = net.arch().num_classes;
    let bs = batch_size.max(1);
    let row = x.len().checked_div(n).unwrap_or(0);
    let mut out = Tensor::zeros([n, k]);
    let mut start = 0;
    while start < n {
        let end = (start + bs).min(n);
        // Mini-batches are contiguous example ranges: a straight copy,
        // no index gather needed.
        let mut xb = ws.acquire_uninit(x.shape().with_dim(0, end - start));
        xb.data_mut()
            .copy_from_slice(&x.data()[start * row..end * row]);
        let probs = net.predict_proba_eval_with(&xb, ws);
        out.data_mut()[start * k..end * k].copy_from_slice(probs.data());
        ws.release(probs);
        ws.release(xb);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Architecture, InputSpec};

    #[test]
    fn error_rate_counts_mismatches() {
        assert_eq!(error_rate(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(error_rate(&[1, 0, 3], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(error_rate(&[0, 0], &[1, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn error_rate_validates() {
        error_rate(&[1], &[1, 2]);
    }

    #[test]
    fn gather_copies_rows() {
        let x = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let g = gather_examples(&x, &[2, 0]);
        assert_eq!(g.shape().dims(), &[2, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2.]);
    }

    #[test]
    fn evaluate_runs_batched() {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
        let mut net = crate::network::Network::seeded(&arch, 0);
        let x = Tensor::zeros([7, 1, 2, 2]);
        let labels = vec![0, 1, 2, 0, 1, 2, 0];
        let eval = evaluate(&mut net, &x, &labels, 3);
        assert!(eval.loss > 0.0);
        assert!((0.0..=1.0).contains(&eval.error));
    }

    #[test]
    fn predict_proba_batched_matches_single() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
        let mut net = crate::network::Network::seeded(&arch, 1);
        let x = Tensor::randn([5, 1, 2, 2], 1.0, &mut StdRng::seed_from_u64(2));
        let batched = predict_proba_batched(&mut net, &x, 2);
        let whole = net.predict_proba(&x);
        mn_tensor::assert_close(batched.data(), whole.data(), 1e-5);
    }
}
