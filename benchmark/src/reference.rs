//! The reference every served or scored answer is checked against,
//! computed by the benchmark itself: `Network::forward_eval` per member,
//! softmax, then the plain average in member order. It goes nowhere near
//! the engine's plans, sessions or the server.

use mn_ensemble::EnsembleMember;
use mn_tensor::{ops, Tensor};

pub struct Reference {
    /// `[n, k]` row-major ensemble-average probabilities.
    pub probs: Vec<f32>,
    pub labels: Vec<usize>,
    pub classes: usize,
}

impl Reference {
    /// Reference for every row of `x: [n, C, H, W]`, evaluated in chunks of
    /// `chunk` rows (each example's forward pass is independent of its
    /// batch neighbours, so the chunking does not show in the bits).
    pub fn compute(members: &[EnsembleMember], x: &Tensor, chunk: usize) -> Reference {
        let n = x.shape().dim(0);
        let classes = members[0].network.arch().num_classes;
        let row = x.len() / n.max(1);
        let mut sum = vec![0.0f32; n * classes];
        for member in members {
            let mut start = 0;
            while start < n {
                let end = (start + chunk.max(1)).min(n);
                let xb = Tensor::from_vec(
                    x.shape().with_dim(0, end - start),
                    x.data()[start * row..end * row].to_vec(),
                );
                let mut p = member.network.forward_eval(&xb);
                ops::softmax_rows(&mut p);
                for (acc, v) in sum[start * classes..end * classes].iter_mut().zip(p.data()) {
                    *acc += v;
                }
                start = end;
            }
        }
        let inv = 1.0 / members.len() as f32;
        for v in sum.iter_mut() {
            *v *= inv;
        }
        let labels = sum.chunks(classes).map(argmax).collect();
        Reference {
            probs: sum,
            labels,
            classes,
        }
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.probs[i * self.classes..(i + 1) * self.classes]
    }

    /// Whether `got` equals reference row `i` bit for bit.
    pub fn row_matches(&self, i: usize, got: &[f32]) -> bool {
        bits_equal(self.row(i), got)
    }
}

/// First index of the largest value (the engine's `argmax_rows` rule).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use mn_ensemble::EnginePlan;

    #[test]
    fn reference_equals_the_engine_bit_for_bit_and_ignores_chunking() {
        let pool = inputs::uniform_pool(5, 40);
        for members in [inputs::diverse_members(5), inputs::trunk_members(5)] {
            let whole = Reference::compute(&members, &pool.batch, 40);
            let chunked = Reference::compute(&members, &pool.batch, 7);
            assert!(bits_equal(&whole.probs, &chunked.probs));
            let plan = EnginePlan::new(members, inputs::PLAN_BATCH)
                .unwrap()
                .into_shared();
            let served = plan.session().predict_average(&pool.batch);
            assert!(bits_equal(&whole.probs, served.data()));
            assert_eq!(whole.labels, ops::argmax_rows(&served));
        }
    }
}
