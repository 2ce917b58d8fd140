//! Pooling kernels: 2×2 max pooling (the VGG/ResNet block separator in the
//! paper) and global average pooling (ResNet-style heads).
//!
//! The max-pool batch loop fans out across rayon worker threads (one batch
//! item per work unit, disjoint output and argmax chunks, so results are
//! bitwise identical across thread counts). Eval-mode inference uses
//! [`maxpool2x2_forward_eval_into`], which skips the argmax bookkeeping
//! entirely and writes into a workspace-acquired output.

use crate::chunking::{for_each_chunk, for_each_chunk_zip};
use crate::Tensor;

/// Below this many pooled elements the kernel runs on the calling thread.
const PARALLEL_ELEMENT_THRESHOLD: usize = 16 * 1024;

fn pool_geometry(input: &Tensor) -> (usize, usize, usize, usize, usize, usize) {
    let d = input.shape().dims();
    assert_eq!(
        d.len(),
        4,
        "maxpool input must be 4-D, got {}",
        input.shape()
    );
    let (n_batch, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert!(
        h >= 2 && w >= 2,
        "maxpool needs spatial extent >= 2, got {h}x{w}"
    );
    (n_batch, c, h, w, h / 2, w / 2)
}

/// Max-pools one batch item's `C` planes from `ichunk` into `ochunk`,
/// recording argmax indices (relative to `ibase_abs`) when given.
#[inline]
fn maxpool_item(
    ichunk: &[f32],
    ochunk: &mut [f32],
    mut argmax: Option<(&mut [usize], usize)>,
    c: usize,
    h: usize,
    w: usize,
) {
    let (ho, wo) = (h / 2, w / 2);
    for ch in 0..c {
        let ibase = ch * h * w;
        let obase = ch * ho * wo;
        for oh in 0..ho {
            for ow in 0..wo {
                let i00 = ibase + (2 * oh) * w + 2 * ow;
                let i01 = i00 + 1;
                let i10 = i00 + w;
                let i11 = i10 + 1;
                let mut best_idx = i00;
                let mut best = ichunk[i00];
                for idx in [i01, i10, i11] {
                    if ichunk[idx] > best {
                        best = ichunk[idx];
                        best_idx = idx;
                    }
                }
                ochunk[obase + oh * wo + ow] = best;
                if let Some((am, ibase_abs)) = argmax.as_mut() {
                    am[obase + oh * wo + ow] = *ibase_abs + best_idx;
                }
            }
        }
    }
}

/// Result of a max-pool forward pass: the pooled output plus the linear
/// index (into the input tensor) of each selected maximum, which the
/// backward pass routes gradients through.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations `[N, C, H/2, W/2]`.
    pub output: Tensor,
    /// For every output element, the flat input index of its argmax.
    pub argmax: Vec<usize>,
}

/// 2×2, stride-2 max pooling.
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// usual framework behaviour.
///
/// # Panics
///
/// Panics if the input is not 4-D or has spatial extent < 2.
pub fn maxpool2x2_forward(input: &Tensor) -> MaxPoolOutput {
    let (n_batch, c, _, _, ho, wo) = pool_geometry(input);
    let mut out = Tensor::zeros([n_batch, c, ho, wo]);
    let mut argmax = Vec::new();
    maxpool2x2_forward_into(input, &mut out, &mut argmax);
    MaxPoolOutput {
        output: out,
        argmax,
    }
}

/// [`maxpool2x2_forward`] writing into a caller-provided output tensor and
/// argmax buffer (resized in place, reusing its allocation). Every output
/// element is overwritten, so both buffers may be reused across steps —
/// this is the train-loop hot path.
///
/// # Panics
///
/// Panics on the same layout violations as [`maxpool2x2_forward`], or if
/// `out` is not `[N, C, H/2, W/2]`.
pub fn maxpool2x2_forward_into(input: &Tensor, out: &mut Tensor, argmax: &mut Vec<usize>) {
    let (n_batch, c, h, w, ho, wo) = pool_geometry(input);
    assert_eq!(
        out.shape().dims(),
        &[n_batch, c, ho, wo],
        "maxpool output must be [{n_batch}, {c}, {ho}, {wo}]"
    );
    let id = input.data();
    let in_item = c * h * w;
    let out_item = c * ho * wo;
    argmax.clear();
    argmax.resize(n_batch * out_item, 0);
    let pool_one = |n: usize, ochunk: &mut [f32], achunk: &mut [usize]| {
        let ibase_abs = n * in_item;
        maxpool_item(
            &id[ibase_abs..ibase_abs + in_item],
            ochunk,
            Some((achunk, ibase_abs)),
            c,
            h,
            w,
        );
    };
    for_each_chunk_zip(
        out.data_mut(),
        argmax,
        out_item,
        out_item,
        n_batch * out_item >= PARALLEL_ELEMENT_THRESHOLD,
        pool_one,
    );
}

/// Eval-mode 2×2 max pooling into a caller-provided (e.g.
/// workspace-acquired) output, skipping argmax bookkeeping entirely.
///
/// # Panics
///
/// Panics on the same layout violations as [`maxpool2x2_forward`], or if
/// `out` is not `[N, C, H/2, W/2]`.
pub fn maxpool2x2_forward_eval_into(input: &Tensor, out: &mut Tensor) {
    let (n_batch, c, h, w, ho, wo) = pool_geometry(input);
    assert_eq!(
        out.shape().dims(),
        &[n_batch, c, ho, wo],
        "maxpool output must be [{n_batch}, {c}, {ho}, {wo}]"
    );
    let id = input.data();
    let in_item = c * h * w;
    let out_item = c * ho * wo;
    let pool_one = |n: usize, ochunk: &mut [f32]| {
        let ibase_abs = n * in_item;
        maxpool_item(&id[ibase_abs..ibase_abs + in_item], ochunk, None, c, h, w);
    };
    for_each_chunk(
        out.data_mut(),
        out_item,
        n_batch * out_item >= PARALLEL_ELEMENT_THRESHOLD,
        pool_one,
    );
}

/// Backward pass of 2×2 max pooling: routes each upstream gradient to the
/// input position that produced the maximum.
///
/// # Panics
///
/// Panics if `grad_out` length does not match `argmax` length.
pub fn maxpool2x2_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    let mut gin = Tensor::zeros(input_shape.to_vec());
    maxpool2x2_backward_into(grad_out, argmax, &mut gin);
    gin
}

/// [`maxpool2x2_backward`] writing into a caller-provided (e.g.
/// workspace-acquired) `[N, C, H, W]` gradient; every element is
/// overwritten (zeroed, then scattered into). The batch loop fans out
/// across rayon workers — each item's argmax indices stay inside that
/// item's slice, so the scatter regions are disjoint and results are
/// bitwise identical across thread counts.
///
/// # Panics
///
/// Panics if shapes or the argmax length are inconsistent.
pub fn maxpool2x2_backward_into(grad_out: &Tensor, argmax: &[usize], gin: &mut Tensor) {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "grad_out/argmax length mismatch: {} vs {}",
        grad_out.len(),
        argmax.len()
    );
    let gdims = gin.shape().dims();
    assert_eq!(gdims.len(), 4, "maxpool input grad must be 4-D");
    let odims = grad_out.shape().dims();
    assert_eq!(odims.len(), 4, "maxpool grad_out must be 4-D");
    let n_batch = gdims[0];
    assert_eq!(odims[0], n_batch, "maxpool grad batch mismatch");
    let in_item = gdims[1] * gdims[2] * gdims[3];
    let out_item = odims[1] * odims[2] * odims[3];
    let gd = grad_out.data();
    for_each_chunk(
        gin.data_mut(),
        in_item,
        n_batch * out_item >= PARALLEL_ELEMENT_THRESHOLD,
        |n, gchunk| {
            gchunk.fill(0.0);
            let obase = n * out_item;
            let ibase = n * in_item;
            for (g, &idx) in gd[obase..obase + out_item]
                .iter()
                .zip(&argmax[obase..obase + out_item])
            {
                gchunk[idx - ibase] += g;
            }
        },
    );
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn global_avg_pool_forward(input: &Tensor) -> Tensor {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "gap input must be 4-D, got {}", input.shape());
    let (n_batch, c) = (d[0], d[1]);
    let mut out = Tensor::zeros([n_batch, c]);
    global_avg_pool_forward_into(input, &mut out);
    out
}

/// [`global_avg_pool_forward`] writing into a caller-provided output.
///
/// # Panics
///
/// Panics if the input is not 4-D or `out` is not `[N, C]`.
pub fn global_avg_pool_forward_into(input: &Tensor, out: &mut Tensor) {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "gap input must be 4-D, got {}", input.shape());
    let (n_batch, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert_eq!(
        out.shape().dims(),
        &[n_batch, c],
        "gap output must be [{n_batch}, {c}]"
    );
    // Zero spatial extent is legal (zero-extent shapes are allowed for
    // degenerate serving inputs); the mean of an empty window is defined
    // as 0 rather than 0 * inf = NaN.
    let inv = if h * w == 0 {
        0.0
    } else {
        1.0 / (h * w) as f32
    };
    let id = input.data();
    let od = out.data_mut();
    for n in 0..n_batch {
        for ch in 0..c {
            let ibase = (n * c + ch) * h * w;
            od[n * c + ch] = id[ibase..ibase + h * w].iter().sum::<f32>() * inv;
        }
    }
}

/// Backward pass of global average pooling: spreads each upstream gradient
/// uniformly over the pooled window.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &[usize]) -> Tensor {
    let mut gin = Tensor::zeros(input_shape.to_vec());
    global_avg_pool_backward_into(grad_out, &mut gin);
    gin
}

/// [`global_avg_pool_backward`] writing into a caller-provided (e.g.
/// workspace-acquired) `[N, C, H, W]` gradient; every element is
/// overwritten. The batch loop fans out across rayon workers.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn global_avg_pool_backward_into(grad_out: &Tensor, gin: &mut Tensor) {
    let gshape = *gin.shape();
    let gdims = gshape.dims();
    assert_eq!(gdims.len(), 4, "gap input grad must be 4-D");
    let (n_batch, c, h, w) = (gdims[0], gdims[1], gdims[2], gdims[3]);
    assert_eq!(
        grad_out.shape().dims(),
        &[n_batch, c],
        "gap grad_out shape mismatch"
    );
    let inv = 1.0 / (h * w) as f32;
    let gd = grad_out.data();
    let item = c * h * w;
    for_each_chunk(
        gin.data_mut(),
        item,
        n_batch * item >= PARALLEL_ELEMENT_THRESHOLD,
        |n, gchunk| {
            for ch in 0..c {
                let g = gd[n * c + ch] * inv;
                gchunk[ch * h * w..(ch + 1) * h * w]
                    .iter_mut()
                    .for_each(|x| *x = g);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn maxpool_picks_maximum() {
        let input = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let MaxPoolOutput { output, argmax } = maxpool2x2_forward(&input);
        assert_eq!(output.data(), &[4., 8., 12., 16.]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn eval_into_matches_train_path() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let input = Tensor::randn([3, 2, 6, 8], 1.0, &mut StdRng::seed_from_u64(5));
        let full = maxpool2x2_forward(&input);
        let mut out = Tensor::zeros([3, 2, 3, 4]);
        maxpool2x2_forward_eval_into(&input, &mut out);
        assert_eq!(out.data(), full.output.data());
    }

    #[test]
    fn maxpool_floor_semantics_on_odd() {
        let input = Tensor::ones([1, 1, 5, 5]);
        let out = maxpool2x2_forward(&input);
        assert_eq!(out.output.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let input = Tensor::from_vec([1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let fwd = maxpool2x2_forward(&input);
        let gout = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let gin = maxpool2x2_backward(&gout, &fwd.argmax, &[1, 1, 2, 2]);
        assert_eq!(gin.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn gap_forward_and_backward() {
        let input = Tensor::from_vec([1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let out = global_avg_pool_forward(&input);
        assert_close(out.data(), &[2.5, 10.0], 1e-6);
        let gout = Tensor::from_vec([1, 2], vec![4.0, 8.0]);
        let gin = global_avg_pool_backward(&gout, &[1, 2, 2, 2]);
        assert_close(gin.data(), &[1., 1., 1., 1., 2., 2., 2., 2.], 1e-6);
    }

    #[test]
    fn gap_gradient_check() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut input = Tensor::randn([1, 2, 3, 3], 1.0, &mut StdRng::seed_from_u64(1));
        let loss = |x: &Tensor| -> f32 {
            global_avg_pool_forward(x)
                .data()
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                * 0.5
        };
        let out = global_avg_pool_forward(&input);
        let gin = global_avg_pool_backward(&out, &[1, 2, 3, 3]);
        let eps = 1e-2;
        for idx in [0usize, 8, 17] {
            let orig = input[idx];
            input[idx] = orig + eps;
            let lp = loss(&input);
            input[idx] = orig - eps;
            let lm = loss(&input);
            input[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gin[idx]).abs() < 1e-3);
        }
    }
}
