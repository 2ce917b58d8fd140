//! Batch normalization (Ioffe & Szegedy), used by the paper during all
//! training (§3).
//!
//! One implementation covers both layouts the networks need:
//!
//! * [`BnLayout::Spatial`] — per-channel statistics over `[N, C, H, W]`
//!   (convolutional layers);
//! * [`BnLayout::Flat`] — per-feature statistics over `[N, F]`
//!   (dense layers).
//!
//! In `Train` mode batch statistics are used and running statistics updated;
//! in `Eval` mode the frozen running statistics are used, which is what makes
//! the deepening morphism *exactly* function-preserving (see
//! [`BatchNorm::identity`]).

use mn_tensor::chunking::for_each_chunk;
use mn_tensor::{Tensor, Workspace};

use crate::layer::Param;

/// Below this many elements the backward loops run on the calling thread.
const PARALLEL_ELEMENT_THRESHOLD: usize = 16 * 1024;

/// Which axis grouping the statistics are computed over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BnLayout {
    /// `[N, C, H, W]`: statistics per channel over `N·H·W` elements.
    Spatial,
    /// `[N, F]`: statistics per feature over `N` elements.
    Flat,
}

#[derive(Clone, Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Tensor,
    m: usize,
}

/// A batch-normalization layer.
#[derive(Clone, Debug)]
pub struct BatchNorm {
    /// Learnable scale `[C]`.
    pub gamma: Param,
    /// Learnable shift `[C]`.
    pub beta: Param,
    /// Running mean `[C]`, updated in training, used in eval.
    pub running_mean: Tensor,
    /// Running (biased) variance `[C]`.
    pub running_var: Tensor,
    /// Exponential-moving-average coefficient for running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    layout: BnLayout,
    // Boxed: the cache holds two tensors and would otherwise dominate the
    // size of every `LayerNode`.
    cache: Option<Box<BnCache>>,
}

impl BatchNorm {
    /// Creates a batch-norm layer with `gamma = 1`, `beta = 0` and unit
    /// running variance.
    pub fn new(channels: usize, layout: BnLayout) -> Self {
        BatchNorm {
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.9,
            eps: 1e-5,
            layout,
            cache: None,
        }
    }

    /// Creates a batch-norm layer that is an *exact* identity in eval mode:
    /// `running_var` is set to `1 − eps` so that
    /// `gamma · (x − 0)/√(var + eps) + 0 = x` holds bit-for-bit-close.
    ///
    /// This is the deepening morphism's building block.
    pub fn identity(channels: usize, layout: BnLayout) -> Self {
        let mut bn = BatchNorm::new(channels, layout);
        bn.running_var = Tensor::filled([channels], 1.0 - bn.eps);
        bn
    }

    /// Number of normalized channels/features.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// The statistics layout.
    pub fn layout(&self) -> BnLayout {
        self.layout
    }

    fn group_geometry(&self, x: &Tensor) -> (usize, usize, usize) {
        // Returns (n_batch, channels, inner) where inner = H*W or 1.
        match self.layout {
            BnLayout::Spatial => {
                let d = x.shape().dims();
                assert_eq!(
                    d.len(),
                    4,
                    "spatial batch-norm needs [N,C,H,W], got {}",
                    x.shape()
                );
                assert_eq!(d[1], self.channels(), "channel mismatch");
                (d[0], d[1], d[2] * d[3])
            }
            BnLayout::Flat => {
                let d = x.shape().dims();
                assert_eq!(d.len(), 2, "flat batch-norm needs [N,F], got {}", x.shape());
                assert_eq!(d[1], self.channels(), "feature mismatch");
                (d[0], d[1], 1)
            }
        }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics on layout mismatch, or in train mode if the per-channel
    /// element count is < 2 (batch statistics undefined).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_ws(x, train, &mut Workspace::new())
    }

    /// [`BatchNorm::forward`] staging its output — and in train mode the
    /// statistics scratch and `x̂`/inv-std caches — in a [`Workspace`], so
    /// steady-state training steps reuse every buffer.
    ///
    /// # Panics
    ///
    /// Same conditions as [`BatchNorm::forward`].
    pub fn forward_ws(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (nb, cc, inner) = self.group_geometry(x);
        let m = nb * inner;
        if train {
            let mut y = ws.acquire_uninit(x.shape().dims());
            assert!(
                m >= 2,
                "batch-norm needs >= 2 elements per channel in train mode"
            );
            // Recycle the previous step's cache buffers through the pool.
            if let Some(old) = self.cache.take() {
                ws.release(old.xhat);
                ws.release(old.inv_std);
            }
            let mut mean_t = ws.acquire([cc]);
            let mut var_t = ws.acquire([cc]);
            let mean = mean_t.data_mut();
            let var = var_t.data_mut();
            let xd = x.data();
            for n in 0..nb {
                for (c, m) in mean.iter_mut().enumerate() {
                    let base = (n * cc + c) * inner;
                    let s: f32 = xd[base..base + inner].iter().sum();
                    *m += s;
                }
            }
            let inv_m = 1.0 / m as f32;
            mean.iter_mut().for_each(|v| *v *= inv_m);
            for n in 0..nb {
                for (c, v) in var.iter_mut().enumerate() {
                    let base = (n * cc + c) * inner;
                    let mu = mean[c];
                    let s: f32 = xd[base..base + inner]
                        .iter()
                        .map(|v| (v - mu) * (v - mu))
                        .sum();
                    *v += s;
                }
            }
            var.iter_mut().for_each(|v| *v *= inv_m);

            let mut inv_std = ws.acquire_uninit([cc]);
            for (o, &v) in inv_std.data_mut().iter_mut().zip(var.iter()) {
                *o = 1.0 / (v + self.eps).sqrt();
            }
            let mut xhat = ws.acquire_uninit(x.shape().dims());
            {
                let isd = inv_std.data();
                let xh = xhat.data_mut();
                let yd = y.data_mut();
                let g = self.gamma.value.data();
                let b = self.beta.value.data();
                for n in 0..nb {
                    for c in 0..cc {
                        let base = (n * cc + c) * inner;
                        let mu = mean[c];
                        let is = isd[c];
                        for i in base..base + inner {
                            let h = (xd[i] - mu) * is;
                            xh[i] = h;
                            yd[i] = g[c] * h + b[c];
                        }
                    }
                }
            }
            // Update running statistics.
            {
                let rm = self.running_mean.data_mut();
                let rv = self.running_var.data_mut();
                for c in 0..cc {
                    rm[c] = self.momentum * rm[c] + (1.0 - self.momentum) * mean[c];
                    rv[c] = self.momentum * rv[c] + (1.0 - self.momentum) * var[c];
                }
            }
            ws.release(mean_t);
            ws.release(var_t);
            self.cache = Some(Box::new(BnCache { xhat, inv_std, m }));
            y
        } else {
            self.forward_eval_ws(x, ws)
        }
    }

    /// Eval-mode forward through shared access only: normalizes with the
    /// frozen running statistics and writes nothing back into the layer,
    /// so many serving sessions can share one set of statistics. The
    /// inv-std scratch is staged in the workspace.
    // mn-lint: hot-path
    pub fn forward_eval_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (_, cc, inner) = self.group_geometry(x);
        let mut y = ws.acquire_uninit(x.shape().dims());
        let mut inv_std = ws.acquire_uninit([cc]);
        for (o, &v) in inv_std.data_mut().iter_mut().zip(self.running_var.data()) {
            *o = 1.0 / (v + self.eps).sqrt();
        }
        if !y.is_empty() {
            let g = self.gamma.value.data();
            let b = self.beta.value.data();
            let rm = self.running_mean.data();
            let isd = inv_std.data();
            let items = x
                .data()
                .chunks_exact(cc * inner)
                .zip(y.data_mut().chunks_exact_mut(cc * inner));
            for (xi, yi) in items {
                let planes = xi.chunks_exact(inner).zip(yi.chunks_exact_mut(inner));
                for (c, (xp, yp)) in planes.enumerate() {
                    // Per-channel constants out of the element loop, which
                    // then runs over two plain slices and vectorises.
                    let (gc, mu, is, bc) = (g[c], rm[c], isd[c], b[c]);
                    for (o, &v) in yp.iter_mut().zip(xp) {
                        *o = gc * (v - mu) * is + bc;
                    }
                }
            }
        }
        ws.release(inv_std);
        y
    }

    /// Backward pass (train-mode statistics); returns the gradient w.r.t.
    /// the input and accumulates `gamma`/`beta` gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`BatchNorm::backward`] staging its scratch and output in a
    /// [`Workspace`]. Both batch loops fan out through the shared chunk
    /// dispatcher: the per-channel `dγ`/`dβ` reduction splits over
    /// channels (each worker owns one channel's pair and scans the batch
    /// in order), the input-gradient loop over batch items — so results
    /// are bitwise identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batch-norm backward before forward");
        let (nb, cc, inner) = self.group_geometry(grad_out);
        let m = cache.m as f32;
        let gd = grad_out.data();
        let xh = cache.xhat.data();
        let worthwhile = nb * cc * inner >= PARALLEL_ELEMENT_THRESHOLD;

        // stats[c] = (dgamma_c, dbeta_c): one interleaved buffer so the
        // per-channel split stays a single chunked dispatch.
        let mut stats = ws.acquire_uninit([cc.max(1), 2]);
        for_each_chunk(&mut stats.data_mut()[..2 * cc], 2, worthwhile, |c, s| {
            let (mut dg, mut db) = (0.0f32, 0.0f32);
            for n in 0..nb {
                let base = (n * cc + c) * inner;
                for i in base..base + inner {
                    dg += gd[i] * xh[i];
                    db += gd[i];
                }
            }
            s[0] = dg;
            s[1] = db;
        });
        let sd = stats.data();
        {
            let gg = self.gamma.grad.data_mut();
            let gb = self.beta.grad.data_mut();
            for c in 0..cc {
                gg[c] += sd[2 * c];
                gb[c] += sd[2 * c + 1];
            }
        }
        let mut gin = ws.acquire_uninit(grad_out.shape().dims());
        {
            let g = self.gamma.value.data();
            let isd = cache.inv_std.data();
            for_each_chunk(gin.data_mut(), cc * inner, worthwhile, |n, gchunk| {
                for c in 0..cc {
                    let base = (n * cc + c) * inner;
                    let coeff = g[c] * isd[c] / m;
                    let (dg, db) = (sd[2 * c], sd[2 * c + 1]);
                    for (o, i) in gchunk[c * inner..(c + 1) * inner]
                        .iter_mut()
                        .zip(base..base + inner)
                    {
                        *o = coeff * (m * gd[i] - db - xh[i] * dg);
                    }
                }
            });
        }
        ws.release(stats);
        gin
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    /// Visits the layer's trainable parameters in [`BatchNorm::params_mut`]
    /// order without materializing a `Vec`.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Drops cached activations.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_tensor::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_mode_normalizes_batch() {
        let mut bn = BatchNorm::new(2, BnLayout::Flat);
        let x = Tensor::from_vec([4, 2], vec![1., 10., 2., 20., 3., 30., 4., 40.]);
        let y = bn.forward(&x, true);
        // Per-feature mean ~0, var ~1 after normalization.
        for c in 0..2 {
            let col: Vec<f32> = (0..4).map(|n| y.at2(n, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn identity_is_exact_in_eval() {
        let mut bn = BatchNorm::identity(3, BnLayout::Spatial);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let y = bn.forward(&x, false);
        assert_close(y.data(), x.data(), 1e-6);
    }

    #[test]
    fn eval_is_the_scalar_formula_bit_for_bit() {
        // `g * (x - mu) * is + b`, left to right, per element: the hoisted,
        // slice-zipped loop must round exactly like the indexed one did.
        let mut rng = StdRng::seed_from_u64(6);
        for (layout, dims) in [
            (BnLayout::Spatial, vec![3, 5, 3, 7]),
            (BnLayout::Flat, vec![4, 5]),
            (BnLayout::Spatial, vec![0, 5, 2, 2]),
        ] {
            let mut bn = BatchNorm::new(5, layout);
            bn.gamma.value = Tensor::randn([5], 1.0, &mut rng);
            bn.beta.value = Tensor::randn([5], 1.0, &mut rng);
            bn.running_mean = Tensor::randn([5], 1.0, &mut rng);
            bn.running_var = Tensor::from_vec([5], vec![0.3, 1.0, 2.5, 0.01, 7.0]);
            let x = Tensor::randn(dims.clone(), 2.0, &mut rng);
            let y = bn.forward_eval_ws(&x, &mut Workspace::new());
            assert_eq!(y.shape(), x.shape());
            let inner: usize = dims[2..].iter().product();
            for (i, (&yv, &xv)) in y.data().iter().zip(x.data()).enumerate() {
                let c = i / inner % 5;
                let is = 1.0 / (bn.running_var.data()[c] + bn.eps).sqrt();
                let want = bn.gamma.value.data()[c] * (xv - bn.running_mean.data()[c]) * is
                    + bn.beta.value.data()[c];
                assert_eq!(yv.to_bits(), want.to_bits(), "{layout:?} element {i}");
            }
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1, BnLayout::Flat);
        bn.running_mean = Tensor::from_vec([1], vec![5.0]);
        bn.running_var = Tensor::from_vec([1], vec![4.0]);
        let x = Tensor::from_vec([1, 1], vec![9.0]);
        let y = bn.forward(&x, false);
        // (9 - 5)/2 = 2.
        assert!((y[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn running_stats_update_toward_batch() {
        let mut bn = BatchNorm::new(1, BnLayout::Flat);
        let x = Tensor::from_vec([2, 1], vec![10.0, 10.0]);
        bn.forward(&x, true);
        // mean moves from 0 toward 10 by (1 - momentum).
        assert!((bn.running_mean[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn gradient_check_spatial() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut bn = BatchNorm::new(2, BnLayout::Spatial);
        bn.gamma.value = Tensor::from_vec([2], vec![1.5, 0.5]);
        bn.beta.value = Tensor::from_vec([2], vec![0.1, -0.2]);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let y = bn.forward(&x, true);
        let gin = bn.backward(&y); // L = 0.5||y||^2
        let eps = 1e-2;
        let loss = |bn: &mut BatchNorm, x: &Tensor| bn.forward(x, true).sq_norm() * 0.5;
        let dir = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let mut xp = x.clone();
        xp.axpy(eps, &dir);
        let lp = loss(&mut bn.clone(), &xp);
        let mut xm = x.clone();
        xm.axpy(-eps, &dir);
        let lm = loss(&mut bn.clone(), &xm);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic: f32 = gin.data().iter().zip(dir.data()).map(|(g, d)| g * d).sum();
        assert!(
            (numeric - analytic).abs() / (1.0 + analytic.abs()) < 5e-2,
            "{numeric} vs {analytic}"
        );
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm::new(1, BnLayout::Flat);
        let x = Tensor::from_vec([2, 1], vec![1.0, 3.0]);
        let y = bn.forward(&x, true);
        let g = Tensor::ones([2, 1]);
        bn.backward(&g);
        // dbeta = sum g = 2; dgamma = sum(g * xhat) = xhat sums to 0.
        assert!((bn.beta.grad[0] - 2.0).abs() < 1e-5);
        assert!(bn.gamma.grad[0].abs() < 1e-4);
        let _ = y;
    }

    #[test]
    #[should_panic(expected = ">= 2 elements")]
    fn train_rejects_single_element() {
        let mut bn = BatchNorm::new(1, BnLayout::Flat);
        bn.forward(&Tensor::ones([1, 1]), true);
    }
}
