//! 2-D convolutional layer (stride 1, same padding).
//!
//! Forward and backward pick between the two kernel formulations in
//! `mn-tensor` per layer shape: the GEMM micro-kernel (fused
//! implicit-GEMM passes, `mn_tensor::im2col`) when the reduction depth
//! `C·K·K` is deep enough for the register-tiled kernel to win, direct
//! scalar×row accumulation otherwise (1×1 kernels on few channels). The
//! fused passes keep the bits of the explicit im2col + GEMM (+ col2im)
//! compositions — every sum runs in the same order, see that module's
//! docs — and `kernel_equivalence` / `gradient_equivalence` pin the two
//! formulations to each other.

use mn_tensor::{conv, im2col, init, Tensor, Workspace};
use rand::Rng;

use crate::layer::Param;

/// Minimum im2col reduction depth (`C·K·K`) for the GEMM formulation to
/// beat the direct kernel.
const GEMM_MIN_REDUCTION: usize = 16;

/// Which convolution kernel formulation a [`ConvLayer`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConvFormulation {
    /// Pick per layer shape: im2col + GEMM when the reduction depth is
    /// deep enough, direct otherwise. The default.
    #[default]
    Auto,
    /// Always the direct scalar×row kernel (the pre-optimization path;
    /// used by benchmarks as the naive baseline).
    Direct,
    /// Always im2col + blocked GEMM.
    Im2colGemm,
}

/// A stride-1, same-padded 2-D convolution: input `[N, C, H, W]`, weight
/// `[F, C, K, K]`, bias `[F]`, output `[N, F, H, W]`.
#[derive(Clone, Debug)]
pub struct ConvLayer {
    /// Kernel weights `[F, C, K, K]`.
    pub weight: Param,
    /// Per-filter bias `[F]`.
    pub bias: Param,
    formulation: ConvFormulation,
    cached_input: Option<Tensor>,
}

impl ConvLayer {
    /// Creates a conv layer with He-initialized kernels and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (same padding requires odd kernels).
    pub fn new<R: Rng>(in_channels: usize, filters: usize, kernel: usize, rng: &mut R) -> Self {
        let _ = conv::same_padding(kernel); // validates oddness
        let std = init::he_std(init::conv_fan_in(in_channels, kernel));
        ConvLayer {
            weight: Param::new(Tensor::randn(
                [filters, in_channels, kernel, kernel],
                std,
                rng,
            )),
            bias: Param::new(Tensor::zeros([filters])),
            formulation: ConvFormulation::Auto,
            cached_input: None,
        }
    }

    /// Creates a conv layer with all-zero kernels and bias — no RNG, no
    /// Box–Muller sampling. This is the cold-start construction path for
    /// checkpoint restore, where every value is immediately overwritten
    /// anyway.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even.
    pub fn zeroed(in_channels: usize, filters: usize, kernel: usize) -> Self {
        ConvLayer::from_params(
            Tensor::zeros([filters, in_channels, kernel, kernel]),
            Tensor::zeros([filters]),
        )
    }

    /// Creates a conv layer from explicit parameters (morphism engine,
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics on malformed shapes or even kernels.
    pub fn from_params(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().ndim(), 4, "conv weight must be [F, C, K, K]");
        let k = weight.shape().dim(2);
        assert_eq!(k, weight.shape().dim(3), "conv kernels must be square");
        let _ = conv::same_padding(k);
        assert_eq!(
            bias.shape().dims(),
            &[weight.shape().dim(0)],
            "conv bias must be [filters]"
        );
        ConvLayer {
            weight: Param::new(weight),
            bias: Param::new(bias),
            formulation: ConvFormulation::Auto,
            cached_input: None,
        }
    }

    /// Number of output filters.
    pub fn filters(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.weight.value.shape().dim(2)
    }

    /// Same padding for this layer's kernel.
    pub fn padding(&self) -> usize {
        self.kernel() / 2
    }

    /// The formulation this layer's forward pass runs.
    pub fn formulation(&self) -> ConvFormulation {
        self.formulation
    }

    /// Overrides the forward formulation (benchmarks pin
    /// [`ConvFormulation::Direct`] to measure the naive baseline).
    pub fn set_formulation(&mut self, formulation: ConvFormulation) {
        self.formulation = formulation;
    }

    fn use_gemm(&self) -> bool {
        match self.formulation {
            ConvFormulation::Auto => {
                self.in_channels() * self.kernel() * self.kernel() >= GEMM_MIN_REDUCTION
            }
            ConvFormulation::Direct => false,
            ConvFormulation::Im2colGemm => true,
        }
    }

    /// Forward pass; caches the input for backward when `train` is set.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_ws(x, train, &mut Workspace::new())
    }

    /// [`ConvLayer::forward`] staging its output (and, on the GEMM path,
    /// the kernel's packing scratch; in train mode, the cached-input copy)
    /// in a [`Workspace`].
    pub fn forward_ws(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let y = self.forward_eval_ws(x, ws);
        if train {
            if let Some(old) = self.cached_input.take() {
                ws.release(old);
            }
            let mut cache = ws.acquire_uninit(x.shape().dims());
            cache.data_mut().copy_from_slice(x.data());
            self.cached_input = Some(cache);
        }
        y
    }

    /// Eval-mode forward through shared access only: the same
    /// [`ConvFormulation`] dispatch as [`ConvLayer::forward_ws`], but it
    /// reads the kernel weights without writing anything back into the
    /// layer — many serving sessions can execute one set of weights
    /// concurrently.
    // mn-lint: hot-path
    pub fn forward_eval_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let k = self.kernel();
        let pad = self.padding();
        if self.use_gemm() {
            im2col::conv2d_forward_im2col_ws(x, &self.weight.value, &self.bias.value, pad, ws)
        } else {
            let d = x.shape().dims();
            let ho = conv::conv_out_extent(d[2], k, pad);
            let wo = conv::conv_out_extent(d[3], k, pad);
            let mut y = ws.acquire_uninit([d[0], self.filters(), ho, wo]);
            conv::conv2d_forward_into(x, &self.weight.value, &self.bias.value, pad, &mut y);
            y
        }
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`ConvLayer::backward`] staging every intermediate in a
    /// [`Workspace`]: [`ConvLayer::backward_params_ws`], then
    /// [`ConvLayer::backward_input_ws`]. The same [`ConvFormulation`]
    /// switch as the forward pass applies: deep reductions run the fused
    /// implicit-GEMM backward kernels, shallow ones the direct loops — both
    /// pinned to each other by the `gradient_equivalence` suite.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_params_ws(grad_out, ws);
        self.backward_input_ws(grad_out, ws)
    }

    /// The parameter half of [`ConvLayer::backward_ws`]: accumulates the
    /// weight and bias gradients, and computes no input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let x = self
            .cached_input
            .as_ref()
            .expect("conv backward before forward");
        let (k, pad) = (self.kernel(), self.padding());
        let (gw, gb) = if self.use_gemm() {
            im2col::conv2d_backward_params_im2col_ws(grad_out, x, k, pad, ws)
        } else {
            let mut gw = ws.acquire_uninit(self.weight.value.shape().dims());
            let mut gb = ws.acquire_uninit(self.bias.value.shape().dims());
            conv::conv2d_backward_params_into(grad_out, x, k, pad, &mut gw, &mut gb);
            (gw, gb)
        };
        self.weight.grad.add_assign(&gw);
        self.bias.grad.add_assign(&gb);
        ws.release(gw);
        ws.release(gb);
    }

    /// The input half of [`ConvLayer::backward_ws`]: the gradient w.r.t.
    /// the layer input, touching no parameter gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward_input_ws(&self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("conv backward before forward");
        let d = x.shape().dims();
        let (h, w, pad) = (d[2], d[3], self.padding());
        if self.use_gemm() {
            im2col::conv2d_backward_input_im2col_ws(grad_out, &self.weight.value, h, w, pad, ws)
        } else {
            let mut gin = ws.acquire_uninit([d[0], d[1], h, w]);
            conv::conv2d_backward_input_into(grad_out, &self.weight.value, pad, &mut gin);
            gin
        }
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Visits the layer's trainable parameters in [`ConvLayer::params_mut`]
    /// order without materializing a `Vec`.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Drops cached activations.
    pub fn clear_cache(&mut self) {
        self.cached_input = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_tensor::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = ConvLayer::new(3, 8, 3, &mut rng);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let y = layer.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 8, 6, 6]);
        assert_eq!(layer.filters(), 8);
        assert_eq!(layer.in_channels(), 3);
        assert_eq!(layer.kernel(), 3);
        assert_eq!(layer.padding(), 1);
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = ConvLayer::new(2, 3, 3, &mut rng);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = layer.forward(&x, true);
        let gin = layer.backward(&y); // L = 0.5||y||^2
        let eps = 1e-2;
        let mut x2 = x.clone();
        let dir = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        x2.axpy(eps, &dir);
        let lp = layer.forward(&x2, false).sq_norm() * 0.5;
        let mut x3 = x.clone();
        x3.axpy(-eps, &dir);
        let lm = layer.forward(&x3, false).sq_norm() * 0.5;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic: f32 = gin.data().iter().zip(dir.data()).map(|(g, d)| g * d).sum();
        assert!(
            (numeric - analytic).abs() / (1.0 + analytic.abs()) < 5e-2,
            "{numeric} vs {analytic}"
        );
    }

    #[test]
    fn formulations_agree_and_are_overridable() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = ConvLayer::new(4, 6, 3, &mut rng);
        assert_eq!(layer.formulation(), ConvFormulation::Auto);
        let x = Tensor::randn([2, 4, 6, 6], 1.0, &mut rng);
        let auto = layer.forward(&x, false);
        layer.set_formulation(ConvFormulation::Direct);
        let direct = layer.forward(&x, false);
        layer.set_formulation(ConvFormulation::Im2colGemm);
        let gemm = layer.forward(&x, false);
        assert_close(direct.data(), gemm.data(), 1e-4);
        assert_close(auto.data(), gemm.data(), 1e-4);
    }

    #[test]
    fn one_by_one_kernel_supported() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = ConvLayer::new(4, 2, 1, &mut rng);
        let x = Tensor::randn([1, 4, 3, 3], 1.0, &mut rng);
        let y = layer.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 2, 3, 3]);
        assert_eq!(layer.padding(), 0);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        ConvLayer::new(3, 4, 2, &mut rng);
    }

    #[test]
    fn from_params_roundtrip() {
        let w = Tensor::ones([2, 1, 3, 3]);
        let b = Tensor::zeros([2]);
        let mut layer = ConvLayer::from_params(w, b);
        let x = Tensor::ones([1, 1, 3, 3]);
        let y = layer.forward(&x, false);
        // Center pixel sees the full 3x3 window of ones.
        assert_close(&[y.at4(0, 0, 1, 1)], &[9.0], 1e-6);
    }
}
