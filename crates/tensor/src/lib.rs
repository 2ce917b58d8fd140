//! # mn-tensor
//!
//! Dense `f32` tensor substrate for the MotherNets reproduction.
//!
//! This crate provides the numerical kernels that every other crate in the
//! workspace builds on: an owned, row-major [`Tensor`] type plus the forward
//! and backward kernels needed to train the convolutional and fully-connected
//! networks of the paper — matrix multiplication ([`ops`]), direct 2-D
//! convolution ([`conv`]), max/average pooling ([`pool`]) and weight
//! initializers ([`init`]).
//!
//! The crate is deliberately small and dependency-light: it implements only
//! what the paper's networks need (stride-1 same-padding convolutions,
//! 2×2 max pooling, dense layers), rather than a general einsum engine.
//! The matrix products are cache-blocked and register-tiled (see
//! [`ops`]'s module docs for the layout), the batch loops of convolution,
//! im2col and pooling fan out across rayon worker threads (through the
//! shared [`chunking`] dispatcher, which higher layers reuse for their
//! own batch loops), and the [`Workspace`] arena lets callers run
//! repeated forward **and backward** passes without reallocating
//! activations, gradients, or im2col scratch — [`Shape`] stores its
//! extents inline so even tensor construction stays off the allocator.
//! Convolution lowers onto the same GEMM micro-kernel in both directions:
//! forward as one fused implicit-GEMM pass with no patch matrix, backward
//! as im2col + GEMM (col2im input gradient, im2col-transposed weight
//! gradient) — see [`im2col`]. All parallel kernels are
//! bitwise-deterministic across thread counts: work is only ever split
//! over disjoint output regions whose per-element accumulation order is
//! fixed. The hottest inner loops (the GEMM micro-kernel, axpy, the
//! fused SGD update) additionally have explicit AVX2 implementations
//! behind a runtime-dispatch table ([`simd`]) that are pinned bitwise
//! identical to the portable-scalar path, and [`quant`] provides the
//! `f16`/`i8` storage encodings backing the quantized weight artifacts.
//! The pre-optimization kernels survive as [`ops::reference`] (and
//! [`conv::conv2d_forward_reference`], plus the direct backward loops in
//! [`conv`]) as the property-test ground truth.
//!
//! ## Conventions
//!
//! * Image batches are stored `[N, C, H, W]` (NCHW).
//! * Matrices are stored `[rows, cols]`, row-major.
//! * Shape mismatches **panic** with a descriptive message; this crate sits
//!   below the public API surface and treats shape errors as programmer bugs
//!   (the higher-level crates validate user input and return `Result`s).
//!
//! ## Example
//!
//! ```
//! use mn_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::eye(3);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod chunking;
pub mod conv;
pub mod im2col;
pub mod init;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;

/// Numeric tolerance used throughout the workspace when asserting that a
/// function-preserving transformation left network outputs unchanged.
pub const PRESERVATION_TOLERANCE: f32 = 1e-4;

/// Asserts that two slices are element-wise close within `tol`.
///
/// # Panics
///
/// Panics if lengths differ or any pair of elements differs by more than
/// `tol`, reporting the first offending index.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "elements differ at index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

/// Returns the maximum absolute element-wise difference between two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_equal() {
        assert_close(&[1.0, 2.0], &[1.0, 2.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "elements differ")]
    fn assert_close_rejects_distant() {
        assert_close(&[1.0], &[2.0], 0.5);
    }

    #[test]
    fn max_abs_diff_computes() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
    }
}
