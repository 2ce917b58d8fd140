//! The reference-kernel lockdown suite: every blocked / parallel kernel
//! must match its naive reference implementation to ≤ 1e-5 across
//! randomized shapes — including shapes that are not multiples of the
//! register-tile or band sizes, and degenerate shapes with 0- or 1-extent
//! dimensions.
//!
//! This is the contract that lets later PRs rewrite the hot kernels
//! freely: as long as this suite passes, the optimization is behaviorally
//! invisible.

use mn_tensor::pool::{maxpool2x2_forward, maxpool2x2_forward_eval_into};
use mn_tensor::{conv, im2col, ops, Tensor, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 1e-5;

fn randn(shape: Vec<usize>, seed: u64) -> Tensor {
    Tensor::randn(shape, 1.0, &mut StdRng::seed_from_u64(seed))
}

/// Normalized max abs diff: tolerance scales with the reduction depth so
/// reordered f32 summation over long dots stays within budget.
fn close(a: &Tensor, b: &Tensor, k: usize) -> bool {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    mn_tensor::max_abs_diff(a.data(), b.data()) <= TOL * (k.max(1) as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked matmul == reference across randomized shapes, including
    /// 0-extent (empty) and 1-extent (vector-like) dimensions and sizes
    /// straddling the MR/NR/BAND_ROWS boundaries.
    #[test]
    fn matmul_matches_reference(
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = randn(vec![m, k], seed);
        let b = randn(vec![k, n], seed + 1);
        prop_assert!(close(&ops::matmul(&a, &b), &ops::reference::matmul(&a, &b), k));
    }

    /// Blocked A-transposed product == reference.
    #[test]
    fn matmul_tn_matches_reference(
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = randn(vec![k, m], seed);
        let b = randn(vec![k, n], seed + 1);
        prop_assert!(close(&ops::matmul_tn(&a, &b), &ops::reference::matmul_tn(&a, &b), k));
    }

    /// Blocked B-transposed product == reference.
    #[test]
    fn matmul_nt_matches_reference(
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = randn(vec![m, k], seed);
        let b = randn(vec![n, k], seed + 1);
        prop_assert!(close(&ops::matmul_nt(&a, &b), &ops::reference::matmul_nt(&a, &b), k));
    }

    /// Shapes crossing whole parallel-band boundaries (the multi-band code
    /// path) still match the reference.
    #[test]
    fn matmul_matches_reference_across_bands(
        extra in 0usize..(2 * ops::MR + 1),
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let m = ops::BAND_ROWS + extra;
        let a = randn(vec![m, k], seed);
        let b = randn(vec![k, n], seed + 1);
        prop_assert!(close(&ops::matmul(&a, &b), &ops::reference::matmul(&a, &b), k));
    }

    /// Parallel direct convolution == naive reference, arbitrary geometry.
    #[test]
    fn conv_direct_matches_reference(
        n in 0usize..4,
        c in 1usize..5,
        f in 1usize..5,
        hw in 3usize..9,
        k_idx in 0usize..3,
        pad_same in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 5][k_idx];
        prop_assume!(hw + 2 * (if pad_same { k / 2 } else { 0 }) >= k);
        let pad = if pad_same { k / 2 } else { 0 };
        let input = randn(vec![n, c, hw, hw], seed);
        let weight = randn(vec![f, c, k, k], seed + 1);
        let bias = randn(vec![f], seed + 2);
        let fast = conv::conv2d_forward(&input, &weight, &bias, pad);
        if n == 0 {
            prop_assert!(fast.is_empty());
        } else {
            let slow = conv::conv2d_forward_reference(&input, &weight, &bias, pad);
            prop_assert!(close(&fast, &slow, c * k * k));
        }
    }

    /// im2col + blocked GEMM convolution == naive reference, with and
    /// without workspace reuse.
    #[test]
    fn conv_im2col_matches_reference(
        n in 0usize..4,
        c in 1usize..5,
        f in 1usize..5,
        hw in 3usize..9,
        k_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 5][k_idx];
        let pad = k / 2;
        let input = randn(vec![n, c, hw, hw], seed);
        let weight = randn(vec![f, c, k, k], seed + 1);
        let bias = randn(vec![f], seed + 2);
        let gemm = im2col::conv2d_forward_im2col(&input, &weight, &bias, pad);
        if n == 0 {
            prop_assert!(gemm.is_empty());
        } else {
            let slow = conv::conv2d_forward_reference(&input, &weight, &bias, pad);
            prop_assert!(close(&gemm, &slow, c * k * k));
            // A dirty reused workspace must not change the result.
            let mut ws = Workspace::new();
            let warm = im2col::conv2d_forward_im2col_ws(&input, &weight, &bias, pad, &mut ws);
            ws.release(warm);
            let reused = im2col::conv2d_forward_im2col_ws(&input, &weight, &bias, pad, &mut ws);
            prop_assert_eq!(gemm.data(), reused.data());
        }
    }

    /// Parallel max pooling == an inline naive reference, and the
    /// eval-mode variant matches the train-mode output.
    #[test]
    fn maxpool_matches_reference(
        n in 1usize..5,
        c in 1usize..4,
        h in 2usize..9,
        w in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let input = randn(vec![n, c, h, w], seed);
        let fast = maxpool2x2_forward(&input);
        let (ho, wo) = (h / 2, w / 2);
        for b in 0..n {
            for ch in 0..c {
                for oh in 0..ho {
                    for ow in 0..wo {
                        let window = [
                            input.at4(b, ch, 2 * oh, 2 * ow),
                            input.at4(b, ch, 2 * oh, 2 * ow + 1),
                            input.at4(b, ch, 2 * oh + 1, 2 * ow),
                            input.at4(b, ch, 2 * oh + 1, 2 * ow + 1),
                        ];
                        let expect = window.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        prop_assert_eq!(fast.output.at4(b, ch, oh, ow), expect);
                    }
                }
            }
        }
        let mut eval = Tensor::zeros([n, c, ho, wo]);
        maxpool2x2_forward_eval_into(&input, &mut eval);
        prop_assert_eq!(eval.data(), fast.output.data());
    }

    /// `matmul_into` into a dirty reused workspace tensor == fresh matmul.
    #[test]
    fn matmul_into_workspace_reuse_is_invisible(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..1_000_000,
    ) {
        let a = randn(vec![m, k], seed);
        let b = randn(vec![k, n], seed + 1);
        let mut ws = Workspace::new();
        let dirty = randn(vec![(m * n).max(1)], seed + 2);
        ws.release(dirty);
        let mut c = ws.acquire([m, n]);
        ops::matmul_into(&a, &b, &mut c);
        prop_assert_eq!(c.data(), ops::matmul(&a, &b).data());
    }
}

/// Pinned (non-randomized) degenerate and boundary shapes, so failures
/// name the exact case.
#[test]
fn pinned_boundary_shapes() {
    let cases = [
        (0, 0, 0),
        (1, 1, 1),
        (1, 0, 1),
        (0, 7, 3),
        (ops::MR, 1, ops::NR),
        (ops::MR - 1, 3, ops::NR - 1),
        (ops::MR + 1, 3, ops::NR + 1),
        (2 * ops::MR + 1, 17, 3 * ops::NR - 1),
        (ops::BAND_ROWS, 8, ops::NR),
        (ops::BAND_ROWS + 1, 8, ops::NR + 3),
    ];
    for (i, &(m, k, n)) in cases.iter().enumerate() {
        let a = randn(vec![m, k], 100 + i as u64);
        let b = randn(vec![k, n], 200 + i as u64);
        let fast = ops::matmul(&a, &b);
        let slow = ops::reference::matmul(&a, &b);
        assert!(
            mn_tensor::max_abs_diff(fast.data(), slow.data()) <= TOL * (k.max(1) as f32),
            "matmul mismatch at case {i}: ({m}, {k}, {n})"
        );
    }
}

/// Zero extents in *non-batch* dimensions (channels, filters) are legal
/// too and degrade to empty or bias-only outputs instead of panicking.
#[test]
fn zero_extent_non_batch_dims_are_no_ops() {
    // Zero channels through max pooling.
    let x = Tensor::zeros([2, 0, 4, 4]);
    let pooled = maxpool2x2_forward(&x);
    assert_eq!(pooled.output.shape().dims(), &[2, 0, 2, 2]);
    let mut eval = Tensor::zeros([2, 0, 2, 2]);
    maxpool2x2_forward_eval_into(&x, &mut eval);
    assert!(eval.is_empty());

    // Zero filters through both convolution formulations.
    let input = Tensor::zeros([1, 3, 4, 4]);
    let no_filters = Tensor::zeros([0, 3, 3, 3]);
    let no_bias = Tensor::zeros([0]);
    assert_eq!(
        conv::conv2d_forward(&input, &no_filters, &no_bias, 1)
            .shape()
            .dims(),
        &[1, 0, 4, 4]
    );
    assert_eq!(
        im2col::conv2d_forward_im2col(&input, &no_filters, &no_bias, 1)
            .shape()
            .dims(),
        &[1, 0, 4, 4]
    );

    // Zero input channels: the output is bias-only.
    let empty_input = Tensor::zeros([1, 0, 4, 4]);
    let weight = Tensor::zeros([2, 0, 3, 3]);
    let bias = Tensor::from_vec([2], vec![1.5, -2.0]);
    let y = conv::conv2d_forward(&empty_input, &weight, &bias, 1);
    assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    assert!(y.data()[..16].iter().all(|&v| v == 1.5));
    assert!(y.data()[16..].iter().all(|&v| v == -2.0));
}

/// The blocked kernels are bitwise identical across thread counts — the
/// parallel split is over disjoint output bands whose per-element
/// accumulation order is fixed.
#[test]
fn matmul_bitwise_identical_across_thread_counts() {
    let a = randn(vec![3 * ops::BAND_ROWS + 7, 64], 7);
    let b = randn(vec![64, 48], 8);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| ops::matmul(&a, &b));
    let many = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| ops::matmul(&a, &b));
    assert_eq!(one.data(), many.data());
}

/// The explicit-AVX2 kernel backend is pinned **bitwise** against the
/// portable-scalar path — not merely within tolerance. Both paths
/// accumulate in the same per-element k-order and fuse multiply-adds
/// identically (governed by [`mn_tensor::simd::COMPILED_FMA`]), so
/// `MN_SIMD=scalar` and `MN_SIMD=avx2` runs of the same build must
/// produce identical bits.
///
/// One test function (not proptest) on purpose: backend selection is a
/// process-global, so switching it from concurrently running test
/// threads would race. The shape grid deliberately straddles the
/// MR/NR register-tile and BAND_ROWS boundaries, plus degenerate 0/1
/// extents.
#[test]
fn gemm_backends_bitwise_identical() {
    use mn_tensor::simd::{self, Backend};
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not available on this CPU");
        return;
    }
    let shapes: Vec<(usize, usize, usize)> = {
        let mut s = vec![
            (0, 5, 5),
            (5, 0, 5),
            (5, 5, 0),
            (1, 1, 1),
            (ops::MR, 17, ops::NR),
            (ops::MR - 1, 33, ops::NR - 1),
            (ops::MR + 1, 12, ops::NR + 1),
            (2 * ops::MR + 3, 29, 3 * ops::NR - 5),
            (ops::BAND_ROWS, 31, 2 * ops::NR),
            (ops::BAND_ROWS + ops::MR + 2, 24, ops::NR + 7),
        ];
        // A few pseudo-random shapes off the boundary grid.
        for seed in 0..6u64 {
            let m = (seed.wrapping_mul(2654435761) % 70) as usize + 1;
            let k = (seed.wrapping_mul(40503) % 50) as usize + 1;
            let n = (seed.wrapping_mul(9973) % 60) as usize + 1;
            s.push((m, k, n));
        }
        s
    };
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 1000 + i as u64;
        // matmul: A [m,k] · B [k,n]
        let a = randn(vec![m, k], seed);
        let b = randn(vec![k, n], seed + 1);
        let scalar = simd::with_backend(Backend::Scalar, || ops::matmul(&a, &b));
        let avx2 = simd::with_backend(Backend::Avx2, || ops::matmul(&a, &b));
        assert_eq!(
            scalar.data(),
            avx2.data(),
            "matmul backends diverge at {m}x{k}x{n}"
        );
        // matmul_tn: Aᵀ [k,m] · B [k,n]
        let at = randn(vec![k, m], seed + 2);
        let scalar = simd::with_backend(Backend::Scalar, || ops::matmul_tn(&at, &b));
        let avx2 = simd::with_backend(Backend::Avx2, || ops::matmul_tn(&at, &b));
        assert_eq!(
            scalar.data(),
            avx2.data(),
            "matmul_tn backends diverge at {m}x{k}x{n}"
        );
        // matmul_nt: A [m,k] · Bᵀ [n,k]
        let bt = randn(vec![n, k], seed + 3);
        let scalar = simd::with_backend(Backend::Scalar, || ops::matmul_nt(&a, &bt));
        let avx2 = simd::with_backend(Backend::Avx2, || ops::matmul_nt(&a, &bt));
        assert_eq!(
            scalar.data(),
            avx2.data(),
            "matmul_nt backends diverge at {m}x{k}x{n}"
        );
    }
}

/// Backend equivalence holds through the full convolution lowering too
/// (im2col + GEMM + bias), which exercises the axpy bias path on top of
/// the micro-kernel.
#[test]
fn conv_backends_bitwise_identical() {
    use mn_tensor::simd::{self, Backend};
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not available on this CPU");
        return;
    }
    let input = randn(vec![2, 3, 8, 8], 51);
    let weight = randn(vec![4, 3, 3, 3], 52);
    let bias = randn(vec![4], 53);
    let scalar = simd::with_backend(Backend::Scalar, || {
        im2col::conv2d_forward_im2col(&input, &weight, &bias, 1)
    });
    let avx2 = simd::with_backend(Backend::Avx2, || {
        im2col::conv2d_forward_im2col(&input, &weight, &bias, 1)
    });
    assert_eq!(scalar.data(), avx2.data());
}

// ---------------------------------------------------------------------------
// The fused implicit-GEMM forward convolution. Its contract is bit identity
// with the composition it replaced (explicit patch matrix, `A · Bᵀ` GEMM,
// transpose + bias), which survives only here, built from the still-public
// pieces, as the `to_bits` reference.
// ---------------------------------------------------------------------------

/// The pre-fusion forward convolution: `im2col_into`, `matmul_nt_into`
/// against the `[F, C·K·K]` weight view, then `[N·H'·W', F]` → NCHW with
/// the bias added last.
fn conv_forward_unfused(input: &Tensor, weight: &Tensor, bias: &Tensor, pad: usize) -> Tensor {
    let d = input.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (f, k) = (weight.shape().dim(0), weight.shape().dim(2));
    let ho = conv::conv_out_extent(h, k, pad);
    let wo = conv::conv_out_extent(w, k, pad);
    let mut cols = Tensor::zeros([n * ho * wo, c * k * k]);
    im2col::im2col_into(input, k, pad, &mut cols);
    let mut prod = Tensor::zeros([n * ho * wo, f]);
    ops::matmul_nt_into(
        &cols,
        ops::MatRef::reshaped(weight, f, c * k * k),
        &mut prod,
    );
    let mut out = Tensor::zeros([n, f, ho, wo]);
    for b in 0..n {
        for fi in 0..f {
            for p in 0..ho * wo {
                out.data_mut()[(b * f + fi) * ho * wo + p] =
                    prod.data()[(b * ho * wo + p) * f + fi] + bias.data()[fi];
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Refills every pooled buffer of `ws` with NaN, so whatever a kernel reads
/// from scratch it did not first write shows up in its output.
fn poison(ws: &mut Workspace) {
    let mut bufs = Vec::new();
    while ws.pooled_buffers() > 0 {
        bufs.push(ws.acquire_uninit([0]).into_vec());
    }
    for mut buf in bufs {
        buf.clear();
        buf.resize(buf.capacity(), f32::NAN);
        let len = buf.len();
        ws.release(Tensor::from_vec([len], buf));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fused forward == unfused composition, bit for bit: empty and
    /// one-example batches, filter counts straddling MR, position counts
    /// straddling NR, planes smaller than one panel, odd planes (panels
    /// that straddle images), every kernel size with and without padding.
    #[test]
    fn conv_fused_forward_bit_identical_to_unfused(
        n in 0usize..10,
        c in 1usize..21,
        f in 0usize..36,
        h in 1usize..11,
        w in 1usize..11,
        k_idx in 0usize..3,
        pad_same in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 5][k_idx];
        let pad = if pad_same { k / 2 } else { 0 };
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let input = randn(vec![n, c, h, w], seed);
        let weight = randn(vec![f, c, k, k], seed + 1);
        let bias = randn(vec![f], seed + 2);
        let want = conv_forward_unfused(&input, &weight, &bias, pad);
        let got = im2col::conv2d_forward_im2col(&input, &weight, &bias, pad);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// An example's output bits do not depend on what else is in the batch or
/// where in it the example sits (panels straddle images, so neighbours
/// share micro-kernel calls — but never accumulators).
#[test]
fn conv_fused_forward_is_batch_composition_invariant() {
    // (C, F, H, W, K): a panel-aligned plane, an odd one, one smaller than
    // a panel.
    for &(c, f, h, w, k) in &[(8, 8, 8, 8, 3), (5, 13, 7, 5, 3), (16, 24, 2, 2, 3)] {
        let item = c * h * w;
        let batch = randn(vec![64, c, h, w], 90);
        let weight = randn(vec![f, c, k, k], 91);
        let bias = randn(vec![f], 92);
        let full = im2col::conv2d_forward_im2col(&batch, &weight, &bias, k / 2);
        let out_item = full.len() / 64;
        for i in [0usize, 17, 63] {
            let example = &batch.data()[i * item..(i + 1) * item];
            let want = &bits(&full)[i * out_item..(i + 1) * out_item];
            let alone = Tensor::from_vec([1, c, h, w], example.to_vec());
            let alone = im2col::conv2d_forward_im2col(&alone, &weight, &bias, k / 2);
            assert_eq!(bits(&alone), want, "example {i} alone, plane {h}x{w}");
            // The same example at index 2 of an unrelated batch of 5.
            let mut other = randn(vec![5, c, h, w], 93);
            other.data_mut()[2 * item..3 * item].copy_from_slice(example);
            let other = im2col::conv2d_forward_im2col(&other, &weight, &bias, k / 2);
            assert_eq!(
                &bits(&other)[2 * out_item..3 * out_item],
                want,
                "example {i} moved, plane {h}x{w}"
            );
        }
    }
}

/// The batch fan-out cannot change a bit: one thread, four threads, whole
/// panel-aligned ranges (large batch) and per-image ranges with a partial
/// panel each (a batch no larger than the range rounding, odd plane), and
/// a last range cut short. Every shape is 5-7 M multiply-adds, enough to
/// actually fan out.
#[test]
fn conv_fused_forward_bitwise_identical_across_thread_counts() {
    for &(n, c, f, h, w) in &[(96, 8, 16, 8, 8), (13, 24, 40, 7, 7), (70, 16, 48, 5, 3)] {
        let input = randn(vec![n, c, h, w], 70);
        let weight = randn(vec![f, c, 3, 3], 71);
        let bias = randn(vec![f], 72);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| im2col::conv2d_forward_im2col(&input, &weight, &bias, 1))
        };
        let one = run(1);
        assert_eq!(bits(&one), bits(&run(4)), "n {n}, plane {h}x{w}");
        assert_eq!(
            bits(&one),
            bits(&conv_forward_unfused(&input, &weight, &bias, 1)),
            "n {n}, plane {h}x{w}"
        );
    }
}

/// Scalar and AVX2 dispatch agree bitwise through the fused convolution on
/// shapes with partial filter tiles and partial panels.
#[test]
fn conv_fused_forward_backends_bitwise_identical() {
    use mn_tensor::simd::{self, Backend};
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not available on this CPU");
        return;
    }
    for &(n, c, f, h, w, k) in &[
        (3, 5, 13, 7, 5, 3),
        (9, 20, 35, 2, 2, 3),
        (2, 3, 4, 9, 10, 5),
    ] {
        let input = randn(vec![n, c, h, w], 60);
        let weight = randn(vec![f, c, k, k], 61);
        let bias = randn(vec![f], 62);
        let conv = || im2col::conv2d_forward_im2col(&input, &weight, &bias, k / 2);
        let scalar = simd::with_backend(Backend::Scalar, conv);
        let avx2 = simd::with_backend(Backend::Avx2, conv);
        assert_eq!(bits(&scalar), bits(&avx2), "plane {h}x{w}, k {k}");
    }
}

/// A warm workspace whose every pooled float is NaN — after a larger shape
/// and again before a smaller one, so the smaller call's staging, panels
/// and filter tiles all sit inside longer, poisoned buffers — changes
/// nothing: no scratch element is read before it is written.
#[test]
fn conv_fused_forward_ignores_poisoned_warm_workspace() {
    let mut ws = Workspace::new();
    for _ in 0..4 {
        ws.release(Tensor::filled([1 << 16], f32::NAN));
    }
    // Larger then smaller; the smaller ends in a partial panel (3·35 = 105
    // positions) and a partial filter tile (13 filters).
    for &(n, c, f, h, w, k) in &[
        (6, 12, 24, 9, 8, 3),
        (3, 5, 13, 7, 5, 5),
        (1, 3, 4, 2, 2, 3),
    ] {
        let input = randn(vec![n, c, h, w], 80);
        let weight = randn(vec![f, c, k, k], 81);
        let bias = randn(vec![f], 82);
        let fresh = im2col::conv2d_forward_im2col(&input, &weight, &bias, k / 2);
        poison(&mut ws);
        let warm = im2col::conv2d_forward_im2col_ws(&input, &weight, &bias, k / 2, &mut ws);
        assert_eq!(bits(&warm), bits(&fresh), "shape {n}x{c}x{h}x{w}");
        ws.release(warm);
    }
}

// ---------------------------------------------------------------------------
// The fused implicit-GEMM backward convolution. Its contract is bit identity
// with the compositions it replaced: the upstream gradient rearranged into
// an `[N·H'·W', F]` matrix, multiplied by the `[F, C·K·K]` weight view and
// folded back with col2im (input gradient); the im2col matrix under
// `matmul_tn` against that same gradient matrix (weight gradient). Both
// survive only here, as the `to_bits` references.
// ---------------------------------------------------------------------------

/// `grad_out: [N, F, H', W']` as the `[N·H'·W', F]` matrix.
fn grad_out_to_mat(grad_out: &Tensor) -> Tensor {
    let d = grad_out.shape().dims();
    let (n, f, plane) = (d[0], d[1], d[2] * d[3]);
    let mut mat = Tensor::zeros([n * plane, f]);
    for b in 0..n {
        for fi in 0..f {
            for p in 0..plane {
                mat.data_mut()[(b * plane + p) * f + fi] =
                    grad_out.data()[(b * f + fi) * plane + p];
            }
        }
    }
    mat
}

/// Folds `cols: [N·H'·W', C·K·K]` into `[N, C, H, W]`, each element summed
/// from 0 in ascending position order (the col2im scatter).
fn col2im(
    cols: &Tensor,
    (n, c, h, w): (usize, usize, usize, usize),
    k: usize,
    pad: usize,
) -> Tensor {
    let ho = conv::conv_out_extent(h, k, pad);
    let wo = conv::conv_out_extent(w, k, pad);
    let mut out = Tensor::zeros([n, c, h, w]);
    for b in 0..n {
        for oh in 0..ho {
            for ow in 0..wo {
                let row = ((b * ho + oh) * wo + ow) * c * k * k;
                for ci in 0..c {
                    for kh in 0..k {
                        for kw in 0..k {
                            let ih = (oh + kh) as isize - pad as isize;
                            let iw = (ow + kw) as isize - pad as isize;
                            if (0..h as isize).contains(&ih) && (0..w as isize).contains(&iw) {
                                let at = ((b * c + ci) * h + ih as usize) * w + iw as usize;
                                out.data_mut()[at] += cols.data()[row + (ci * k + kh) * k + kw];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The pre-fusion input gradient: `grad_out_to_mat`, `matmul_into` against
/// the `[F, C·K·K]` weight view, col2im.
fn conv_backward_input_unfused(
    grad_out: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    pad: usize,
) -> Tensor {
    let (n, f) = (grad_out.shape().dim(0), weight.shape().dim(0));
    let (c, k) = (weight.shape().dim(1), weight.shape().dim(2));
    let gmat = grad_out_to_mat(grad_out);
    let mut cols = Tensor::zeros([gmat.shape().dim(0), c * k * k]);
    ops::matmul_into(
        &gmat,
        ops::MatRef::reshaped(weight, f, c * k * k),
        &mut cols,
    );
    col2im(&cols, (n, c, h, w), k, pad)
}

/// The pre-fusion weight gradient: `im2col_into`, `grad_out_to_mat`, then
/// `matmul_tn_into` (the gradient matrix transposed times the patches).
fn conv_backward_weight_unfused(grad_out: &Tensor, input: &Tensor, k: usize, pad: usize) -> Tensor {
    let d = input.shape().dims();
    let (c, f) = (d[1], grad_out.shape().dim(1));
    let gmat = grad_out_to_mat(grad_out);
    let mut cols = Tensor::zeros([gmat.shape().dim(0), c * k * k]);
    im2col::im2col_into(input, k, pad, &mut cols);
    let mut gw = Tensor::zeros([f, c * k * k]);
    ops::matmul_tn_into(&gmat, &cols, &mut gw);
    gw.reshape([f, c, k, k])
}

/// Runs `f` inside a fresh rayon pool of `threads` workers.
fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fused backward == unfused compositions, bit for bit, for both
    /// gradients: filter counts and tap counts straddling MR, position
    /// counts straddling NR, planes smaller than one panel, every kernel
    /// size with and without padding — on a warm workspace whose every
    /// pooled float is NaN, and on one and on two threads.
    #[test]
    fn conv_fused_backward_bit_identical_to_unfused(
        n in 1usize..10,
        c in 1usize..21,
        f in 1usize..36,
        hw in 1usize..10,
        k_idx in 0usize..3,
        pad_same in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 5][k_idx];
        let pad = if pad_same { k / 2 } else { 0 };
        prop_assume!(hw + 2 * pad >= k);
        let (ho, wo) = (conv::conv_out_extent(hw, k, pad), conv::conv_out_extent(hw, k, pad));
        let input = randn(vec![n, c, hw, hw], seed);
        let weight = randn(vec![f, c, k, k], seed + 1);
        let grad_out = randn(vec![n, f, ho, wo], seed + 2);
        let want_gin = bits(&conv_backward_input_unfused(&grad_out, &weight, hw, hw, pad));
        let want_gw = bits(&conv_backward_weight_unfused(&grad_out, &input, k, pad));
        for threads in [1, 2] {
            let mut ws = Workspace::new();
            for _ in 0..2 {
                poison(&mut ws);
                let (gin, (gw, gb)) = in_pool(threads, || {
                    let gin = im2col::conv2d_backward_input_im2col_ws(&grad_out, &weight, hw, hw, pad, &mut ws);
                    (gin, im2col::conv2d_backward_params_im2col_ws(&grad_out, &input, k, pad, &mut ws))
                });
                prop_assert_eq!(bits(&gin), want_gin.clone(), "input gradient, {} threads", threads);
                prop_assert_eq!(bits(&gw), want_gw.clone(), "weight gradient, {} threads", threads);
                for t in [gin, gw, gb] {
                    ws.release(t);
                }
            }
        }
    }
}

/// Scalar and AVX2 dispatch agree bitwise through both fused backward
/// passes on shapes with partial tap tiles, partial filter tiles and
/// partial panels.
#[test]
fn conv_fused_backward_backends_bitwise_identical() {
    use mn_tensor::simd::{self, Backend};
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not available on this CPU");
        return;
    }
    for &(n, c, f, hw, k) in &[(3, 5, 13, 7, 3), (9, 20, 35, 2, 3), (2, 3, 4, 9, 5)] {
        let input = randn(vec![n, c, hw, hw], 50);
        let weight = randn(vec![f, c, k, k], 51);
        let grad_out = randn(vec![n, f, hw, hw], 52);
        let pass = || {
            let gin = im2col::conv2d_backward_input_im2col(&grad_out, &weight, hw, hw, k / 2);
            let (gw, _) = im2col::conv2d_backward_params_im2col(&grad_out, &input, k, k / 2);
            (bits(&gin), bits(&gw))
        };
        let scalar = simd::with_backend(Backend::Scalar, pass);
        let avx2 = simd::with_backend(Backend::Avx2, pass);
        assert_eq!(scalar, avx2, "plane {hw}x{hw}, k {k}");
    }
}

/// Large enough to fan out (both passes cross the parallel threshold): one
/// thread and four give the bits of the unfused compositions.
#[test]
fn conv_fused_backward_bitwise_identical_across_thread_counts() {
    for &(n, c, f, hw) in &[(96, 8, 16, 8), (13, 24, 40, 7), (70, 16, 48, 3)] {
        let input = randn(vec![n, c, hw, hw], 40);
        let weight = randn(vec![f, c, 3, 3], 41);
        let grad_out = randn(vec![n, f, hw, hw], 42);
        let want_gin = bits(&conv_backward_input_unfused(&grad_out, &weight, hw, hw, 1));
        let want_gw = bits(&conv_backward_weight_unfused(&grad_out, &input, 3, 1));
        for threads in [1, 4] {
            let (gin, (gw, _)) = in_pool(threads, || {
                (
                    im2col::conv2d_backward_input_im2col(&grad_out, &weight, hw, hw, 1),
                    im2col::conv2d_backward_params_im2col(&grad_out, &input, 3, 1),
                )
            });
            assert_eq!(
                bits(&gin),
                want_gin,
                "input gradient, n {n}, {threads} threads"
            );
            assert_eq!(
                bits(&gw),
                want_gw,
                "weight gradient, n {n}, {threads} threads"
            );
        }
    }
}
