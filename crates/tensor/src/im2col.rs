//! Convolution lowered onto the GEMM micro-kernel ([`crate::ops`]): the
//! forward pass and both backward passes are fused implicit-GEMM passes
//! that never materialise a patch matrix. [`im2col_into`] remains as the
//! explicit unfold the test references are built from.
//!
//! * **Forward** ([`conv2d_forward_im2col_ws`]): `[F, C·K·K] × [C·K·K,
//!   N·H'·W']`. M = filters: the weight storage already is the row-major
//!   left operand, packed into [`MR`]-row A tiles once per call. N = output
//!   positions `n·H'·W' + oh·W' + ow`, [`NR`] per panel, panels running
//!   across image boundaries. Per block of batch items (the fewest whose
//!   positions fill whole panels) the input is copied once into a
//!   zero-bordered staging buffer; per panel the `[C·K·K × NR]` B panel is
//!   packed from it, one fixed-length copy per tap `(c, kh, kw)` and
//!   output-row run, and each register tile plus the bias is stored
//!   straight into NCHW.
//! * **Input gradient** ([`conv2d_backward_input_im2col_ws`]): M = taps,
//!   the weight storage read transposed into `MR`-tap A tiles of depth F.
//!   N = output positions, panels and blocks as in the forward, each
//!   `[F × NR]` B panel copied from NCHW `grad_out`. Per panel the tap
//!   tiles run in **descending** tap order, and each tap's register-tile
//!   row is added, run by run, onto a zero-bordered staged gradient whose
//!   interior is then cropped into the result.
//! * **Weight gradient** ([`conv2d_backward_params_im2col_ws`]): M =
//!   filters, packed item by item from NCHW `grad_out`; N = taps, each
//!   `NR`-tap B panel packed from the once-staged input; the depth is every
//!   output position of the batch, ascending, in one micro-kernel call.
//!
//! Scratch comes from the [`Workspace`]; disjoint ranges of batch items (of
//! filter tiles, for the weight gradient) fan out through
//! [`crate::chunking`].
//!
//! **The bits are those of the explicit compositions** these passes
//! replaced, kept in the `kernel_equivalence` suite as `to_bits`
//! references: im2col + `matmul_nt` + bias; `grad_out` as an `[N·H'·W', F]`
//! matrix × the weight view, then col2im; that matrix under `matmul_tn`
//! against the im2col matrix.
//!
//! * Every output, patch gradient and weight gradient is still one
//!   multiply-add chain from 0 in the same micro-kernel over the same
//!   ascending index (`(c, kh, kw)`, `f`, position), padding taps included
//!   as explicit zeros. Swapping which operand is A only swaps the factors
//!   of each exactly-rounded product.
//! * Input-gradient element `(c, y, x)` takes one contribution per tap
//!   `(c, kh, kw)`, from position `(y − kh, x − kw)`: descending taps within
//!   a panel are ascending positions, and panels ascend, so each element is
//!   summed from 0 in col2im's order. Padding contributions land on the
//!   staged border and are cropped away.
//! * Which panel, block, range or thread computes an element cannot
//!   matter, so an example's results do not depend on its batch.
//!
//! The direct kernels ([`crate::conv`]) win for very shallow reductions;
//! `ConvLayer` in `mn-nn` picks per layer shape, and the
//! `gradient_equivalence` suite pins both formulations to each other.

use crate::chunking::for_each_chunk_zip;
use crate::conv::conv_out_extent;
use crate::ops::{AShape, MR, NR};
use crate::{ops, Tensor, Workspace};

/// Below this many multiply-adds a fused pass runs on the calling thread:
/// with the rayon stand-in spawning workers per call (about 70 µs), the
/// forward on two threads breaks even near 2.4 M and gains ≥ 1.25× at 3.5 M.
const PARALLEL_MAC_THRESHOLD: usize = 4 * 1024 * 1024;

/// Unfolds `input: [N, C, H, W]` into the im2col matrix `[N·H'·W', C·K·K]`,
/// each row one output position's zero-padded receptive field.
///
/// # Panics
///
/// Panics if the input is not 4-D or the padded input is narrower than `k`.
pub fn im2col(input: &Tensor, k: usize, pad: usize) -> Tensor {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "im2col input must be [N, C, H, W]");
    let g = ConvGeom::new(d[1], 0, k, pad, d[2], d[3]);
    let mut out = Tensor::zeros([d[0] * g.plane(), g.depth()]);
    im2col_into(input, k, pad, &mut out);
    out
}

/// [`im2col`] writing into a caller-provided output tensor.
///
/// `out` must be `[N·H'·W', C·K·K]`; every element is written, so it need
/// not be zeroed. No training or serving path runs this unfold: it builds
/// the explicit patch matrix the test references multiply.
///
/// # Panics
///
/// Panics on layout mismatches, including a wrongly shaped `out`.
pub fn im2col_into(input: &Tensor, k: usize, pad: usize, out: &mut Tensor) {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "im2col input must be [N, C, H, W]");
    let g = ConvGeom::new(d[1], 0, k, pad, d[2], d[3]);
    let (want, depth) = ([d[0] * g.plane(), g.depth()], g.depth());
    assert_eq!(out.shape().dims(), &want, "im2col output must be {want:?}");
    let mut stage = vec![0.0; g.c_in * g.padded_plane()];
    let items = input.data().chunks_exact((g.c_in * g.h * g.w).max(1));
    for (item, rows) in items.zip(out.data_mut().chunks_exact_mut((g.plane() * depth).max(1))) {
        stage_padded(item, &mut stage, g.c_in, g.h, g.w, pad);
        for (q, row) in rows.chunks_exact_mut(depth).enumerate() {
            let taps =
                (0..g.c_in).flat_map(|c| (0..k).map(move |kh| c * g.padded_plane() + kh * g.wp()));
            for (run, at) in row.chunks_exact_mut(k).zip(taps) {
                run.copy_from_slice(&stage[g.staged_offset(q) + at..][..k]);
            }
        }
    }
}

/// Convolution as one fused implicit-GEMM pass (see the module docs);
/// numerically identical to [`crate::conv::conv2d_forward`] up to float
/// summation order.
///
/// # Panics
///
/// Panics on the same layout violations as the direct kernel.
pub fn conv2d_forward_im2col(input: &Tensor, weight: &Tensor, bias: &Tensor, pad: usize) -> Tensor {
    conv2d_forward_im2col_ws(input, weight, bias, pad, &mut Workspace::new())
}

/// Shape of one convolution, shared by the fused kernels' helpers.
#[derive(Clone, Copy)]
struct ConvGeom {
    c_in: usize,
    f_out: usize,
    k: usize,
    pad: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
}

impl ConvGeom {
    fn new(c_in: usize, f_out: usize, k: usize, pad: usize, h: usize, w: usize) -> Self {
        let (ho, wo) = (conv_out_extent(h, k, pad), conv_out_extent(w, k, pad));
        ConvGeom {
            c_in,
            f_out,
            k,
            pad,
            h,
            w,
            ho,
            wo,
        }
    }

    /// Width of a zero-padded staged row.
    fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Elements of one zero-padded staged plane.
    fn padded_plane(&self) -> usize {
        (self.h + 2 * self.pad) * self.wp()
    }

    /// Output positions per batch item.
    fn plane(&self) -> usize {
        self.ho * self.wo
    }

    /// The reduction depth `C·K·K`.
    fn depth(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Offset, from a receptive field's `(c, kh, kw) = 0` corner in a
    /// staged block, of tap `j = (c·K + kh)·K + kw`.
    fn tap_offset(&self, j: usize) -> usize {
        let (c, kh, kw) = (j / (self.k * self.k), j / self.k % self.k, j % self.k);
        c * self.padded_plane() + kh * self.wp() + kw
    }

    /// Offset, in a staged block, of the `(c, kh, kw) = 0` corner of block
    /// position `q`'s receptive field.
    fn staged_offset(&self, q: usize) -> usize {
        let (item, at) = (q / self.plane(), q % self.plane());
        item * self.c_in * self.padded_plane() + at / self.wo * self.wp() + at % self.wo
    }
}

/// A stretch of one panel's columns whose positions are contiguous in
/// memory: within one output row for the staged input (a *run*: contiguous
/// for every tap `(c, kh, kw)`), within one image for the NCHW output (a
/// *segment*: contiguous for every filter).
#[derive(Clone, Copy, Default)]
struct Span {
    /// First panel column.
    col: usize,
    /// Columns covered.
    len: usize,
    /// Where the first column's element sits: for a run, the staged-input
    /// offset of its receptive field's `(c, kh, kw) = 0` corner; for a
    /// segment, the offset of filter 0's element in the range's output.
    at: usize,
}

/// Copies `planes` input planes of `h × w` into zero-bordered
/// `(h + 2·pad) × (w + 2·pad)` planes. Every destination element is
/// written, so `dst` may hold stale workspace contents.
// mn-lint: hot-path
fn stage_padded(src: &[f32], dst: &mut [f32], planes: usize, h: usize, w: usize, pad: usize) {
    let wp = w + 2 * pad;
    let padded = (h + 2 * pad) * wp;
    for p in 0..planes {
        let splane = &src[p * h * w..(p + 1) * h * w];
        let dplane = &mut dst[p * padded..(p + 1) * padded];
        dplane[..pad * wp].fill(0.0);
        dplane[(pad + h) * wp..].fill(0.0);
        for y in 0..h {
            let drow = &mut dplane[(pad + y) * wp..(pad + y + 1) * wp];
            drow[..pad].fill(0.0);
            drow[pad..pad + w].copy_from_slice(&splane[y * w..(y + 1) * w]);
            drow[pad + w..].fill(0.0);
        }
    }
}

/// Cuts the panel covering block positions `q0..q0 + valid` at every
/// multiple of `period` (`W'` for runs, `H'·W'` for segments), locating
/// each span with `offset_of(its first position)`; returns how many of
/// `spans` it filled.
// mn-lint: hot-path
fn cut_panel(
    q0: usize,
    valid: usize,
    period: usize,
    offset_of: impl Fn(usize) -> usize,
    spans: &mut [Span; NR],
) -> usize {
    let mut n = 0;
    let mut col = 0;
    while col < valid {
        let q = q0 + col;
        let len = (period - q % period).min(valid - col);
        spans[n] = Span {
            col,
            len,
            at: offset_of(q),
        };
        n += 1;
        col += len;
    }
    n
}

/// Packs one `[C·K·K × NR]` B panel straight from the staged input: row
/// `(c, kh, kw)` holds that tap's input value for each of the panel's
/// positions. Every run is copied as a fixed `NR` floats (one or two
/// vector moves, never a length-dependent `memcpy`): the surplus lands on
/// columns the next run — or the next row's first run — overwrites, and
/// past the last row in the `NR` floats of slack `panel` carries (as
/// `stage` does for the matching over-read). Columns past `valid` (the
/// last panel of a block only) are then zeroed, so no stale workspace
/// float ever reaches the micro-kernel.
// mn-lint: hot-path
fn pack_panel(g: &ConvGeom, stage: &[f32], runs: &[Span], valid: usize, panel: &mut [f32]) {
    let mut row = 0;
    for c in 0..g.c_in {
        for kh in 0..g.k {
            for kw in 0..g.k {
                let tap = c * g.padded_plane() + kh * g.wp() + kw;
                for run in runs {
                    panel[row + run.col..][..NR].copy_from_slice(&stage[run.at + tap..][..NR]);
                }
                row += NR;
            }
        }
    }
    if valid < NR {
        for prow in panel[..row].chunks_exact_mut(NR) {
            prow[valid..].fill(0.0);
        }
    }
}

/// What every range of a fused pass over batch items shares: the shape, A
/// tiles, bias (empty for the input gradient), backend and block size.
struct FusedConv<'a> {
    g: ConvGeom,
    a_tiles: &'a [f32],
    bias: &'a [f32],
    backend: crate::simd::Backend,
    block_items: usize,
}

/// The fused pass over a range of batch items, `input` and `out` being
/// those items' `[C, H, W]` and `[F, H', W']` storage: stage a block of
/// items, then per `NR`-position panel pack B, run the micro-kernel once
/// per filter tile and store `tile + bias` straight into NCHW. `piece` is
/// this range's private scratch: the staged block and one panel, each
/// with `NR` floats of slack.
// mn-lint: hot-path
fn conv_range(cv: &FusedConv, input: &[f32], out: &mut [f32], piece: &mut [f32]) {
    let g = &cv.g;
    let (plane, depth) = (g.plane(), g.depth());
    let in_item = g.c_in * g.h * g.w;
    let items = out.len() / (g.f_out * plane);
    let (stage, panel) = piece.split_at_mut(cv.block_items * g.c_in * g.padded_plane() + NR);
    let mut acc = [0.0f32; MR * NR];
    let (mut runs, mut segs) = ([Span::default(); NR], [Span::default(); NR]);
    for b0 in (0..items).step_by(cv.block_items) {
        let b_items = cv.block_items.min(items - b0);
        let block = &input[b0 * in_item..(b0 + b_items) * in_item];
        stage_padded(block, stage, b_items * g.c_in, g.h, g.w, g.pad);
        let positions = b_items * plane;
        for q0 in (0..positions).step_by(NR) {
            let valid = NR.min(positions - q0);
            let n_runs = cut_panel(q0, valid, g.wo, |q| g.staged_offset(q), &mut runs);
            pack_panel(g, stage, &runs[..n_runs], valid, panel);
            let out_offset = |q| (b0 + q / plane) * g.f_out * plane + q % plane;
            let n_segs = cut_panel(q0, valid, plane, out_offset, &mut segs);
            for f0 in (0..g.f_out).step_by(MR) {
                let a_tile = &cv.a_tiles[f0 * depth..(f0 + MR) * depth];
                let b_panel = &panel[..depth * NR];
                crate::simd::microkernel(cv.backend, depth, a_tile, b_panel, &mut acc);
                let filters = f0..g.f_out.min(f0 + MR);
                for (f, acc_row) in filters.zip(acc.chunks_exact(NR)) {
                    let b = cv.bias[f];
                    for seg in &segs[..n_segs] {
                        let dst = &mut out[seg.at + f * plane..][..seg.len];
                        for (o, &a) in dst.iter_mut().zip(&acc_row[seg.col..]) {
                            *o = a + b;
                        }
                    }
                }
            }
        }
    }
}

/// [`conv2d_forward_im2col`] taking all its scratch (the packed filter
/// tiles, the staged input blocks and the B panels) and the output from a
/// [`Workspace`], so repeated calls allocate nothing.
///
/// # Panics
///
/// Panics on the same layout violations as the direct kernel.
// mn-lint: hot-path
pub fn conv2d_forward_im2col_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    ws: &mut Workspace,
) -> Tensor {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "conv input must be [N, C, H, W]");
    let (n_batch, _, h, w) = (d[0], d[1], d[2], d[3]);
    let wd = weight.shape().dims();
    assert_eq!(wd.len(), 4, "conv weight must be [F, C, K, K]");
    let (f_out, c_w, k) = (wd[0], wd[1], wd[2]);
    assert_eq!(wd[3], k, "only square kernels supported");
    assert_eq!(d[1], c_w, "input channels mismatch");
    assert_eq!(bias.shape().dims(), &[f_out], "bias must be [filters]");
    let g = ConvGeom::new(c_w, f_out, k, pad, h, w);
    let (plane, depth) = (g.plane(), g.depth());
    let mut out = ws.acquire_uninit([n_batch, f_out, g.ho, g.wo]);
    if out.is_empty() {
        return out;
    }

    // Filters are the GEMM's M dimension: the weight storage already is
    // the row-major [F, C·K·K] matrix, packed once into MR-row A tiles.
    let mut a_tiles = ws.acquire_uninit([f_out.div_ceil(MR) * MR * depth]);
    for f0 in (0..f_out).step_by(MR) {
        let tile = &mut a_tiles.data_mut()[f0 * depth..(f0 + MR) * depth];
        ops::pack_a_tile(tile, weight.data(), AShape::RowMajor, f_out, depth, f0);
    }

    // Output positions are the N dimension, NR per panel.
    let (parallel, range_items, block_items) = item_ranges(&g, n_batch);
    let cv = FusedConv {
        g,
        a_tiles: a_tiles.data(),
        bias: bias.data(),
        backend: crate::simd::active(),
        block_items,
    };
    let in_range = range_items * g.c_in * h * w;
    let piece = cv.block_items * g.c_in * g.padded_plane() + NR + depth * NR + NR;
    let mut scratch = ws.acquire_uninit([n_batch.div_ceil(range_items) * piece]);
    let id = input.data();
    for_each_chunk_zip(
        out.data_mut(),
        scratch.data_mut(),
        range_items * f_out * plane,
        piece,
        parallel,
        |range, ochunk, piece| {
            let items = &id[range * in_range..id.len().min((range + 1) * in_range)];
            conv_range(&cv, items, ochunk, piece);
        },
    );
    ws.release(scratch);
    ws.release(a_tiles);
    out
}

/// How a fused pass over `n_batch` items fans out: whether in parallel,
/// the items per range (one work item, one scratch piece) and per staged
/// block (the fewest items whose positions fill whole panels). A range is
/// whole blocks unless the batch is at most one block: then each image is
/// a range. Inline, one range spans the batch, reusing its piece.
fn item_ranges(g: &ConvGeom, n_batch: usize) -> (bool, usize, usize) {
    let unit = NR / gcd(g.plane(), NR);
    let threads = rayon::current_num_threads();
    let macs = n_batch * g.plane() * g.depth() * g.f_out;
    let parallel = threads > 1 && n_batch > 1 && macs >= PARALLEL_MAC_THRESHOLD;
    let range_items = if !parallel {
        n_batch
    } else if n_batch <= unit {
        1
    } else {
        n_batch.div_ceil(unit).div_ceil(4 * threads) * unit
    };
    (parallel, range_items, unit.min(range_items))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Gradient of the loss w.r.t. the convolution input as one fused
/// implicit-GEMM pass (see the module docs); matches
/// [`crate::conv::conv2d_backward_input`] up to float summation order.
///
/// # Panics
///
/// Panics on the same layout violations as the direct kernel.
pub fn conv2d_backward_input_im2col(
    grad_out: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    pad: usize,
) -> Tensor {
    conv2d_backward_input_im2col_ws(grad_out, weight, h, w, pad, &mut Workspace::new())
}

/// The fused input-gradient pass over a range of batch items, `grad_out`
/// and `gin` being those items' `[F, H', W']` and `[C, H, W]` storage: per
/// block of items, zero a staged gradient; per panel, pack the `[F × NR]`
/// B panel from NCHW, then run the tap tiles in descending tap order and
/// add each tap's register-tile row, run by run, onto the staged gradient
/// (see the module docs for why this is col2im's order); crop the block's
/// interior into `gin`. `piece` holds the staged block and one panel.
// mn-lint: hot-path
fn grad_input_range(cv: &FusedConv, grad_out: &[f32], gin: &mut [f32], piece: &mut [f32]) {
    let g = &cv.g;
    let (plane, depth, f_out) = (g.plane(), g.depth(), g.f_out);
    let (pp, wp) = (g.padded_plane(), g.wp());
    let in_item = g.c_in * g.h * g.w;
    let items = gin.len() / in_item;
    let (stage, panel) = piece.split_at_mut(cv.block_items * g.c_in * pp);
    let mut acc = [0.0f32; MR * NR];
    let (mut runs, mut segs) = ([Span::default(); NR], [Span::default(); NR]);
    for b0 in (0..items).step_by(cv.block_items) {
        let b_items = cv.block_items.min(items - b0);
        let stage = &mut stage[..b_items * g.c_in * pp];
        stage.fill(0.0);
        let positions = b_items * plane;
        for q0 in (0..positions).step_by(NR) {
            let valid = NR.min(positions - q0);
            let grad_offset = |q| (b0 + q / plane) * f_out * plane + q % plane;
            let n_segs = cut_panel(q0, valid, plane, grad_offset, &mut segs);
            for (f, prow) in panel.chunks_exact_mut(NR).enumerate() {
                for seg in &segs[..n_segs] {
                    let src = &grad_out[seg.at + f * plane..][..seg.len];
                    prow[seg.col..seg.col + seg.len].copy_from_slice(src);
                }
                prow[valid..].fill(0.0);
            }
            let n_runs = cut_panel(q0, valid, g.wo, |q| g.staged_offset(q), &mut runs);
            for t0 in (0..depth).step_by(MR).rev() {
                let a_tile = &cv.a_tiles[t0 * f_out..(t0 + MR) * f_out];
                crate::simd::microkernel(cv.backend, f_out, a_tile, panel, &mut acc);
                for tap in (t0..depth.min(t0 + MR)).rev() {
                    let at = g.tap_offset(tap);
                    let acc_row = &acc[(tap - t0) * NR..];
                    for run in &runs[..n_runs] {
                        let dst = &mut stage[run.at + at..][..run.len];
                        for (d, &v) in dst.iter_mut().zip(&acc_row[run.col..]) {
                            *d += v;
                        }
                    }
                }
            }
        }
        let gin_block = &mut gin[b0 * in_item..(b0 + b_items) * in_item];
        for (row, drow) in gin_block.chunks_exact_mut(g.w).enumerate() {
            let (p, y) = (row / g.h, row % g.h);
            drow.copy_from_slice(&stage[p * pp + (y + g.pad) * wp + g.pad..][..g.w]);
        }
    }
}

/// [`conv2d_backward_input_im2col`] taking all its scratch (the packed
/// weight tiles, the staged gradient blocks and the B panels) and the
/// returned input gradient from a [`Workspace`].
///
/// # Panics
///
/// Panics on the same layout violations as the direct kernel.
// mn-lint: hot-path
pub fn conv2d_backward_input_im2col_ws(
    grad_out: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Tensor {
    let gd = grad_out.shape().dims();
    assert_eq!(gd.len(), 4, "conv grad_out must be [N, F, H', W']");
    let (n_batch, f_out, ho, wo) = (gd[0], gd[1], gd[2], gd[3]);
    let wd = weight.shape().dims();
    assert_eq!(wd.len(), 4, "conv weight must be [F, C, K, K]");
    let (f_w, c_in, k) = (wd[0], wd[1], wd[2]);
    assert_eq!(wd[3], k, "only square kernels supported");
    assert_eq!(f_out, f_w, "grad_out has {f_out} filters, weight {f_w}");
    let g = ConvGeom::new(c_in, f_out, k, pad, h, w);
    assert_eq!(ho, g.ho, "grad_out height inconsistent");
    assert_eq!(wo, g.wo, "grad_out width inconsistent");
    let depth = g.depth();
    let mut gin = ws.acquire_uninit([n_batch, c_in, h, w]);
    if gin.is_empty() {
        return gin;
    }

    // Taps are the GEMM's M dimension: the [F, C·K·K] weight storage, read
    // transposed, packed once into MR-tap A tiles of depth F.
    let mut a_tiles = ws.acquire_uninit([depth.div_ceil(MR) * MR * f_out]);
    for t0 in (0..depth).step_by(MR) {
        let tile = &mut a_tiles.data_mut()[t0 * f_out..(t0 + MR) * f_out];
        ops::pack_a_tile(tile, weight.data(), AShape::Transposed, depth, f_out, t0);
    }
    let (parallel, range_items, block_items) = item_ranges(&g, n_batch);
    let cv = FusedConv {
        g,
        a_tiles: a_tiles.data(),
        bias: &[],
        backend: crate::simd::active(),
        block_items,
    };
    let piece = block_items * c_in * g.padded_plane() + f_out * NR;
    let mut scratch = ws.acquire_uninit([n_batch.div_ceil(range_items) * piece]);
    let in_range = range_items * f_out * g.plane();
    let gd = grad_out.data();
    for_each_chunk_zip(
        gin.data_mut(),
        scratch.data_mut(),
        range_items * c_in * h * w,
        piece,
        parallel,
        |range, gchunk, piece| {
            let items = &gd[range * in_range..gd.len().min((range + 1) * in_range)];
            grad_input_range(&cv, items, gchunk, piece);
        },
    );
    ws.release(scratch);
    ws.release(a_tiles);
    gin
}

/// Gradients of the loss w.r.t. the convolution weight (one fused
/// implicit-GEMM pass, see the module docs) and bias; they match
/// [`crate::conv::conv2d_backward_params`] up to float summation order.
///
/// # Panics
///
/// Panics on layout mismatches between `grad_out`, `input` and `k`.
pub fn conv2d_backward_params_im2col(
    grad_out: &Tensor,
    input: &Tensor,
    k: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    conv2d_backward_params_im2col_ws(grad_out, input, k, pad, &mut Workspace::new())
}

/// Packs the `[N·H'·W' × NR]` B panel of taps `j0..j0 + NR` from the staged
/// batch: row `p` holds those taps' inputs at output position `p` (padding
/// as explicit zeros), zero past the last tap.
// mn-lint: hot-path
fn pack_tap_panel(g: &ConvGeom, stage: &[f32], j0: usize, panel: &mut [f32]) {
    let taps = NR.min(g.depth() - j0);
    let mut offsets = [0usize; NR];
    for (j, off) in (j0..).zip(&mut offsets[..taps]) {
        *off = g.tap_offset(j);
    }
    let mut rows = panel.chunks_exact_mut(NR);
    for item in stage.chunks_exact(g.c_in * g.padded_plane()) {
        for oh in 0..g.ho {
            for (ow, row) in (0..g.wo).zip(&mut rows) {
                let corner = &item[oh * g.wp() + ow..];
                for (v, &off) in row[..taps].iter_mut().zip(&offsets) {
                    *v = corner[off];
                }
                row[taps..].fill(0.0);
            }
        }
    }
}

/// [`conv2d_backward_params_im2col`] taking all its scratch (the staged
/// batch, the packed filter tiles and the tap panels) and the returned
/// gradients from a [`Workspace`].
///
/// # Panics
///
/// Panics on layout mismatches between `grad_out`, `input` and `k`.
// mn-lint: hot-path
pub fn conv2d_backward_params_im2col_ws(
    grad_out: &Tensor,
    input: &Tensor,
    k: usize,
    pad: usize,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let gd = grad_out.shape().dims();
    assert_eq!(gd.len(), 4, "conv grad_out must be [N, F, H', W']");
    let (n_batch, f_out, ho, wo) = (gd[0], gd[1], gd[2], gd[3]);
    let id = input.shape().dims();
    assert_eq!(id.len(), 4, "conv input must be [N, C, H, W]");
    let (n_in, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    assert_eq!(n_batch, n_in, "batch mismatch");
    let g = ConvGeom::new(c_in, f_out, k, pad, h, w);
    assert_eq!(ho, g.ho, "grad_out height inconsistent");
    assert_eq!(wo, g.wo, "grad_out width inconsistent");

    // Bias gradient: plain sum over batch and positions, in the same
    // order as the direct kernel (bitwise-equal results).
    let mut gb = ws.acquire([f_out]);
    {
        let gbd = gb.data_mut();
        let g = grad_out.data();
        for n in 0..n_batch {
            for (f, acc) in gbd.iter_mut().enumerate() {
                let gbase = (n * f_out + f) * ho * wo;
                *acc += g[gbase..gbase + ho * wo].iter().sum::<f32>();
            }
        }
    }

    let (plane, depth, positions) = (g.plane(), g.depth(), n_batch * g.plane());
    let mut gw = ws.acquire_uninit([f_out, c_in, k, k]);
    if positions == 0 || gw.is_empty() {
        gw.data_mut().fill(0.0);
        return (gw, gb);
    }

    // Filters are the GEMM's M dimension and output positions its depth:
    // each item's [F, H'·W'] gradient block is a row-major A operand, so
    // the MR-filter A tiles are packed item by item straight from NCHW.
    let mut a_tiles = ws.acquire_uninit([f_out.div_ceil(MR) * MR * positions]);
    for f0 in (0..f_out).step_by(MR) {
        for n in 0..n_batch {
            let part = &mut a_tiles.data_mut()[(f0 * n_batch + n * MR) * plane..][..MR * plane];
            let item = &grad_out.data()[n * f_out * plane..][..f_out * plane];
            ops::pack_a_tile(part, item, AShape::RowMajor, f_out, plane, f0);
        }
    }
    // Taps are N: each NR-tap B panel, packed from the staged batch, meets
    // the range's filter tiles. Ranges of filter tiles fan out, each
    // packing its own panels; inline, one range packs every panel once.
    let mut stage = ws.acquire_uninit([n_batch * c_in * g.padded_plane()]);
    stage_padded(input.data(), stage.data_mut(), n_batch * c_in, h, w, pad);
    let f_tiles = f_out.div_ceil(MR);
    let threads = rayon::current_num_threads();
    let parallel =
        threads > 1 && f_tiles > 1 && positions * depth * f_out >= PARALLEL_MAC_THRESHOLD;
    let range_tiles = f_tiles.div_ceil(if parallel { threads } else { 1 });
    let mut scratch = ws.acquire_uninit([f_tiles.div_ceil(range_tiles) * positions * NR]);
    let backend = crate::simd::active();
    let (staged, tiles) = (stage.data(), a_tiles.data());
    for_each_chunk_zip(
        gw.data_mut(),
        scratch.data_mut(),
        range_tiles * MR * depth,
        positions * NR,
        parallel,
        |range, gw_rows, panel| {
            let mut acc = [0.0f32; MR * NR];
            let tiles = &tiles[range * range_tiles * positions * MR..];
            for j0 in (0..depth).step_by(NR) {
                pack_tap_panel(&g, staged, j0, panel);
                let taps = NR.min(depth - j0);
                for (t, rows) in gw_rows.chunks_mut(MR * depth).enumerate() {
                    let a_tile = &tiles[t * positions * MR..][..positions * MR];
                    crate::simd::microkernel(backend, positions, a_tile, panel, &mut acc);
                    for (row, acc_row) in rows.chunks_exact_mut(depth).zip(acc.chunks_exact(NR)) {
                        row[j0..j0 + taps].copy_from_slice(&acc_row[..taps]);
                    }
                }
            }
        },
    );
    ws.release(scratch);
    ws.release(stage);
    ws.release(a_tiles);
    (gw, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_forward;
    use crate::{assert_close, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn im2col_known_layout() {
        // 1x1x2x2 input, k=1, pad=0: rows are single pixels in order.
        let input = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let cols = im2col(&input, 1, 0);
        assert_eq!(cols.shape().dims(), &[4, 1]);
        assert_eq!(cols.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let input = Tensor::ones([1, 1, 1, 1]);
        let cols = im2col(&input, 3, 1);
        // One output position; its 3x3 window has the 1 at the center.
        assert_eq!(cols.shape().dims(), &[1, 9]);
        assert_eq!(cols.data()[4], 1.0);
        assert_eq!(cols.sum(), 1.0);
    }

    #[test]
    fn matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(3);
        for (k, pad) in [(1usize, 0usize), (3, 1), (5, 2), (3, 0)] {
            let input = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
            let weight = Tensor::randn([4, 3, k, k], 1.0, &mut rng);
            let bias = Tensor::randn([4], 1.0, &mut rng);
            let direct = conv2d_forward(&input, &weight, &bias, pad);
            let gemm = conv2d_forward_im2col(&input, &weight, &bias, pad);
            assert_close(gemm.data(), direct.data(), 1e-4);
        }
    }

    #[test]
    fn workspace_reuse_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ws = Workspace::new();
        let weight = Tensor::randn([4, 3, 3, 3], 1.0, &mut rng);
        let bias = Tensor::randn([4], 1.0, &mut rng);
        for round in 0..3 {
            let input = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
            let fresh = conv2d_forward_im2col(&input, &weight, &bias, 1);
            let reused = conv2d_forward_im2col_ws(&input, &weight, &bias, 1, &mut ws);
            assert_eq!(
                fresh.data(),
                reused.data(),
                "round {round} diverged under workspace reuse"
            );
            ws.release(reused);
        }
    }

    #[test]
    fn stage_padded_writes_every_element() {
        let mut rng = StdRng::seed_from_u64(4);
        let (planes, h, w, pad) = (3, 2, 4, 2);
        let src = Tensor::randn([planes, h, w], 1.0, &mut rng);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let mut dst = vec![f32::NAN; planes * hp * wp];
        stage_padded(src.data(), &mut dst, planes, h, w, pad);
        for (i, &v) in dst.iter().enumerate() {
            let (p, y, x) = (i / (hp * wp), i / wp % hp, i % wp);
            let inside = (pad..pad + h).contains(&y) && (pad..pad + w).contains(&x);
            let want = if inside {
                src.data()[(p * h + y - pad) * w + x - pad]
            } else {
                0.0
            };
            assert_eq!(v.to_bits(), want.to_bits(), "plane {p} row {y} col {x}");
        }
    }

    #[test]
    fn pack_panel_overwrites_every_overhang_and_zeroes_tail_columns() {
        // Two 3x5 items: 30 positions, so the first panel's runs are
        // 5 + 5 + 5 + 1 (crossing into the second item) and the second
        // panel is partial (14 valid columns). Staging and panel start out
        // NaN: whatever pack_panel leaves unwritten, or copies from beyond
        // a run without overwriting it, stays visible.
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor::randn([2, 2, 3, 5], 1.0, &mut rng);
        let g = ConvGeom {
            c_in: 2,
            f_out: 1,
            k: 3,
            pad: 1,
            h: 3,
            w: 5,
            ho: 3,
            wo: 5,
        };
        let cols = im2col(&input, g.k, g.pad);
        let depth = g.depth();
        let mut stage = vec![f32::NAN; 2 * g.c_in * g.padded_plane() + NR];
        stage_padded(input.data(), &mut stage, 2 * g.c_in, g.h, g.w, g.pad);
        let mut runs = [Span::default(); NR];
        for (q0, valid, want_runs) in [(0, NR, 4), (NR, 14, 3)] {
            let n_runs = cut_panel(q0, valid, g.wo, |q| g.staged_offset(q), &mut runs);
            assert_eq!(n_runs, want_runs);
            let mut panel = vec![f32::NAN; depth * NR + NR];
            pack_panel(&g, &stage, &runs[..n_runs], valid, &mut panel);
            for row in 0..depth {
                for col in 0..NR {
                    let want = if col < valid {
                        cols.data()[(q0 + col) * depth + row]
                    } else {
                        0.0
                    };
                    assert_eq!(
                        panel[row * NR + col].to_bits(),
                        want.to_bits(),
                        "panel at {q0}, row {row}, col {col}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channels mismatch")]
    fn validates_channels() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([1, 3, 3, 3]);
        conv2d_forward_im2col(&input, &weight, &Tensor::zeros([1]), 1);
    }
}
