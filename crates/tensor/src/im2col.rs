//! Convolution lowered onto the GEMM micro-kernel ([`crate::ops`]): a fused
//! implicit-GEMM forward pass, and im2col + GEMM backward passes.
//!
//! ## Forward: one fused pass, no patch matrix
//!
//! [`conv2d_forward_im2col_ws`] computes `out[n, f, oh, ow] = bias[f] +
//! Σ_(c,kh,kw) w[f, c, kh, kw] · x[n, c, oh+kh−pad, ow+kw−pad]` as the
//! product `[F, C·K·K] × [C·K·K, N·H'·W']` without ever materialising the
//! right-hand matrix:
//!
//! * **M = filters.** The `[F, C, K, K]` weight storage already is the
//!   row-major `[F, C·K·K]` left operand; it is packed into [`MR`]-row A
//!   tiles once per call.
//! * **N = output positions** `n·H'·W' + oh·W' + ow`, [`NR`] per panel.
//!   Panels run across image boundaries, so small planes (2×2, 4×4) still
//!   fill them.
//! * **Per block of batch items** (the fewest whose positions fill whole
//!   panels) the input planes are copied once into a zero-bordered staging
//!   buffer. **Per panel**, the `[C·K·K × NR]` B panel is packed straight
//!   from that staging copy — each tap `(c, kh, kw)` of a run of positions
//!   in one output row is one contiguous, fixed-length copy — the
//!   micro-kernel runs once per filter tile, and the register tile plus the
//!   bias is stored directly into NCHW. The panel stays L1-resident; the
//!   9×-expanded patch matrix, its re-packing, the `[N·H'·W', F]` product
//!   and the transpose back to NCHW do not exist.
//! * **Scratch** (A tiles, staging, panel) comes from the [`Workspace`].
//!   The batch fans out over disjoint ranges of batch items through
//!   [`crate::chunking`], one private scratch piece per range; inline, one
//!   piece serves the whole batch.
//!
//! The bits are those of the composition this replaced (`im2col_into`,
//! `matmul_nt_into`, transpose + bias — kept as the `to_bits` reference in
//! the `kernel_equivalence` suite): every output element is still one
//! multiply-add chain from 0 over `(c, kh, kw)` ascending — padding taps
//! included, as explicit zeros — in the same micro-kernel, with the bias
//! added last. Making the filters the A operand only swaps the two factors
//! of each product. Which panel column, block, range or thread computes an
//! element cannot matter, so an example's output does not depend on the
//! rest of its batch.
//!
//! With the register-tiled kernel this wins whenever the reduction depth
//! `C·K·K` is non-trivial; the direct kernel ([`crate::conv`]) wins for
//! very shallow reductions (e.g. 1×1 kernels on few channels). The
//! `ConvLayer` in `mn-nn` picks between them per layer shape, and the
//! property tests pin both to identical outputs.
//!
//! ## Backward: im2col + GEMM
//!
//! [`im2col_into`] unfolds the input into the explicit `[N·H'·W', C·K·K]`
//! patch matrix (its batch loop fans out across rayon workers, one batch
//! item's rows per work unit — disjoint output, bitwise-deterministic):
//!
//! * input gradient ([`conv2d_backward_input_im2col`]) — multiply the
//!   rearranged upstream gradient `[N·H'·W', F]` by the `[F, C·K·K]`
//!   weight view, then fold overlapping receptive fields back with the
//!   col2im scatter ([`col2im_accumulate_into`]);
//! * weight gradient ([`conv2d_backward_params_im2col`]) — the
//!   im2col-transposed product `[N·H'·W', F]ᵀ × [N·H'·W', C·K·K]`.
//!
//! The direct loops in [`crate::conv`] survive as the ground truth the
//! `gradient_equivalence` property suite pins these kernels against.

use crate::chunking::{for_each_chunk, for_each_chunk_zip};
use crate::conv::conv_out_extent;
use crate::ops::{AShape, MatRef, MR, NR};
use crate::{ops, Tensor, Workspace};

/// Below this many copied elements the unfold runs on the calling thread.
const PARALLEL_COPY_THRESHOLD: usize = 64 * 1024;

/// Below this many multiply-adds the fused forward convolution runs on the
/// calling thread. Measured on two threads of the development sandbox,
/// whose rayon stand-in spawns its workers per call (about 70 µs): fanning
/// out breaks even near 2.4 M multiply-adds, loses 2× at 0.6 M and gains
/// 1.25× or more from 3.5 M up.
const PARALLEL_MAC_THRESHOLD: usize = 4 * 1024 * 1024;

/// Unfolds `input: [N, C, H, W]` into the im2col matrix
/// `[N·H'·W', C·K·K]`, where each row is the receptive field of one output
/// position (zero-padded out of bounds).
///
/// # Panics
///
/// Panics if the input is not 4-D or the kernel (less padding) exceeds the
/// input extent.
pub fn im2col(input: &Tensor, k: usize, pad: usize) -> Tensor {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "im2col input must be [N, C, H, W]");
    let (n_batch, c_in, h, w) = (d[0], d[1], d[2], d[3]);
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    let mut out = Tensor::zeros([n_batch * ho * wo, c_in * k * k]);
    im2col_into(input, k, pad, &mut out);
    out
}

/// [`im2col`] writing into a caller-provided output tensor.
///
/// `out` must be `[N·H'·W', C·K·K]`; every element is written (zeros for
/// out-of-bounds receptive-field positions), so the buffer need not be
/// zeroed beforehand.
///
/// # Panics
///
/// Panics on layout mismatches, including a wrongly shaped `out`.
pub fn im2col_into(input: &Tensor, k: usize, pad: usize, out: &mut Tensor) {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "im2col input must be [N, C, H, W]");
    let (n_batch, c_in, h, w) = (d[0], d[1], d[2], d[3]);
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    let row_len = c_in * k * k;
    assert_eq!(
        out.shape().dims(),
        &[n_batch * ho * wo, row_len],
        "im2col output must be [{}, {row_len}]",
        n_batch * ho * wo
    );
    let id = input.data();
    let ipad = pad as isize;
    let per_item = ho * wo * row_len;
    let total = n_batch * per_item;
    let unfold_item = |n: usize, ochunk: &mut [f32]| {
        for oh in 0..ho {
            for ow in 0..wo {
                let row = (oh * wo + ow) * row_len;
                for c in 0..c_in {
                    let ibase = (n * c_in + c) * h * w;
                    for kh in 0..k {
                        let obase = row + (c * k + kh) * k;
                        let ih = oh as isize + kh as isize - ipad;
                        if ih < 0 || ih as usize >= h {
                            ochunk[obase..obase + k].fill(0.0); // padding
                            continue;
                        }
                        let irow = ibase + ih as usize * w;
                        for kw in 0..k {
                            let iw = ow as isize + kw as isize - ipad;
                            ochunk[obase + kw] = if iw >= 0 && (iw as usize) < w {
                                id[irow + iw as usize]
                            } else {
                                0.0 // padding
                            };
                        }
                    }
                }
            }
        }
    };
    for_each_chunk(
        out.data_mut(),
        per_item,
        total >= PARALLEL_COPY_THRESHOLD,
        unfold_item,
    );
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

/// Shape of one forward convolution, shared by the fused kernel's helpers.
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

/// What every range of one forward convolution shares: the shape, the
/// packed filter tiles, the bias, the micro-kernel backend and how many
/// batch items are staged at a time.
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
    let g = ConvGeom {
        c_in: c_w,
        f_out,
        k,
        pad,
        h,
        w,
        ho: conv_out_extent(h, k, pad),
        wo: conv_out_extent(w, k, pad),
    };
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

    // Output positions are the N dimension, NR per panel; panels run
    // across image boundaries, so `unit` items are the least whose
    // positions fill whole panels. A range (one fan-out work item) covers
    // whole units unless the batch is no larger than one: then each image
    // is its own range, ending in one partial panel, rather than the whole
    // batch serialising. Inline, one range spans the batch and its single
    // scratch piece is reused block by block.
    let unit = NR / gcd(plane, NR);
    let threads = rayon::current_num_threads();
    let parallel =
        threads > 1 && n_batch > 1 && n_batch * plane * depth * f_out >= PARALLEL_MAC_THRESHOLD;
    let range_items = if !parallel {
        n_batch
    } else if n_batch <= unit {
        1
    } else {
        n_batch.div_ceil(unit).div_ceil(4 * threads) * unit
    };
    let cv = FusedConv {
        g,
        a_tiles: a_tiles.data(),
        bias: bias.data(),
        backend: crate::simd::active(),
        block_items: unit.min(range_items),
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

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Rearranges `grad_out: [N, F, H', W']` into the GEMM-ready matrix
/// `[N·H'·W', F]` (the transpose of the forward path's product layout),
/// staging the output in `ws`. The batch loop fans out across rayon
/// workers (disjoint output rows per item).
fn grad_out_to_mat_ws(grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
    let d = grad_out.shape().dims();
    assert_eq!(d.len(), 4, "conv grad_out must be [N, F, H', W']");
    let (n_batch, f_out, ho, wo) = (d[0], d[1], d[2], d[3]);
    let positions = ho * wo;
    let mut mat = ws.acquire_uninit([n_batch * positions, f_out]);
    let gd = grad_out.data();
    let per_item = positions * f_out;
    for_each_chunk(
        mat.data_mut(),
        per_item,
        n_batch * per_item >= PARALLEL_COPY_THRESHOLD,
        |n, mchunk| {
            let gbase = n * f_out * positions;
            for f in 0..f_out {
                let grow = gbase + f * positions;
                for p in 0..positions {
                    mchunk[p * f_out + f] = gd[grow + p];
                }
            }
        },
    );
    mat
}

/// Folds an im2col-layout gradient matrix `cols: [N·H'·W', C·K·K]` back
/// into an input-shaped gradient `out: [N, C, H, W]`, accumulating
/// overlapping receptive-field contributions (the col2im scatter). Every
/// element of `out` is overwritten (zeroed first), so the buffer may come
/// from [`Workspace::acquire_uninit`].
///
/// The batch loop fans out across rayon workers; within one item the
/// scatter runs in a fixed order, so results are bitwise identical across
/// thread counts.
///
/// # Panics
///
/// Panics on layout mismatches between `cols`, `k`, `pad` and `out`.
pub fn col2im_accumulate_into(cols: &Tensor, k: usize, pad: usize, out: &mut Tensor) {
    let d = *out.shape();
    let d = d.dims();
    assert_eq!(d.len(), 4, "col2im output must be [N, C, H, W]");
    let (n_batch, c_in, h, w) = (d[0], d[1], d[2], d[3]);
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    let row_len = c_in * k * k;
    assert_eq!(
        cols.shape().dims(),
        &[n_batch * ho * wo, row_len],
        "col2im input must be [{}, {row_len}]",
        n_batch * ho * wo
    );
    let cd = cols.data();
    let ipad = pad as isize;
    let per_item = c_in * h * w;
    let total = n_batch * ho * wo * row_len;
    for_each_chunk(
        out.data_mut(),
        per_item,
        total >= PARALLEL_COPY_THRESHOLD,
        |n, gchunk| {
            gchunk.fill(0.0);
            for oh in 0..ho {
                for ow in 0..wo {
                    let row = ((n * ho + oh) * wo + ow) * row_len;
                    for c in 0..c_in {
                        let ibase = c * h * w;
                        for kh in 0..k {
                            let ih = oh as isize + kh as isize - ipad;
                            if ih < 0 || ih as usize >= h {
                                continue; // padding rows carry no gradient
                            }
                            let irow = ibase + ih as usize * w;
                            let cbase = row + (c * k + kh) * k;
                            for kw in 0..k {
                                let iw = ow as isize + kw as isize - ipad;
                                if iw >= 0 && (iw as usize) < w {
                                    gchunk[irow + iw as usize] += cd[cbase + kw];
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Gradient of the loss w.r.t. the convolution input via the blocked GEMM
/// core: `[N·H'·W', F] × [F, C·K·K]` followed by a col2im fold. Matches
/// [`crate::conv::conv2d_backward_input`] up to float summation order
/// (pinned by the `gradient_equivalence` suite).
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

/// [`conv2d_backward_input_im2col`] staging every intermediate (the
/// rearranged gradient matrix, the GEMM product, and the returned input
/// gradient) in a [`Workspace`].
///
/// # Panics
///
/// Panics on the same layout violations as the direct kernel.
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
    assert_eq!(
        f_out, f_w,
        "grad_out filters {f_out} != weight filters {f_w}"
    );
    assert_eq!(
        ho,
        conv_out_extent(h, k, pad),
        "grad_out height inconsistent"
    );
    assert_eq!(
        wo,
        conv_out_extent(w, k, pad),
        "grad_out width inconsistent"
    );

    let positions = n_batch * ho * wo;
    let row_len = c_in * k * k;
    // cols_grad[(n,oh,ow), (c,kh,kw)] = Σ_f g[n,f,oh,ow] · w[f,c,kh,kw]:
    // a [NHW, F] × [F, CKK] product straight onto the weight storage.
    let gmat = grad_out_to_mat_ws(grad_out, ws);
    let mut cols_grad = ws.acquire_uninit([positions, row_len]);
    ops::matmul_into_ws(
        &gmat,
        MatRef::reshaped(weight, f_out, row_len),
        &mut cols_grad,
        ws,
    );
    ws.release(gmat);
    let mut gin = ws.acquire_uninit([n_batch, c_in, h, w]);
    col2im_accumulate_into(&cols_grad, k, pad, &mut gin);
    ws.release(cols_grad);
    gin
}

/// Gradients of the loss w.r.t. the convolution weight and bias via the
/// blocked GEMM core: the weight gradient is the im2col-transposed
/// product `[N·H'·W', F]ᵀ × [N·H'·W', C·K·K]`. Matches
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

/// [`conv2d_backward_params_im2col`] staging every intermediate (unfold
/// matrix, gradient matrix, and the returned gradients) in a
/// [`Workspace`].
///
/// # Panics
///
/// Panics on layout mismatches between `grad_out`, `input` and `k`.
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
    assert_eq!(
        ho,
        conv_out_extent(h, k, pad),
        "grad_out height inconsistent"
    );
    assert_eq!(
        wo,
        conv_out_extent(w, k, pad),
        "grad_out width inconsistent"
    );

    let positions = n_batch * ho * wo;
    let row_len = c_in * k * k;

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

    // Weight gradient: gw = gmatᵀ · cols over the full batch of output
    // positions. The product is computed in the GEMM's [F, CKK] matrix
    // layout, then the owned output is relabeled to the weight's
    // [F, C, K, K] shape (same storage, no copy).
    let mut cols = ws.acquire_uninit([positions, row_len]);
    im2col_into(input, k, pad, &mut cols);
    let gmat = grad_out_to_mat_ws(grad_out, ws);
    let mut gw = ws.acquire_uninit([f_out, row_len]);
    ops::matmul_tn_into_ws(&gmat, &cols, &mut gw, ws);
    gw.reshape_in_place([f_out, c_in, k, k]);
    ws.release(gmat);
    ws.release(cols);
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
