//! Dense linear-algebra kernels: matrix products, bias broadcast, softmax.
//!
//! All matrices are `[rows, cols]`, row-major. Every function panics on
//! shape mismatch (see crate-level documentation).
//!
//! ## Blocked-kernel layout
//!
//! The three matrix products ([`matmul`], [`matmul_tn`], [`matmul_nt`])
//! share one cache-blocked, register-tiled GEMM core:
//!
//! 1. **Pack B.** The right operand is repacked once per call into
//!    column panels of [`NR`] columns, each panel laid out `[k × NR]`
//!    contiguously (zero-padded past the matrix edge). The transposed
//!    variants differ *only* in their packing routine, so the hot loop is
//!    identical for all three products.
//! 2. **Pack A per row tile.** Each [`MR`]-row tile of the left operand is
//!    repacked into a `[k × MR]` panel so the micro-kernel reads both
//!    operands as unit-stride streams.
//! 3. **Micro-kernel.** An `MR × NR` accumulator tile lives entirely in
//!    registers across the whole `k` loop; each step performs
//!    `MR · NR` fused multiply-adds against one packed row of A and one
//!    packed row of B. Two implementations sit behind the runtime
//!    dispatch in [`crate::simd`]: the portable-scalar reference below
//!    ([`microkernel_scalar`], autovectorized as well as the build flags
//!    allow — dense FMA streams under `target-cpu=native`) and an
//!    explicit AVX2 `std::arch` kernel selected at runtime on capable
//!    CPUs, so a portable binary no longer depends on the compiler flag
//!    for vector code. Both are bitwise identical (see [`crate::simd`]'s
//!    module docs). `MR × NR = 10 × 16` was tuned empirically.
//! 4. **Parallel row bands.** Output rows are split into bands (a few per
//!    worker for load balance, capped at [`BAND_ROWS`] for packed-A
//!    locality) distributed across rayon worker threads. Bands are always
//!    multiples of [`MR`], so the register tiles stay globally aligned and
//!    every output element accumulates its `k` products in the same order
//!    under any banding or schedule — results are **bitwise identical
//!    across thread counts**.
//!
//! The pre-optimization triple-loop kernels survive as [`reference`]; the
//! `kernel_equivalence` property suite pins the blocked kernels to them
//! within `1e-5` across randomized (including degenerate) shapes.

use crate::Tensor;

/// Rows per register tile (see module docs).
pub const MR: usize = 10;
/// Columns per register tile (see module docs).
pub const NR: usize = 16;
/// Maximum output rows per band (packed-A locality cap); a multiple of
/// [`MR`].
pub const BAND_ROWS: usize = 10 * 16;

/// Below this many multiply-adds the whole product runs on the calling
/// thread: spawning workers would cost more than the arithmetic.
const PARALLEL_FLOP_THRESHOLD: usize = 128 * 1024;

pub mod reference {
    //! The original naive (obviously-correct) matrix kernels.
    //!
    //! These are the ground truth the blocked kernels in the parent module
    //! are property-tested against, and the baseline the `kernels` bench
    //! harness measures speedups from. They are not used on any hot path.

    use super::mat_dims;
    use crate::Tensor;

    /// `C = A · B` for `A: [m, k]`, `B: [k, n]`; ikj-ordered triple loop.
    ///
    /// # Panics
    ///
    /// Panics unless `A` and `B` are matrices with matching inner
    /// dimension.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = mat_dims(a, "matmul lhs");
        let (k2, n) = mat_dims(b, "matmul rhs");
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let mut c = Tensor::zeros([m, n]);
        let ad = a.data();
        let bd = b.data();
        let cd = c.data_mut();
        for i in 0..m {
            for p in 0..k {
                let aip = ad[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &bd[p * n..(p + 1) * n];
                let crow = &mut cd[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] += aip * brow[j];
                }
            }
        }
        c
    }

    /// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (no explicit transpose).
    ///
    /// # Panics
    ///
    /// Panics unless both are matrices with matching leading dimension.
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = mat_dims(a, "matmul_tn lhs");
        let (k2, n) = mat_dims(b, "matmul_tn rhs");
        assert_eq!(k, k2, "matmul_tn leading dims differ: {k} vs {k2}");
        let mut c = Tensor::zeros([m, n]);
        let ad = a.data();
        let bd = b.data();
        let cd = c.data_mut();
        for p in 0..k {
            let arow = &ad[p * m..(p + 1) * m];
            let brow = &bd[p * n..(p + 1) * n];
            for i in 0..m {
                let aip = arow[i];
                if aip == 0.0 {
                    continue;
                }
                let crow = &mut cd[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] += aip * brow[j];
                }
            }
        }
        c
    }

    /// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (no explicit transpose).
    ///
    /// # Panics
    ///
    /// Panics unless both are matrices with matching trailing dimension.
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = mat_dims(a, "matmul_nt lhs");
        let (n, k2) = mat_dims(b, "matmul_nt rhs");
        assert_eq!(k, k2, "matmul_nt trailing dims differ: {k} vs {k2}");
        let mut c = Tensor::zeros([m, n]);
        let ad = a.data();
        let bd = b.data();
        let cd = c.data_mut();
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for p in 0..k {
                    acc += arow[p] * brow[p];
                }
                cd[i * n + j] = acc;
            }
        }
        c
    }
}

/// How the GEMM core's packing routines read their operands.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AShape {
    /// `A: [m, k]`, element `(i, p)` at `a[i * k + p]`.
    RowMajor,
    /// `A: [k, m]` interpreted transposed, element `(i, p)` at
    /// `a[p * m + i]`.
    Transposed,
}

/// One fused-multiply-add step, using the hardware FMA instruction when
/// the compilation target has one. Without the guard `f32::mul_add` lowers
/// to a libm call on non-FMA targets, which is far slower than separate
/// mul + add. The explicit AVX2 kernel in [`crate::simd`] follows the
/// same compile-time switch ([`crate::simd::COMPILED_FMA`]), so both
/// backends always round identically.
#[inline(always)]
fn fma(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// The portable-scalar register-tile micro-kernel:
/// `acc[MR × NR] = Apanel · Bpanel` over the full depth `k`, both panels
/// packed unit-stride (see module docs). `acc` is overwritten: every
/// element's fused chain starts from 0, so a caller carrying sums across
/// depth blocks adds them itself. This is the reference path the
/// explicit-SIMD kernel in [`crate::simd`] is pinned bitwise against.
// mn-lint: hot-path
#[inline(always)]
pub(crate) fn microkernel_scalar(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [f32; MR * NR],
) {
    debug_assert!(a_panel.len() >= k * MR);
    debug_assert!(b_panel.len() >= k * NR);
    let mut tile = [[0.0f32; NR]; MR];
    for (a_row, b_row) in a_panel
        .chunks_exact(MR)
        .zip(b_panel.chunks_exact(NR))
        .take(k)
    {
        let b_vec: [f32; NR] = b_row.try_into().unwrap();
        for (r, row) in tile.iter_mut().enumerate() {
            let arp = a_row[r];
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = fma(arp, b_vec[c], *cell);
            }
        }
    }
    for (r, row) in tile.iter().enumerate() {
        acc[r * NR..(r + 1) * NR].copy_from_slice(row);
    }
}

/// Packs the `MR`-row tile of A starting at output row `i0` into
/// `dst: [k × MR]`, zero-padding rows past `m`.
#[inline]
pub(crate) fn pack_a_tile(
    dst: &mut [f32],
    a: &[f32],
    shape: AShape,
    m: usize,
    k: usize,
    i0: usize,
) {
    let rows = MR.min(m - i0);
    match shape {
        AShape::RowMajor => {
            for p in 0..k {
                let d = &mut dst[p * MR..p * MR + MR];
                for (r, v) in d.iter_mut().enumerate() {
                    *v = if r < rows { a[(i0 + r) * k + p] } else { 0.0 };
                }
            }
        }
        AShape::Transposed => {
            for p in 0..k {
                let src = &a[p * m + i0..p * m + i0 + rows];
                let d = &mut dst[p * MR..p * MR + MR];
                d[..rows].copy_from_slice(src);
                d[rows..].fill(0.0);
            }
        }
    }
}

/// Number of `f32` elements a packed-B buffer needs for a `[k, n]` (or
/// transposed `[n, k]`) right operand.
fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs `B: [k, n]` into `NR`-column panels, each `[k × NR]` contiguous,
/// zero-padded past `n`, writing into `buf` (every element is written:
/// the copied columns, then the last panel's tail columns).
fn pack_b_nn_into(b: &[f32], k: usize, n: usize, buf: &mut [f32]) {
    debug_assert_eq!(buf.len(), packed_b_len(k, n));
    for (j0, panel) in (0..n).step_by(NR).zip(buf.chunks_exact_mut(k * NR)) {
        let w = NR.min(n - j0);
        for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
            row[..w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
            row[w..].fill(0.0);
        }
    }
}

/// Packs `B: [n, k]` (used transposed) into the same panel layout as
/// [`pack_b_nn_into`], so `C = A · Bᵀ` shares the micro-kernel.
fn pack_b_nt_into(b: &[f32], k: usize, n: usize, buf: &mut [f32]) {
    debug_assert_eq!(buf.len(), packed_b_len(k, n));
    for (j0, panel) in (0..n).step_by(NR).zip(buf.chunks_exact_mut(k * NR)) {
        let w = NR.min(n - j0);
        for c in 0..w {
            let row = &b[(j0 + c) * k..(j0 + c) * k + k];
            for (p, &v) in row.iter().enumerate() {
                panel[p * NR + c] = v;
            }
        }
        if w < NR {
            for prow in panel.chunks_exact_mut(NR) {
                prow[w..].fill(0.0);
            }
        }
    }
}

/// How a raw GEMM call's right operand is packed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BShape {
    /// `B: [k, n]`, row-major.
    RowMajor,
    /// `B: [n, k]`, used transposed.
    Transposed,
}

/// Stages the packed-B buffer and the packed-A band scratch in `ws` (when
/// given) or a fresh `Vec`, then runs the shared GEMM driver. All public
/// products funnel through here.
#[allow(clippy::too_many_arguments)]
fn gemm_raw(
    a: &[f32],
    a_shape: AShape,
    b: &[f32],
    b_shape: BShape,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    ws: Option<&mut crate::Workspace>,
) {
    let plen = packed_b_len(k, n);
    let bands = RowBands::new(m, n, k);
    let alen = m.div_ceil(bands.range_rows.max(1)) * bands.a_piece(k);
    let mut run = |buf: &mut [f32]| {
        let (bp, a_scratch) = buf.split_at_mut(plen);
        match b_shape {
            _ if bp.is_empty() => {}
            BShape::RowMajor => pack_b_nn_into(b, k, n, bp),
            BShape::Transposed => pack_b_nt_into(b, k, n, bp),
        }
        gemm_driver(a, a_shape, bp, c, (m, n, k), &bands, a_scratch);
    };
    match ws {
        Some(ws) => {
            let mut buf = ws.acquire_uninit([plen + alen]);
            run(buf.data_mut());
            ws.release(buf);
        }
        None => run(&mut vec![0.0f32; plen + alen]),
    }
}

/// How the GEMM driver splits the `m` output rows. A range is one fan-out
/// work item with one private packed-A scratch piece; within a range,
/// bands of at most [`BAND_ROWS`] rows reuse that piece. Inline, one range
/// spans all rows.
struct RowBands {
    parallel: bool,
    range_rows: usize,
}

impl RowBands {
    fn new(m: usize, n: usize, k: usize) -> Self {
        // Range size adapts to the worker count (a few ranges per worker
        // for load balance), capped at BAND_ROWS for packed-A locality.
        // Banding cannot affect numerics: bands are multiples of MR, so the
        // register tiles stay globally MR-aligned and every output element
        // is computed in the same order for ANY band size — results are
        // bitwise identical across thread counts.
        let threads = rayon::current_num_threads();
        let parallel = m * n * k >= PARALLEL_FLOP_THRESHOLD && threads > 1 && m > MR;
        let range_rows = if parallel {
            (m.div_ceil(4 * threads).div_ceil(MR) * MR).min(BAND_ROWS)
        } else {
            m
        };
        RowBands {
            parallel,
            range_rows,
        }
    }

    /// Floats of packed-A scratch one range needs: one band's A tiles.
    fn a_piece(&self, k: usize) -> usize {
        self.range_rows.min(BAND_ROWS).div_ceil(MR) * MR * k
    }
}

/// The shared GEMM driver: writes `C = op(A) · op(B)` into `c`, which must
/// hold `m * n` elements. Every element of `c` is overwritten. `a_scratch`
/// holds one [`RowBands::a_piece`] per range.
// mn-lint: hot-path
fn gemm_driver(
    a: &[f32],
    a_shape: AShape,
    b_packed: &[f32],
    c: &mut [f32],
    (m, n, k): (usize, usize, usize),
    bands: &RowBands,
    a_scratch: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let panels = n.div_ceil(NR);
    // Resolve the kernel backend once per product; the per-tile dispatch
    // below is then a branch on a `Copy` enum. Backends are bitwise
    // identical (see `crate::simd`), so dispatch cannot affect results.
    let backend = crate::simd::active();
    let range = |range_idx: usize, crange: &mut [f32], a_piece: &mut [f32]| {
        for (band_idx, cband) in crange.chunks_mut(BAND_ROWS * n).enumerate() {
            let i_base = range_idx * bands.range_rows + band_idx * BAND_ROWS;
            let band_rows = cband.len() / n;
            let a_band = &mut a_piece[..band_rows.div_ceil(MR) * MR * k];
            // Pack the band's A tiles once; the j-panel loop then runs
            // outermost so each 16-or-so-KB B panel stays L1-resident
            // across every tile.
            for (t, a_panel) in a_band.chunks_mut(k * MR).enumerate() {
                pack_a_tile(a_panel, a, a_shape, m, k, i_base + t * MR);
            }
            for jp in 0..panels {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                let b_panel = &b_packed[jp * k * NR..(jp + 1) * k * NR];
                for (t, a_panel) in a_band.chunks(k * MR).enumerate() {
                    let it = t * MR;
                    let rows = MR.min(band_rows - it);
                    let mut acc = [0.0f32; MR * NR];
                    crate::simd::microkernel(backend, k, a_panel, b_panel, &mut acc);
                    for r in 0..rows {
                        cband[(it + r) * n + j0..(it + r) * n + j0 + w]
                            .copy_from_slice(&acc[r * NR..r * NR + w]);
                    }
                }
            }
        }
    };
    crate::chunking::for_each_chunk_zip(
        c,
        a_scratch,
        bands.range_rows * n,
        bands.a_piece(k),
        bands.parallel,
        range,
    );
}

/// A borrowed row-major matrix view over contiguous `f32` storage.
///
/// Every GEMM entry point takes its operands as `impl Into<MatRef>`, so a
/// plain 2-D [`Tensor`] works directly — and callers whose storage is
/// already the right matrix under a different logical shape (the
/// convolution backward pass reads the `[F, C, K, K]` weight tensor as its
/// `[F, C·K·K]` matrix) route through the same public entry points via
/// [`MatRef::reshaped`], with no reshape copy and no raw side doors.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatRef<'a> {
    /// Views `rows × cols` contiguous elements as a row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix view [{rows}, {cols}] needs {} elements, got {}",
            rows * cols,
            data.len()
        );
        MatRef { data, rows, cols }
    }

    /// Views a tensor of any rank as a `[rows, cols]` matrix over its
    /// existing storage (row-major, no copy).
    ///
    /// # Panics
    ///
    /// Panics unless the tensor holds exactly `rows * cols` elements.
    pub fn reshaped(t: &'a Tensor, rows: usize, cols: usize) -> Self {
        MatRef::new(t.data(), rows, cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }
}

impl<'a> From<&'a Tensor> for MatRef<'a> {
    fn from(t: &'a Tensor) -> Self {
        let (rows, cols) = mat_dims(t, "matrix operand");
        MatRef {
            data: t.data(),
            rows,
            cols,
        }
    }
}

/// `C = A · B` for `A: [m, k]`, `B: [k, n]` — cache-blocked and
/// register-tiled (see module docs).
///
/// # Panics
///
/// Panics unless `A` and `B` are matrices with matching inner dimension.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "matmul lhs");
    let (_, n) = mat_dims(b, "matmul rhs");
    let mut c = Tensor::zeros([m, n]);
    matmul_into(a, b, &mut c);
    c
}

/// [`matmul`] writing into a caller-provided (e.g. workspace-acquired)
/// output tensor. Every element of `c` is overwritten. Operands are
/// anything viewable as a matrix (a 2-D [`Tensor`] or a [`MatRef`]).
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_into<'a>(a: impl Into<MatRef<'a>>, b: impl Into<MatRef<'a>>, c: &mut Tensor) {
    matmul_into_dispatch(a.into(), b.into(), c, None);
}

/// [`matmul_into`] staging the GEMM's packed-B operand buffer in a
/// [`Workspace`], so repeated products reuse it instead of reallocating.
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_into_ws<'a>(
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'a>>,
    c: &mut Tensor,
    ws: &mut crate::Workspace,
) {
    matmul_into_dispatch(a.into(), b.into(), c, Some(ws));
}

fn matmul_into_dispatch(a: MatRef, b: MatRef, c: &mut Tensor, ws: Option<&mut crate::Workspace>) {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    assert_eq!(
        c.shape().dims(),
        &[m, n],
        "matmul output must be [{m}, {n}]"
    );
    gemm_raw(
        a.data(),
        AShape::RowMajor,
        b.data(),
        BShape::RowMajor,
        c.data_mut(),
        m,
        n,
        k,
        ws,
    );
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (no explicit transpose) —
/// cache-blocked and register-tiled (see module docs).
///
/// # Panics
///
/// Panics unless both are matrices with matching leading dimension.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (_, m) = mat_dims(a, "matmul_tn lhs");
    let (_, n) = mat_dims(b, "matmul_tn rhs");
    let mut c = Tensor::zeros([m, n]);
    matmul_tn_into(a, b, &mut c);
    c
}

/// [`matmul_tn`] writing into a caller-provided output tensor. Operands
/// are anything viewable as a matrix (a 2-D [`Tensor`] or a [`MatRef`]).
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_tn_into<'a>(a: impl Into<MatRef<'a>>, b: impl Into<MatRef<'a>>, c: &mut Tensor) {
    matmul_tn_into_dispatch(a.into(), b.into(), c, None);
}

/// [`matmul_tn_into`] staging the GEMM's packed-B operand buffer in a
/// [`Workspace`].
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_tn_into_ws<'a>(
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'a>>,
    c: &mut Tensor,
    ws: &mut crate::Workspace,
) {
    matmul_tn_into_dispatch(a.into(), b.into(), c, Some(ws));
}

fn matmul_tn_into_dispatch(
    a: MatRef,
    b: MatRef,
    c: &mut Tensor,
    ws: Option<&mut crate::Workspace>,
) {
    let (k, m) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_tn leading dims differ: {k} vs {k2}");
    assert_eq!(
        c.shape().dims(),
        &[m, n],
        "matmul_tn output must be [{m}, {n}]"
    );
    gemm_raw(
        a.data(),
        AShape::Transposed,
        b.data(),
        BShape::RowMajor,
        c.data_mut(),
        m,
        n,
        k,
        ws,
    );
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (no explicit transpose) —
/// cache-blocked and register-tiled (see module docs).
///
/// # Panics
///
/// Panics unless both are matrices with matching trailing dimension.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "matmul_nt lhs");
    let (n, _) = mat_dims(b, "matmul_nt rhs");
    let mut c = Tensor::zeros([m, n]);
    matmul_nt_into(a, b, &mut c);
    c
}

/// [`matmul_nt`] writing into a caller-provided output tensor. Operands
/// are anything viewable as a matrix (a 2-D [`Tensor`] or a [`MatRef`]).
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_nt_into<'a>(a: impl Into<MatRef<'a>>, b: impl Into<MatRef<'a>>, c: &mut Tensor) {
    matmul_nt_into_dispatch(a.into(), b.into(), c, None);
}

/// [`matmul_nt_into`] staging the GEMM's packed-B operand buffer in a
/// [`Workspace`].
///
/// # Panics
///
/// Panics on operand shape mismatch or if `c` is not `[m, n]`.
pub fn matmul_nt_into_ws<'a>(
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'a>>,
    c: &mut Tensor,
    ws: &mut crate::Workspace,
) {
    matmul_nt_into_dispatch(a.into(), b.into(), c, Some(ws));
}

fn matmul_nt_into_dispatch(
    a: MatRef,
    b: MatRef,
    c: &mut Tensor,
    ws: Option<&mut crate::Workspace>,
) {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_nt trailing dims differ: {k} vs {k2}");
    assert_eq!(
        c.shape().dims(),
        &[m, n],
        "matmul_nt output must be [{m}, {n}]"
    );
    gemm_raw(
        a.data(),
        AShape::RowMajor,
        b.data(),
        BShape::Transposed,
        c.data_mut(),
        m,
        n,
        k,
        ws,
    );
}

/// Transposes a matrix.
///
/// # Panics
///
/// Panics if `a` is not 2-D.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = mat_dims(a, "transpose");
    let mut t = Tensor::zeros([n, m]);
    for i in 0..m {
        for j in 0..n {
            *t.at2_mut(j, i) = a.at2(i, j);
        }
    }
    t
}

/// Adds a bias row-vector `bias: [n]` to every row of `x: [m, n]`, in
/// place — each row is one dispatched axpy ([`crate::simd::axpy`] with
/// `alpha = 1`), so the broadcast rides the explicit-SIMD backend too.
///
/// # Panics
///
/// Panics unless `x` is a matrix and `bias` a vector of matching width.
pub fn add_row_bias(x: &mut Tensor, bias: &Tensor) {
    let (m, n) = mat_dims(x, "add_row_bias input");
    assert_eq!(
        bias.shape().dims(),
        &[n],
        "bias shape {} does not match row width {n}",
        bias.shape()
    );
    let bd = bias.data();
    let xd = x.data_mut();
    for i in 0..m {
        crate::simd::axpy(1.0, bd, &mut xd[i * n..(i + 1) * n]);
    }
}

/// Column sums of a matrix `x: [m, n]`, returned as `[n]`.
///
/// This is the bias gradient of a dense layer.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn column_sums(x: &Tensor) -> Tensor {
    let (_, n) = mat_dims(x, "column_sums");
    let mut s = Tensor::zeros([n]);
    column_sums_into(x, &mut s);
    s
}

/// [`column_sums`] writing into a caller-provided (e.g.
/// workspace-acquired) `[n]` output; every element is overwritten. Wide
/// matrices split the column range across rayon workers (each worker owns
/// a disjoint column band and scans the rows in order, so the result is
/// bitwise identical across thread counts).
///
/// # Panics
///
/// Panics if `x` is not 2-D or `out` is not `[n]`.
pub fn column_sums_into(x: &Tensor, out: &mut Tensor) {
    let (m, n) = mat_dims(x, "column_sums");
    assert_eq!(out.shape().dims(), &[n], "column_sums output must be [{n}]");
    let xd = x.data();
    // One cache line of f32 per column band keeps bands false-sharing-free.
    const COL_BAND: usize = 16;
    let worthwhile = m * n >= PARALLEL_FLOP_THRESHOLD;
    crate::chunking::for_each_chunk(out.data_mut(), COL_BAND, worthwhile, |band, schunk| {
        let j0 = band * COL_BAND;
        schunk.fill(0.0);
        for i in 0..m {
            let row = &xd[i * n + j0..i * n + j0 + schunk.len()];
            for (s, &v) in schunk.iter_mut().zip(row) {
                *s += v;
            }
        }
    });
}

/// Row-wise numerically-stable softmax, in place, for `x: [m, n]`.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows(x: &mut Tensor) {
    let (m, n) = mat_dims(x, "softmax_rows");
    let xd = x.data_mut();
    for i in 0..m {
        let row = &mut xd[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Index of the maximum element of each row of `x: [m, n]`.
///
/// Ties resolve to the lowest index.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn argmax_rows(x: &Tensor) -> Vec<usize> {
    let (m, n) = mat_dims(x, "argmax_rows");
    let xd = x.data();
    (0..m)
        .map(|i| {
            let row = &xd[i * n..(i + 1) * n];
            let mut best = 0;
            for j in 1..n {
                if row[j] > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

fn mat_dims(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().ndim(), 2, "{what} must be 2-D, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn([4, 4], 1.0, &mut rng);
        let c = matmul(&a, &Tensor::eye(4));
        assert_close(c.data(), a.data(), 1e-6);
    }

    #[test]
    fn matref_reshaped_view_matches_reshape_copy() {
        // A 4-D tensor viewed as its flattened matrix must multiply exactly
        // like an explicit reshape copy — this is the im2col weight path.
        let mut rng = StdRng::seed_from_u64(11);
        let w4 = Tensor::randn([4, 3, 3, 3], 1.0, &mut rng);
        let a = Tensor::randn([6, 27], 1.0, &mut rng);
        let wmat = w4.reshape([4, 27]);
        let mut via_view = Tensor::zeros([6, 4]);
        matmul_nt_into(&a, MatRef::reshaped(&w4, 4, 27), &mut via_view);
        let mut via_copy = Tensor::zeros([6, 4]);
        matmul_nt_into(&a, &wmat, &mut via_copy);
        assert_eq!(via_view.data(), via_copy.data());
        let view = MatRef::reshaped(&w4, 4, 27);
        assert_eq!((view.rows(), view.cols()), (4, 27));
        assert_eq!(view.data().len(), 108);
    }

    #[test]
    #[should_panic(expected = "must be 2-D")]
    fn matref_from_tensor_rejects_non_matrix() {
        let t = Tensor::zeros([2, 2, 2]);
        let _ = MatRef::from(&t);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn matref_reshaped_rejects_wrong_element_count() {
        let t = Tensor::zeros([2, 3]);
        let _ = MatRef::reshaped(&t, 2, 4);
    }

    #[test]
    fn blocked_matmul_matches_reference_beyond_band_size() {
        // Spans multiple bands, register tiles, and ragged edges at once.
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn([2 * BAND_ROWS + 3, 37], 1.0, &mut rng);
        let b = Tensor::randn([37, 2 * NR + 5], 1.0, &mut rng);
        assert_close(
            matmul(&a, &b).data(),
            reference::matmul(&a, &b).data(),
            1e-5,
        );
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn([5, 3], 1.0, &mut rng);
        let b = Tensor::randn([5, 4], 1.0, &mut rng);
        let via_tn = matmul_tn(&a, &b);
        let via_t = matmul(&transpose(&a), &b);
        assert_close(via_tn.data(), via_t.data(), 1e-5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn([5, 3], 1.0, &mut rng);
        let b = Tensor::randn([4, 3], 1.0, &mut rng);
        let via_nt = matmul_nt(&a, &b);
        let via_t = matmul(&a, &transpose(&b));
        assert_close(via_nt.data(), via_t.data(), 1e-5);
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn([9, 7], 1.0, &mut rng);
        let b = Tensor::randn([7, 11], 1.0, &mut rng);
        let mut c = Tensor::filled([9, 11], f32::NAN);
        matmul_into(&a, &b, &mut c);
        assert_close(c.data(), reference::matmul(&a, &b).data(), 1e-5);
    }

    #[test]
    fn empty_operands_produce_empty_products() {
        let a = Tensor::zeros([0, 5]);
        let b = Tensor::zeros([5, 4]);
        assert_eq!(matmul(&a, &b).shape().dims(), &[0, 4]);
        let a = Tensor::zeros([3, 0]);
        let b = Tensor::zeros([0, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape().dims(), &[3, 4]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn([3, 5], 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn bias_broadcast() {
        let mut x = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec([3], vec![1., 2., 3.]);
        add_row_bias(&mut x, &b);
        assert_eq!(x.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn column_sums_are_bias_grad() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 10., 20., 30.]);
        let s = column_sums(&x);
        assert_eq!(s.data(), &[11., 22., 33.]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let mut x = Tensor::from_vec([2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        softmax_rows(&mut x);
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| x.at2(i, j)).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Large logits must not overflow (stability check).
        assert!((x.at2(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        // Monotone in logits.
        assert!(x.at2(0, 2) > x.at2(0, 1) && x.at2(0, 1) > x.at2(0, 0));
    }

    #[test]
    fn argmax_ties_to_lowest() {
        let x = Tensor::from_vec([2, 3], vec![5., 5., 1., 0., 2., 2.]);
        assert_eq!(argmax_rows(&x), vec![0, 1]);
    }
}
