//! The steady-state kernels allocate nothing once their workspace is warm.
//!
//! A counting global allocator tallies every allocation made by the test
//! thread. Each kernel runs once to warm a [`Workspace`], then again on the
//! same shapes; the second round must not allocate at all. This is the
//! measured form of the `mn-lint: hot-path` markers on these kernels: the
//! lint forbids the obvious allocating calls, this test catches the rest.
//!
//! Runs on one thread (a one-worker pool), where the kernels stay inline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mn_tensor::{im2col, ops, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged; the
// only addition is a counter bump in a const-initialised thread-local,
// which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; `ptr` came from
    // `System` through `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn randn(shape: Vec<usize>, seed: u64) -> Tensor {
    Tensor::randn(shape, 1.0, &mut StdRng::seed_from_u64(seed))
}

/// One round of every workspace-fed kernel on a VGG-like layer (batch 32,
/// 8 → 16 channels, 3×3 on 8×8) and a dense layer (32 × 192 → 10).
fn round(ws: &mut Workspace, t: &[Tensor]) {
    let [input, weight, bias, grad_out, a, b, bt] = t else {
        unreachable!("seven operands")
    };
    let y = im2col::conv2d_forward_im2col_ws(input, weight, bias, 1, ws);
    ws.release(y);
    let gin = im2col::conv2d_backward_input_im2col_ws(grad_out, weight, 8, 8, 1, ws);
    ws.release(gin);
    let (gw, gb) = im2col::conv2d_backward_params_im2col_ws(grad_out, input, 3, 1, ws);
    ws.release(gw);
    ws.release(gb);
    let mut c = ws.acquire_uninit([32, 10]);
    ops::matmul_into_ws(a, b, &mut c, ws);
    ops::matmul_nt_into_ws(a, bt, &mut c, ws);
    let mut ct = ws.acquire_uninit([192, 10]);
    ops::matmul_tn_into_ws(a, &c, &mut ct, ws);
    ws.release(ct);
    ws.release(c);
}

#[test]
fn warm_workspace_kernels_allocate_nothing() {
    let operands = [
        randn(vec![32, 8, 8, 8], 1),
        randn(vec![16, 8, 3, 3], 2),
        randn(vec![16], 3),
        randn(vec![32, 16, 8, 8], 4),
        randn(vec![32, 192], 5),
        randn(vec![192, 10], 6),
        randn(vec![10, 192], 7),
    ];
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let mut ws = Workspace::new();
            round(&mut ws, &operands);
            let n = allocations(|| round(&mut ws, &operands));
            assert_eq!(n, 0, "a warm round allocated {n} times");
        });
}
