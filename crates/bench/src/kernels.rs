//! Kernel- and engine-level speedup measurements (the "BENCH json"
//! numbers backing the performance-layer claims).
//!
//! The headline comparisons:
//!
//! * **matmul** — the blocked, register-tiled [`mn_tensor::ops::matmul`]
//!   vs the naive [`mn_tensor::ops::reference::matmul`] on a
//!   256×256×256 product;
//! * **conv layer** — im2col + blocked GEMM vs the direct (pre-PR)
//!   kernel on a representative VGG-style layer shape;
//! * **SIMD dispatch** — the same blocked GEMM with the micro-kernel
//!   dispatched to the explicit-AVX2 backend vs pinned to the portable
//!   scalar backend (skipped on CPUs without AVX2+FMA). The
//!   [`KernelBenchResult::compiled_avx2`] flag records whether the build
//!   itself targeted AVX2, which decides where CI gates the speedup;
//! * **ensemble inference** — the batched parallel
//!   [`mn_ensemble::EngineSession`] vs the naive path — members run
//!   one-by-one on a single thread with the pre-PR direct convolution
//!   formulation and no workspace reuse — on an 8-member convolutional
//!   ensemble.
//!
//! Run via `cargo run --release -p mn-bench --bin kernels` — prints a
//! table and saves `results/kernels.json`.

use mn_ensemble::{EnginePlan, EnsembleMember, MemberPredictions};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec};
use mn_nn::layers::ConvFormulation;
use mn_nn::{LayerNode, Network};
use mn_tensor::{conv, im2col, ops, Tensor, Workspace};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::report::{median_ms, render_table};

/// One timed comparison: a baseline implementation vs its optimized
/// replacement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelComparison {
    /// What is being measured.
    pub name: String,
    /// Baseline (naive path) milliseconds per call, median over reps.
    pub baseline_ms: f64,
    /// Optimized path milliseconds per call, median over reps.
    pub optimized_ms: f64,
    /// `baseline_ms / optimized_ms`.
    pub speedup: f64,
}

/// The full kernel-bench report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelBenchResult {
    /// Worker threads available to the parallel paths.
    pub threads: usize,
    /// Whether the *build* already compiles AVX2 into the scalar path
    /// (`target-cpu=native` on an AVX2+ host). CI gates the explicit-SIMD
    /// speedup only when this is `false`: on native builds the
    /// autovectorized scalar path is itself AVX2/AVX-512 code, so the
    /// explicit kernel's win shows on *portable* builds (the artifact
    /// every non-native deployment actually runs).
    pub compiled_avx2: bool,
    /// The kernel backend runtime dispatch selected for this run
    /// (`"scalar"` or `"avx2"`, after `MN_SIMD` and auto-detection).
    pub simd_backend: String,
    /// All comparisons, in measurement order.
    pub comparisons: Vec<KernelComparison>,
}

impl KernelBenchResult {
    /// Looks up a comparison by name.
    pub fn get(&self, name: &str) -> Option<&KernelComparison> {
        self.comparisons.iter().find(|c| c.name == name)
    }

    /// Renders the report as a fixed-width table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .comparisons
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    format!("{:.3}", c.baseline_ms),
                    format!("{:.3}", c.optimized_ms),
                    format!("{:.2}x", c.speedup),
                ]
            })
            .collect();
        render_table(
            &["comparison", "baseline ms", "optimized ms", "speedup"],
            &rows,
        )
    }
}

fn compare(
    name: &str,
    reps: usize,
    baseline: impl FnMut(),
    optimized: impl FnMut(),
) -> KernelComparison {
    let baseline_ms = median_ms(reps, baseline);
    let optimized_ms = median_ms(reps, optimized);
    KernelComparison {
        name: name.to_string(),
        baseline_ms,
        optimized_ms,
        speedup: baseline_ms / optimized_ms.max(1e-9),
    }
}

/// Forces every convolution in a network onto `formulation` (the
/// benchmark's lever for reproducing the pre-PR direct-kernel path).
pub fn force_conv_formulation(net: &mut Network, formulation: ConvFormulation) {
    for node in net.nodes_mut() {
        match node {
            LayerNode::Conv(l) => l.set_formulation(formulation),
            LayerNode::Residual(r) => {
                r.conv1.set_formulation(formulation);
                r.conv2.set_formulation(formulation);
            }
            _ => {}
        }
    }
}

/// The 8-member convolutional ensemble the inference comparison serves.
pub fn bench_ensemble_members() -> Vec<EnsembleMember> {
    let input = InputSpec::new(3, 8, 8);
    (0..8u64)
        .map(|s| {
            let arch = Architecture::plain(
                format!("m{s}"),
                input,
                10,
                vec![
                    ConvBlockSpec::repeated(3, 8 + (s as usize % 3) * 2, 1),
                    ConvBlockSpec::repeated(3, 16, 1),
                ],
                vec![32],
            );
            EnsembleMember::new(format!("m{s}"), Network::seeded(&arch, s))
        })
        .collect()
}

/// Runs every comparison and returns the report.
pub fn run(reps: usize) -> KernelBenchResult {
    let mut comparisons = Vec::new();

    // --- matmul: 256x256x256, blocked vs naive ---
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let a = Tensor::randn([256, 256], 1.0, &mut rng);
    let b = Tensor::randn([256, 256], 1.0, &mut rng);
    comparisons.push(compare(
        "matmul_256",
        reps,
        || {
            std::hint::black_box(ops::reference::matmul(&a, &b));
        },
        || {
            std::hint::black_box(ops::matmul(&a, &b));
        },
    ));

    // --- conv layer formulation: direct (pre-PR) vs im2col + GEMM ---
    let input = Tensor::randn([32, 16, 8, 8], 1.0, &mut rng);
    let weight = Tensor::randn([16, 16, 3, 3], 1.0, &mut rng);
    let cbias = Tensor::zeros([16]);
    let mut conv_ws = Workspace::new();
    comparisons.push(compare(
        "conv3x3_c16_b32",
        reps,
        || {
            std::hint::black_box(conv::conv2d_forward(&input, &weight, &cbias, 1));
        },
        || {
            let y = im2col::conv2d_forward_im2col_ws(&input, &weight, &cbias, 1, &mut conv_ws);
            conv_ws.release(std::hint::black_box(y));
        },
    ));

    // --- explicit-SIMD GEMM dispatch: scalar backend vs AVX2 backend ---
    // Skipped (not a zero-row lie) when the CPU lacks AVX2+FMA. Both
    // sides run the *blocked* kernel; only the micro-kernel dispatch
    // differs, so this isolates exactly what the runtime backend buys.
    if mn_tensor::simd::avx2_available() {
        comparisons.push(compare(
            "gemm_simd_dispatch_256",
            reps,
            || {
                mn_tensor::simd::with_backend(mn_tensor::simd::Backend::Scalar, || {
                    std::hint::black_box(ops::matmul(&a, &b));
                });
            },
            || {
                mn_tensor::simd::with_backend(mn_tensor::simd::Backend::Avx2, || {
                    std::hint::black_box(ops::matmul(&a, &b));
                });
            },
        ));
    }

    // --- 8-member ensemble inference over a 64-example request batch ---
    let x = Tensor::randn([64, 3, 8, 8], 1.0, &mut rng);
    let single_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    let mut naive_members = bench_ensemble_members();
    for m in naive_members.iter_mut() {
        force_conv_formulation(&mut m.network, ConvFormulation::Direct);
    }
    let mut engine = EnginePlan::new(bench_ensemble_members(), 32)
        .expect("bench ensemble builds")
        .into_shared()
        .session();
    comparisons.push(compare(
        "ensemble_infer_8x64",
        reps,
        || {
            // Naive path: one core, members one-by-one, direct-formulation
            // convolutions, fresh allocations per call.
            single_thread.install(|| {
                std::hint::black_box(MemberPredictions::collect(&mut naive_members, &x, 32));
            });
        },
        || {
            std::hint::black_box(engine.predict(&x));
        },
    ));

    KernelBenchResult {
        threads: rayon::current_num_threads(),
        compiled_avx2: cfg!(target_feature = "avx2"),
        simd_backend: mn_tensor::simd::active().label().to_string(),
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_renders() {
        let result = KernelBenchResult {
            threads: 2,
            compiled_avx2: false,
            simd_backend: "scalar".into(),
            comparisons: vec![KernelComparison {
                name: "matmul_256".into(),
                baseline_ms: 2.0,
                optimized_ms: 0.5,
                speedup: 4.0,
            }],
        };
        let json = serde_json::to_string(&result).unwrap();
        let back: KernelBenchResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("matmul_256").unwrap().speedup, 4.0);
        assert!(back.get("absent").is_none());
        assert!(result.table().contains("4.00x"));
    }

    #[test]
    fn smoke_run_produces_positive_timings() {
        // One rep keeps this cheap; the real numbers come from the bin.
        let result = run(1);
        let expected = if mn_tensor::simd::avx2_available() {
            4
        } else {
            3
        };
        assert_eq!(result.comparisons.len(), expected);
        assert!(result.simd_backend == "scalar" || result.simd_backend == "avx2");
        for c in &result.comparisons {
            assert!(c.baseline_ms > 0.0 && c.optimized_ms > 0.0, "{c:?}");
            assert!(c.speedup.is_finite());
        }
    }
}
