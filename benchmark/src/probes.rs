//! Per-layer probes: each layer's public functions, called and timed from
//! here with fixed shapes. They run in a traced pass only; the numbers
//! say how fast a layer is on this machine, the workload's spans say how
//! much of it the workload uses.
//!
//! FLOPs and bytes are computed from the shapes, not measured.

use std::sync::Arc;

use mn_ensemble::{combine, EnginePlan, EnsembleManifest, EnsembleMember, MemberPredictions};
use mn_nn::layer::Mode;
use mn_nn::loss::softmax_cross_entropy_ws;
use mn_nn::optim::Sgd;
use mn_nn::Network;
use mn_tensor::ops::{self, MatRef};
use mn_tensor::{im2col, simd, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, sub_seed, CHANNELS, PLAN_BATCH, ROW, SIDE};
use crate::metrics::Outcome;
use crate::reference;
use crate::stats::median;
use crate::trace::Tracer;

/// Median duration (µs) of `reps` timed calls of `f`, after one warm-up
/// call; every call is a span named `name`.
pub fn median_us(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|i| tr.time(name, i as u64, &mut f).1.as_secs_f64() * 1e6)
        .collect();
    median(&samples)
}

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, 100 + stream))
}

/// `tensor.`: GEMM at three shapes, im2col, the three conv kernels at the
/// trunk conv's shape (batch 64, 8→8 channels, 3×3 on 8×8), the fused SGD
/// update and softmax.
pub fn tensor_probes(seed: u64, reps: usize, tr: &mut Tracer, out: &mut Outcome) {
    let mut ws = Workspace::new();
    let span = tr.begin("probe.tensor", 0);

    let gemm = |m: usize,
                n: usize,
                k: usize,
                transposed_b: bool,
                name: &'static str,
                tr: &mut Tracer,
                ws: &mut Workspace| {
        let mut r = rng(seed, (m + n + k) as u64);
        let a = Tensor::randn([m, k], 1.0, &mut r);
        let b = if transposed_b {
            Tensor::randn([n, k], 1.0, &mut r)
        } else {
            Tensor::randn([k, n], 1.0, &mut r)
        };
        let mut c = Tensor::zeros([m, n]);
        let us = median_us(tr, name, reps, || {
            if transposed_b {
                ops::matmul_nt_into_ws(&a, MatRef::reshaped(&b, n, k), &mut c, ws);
            } else {
                ops::matmul_into_ws(&a, &b, &mut c, ws);
            }
            std::hint::black_box(c.data()[0]);
        });
        2.0 * (m * n * k) as f64 / (us * 1e3)
    };
    out.set(
        "tensor.gemm_gflops_256",
        gemm(256, 256, 256, false, "tensor.matmul_into_ws", tr, &mut ws),
    );
    // The im2col GEMM of the trunk conv at batch 64: [N*H*W, C*K*K] x [F, C*K*K]^T.
    out.set(
        "tensor.gemm_gflops_trunk",
        gemm(
            64 * SIDE * SIDE,
            8,
            8 * 9,
            true,
            "tensor.matmul_nt_into_ws",
            tr,
            &mut ws,
        ),
    );
    // ... and of the widest Table-1 VGG conv (3x3, 32 -> 32 on 2x2).
    out.set(
        "tensor.gemm_gflops_vgg",
        gemm(
            64 * 2 * 2,
            32,
            32 * 9,
            true,
            "tensor.matmul_nt_into_ws",
            tr,
            &mut ws,
        ),
    );

    let mut r = rng(seed, 1);
    let input = Tensor::randn([64, 8, SIDE, SIDE], 1.0, &mut r);
    let weight = Tensor::randn([8, 8, 3, 3], 0.2, &mut r);
    let bias = Tensor::zeros([8]);
    let grad_out = Tensor::randn([64, 8, SIDE, SIDE], 1.0, &mut r);
    let mut cols = Tensor::zeros([64 * SIDE * SIDE, 8 * 9]);
    let us = median_us(tr, "tensor.im2col_into", reps, || {
        im2col::im2col_into(&input, 3, 1, &mut cols);
    });
    out.set(
        "tensor.im2col_gbps",
        ((input.len() + cols.len()) * 4) as f64 / (us * 1e3),
    );
    let us = median_us(tr, "tensor.conv2d_forward", reps, || {
        let y = im2col::conv2d_forward_im2col_ws(&input, &weight, &bias, 1, &mut ws);
        ws.release(y);
    });
    out.set("tensor.conv_fwd_us", us);
    let us = median_us(tr, "tensor.conv2d_backward_input", reps, || {
        let g = im2col::conv2d_backward_input_im2col_ws(&grad_out, &weight, SIDE, SIDE, 1, &mut ws);
        ws.release(g);
    });
    out.set("tensor.conv_bwd_input_us", us);
    let us = median_us(tr, "tensor.conv2d_backward_params", reps, || {
        let (gw, gb) = im2col::conv2d_backward_params_im2col_ws(&grad_out, &input, 3, 1, &mut ws);
        ws.release(gw);
        ws.release(gb);
    });
    out.set("tensor.conv_bwd_params_us", us);

    let n = 1 << 18;
    let mut value = vec![0.5f32; n];
    let mut vel = vec![0.0f32; n];
    let mut grad = vec![0.01f32; n];
    let us = median_us(tr, "tensor.sgd_update_chunk", reps, || {
        simd::sgd_update_chunk(&mut value, &mut vel, &mut grad, 0.05, 0.9, 1e-4);
    });
    // Three arrays read and written.
    out.set("tensor.sgd_update_gbps", (n * 4 * 6) as f64 / (us * 1e3));

    let logits = Tensor::randn([256, inputs::CLASSES], 3.0, &mut r);
    let mut probs = logits.clone();
    let us = median_us(tr, "tensor.softmax_rows", reps, || {
        probs.data_mut().copy_from_slice(logits.data());
        ops::softmax_rows(&mut probs);
    });
    out.set("tensor.softmax_us", us);
    out.set(
        "tensor.simd_backend",
        match simd::active() {
            simd::Backend::Scalar => 0.0,
            simd::Backend::Avx2 => 1.0,
        },
    );
    tr.end(span);
}

/// `nn.`: eval forward of V16 at batch 64, prefix/tail on a trunk member,
/// one SGD step split into forward, backward and optimizer, checkpoint io.
pub fn nn_probes(seed: u64, reps: usize, tr: &mut Tracer, out: &mut Outcome) {
    let span = tr.begin("probe.nn", 0);
    let mut ws = Workspace::new();
    let v16_arch = inputs::table1_vggs().swap_remove(1);
    let mut v16 = Network::seeded(&v16_arch, sub_seed(seed, 30));
    let mut r = rng(seed, 2);
    let x64 = Tensor::randn([64, CHANNELS, SIDE, SIDE], 1.0, &mut r);

    let us = median_us(tr, "nn.forward_eval", reps, || {
        let y = v16.forward_eval_with(&x64, &mut ws);
        ws.release(y);
    });
    out.set("nn.forward_eval_us_per_ex", us / 64.0);

    let trunk = inputs::trunk_members(seed).swap_remove(0).network;
    let split = trunk.nodes().len() - 1;
    let h = trunk.forward_eval_prefix_with(&x64, split, &mut ws);
    let us = median_us(tr, "nn.forward_eval_prefix", reps, || {
        let h = trunk.forward_eval_prefix_with(&x64, split, &mut ws);
        ws.release(h);
    });
    out.set("nn.prefix_us", us);
    let us = median_us(tr, "nn.forward_eval_tail", reps, || {
        let y = trunk.forward_eval_tail_with(&h, split, &mut ws);
        ws.release(y);
    });
    out.set("nn.tail_us", us);

    // The benchmark's own step loop: forward + loss, backward, optimizer.
    let x32 = Tensor::randn([32, CHANNELS, SIDE, SIDE], 1.0, &mut r);
    let labels: Vec<usize> = (0..32).map(|i| i % inputs::CLASSES).collect();
    let mut opt = Sgd::new(0.01, 0.9, 1e-4);
    let (mut fwd, mut bwd, mut optim, mut steps) = (0.0, 0.0, 0.0, Vec::new());
    for step in 0..reps.max(3) + 1 {
        let id = step as u64;
        let s = tr.begin("nn.train_step", id);
        let ((loss, grad), f) = tr.time("nn.forward_with", id, || {
            let logits = v16.forward_with(&x32, Mode::Train, &mut ws);
            let lg = softmax_cross_entropy_ws(&logits, &labels, &mut ws);
            ws.release(logits);
            lg
        });
        let ((), b) = tr.time("nn.backward_with", id, || v16.backward_with(&grad, &mut ws));
        ws.release(grad);
        let ((), o) = tr.time("nn.sgd_step", id, || opt.step_network(&mut v16));
        tr.end(s);
        out.check(loss.is_finite(), || {
            format!("probe train step {step}: loss {loss}")
        });
        if step > 0 {
            // step 0 warms the workspace
            fwd += f.as_secs_f64();
            bwd += b.as_secs_f64();
            optim += o.as_secs_f64();
            steps.push((f + b + o).as_secs_f64() * 1e3);
        }
    }
    let total = fwd + bwd + optim;
    out.set("nn.train_step_ms", median(&steps));
    out.set("nn.fwd_share", fwd / total);
    out.set("nn.bwd_share", bwd / total);
    out.set("nn.optim_share", optim / total);

    let mut blob = Vec::new();
    let us = median_us(tr, "nn.save_network", reps, || {
        blob = mn_nn::io::save_network(&v16)
    });
    out.set("nn.save_network_us", us);
    let us = median_us(tr, "nn.load_network", reps, || {
        std::hint::black_box(mn_nn::io::load_network(&blob).expect("a saved network loads"));
    });
    out.set("nn.load_network_us", us);
    out.set("nn.param_count", v16.param_count() as f64);
    tr.end(span);
}

/// `morph.` and the cheap `core.` calls: MotherNet construction,
/// clustering, and hatching one seeded MotherNet into the five members.
/// Returns the largest |Δlogit| between a hatched member and its mother at
/// noise 0 (the correctness gate is 1e-5).
pub fn morph_probes(seed: u64, reps: usize, tr: &mut Tracer, out: &mut Outcome) {
    let span = tr.begin("probe.morph", 0);
    let archs = inputs::table1_vggs();
    let us = median_us(tr, "core.mothernet_of", reps, || {
        std::hint::black_box(mothernets::mothernet_of(&archs, "mother").expect("constructs"));
    });
    out.set("core.construct_ms", us / 1e3);
    let us = median_us(tr, "core.cluster_architectures", reps, || {
        std::hint::black_box(mothernets::cluster_architectures(&archs, 0.5).expect("clusters"));
    });
    out.set("core.cluster_ms", us / 1e3);

    let mother_arch = mothernets::mothernet_of(&archs, "mother").expect("constructs");
    let mother = Network::seeded(&mother_arch, sub_seed(seed, 31));
    let us = median_us(tr, "morph.hatch_all", reps.min(9), || {
        for arch in &archs {
            std::hint::black_box(mothernets::hatch(&mother, arch).expect("hatches"));
        }
    });
    out.set("morph.hatch_ms", us / 1e3);
    let err = hatch_logit_err(&mother, seed, out);
    out.set("morph.hatch_logit_err", err);
    tr.end(span);
}

/// Hatches `mother` (exactly) into every Table-1 member and returns the
/// largest |Δlogit| against the mother on a seeded batch; more than 1e-5
/// is a correctness violation.
pub fn hatch_logit_err(mother: &Network, seed: u64, out: &mut Outcome) -> f64 {
    let mut r = rng(seed, 3);
    let x = Tensor::randn([64, CHANNELS, SIDE, SIDE], 1.0, &mut r);
    let want = mother.forward_eval(&x);
    let mut worst = 0.0f64;
    for arch in inputs::table1_vggs() {
        let member =
            mothernets::hatch(mother, &arch).expect("Table-1 members hatch from their MotherNet");
        let got = member.forward_eval(&x);
        worst = worst.max(mn_tensor::max_abs_diff(want.data(), got.data()) as f64);
    }
    out.check(worst <= 1e-5, || {
        format!("hatched logits drift {worst:e} from the MotherNet (limit 1e-5)")
    });
    // A metric that is never exactly 0 is easier to plot; float noise
    // supplies that on its own, this only guards the degenerate case.
    worst.max(f64::MIN_POSITIVE)
}

/// `data.`: task generation, one bootstrap resample, batch gathering.
pub fn data_probes(seed: u64, reps: usize, tr: &mut Tracer, out: &mut Outcome) {
    let span = tr.begin("probe.data", 0);
    let mut task = None;
    let us = median_us(tr, "data.cifar10_sim", reps.min(5), || {
        task = Some(mn_data::presets::cifar10_sim(mn_data::Scale::Small, seed));
    });
    out.set("data.generate_s", us / 1e6);
    let task = task.expect("generated at least once");
    let us = median_us(tr, "data.bag_seeded", reps, || {
        std::hint::black_box(mn_data::sampler::bag_seeded(&task.train, seed));
    });
    out.set("data.bootstrap_ms", us / 1e3);
    let idx: Vec<usize> = (0..32).map(|i| (i * 37) % task.train.len()).collect();
    let mut batch = Tensor::zeros([32, CHANNELS, SIDE, SIDE]);
    let us = median_us(tr, "data.gather_examples", reps, || {
        for _ in 0..64 {
            mn_nn::metrics::gather_examples_into(task.train.images(), &idx, &mut batch);
        }
    });
    out.set("data.gather_eps", (64 * 32) as f64 / (us / 1e6));
    tr.end(span);
}

/// `artifact.`: save, load and checksum of the diverse ensemble's artifact.
pub fn artifact_probes(seed: u64, reps: usize, tr: &mut Tracer, out: &mut Outcome) {
    let span = tr.begin("probe.artifact", 0);
    let plan = EnginePlan::new(inputs::diverse_members(seed), PLAN_BATCH).expect("plan builds");
    let manifest = EnsembleManifest::default();
    let mut bytes = Vec::new();
    let us = median_us(tr, "artifact.save", reps, || {
        bytes = plan.to_artifact_bytes(&manifest)
    });
    out.set("artifact.save_ms", us / 1e3);
    let us = median_us(tr, "artifact.load", reps, || {
        std::hint::black_box(EnginePlan::from_artifact_bytes(&bytes, PLAN_BATCH).expect("loads"));
    });
    out.set("artifact.load_ms", us / 1e3);
    let us = median_us(tr, "artifact.crc32", reps, || {
        std::hint::black_box(mn_nn::io::crc32(&bytes));
    });
    out.set("artifact.crc_gbps", bytes.len() as f64 / (us * 1e3));
    tr.end(span);
}

/// Every workload-independent probe (run in `score_offline`'s traced pass).
pub fn layer_probes(seed: u64, quick: bool, tr: &mut Tracer, out: &mut Outcome) {
    let reps = if quick { 2 } else { 31 };
    tensor_probes(seed, reps, tr, out);
    nn_probes(seed, reps, tr, out);
    morph_probes(seed, reps, tr, out);
    data_probes(seed, reps, tr, out);
    artifact_probes(seed, reps, tr, out);
}

/// Cold start of a bare session, `times` over: artifact bytes → plan →
/// session → the first answer for the one-example batch `one`, which must
/// equal `want` bit for bit. Sets `artifact_bytes` and `cold_start_ms`.
pub fn session_cold_start(
    bytes: &[u8],
    one: &Tensor,
    want: &[f32],
    times: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    out.set("artifact_bytes", bytes.len() as f64);
    let mut cold = Vec::new();
    let mut exact = true;
    for i in 0..times {
        let s = tr.begin("cold_start", i);
        let t = std::time::Instant::now();
        let (loaded, _) = tr.time("artifact.load", i, || {
            EnginePlan::from_artifact_bytes(bytes, PLAN_BATCH).map(EnginePlan::into_shared)
        });
        let answer = loaded.ok().map(|plan| {
            tr.time("engine.first_answer", i, || {
                plan.session().predict_average(one)
            })
            .0
        });
        cold.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        exact &= answer.is_some_and(|a| reference::bits_equal(want, a.data()));
    }
    out.check(exact, || {
        "artifact round trip is not bitwise exact".to_string()
    });
    out.set("cold_start_ms", median(&cold));
}

/// Share of one member's parameters that live in the plan's shared trunk.
pub fn shared_param_share(plan: &EnginePlan) -> f64 {
    let nodes = plan.members()[0].network.nodes();
    let count = |nodes: &[mn_nn::LayerNode]| -> usize {
        let mut n = 0;
        for node in nodes {
            node.visit_state(&mut |t| n += t.len());
        }
        n
    };
    count(&nodes[..plan.trunk_len()]) as f64 / count(nodes).max(1) as f64
}

/// `engine.` decomposition of one `predict_average` call on `x`: the same
/// answer rebuilt by hand from prefix + per-member tails + combine. What
/// the parts do not cover is the executor's own time (`overhead_share`).
pub fn engine_decomposition(
    plan: &Arc<EnginePlan>,
    x: &Tensor,
    reps: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let span = tr.begin("probe.engine", 0);
    let members: &[EnsembleMember] = plan.members();
    let (n, k) = (x.shape().dim(0), plan.num_classes());
    let (trunk, bs) = (plan.trunk_len(), plan.batch_size());
    let mut session = plan.session();
    let mut served = session.predict_average(x);
    // The workload runs on a one-thread pool (see `run_workload`), and so
    // do both sides of the decomposition: the parts then add up.
    let total_us = median_us(tr, "engine.predict_average", reps, || {
        served = session.predict_average(x);
    });
    {
        let mut wss: Vec<Workspace> = members.iter().map(|_| Workspace::new()).collect();
        let (mut trunk_us, mut tails_us, mut combine_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut by_hand = Tensor::zeros([n, k]);
        for rep in 0..reps.max(1) + 1 {
            let id = rep as u64;
            let s = tr.begin("engine.by_hand", id);
            let (mut t_trunk, mut t_tails) = (0.0, 0.0);
            let mut probs: Vec<Tensor> = members.iter().map(|_| Tensor::zeros([n, k])).collect();
            let mut start = 0;
            while start < n {
                let rows = bs.min(n - start);
                let xb = Tensor::from_vec(
                    x.shape().with_dim(0, rows),
                    x.data()[start * ROW..(start + rows) * ROW].to_vec(),
                );
                let (h, d) = tr.time("nn.forward_eval_prefix", id, || {
                    members[0]
                        .network
                        .forward_eval_prefix_with(&xb, trunk, &mut wss[0])
                });
                t_trunk += d.as_secs_f64();
                for (m, member) in members.iter().enumerate() {
                    let (p, d) = tr.time("nn.forward_eval_tail", id, || {
                        let mut p = member
                            .network
                            .forward_eval_tail_with(&h, trunk, &mut wss[m]);
                        ops::softmax_rows(&mut p);
                        p
                    });
                    t_tails += d.as_secs_f64();
                    probs[m].data_mut()[start * k..(start + rows) * k].copy_from_slice(p.data());
                    wss[m].release(p);
                }
                wss[0].release(h);
                start += rows;
            }
            let (avg, d) = tr.time("ensemble.combine", id, || {
                combine::ensemble_average(&MemberPredictions::from_probs(probs))
            });
            tr.end(s);
            by_hand = avg;
            if rep > 0 {
                trunk_us.push(t_trunk * 1e6);
                tails_us.push(t_tails * 1e6);
                combine_us.push(d.as_secs_f64() * 1e6);
            }
        }
        out.check(reference::bits_equal(by_hand.data(), served.data()), || {
            "prefix + tails + combine by hand differs from predict_average".to_string()
        });
        let (t, l, c) = (median(&trunk_us), median(&tails_us), median(&combine_us));
        out.set("engine.trunk_ms", t / 1e3);
        out.set("engine.tails_ms", l / 1e3);
        out.set("engine.combine_ms", c / 1e3);
        out.set("engine.overhead_share", 1.0 - (t + l + c) / total_us);
    }
    out.set("engine.trunk_len", plan.trunk_len() as f64);
    out.set("engine.shared_param_share", shared_param_share(plan));
    tr.end(span);
}
