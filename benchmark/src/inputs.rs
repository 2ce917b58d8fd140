//! The frozen inputs: architectures, ensembles and traffic, all generated
//! from `--seed` here, inside the benchmark's directory, so that no later
//! change to the repository can move them. (`crates/bench/src/zoo.rs` and
//! `serving.rs` hold look-alikes; nothing is imported from them.)
//!
//! Only API the ROADMAP does not schedule for deletion is used: no
//! `InferenceEngine`, no `Server::start(engine, cfg)`, no `*_quantized`
//! twins, `ExecPolicy::{Auto, Cascade}` only.

use mn_ensemble::EnsembleMember;
use mn_nn::arch::{Architecture, ConvBlockSpec, ConvLayerSpec, InputSpec};
use mn_nn::{LayerNode, Network};
use mn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const CHANNELS: usize = 3;
pub const SIDE: usize = 8;
pub const ROW: usize = CHANNELS * SIDE * SIDE;
pub const CLASSES: usize = 10;
/// Mini-batch every engine plan is built with.
pub const PLAN_BATCH: usize = 64;

pub fn input_spec() -> InputSpec {
    InputSpec::new(CHANNELS, SIDE, SIDE)
}

/// Decorrelates the streams drawn from one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn conv(k: usize, f: usize) -> ConvLayerSpec {
    ConvLayerSpec::new(k, f)
}

fn vgg(name: &str, blocks: Vec<ConvBlockSpec>) -> Architecture {
    Architecture::plain(name, input_spec(), CLASSES, blocks, vec![192, 192])
}

/// The five VGG variants of the paper's Table 1 (V13, V16, V16A, V16B,
/// V19), scaled to 8×8 inputs: three conv blocks and a shared
/// `[192, 192]` dense head that dominates the parameter count, as the
/// paper's fully-connected layers do.
pub fn table1_vggs() -> Vec<Architecture> {
    vec![
        vgg(
            "V13",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::repeated(3, 16, 2),
                ConvBlockSpec::repeated(3, 32, 2),
            ],
        ),
        vgg(
            "V16",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 16)]),
                ConvBlockSpec::new(vec![conv(3, 32), conv(3, 32), conv(1, 32)]),
            ],
        ),
        vgg(
            "V16A",
            vec![
                ConvBlockSpec::repeated(3, 16, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 16)]),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 32)]),
            ],
        ),
        vgg(
            "V16B",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(3, 16)]),
                ConvBlockSpec::new(vec![conv(3, 32), conv(3, 32), conv(3, 32)]),
            ],
        ),
        vgg(
            "V19",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::repeated(3, 16, 4),
                ConvBlockSpec::repeated(3, 32, 4),
            ],
        ),
    ]
}

/// The deep conv base the trunk ensemble's members share: 4 conv layers
/// and a small dense head, 18 layer nodes of which the first 17 stay
/// bit-identical across members.
pub fn trunk_base() -> Architecture {
    Architecture::plain(
        "trunk-base",
        input_spec(),
        CLASSES,
        vec![
            ConvBlockSpec::repeated(3, 8, 2),
            ConvBlockSpec::repeated(3, 8, 2),
        ],
        vec![16],
    )
}

fn jitter_params(net: &mut Network, amplitude: f32, rng: &mut StdRng) {
    net.visit_params_mut(&mut |p| {
        for w in p.value.data_mut() {
            *w *= 1.0 + rng.gen_range(-amplitude..amplitude);
        }
    });
}

/// Five heterogeneous members with no shared prefix: each Table-1 VGG is
/// hatched (exactly) from one seeded MotherNet, then every weight is
/// jittered by ±4 % the way fine-tuning on a bootstrap sample would move
/// it. The functions stay close, the bits do not, so the engine finds no
/// trunk and plans flat: what a fine-tuned MotherNets ensemble looks like
/// in production.
pub fn diverse_members(seed: u64) -> Vec<EnsembleMember> {
    let archs = table1_vggs();
    let mother_arch =
        mothernets::mothernet_of(&archs, "mother").expect("Table-1 VGGs share a MotherNet");
    let mother = Network::seeded(&mother_arch, sub_seed(seed, 1));
    archs
        .iter()
        .enumerate()
        .map(|(i, arch)| {
            let mut net =
                mothernets::hatch(&mother, arch).expect("members hatch from their MotherNet");
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10 + i as u64));
            jitter_params(&mut net, 0.02, &mut rng);
            EnsembleMember::new(arch.name.clone(), net)
        })
        .collect()
}

/// Eight members that are one seeded deep conv base with diverged dense
/// heads (±15 % multiplicative noise on the last layer): the shape a hatch
/// produces before fine-tuning, and the one the engine shares a trunk on.
pub fn trunk_members(seed: u64) -> Vec<EnsembleMember> {
    let base = Network::seeded(&trunk_base(), sub_seed(seed, 2));
    (0..8)
        .map(|m| {
            let mut net = base.clone();
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 20 + m as u64));
            match net.nodes_mut().last_mut() {
                Some(LayerNode::Dense(head)) => {
                    for w in head.weight.value.data_mut() {
                        *w *= 1.0 + rng.gen_range(-0.15..0.15f32);
                    }
                }
                other => panic!("trunk base must end in a dense head, found {other:?}"),
            }
            EnsembleMember::new(format!("t{m}"), net)
        })
        .collect()
}

/// A pool of distinct examples that requests and batches draw from. The
/// reference answer is computed once per pool entry, so every one of the
/// hundreds of thousands of answers in a run can be checked bit for bit.
pub struct Pool {
    /// `[n, 3, 8, 8]`.
    pub batch: Tensor,
    /// The same rows as `[3, 8, 8]` examples, ready to submit.
    pub examples: Vec<Tensor>,
}

impl Pool {
    fn from_rows(data: Vec<f32>) -> Pool {
        let n = data.len() / ROW;
        let examples = data
            .chunks(ROW)
            .map(|r| Tensor::from_vec([CHANNELS, SIDE, SIDE], r.to_vec()))
            .collect();
        Pool {
            batch: Tensor::from_vec([n, CHANNELS, SIDE, SIDE], data),
            examples,
        }
    }

    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Rows `start..start + rows` as one batch tensor.
    pub fn slice(&self, start: usize, rows: usize) -> Tensor {
        Tensor::from_vec(
            [rows, CHANNELS, SIDE, SIDE],
            self.batch.data()[start * ROW..(start + rows) * ROW].to_vec(),
        )
    }
}

/// Uniform traffic: unit-variance Gaussian examples.
pub fn uniform_pool(seed: u64, n: usize) -> Pool {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    Pool::from_rows(Tensor::randn([n * ROW], 1.0, &mut rng).into_vec())
}

/// Skewed traffic: every 7th example is hard (near-zero input, logits
/// near uniform), the rest easy (large inputs that saturate the softmax).
pub fn skewed_pool(seed: u64, n: usize) -> Pool {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let mut data = Vec::with_capacity(n * ROW);
    for i in 0..n {
        let scale = if i % 7 == 3 { 0.05 } else { 6.0 };
        data.extend_from_slice(Tensor::randn([ROW], scale, &mut rng).data());
    }
    Pool::from_rows(data)
}

/// Which pool entry each of `n` requests carries.
pub fn request_order(seed: u64, n: usize, pool_len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    (0..n).map(|_| rng.gen_range(0..pool_len as u32)).collect()
}

fn exp_gap(rate: f64, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Due offsets (seconds from window start) of a Poisson process at
/// `rate` req/s over `duration` seconds.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    let mut due = Vec::with_capacity((rate * duration * 1.2) as usize + 8);
    let mut t = exp_gap(rate, &mut rng);
    while t < duration {
        due.push(t);
        t += exp_gap(rate, &mut rng);
    }
    due
}

/// Due offsets of bursty arrivals at a mean `rate` req/s: bursts of
/// `burst` back-to-back requests (all due at the burst's start), burst
/// starts Poisson at `rate / burst` per second.
pub fn burst_schedule(rate: f64, burst: usize, duration: f64, seed: u64) -> Vec<f64> {
    let starts = poisson_schedule(rate / burst as f64, duration, sub_seed(seed, 7));
    starts
        .into_iter()
        .flat_map(|t| std::iter::repeat_n(t, burst))
        .collect()
}

/// FNV-1a over the bit patterns of everything generated from `seed`.
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn members(&mut self, members: &[EnsembleMember]) {
        for m in members {
            self.bytes(m.name.as_bytes());
            self.bytes(m.network.arch().summary().as_bytes());
            for node in m.network.nodes() {
                node.visit_state(&mut |t| self.floats(t.data()));
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One hash over every kind of input the four workloads draw from `seed`.
pub fn input_hash(seed: u64) -> u64 {
    let mut h = InputHash::new();
    h.members(&diverse_members(seed));
    h.members(&trunk_members(seed));
    h.floats(uniform_pool(seed, 64).batch.data());
    h.floats(skewed_pool(seed, 64).batch.data());
    for i in request_order(seed, 256, 64) {
        h.bytes(&i.to_le_bytes());
    }
    for t in poisson_schedule(800.0, 0.25, seed)
        .into_iter()
        .chain(burst_schedule(8000.0, 32, 0.25, seed))
    {
        h.bytes(&t.to_bits().to_le_bytes());
    }
    let task = mn_data::presets::cifar10_sim(mn_data::Scale::Tiny, seed);
    h.floats(task.train.images().data());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_ensemble::EnginePlan;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_hash(7), input_hash(7));
        assert_ne!(input_hash(7), input_hash(8));
    }

    #[test]
    fn ensembles_have_the_shapes_the_workloads_rely_on() {
        let diverse = EnginePlan::new(diverse_members(3), PLAN_BATCH).unwrap();
        assert_eq!(diverse.num_members(), 5);
        assert_eq!(diverse.trunk_len(), 0, "diverse members share no prefix");
        assert!(!diverse.shares_trunk());
        let trunk = EnginePlan::new(trunk_members(3), PLAN_BATCH).unwrap();
        assert_eq!(trunk.num_members(), 8);
        assert_eq!(trunk.trunk_len(), 17);
        assert!(trunk.shares_trunk());
    }

    #[test]
    fn poisson_schedule_totals_and_order() {
        let due = poisson_schedule(2000.0, 5.0, 11);
        let n = due.len() as f64;
        // 10 000 expected, sd 100: five sigma.
        assert!((n - 10_000.0).abs() < 500.0, "{n}");
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| (0.0..5.0).contains(&t)));
        assert_eq!(due, poisson_schedule(2000.0, 5.0, 11));
    }

    #[test]
    fn burst_schedule_totals_and_shape() {
        let due = burst_schedule(8000.0, 32, 4.0, 5);
        assert_eq!(due.len() % 32, 0);
        let bursts = due.len() / 32;
        // 1000 bursts expected, sd ~32.
        assert!((bursts as f64 - 1000.0).abs() < 160.0, "{bursts}");
        for b in due.chunks(32) {
            assert!(
                b.iter().all(|&t| t == b[0]),
                "a burst is due at one instant"
            );
        }
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn skewed_pool_marks_every_seventh_example_hard() {
        let pool = skewed_pool(1, 28);
        let energy = |i: usize| -> f32 { pool.examples[i].data().iter().map(|x| x * x).sum() };
        assert!(energy(3) < 5.0 && energy(10) < 5.0);
        assert!(energy(0) > 1000.0 && energy(4) > 1000.0);
        assert_eq!(
            pool.slice(2, 3).data(),
            &pool.batch.data()[2 * ROW..5 * ROW]
        );
    }
}
