//! Trunk-shared execution is an execution strategy, not a different
//! model: for ensembles whose members share a hatched prefix, evaluating
//! the trunk once and fanning only the divergent tails must be **bitwise
//! identical** to flat per-member evaluation — across trunk depths
//! (including zero shared prefix and fully-shared topologies), member
//! counts, shard counts, and batch shapes.

use mn_ensemble::engine::{CascadePolicy, EnginePlan, ExecPolicy, Plan};
use mn_ensemble::{combine, EnsembleMember, MemberPredictions};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec, ResBlockSpec};
use mn_nn::Network;
use mn_tensor::Tensor;
use mothernets::hatch::hatch_with_report;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn input() -> InputSpec {
    InputSpec::new(3, 8, 8)
}

fn arch(family: u8) -> Architecture {
    match family % 3 {
        0 => Architecture::mlp("m", input(), 5, vec![12, 8]),
        1 => Architecture::plain(
            "p",
            input(),
            5,
            vec![ConvBlockSpec::repeated(3, 4, 2)],
            vec![8],
        ),
        _ => Architecture::residual("r", input(), 5, vec![ResBlockSpec::new(1, 4, 3)]),
    }
}

/// A synthetic hatch: clone `base` and perturb every state tensor from
/// node `cut` onward with a member-specific seed. The members' shared
/// trunk is exactly the nodes before `cut` (plus any stateless or
/// zero-initialized state right after it, which the value-level detector
/// rightly counts as shared too). Perturbation is multiplicative so
/// BatchNorm running variances stay positive.
fn diverge_from(base: &Network, cut: usize, seed: u64) -> Network {
    let mut net = base.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for node in net.nodes_mut().iter_mut().skip(cut) {
        for t in node.state_mut() {
            for v in t.data_mut() {
                *v *= 1.0 + rng.gen_range(-0.2..0.2f32);
            }
        }
    }
    net
}

fn bits(probs: &Tensor) -> Vec<u32> {
    probs.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core property: trunk-shared output equals member-parallel
    /// output bit for bit, wherever the members diverge — at node 0
    /// (zero shared prefix), past the last node (fully identical
    /// members, empty tails), or anywhere in between.
    #[test]
    fn trunk_shared_is_bitwise_identical_to_flat(
        family in 0u8..3,
        cut_pick in 0usize..64,
        num_members in 2usize..5,
        shards in 1usize..6,
        n in 1usize..14,
        batch_size in 1usize..6,
    ) {
        let arch = arch(family);
        let base = Network::seeded(&arch, 7);
        let cut = cut_pick % (base.nodes().len() + 1);
        let members: Vec<EnsembleMember> = (0..num_members)
            .map(|i| {
                let net = diverge_from(&base, cut, 100 + i as u64);
                EnsembleMember::new(format!("m{i}"), net)
            })
            .collect();
        let plan = EnginePlan::new(members, batch_size).unwrap().into_shared();
        let x = Tensor::randn([n, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(9));

        let mut flat = plan.session();
        flat.set_policy(ExecPolicy::MemberParallel);
        let reference = flat.predict(&x);

        let mut trunked = plan.session();
        trunked.set_policy(ExecPolicy::TrunkShared { shards });
        // Run twice so the second pass hits warm, reused lane scratch.
        let _ = trunked.predict(&x);
        let got = trunked.predict(&x);
        for (m, (a, b)) in reference.probs().iter().zip(got.probs()).enumerate() {
            prop_assert_eq!(
                bits(a),
                bits(b),
                "member {} diverged (cut {}, {} shards)",
                m,
                cut,
                shards
            );
        }

        // Auto must agree too, whichever plan it picks for this ensemble.
        let mut auto = plan.session();
        auto.set_policy(ExecPolicy::Auto);
        let auto_got = auto.predict(&x);
        for (a, b) in reference.probs().iter().zip(auto_got.probs()) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    /// The executor against a plan-free reference: every policy, forced
    /// shard count, batch shape and trunk shape — including a single
    /// member and a stateless-only trunk under forced sharding — must
    /// reproduce `MemberPredictions::collect` on cloned members bit for
    /// bit, through both the per-member and the scored API.
    #[test]
    fn every_plan_matches_the_plan_free_reference(
        cut_kind in 0u8..3,
        num_members in 1usize..5,
        shards in 1usize..6,
        n in 0usize..41,
        batch_size in 1usize..10,
    ) {
        // 0: conv first, diverging at node 0 — no shared node; 1: MLP
        // diverging at node 0 — only the stateless Flatten is shared;
        // 2: everything but the head shared.
        let base = Network::seeded(&arch(if cut_kind == 1 { 0 } else { 1 }), 7);
        let cut = if cut_kind == 2 { base.nodes().len() - 1 } else { 0 };
        let members: Vec<EnsembleMember> = (0..num_members)
            .map(|i| {
                let net = diverge_from(&base, cut, 100 + i as u64);
                EnsembleMember::new(format!("m{i}"), net)
            })
            .collect();
        let x = Tensor::randn([n, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(9));
        let reference = MemberPredictions::collect(&mut members.clone(), &x, batch_size);
        let reference_avg = combine::ensemble_average(&reference);

        let plan = EnginePlan::new(members, batch_size).unwrap().into_shared();
        if num_members > 1 {
            prop_assert_eq!(plan.trunk_len(), [0, 1, cut][cut_kind as usize]);
            prop_assert_eq!(plan.shares_trunk(), cut_kind == 2);
        }
        for policy in [
            ExecPolicy::Auto,
            ExecPolicy::MemberParallel,
            ExecPolicy::DataParallel { shards },
            ExecPolicy::TrunkShared { shards },
            ExecPolicy::Cascade(CascadePolicy::max_prob(0.0)),
        ] {
            let mut session = plan.session();
            session.set_policy(policy);
            let got = session.predict(&x);
            for (m, (a, b)) in reference.probs().iter().zip(got.probs()).enumerate() {
                prop_assert_eq!(bits(a), bits(b), "member {} under {:?}", m, policy);
            }
            let scored = session.predict_scored(&x);
            prop_assert_eq!(bits(&reference_avg), bits(&scored.probs), "scored under {:?}", policy);
        }
    }
}

#[test]
fn genuinely_hatched_ensemble_shares_its_mothernet_trunk() {
    // The real pipeline, not a synthetic clone: hatch members with
    // progressively wider dense tails from one MotherNet. The conv trunk
    // transfers bit-for-bit, so the engine must detect and share it.
    let mother_arch = Architecture::plain(
        "mother",
        input(),
        5,
        vec![ConvBlockSpec::repeated(3, 4, 2)],
        vec![8],
    );
    let mother = Network::seeded(&mother_arch, 21);
    let members: Vec<EnsembleMember> = [8usize, 12, 16]
        .iter()
        .enumerate()
        .map(|(i, &width)| {
            let target = Architecture::plain(
                format!("member{i}"),
                input(),
                5,
                vec![ConvBlockSpec::repeated(3, 4, 2)],
                vec![width],
            );
            let (net, report) =
                hatch_with_report(&mother, &target, &mn_morph::MorphOptions::exact()).unwrap();
            assert!(
                report.shared_prefix_nodes > 0,
                "hatching must preserve a shared prefix"
            );
            EnsembleMember::new(format!("member{i}"), net)
        })
        .collect();

    let plan = EnginePlan::new(members, 4).unwrap().into_shared();
    assert!(plan.shares_trunk(), "hatched conv trunk must be detected");
    // The whole conv body (conv/bn/relu ×2, maxpool, flatten) is shared;
    // only the dense tail diverges.
    assert!(
        plan.trunk_len() >= 5,
        "trunk too short: {}",
        plan.trunk_len()
    );
    assert!(matches!(
        plan.resolve(16, ExecPolicy::Auto),
        Plan::TrunkShared { .. }
    ));

    let x = Tensor::randn([11, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(22));
    let mut flat = plan.session();
    flat.set_policy(ExecPolicy::MemberParallel);
    let reference = flat.predict(&x);
    for shards in [1usize, 2, 4] {
        let mut trunked = plan.session();
        trunked.set_policy(ExecPolicy::TrunkShared { shards });
        let got = trunked.predict(&x);
        for (m, (a, b)) in reference.probs().iter().zip(got.probs()).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "hatched member {m} diverged under {shards}-shard trunk sharing"
            );
        }
    }
}
