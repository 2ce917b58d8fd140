//! [`Network`]: an executable network built from an [`Architecture`].

use mn_tensor::{ops, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arch::{Architecture, Body};
use crate::layer::{Mode, Param};
use crate::layers::{
    BatchNorm, BnLayout, ConvLayer, DenseLayer, FlattenLayer, GlobalAvgPoolLayer, MaxPoolLayer,
    ReluLayer, ResidualUnit,
};
use crate::node::LayerNode;

/// A feed-forward network: an [`Architecture`] plus the layer sequence that
/// realizes it.
///
/// ```
/// use mn_nn::arch::{Architecture, InputSpec};
/// use mn_nn::network::Network;
/// use mn_nn::layer::Mode;
/// use mn_tensor::Tensor;
///
/// let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![8]);
/// let mut net = Network::seeded(&arch, 42);
/// let x = Tensor::zeros([5, 1, 2, 2]);
/// let logits = net.forward(&x, Mode::Eval);
/// assert_eq!(logits.shape().dims(), &[5, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    arch: Architecture,
    nodes: Vec<LayerNode>,
}

impl Network {
    /// Builds a freshly initialized network for `arch`.
    ///
    /// # Panics
    ///
    /// Panics if `arch` fails [`Architecture::validate`].
    pub fn new<R: Rng>(arch: &Architecture, rng: &mut R) -> Self {
        arch.validate()
            .unwrap_or_else(|e| panic!("invalid architecture {}: {e}", arch.name));
        let nodes = build_nodes(arch, rng);
        Network {
            arch: arch.clone(),
            nodes,
        }
    }

    /// Builds a freshly initialized network with a dedicated RNG seed.
    pub fn seeded(arch: &Architecture, seed: u64) -> Self {
        Network::new(arch, &mut StdRng::seed_from_u64(seed))
    }

    /// Builds a structurally complete network with **all-zero** weights —
    /// no RNG, no Box–Muller sampling. This is the cold-start construction
    /// path: checkpoint restore (`mn_nn::io::load_network`) overwrites
    /// every persistent tensor immediately after construction, so sampling
    /// a random init first is pure wasted CPU (roughly half the cold-start
    /// cost for large members). Not a usable init for training — use
    /// [`Network::new`] / [`Network::seeded`] for that.
    ///
    /// # Panics
    ///
    /// Panics if `arch` fails [`Architecture::validate`].
    pub fn zeroed(arch: &Architecture) -> Self {
        arch.validate()
            .unwrap_or_else(|e| panic!("invalid architecture {}: {e}", arch.name));
        let nodes = build_nodes_with(arch, &mut ZeroInit);
        Network {
            arch: arch.clone(),
            nodes,
        }
    }

    /// Reassembles a network from an architecture and a layer sequence —
    /// the constructor used by the morphism engine after structural
    /// rewrites.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is invalid or if a single-item forward pass does
    /// not produce `[1, num_classes]` logits (i.e. the node sequence does
    /// not realize the architecture).
    pub fn from_parts(arch: Architecture, nodes: Vec<LayerNode>) -> Self {
        arch.validate()
            .unwrap_or_else(|e| panic!("invalid architecture {}: {e}", arch.name));
        let mut net = Network { arch, nodes };
        let probe = Tensor::zeros([
            1,
            net.arch.input.channels,
            net.arch.input.height,
            net.arch.input.width,
        ]);
        let out = net.forward(&probe, Mode::Eval);
        assert_eq!(
            out.shape().dims(),
            &[1, net.arch.num_classes],
            "node sequence does not realize architecture {}",
            net.arch.name
        );
        net
    }

    /// The architecture this network realizes.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The layer sequence (read-only).
    pub fn nodes(&self) -> &[LayerNode] {
        &self.nodes
    }

    /// Mutable access to the layer sequence.
    ///
    /// This is the structural hook used by the `mn-morph` crate; prefer the
    /// high-level morphism API over direct manipulation.
    pub fn nodes_mut(&mut self) -> &mut Vec<LayerNode> {
        &mut self.nodes
    }

    /// Decomposes the network into its parts (architecture, nodes).
    pub fn into_parts(self) -> (Architecture, Vec<LayerNode>) {
        (self.arch, self.nodes)
    }

    /// Forward pass over a batch `[N, C, H, W]`, returning logits `[N, K]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_with(x, mode, &mut Workspace::new())
    }

    /// [`Network::forward`] staging every activation in a [`Workspace`].
    ///
    /// Each layer's input buffer is released back into the workspace as
    /// soon as the layer has consumed it, so a forward pass keeps at most
    /// two live activations plus kernel scratch — and a workspace retained
    /// across calls (as the ensemble inference engine does per member)
    /// serves steady-state traffic without reallocating activations or
    /// im2col scratch.
    pub fn forward_with(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        if mode == Mode::Eval {
            return self.forward_eval_with(x, ws);
        }
        let mut h: Option<Tensor> = None;
        for node in &mut self.nodes {
            let next = node.forward_ws(h.as_ref().unwrap_or(x), mode, ws);
            if let Some(prev) = h.take() {
                ws.release(prev);
            }
            h = Some(next);
        }
        h.unwrap_or_else(|| x.clone())
    }

    /// Eval-mode forward pass through shared access only: reads weights
    /// and running statistics, writes nothing back into the network. Many
    /// serving sessions (each with its own [`Workspace`]) can therefore
    /// execute one shared network concurrently — this is the hot path of
    /// the ensemble engine's plan/session split. Bitwise identical to
    /// [`Network::forward`] in [`Mode::Eval`]: both route through the same
    /// per-layer eval code.
    pub fn forward_eval(&self, x: &Tensor) -> Tensor {
        self.forward_eval_with(x, &mut Workspace::new())
    }

    /// [`Network::forward_eval`] staging every activation in a
    /// [`Workspace`] (see [`Network::forward_with`] for the buffer
    /// lifecycle).
    // mn-lint: hot-path
    pub fn forward_eval_with(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        eval_nodes(&self.nodes, x, ws)
    }

    /// Eval-forward through the leading `upto` nodes only, returning the
    /// intermediate activation — the **shared-trunk** pass of the ensemble
    /// engine: when several members share a bit-identical layer prefix
    /// (see [`crate::node::LayerNode::eval_equivalent`]), the trunk is
    /// evaluated once and its activation fanned out to every member's
    /// [`Network::forward_eval_tail_with`].
    ///
    /// `upto == 0` returns a clone of `x`; `upto == nodes.len()` runs the
    /// whole network. Shared access only, like
    /// [`Network::forward_eval_with`].
    ///
    /// # Panics
    ///
    /// Panics if `upto` exceeds the node count.
    pub fn forward_eval_prefix_with(&self, x: &Tensor, upto: usize, ws: &mut Workspace) -> Tensor {
        assert!(
            upto <= self.nodes.len(),
            "prefix {upto} out of range for {} nodes",
            self.nodes.len()
        );
        eval_nodes(&self.nodes[..upto], x, ws)
    }

    /// Eval-forward through the nodes from index `from` to the end, given
    /// the activation `h` a (shared) prefix pass produced — the divergent
    /// **tail** pass of shared-trunk ensemble execution. Bitwise: running
    /// `forward_eval_prefix_with(x, k)` then `forward_eval_tail_with(h, k)`
    /// equals `forward_eval_with(x)` for any split point `k`, because both
    /// route through the identical per-node eval code in sequence.
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds the node count.
    pub fn forward_eval_tail_with(&self, h: &Tensor, from: usize, ws: &mut Workspace) -> Tensor {
        assert!(
            from <= self.nodes.len(),
            "tail start {from} out of range for {} nodes",
            self.nodes.len()
        );
        eval_nodes(&self.nodes[from..], h, ws)
    }

    /// The number of leading nodes this network shares — eval-equivalently,
    /// i.e. bit-for-bit (see [`crate::node::LayerNode::eval_equivalent`]) —
    /// with `other`. Hatched members report how much of their mother they
    /// still carry through this, and the ensemble engine intersects it
    /// across members to find the servable shared trunk.
    pub fn shared_eval_prefix(&self, other: &Network) -> usize {
        self.nodes
            .iter()
            .zip(other.nodes.iter())
            .take_while(|(a, b)| a.eval_equivalent(b))
            .count()
    }

    /// Backward pass from logit gradients; accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics unless a training-mode forward pass preceded this call.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        self.backward_with(grad_logits, &mut Workspace::new());
    }

    /// [`Network::backward`] staging every intermediate gradient in a
    /// [`Workspace`].
    ///
    /// Each node's upstream gradient is released back into the workspace
    /// as soon as the node has consumed it, so a backward pass keeps at
    /// most two live gradients plus kernel scratch — and a workspace
    /// retained across steps (as the training loop does) runs steady-state
    /// backward passes without heap allocation.
    ///
    /// Nothing reads the gradient w.r.t. the network input, so when the
    /// first node is a convolution (as every conv-body architecture
    /// builds it) only its parameter gradients are computed.
    ///
    /// # Panics
    ///
    /// Panics unless a training-mode forward pass preceded this call.
    pub fn backward_with(&mut self, grad_logits: &Tensor, ws: &mut Workspace) {
        let Some((first, rest)) = self.nodes.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for node in rest.iter_mut().rev() {
            let next = node.backward_ws(g.as_ref().unwrap_or(grad_logits), ws);
            if let Some(prev) = g.take() {
                ws.release(prev);
            }
            g = Some(next);
        }
        let upstream = g.as_ref().unwrap_or(grad_logits);
        match first {
            LayerNode::Conv(conv) => conv.backward_params_ws(upstream, ws),
            node => {
                let unread = node.backward_ws(upstream, ws);
                ws.release(unread);
            }
        }
        if let Some(last) = g {
            ws.release(last);
        }
    }

    /// Class-probability predictions `[N, K]` (eval mode).
    pub fn predict_proba(&mut self, x: &Tensor) -> Tensor {
        let mut logits = self.forward(x, Mode::Eval);
        ops::softmax_rows(&mut logits);
        logits
    }

    /// [`Network::predict_proba`] staging activations in a [`Workspace`].
    pub fn predict_proba_with(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.predict_proba_eval_with(x, ws)
    }

    /// [`Network::predict_proba_with`] through shared access only (see
    /// [`Network::forward_eval_with`]).
    pub fn predict_proba_eval_with(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut logits = self.forward_eval_with(x, ws);
        ops::softmax_rows(&mut logits);
        logits
    }

    /// Hard label predictions (eval mode).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x, Mode::Eval);
        ops::argmax_rows(&logits)
    }

    /// All trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.nodes.iter_mut().flat_map(|n| n.params_mut()).collect()
    }

    /// Visits all trainable parameters in the same stable order as
    /// [`Network::params_mut`], without materializing a `Vec` — the
    /// zero-allocation path the fused optimizer steps through.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        for node in &mut self.nodes {
            node.visit_params_mut(f);
        }
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.nodes.iter_mut().map(|n| n.param_count()).sum()
    }

    /// Drops all cached activations (shrinks memory between runs).
    pub fn clear_caches(&mut self) {
        for n in &mut self.nodes {
            n.clear_cache();
        }
    }
}

/// Shared-access eval walk over a node slice: the single code path behind
/// [`Network::forward_eval_with`] and the prefix/tail variants, so a split
/// pass cannot drift from the whole-network pass. An empty slice yields a
/// clone of the input.
fn eval_nodes(nodes: &[LayerNode], x: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut h: Option<Tensor> = None;
    for node in nodes {
        let next = node.forward_eval_ws(h.as_ref().unwrap_or(x), ws);
        if let Some(prev) = h.take() {
            ws.release(prev);
        }
        h = Some(next);
    }
    h.unwrap_or_else(|| x.clone())
}

/// How the parameterized layers of a fresh network get their values. One
/// structural walk ([`build_nodes_with`]) serves both the random-init
/// training path and the zero-init checkpoint-restore path, so the two
/// cannot drift apart layer-for-layer.
trait LayerInit {
    fn dense(&mut self, in_features: usize, out_features: usize) -> DenseLayer;
    fn conv(&mut self, in_channels: usize, filters: usize, kernel: usize) -> ConvLayer;
    fn residual(&mut self, filters: usize, kernel: usize) -> ResidualUnit;
}

/// He-initialized layers drawn from the wrapped RNG.
struct RandomInit<'r, R: Rng>(&'r mut R);

impl<R: Rng> LayerInit for RandomInit<'_, R> {
    fn dense(&mut self, in_features: usize, out_features: usize) -> DenseLayer {
        DenseLayer::new(in_features, out_features, self.0)
    }
    fn conv(&mut self, in_channels: usize, filters: usize, kernel: usize) -> ConvLayer {
        ConvLayer::new(in_channels, filters, kernel, self.0)
    }
    fn residual(&mut self, filters: usize, kernel: usize) -> ResidualUnit {
        ResidualUnit::new(filters, kernel, self.0)
    }
}

/// All-zero layers: no RNG cost, for restore targets only.
struct ZeroInit;

impl LayerInit for ZeroInit {
    fn dense(&mut self, in_features: usize, out_features: usize) -> DenseLayer {
        DenseLayer::zeroed(in_features, out_features)
    }
    fn conv(&mut self, in_channels: usize, filters: usize, kernel: usize) -> ConvLayer {
        ConvLayer::zeroed(in_channels, filters, kernel)
    }
    fn residual(&mut self, filters: usize, kernel: usize) -> ResidualUnit {
        ResidualUnit::zeroed(filters, kernel)
    }
}

fn build_nodes<R: Rng>(arch: &Architecture, rng: &mut R) -> Vec<LayerNode> {
    build_nodes_with(arch, &mut RandomInit(rng))
}

fn build_nodes_with(arch: &Architecture, init: &mut impl LayerInit) -> Vec<LayerNode> {
    let mut nodes = Vec::new();
    match &arch.body {
        Body::Mlp { hidden } => {
            nodes.push(LayerNode::Flatten(FlattenLayer::new()));
            let mut fan_in = arch.input.channels * arch.input.height * arch.input.width;
            for &units in hidden {
                nodes.push(LayerNode::Dense(init.dense(fan_in, units)));
                nodes.push(LayerNode::Relu(ReluLayer::new()));
                fan_in = units;
            }
            nodes.push(LayerNode::Dense(init.dense(fan_in, arch.num_classes)));
        }
        Body::Plain { blocks, dense } => {
            let mut c_in = arch.input.channels;
            for block in blocks {
                for l in &block.layers {
                    nodes.push(LayerNode::Conv(init.conv(c_in, l.filters, l.filter_size)));
                    nodes.push(LayerNode::BatchNorm(BatchNorm::new(
                        l.filters,
                        BnLayout::Spatial,
                    )));
                    nodes.push(LayerNode::Relu(ReluLayer::new()));
                    c_in = l.filters;
                }
                nodes.push(LayerNode::MaxPool(MaxPoolLayer::new()));
            }
            nodes.push(LayerNode::Flatten(FlattenLayer::new()));
            let (h, w) = arch.spatial_after_body();
            let mut fan_in = c_in * h * w;
            for &units in dense {
                nodes.push(LayerNode::Dense(init.dense(fan_in, units)));
                nodes.push(LayerNode::Relu(ReluLayer::new()));
                fan_in = units;
            }
            nodes.push(LayerNode::Dense(init.dense(fan_in, arch.num_classes)));
        }
        Body::Residual { blocks } => {
            // Stem.
            let stem_f = blocks[0].filters;
            nodes.push(LayerNode::Conv(init.conv(arch.input.channels, stem_f, 3)));
            nodes.push(LayerNode::BatchNorm(BatchNorm::new(
                stem_f,
                BnLayout::Spatial,
            )));
            nodes.push(LayerNode::Relu(ReluLayer::new()));
            let mut c_in = stem_f;
            for (i, block) in blocks.iter().enumerate() {
                if i > 0 {
                    nodes.push(LayerNode::MaxPool(MaxPoolLayer::new()));
                }
                // Unconditional 1x1 transition: see Architecture::param_count.
                nodes.push(LayerNode::Conv(init.conv(c_in, block.filters, 1)));
                nodes.push(LayerNode::BatchNorm(BatchNorm::new(
                    block.filters,
                    BnLayout::Spatial,
                )));
                nodes.push(LayerNode::Relu(ReluLayer::new()));
                c_in = block.filters;
                for _ in 0..block.units {
                    nodes.push(LayerNode::Residual(Box::new(
                        init.residual(block.filters, block.filter_size),
                    )));
                }
            }
            nodes.push(LayerNode::GlobalAvgPool(GlobalAvgPoolLayer::new()));
            nodes.push(LayerNode::Dense(init.dense(c_in, arch.num_classes)));
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ConvBlockSpec, InputSpec, ResBlockSpec};

    fn input() -> InputSpec {
        InputSpec::new(3, 8, 8)
    }

    #[test]
    fn mlp_param_count_matches_analytic() {
        let arch = Architecture::mlp("m", input(), 10, vec![16, 8]);
        let mut net = Network::seeded(&arch, 0);
        assert_eq!(net.param_count() as u64, arch.param_count());
    }

    #[test]
    fn plain_param_count_matches_analytic() {
        let arch = Architecture::plain(
            "p",
            input(),
            10,
            vec![
                ConvBlockSpec::repeated(3, 4, 2),
                ConvBlockSpec::repeated(5, 8, 1),
            ],
            vec![16],
        );
        let mut net = Network::seeded(&arch, 0);
        assert_eq!(net.param_count() as u64, arch.param_count());
    }

    #[test]
    fn residual_param_count_matches_analytic() {
        let arch = Architecture::residual(
            "r",
            input(),
            10,
            vec![ResBlockSpec::new(2, 4, 3), ResBlockSpec::new(1, 8, 3)],
        );
        let mut net = Network::seeded(&arch, 0);
        assert_eq!(net.param_count() as u64, arch.param_count());
    }

    #[test]
    fn forward_shapes_all_families() {
        let archs = vec![
            Architecture::mlp("m", input(), 7, vec![12]),
            Architecture::plain(
                "p",
                input(),
                7,
                vec![
                    ConvBlockSpec::repeated(3, 4, 1),
                    ConvBlockSpec::repeated(3, 8, 1),
                ],
                vec![16],
            ),
            Architecture::residual("r", input(), 7, vec![ResBlockSpec::new(1, 4, 3)]),
        ];
        for arch in archs {
            let mut net = Network::seeded(&arch, 1);
            let x = Tensor::zeros([3, 3, 8, 8]);
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(y.shape().dims(), &[3, 7], "wrong logits for {}", arch.name);
        }
    }

    #[test]
    fn train_backward_produces_gradients() {
        let arch = Architecture::plain(
            "p",
            input(),
            4,
            vec![ConvBlockSpec::repeated(3, 4, 1)],
            vec![8],
        );
        let mut net = Network::seeded(&arch, 2);
        let x = Tensor::randn([4, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(3));
        let y = net.forward(&x, Mode::Train);
        net.backward(&y);
        let grads_sq: f32 = net.params_mut().iter().map(|p| p.grad.sq_norm()).sum();
        assert!(grads_sq > 0.0, "no gradient accumulated");
        net.zero_grad();
        let grads_sq: f32 = net.params_mut().iter().map(|p| p.grad.sq_norm()).sum();
        assert_eq!(grads_sq, 0.0);
    }

    /// Skipping the first convolution's input gradient changes no
    /// parameter gradient: `backward_with` matches every node's full
    /// backward, chained by hand, bit for bit — plain and residual bodies.
    #[test]
    fn backward_with_skips_only_the_unread_input_gradient() {
        let archs = [
            Architecture::plain(
                "p",
                input(),
                4,
                vec![ConvBlockSpec::repeated(3, 6, 2)],
                vec![8],
            ),
            Architecture::residual("r", input(), 4, vec![ResBlockSpec::new(1, 4, 3)]),
        ];
        for arch in &archs {
            let x = Tensor::randn([5, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(8));
            let grads = |net: &mut Network| -> Vec<Vec<u32>> {
                let p = net.params_mut();
                p.iter()
                    .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let mut fused = Network::seeded(arch, 9);
            let y = fused.forward(&x, Mode::Train);
            fused.backward_with(&y, &mut Workspace::new());
            let mut chained = Network::seeded(arch, 9);
            let mut g = chained.forward(&x, Mode::Train);
            for node in chained.nodes_mut().iter_mut().rev() {
                g = node.backward(&g);
            }
            assert_eq!(grads(&mut fused), grads(&mut chained), "{}", arch.name);
        }
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let arch = Architecture::mlp("m", input(), 5, vec![8]);
        let mut net = Network::seeded(&arch, 4);
        let x = Tensor::randn([6, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(5));
        let p = net.predict_proba(&x);
        for i in 0..6 {
            let sum: f32 = (0..5).map(|j| p.at2(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        let labels = net.predict(&x);
        assert_eq!(labels.len(), 6);
        assert!(labels.iter().all(|&l| l < 5));
    }

    #[test]
    fn from_parts_validates_realization() {
        let arch = Architecture::mlp("m", input(), 5, vec![8]);
        let net = Network::seeded(&arch, 6);
        let (a, nodes) = net.into_parts();
        let rebuilt = Network::from_parts(a, nodes);
        assert_eq!(rebuilt.arch().name, "m");
    }

    #[test]
    #[should_panic(expected = "does not realize")]
    fn from_parts_rejects_wrong_head() {
        let arch = Architecture::mlp("m", input(), 5, vec![8]);
        let other = Architecture::mlp("m", input(), 3, vec![8]);
        let net = Network::seeded(&arch, 7);
        let (_, nodes) = net.into_parts();
        Network::from_parts(other, nodes);
    }

    #[test]
    fn visit_params_matches_params_mut_order_all_families() {
        // The fused optimizer pairs velocity entries with parameters by
        // visit order, so the visitor must walk the exact same sequence
        // as params_mut — pinned by pointer identity across every layer
        // family (dense, conv, batch norm, residual units).
        let archs = vec![
            Architecture::mlp("m", input(), 5, vec![8]),
            Architecture::plain(
                "p",
                input(),
                5,
                vec![ConvBlockSpec::repeated(3, 4, 1)],
                vec![8],
            ),
            Architecture::residual("r", input(), 5, vec![ResBlockSpec::new(2, 4, 3)]),
        ];
        for arch in archs {
            let mut net = Network::seeded(&arch, 11);
            let listed: Vec<*const Param> = net
                .params_mut()
                .iter()
                .map(|p| *p as *const Param)
                .collect();
            let mut visited: Vec<*const Param> = Vec::new();
            net.visit_params_mut(&mut |p| visited.push(p as *const Param));
            assert_eq!(listed, visited, "order diverged for {}", arch.name);
        }
    }

    #[test]
    fn zeroed_matches_seeded_structure_across_families() {
        // The zero-init restore target must be layer-for-layer identical
        // in structure to the random-init path: same param count, same
        // node kinds, and a weight blob saved from a seeded network must
        // restore into it exactly.
        let archs = vec![
            Architecture::mlp("m", input(), 5, vec![8]),
            Architecture::plain(
                "p",
                input(),
                5,
                vec![ConvBlockSpec::repeated(3, 4, 1)],
                vec![8],
            ),
            Architecture::residual("r", input(), 5, vec![ResBlockSpec::new(2, 4, 3)]),
        ];
        for arch in archs {
            let mut seeded = Network::seeded(&arch, 3);
            let mut zeroed = Network::zeroed(&arch);
            assert_eq!(
                seeded.param_count(),
                zeroed.param_count(),
                "param count diverged for {}",
                arch.name
            );
            let kinds_a: Vec<&str> = seeded.nodes().iter().map(|n| n.kind()).collect();
            let kinds_b: Vec<&str> = zeroed.nodes().iter().map(|n| n.kind()).collect();
            assert_eq!(kinds_a, kinds_b, "node sequence diverged for {}", arch.name);
            // Sampled layers are all-zero (batch-norm keeps its gamma=1,
            // beta=0 defaults — those are constant, not sampled).
            for node in zeroed.nodes() {
                match node {
                    LayerNode::Dense(l) => {
                        assert_eq!(l.weight.value.sq_norm(), 0.0, "dense init is not zero")
                    }
                    LayerNode::Conv(l) => {
                        assert_eq!(l.weight.value.sq_norm(), 0.0, "conv init is not zero")
                    }
                    LayerNode::Residual(l) => {
                        assert_eq!(l.conv1.weight.value.sq_norm(), 0.0);
                        assert_eq!(l.conv2.weight.value.sq_norm(), 0.0);
                    }
                    _ => {}
                }
            }
            let blob = crate::io::save_weights(&seeded);
            crate::io::load_weights(&mut zeroed, &blob).unwrap();
            let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(4));
            assert_eq!(
                seeded.forward(&x, Mode::Eval).data(),
                zeroed.forward(&x, Mode::Eval).data(),
                "restored zeroed network diverged for {}",
                arch.name
            );
        }
    }

    #[test]
    fn shared_eval_forward_matches_mut_forward_bitwise() {
        // forward_eval (shared access) and forward(Mode::Eval) must be
        // the same computation across every layer family — this is the
        // contract that lets serving sessions share one set of weights.
        let archs = vec![
            Architecture::mlp("m", input(), 5, vec![8]),
            Architecture::plain(
                "p",
                input(),
                5,
                vec![ConvBlockSpec::repeated(3, 4, 1)],
                vec![8],
            ),
            Architecture::residual("r", input(), 5, vec![ResBlockSpec::new(1, 4, 3)]),
        ];
        for arch in archs {
            let mut net = Network::seeded(&arch, 5);
            let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(6));
            let shared = net.forward_eval(&x);
            let muted = net.forward(&x, Mode::Eval);
            assert_eq!(
                shared.data(),
                muted.data(),
                "shared eval path diverged for {}",
                arch.name
            );
        }
    }

    #[test]
    fn prefix_plus_tail_equals_whole_forward_at_every_split() {
        // The shared-trunk contract: splitting the eval pass at ANY node
        // boundary and resuming from the intermediate activation is
        // bitwise identical to the unsplit pass, for every layer family.
        let archs = vec![
            Architecture::mlp("m", input(), 5, vec![8]),
            Architecture::plain(
                "p",
                input(),
                5,
                vec![ConvBlockSpec::repeated(3, 4, 1)],
                vec![8],
            ),
            Architecture::residual("r", input(), 5, vec![ResBlockSpec::new(1, 4, 3)]),
        ];
        for arch in archs {
            let net = Network::seeded(&arch, 21);
            let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(22));
            let whole = net.forward_eval(&x);
            let mut ws = mn_tensor::Workspace::new();
            for split in 0..=net.nodes().len() {
                let h = net.forward_eval_prefix_with(&x, split, &mut ws);
                let out = net.forward_eval_tail_with(&h, split, &mut ws);
                assert_eq!(
                    whole.data(),
                    out.data(),
                    "split at node {split} diverged for {}",
                    arch.name
                );
                ws.release(h);
                ws.release(out);
            }
        }
    }

    #[test]
    fn shared_eval_prefix_detects_divergence_point() {
        let arch = Architecture::mlp("m", input(), 5, vec![8, 8]);
        let a = Network::seeded(&arch, 30);
        // Identical clone: full prefix.
        let b = a.clone();
        assert_eq!(a.shared_eval_prefix(&b), a.nodes().len());
        // Re-randomize the final dense layer only: everything before it
        // still shared (fully-shared-but-for-head).
        let mut c = a.clone();
        let last = c.nodes().len() - 1;
        if let crate::node::LayerNode::Dense(l) = &mut c.nodes_mut()[last] {
            let fresh = DenseLayer::new(
                l.in_features(),
                l.out_features(),
                &mut StdRng::seed_from_u64(31),
            );
            *l = fresh;
        } else {
            panic!("mlp must end in a dense head");
        }
        assert_eq!(a.shared_eval_prefix(&c), last);
        // A different seed diverges at the first parameterized node
        // (node 0 is Flatten, which is stateless and always shared).
        let d = Network::seeded(&arch, 31);
        assert_eq!(a.shared_eval_prefix(&d), 1);
        // Flipping one bit anywhere breaks equivalence of that node.
        let mut e = a.clone();
        if let crate::node::LayerNode::Dense(l) = &mut e.nodes_mut()[1] {
            let v = l.weight.value.data()[0];
            l.weight.value.data_mut()[0] = f32::from_bits(v.to_bits() ^ 1);
        }
        assert_eq!(a.shared_eval_prefix(&e), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let arch = Architecture::mlp("m", input(), 5, vec![8]);
        let mut a = Network::seeded(&arch, 9);
        let mut b = Network::seeded(&arch, 9);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(10));
        assert_eq!(
            a.forward(&x, Mode::Eval).data(),
            b.forward(&x, Mode::Eval).data()
        );
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
