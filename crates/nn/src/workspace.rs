//! Reusable buffer workspaces for allocation-free training and scoring.
//!
//! The LEAPME hot loop runs the same small network over millions of
//! minibatches and pair blocks; re-allocating every activation, cache,
//! gradient, and dropout-mask matrix per step dominated the allocator
//! profile. The crate-private `TrainWorkspace` (created once per
//! `Mlp::fit_durable` call) and the public [`ScoreWorkspace`] (for
//! inference) own every buffer a step needs; buffers are sized lazily
//! on first use and reused afterwards, so a steady-state training step
//! or `predict_proba_into` call performs **zero heap allocations** (see
//! the `alloc-count`-gated regression tests).
//!
//! # Buffer lifetimes and aliasing
//!
//! All `_into` methods (`Matrix::{matmul_into, t_matmul_into,
//! matmul_t_into}`, `Dense::forward_into`, `Dense::backward_into`,
//! `softmax_cross_entropy_into`) require that the output buffer does
//! not alias any input operand. The workspaces guarantee this
//! structurally: each layer index owns disjoint activation (`act`),
//! post-dropout (`dropped`), gradient (`d_act`), mask, and
//! parameter-gradient buffers, and the layer-`idx` step only ever
//! writes buffer `idx` while reading buffer `idx − 1` (forward) or
//! `idx − 1`/`idx` (backward).

use crate::layers::{Dense, DenseGrads};
use crate::matrix::Matrix;

/// Preallocated buffers for one training loop (`Mlp::fit_durable`,
/// which creates one per call).
///
/// The workspace holds, per layer: the post-activation output, the
/// post-dropout output, the output gradient, the inverted-dropout mask,
/// and the parameter gradients; plus the gathered minibatch
/// (`batch_x`/`batch_y`), the validation split, the fused-loss gradient
/// buffer, and the persistent early-stopping checkpoint.
#[derive(Debug, Default)]
pub(crate) struct TrainWorkspace {
    /// Gathered minibatch rows (`Matrix::select_rows_into` target).
    pub(crate) batch_x: Matrix,
    /// Gathered minibatch labels.
    pub(crate) batch_y: Vec<usize>,
    /// Per-layer post-activation outputs (pre-dropout).
    pub(crate) act: Vec<Matrix>,
    /// Per-layer post-dropout outputs (used only when dropout is on).
    pub(crate) dropped: Vec<Matrix>,
    /// Per-layer output gradients (∂L/∂ layer output).
    pub(crate) d_act: Vec<Matrix>,
    /// Per-layer inverted-dropout masks.
    pub(crate) masks: Vec<Matrix>,
    /// Per-layer parameter gradients.
    pub(crate) grads: Vec<DenseGrads>,
    /// Persistent early-stopping checkpoint of the best layers.
    pub(crate) checkpoint: Vec<Dense>,
    /// Whether `checkpoint` holds a valid snapshot for the current fit.
    pub(crate) checkpoint_valid: bool,
    /// Gathered validation rows (early stopping only).
    pub(crate) val_x: Matrix,
    /// Fused-loss gradient buffer for the validation loss.
    pub(crate) val_grad: Matrix,
    /// Inference buffers for the validation forward pass.
    pub(crate) score: ScoreWorkspace,
}

impl TrainWorkspace {
    /// An empty workspace; every buffer is sized lazily on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Resize the per-layer buffer vectors to `n` layers. The matrices
    /// themselves stay empty until the first step sizes them.
    pub(crate) fn ensure_layers(&mut self, n: usize) {
        self.act.resize_with(n, || Matrix::zeros(0, 0));
        self.dropped.resize_with(n, || Matrix::zeros(0, 0));
        self.d_act.resize_with(n, || Matrix::zeros(0, 0));
        self.masks.resize_with(n, || Matrix::zeros(0, 0));
        self.grads.resize_with(n, DenseGrads::empty);
        self.score.ensure_layers(n);
    }
}

/// Preallocated per-layer activation buffers for inference
/// (`Mlp::logits_into` / `Mlp::predict_proba_into`).
///
/// Create once per scoring loop (or thread) and reuse across blocks;
/// after the first block no call allocates.
#[derive(Debug, Default)]
pub struct ScoreWorkspace {
    /// Per-layer post-activation outputs.
    pub(crate) act: Vec<Matrix>,
}

impl ScoreWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize the per-layer buffer vector to `n` layers.
    pub(crate) fn ensure_layers(&mut self, n: usize) {
        self.act.resize_with(n, || Matrix::zeros(0, 0));
    }
}

/// Copy `src` layers into `dst`, reusing `dst`'s buffers when the layer
/// count matches (the steady-state case for early-stopping checkpoints:
/// only the first snapshot allocates, later improvements just copy).
pub(crate) fn copy_layers_into(dst: &mut Vec<Dense>, src: &[Dense]) {
    if dst.len() != src.len() {
        dst.clear();
        dst.extend(src.iter().cloned());
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.weights.copy_from(&s.weights);
        d.bias.clear();
        d.bias.extend_from_slice(&s.bias);
        d.activation = s.activation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn copy_layers_reuses_buffers_when_shapes_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let src = vec![
            Dense::new(3, 4, Activation::Relu, Init::HeUniform, &mut rng),
            Dense::new(4, 2, Activation::Identity, Init::XavierUniform, &mut rng),
        ];
        let mut dst = Vec::new();
        copy_layers_into(&mut dst, &src);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst[0].weights, src[0].weights);
        // Mutate source, copy again into the existing buffers.
        let src2 = vec![
            Dense::new(3, 4, Activation::Relu, Init::HeUniform, &mut rng),
            Dense::new(4, 2, Activation::Identity, Init::XavierUniform, &mut rng),
        ];
        copy_layers_into(&mut dst, &src2);
        assert_eq!(dst[1].weights, src2[1].weights);
        assert_eq!(dst[1].bias, src2[1].bias);
    }

    #[test]
    fn ensure_layers_is_idempotent_and_shrinks() {
        let mut ws = TrainWorkspace::new();
        ws.ensure_layers(3);
        assert_eq!(ws.act.len(), 3);
        assert_eq!(ws.grads.len(), 3);
        ws.ensure_layers(2);
        assert_eq!(ws.act.len(), 2);
        ws.ensure_layers(2);
        assert_eq!(ws.d_act.len(), 2);
    }
}
