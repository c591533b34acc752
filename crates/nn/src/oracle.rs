//! The allocating reference implementation of training, inference,
//! the dense-layer steps, the losses and the matrix products, compiled
//! only into test builds.
//!
//! Every step here allocates its outputs and shares no buffer with the
//! next, which makes it the oracle the workspace paths are compared to
//! bit for bit: `network::tests::equivalence_proptests` trains with
//! `Mlp::fit_reference` beside `Mlp::fit` and scores with
//! `Mlp::predict_proba` beside `Mlp::predict_proba_into`, and the
//! matrix, layer and loss unit tests check their math against it.

use crate::layers::{Dense, DenseGrads};
use crate::loss::{accuracy, softmax_rows_inplace};
use crate::matrix::{gated_threads, Matrix};
use crate::network::{LayerState, Mlp, TrainConfig, TrainReport};
use crate::NnError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

impl Matrix {
    /// Matrix product `self × rhs` at the flop-gated thread count.
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        let flops = self.rows() * self.cols() * rhs.cols();
        self.matmul_into(rhs, &mut out, gated_threads(flops));
        out
    }

    /// `selfᵀ × rhs` at the flop-gated thread count.
    pub(crate) fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        let flops = self.rows() * self.cols() * rhs.cols();
        self.t_matmul_into(rhs, &mut out, gated_threads(flops));
        out
    }

    /// `self × rhsᵀ` at the flop-gated thread count.
    pub(crate) fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        let flops = self.rows() * self.cols() * rhs.rows();
        self.matmul_t_into(rhs, &mut out, gated_threads(flops));
        out
    }

    /// A new matrix keeping only the rows whose indices appear in `idx`
    /// (in `idx` order).
    pub(crate) fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols());
        self.select_rows_into(idx, &mut out);
        out
    }

    /// The transpose as a new matrix.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), self.rows());
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Sum over rows, producing a length-`cols` vector.
    pub(crate) fn column_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }
}

/// Cached forward state needed by the reference backprop.
#[derive(Debug, Clone)]
pub(crate) struct DenseCache {
    /// The layer input (batch × in_dim).
    pub(crate) input: Matrix,
    /// The post-activation output (batch × out_dim).
    pub(crate) output: Matrix,
}

impl Dense {
    /// Forward pass; returns the output and the cache for backprop.
    pub(crate) fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        let mut out = input.matmul(&self.weights);
        out.add_row_bias(&self.bias);
        self.activation.forward_inplace(&mut out);
        let cache = DenseCache {
            input: input.clone(),
            output: out.clone(),
        };
        (out, cache)
    }

    /// Forward pass without caching (inference).
    pub(crate) fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut out = input.matmul(&self.weights);
        out.add_row_bias(&self.bias);
        self.activation.forward_inplace(&mut out);
        out
    }

    /// Backward pass: `grad_out` is ∂L/∂output (batch × out_dim).
    /// Returns the parameter gradients and ∂L/∂input for the previous
    /// layer.
    pub(crate) fn backward(&self, grad_out: &Matrix, cache: &DenseCache) -> (DenseGrads, Matrix) {
        let mut g = grad_out.clone();
        self.activation.backward_inplace(&mut g, &cache.output);
        // dW = xᵀ · g ; db = column sums of g ; dx = g · Wᵀ
        let d_weights = cache.input.t_matmul(&g);
        let d_bias = g.column_sums();
        let d_input = g.matmul_t(&self.weights);
        (
            DenseGrads {
                weights: d_weights,
                bias: d_bias,
            },
            d_input,
        )
    }
}

/// Row-wise softmax of `logits`, returned as a new matrix.
pub(crate) fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Mean cross-entropy of `logits` against integer `labels`, plus the
/// gradient ∂L/∂logits (already averaged over the batch).
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub(crate) fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "label count mismatch");
    let n = logits.rows().max(1);
    let probs = softmax_rows(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let p = probs.get(r, label).max(1e-12);
        loss -= p.ln();
        grad.set(r, label, grad.get(r, label) - 1.0);
    }
    grad.scale_inplace(1.0 / n as f32);
    (loss / n as f32, grad)
}

/// Mean cross-entropy only (no gradient), for validation monitoring.
pub(crate) fn cross_entropy(logits: &Matrix, labels: &[usize]) -> f32 {
    softmax_cross_entropy(logits, labels).0
}

impl Mlp {
    /// Forward pass producing raw logits (no softmax).
    pub(crate) fn logits(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "input width mismatch");
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Row-wise class probabilities.
    pub(crate) fn predict_proba_matrix(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.logits(x))
    }

    /// Probability of class 1 ("match") for each row.
    pub(crate) fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(self.output_dim() >= 2, "need ≥2 classes for positive prob");
        let p = self.predict_proba_matrix(x);
        (0..p.rows()).map(|r| p.get(r, 1)).collect()
    }

    /// The allocating trainer, the equivalence oracle for [`Mlp::fit`]:
    /// no workspace, no durability, no non-finite-loss recovery.
    pub(crate) fn fit_reference(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        self.check_fit_inputs(x, labels)?;
        if self.states.len() != self.layers.len() {
            self.states = self.layers.iter().map(|_| LayerState::default()).collect();
        }

        let batch = cfg.batch_size.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
        let mut report = TrainReport::default();

        // Optional validation split for early stopping.
        let mut all: Vec<usize> = (0..x.rows()).collect();
        all.shuffle(&mut rng);
        let val_fraction = cfg.validation_fraction.clamp(0.0, 0.5);
        let n_val = if val_fraction > 0.0 {
            ((x.rows() as f32 * val_fraction) as usize).min(x.rows().saturating_sub(1))
        } else {
            0
        };
        let (val_idx, train_idx) = all.split_at(n_val);
        let val_x = (!val_idx.is_empty()).then(|| x.select_rows(val_idx));
        let val_y: Vec<usize> = val_idx.iter().map(|&i| labels[i]).collect();
        let mut order: Vec<usize> = train_idx.to_vec();

        let mut best_val = f32::INFINITY;
        let mut best_layers: Option<Vec<Dense>> = None;
        let mut since_best = 0usize;

        for (_epoch, lr) in cfg.schedule.iter() {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                let bx = x.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                epoch_loss += self.train_step(&bx, &by, lr, cfg, &mut rng);
                batches += 1;
            }
            report.epoch_losses.push(epoch_loss / batches.max(1) as f32);

            if let Some(vx) = &val_x {
                let val_loss = cross_entropy(&self.logits(vx), &val_y);
                report.validation_losses.push(val_loss);
                if val_loss < best_val {
                    best_val = val_loss;
                    best_layers = Some(self.layers.clone());
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= cfg.patience.max(1) {
                        report.stopped_early = true;
                        break;
                    }
                }
            }
        }
        if let Some(best) = best_layers {
            self.layers = best;
        }
        report.final_accuracy = accuracy(&self.logits(x), labels);
        Ok(report)
    }

    /// One forward/backward/update step on a minibatch; returns the loss.
    fn train_step(
        &mut self,
        bx: &Matrix,
        by: &[usize],
        lr: f32,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> f32 {
        use rand::Rng;
        let opt = &cfg.optimizer;
        let n_layers = self.layers.len();
        let keep = 1.0 - cfg.dropout.clamp(0.0, 0.95);

        // Forward with caches; inverted dropout on hidden activations.
        let mut caches: Vec<DenseCache> = Vec::with_capacity(n_layers);
        let mut masks: Vec<Option<Matrix>> = vec![None; n_layers];
        let mut h = bx.clone();
        for (idx, layer) in self.layers.iter().enumerate() {
            let (mut out, cache) = layer.forward(&h);
            caches.push(cache);
            if cfg.dropout > 0.0 && idx + 1 < n_layers {
                let mut mask = Matrix::zeros(out.rows(), out.cols());
                for v in mask.data_mut() {
                    *v = if rng.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    };
                }
                out.hadamard_inplace(&mask);
                masks[idx] = Some(mask);
            }
            h = out;
        }
        let (loss, mut grad) = softmax_cross_entropy(&h, by);

        // Backward and update layer by layer (output → input). `grad`
        // arriving at layer `idx` is ∂L/∂(dropped output); undo the mask
        // to get ∂L/∂output before the layer's own backward pass.
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            if let Some(mask) = &masks[idx] {
                grad.hadamard_inplace(mask);
            }
            let (mut grads, d_input) = layer.backward(&grad, &caches[idx]);
            if cfg.weight_decay > 0.0 {
                grads.weights.axpy_inplace(cfg.weight_decay, &layer.weights);
            }
            let state = &mut self.states[idx];
            state
                .weights
                .update(opt, lr, layer.weights.data_mut(), grads.weights.data());
            state.bias.update(opt, lr, &mut layer.bias, &grads.bias);
            grad = d_input;
        }
        loss
    }
}
