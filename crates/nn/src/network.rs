//! Multi-layer perceptron with a minibatch trainer.
//!
//! [`Mlp::leapme`] builds the paper's exact architecture: input →
//! Dense(128, ReLU) → Dense(64, ReLU) → Dense(2, identity) → softmax.
//! Training shuffles each epoch, uses minibatches (paper: 32), and follows
//! a staged [`crate::schedule::LrSchedule`].

use crate::init::Init;
use crate::layers::{Activation, Dense};
use crate::loss::{accuracy, softmax_cross_entropy_into};
use crate::matrix::Matrix;
use crate::optim::{Optimizer, ParamState};
use crate::schedule::LrSchedule;
use crate::workspace::{self, ScoreWorkspace, TrainWorkspace};
use crate::NnError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A feed-forward network of dense layers ending in raw logits
/// (softmax is applied by the loss / inference helpers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub(crate) layers: Vec<Dense>,
    #[serde(skip)]
    pub(crate) states: Vec<LayerState>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct LayerState {
    pub(crate) weights: ParamState,
    pub(crate) bias: ParamState,
}

/// Configuration for [`Mlp::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Minibatch size (paper: 32).
    pub batch_size: usize,
    /// Learning-rate schedule (paper: [`LrSchedule::leapme`]).
    pub schedule: LrSchedule,
    /// Optimizer (default: Adam).
    pub optimizer: Optimizer,
    /// Seed for epoch shuffling (and dropout masks).
    pub shuffle_seed: u64,
    /// If set, record the epoch losses here after training.
    pub verbose: bool,
    /// Inverted-dropout probability applied to hidden activations during
    /// training (`0.0` — the paper's setting — disables it; exposed for
    /// the ablation benches).
    #[serde(default)]
    pub dropout: f32,
    /// L2 weight decay coefficient added to the weight gradients
    /// (`0.0` — the paper's setting — disables it).
    #[serde(default)]
    pub weight_decay: f32,
    /// Fraction of the training rows held out for early stopping
    /// (`0.0` — the paper's setting — disables early stopping).
    #[serde(default)]
    pub validation_fraction: f32,
    /// Early-stopping patience: stop after this many epochs without
    /// validation-loss improvement and restore the best weights.
    /// Only used when `validation_fraction > 0`.
    #[serde(default = "default_patience")]
    pub patience: usize,
    /// Maximum checkpoint-rollback retries across a fit when an epoch
    /// produces a non-finite loss; `0` fails fast on the first poisoned
    /// epoch with [`NnError::NonFiniteLoss`].
    #[serde(default = "default_loss_retries")]
    pub max_loss_retries: usize,
    /// Learning-rate multiplier applied after each non-finite-loss
    /// rollback; the scale persists for the rest of the fit.
    #[serde(default = "default_lr_backoff")]
    pub lr_backoff: f32,
}

fn default_patience() -> usize {
    3
}

fn default_loss_retries() -> usize {
    3
}

fn default_lr_backoff() -> f32 {
    0.1
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            schedule: LrSchedule::leapme(),
            optimizer: Optimizer::adam(),
            shuffle_seed: 0xC0FFEE,
            verbose: false,
            dropout: 0.0,
            weight_decay: 0.0,
            validation_fraction: 0.0,
            patience: 3,
            max_loss_retries: 3,
            lr_backoff: 0.1,
        }
    }
}

/// Durability and cancellation controls for [`Mlp::fit_durable`].
///
/// The default control (no checkpoint path, no cancellation) is what
/// [`Mlp::fit`] passes.
#[derive(Default)]
pub struct FitControl<'a> {
    /// Where to persist mid-schedule training state; `None` disables
    /// checkpointing (a cancellation then exits without saving).
    pub checkpoint_path: Option<&'a std::path::Path>,
    /// Write a checkpoint at every Nth epoch boundary; `0` writes only
    /// when a cancellation is honored.
    pub checkpoint_every: usize,
    /// Restore from `checkpoint_path` when the file exists.
    pub resume: bool,
    /// Cooperative cancellation, polled at every epoch boundary; return
    /// `true` to checkpoint (if configured) and stop with
    /// [`NnError::Cancelled`].
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl std::fmt::Debug for FitControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitControl")
            .field("checkpoint_path", &self.checkpoint_path)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume)
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

/// Per-epoch training telemetry returned by [`Mlp::fit`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean minibatch loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation losses per epoch (empty unless early stopping is on).
    pub validation_losses: Vec<f32>,
    /// Whether training stopped before exhausting the schedule.
    pub stopped_early: bool,
    /// Training-set accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Non-finite-loss rollbacks performed during the fit.
    #[serde(default)]
    pub recoveries: usize,
}

impl Mlp {
    /// Build an MLP from layer sizes; all hidden layers use ReLU and He
    /// init, the output layer is linear with Xavier init.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let is_output = layers.len() == sizes.len() - 2;
            let (act, init) = if is_output {
                (Activation::Identity, Init::XavierUniform)
            } else {
                (Activation::Relu, Init::HeUniform)
            };
            layers.push(Dense::new(w[0], w[1], act, init, &mut rng));
        }
        let states = layers.iter().map(|_| LayerState::default()).collect();
        Mlp { layers, states }
    }

    /// The paper's architecture: `input → 128 → 64 → 2`.
    pub fn leapme(input_dim: usize, seed: u64) -> Self {
        Mlp::new(&[input_dim, 128, 64, 2], seed)
    }

    /// Rebuild a network from decoded layers (checkpoint loading);
    /// optimizer state starts fresh, as after deserialization.
    pub(crate) fn from_layers(layers: Vec<Dense>) -> Self {
        let states = layers.iter().map(|_| LayerState::default()).collect();
        Mlp { layers, states }
    }

    /// Rebuild a network from externally decoded layers (e.g. the v2
    /// zero-copy container loader in `leapme-core`), validating that
    /// consecutive layer shapes chain. Optimizer state starts fresh.
    pub fn try_from_layers(layers: Vec<Dense>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: "at least one layer".into(),
                actual: "0 layers".into(),
            });
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(NnError::ShapeMismatch {
                    expected: format!("next layer input of {}", pair[0].out_dim()),
                    actual: format!("{}", pair[1].in_dim()),
                });
            }
        }
        Ok(Mlp::from_layers(layers))
    }

    /// Input dimensionality expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(Dense::in_dim).unwrap_or(0)
    }

    /// Number of output classes.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(Dense::out_dim).unwrap_or(0)
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// The dense layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Forward pass producing raw logits (no softmax) through a reusable
    /// workspace; allocation-free once the workspace buffers are warm.
    /// The returned reference points at the workspace's final-layer
    /// activation buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()` or the network has no
    /// layers.
    pub fn logits_into<'w>(&self, x: &Matrix, ws: &'w mut ScoreWorkspace) -> &'w Matrix {
        assert_eq!(x.cols(), self.input_dim(), "input width mismatch");
        assert!(!self.layers.is_empty(), "network has no layers");
        ws.ensure_layers(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate() {
            let (before, rest) = ws.act.split_at_mut(idx);
            let input = if idx == 0 { x } else { &before[idx - 1] };
            layer.forward_into(input, &mut rest[0]);
        }
        ws.act.last().expect("network has layers")
    }

    /// Append the probability of class 1 ("match") for each row of `x`
    /// to `out` — LEAPME's similarity score (paper §IV-D) — reusing
    /// workspace buffers. Appending (rather than overwriting) lets
    /// streaming callers accumulate scores across fixed-size chunks.
    ///
    /// # Panics
    ///
    /// Panics if the network does not have ≥ 2 output classes.
    pub fn predict_proba_into(&self, x: &Matrix, ws: &mut ScoreWorkspace, out: &mut Vec<f32>) {
        assert!(self.output_dim() >= 2, "need ≥2 classes for positive prob");
        self.logits_into(x, ws);
        let last = ws.act.last_mut().expect("network has layers");
        crate::loss::softmax_rows_inplace(last);
        out.reserve(last.rows());
        for r in 0..last.rows() {
            out.push(last.get(r, 1));
        }
    }

    /// Train with minibatch gradient descent per the config's schedule:
    /// [`Self::fit_durable`] with no checkpoint and no cancellation.
    pub fn fit(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        self.fit_durable(x, labels, cfg, &FitControl::default())
    }

    /// Train with minibatch gradient descent per the config's schedule,
    /// with durability: periodic resumable checkpoints,
    /// resume-from-checkpoint, and cooperative cancellation at every
    /// epoch boundary. This is the one training loop; [`Self::fit`] is
    /// this call with a default [`FitControl`].
    ///
    /// Returns per-epoch telemetry. Errors if `x` is empty, label counts
    /// mismatch, a label is out of range, or the input width is wrong.
    /// An epoch whose loss or parameters turn non-finite is rolled back
    /// to its start checkpoint and replayed at `lr × lr_backoff`, at most
    /// `max_loss_retries` times across the fit; exhausting the budget
    /// yields [`NnError::NonFiniteLoss`] instead of propagating NaN
    /// weights.
    ///
    /// All per-batch buffers live in one workspace created per call, so
    /// the steady-state training step performs zero heap allocations.
    /// Results are bitwise identical to the allocating reference trainer
    /// the test suite keeps as its oracle.
    ///
    /// When `ctl.checkpoint_path` is set, the complete training state —
    /// weights, optimizer moments, RNG state, epoch order, LR-stage
    /// position, and telemetry so far — is persisted atomically every
    /// `checkpoint_every` epochs (and on cancellation), so a killed run
    /// resumed with `ctl.resume` finishes with a model bitwise identical
    /// to an uninterrupted run. The checkpoint file is deleted once
    /// training completes.
    ///
    /// Cancellation returns [`NnError::Cancelled`] after writing the
    /// checkpoint (when a path is configured). A checkpoint recorded for
    /// different inputs, seed, schedule, or architecture is rejected
    /// with [`NnError::Checkpoint`] instead of silently training the
    /// wrong run.
    pub fn fit_durable(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        cfg: &TrainConfig,
        ctl: &FitControl<'_>,
    ) -> Result<TrainReport, NnError> {
        use crate::checkpoint::{labels_crc, TrainFingerprint, TrainState};

        let mut ws = TrainWorkspace::new();
        self.check_fit_inputs(x, labels)?;
        if self.states.len() != self.layers.len() {
            self.states = self.layers.iter().map(|_| LayerState::default()).collect();
        }
        ws.ensure_layers(self.layers.len());

        let batch = cfg.batch_size.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
        let mut report = TrainReport::default();

        // Deterministic prefix, re-derived on resume too (the initial
        // full shuffle and the validation split depend only on
        // `cfg.shuffle_seed`), after which the saved RNG/order state
        // overwrite the fresh ones. The rng is consumed in exactly the
        // reference order (full shuffle, then per-epoch shuffles, then
        // dropout masks) so every downstream draw matches bitwise.
        let mut all: Vec<usize> = (0..x.rows()).collect();
        all.shuffle(&mut rng);
        let val_fraction = cfg.validation_fraction.clamp(0.0, 0.5);
        let n_val = if val_fraction > 0.0 {
            ((x.rows() as f32 * val_fraction) as usize).min(x.rows().saturating_sub(1))
        } else {
            0
        };
        let (val_idx, train_idx) = all.split_at(n_val);
        let has_val = !val_idx.is_empty();
        if has_val {
            x.select_rows_into(val_idx, &mut ws.val_x);
        }
        let val_y: Vec<usize> = val_idx.iter().map(|&i| labels[i]).collect();
        let mut order: Vec<usize> = train_idx.to_vec();

        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;

        // Non-finite-loss recovery: before each epoch, checkpoint the
        // weights, optimizer moments, rng, and batch order (pre-shuffle,
        // so a rolled-back epoch replays the exact same shuffle and
        // dropout draws at the stepped-down rate). When every loss stays
        // finite the checkpoints are never read and `lr_scale` stays
        // exactly 1.0.
        let stages: Vec<(usize, f32)> = cfg.schedule.iter().collect();
        let mut lr_scale: f32 = 1.0;
        let mut retries_left = cfg.max_loss_retries;
        let mut good_layers: Vec<Dense> = Vec::new();
        let mut good_states: Vec<LayerState> = Vec::new();
        let mut good_order: Vec<usize> = Vec::new();
        let mut stage = 0usize;

        let fingerprint = TrainFingerprint {
            rows: x.rows() as u64,
            cols: x.cols() as u64,
            labels_crc: labels_crc(labels),
            shuffle_seed: cfg.shuffle_seed,
            total_epochs: stages.len() as u64,
            batch: batch as u64,
        };

        if ctl.resume {
            if let Some(path) = ctl.checkpoint_path.filter(|p| p.exists()) {
                let st = TrainState::load(path).map_err(|e| NnError::Checkpoint(e.to_string()))?;
                if st.fingerprint != fingerprint {
                    return Err(NnError::Checkpoint(
                        "checkpoint does not match this run (data, seed, schedule, or batch size changed)"
                            .into(),
                    ));
                }
                let shapes = |ls: &[Dense]| -> Vec<(usize, usize)> {
                    ls.iter().map(|l| (l.in_dim(), l.out_dim())).collect()
                };
                if shapes(&st.layers) != shapes(&self.layers) {
                    return Err(NnError::Checkpoint(
                        "checkpoint network architecture does not match".into(),
                    ));
                }
                self.layers = st.layers;
                self.states = st
                    .states
                    .into_iter()
                    .map(|(weights, bias)| LayerState { weights, bias })
                    .collect();
                rng = StdRng::from_state(st.rng);
                order = st.order.iter().map(|&i| i as usize).collect();
                stage = st.stage as usize;
                lr_scale = st.lr_scale;
                retries_left = st.retries_left as usize;
                report.epoch_losses = st.epoch_losses;
                report.validation_losses = st.validation_losses;
                report.recoveries = st.recoveries as usize;
                best_val = st.best_val;
                since_best = st.since_best as usize;
                if let Some(best) = st.best_layers {
                    ws.checkpoint = best;
                    ws.checkpoint_valid = true;
                }
            }
        }

        while stage < stages.len() {
            // Epoch boundary: persist (periodically, or before honoring a
            // cancellation) and then bail out cleanly if asked to stop.
            // The snapshot is taken pre-shuffle, so a resumed run replays
            // this epoch's shuffle and dropout draws exactly.
            let stop = ctl.cancel.map(|c| c()).unwrap_or(false);
            if let Some(path) = ctl.checkpoint_path {
                let periodic = ctl.checkpoint_every > 0 && stage.is_multiple_of(ctl.checkpoint_every);
                if stop || periodic {
                    let st = TrainState {
                        fingerprint: fingerprint.clone(),
                        stage: stage as u64,
                        lr_scale,
                        retries_left: retries_left as u64,
                        rng: rng.state(),
                        order: order.iter().map(|&i| i as u64).collect(),
                        epoch_losses: report.epoch_losses.clone(),
                        validation_losses: report.validation_losses.clone(),
                        recoveries: report.recoveries as u64,
                        best_val,
                        since_best: since_best as u64,
                        layers: self.layers.clone(),
                        states: self
                            .states
                            .iter()
                            .map(|s| (s.weights.clone(), s.bias.clone()))
                            .collect(),
                        best_layers: ws.checkpoint_valid.then(|| ws.checkpoint.clone()),
                    };
                    st.save(path).map_err(|e| NnError::Checkpoint(e.to_string()))?;
                }
            }
            if stop {
                return Err(NnError::Cancelled);
            }

            let (epoch, base_lr) = stages[stage];
            workspace::copy_layers_into(&mut good_layers, &self.layers);
            good_states.clone_from(&self.states);
            good_order.clone_from(&order);
            let good_rng = rng.clone();

            order.shuffle(&mut rng);
            let lr = base_lr * lr_scale;
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                x.select_rows_into(chunk, &mut ws.batch_x);
                ws.batch_y.clear();
                ws.batch_y.extend(chunk.iter().map(|&i| labels[i]));
                #[allow(unused_mut)]
                let mut loss = self.train_step_ws(lr, cfg, &mut rng, &mut ws);
                #[cfg(feature = "faults")]
                if leapme_faults::fires(leapme_faults::sites::NN_LOSS)
                    == Some(leapme_faults::FaultKind::Nan)
                {
                    loss = f32::NAN;
                }
                epoch_loss += loss;
                batches += 1;
                if !epoch_loss.is_finite() {
                    // The weights are already poisoned; finishing the
                    // epoch would only deepen the damage.
                    break;
                }
            }
            // The loss clamps probabilities at 1e-12 before the log
            // (and `f32::max(NaN, x)` is `x`), so a poisoned network can
            // still report a finite loss — also scan the parameters.
            if !epoch_loss.is_finite() || !self.params_finite() {
                if retries_left == 0 {
                    return Err(NnError::NonFiniteLoss {
                        epoch,
                        retries: cfg.max_loss_retries,
                    });
                }
                retries_left -= 1;
                report.recoveries += 1;
                workspace::copy_layers_into(&mut self.layers, &good_layers);
                self.states.clone_from(&good_states);
                order.clone_from(&good_order);
                rng = good_rng;
                lr_scale *= cfg.lr_backoff.clamp(0.0, 1.0);
                continue;
            }
            report.epoch_losses.push(epoch_loss / batches.max(1) as f32);

            if has_val {
                let val_loss = {
                    let TrainWorkspace {
                        val_x,
                        val_grad,
                        score,
                        ..
                    } = &mut ws;
                    let logits = self.logits_into(val_x, score);
                    softmax_cross_entropy_into(logits, &val_y, val_grad)
                };
                report.validation_losses.push(val_loss);
                if val_loss < best_val {
                    best_val = val_loss;
                    workspace::copy_layers_into(&mut ws.checkpoint, &self.layers);
                    ws.checkpoint_valid = true;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= cfg.patience.max(1) {
                        report.stopped_early = true;
                        break;
                    }
                }
            }
            stage += 1;
        }
        if ws.checkpoint_valid {
            workspace::copy_layers_into(&mut self.layers, &ws.checkpoint);
        }
        report.final_accuracy = {
            let logits = self.logits_into(x, &mut ws.score);
            accuracy(logits, labels)
        };
        // The run completed; the mid-schedule state is now stale.
        if let Some(path) = ctl.checkpoint_path.filter(|p| p.exists()) {
            let _ = std::fs::remove_file(path);
        }
        Ok(report)
    }

    /// One allocation-free forward/backward/update step on the minibatch
    /// currently gathered in the workspace (`batch_x`/`batch_y`); returns
    /// the loss.
    fn train_step_ws(
        &mut self,
        lr: f32,
        cfg: &TrainConfig,
        rng: &mut StdRng,
        ws: &mut TrainWorkspace,
    ) -> f32 {
        use rand::Rng;
        let opt = &cfg.optimizer;
        let n_layers = self.layers.len();
        let keep = 1.0 - cfg.dropout.clamp(0.0, 0.95);
        let dropout_at = |idx: usize| cfg.dropout > 0.0 && idx + 1 < n_layers;
        let TrainWorkspace {
            batch_x,
            batch_y,
            act,
            dropped,
            d_act,
            masks,
            grads,
            ..
        } = &mut *ws;

        // Forward: post-activation outputs land in `act[idx]`; when
        // dropout is on, the masked copy lands in `dropped[idx]` so the
        // pre-dropout output survives for the ReLU backward pass.
        for (idx, layer) in self.layers.iter().enumerate() {
            let (before, rest) = act.split_at_mut(idx);
            let out = &mut rest[0];
            let input: &Matrix = if idx == 0 {
                batch_x
            } else if dropout_at(idx - 1) {
                &dropped[idx - 1]
            } else {
                &before[idx - 1]
            };
            layer.forward_into(input, out);
            if dropout_at(idx) {
                let mask = &mut masks[idx];
                mask.resize_zeroed(out.rows(), out.cols());
                for v in mask.data_mut() {
                    *v = if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 };
                }
                let drop = &mut dropped[idx];
                drop.copy_from(out);
                drop.hadamard_inplace(mask);
            }
        }

        // Fused loss + gradient straight into the last gradient buffer
        // (dropout never applies to the output layer).
        let last = n_layers - 1;
        let loss = softmax_cross_entropy_into(&act[last], batch_y, &mut d_act[last]);

        // Backward and update layer by layer (output → input). The
        // gradient arriving at layer `idx` in `d_act[idx]` is
        // ∂L/∂(dropped output); undo the mask to get ∂L/∂output before
        // the layer's own backward pass. ∂L/∂input is written into
        // `d_act[idx − 1]` before this layer's weights are updated.
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let (d_before, d_rest) = d_act.split_at_mut(idx);
            let g = &mut d_rest[0];
            if dropout_at(idx) {
                g.hadamard_inplace(&masks[idx]);
            }
            let input: &Matrix = if idx == 0 {
                batch_x
            } else if dropout_at(idx - 1) {
                &dropped[idx - 1]
            } else {
                &act[idx - 1]
            };
            let gr = &mut grads[idx];
            let d_input = if idx > 0 {
                Some(&mut d_before[idx - 1])
            } else {
                None
            };
            layer.backward_into(g, input, &act[idx], gr, d_input);
            if cfg.weight_decay > 0.0 {
                gr.weights.axpy_inplace(cfg.weight_decay, &layer.weights);
            }
            let state = &mut self.states[idx];
            state
                .weights
                .update(opt, lr, layer.weights.data_mut(), gr.weights.data());
            state.bias.update(opt, lr, &mut layer.bias, &gr.bias);
        }
        loss
    }

    /// Whether every weight and bias is finite (NaN/∞ free).
    fn params_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            l.weights.data().iter().all(|v| v.is_finite()) && l.bias.iter().all(|v| v.is_finite())
        })
    }

    /// Validate `fit` inputs against the network's shape.
    pub(crate) fn check_fit_inputs(&self, x: &Matrix, labels: &[usize]) -> Result<(), NnError> {
        if x.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        if labels.len() != x.rows() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} labels", x.rows()),
                actual: format!("{} labels", labels.len()),
            });
        }
        if x.cols() != self.input_dim() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} columns", self.input_dim()),
                actual: format!("{} columns", x.cols()),
            });
        }
        let classes = self.output_dim();
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(NnError::InvalidLabel {
                label: bad,
                classes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression tests for the tentpole claim: once the workspace is
    /// warm, a training step and a scoring pass touch the heap zero
    /// times. Shapes are kept far below `PAR_MIN_FLOPS` so every matmul
    /// stays on the calling thread (spawning workers allocates).
    #[cfg(feature = "alloc-count")]
    mod alloc_free {
        use super::*;
        use crate::alloc_count::allocation_count;
        use crate::workspace::{ScoreWorkspace, TrainWorkspace};

        fn fill(m: &mut Matrix, rows: usize, cols: usize) {
            m.resize_zeroed(rows, cols);
            for (i, v) in m.data_mut().iter_mut().enumerate() {
                *v = ((i % 7) as f32) * 0.25 - 0.5;
            }
        }

        #[test]
        fn steady_state_train_step_is_allocation_free() {
            let mut net = Mlp::new(&[12, 10, 6, 2], 9);
            // Dropout and weight decay on, so the mask-fill and decay
            // branches are exercised too.
            let cfg = TrainConfig {
                dropout: 0.2,
                weight_decay: 0.01,
                ..TrainConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(33);
            let mut ws = TrainWorkspace::new();
            ws.ensure_layers(net.layers.len());
            fill(&mut ws.batch_x, 16, 12);
            ws.batch_y.clear();
            ws.batch_y.extend((0..16).map(|i| i % 2));

            // Warm-up: the first steps grow the activation/gradient
            // buffers and the optimizer's lazily-created moment vectors.
            for _ in 0..3 {
                net.train_step_ws(1e-3, &cfg, &mut rng, &mut ws);
            }

            let before = allocation_count();
            let loss = net.train_step_ws(1e-3, &cfg, &mut rng, &mut ws);
            let allocated = allocation_count() - before;
            assert!(loss.is_finite());
            assert_eq!(allocated, 0, "steady-state train_step hit the heap");
        }

        #[test]
        fn steady_state_scoring_is_allocation_free() {
            let net = Mlp::new(&[12, 10, 6, 2], 9);
            let mut x = Matrix::zeros(0, 0);
            fill(&mut x, 16, 12);
            let mut ws = ScoreWorkspace::new();
            let mut out = Vec::new();
            net.predict_proba_into(&x, &mut ws, &mut out);

            out.clear();
            let before = allocation_count();
            net.predict_proba_into(&x, &mut ws, &mut out);
            let allocated = allocation_count() - before;
            assert_eq!(out.len(), 16);
            assert_eq!(allocated, 0, "steady-state scoring hit the heap");
        }
    }

    fn xor_data() -> (Matrix, Vec<usize>) {
        // XOR with slight feature redundancy so the 2-layer net solves it fast.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..8 {
                rows.push(vec![a, b]);
                labels.push(((a as i32) ^ (b as i32)) as usize);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn leapme_architecture_shape() {
        let net = Mlp::leapme(637, 1);
        assert_eq!(net.input_dim(), 637);
        assert_eq!(net.output_dim(), 2);
        let dims: Vec<(usize, usize)> = net
            .layers()
            .iter()
            .map(|l| (l.in_dim(), l.out_dim()))
            .collect();
        assert_eq!(dims, vec![(637, 128), (128, 64), (64, 2)]);
        assert_eq!(net.param_count(), 637 * 128 + 128 + 128 * 64 + 64 + 64 * 2 + 2);
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 16, 8, 2], 3);
        let cfg = TrainConfig {
            batch_size: 8,
            schedule: LrSchedule::new(vec![(200, 0.01)]),
            ..TrainConfig::default()
        };
        let report = net.fit(&x, &y, &cfg).unwrap();
        assert!(
            report.final_accuracy > 0.95,
            "XOR accuracy {}",
            report.final_accuracy
        );
        // Loss should broadly decrease.
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn probabilities_are_valid() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 4);
        net.fit(&x, &y, &TrainConfig::default()).unwrap();
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), x.rows());
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn deterministic_given_seeds() {
        let (x, y) = xor_data();
        let run = || {
            let mut net = Mlp::new(&[2, 8, 2], 5);
            net.fit(&x, &y, &TrainConfig::default()).unwrap();
            net.predict_proba(&x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn errors_on_empty_training_set() {
        let mut net = Mlp::new(&[2, 4, 2], 0);
        let err = net
            .fit(&Matrix::zeros(0, 2), &[], &TrainConfig::default())
            .unwrap_err();
        assert_eq!(err, NnError::EmptyTrainingSet);
    }

    #[test]
    fn errors_on_label_mismatch() {
        let mut net = Mlp::new(&[2, 4, 2], 0);
        let err = net
            .fit(&Matrix::zeros(3, 2), &[0, 1], &TrainConfig::default())
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn errors_on_bad_label() {
        let mut net = Mlp::new(&[2, 4, 2], 0);
        let err = net
            .fit(&Matrix::zeros(2, 2), &[0, 7], &TrainConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            NnError::InvalidLabel {
                label: 7,
                classes: 2
            }
        );
    }

    #[test]
    fn errors_on_wrong_width() {
        let mut net = Mlp::new(&[3, 4, 2], 0);
        let err = net
            .fit(&Matrix::zeros(2, 2), &[0, 1], &TrainConfig::default())
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 6);
        net.fit(&x, &y, &TrainConfig::default()).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(net.predict_proba(&x), back.predict_proba(&x));
    }

    #[test]
    fn dropout_still_learns() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 32, 16, 2], 8);
        let report = net
            .fit(
                &x,
                &y,
                &TrainConfig {
                    batch_size: 8,
                    schedule: LrSchedule::new(vec![(250, 0.01)]),
                    dropout: 0.2,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(
            report.final_accuracy > 0.9,
            "dropout run accuracy {}",
            report.final_accuracy
        );
    }

    #[test]
    fn dropout_is_deterministic_given_seed() {
        let (x, y) = xor_data();
        let run = || {
            let mut net = Mlp::new(&[2, 8, 2], 9);
            net.fit(
                &x,
                &y,
                &TrainConfig {
                    dropout: 0.3,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
            net.predict_proba(&x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (x, y) = xor_data();
        let norm_after = |decay: f32| {
            let mut net = Mlp::new(&[2, 16, 2], 10);
            net.fit(
                &x,
                &y,
                &TrainConfig {
                    schedule: LrSchedule::new(vec![(100, 0.01)]),
                    weight_decay: decay,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
            net.layers()
                .iter()
                .map(|l| l.weights.frobenius_norm())
                .sum::<f32>()
        };
        let free = norm_after(0.0);
        let decayed = norm_after(0.05);
        assert!(
            decayed < free,
            "weight decay should shrink weights: {decayed} vs {free}"
        );
    }

    #[test]
    fn early_stopping_halts_on_unlearnable_validation() {
        // Random labels on random inputs: the network memorizes the
        // training subset while validation loss worsens → early stop.
        let mut s: u64 = 42;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32 * 2.0) - 1.0
        };
        let rows: Vec<Vec<f32>> = (0..60).map(|_| vec![next(), next()]).collect();
        let labels: Vec<usize> = (0..60).map(|_| usize::from(next() > 0.0)).collect();
        let x = Matrix::from_rows(&rows);

        let mut net = Mlp::new(&[2, 64, 32, 2], 11);
        let report = net
            .fit(
                &x,
                &labels,
                &TrainConfig {
                    batch_size: 8,
                    schedule: LrSchedule::new(vec![(400, 0.02)]),
                    validation_fraction: 0.25,
                    patience: 5,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(report.stopped_early, "expected early stop");
        assert!(report.epoch_losses.len() < 400);
        assert_eq!(report.validation_losses.len(), report.epoch_losses.len());
        // Best weights were restored: final validation loss equals the
        // minimum observed, within re-evaluation tolerance.
        let min_val = report
            .validation_losses
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert!(min_val.is_finite());
    }

    #[test]
    fn train_config_deserializes_old_format() {
        // Configs serialized before dropout/weight-decay/early-stopping
        // existed must still load (new fields default).
        let old = r#"{
            "batch_size": 32,
            "schedule": {"stages": [[10, 0.001]]},
            "optimizer": {"Adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}},
            "shuffle_seed": 1,
            "verbose": false
        }"#;
        let cfg: TrainConfig = serde_json::from_str(old).unwrap();
        assert_eq!(cfg.dropout, 0.0);
        assert_eq!(cfg.weight_decay, 0.0);
        assert_eq!(cfg.validation_fraction, 0.0);
        assert_eq!(cfg.patience, 3);
        assert_eq!(cfg.max_loss_retries, 3);
        assert_eq!(cfg.lr_backoff, 0.1);
    }

    #[test]
    fn train_report_deserializes_old_format() {
        // Reports serialized before recovery telemetry existed must
        // still load (the counter defaults to zero).
        let old = r#"{
            "epoch_losses": [0.7, 0.5],
            "validation_losses": [],
            "stopped_early": false,
            "final_accuracy": 0.9
        }"#;
        let report: TrainReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn nonfinite_loss_exhausts_retries_and_errors() {
        // An absurd learning rate blows the weights up after the first
        // minibatch; the second batch's gradients overflow and poison
        // the weights with NaN (the clamped loss stays finite, so the
        // parameter scan is what must catch it). Stepping the rate down
        // by 0.1 three times (1e30 → 1e27) cannot save it, so every
        // rollback re-poisons and the retry budget runs out at epoch 0.
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 16, 8, 2], 3);
        let cfg = TrainConfig {
            batch_size: 8,
            schedule: LrSchedule::new(vec![(5, 1e30)]),
            ..TrainConfig::default()
        };
        let err = net.fit(&x, &y, &cfg).unwrap_err();
        assert_eq!(
            err,
            NnError::NonFiniteLoss {
                epoch: 0,
                retries: 3
            }
        );
    }

    #[test]
    fn zero_retries_fails_fast_on_poisoned_epoch() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 16, 8, 2], 3);
        let cfg = TrainConfig {
            batch_size: 8,
            schedule: LrSchedule::new(vec![(5, 1e30)]),
            max_loss_retries: 0,
            ..TrainConfig::default()
        };
        let err = net.fit(&x, &y, &cfg).unwrap_err();
        assert_eq!(
            err,
            NnError::NonFiniteLoss {
                epoch: 0,
                retries: 0
            }
        );
    }

    #[test]
    fn no_validation_means_no_early_stop() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 12);
        let report = net
            .fit(
                &x,
                &y,
                &TrainConfig {
                    schedule: LrSchedule::new(vec![(5, 1e-3)]),
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(!report.stopped_early);
        assert!(report.validation_losses.is_empty());
        assert_eq!(report.epoch_losses.len(), 5);
    }

    #[test]
    fn workspace_fit_matches_reference_bitwise() {
        let (x, y) = xor_data();
        for cfg in [
            TrainConfig::default(),
            TrainConfig {
                dropout: 0.3,
                ..TrainConfig::default()
            },
            TrainConfig {
                batch_size: 7,
                validation_fraction: 0.25,
                patience: 2,
                weight_decay: 0.01,
                ..TrainConfig::default()
            },
        ] {
            let mut a = Mlp::new(&[2, 8, 4, 2], 21);
            let mut b = a.clone();
            let ra = a.fit(&x, &y, &cfg).unwrap();
            let rb = b.fit_reference(&x, &y, &cfg).unwrap();
            assert_eq!(ra.epoch_losses, rb.epoch_losses);
            assert_eq!(ra.validation_losses, rb.validation_losses);
            assert_eq!(ra.stopped_early, rb.stopped_early);
            assert_eq!(ra.final_accuracy, rb.final_accuracy);
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
            for (la, lb) in a.layers().iter().zip(b.layers()) {
                assert_eq!(la.weights, lb.weights);
                assert_eq!(la.bias, lb.bias);
            }
        }
    }

    #[test]
    fn logits_into_matches_logits() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 13);
        net.fit(&x, &y, &TrainConfig::default()).unwrap();
        let mut ws = crate::workspace::ScoreWorkspace::new();
        let reference = net.logits(&x);
        let streamed = net.logits_into(&x, &mut ws);
        assert_eq!(reference, *streamed);
        let mut out = Vec::new();
        net.predict_proba_into(&x, &mut ws, &mut out);
        assert_eq!(out, net.predict_proba(&x));
        // Appending semantics: a second call extends instead of clobbering.
        net.predict_proba_into(&x, &mut ws, &mut out);
        assert_eq!(out.len(), 2 * x.rows());
    }

    #[test]
    fn workspace_fit_matches_reference_across_thread_counts() {
        // Shapes chosen so the first-layer matmul crosses PAR_MIN_FLOPS
        // (64 × 96 × 192 ≈ 1.2 M multiply–adds) and the kernels actually
        // consult the LEAPME_THREADS override; training must stay bitwise
        // identical no matter how many workers the matmuls fan out to.
        let _guard = crate::threads::ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var(crate::threads::THREADS_ENV).ok();

        let mut rng = StdRng::seed_from_u64(99);
        let x = random_matrix(64, 96, &mut rng);
        let y: Vec<usize> = (0..64).map(|i| i % 2).collect();
        let cfg = TrainConfig {
            batch_size: 64,
            schedule: LrSchedule::new(vec![(2, 1e-3)]),
            ..TrainConfig::default()
        };

        let mut baseline: Option<Mlp> = None;
        for threads in [1usize, 2, 3] {
            std::env::set_var(crate::threads::THREADS_ENV, threads.to_string());
            let mut net = Mlp::new(&[96, 192, 2], 5);
            net.fit(&x, &y, &cfg).unwrap();
            match &baseline {
                None => baseline = Some(net),
                Some(b) => {
                    for (la, lb) in net.layers().iter().zip(b.layers()) {
                        assert_eq!(la.weights, lb.weights, "threads={threads}");
                        assert_eq!(la.bias, lb.bias, "threads={threads}");
                    }
                }
            }
        }

        match prev {
            Some(v) => std::env::set_var(crate::threads::THREADS_ENV, v),
            None => std::env::remove_var(crate::threads::THREADS_ENV),
        }
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        use rand::Rng;
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
        Matrix::from_vec(rows, cols, data)
    }

    mod equivalence_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The workspace trainer is bitwise-identical to the
            /// allocating reference over random shapes, batch sizes,
            /// dropout rates, and early-stopping splits.
            #[test]
            fn fit_matches_reference(
                rows in 4usize..24,
                cols in 1usize..8,
                hidden in 1usize..10,
                batch_size in 1usize..12,
                dropout_on in 0usize..2,
                validation_on in 0usize..2,
                seed in 0u64..1_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let x = random_matrix(rows, cols, &mut rng);
                let y: Vec<usize> = (0..rows).map(|i| (i + seed as usize) % 2).collect();
                let cfg = TrainConfig {
                    batch_size,
                    schedule: LrSchedule::new(vec![(3, 1e-3)]),
                    shuffle_seed: seed ^ 0xABCD,
                    dropout: if dropout_on == 1 { 0.25 } else { 0.0 },
                    weight_decay: 0.01,
                    validation_fraction: if validation_on == 1 { 0.25 } else { 0.0 },
                    patience: 1,
                    ..TrainConfig::default()
                };
                let mut a = Mlp::new(&[cols, hidden, 2], seed.wrapping_add(1));
                let mut b = a.clone();
                let ra = a.fit(&x, &y, &cfg).unwrap();
                let rb = b.fit_reference(&x, &y, &cfg).unwrap();
                prop_assert_eq!(ra.epoch_losses, rb.epoch_losses);
                prop_assert_eq!(ra.validation_losses, rb.validation_losses);
                prop_assert_eq!(ra.stopped_early, rb.stopped_early);
                prop_assert_eq!(ra.final_accuracy, rb.final_accuracy);
                prop_assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
                for (la, lb) in a.layers().iter().zip(b.layers()) {
                    prop_assert_eq!(&la.weights, &lb.weights);
                    prop_assert_eq!(&la.bias, &lb.bias);
                }
            }

            /// Workspace scoring equals the allocating path for random
            /// shapes, including when one workspace is reused across
            /// differently-shaped batches.
            #[test]
            fn scoring_matches_reference(
                rows_a in 1usize..20,
                rows_b in 1usize..20,
                cols in 1usize..10,
                hidden in 1usize..12,
                seed in 0u64..1_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let net = Mlp::new(&[cols, hidden, 2], seed.wrapping_add(7));
                let mut ws = crate::workspace::ScoreWorkspace::new();
                for rows in [rows_a, rows_b] {
                    let x = random_matrix(rows, cols, &mut rng);
                    prop_assert_eq!(&net.logits(&x), net.logits_into(&x, &mut ws));
                    let mut out = Vec::new();
                    net.predict_proba_into(&x, &mut ws, &mut out);
                    prop_assert_eq!(out, net.predict_proba(&x));
                }
            }
        }
    }

    mod durable {
        use super::*;
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicUsize, Ordering};

        fn tmp(name: &str) -> PathBuf {
            let dir = std::env::temp_dir().join("leapme_nn_durable_tests");
            std::fs::create_dir_all(&dir).unwrap();
            dir.join(name)
        }

        fn assert_same_net(a: &Mlp, b: &Mlp) {
            for (la, lb) in a.layers().iter().zip(b.layers()) {
                assert_eq!(la.weights, lb.weights);
                assert_eq!(la.bias, lb.bias);
            }
        }

        #[test]
        fn checkpointing_does_not_change_the_model() {
            let (x, y) = xor_data();
            let cfg = TrainConfig::default();
            let path = tmp("every_epoch.ckpt");
            let mut a = Mlp::new(&[2, 8, 2], 32);
            let mut b = a.clone();
            a.fit(&x, &y, &cfg).unwrap();
            b.fit_durable(
                &x,
                &y,
                &cfg,
                &FitControl {
                    checkpoint_path: Some(&path),
                    checkpoint_every: 1,
                    ..FitControl::default()
                },
            )
            .unwrap();
            assert_same_net(&a, &b);
            assert!(!path.exists(), "checkpoint must be removed on completion");
        }

        #[test]
        fn cancel_then_resume_is_bitwise_identical() {
            let (x, y) = xor_data();
            // Exercise the full state surface: dropout (RNG mid-stream),
            // early-stopping bookkeeping, and the staged schedule.
            let cfg = TrainConfig {
                dropout: 0.2,
                validation_fraction: 0.25,
                patience: 50,
                schedule: LrSchedule::new(vec![(8, 1e-3), (6, 1e-4)]),
                ..TrainConfig::default()
            };
            let mut reference = Mlp::new(&[2, 8, 4, 2], 33);
            let fresh = reference.clone();
            let ref_report = reference.fit(&x, &y, &cfg).unwrap();

            for cancel_after in [1usize, 3, 7, 11] {
                let path = tmp(&format!("cancel_at_{cancel_after}.ckpt"));
                std::fs::remove_file(&path).ok();
                let mut net = fresh.clone();
                let seen = AtomicUsize::new(0);
                let cancel = move || seen.fetch_add(1, Ordering::SeqCst) >= cancel_after;
                let err = net
                    .fit_durable(
                        &x,
                        &y,
                        &cfg,
                        &FitControl {
                            checkpoint_path: Some(&path),
                            checkpoint_every: 0,
                            resume: false,
                            cancel: Some(&cancel),
                        },
                    )
                    .unwrap_err();
                assert_eq!(err, NnError::Cancelled);
                assert!(path.exists(), "cancellation must persist a checkpoint");

                let mut resumed = fresh.clone();
                let report = resumed
                    .fit_durable(
                        &x,
                        &y,
                        &cfg,
                        &FitControl {
                            checkpoint_path: Some(&path),
                            resume: true,
                            ..FitControl::default()
                        },
                    )
                    .unwrap();
                assert_same_net(&reference, &resumed);
                assert_eq!(report.epoch_losses, ref_report.epoch_losses);
                assert_eq!(report.validation_losses, ref_report.validation_losses);
                assert!(!path.exists());
            }
        }

        #[test]
        fn mismatched_checkpoint_is_rejected() {
            let (x, y) = xor_data();
            let cfg = TrainConfig::default();
            let path = tmp("mismatch.ckpt");
            std::fs::remove_file(&path).ok();
            let mut net = Mlp::new(&[2, 8, 2], 34);
            let cancel = || true;
            let err = net
                .fit_durable(
                    &x,
                    &y,
                    &cfg,
                    &FitControl {
                        checkpoint_path: Some(&path),
                        cancel: Some(&cancel),
                        ..FitControl::default()
                    },
                )
                .unwrap_err();
            assert_eq!(err, NnError::Cancelled);

            // Different shuffle seed → different run identity.
            let other = TrainConfig {
                shuffle_seed: cfg.shuffle_seed ^ 1,
                ..cfg.clone()
            };
            let mut resumed = Mlp::new(&[2, 8, 2], 34);
            let err = resumed
                .fit_durable(
                    &x,
                    &y,
                    &other,
                    &FitControl {
                        checkpoint_path: Some(&path),
                        resume: true,
                        ..FitControl::default()
                    },
                )
                .unwrap_err();
            assert!(matches!(err, NnError::Checkpoint(_)), "got {err:?}");

            // Different architecture with the same data/config.
            let mut wrong_arch = Mlp::new(&[2, 16, 2], 34);
            let err = wrong_arch
                .fit_durable(
                    &x,
                    &y,
                    &cfg,
                    &FitControl {
                        checkpoint_path: Some(&path),
                        resume: true,
                        ..FitControl::default()
                    },
                )
                .unwrap_err();
            assert!(matches!(err, NnError::Checkpoint(_)), "got {err:?}");
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn resume_without_checkpoint_trains_from_scratch() {
            let (x, y) = xor_data();
            let cfg = TrainConfig::default();
            let path = tmp("never_written.ckpt");
            std::fs::remove_file(&path).ok();
            let mut a = Mlp::new(&[2, 8, 2], 35);
            let mut b = a.clone();
            a.fit(&x, &y, &cfg).unwrap();
            b.fit_durable(
                &x,
                &y,
                &cfg,
                &FitControl {
                    checkpoint_path: Some(&path),
                    resume: true,
                    ..FitControl::default()
                },
            )
            .unwrap();
            assert_same_net(&a, &b);
        }

        #[test]
        fn corrupt_checkpoint_is_typed_error_on_resume() {
            let (x, y) = xor_data();
            let cfg = TrainConfig::default();
            let path = tmp("corrupt.ckpt");
            let mut net = Mlp::new(&[2, 8, 2], 36);
            let cancel = || true;
            net.fit_durable(
                &x,
                &y,
                &cfg,
                &FitControl {
                    checkpoint_path: Some(&path),
                    cancel: Some(&cancel),
                    ..FitControl::default()
                },
            )
            .unwrap_err();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let mut resumed = Mlp::new(&[2, 8, 2], 36);
            let err = resumed
                .fit_durable(
                    &x,
                    &y,
                    &cfg,
                    &FitControl {
                        checkpoint_path: Some(&path),
                        resume: true,
                        ..FitControl::default()
                    },
                )
                .unwrap_err();
            assert!(matches!(err, NnError::Checkpoint(_)), "got {err:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn staged_schedule_runs_all_epochs() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 7);
        let report = net
            .fit(
                &x,
                &y,
                &TrainConfig {
                    schedule: LrSchedule::leapme(),
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.epoch_losses.len(), 20);
    }
}
