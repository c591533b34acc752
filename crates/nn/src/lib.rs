//! Dense neural-network substrate for LEAPME.
//!
//! The LEAPME classifier (paper §IV-D) is a fully connected network with
//! two hidden layers of sizes 128 and 64, a two-neuron softmax output,
//! batch size 32, and a staged learning-rate schedule (10 epochs at 1e-3,
//! 5 at 1e-4, 5 at 1e-5). No mature pure-Rust ML stack is available
//! offline, so this crate implements the whole stack from scratch:
//!
//! * [`matrix::Matrix`] — row-major `f32` matrices with cache-friendly
//!   matmul,
//! * [`layers`] — dense layers with ReLU / identity activations,
//! * [`loss`] — softmax cross-entropy (+ numerically stable log-sum-exp),
//! * [`optim`] — SGD (with momentum), Adam, and AdaGrad,
//! * [`schedule`] — staged learning-rate schedules,
//! * [`network::Mlp`] — a multi-layer perceptron with a minibatch trainer.
//!
//! # Example: LEAPME's exact classifier configuration
//!
//! ```
//! use leapme_nn::network::{Mlp, TrainConfig};
//! use leapme_nn::schedule::LrSchedule;
//! use leapme_nn::matrix::Matrix;
//!
//! // A 4-feature toy problem: class = first feature > 0.5.
//! let x = Matrix::from_rows(&[
//!     vec![0.9, 0.1, 0.0, 0.2],
//!     vec![0.1, 0.8, 0.3, 0.1],
//!     vec![0.8, 0.3, 0.1, 0.0],
//!     vec![0.2, 0.9, 0.2, 0.3],
//! ]);
//! let y = vec![1, 0, 1, 0];
//!
//! let mut net = Mlp::leapme(4, 42);
//! let cfg = TrainConfig {
//!     batch_size: 2,
//!     schedule: LrSchedule::leapme(),
//!     ..TrainConfig::default()
//! };
//! net.fit(&x, &y, &cfg).unwrap();
//! let probs = net.predict_proba(&x);
//! assert!(probs[0] > 0.5 && probs[1] < 0.5);
//! ```

#![deny(missing_docs)]
// `deny` rather than `forbid`: exactly two scoped `allow(unsafe_code)`
// overrides exist — the debug-only `alloc-count` counting
// `#[global_allocator]` (whose `GlobalAlloc` impl is necessarily
// unsafe) and the `container2::buffer` module (mmap FFI + aligned
// `&[u8]`→`&[f32]` reinterpretation behind the zero-copy v2
// container), each justified inline per unsafe block.
#![deny(unsafe_code)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod checkpoint;
pub mod container2;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optim;
pub mod schedule;
pub mod threads;
pub mod workspace;

/// Errors produced by the neural-network substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Input dimensions are inconsistent (expected vs. actual).
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it received.
        actual: String,
    },
    /// The training set is empty.
    EmptyTrainingSet,
    /// A label is outside the valid class range.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// Number of classes of the output layer.
        classes: usize,
    },
    /// An epoch produced a non-finite (NaN/∞) loss and the bounded
    /// checkpoint-rollback retries were exhausted
    /// (see [`network::TrainConfig::max_loss_retries`]).
    NonFiniteLoss {
        /// Epoch (schedule index) whose loss was non-finite.
        epoch: usize,
        /// Rollback retries attempted before giving up.
        retries: usize,
    },
    /// Training was cancelled cooperatively (deadline or signal); when a
    /// checkpoint path was configured, the state was persisted first.
    Cancelled,
    /// A checkpoint could not be written, read, or applied
    /// (see [`checkpoint::CheckpointError`] for the underlying cause).
    Checkpoint(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            NnError::EmptyTrainingSet => write!(f, "training set is empty"),
            NnError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::NonFiniteLoss { epoch, retries } => {
                write!(
                    f,
                    "non-finite training loss at epoch {epoch} after {retries} rollback retries"
                )
            }
            NnError::Cancelled => write!(f, "training cancelled"),
            NnError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}
