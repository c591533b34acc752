//! Dense (fully connected) layers with activations.

use crate::init::Init;
use crate::matrix::{gated_threads, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Element-wise activation applied after a dense layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// No activation (used before the softmax output).
    Identity,
}

impl Activation {
    /// Apply the activation in place.
    pub fn forward_inplace(self, m: &mut Matrix) {
        if self == Activation::Relu {
            m.map_inplace(|v| v.max(0.0));
        }
    }

    /// Multiply `grad` in place by the activation derivative evaluated at
    /// the *post-activation* values `activated`.
    ///
    /// For ReLU the derivative is `1` where the output is positive, `0`
    /// elsewhere, so post-activation values are sufficient.
    pub fn backward_inplace(self, grad: &mut Matrix, activated: &Matrix) {
        if self == Activation::Relu {
            assert_eq!(grad.shape(), activated.shape(), "activation grad shape");
            for (g, &a) in grad.data_mut().iter_mut().zip(activated.data()) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
        }
    }
}

/// A fully connected layer: `y = act(x · W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix of shape `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias vector of length `out_dim`.
    pub bias: Vec<f32>,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

/// Gradients of a dense layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// ∂L/∂W, same shape as the weights.
    pub weights: Matrix,
    /// ∂L/∂b, same length as the bias.
    pub bias: Vec<f32>,
}

impl DenseGrads {
    /// An empty gradient buffer; sized lazily by [`Dense::backward_into`].
    pub fn empty() -> Self {
        DenseGrads {
            weights: Matrix::zeros(0, 0),
            bias: Vec::new(),
        }
    }
}

impl Dense {
    /// A new dense layer with the given initialization (bias starts at 0).
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut StdRng,
    ) -> Self {
        Dense {
            weights: init.sample(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass writing the post-activation output into a reusable
    /// matrix. No cache is produced: callers keep the input and output
    /// buffers alive themselves and hand them back to
    /// [`Self::backward_into`]. The product runs at the flop-gated
    /// thread count (serial below [`crate::matrix::PAR_MIN_FLOPS`]).
    ///
    /// `out` must not alias `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != self.in_dim()`.
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        let flops = input.rows() * input.cols() * self.weights.cols();
        input.matmul_into(&self.weights, out, gated_threads(flops));
        out.add_row_bias(&self.bias);
        self.activation.forward_inplace(out);
    }

    /// Backward pass through preallocated buffers.
    ///
    /// `grad` arrives as ∂L/∂output and is consumed in place (the
    /// activation derivative is applied to it). `input` and `output` are
    /// the layer's forward buffers (`output` is the *pre-dropout*
    /// post-activation output). Parameter gradients land in `grads`
    /// (dW = xᵀ · g, db = column sums of g); ∂L/∂input = g · Wᵀ is
    /// written into `d_input` when provided (the first layer of a
    /// network can skip it). None of the buffers may alias each other.
    /// Both products run at the flop-gated thread count, as in
    /// [`Self::forward_into`].
    pub fn backward_into(
        &self,
        grad: &mut Matrix,
        input: &Matrix,
        output: &Matrix,
        grads: &mut DenseGrads,
        d_input: Option<&mut Matrix>,
    ) {
        self.activation.backward_inplace(grad, output);
        let flops = input.rows() * input.cols() * grad.cols();
        input.t_matmul_into(grad, &mut grads.weights, gated_threads(flops));
        grad.column_sums_into(&mut grads.bias);
        if let Some(d) = d_input {
            let flops = grad.rows() * grad.cols() * self.weights.rows();
            grad.matmul_t_into(&self.weights, d, gated_threads(flops));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer(in_dim: usize, out_dim: usize, act: Activation) -> Dense {
        let mut rng = StdRng::seed_from_u64(7);
        Dense::new(in_dim, out_dim, act, Init::HeUniform, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(3, 5, Activation::Relu);
        let x = Matrix::zeros(4, 3);
        let (y, cache) = l.forward(&x);
        assert_eq!(y.shape(), (4, 5));
        assert_eq!(cache.input.shape(), (4, 3));
        assert_eq!(cache.output.shape(), (4, 5));
        assert_eq!(l.param_count(), 3 * 5 + 5);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut l = layer(1, 1, Activation::Relu);
        l.weights = Matrix::from_rows(&[vec![1.0]]);
        l.bias = vec![0.0];
        let x = Matrix::from_rows(&[vec![-2.0], vec![3.0]]);
        let y = l.forward_inference(&x);
        assert_eq!(y.data(), &[0.0, 3.0]);
    }

    #[test]
    fn identity_passes_through() {
        let mut l = layer(1, 1, Activation::Identity);
        l.weights = Matrix::from_rows(&[vec![2.0]]);
        l.bias = vec![1.0];
        let x = Matrix::from_rows(&[vec![-2.0]]);
        let y = l.forward_inference(&x);
        assert_eq!(y.data(), &[-3.0]);
    }

    #[test]
    fn backward_numeric_gradient_check() {
        // Compare analytic dW/db/dx to central finite differences on a
        // scalar loss L = sum(output).
        let mut l = layer(3, 2, Activation::Relu);
        let x = Matrix::from_rows(&[vec![0.5, -0.3, 0.8], vec![-0.1, 0.9, 0.2]]);
        let (y, cache) = l.forward(&x);
        let grad_out = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let (grads, d_input) = l.backward(&grad_out, &cache);

        let eps = 1e-3f32;
        let loss = |l: &Dense, x: &Matrix| -> f32 { l.forward_inference(x).data().iter().sum() };

        // Check a few weight entries.
        for (r, c) in [(0, 0), (1, 1), (2, 0)] {
            let orig = l.weights.get(r, c);
            l.weights.set(r, c, orig + eps);
            let up = loss(&l, &x);
            l.weights.set(r, c, orig - eps);
            let dn = loss(&l, &x);
            l.weights.set(r, c, orig);
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = grads.weights.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Bias.
        for i in 0..2 {
            let orig = l.bias[i];
            l.bias[i] = orig + eps;
            let up = loss(&l, &x);
            l.bias[i] = orig - eps;
            let dn = loss(&l, &x);
            l.bias[i] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!((numeric - grads.bias[i]).abs() < 1e-2);
        }

        // Input gradient.
        let mut x2 = x.clone();
        for (r, c) in [(0, 0), (1, 2)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = loss(&l, &x2);
            x2.set(r, c, orig - eps);
            let dn = loss(&l, &x2);
            x2.set(r, c, orig);
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = d_input.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dX[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let l = layer(2, 2, Activation::Relu);
        let s = serde_json::to_string(&l).unwrap();
        let back: Dense = serde_json::from_str(&s).unwrap();
        assert_eq!(l.weights, back.weights);
        assert_eq!(l.bias, back.bias);
        assert_eq!(l.activation, back.activation);
    }
}
