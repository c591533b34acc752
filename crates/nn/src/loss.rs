//! Softmax + cross-entropy loss with numerically stable log-sum-exp.
//!
//! LEAPME's output layer has two neurons whose softmax gives the
//! positive-class probability used as the pair similarity score
//! (paper §IV-D), so the loss module also exposes
//! [`softmax_rows_inplace`] for inference.

use crate::matrix::Matrix;

/// Row-wise softmax applied in place.
///
/// Numerically stable: subtracts the row max before exponentiating.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fused softmax + cross-entropy through a reusable gradient buffer.
///
/// Writes ∂L/∂logits (batch-averaged) into `grad` — reshaped to the
/// logits' shape, reusing its allocation — and returns the mean loss.
/// The softmax probabilities are materialized once, in place, in
/// `grad`; each probability is read for the loss before the label
/// indicator is subtracted from it. `grad` must not alias `logits`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "label count mismatch");
    let n = logits.rows().max(1);
    grad.copy_from(logits);
    softmax_rows_inplace(grad);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let p = grad.get(r, label).max(1e-12);
        loss -= p.ln();
        grad.set(r, label, grad.get(r, label) - 1.0);
    }
    grad.scale_inplace(1.0 / n as f32);
    loss / n as f32
}

/// Classification accuracy of `logits` against `labels`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{cross_entropy, softmax_cross_entropy, softmax_rows};
    use proptest::prelude::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_with_huge_logits() {
        let logits = Matrix::from_rows(&[vec![1e4, 1e4 + 1.0]]);
        let p = softmax_rows(&logits);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn uniform_logits_give_ln_k_loss() {
        let logits = Matrix::zeros(3, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_near_zero_loss() {
        let logits = Matrix::from_rows(&[vec![100.0, 0.0], vec![0.0, 100.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[vec![0.3, -0.2, 0.5], vec![1.0, 0.1, -1.0]]);
        let labels = vec![2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut up = logits.clone();
                up.set(r, c, logits.get(r, c) + eps);
                let mut dn = logits.clone();
                dn.set(r, c, logits.get(r, c) - eps);
                let numeric =
                    (cross_entropy(&up, &labels) - cross_entropy(&dn, &labels)) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-3,
                    "grad[{r},{c}] numeric {numeric} vs {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        // Softmax CE gradient per row sums to zero (probabilities − one-hot).
        let logits = Matrix::from_rows(&[vec![0.1, 0.9], vec![2.0, -1.0]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 0]);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn rejects_mismatched_labels() {
        softmax_cross_entropy(&Matrix::zeros(2, 2), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        softmax_cross_entropy(&Matrix::zeros(1, 2), &[5]);
    }

    proptest! {
        #[test]
        fn loss_nonnegative(vals in proptest::collection::vec(-10.0f32..10.0, 6)) {
            let logits = Matrix::from_vec(2, 3, vals);
            let (loss, _) = softmax_cross_entropy(&logits, &[0, 2]);
            prop_assert!(loss >= 0.0);
            prop_assert!(loss.is_finite());
        }

        #[test]
        fn softmax_invariant_to_shift(vals in proptest::collection::vec(-5.0f32..5.0, 3), shift in -50.0f32..50.0) {
            let a = Matrix::from_vec(1, 3, vals.clone());
            let b = Matrix::from_vec(1, 3, vals.iter().map(|v| v + shift).collect());
            let pa = softmax_rows(&a);
            let pb = softmax_rows(&b);
            for (x, y) in pa.data().iter().zip(pb.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
