//! Row-major `f32` matrices sized for MLP workloads.
//!
//! The LEAPME feature vectors are wide (hundreds of components) but the
//! network is small, so a simple row-major dense matrix with an
//! ikj-ordered matmul (good cache behaviour, auto-vectorizable inner loop)
//! is sufficient and keeps the substrate dependency-free.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Backing storage of a [`Matrix`]: either an owned heap buffer (every
/// matrix constructed in-process) or a shared read-only view into a
/// larger buffer — typically a checksummed section of an mmapped v2
/// LEAPMECP container (see `container2`), letting a model's weights be
/// used without ever materializing per-tensor `Vec`s.
///
/// The enum is private to this module; all access funnels through
/// [`Storage::as_slice`] (reads) and [`Storage::make_mut`]
/// (copy-on-write: a shared view is promoted to an owned copy on first
/// mutation). Training and workspace matrices are always `Owned`, so
/// the promotion never fires on a hot path.
#[derive(Clone)]
enum Storage {
    Owned(Vec<f32>),
    Shared(Arc<dyn AsRef<[f32]> + Send + Sync>),
}

impl Storage {
    #[inline(always)]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_ref().as_ref(),
        }
    }

    /// Copy-on-write access: promotes a shared view to an owned buffer.
    #[inline]
    fn make_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(s) = self {
            *self = Storage::Owned(s.as_ref().as_ref().to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("promoted above"),
        }
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Owned(Vec::new())
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

// Serde delegates to `Vec<f32>` so the JSON shape (a plain sequence) is
// identical whether the storage is owned or shared; deserialization
// always produces owned storage.
impl Serialize for Storage {
    fn to_value(&self) -> Value {
        self.as_slice().to_vec().to_value()
    }
}

impl Deserialize for Storage {
    fn from_value(value: &Value) -> Result<Self, serde::de::DeError> {
        Vec::<f32>::from_value(value).map(Storage::Owned)
    }
}

/// A dense row-major matrix of `f32`.
///
/// `Default` is the empty `0 × 0` matrix — the lazily-sized initial state
/// of every workspace buffer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl Matrix {
    /// An all-zeros matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Build from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows: {} vs {}", r.len(), cols);
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Build over a shared read-only buffer without copying — the
    /// zero-copy path for weights resident in an mmapped v2 container.
    /// The matrix reads directly from `shared`; the first mutating
    /// access (training, in-place ops) promotes it to an owned copy.
    ///
    /// # Panics
    ///
    /// Panics if `shared.as_ref().len() != rows * cols`.
    pub fn from_shared(
        rows: usize,
        cols: usize,
        shared: Arc<dyn AsRef<[f32]> + Send + Sync>,
    ) -> Self {
        assert_eq!(
            shared.as_ref().as_ref().len(),
            rows * cols,
            "shared buffer does not match shape"
        );
        Matrix {
            rows,
            cols,
            data: Storage::Shared(shared),
        }
    }

    /// Whether this matrix reads from shared (zero-copy) storage rather
    /// than an owned buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared(_))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the flat row-major data. Copy-on-write: shared
    /// (zero-copy) storage is promoted to an owned buffer first.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.as_slice()[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.cols + c;
        self.data.make_mut()[idx] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols;
        &mut self.data.make_mut()[r * cols..(r + 1) * cols]
    }

    /// Gather the rows whose indices appear in `idx` (in `idx` order)
    /// into a reusable matrix — the minibatch gather. `out` is reshaped
    /// to `idx.len() × self.cols`, reusing its allocation when capacity
    /// permits.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.resize_zeroed(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Reshape to `rows × cols` with every element set to `0.0`, reusing
    /// the existing allocation when it has enough capacity. This is the
    /// workspace primitive: after warmup no call allocates, because every
    /// steady-state shape fits the capacity established on first use.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        // A shared matrix being reset is abandoning its view anyway,
        // so drop it for a fresh owned buffer instead of copying it.
        if matches!(self.data, Storage::Shared(_)) {
            self.data = Storage::Owned(Vec::new());
        }
        let data = self.data.make_mut();
        data.clear();
        data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `src` (shape and data), reusing the existing
    /// allocation when capacity permits.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        let data = self.data.make_mut();
        data.clear();
        data.extend_from_slice(src.data.as_slice());
    }

    /// Matrix product `self × rhs` into a reusable output matrix.
    ///
    /// `out` is reshaped to `self.rows × rhs.cols` (reusing its
    /// allocation when capacity permits) and must not alias an operand.
    /// With `threads > 1` the output rows are partitioned across that
    /// many scoped worker threads; each output element is always
    /// accumulated over `k` in ascending order, so the result is bitwise
    /// identical for every thread count. The layers pass the count the
    /// crate's flop gate picks: 1 below [`PAR_MIN_FLOPS`], else
    /// [`crate::threads::thread_count`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_zeroed(self.rows, rhs.cols);
        run_row_partitioned(
            self.rows,
            rhs.cols,
            out.data.make_mut(),
            threads,
            |start, chunk| matmul_rows(self, rhs, start, chunk),
        );
    }

    /// `selfᵀ × rhs` into a reusable output matrix, without
    /// materializing the transpose. Threaded and deterministic under the
    /// same policy as [`Self::matmul_into`]: output rows are partitioned,
    /// and each element is reduced over the shared dimension in
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_zeroed(self.cols, rhs.cols);
        run_row_partitioned(
            self.cols,
            rhs.cols,
            out.data.make_mut(),
            threads,
            |start, chunk| t_matmul_rows(self, rhs, start, chunk),
        );
    }

    /// `self × rhsᵀ` into a reusable output matrix, without
    /// materializing the transpose. Threaded and deterministic under the
    /// same policy as [`Self::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_zeroed(self.rows, rhs.rows);
        run_row_partitioned(
            self.rows,
            rhs.rows,
            out.data.make_mut(),
            threads,
            |start, chunk| matmul_t_rows(self, rhs, start, chunk),
        );
    }

    /// Add `bias` (length = cols) to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sum over rows into a reusable length-`cols` vector (cleared and
    /// refilled, reusing its allocation when capacity permits).
    pub fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.make_mut() {
            *v = f(*v);
        }
    }

    /// Element-wise (Hadamard) product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for (a, &b) in self.data.make_mut().iter_mut().zip(other.data.as_slice()) {
            *a *= b;
        }
    }

    /// `self += alpha * other` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.make_mut().iter_mut().zip(other.data.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Scale all elements in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for v in self.data.make_mut() {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Minimum multiply–add count before a product is worth fanning out to
/// worker threads; below this, spawn overhead dominates. 2²⁰ ≈ a
/// 32×637 × 637×128 training batch, the smallest shape where threading
/// pays off on the LEAPME workload.
pub const PAR_MIN_FLOPS: usize = 1 << 20;

/// Worker threads for a product of `flops` multiply–adds: 1 below
/// [`PAR_MIN_FLOPS`], else [`crate::threads::thread_count`] (re-read from
/// `LEAPME_THREADS` on every call).
pub(crate) fn gated_threads(flops: usize) -> usize {
    if flops < PAR_MIN_FLOPS {
        1
    } else {
        crate::threads::thread_count()
    }
}

/// Split `out` (a `rows × out_cols` row-major buffer) into contiguous
/// row chunks and run `kernel(first_row, chunk)` on each, in parallel
/// when `threads > 1`. Chunks never share output rows, so the kernels
/// write disjoint memory; determinism is up to each kernel's reduction
/// order, which all three kernels keep ascending.
fn run_row_partitioned<K>(rows: usize, out_cols: usize, out: &mut [f32], threads: usize, kernel: K)
where
    K: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    // Serial fast path: no chunk vector, no scope — the workspace paths
    // rely on this performing zero heap allocations.
    if threads <= 1 || rows <= 1 {
        kernel(0, out);
        return;
    }
    let chunks = crate::threads::partition(rows, threads);
    if chunks.len() <= 1 {
        kernel(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        for &(start, end) in &chunks {
            let (head, tail) = rest.split_at_mut((end - start) * out_cols);
            rest = tail;
            let kernel = &kernel;
            scope.spawn(move || kernel(start, head));
        }
    });
}

/// Register-block width (in `f32` elements) of the product kernel's
/// accumulator tile: 64 floats fit the SIMD register file, so a full
/// tile is summed entirely in registers and written back once instead
/// of being re-loaded and re-stored from L1 on every `k` step.
const REG_TILE: usize = 64;

/// ikj product kernel for output rows `[row_start, row_start + n)`,
/// where `n = out.len() / rhs.cols`. `k` ascends for every element, and
/// multiply and add stay separate IEEE operations, so the register
/// blocking leaves every output bitwise identical to the naive loop.
fn matmul_rows(a: &Matrix, rhs: &Matrix, row_start: usize, out: &mut [f32]) {
    let out_cols = rhs.cols;
    for (local, out_row) in out.chunks_mut(out_cols).enumerate() {
        let a_row = a.row(row_start + local);
        for jb in (0..out_cols).step_by(REG_TILE) {
            let je = (jb + REG_TILE).min(out_cols);
            let w = je - jb;
            let mut acc = [0f32; REG_TILE];
            if w == REG_TILE {
                // Fixed-width path: the compiler keeps `acc` in
                // registers across the whole `k` loop.
                let acc: &mut [f32; REG_TILE] = &mut acc;
                for (k, &a_ik) in a_row.iter().enumerate() {
                    let b_seg: &[f32; REG_TILE] =
                        rhs.row(k)[jb..je].try_into().expect("tile width");
                    for (o, &b_kj) in acc.iter_mut().zip(b_seg) {
                        *o += a_ik * b_kj;
                    }
                }
            } else {
                for (k, &a_ik) in a_row.iter().enumerate() {
                    let b_seg = &rhs.row(k)[jb..je];
                    for (o, &b_kj) in acc[..w].iter_mut().zip(b_seg) {
                        *o += a_ik * b_kj;
                    }
                }
            }
            out_row[jb..je].copy_from_slice(&acc[..w]);
        }
    }
}

/// `aᵀ × rhs` kernel for output rows `[row_start, row_start + n)`; the
/// output row index is a column of `a`. The reduction over `a.rows`
/// ascends for every element, matching the serial order exactly.
fn t_matmul_rows(a: &Matrix, rhs: &Matrix, row_start: usize, out: &mut [f32]) {
    let out_cols = rhs.cols;
    let n = out.len() / out_cols.max(1);
    for r in 0..a.rows {
        let a_row = a.row(r);
        let b_row = rhs.row(r);
        for local in 0..n {
            let a_ri = a_row[row_start + local];
            let out_row = &mut out[local * out_cols..(local + 1) * out_cols];
            for (o, &b_rj) in out_row.iter_mut().zip(b_row) {
                *o += a_ri * b_rj;
            }
        }
    }
}

/// `a × rhsᵀ` kernel: independent dot products per output element.
fn matmul_t_rows(a: &Matrix, rhs: &Matrix, row_start: usize, out: &mut [f32]) {
    let out_cols = rhs.rows;
    for (local, out_row) in out.chunks_mut(out_cols).enumerate() {
        let a_row = a.row(row_start + local);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = rhs.row(j);
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = small();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known() {
        let a = small();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_matmul() {
        let a = small();
        let id = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn select_rows_for_batching() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[3.0, 1.0]);
    }

    #[test]
    fn bias_and_sums() {
        let mut m = small();
        m.add_row_bias(&[10.0, 20.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.column_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut m = small();
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.data(), &[2.0, 4.0, 6.0, 8.0]);
        let other = small();
        m.hadamard_inplace(&other);
        assert_eq!(m.data(), &[2.0, 8.0, 18.0, 32.0]);
        m.axpy_inplace(-1.0, &m.clone());
        assert_eq!(m.data(), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = small();
        let s = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    proptest! {
        #[test]
        fn t_matmul_matches_explicit_transpose(
            a_rows in 1usize..5, a_cols in 1usize..5, b_cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) - 0.5
            };
            let a = Matrix::from_vec(a_rows, a_cols, (0..a_rows * a_cols).map(|_| next()).collect());
            let b = Matrix::from_vec(a_rows, b_cols, (0..a_rows * b_cols).map(|_| next()).collect());
            let fast = a.t_matmul(&b);
            let slow = a.transpose().matmul(&b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn matmul_t_matches_explicit_transpose(
            a_rows in 1usize..5, shared in 1usize..5, b_rows in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut s = seed.wrapping_add(7);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) - 0.5
            };
            let a = Matrix::from_vec(a_rows, shared, (0..a_rows * shared).map(|_| next()).collect());
            let b = Matrix::from_vec(b_rows, shared, (0..b_rows * shared).map(|_| next()).collect());
            let fast = a.matmul_t(&b);
            let slow = a.matmul(&b.transpose());
            for (x, y) in fast.data().iter().zip(slow.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6) {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let m = Matrix::from_vec(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn threaded_products_are_bitwise_serial(
            a_rows in 1usize..24, shared in 1usize..24, b_cols in 1usize..24,
            threads in 2usize..7, seed in 0u64..500,
        ) {
            let mut s = seed.wrapping_add(13);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) - 0.5
            };
            let a = Matrix::from_vec(a_rows, shared, (0..a_rows * shared).map(|_| next()).collect());
            let b = Matrix::from_vec(shared, b_cols, (0..shared * b_cols).map(|_| next()).collect());

            // matmul: serial vs explicit thread counts, bit for bit.
            let (mut serial, mut par) = (Matrix::default(), Matrix::default());
            a.matmul_into(&b, &mut serial, 1);
            a.matmul_into(&b, &mut par, threads);
            prop_assert_eq!(serial.data(), par.data());

            // t_matmul: aᵀ shares its row count with b.
            let at = a.transpose();
            at.t_matmul_into(&b, &mut serial, 1);
            at.t_matmul_into(&b, &mut par, threads);
            prop_assert_eq!(serial.data(), par.data());

            // matmul_t: b fed transposed so the shared dims line up.
            let bt = b.transpose();
            a.matmul_t_into(&bt, &mut serial, 1);
            a.matmul_t_into(&bt, &mut par, threads);
            prop_assert_eq!(serial.data(), par.data());
        }

        #[test]
        fn thread_count_exceeding_rows_is_safe(rows in 1usize..4, cols in 1usize..4) {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 + 1.0).collect();
            let a = Matrix::from_vec(rows, cols, data);
            let b = a.transpose();
            let (mut serial, mut par) = (Matrix::default(), Matrix::default());
            a.matmul_into(&b, &mut serial, 1);
            a.matmul_into(&b, &mut par, 64);
            prop_assert_eq!(serial.data(), par.data());
        }
    }

    #[test]
    fn empty_products_do_not_panic() {
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.matmul(&empty).shape(), (0, 0));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        assert_eq!(a.matmul(&b).shape(), (3, 2));
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out, 4);
        assert_eq!(out.shape(), (3, 2));
    }

    #[test]
    fn zero_entries_contribute_like_any_other_value() {
        // Regression for the removed `a_ik == 0.0` skip branches: products
        // where one operand is mostly zeros must match the dense math,
        // including signed-zero and subnormal interactions.
        let a = Matrix::from_rows(&[vec![0.0, -0.0, 2.0], vec![0.0, 0.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![1.0, -1.0], vec![f32::MIN_POSITIVE, 3.0], vec![0.5, 0.25]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[1.0, 0.5, 0.0, 0.0]);
        let explicit = a.transpose().t_matmul(&b);
        assert_eq!(explicit.data(), c.data());
    }
}
