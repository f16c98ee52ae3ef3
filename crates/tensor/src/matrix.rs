//! Row-major dense `f32` matrix.

use crate::Prng;

/// A dense, row-major `f32` matrix.
///
/// The type is intentionally small: it provides exactly the operations the
/// training loop and the SLDA baseline need, with shape checks on every
/// binary operation. All storage is a single contiguous `Vec<f32>`.
///
/// # Example
///
/// ```
/// use chameleon_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn from a standard normal
    /// distribution scaled by `1/sqrt(cols)` (Glorot-like fan-in scaling is
    /// left to callers; this is the raw `N(0, 1)` fill).
    pub fn randn(rows: usize, cols: usize, rng: &mut Prng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.randn();
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: ({}x{}) · ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // memory in both `rhs` and `out`.
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a_ki) in a_row.iter().enumerate() {
                if a_ki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b;
                }
            }
        }
        out
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    ///
    /// Every output element is one sequential `mul → add` chain over `k`
    /// in order, seeded with `-0.0` — exactly `Iterator::<f32>::sum` of
    /// the products. Four columns of two rows are computed together, each
    /// output in its own accumulator, so eight independent chains overlap
    /// in the pipeline without reassociating any of them: the result is
    /// bit-identical to the one-dot-at-a-time loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: ({}x{}) · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        Self {
            rows: self.rows,
            cols: rhs.rows,
            data: matmul_nt_rows(&self.data, &rhs.data, self.cols),
        }
    }

    /// In-place `self += alpha * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Self) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiply `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Adds `vector` (length = `cols`) to every row — a broadcast bias add.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, vector: &[f32]) {
        assert_eq!(vector.len(), self.cols, "broadcast length must equal cols");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(vector) {
                *a += b;
            }
        }
    }

    /// Sums the rows into a single `cols`-length vector.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Builds a matrix by stacking equal-length row vectors.
    ///
    /// Returns `None` when `rows` is empty or the lengths disagree.
    pub fn try_from_row_iter<'a, I>(rows: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut data = Vec::new();
        let mut cols = None;
        let mut count = 0usize;
        for row in rows {
            match cols {
                None => cols = Some(row.len()),
                Some(c) if c != row.len() => return None,
                _ => {}
            }
            data.extend_from_slice(row);
            count += 1;
        }
        let cols = cols?;
        if cols == 0 || count == 0 {
            return None;
        }
        Some(Self {
            rows: count,
            cols,
            data,
        })
    }
}

/// Row-major `a · bᵀ` for `a` and `b` with `k` columns (`k > 0`), in
/// register blocks of two rows of `a` by four rows of `b`: eight
/// independent accumulators, each a sequential chain over `k` seeded with
/// `-0.0`. An odd last row of `a` is paired with itself; leftover rows of
/// `b` take the plain one-dot-at-a-time `sum`.
fn matmul_nt_rows(a: &[f32], b: &[f32], k: usize) -> Vec<f32> {
    let n = b.len() / k;
    let mut out = vec![0.0f32; a.len() / k * n];
    for (a_pair, out_pair) in a.chunks(2 * k).zip(out.chunks_mut(2 * n)) {
        let (a0, a1) = if a_pair.len() == 2 * k {
            a_pair.split_at(k)
        } else {
            (a_pair, a_pair)
        };
        let mut blocks = b.chunks_exact(4 * k);
        let mut j = 0;
        for block in &mut blocks {
            let (b0, rest) = block.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            let mut acc = [[-0.0f32; 4]; 2];
            let rows = a0.iter().zip(a1).zip(b0).zip(b1).zip(b2).zip(b3);
            for (((((&x0, &x1), &y0), &y1), &y2), &y3) in rows {
                for (acc, x) in acc.iter_mut().zip([x0, x1]) {
                    acc[0] += x * y0;
                    acc[1] += x * y1;
                    acc[2] += x * y2;
                    acc[3] += x * y3;
                }
            }
            for (out_row, acc) in out_pair.chunks_exact_mut(n).zip(&acc) {
                out_row[j..j + 4].copy_from_slice(acc);
            }
            j += 4;
        }
        for b_row in blocks.remainder().chunks_exact(k) {
            for (out_row, a_row) in out_pair.chunks_exact_mut(n).zip([a0, a1]) {
                out_row[j] = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum::<f32>();
            }
            j += 1;
        }
    }
    out
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Prng::new(1);
        let a = Matrix::randn(5, 3, &mut rng);
        let b = Matrix::randn(5, 4, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transposed().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Prng::new(2);
        let a = Matrix::randn(4, 6, &mut rng);
        let b = Matrix::randn(3, 6, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transposed());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = Prng::new(3);
        let a = Matrix::randn(7, 2, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| close(v, 2.0)));
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_reduces_correctly() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.sum_rows(), vec![9.0, 12.0]);
    }

    #[test]
    fn try_from_row_iter_rejects_ragged_input() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0]];
        assert!(Matrix::try_from_row_iter(rows).is_none());
    }

    #[test]
    fn try_from_row_iter_stacks_rows() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0, 4.0]];
        let m = Matrix::try_from_row_iter(rows).expect("valid rows");
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn frobenius_norm_of_unit_row() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!(close(m.frobenius_norm(), 5.0));
    }

    #[test]
    fn display_renders_without_panicking() {
        let m = Matrix::randn(10, 10, &mut Prng::new(0));
        let s = format!("{m}");
        assert!(s.contains("Matrix 10x10"));
    }
}
