//! Dense matrices over GF(2^8).
//!
//! Used to build encoding matrices (Vandermonde / Cauchy) and to invert
//! square sub-matrices during decoding and single-block repair coefficient
//! derivation.

use std::fmt;

use crate::Gf256;

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of the given size.
    pub fn identity(size: usize) -> Self {
        let mut m = Matrix::zero(size, size);
        for i in 0..size {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Creates a matrix from a row-major vector of raw byte values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_bytes(rows: usize, cols: usize, data: &[u8]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix {
            rows,
            cols,
            data: data.iter().map(|&b| Gf256(b)).collect(),
        }
    }

    /// Builds an `rows x cols` Vandermonde matrix: entry `(i, j) = i^j`.
    ///
    /// Any `cols x cols` sub-matrix formed from distinct rows is invertible,
    /// which is the property Reed-Solomon coding relies on.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, Gf256::new(i as u8).pow(j));
            }
        }
        m
    }

    /// Builds a Cauchy matrix with entry `(i, j) = 1 / (x_i + y_j)` where
    /// `x_i = i + cols` and `y_j = j`.
    ///
    /// Every square sub-matrix of a Cauchy matrix is invertible.
    ///
    /// # Panics
    ///
    /// Panics if `rows + cols > 256` (the x and y sets must be disjoint).
    pub fn cauchy(rows: usize, cols: usize) -> Self {
        assert!(
            rows + cols <= 256,
            "Cauchy matrix requires rows + cols <= 256"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let x = Gf256::new((i + cols) as u8);
                let y = Gf256::new(j as u8);
                m.set(i, j, (x + y).inverse().expect("x_i + y_j is never zero"));
            }
        }
        m
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> Gf256 {
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: Gf256) {
        self.data[row * self.cols + col] = value;
    }

    /// Returns a row as a slice.
    pub fn row(&self, row: usize) -> &[Gf256] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Every entry, row-major.
    pub(crate) fn elements(&self) -> &[Gf256] {
        &self.data
    }

    /// Returns a new matrix containing only the selected rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            for j in 0..self.cols {
                m.set(dst, j, self.get(src, j));
            }
        }
        m
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must match");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = Gf256::ZERO;
                for t in 0..self.cols {
                    acc += self.get(i, t) * rhs.get(t, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Inverts a square matrix with Gauss-Jordan elimination.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices can be inverted");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot row with a non-zero entry in this column.
            let pivot = (col..n).find(|&r| !work.get(r, col).is_zero())?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let pivot_val = work.get(col, col);
            let pivot_inv = pivot_val.inverse()?;
            work.scale_row(col, pivot_inv);
            inv.scale_row(col, pivot_inv);
            // Eliminate this column from every other row.
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = work.get(row, col);
                if factor.is_zero() {
                    continue;
                }
                work.add_scaled_row(col, row, factor);
                inv.add_scaled_row(col, row, factor);
            }
        }
        Some(inv)
    }

    /// Builds a systematic encoding matrix from an arbitrary full-rank
    /// generator: transforms `G` so that its top `cols x cols` block is the
    /// identity, preserving the MDS property of Vandermonde generators.
    ///
    /// Returns `None` if the top square block cannot be made invertible.
    pub fn into_systematic(self) -> Option<Matrix> {
        let k = self.cols;
        let top: Vec<usize> = (0..k).collect();
        let top_block = self.select_rows(&top);
        let inv = top_block.invert()?;
        Some(self.mul(&inv))
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let tmp = self.get(a, j);
            self.set(a, j, self.get(b, j));
            self.set(b, j, tmp);
        }
    }

    fn scale_row(&mut self, row: usize, factor: Gf256) {
        for j in 0..self.cols {
            let v = self.get(row, j);
            self.set(row, j, v * factor);
        }
    }

    /// `row[dst] += factor * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, factor: Gf256) {
        for j in 0..self.cols {
            let v = self.get(dst, j) + factor * self.get(src, j);
            self.set(dst, j, v);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_times_anything_is_unchanged() {
        let m = Matrix::vandermonde(4, 3);
        let id = Matrix::identity(4);
        assert_eq!(id.mul(&m), m);
    }

    #[test]
    fn invert_identity() {
        let id = Matrix::identity(5);
        assert_eq!(id.invert().unwrap(), id);
    }

    #[test]
    fn invert_roundtrip_cauchy() {
        for n in 1..=8 {
            let m = Matrix::cauchy(n, n);
            let inv = m.invert().expect("Cauchy square matrices are invertible");
            assert_eq!(m.mul(&inv), Matrix::identity(n));
            assert_eq!(inv.mul(&m), Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let mut m = Matrix::zero(2, 2);
        m.set(0, 0, Gf256::ONE);
        m.set(1, 0, Gf256::ONE);
        assert!(m.invert().is_none());
    }

    #[test]
    fn vandermonde_sub_matrices_invertible() {
        // Every k x k sub-matrix of the systematic generator built from a
        // Vandermonde matrix must be invertible (MDS property check for a
        // handful of row selections).
        let n = 6;
        let k = 4;
        let g = Matrix::vandermonde(n, k).into_systematic().unwrap();
        let selections = [
            vec![0, 1, 2, 3],
            vec![2, 3, 4, 5],
            vec![0, 2, 4, 5],
            vec![1, 3, 4, 5],
        ];
        for sel in selections {
            let sub = g.select_rows(&sel);
            assert!(sub.invert().is_some(), "selection {sel:?} not invertible");
        }
    }

    #[test]
    fn systematic_top_is_identity() {
        let g = Matrix::vandermonde(7, 5).into_systematic().unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let expected = if i == j { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(g.get(i, j), expected);
            }
        }
    }

    #[test]
    fn select_rows_preserves_order() {
        let m = Matrix::vandermonde(5, 3);
        let s = m.select_rows(&[4, 1]);
        assert_eq!(s.row(0), m.row(4));
        assert_eq!(s.row(1), m.row(1));
    }

    proptest! {
        #[test]
        fn cauchy_inversion_roundtrip(n in 1usize..10) {
            let m = Matrix::cauchy(n, n);
            let inv = m.invert().unwrap();
            prop_assert_eq!(m.mul(&inv), Matrix::identity(n));
        }

        #[test]
        fn mul_associative(a_rows in 1usize..5, inner in 1usize..5, b_cols in 1usize..5,
                           seed in any::<u64>()) {
            // Random matrices built from the seed; associativity of matrix
            // multiplication over the field.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 32) as u8
            };
            let mut a = Matrix::zero(a_rows, inner);
            let mut b = Matrix::zero(inner, b_cols);
            let mut c = Matrix::zero(b_cols, 3);
            for i in 0..a_rows { for j in 0..inner { a.set(i, j, Gf256(next())); } }
            for i in 0..inner { for j in 0..b_cols { b.set(i, j, Gf256(next())); } }
            for i in 0..b_cols { for j in 0..3 { c.set(i, j, Gf256(next())); } }
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }
}
