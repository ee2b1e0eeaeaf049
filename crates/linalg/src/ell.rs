//! ELLPACK (ELL) sparse storage: padded, structure-of-arrays, slot-major.
//!
//! For the paper's lattice Hamiltonians every row stores (almost) the same
//! number of entries — seven for the periodic cubic lattice — so padding each
//! row to the maximum width wastes little and buys a completely regular
//! access pattern: entry `s` of row `i` lives at flat index `s * nrows + i`.
//! Walking slot-by-slot therefore streams `col_idx`/`values` contiguously
//! across rows, which is exactly the coalesced layout GPU SpMV kernels want
//! and is also friendly to CPU prefetchers. Padding slots are never read:
//! each row carries its true length in `row_len`.

use crate::csr::CsrMatrix;
use crate::op::LinearOp;

/// A sparse `nrows x ncols` matrix in slot-major ELLPACK form.
///
/// `col_idx` and `values` have length `nrows * width`; the `s`-th stored
/// entry of row `i` sits at `s * nrows + i`. Rows shorter than `width` are
/// padded with zero values at column 0, but kernels stop at `row_len[i]` so
/// the padding is inert. Within each row, entries keep the ascending-column
/// order of the source CSR, so per-row accumulation is bitwise identical to
/// [`CsrMatrix::spmv`].
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    nrows: usize,
    ncols: usize,
    width: usize,
    nnz: usize,
    row_len: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl EllMatrix {
    /// Converts a CSR matrix, padding every row to the maximum row width.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let width = csr.max_row_nnz();
        let mut row_len = Vec::with_capacity(nrows);
        let mut col_idx = vec![0usize; nrows * width];
        let mut values = vec![0.0f64; nrows * width];
        for i in 0..nrows {
            let mut len = 0;
            for (s, (c, v)) in csr.row_entries(i).enumerate() {
                col_idx[s * nrows + i] = c;
                values[s * nrows + i] = v;
                len += 1;
            }
            row_len.push(len);
        }
        Self { nrows, ncols, width, nnz: csr.nnz(), row_len, col_idx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of *stored* entries, excluding padding (same count as the
    /// source CSR, explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The padded row width (maximum stored entries in any row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total slots including padding: `nrows * width`. This is what a
    /// memory-traffic model should charge, since the format streams padding
    /// along with real entries.
    pub fn padded_entries(&self) -> usize {
        self.nrows * self.width
    }

    /// Stored entries of row `i` as `(col, value)` pairs in ascending-column
    /// order (padding excluded).
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.nrows, "row {i} out of bounds");
        (0..self.row_len[i]).map(move |s| {
            let idx = s * self.nrows + i;
            (self.col_idx[idx], self.values[idx])
        })
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// Bitwise identical to [`CsrMatrix::spmv`] on the source matrix: the
    /// per-row accumulation runs over the same entries in the same order.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_impl(x, y, |acc, _| acc);
    }

    /// Fused rescaled product `y = (A x - a_plus * x) * inv_a_minus`: the
    /// shift-and-scale runs on each row's accumulator before the store. Per
    /// element this is exactly the [`crate::LinearOp::apply_rescaled`]
    /// sequence, so the result is bitwise identical to the unfused form.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if the matrix is not square.
    pub fn spmv_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        assert_eq!(self.nrows, self.ncols, "spmv_rescaled: matrix must be square");
        self.spmv_impl(x, y, |acc, i| (acc - a_plus * x[i]) * inv_a_minus);
    }

    fn spmv_impl<F: Fn(f64, usize) -> f64>(&self, x: &[f64], y: &mut [f64], f: F) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for s in 0..self.row_len[i] {
                let idx = s * self.nrows + i;
                acc += self.values[idx] * x[self.col_idx[idx]];
            }
            *yi = f(acc, i);
        }
    }

    /// Sparse matrix-multi-vector product `Y = A X` over a `k`-column block
    /// (columns stored back to back, as in
    /// [`crate::BlockOp::apply_block`]).
    ///
    /// The walk is row-major — the slot-major layout then streams each slot
    /// plane's value and column arrays sequentially, one cache line ahead
    /// per plane — and within a row, columns are handled in register-blocked
    /// chunks of four so each decoded (col, value) pair is reused across
    /// four accumulators. Per column the slots accumulate in ascending slot
    /// (= ascending column) order, so each output column is bitwise
    /// identical to [`EllMatrix::spmv`] and the blocked and one-vector paths
    /// stay interchangeable. Padding slots are never touched (`row_len`
    /// bounds the slot loop): adding `0.0 * x[0]` could perturb signed zeros
    /// and is not bitwise inert.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmm(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.spmm_impl(x, y, k, |acc, _, _| acc);
    }

    /// Blocked form of [`EllMatrix::spmv_rescaled`]:
    /// `Y = (A X - a_plus * X) * inv_a_minus` with the shift-and-scale fused
    /// into the store step, column by column bitwise identical to the
    /// one-vector fused kernel.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if the matrix is not square.
    pub fn spmm_rescaled(&self, x: &[f64], y: &mut [f64], k: usize, a_plus: f64, inv_a_minus: f64) {
        assert_eq!(self.nrows, self.ncols, "spmm_rescaled: matrix must be square");
        let f = crate::block::rescaled_store(x, self.ncols, a_plus, inv_a_minus);
        self.spmm_impl(x, y, k, f);
    }

    fn spmm_impl<F: Fn(f64, usize, usize) -> f64>(&self, x: &[f64], y: &mut [f64], k: usize, f: F) {
        assert_eq!(x.len(), self.ncols * k, "spmm: x length");
        assert_eq!(y.len(), self.nrows * k, "spmm: y length");
        let n = self.nrows;
        self.spmm_rows_sink(x, k, &mut |acc, i, j| y[j * n + i] = f(acc, i, j));
    }

    // Streaming core behind `spmm`/`spmm_rescaled`: each `(i, j)` is
    // emitted exactly once, rows ascending per column.
    fn spmm_rows_sink<S: FnMut(f64, usize, usize)>(&self, x: &[f64], k: usize, sink: &mut S) {
        const CHUNK: usize = 4;
        let n = self.nrows;
        for i in 0..n {
            let len = self.row_len[i];
            let mut j = 0;
            while j + CHUNK <= k {
                let mut acc = [0.0f64; CHUNK];
                for s in 0..len {
                    let idx = s * n + i;
                    let v = self.values[idx];
                    let c = self.col_idx[idx];
                    for (u, a) in acc.iter_mut().enumerate() {
                        *a += v * x[(j + u) * self.ncols + c];
                    }
                }
                for (u, &a) in acc.iter().enumerate() {
                    sink(a, i, j + u);
                }
                j += CHUNK;
            }
            while j < k {
                let xcol = &x[j * self.ncols..(j + 1) * self.ncols];
                let mut acc = 0.0;
                for s in 0..len {
                    let idx = s * n + i;
                    acc += self.values[idx] * xcol[self.col_idx[idx]];
                }
                sink(acc, i, j);
                j += 1;
            }
        }
    }

    /// Row-range kernel of the tiled engine over a row-interleaved block;
    /// same contract as `CsrMatrix::rows_interleaved`. Slots accumulate in
    /// ascending order up to `row_len[i]`, so padding is never read.
    pub(crate) fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: std::ops::Range<usize>,
        sink: &mut S,
    ) {
        crate::tiled::check_block::<W>(x, self.ncols, k, c0);
        let n = self.nrows;
        for i in rows {
            let mut h = [0.0f64; W];
            for s in 0..self.row_len[i] {
                let idx = s * n + i;
                let v = self.values[idx];
                // Safety: stored columns come from a validated CSR, so they
                // are `< ncols`; plus `check_block`.
                let xr =
                    unsafe { crate::tiled::lanes_unchecked::<W>(x, self.col_idx[idx] * k + c0) };
                for (a, &xv) in h.iter_mut().zip(xr) {
                    *a += v * xv;
                }
            }
            sink(i, h);
        }
    }

    /// Round-trips back to CSR (tests and format conversion).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        row_ptr.push(0);
        for i in 0..self.nrows {
            for (c, v) in self.row_entries(i) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
            .expect("ELL round-trip produced invalid CSR — internal bug")
    }
}

impl LinearOp for EllMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.nrows, self.ncols, "LinearOp requires a square matrix");
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        self.spmv_rescaled(x, y, a_plus, inv_a_minus);
    }

    fn stored_entries(&self) -> usize {
        self.nnz
    }

    fn model_entries(&self) -> usize {
        self.padded_entries()
    }
}

impl crate::block::BlockOp for EllMatrix {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.spmm(x, y, k);
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        self.spmm_rescaled(x, y, k, a_plus, inv_a_minus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockOp;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_raw(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap()
    }

    #[test]
    fn from_csr_preserves_structure() {
        let csr = sample();
        let ell = EllMatrix::from_csr(&csr);
        assert_eq!(ell.nrows(), 3);
        assert_eq!(ell.ncols(), 3);
        assert_eq!(ell.nnz(), 4);
        assert_eq!(ell.width(), 2);
        assert_eq!(ell.padded_entries(), 6);
        assert_eq!(ell.to_csr(), csr);
    }

    #[test]
    fn spmv_is_bitwise_equal_to_csr() {
        let csr = sample();
        let ell = EllMatrix::from_csr(&csr);
        let x = [1.0, -1.0, 2.0];
        let mut y_csr = vec![0.0; 3];
        let mut y_ell = vec![0.0; 3];
        csr.spmv(&x, &mut y_csr);
        ell.spmv(&x, &mut y_ell);
        assert_eq!(y_csr, y_ell);
    }

    #[test]
    fn spmm_is_bitwise_equal_to_csr_per_column() {
        let csr = sample();
        let ell = EllMatrix::from_csr(&csr);
        let k = 4;
        let x: Vec<f64> = (0..3 * k).map(|i| (i as f64).sin() - 0.3).collect();
        let y_csr = csr.apply_block_alloc(&x, k);
        let y_ell = ell.apply_block_alloc(&x, k);
        assert_eq!(y_csr, y_ell);
    }

    #[test]
    fn entry_accounting_splits_stored_and_model() {
        let ell = EllMatrix::from_csr(&sample());
        assert_eq!(ell.stored_entries(), 4, "true nnz for physics callers");
        assert_eq!(ell.model_entries(), 6, "padded slots for cost models");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let csr = CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]).unwrap();
        let ell = EllMatrix::from_csr(&csr);
        assert_eq!(ell.padded_entries(), 0);
        let mut y = vec![];
        ell.spmv(&[], &mut y);
    }
}
