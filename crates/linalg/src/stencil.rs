//! Matrix-free stencil operator for tight-binding lattice Hamiltonians.
//!
//! The paper's Hamiltonian is a nearest-neighbour stencil on a cubic
//! lattice: every off-diagonal entry is the same `-t` and every neighbour
//! index is computable from the site index and the lattice extents. Storing
//! index arrays for that is pure overhead — [`StencilOp`] recomputes the
//! neighbour pattern on the fly, so the "matrix" costs no memory bandwidth
//! at all and the SpMM reads only the vectors (plus the on-site diagonal).
//!
//! Determinism contract: for the supported geometries the generated entry
//! set and the per-row ascending-column accumulation order match exactly
//! what the CSR built by the lattice crate produces, so stencil results are
//! bitwise identical to CSR/ELL results (the cross-format property tests
//! pin this).

use crate::block::BlockOp;
use crate::csr::CsrMatrix;
use crate::gershgorin::SpectralBounds;
use crate::op::LinearOp;

/// Which lattice geometry generates the stencil pattern.
///
/// The neighbour semantics replicate the lattice crate's enumeration rules:
/// dimensions of extent 1 contribute no bonds, self-loops are skipped, and a
/// neighbour reachable both ways (extent-2 periodic) is counted once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StencilGeometry {
    /// A hypercubic lattice with per-direction extents and periodicity.
    /// Sites are indexed row-major: `i = x_0 + L_0 (x_1 + L_1 (x_2 + ...))`.
    Hypercubic {
        /// Extent per dimension (all positive).
        dims: Vec<usize>,
        /// Periodic wrap per dimension (same length as `dims`).
        periodic: Vec<bool>,
    },
    /// An `lx x ly` honeycomb lattice (two-site unit cells, A sites even).
    Honeycomb {
        /// Unit cells along the first primitive direction.
        lx: usize,
        /// Unit cells along the second primitive direction.
        ly: usize,
        /// Periodic wrap along both directions.
        periodic: bool,
    },
}

impl StencilGeometry {
    /// Total number of sites `D`.
    pub fn num_sites(&self) -> usize {
        match self {
            StencilGeometry::Hypercubic { dims, .. } => dims.iter().product(),
            StencilGeometry::Honeycomb { lx, ly, .. } => 2 * lx * ly,
        }
    }

    /// Upper bound on neighbours per site (scratch sizing).
    fn max_neighbors(&self) -> usize {
        match self {
            StencilGeometry::Hypercubic { dims, .. } => 2 * dims.len(),
            StencilGeometry::Honeycomb { .. } => 3,
        }
    }

    /// Pushes the nearest neighbours of site `i` into `out` (cleared first),
    /// deduplicated, in the lattice crate's enumeration order.
    fn neighbors_into(&self, i: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            StencilGeometry::Hypercubic { dims, periodic } => {
                // Row-major decomposition: first dimension varies fastest.
                let mut coords = [0usize; 8];
                let ndim = dims.len();
                let mut rem = i;
                for (k, &l) in dims.iter().enumerate() {
                    coords[k] = rem % l;
                    rem /= l;
                }
                let site_index = |coords: &[usize; 8], k: usize, c_new: usize| -> usize {
                    let mut idx = 0usize;
                    for d in (0..ndim).rev() {
                        let c = if d == k { c_new } else { coords[d] };
                        idx = idx * dims[d] + c;
                    }
                    idx
                };
                for k in 0..ndim {
                    let l = dims[k];
                    if l == 1 {
                        continue; // self-loop; no hopping term
                    }
                    let c = coords[k];
                    let push = |c_new: usize, out: &mut Vec<usize>| {
                        let j = site_index(&coords, k, c_new);
                        if j != i && !out.contains(&j) {
                            out.push(j);
                        }
                    };
                    if c + 1 < l {
                        push(c + 1, out);
                    } else if periodic[k] {
                        push((c + 1) % l, out);
                    }
                    if c >= 1 {
                        push(c - 1, out);
                    } else if periodic[k] {
                        push((c + l - 1) % l, out);
                    }
                }
            }
            StencilGeometry::Honeycomb { lx, ly, periodic } => {
                let b = i % 2 == 1;
                let cell = i / 2;
                let (x, y) = ((cell % lx) as isize, (cell / lx) as isize);
                let deltas: [(isize, isize); 3] = [(0, 0), (-1, 0), (0, -1)];
                for (dx, dy) in deltas {
                    let (dx, dy) = if b { (-dx, -dy) } else { (dx, dy) };
                    let (nx, ny) = (x + dx, y + dy);
                    let wrap = |v: isize, l: usize| -> Option<usize> {
                        if (0..l as isize).contains(&v) {
                            Some(v as usize)
                        } else if *periodic {
                            Some(v.rem_euclid(l as isize) as usize)
                        } else {
                            None
                        }
                    };
                    if let (Some(nx), Some(ny)) = (wrap(nx, *lx), wrap(ny, *ly)) {
                        let other = if b { 0 } else { 1 };
                        let j = 2 * (nx + lx * ny) + other;
                        if j != i && !out.contains(&j) {
                            out.push(j);
                        }
                    }
                }
            }
        }
    }
}

/// A matrix-free nearest-neighbour tight-binding operator: off-diagonal
/// entries are `-hopping` on the geometry's bonds, diagonal entries come
/// from the per-site `onsite` energies.
///
/// A diagonal entry is treated as *stored* — and therefore participates in
/// the row's accumulation and the entry count — iff `onsite[i] != 0.0` or
/// `store_zero_diagonal` is set, mirroring the lattice builders' rule so
/// the stencil's entry set matches the equivalent CSR exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilOp {
    geometry: StencilGeometry,
    hopping: f64,
    onsite: Vec<f64>,
    store_zero_diagonal: bool,
    stored: usize,
    plan: Option<InteriorPlan>,
}

/// Precomputed interior-row pattern for hypercubic geometries: the sorted
/// signed index offsets of a site's neighbours, valid wherever no lattice
/// direction wraps or truncates. Boundary rows (and non-hypercubic
/// geometries) fall back to the generic per-row enumeration, so the fast
/// path never changes which entries a row has — only how cheaply they are
/// generated.
#[derive(Debug, Clone, PartialEq)]
struct InteriorPlan {
    /// Negative neighbour offsets, ascending (columns below the diagonal).
    neg: Vec<isize>,
    /// Positive neighbour offsets, ascending (columns above the diagonal).
    pos: Vec<isize>,
}

impl StencilOp {
    /// Builds the operator.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (no dimensions, a zero extent,
    /// more than 8 hypercubic dimensions, mismatched `dims`/`periodic`
    /// lengths) or if `onsite.len() != geometry.num_sites()`.
    pub fn new(
        geometry: StencilGeometry,
        hopping: f64,
        onsite: Vec<f64>,
        store_zero_diagonal: bool,
    ) -> Self {
        match &geometry {
            StencilGeometry::Hypercubic { dims, periodic } => {
                assert!(!dims.is_empty(), "stencil: lattice must have at least one dimension");
                assert!(dims.len() <= 8, "stencil: at most 8 dimensions supported");
                assert!(dims.iter().all(|&l| l > 0), "stencil: every extent must be positive");
                assert_eq!(dims.len(), periodic.len(), "stencil: dims/periodic length mismatch");
            }
            StencilGeometry::Honeycomb { lx, ly, .. } => {
                assert!(*lx > 0 && *ly > 0, "stencil: extents must be positive");
            }
        }
        assert_eq!(onsite.len(), geometry.num_sites(), "stencil: onsite length");
        let plan = match &geometry {
            StencilGeometry::Hypercubic { dims, .. } => {
                // Directions of extent < 3 never have interior coordinates
                // (extent 1 has no bonds, extent 2 is all boundary), so only
                // extents >= 3 contribute offsets.
                let mut neg: Vec<isize> = Vec::new();
                let mut pos: Vec<isize> = Vec::new();
                let mut stride: isize = 1;
                for &l in dims {
                    if l >= 3 {
                        neg.push(-stride);
                        pos.push(stride);
                    }
                    stride *= l as isize;
                }
                neg.sort_unstable();
                pos.sort_unstable();
                Some(InteriorPlan { neg, pos })
            }
            StencilGeometry::Honeycomb { .. } => None,
        };
        let mut op = Self { geometry, hopping, onsite, store_zero_diagonal, stored: 0, plan };
        let mut scratch = Vec::with_capacity(op.geometry.max_neighbors());
        let mut stored = 0usize;
        for i in 0..op.onsite.len() {
            op.geometry.neighbors_into(i, &mut scratch);
            stored += scratch.len() + usize::from(op.diagonal_stored(i));
        }
        op.stored = stored;
        op
    }

    /// Convenience: hypercubic geometry with a uniform onsite energy.
    pub fn hypercubic_uniform(
        dims: &[usize],
        periodic: &[bool],
        hopping: f64,
        onsite: f64,
        store_zero_diagonal: bool,
    ) -> Self {
        let geometry =
            StencilGeometry::Hypercubic { dims: dims.to_vec(), periodic: periodic.to_vec() };
        let n = geometry.num_sites();
        Self::new(geometry, hopping, vec![onsite; n], store_zero_diagonal)
    }

    /// The generating geometry.
    pub fn geometry(&self) -> &StencilGeometry {
        &self.geometry
    }

    /// The hopping amplitude `t` (off-diagonal entries are `-t`).
    pub fn hopping(&self) -> f64 {
        self.hopping
    }

    /// Per-site onsite energies (the diagonal).
    pub fn onsite(&self) -> &[f64] {
        &self.onsite
    }

    fn diagonal_stored(&self, i: usize) -> bool {
        self.onsite[i] != 0.0 || self.store_zero_diagonal
    }

    /// Sorted stored-entry columns of row `i` into `cols`.
    fn row_cols_into(&self, i: usize, cols: &mut Vec<usize>) {
        self.geometry.neighbors_into(i, cols);
        if self.diagonal_stored(i) {
            cols.push(i);
        }
        cols.sort_unstable();
    }

    /// Value of the stored entry at `(i, c)` given that `c` is one of row
    /// `i`'s stored columns.
    #[inline]
    fn entry(&self, i: usize, c: usize) -> f64 {
        if c == i {
            self.onsite[i]
        } else {
            -self.hopping
        }
    }

    /// Gershgorin spectral bounds, computed row by row from the generated
    /// pattern — same discs as the equivalent CSR, since every off-diagonal
    /// magnitude is `|t|` and the diagonal matches.
    pub fn gershgorin_bounds(&self) -> SpectralBounds {
        let n = self.onsite.len();
        assert!(n > 0, "gershgorin: operator must be nonempty");
        let mut scratch = Vec::with_capacity(self.geometry.max_neighbors());
        let t_abs = self.hopping.abs();
        let mut lower = f64::INFINITY;
        let mut upper = f64::NEG_INFINITY;
        for i in 0..n {
            self.geometry.neighbors_into(i, &mut scratch);
            let mut radius = 0.0;
            for _ in 0..scratch.len() {
                radius += t_abs;
            }
            let d = if self.diagonal_stored(i) { self.onsite[i] } else { 0.0 };
            lower = lower.min(d - radius);
            upper = upper.max(d + radius);
        }
        SpectralBounds::new(lower, upper)
    }

    /// Materializes the stencil as a CSR matrix with the identical entry set
    /// (tests, format conversion, fallback paths).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.onsite.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.stored);
        let mut values = Vec::with_capacity(self.stored);
        row_ptr.push(0);
        let mut cols = Vec::with_capacity(self.geometry.max_neighbors() + 1);
        for i in 0..n {
            self.row_cols_into(i, &mut cols);
            for &c in &cols {
                col_idx.push(c);
                values.push(self.entry(i, c));
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)
            .expect("stencil produced invalid CSR — internal bug")
    }

    /// Shared SpMM kernel behind [`LinearOp::apply`] (`k = 1`) and
    /// [`BlockOp::apply_block`]. Interior rows of hypercubic geometries use
    /// the precomputed offset pattern and an odometer coordinate walk (no
    /// div/mod, no per-row sort); boundary rows and the honeycomb geometry
    /// regenerate their column set per row. Per column, entries accumulate
    /// in ascending-column order on both paths, preserving the bitwise
    /// contract with the materialized CSR. The store transform
    /// `f(acc, row, col)` is where the rescaled variants fuse their
    /// shift-and-scale.
    fn spmm_into<F: Fn(f64, usize, usize) -> f64>(&self, x: &[f64], y: &mut [f64], k: usize, f: F) {
        let n = self.onsite.len();
        assert_eq!(x.len(), n * k, "stencil spmm: x length");
        assert_eq!(y.len(), n * k, "stencil spmm: y length");
        let mut sink = |acc, i, j| y[j * n + i] = f(acc, i, j);
        let mut cols = Vec::with_capacity(self.geometry.max_neighbors() + 1);
        let t = -self.hopping;
        self.walk_rows(0..n, |i, plan| {
            let Some(plan) = plan else {
                self.row_cols_into(i, &mut cols);
                for j in 0..k {
                    let base = j * n;
                    let mut acc = 0.0;
                    for &c in cols.iter() {
                        acc += self.entry(i, c) * x[base + c];
                    }
                    sink(acc, i, j);
                }
                return;
            };
            // Below-diagonal hops, then the diagonal (when stored), then
            // above-diagonal hops: the same ascending-column accumulation
            // order as the generic path, with no per-entry branch in the hot
            // loops. Columns run in register-blocked chunks of four so the
            // offset decode and loop control amortize over four
            // accumulators.
            const CHUNK: usize = 4;
            let diag = if self.diagonal_stored(i) { Some(self.onsite[i]) } else { None };
            let mut j = 0;
            while j + CHUNK <= k {
                let mut acc = [0.0f64; CHUNK];
                let p0 = (j * n + i) as isize;
                let stride = n as isize;
                for &off in &plan.neg {
                    for (u, a) in acc.iter_mut().enumerate() {
                        *a += t * x[(p0 + u as isize * stride + off) as usize];
                    }
                }
                if let Some(d) = diag {
                    for (u, a) in acc.iter_mut().enumerate() {
                        *a += d * x[(j + u) * n + i];
                    }
                }
                for &off in &plan.pos {
                    for (u, a) in acc.iter_mut().enumerate() {
                        *a += t * x[(p0 + u as isize * stride + off) as usize];
                    }
                }
                for (u, &a) in acc.iter().enumerate() {
                    sink(a, i, j + u);
                }
                j += CHUNK;
            }
            while j < k {
                let base = j * n;
                let p = (base + i) as isize;
                let mut acc = 0.0;
                for &off in &plan.neg {
                    acc += t * x[(p + off) as usize];
                }
                if let Some(d) = diag {
                    acc += d * x[base + i];
                }
                for &off in &plan.pos {
                    acc += t * x[(p + off) as usize];
                }
                sink(acc, i, j);
                j += 1;
            }
        });
    }

    /// Row-range kernel of the tiled engine over a row-interleaved block
    /// (`x[c * k + j]` is column `j` of input row `c`); same contract as
    /// `CsrMatrix::rows_interleaved`. Interior rows add the offset pattern
    /// scaled by `k`, so each neighbour is one contiguous `W`-wide run of
    /// `x`; boundary and honeycomb rows regenerate their sorted column set.
    /// Either way the per-column sum is the full sweep's, bit for bit.
    pub(crate) fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: std::ops::Range<usize>,
        sink: &mut S,
    ) {
        let n = self.onsite.len();
        crate::tiled::check_block::<W>(x, n, k, c0);
        assert!(rows.end <= n, "rows_interleaved: rows {rows:?} of {n}");
        let mut cols = Vec::with_capacity(self.geometry.max_neighbors() + 1);
        let t = -self.hopping;
        let ki = k as isize;
        self.walk_rows(rows, |i, plan| {
            let mut h = [0.0f64; W];
            let mut add = |v: f64, at: usize| {
                // Safety: `at` is `c * k + c0` for a site `c < n` — interior
                // offsets only apply where every hop stays inside the
                // lattice, and boundary rows generate their sites — plus
                // `check_block`.
                let xr = unsafe { crate::tiled::lanes_unchecked::<W>(x, at) };
                for (a, &xv) in h.iter_mut().zip(xr) {
                    *a += v * xv;
                }
            };
            match plan {
                Some(plan) => {
                    let base = (i * k + c0) as isize;
                    for &off in &plan.neg {
                        add(t, (base + off * ki) as usize);
                    }
                    if self.diagonal_stored(i) {
                        add(self.onsite[i], i * k + c0);
                    }
                    for &off in &plan.pos {
                        add(t, (base + off * ki) as usize);
                    }
                }
                None => {
                    self.row_cols_into(i, &mut cols);
                    for &c in &cols {
                        add(self.entry(i, c), c * k + c0);
                    }
                }
            }
            sink(i, h);
        });
    }

    /// Visits `rows` in ascending order, passing the interior offset plan
    /// for rows where it applies and `None` for boundary rows and the
    /// honeycomb geometry. The odometer is seeded at `rows.start` with one
    /// div/mod chain and then walks exactly as a full sweep would, so a row
    /// range gets the same per-row path as the full matrix.
    #[inline]
    fn walk_rows(
        &self,
        rows: std::ops::Range<usize>,
        mut visit: impl FnMut(usize, Option<&InteriorPlan>),
    ) {
        let (StencilGeometry::Hypercubic { dims, .. }, Some(plan)) = (&self.geometry, &self.plan)
        else {
            for i in rows {
                visit(i, None);
            }
            return;
        };
        let ndim = dims.len();
        let mut coords = [0usize; 8];
        let mut rem = rows.start;
        for (d, &l) in dims.iter().enumerate() {
            coords[d] = rem % l;
            rem /= l;
        }
        for i in rows {
            let interior =
                dims.iter().zip(&coords).all(|(&l, &c)| l == 1 || (c >= 1 && c + 2 <= l));
            visit(i, interior.then_some(plan));
            // Odometer increment: the first dimension varies fastest,
            // matching the row-major site indexing.
            for d in 0..ndim {
                coords[d] += 1;
                if coords[d] < dims[d] {
                    break;
                }
                coords[d] = 0;
            }
        }
    }
}

impl LinearOp for StencilOp {
    fn dim(&self) -> usize {
        self.onsite.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmm_into(x, y, 1, |acc, _, _| acc);
    }

    fn apply_rescaled(&self, x: &[f64], y: &mut [f64], a_plus: f64, inv_a_minus: f64) {
        self.spmm_into(x, y, 1, |acc, i, _| (acc - a_plus * x[i]) * inv_a_minus);
    }

    fn stored_entries(&self) -> usize {
        self.stored
    }

    /// Matrix-free: a traffic model should charge nothing for the matrix.
    fn model_entries(&self) -> usize {
        0
    }
}

impl BlockOp for StencilOp {
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize) {
        self.spmm_into(x, y, k, |acc, _, _| acc);
    }

    fn apply_block_rescaled(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        a_plus: f64,
        inv_a_minus: f64,
    ) {
        let f = crate::block::rescaled_store(x, self.onsite.len(), a_plus, inv_a_minus);
        self.spmm_into(x, y, k, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gershgorin::gershgorin_csr;

    fn cubic_stencil() -> StencilOp {
        StencilOp::hypercubic_uniform(&[3, 3, 3], &[true, true, true], 1.0, 0.0, true)
    }

    #[test]
    fn cubic_periodic_has_seven_stored_entries_per_row() {
        let s = cubic_stencil();
        assert_eq!(s.dim(), 27);
        assert_eq!(s.stored_entries(), 7 * 27);
        assert_eq!(s.model_entries(), 0, "matrix-free: no model traffic");
    }

    #[test]
    fn apply_is_bitwise_equal_to_materialized_csr() {
        for (s, name) in [
            (cubic_stencil(), "cubic"),
            (
                StencilOp::hypercubic_uniform(&[5], &[false], 1.3, -0.2, false),
                "open chain with onsite",
            ),
            (
                StencilOp::new(
                    StencilGeometry::Honeycomb { lx: 3, ly: 4, periodic: true },
                    1.0,
                    vec![0.0; 24],
                    false,
                ),
                "honeycomb",
            ),
        ] {
            let csr = s.to_csr();
            let d = s.dim();
            let x: Vec<f64> = (0..d).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
            assert_eq!(s.apply_alloc(&x), csr.apply_alloc(&x), "{name}");
            assert_eq!(s.stored_entries(), csr.nnz(), "{name}: entry count");
        }
    }

    #[test]
    fn block_apply_matches_column_loop() {
        let s = cubic_stencil();
        let d = s.dim();
        let k = 3;
        let x: Vec<f64> = (0..d * k).map(|i| (i as f64).cos()).collect();
        let blocked = crate::block::BlockOp::apply_block_alloc(&s, &x, k);
        for j in 0..k {
            let col = s.apply_alloc(&x[j * d..(j + 1) * d]);
            assert_eq!(&blocked[j * d..(j + 1) * d], &col[..], "column {j}");
        }
    }

    #[test]
    fn gershgorin_matches_csr_bounds() {
        let disorder: Vec<f64> = (0..12).map(|i| ((i % 5) as f64) * 0.3 - 0.6).collect();
        let s = StencilOp::new(
            StencilGeometry::Hypercubic { dims: vec![4, 3], periodic: vec![true, false] },
            0.9,
            disorder,
            true,
        );
        assert_eq!(s.gershgorin_bounds(), gershgorin_csr(&s.to_csr()));
    }

    #[test]
    fn extent_two_periodic_does_not_double_count() {
        let s = StencilOp::hypercubic_uniform(&[2], &[true], 1.0, 0.0, false);
        // One bond, seen from each endpoint: 2 stored entries, no diagonal.
        assert_eq!(s.stored_entries(), 2);
        let csr = s.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), -1.0);
    }

    #[test]
    fn extent_one_dimension_contributes_no_bonds() {
        let s = StencilOp::hypercubic_uniform(&[1, 4], &[true, true], 1.0, 0.0, false);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.stored_entries(), 2 * 4, "ring of 4 sites only");
    }

    #[test]
    #[should_panic(expected = "onsite length")]
    fn onsite_length_validated() {
        let _ = StencilOp::new(
            StencilGeometry::Hypercubic { dims: vec![3], periodic: vec![false] },
            1.0,
            vec![0.0; 2],
            false,
        );
    }
}
