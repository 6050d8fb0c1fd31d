//! Compressed-sparse-row matrices for graph propagation.
//!
//! Interaction graphs are tiny (2–50 nodes) but numerous, so the CSR type is
//! optimized for cheap construction from edge lists and fast `A × H`
//! products rather than for mutation.

use crate::matrix::accumulate_row;
use crate::Matrix;
use serde::{Deserialize, Serialize};

/// A sparse `rows × cols` matrix in CSR layout.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` is the slice of `indices`/`values` for row r.
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl Csr {
    /// Build from (row, col, value) triplets. Duplicate coordinates are summed.
    ///
    /// The entries are counted per row and scattered into one buffer in
    /// input order. Each row's slice is then sorted by column and its
    /// duplicates are summed in sorted order.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut indptr = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of {rows}x{cols}"
            );
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        // `indptr[r]` is row r's write cursor; after the scatter it holds
        // the end of row r, so shifting it one slot right restores the starts
        let mut entries = vec![(0usize, 0.0f32); triplets.len()];
        for &(r, c, v) in triplets {
            entries[indptr[r]] = (c, v);
            indptr[r] += 1;
        }
        indptr.copy_within(0..rows, 1);
        indptr[0] = 0;
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut start = 0;
        for r in 0..rows {
            let end = indptr[r + 1];
            let row = &mut entries[start..end];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    if let Some(tail) = values.last_mut() {
                        *tail += v;
                    }
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr[r + 1] = indices.len();
            start = end;
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Check the structural invariants of the CSR layout: `indptr` has
    /// `rows + 1` monotone entries bracketing `indices`/`values`, and every
    /// column index is in range. Strict mode (`--features strict`) runs this
    /// before each sparse product; it is also a cheap sanity check after
    /// deserializing a persisted matrix.
    pub fn validate(&self) {
        assert_eq!(self.indptr.len(), self.rows + 1, "csr indptr length");
        assert_eq!(self.indptr.first().copied(), Some(0), "csr indptr start");
        assert_eq!(
            self.indptr.last().copied(),
            Some(self.indices.len()),
            "csr indptr end"
        );
        assert!(
            self.indptr.windows(2).all(|w| w[0] <= w[1]),
            "csr indptr must be monotone"
        );
        assert_eq!(
            self.indices.len(),
            self.values.len(),
            "csr indices/values length"
        );
        assert!(
            self.indices.iter().all(|&c| c < self.cols),
            "csr column index out of range"
        );
    }

    /// Identity CSR.
    pub fn eye(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Symmetrically normalized adjacency with self loops:
    /// `Â = D^{-1/2} (A + I) D^{-1/2}` (the GCN propagation matrix).
    ///
    /// `edges` are directed pairs; the adjacency is symmetrized first, as in
    /// the paper's graph classification setting.
    pub fn normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut triplets = unit_pattern(n, edges, Loops::All);
        // the pattern is symmetric and sorted: its last row is its largest
        // coordinate
        if let Some(&(r, c, _)) = triplets.last() {
            assert!(r < n, "edge ({r},{c}) out of bounds for {n} nodes");
        }
        // every stored entry is 1.0, so a degree is an exact count; the
        // buffer then holds D^{-1/2}
        let mut deg = vec![0.0f32; n];
        for &(r, _, v) in &triplets {
            deg[r] += v;
        }
        for d in &mut deg {
            *d = if *d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        }
        for t in &mut triplets {
            t.2 = t.2 * deg[t.0] * deg[t.1];
        }
        Self::from_triplets(n, n, &triplets)
    }

    /// Row-normalized adjacency `D^{-1} A` (no self loops added), used by
    /// mean-neighbourhood aggregators.
    pub fn row_normalized(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut triplets = unit_pattern(n, edges, Loops::Edges);
        if let Some(&(r, c, _)) = triplets.last() {
            assert!(r < n, "edge ({r},{c}) out of bounds for {n} nodes");
        }
        let mut deg = vec![0.0f32; n];
        for &(r, _, _) in &triplets {
            deg[r] += 1.0;
        }
        for t in &mut triplets {
            t.2 /= deg[t.0].max(1.0);
        }
        Self::from_triplets(n, n, &triplets)
    }

    /// Unnormalized symmetric 0/1 adjacency without self loops (GIN sum
    /// aggregation): a self-loop edge is dropped.
    pub fn symmetric_adjacency(n: usize, edges: &[(usize, usize)]) -> Self {
        Self::from_triplets(n, n, &unit_pattern(n, edges, Loops::Dropped))
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate the stored entries of one row as `(col, value)` pairs.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse × dense product `self × h`.
    pub fn spmm(&self, h: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            h.rows(),
            "spmm {}x{} × {}x{}",
            self.rows,
            self.cols,
            h.rows(),
            h.cols()
        );
        let mut out = Matrix::zeros(self.rows, h.cols());
        self.spmm_block(h, 0, self.rows, out.data_mut());
        out
    }

    /// Rows `[row_lo, row_hi)` of `self × h` into `out_block` (a slice
    /// covering exactly those output rows). Output row `r` sums `v ×
    /// h.row(c)` over row `r`'s stored entries in storage order; rows are
    /// independent in CSR, so the parallel layer partitions them directly.
    pub(crate) fn spmm_block(
        &self,
        h: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out_block: &mut [f32],
    ) {
        debug_assert_eq!(out_block.len(), (row_hi - row_lo) * h.cols());
        let spans = self.indptr.iter().zip(self.indptr.iter().skip(1));
        let out_rows = out_block.chunks_exact_mut(h.cols().max(1));
        for ((&lo, &hi), out_row) in spans.skip(row_lo).zip(out_rows) {
            let cols = self.indices.get(lo..hi).unwrap_or_default();
            let vals = self.values.get(lo..hi).unwrap_or_default();
            accumulate_row(out_row, || {
                vals.iter().zip(cols).map(|(&v, &c)| (v, h.row(c)))
            });
        }
    }

    /// Transposed sparse × dense product `selfᵀ × h` (used in backward passes).
    pub fn t_spmm(&self, h: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            h.rows(),
            "t_spmm {}x{} × {}x{}",
            self.rows,
            self.cols,
            h.rows(),
            h.cols()
        );
        let (col_ptr, entries) = self.csc_groups();
        let mut out = Matrix::zeros(self.cols, h.cols());
        self.t_spmm_block(h, &col_ptr, &entries, 0, self.cols, out.data_mut());
        out
    }

    /// Column-grouped (CSC) view of the stored entries: `(col_ptr, entries)`
    /// where `entries[col_ptr[c]..col_ptr[c + 1]]` lists the `(row, value)`
    /// pairs of column `c` in **ascending row order** — the order in which a
    /// row-major scatter would reach output row `c`. Both the serial and the
    /// column-partitioned `t_spmm` run [`Self::t_spmm_block`] over this view.
    pub(crate) fn csc_groups(&self) -> (Vec<usize>, Vec<(usize, f32)>) {
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            col_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor = col_ptr.clone();
        let mut entries = vec![(0usize, 0.0f32); self.values.len()];
        for r in 0..self.rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k];
                entries[cursor[c]] = (r, self.values[k]);
                cursor[c] += 1;
            }
        }
        (col_ptr, entries)
    }

    /// Output rows `[col_lo, col_hi)` of `selfᵀ × h` into `out_block`, using
    /// a precomputed [`Self::csc_groups`] view. Output row `c` (= column `c`
    /// of `self`) sums `v × h.row(r)` over ascending source row `r`; each is
    /// written by exactly one caller, so disjoint column ranges can run on
    /// different threads.
    pub(crate) fn t_spmm_block(
        &self,
        h: &Matrix,
        col_ptr: &[usize],
        entries: &[(usize, f32)],
        col_lo: usize,
        col_hi: usize,
        out_block: &mut [f32],
    ) {
        debug_assert_eq!(out_block.len(), (col_hi - col_lo) * h.cols());
        let spans = col_ptr.iter().zip(col_ptr.iter().skip(1));
        let out_rows = out_block.chunks_exact_mut(h.cols().max(1));
        for ((&lo, &hi), out_row) in spans.skip(col_lo).zip(out_rows) {
            let group = entries.get(lo..hi).unwrap_or_default();
            accumulate_row(out_row, || group.iter().map(|&(r, v)| (v, h.row(r))));
        }
    }

    /// Densify (test/debug helper).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                m.set(r, c, m.get(r, c) + v);
            }
        }
        m
    }

    /// Restrict to a subset of node indices (both rows and columns), keeping
    /// their induced sub-adjacency. `keep` must be sorted & unique.
    pub fn induced_subgraph(&self, keep: &[usize]) -> Csr {
        debug_assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be sorted+unique"
        );
        let mut remap = vec![usize::MAX; self.cols];
        for (new, &old) in keep.iter().enumerate() {
            remap[old] = new;
        }
        let mut triplets = Vec::new();
        for (new_r, &old_r) in keep.iter().enumerate() {
            for (c, v) in self.row_iter(old_r) {
                if remap[c] != usize::MAX {
                    triplets.push((new_r, remap[c], v));
                }
            }
        }
        Csr::from_triplets(keep.len(), keep.len(), &triplets)
    }

    /// True when the matrix is exactly symmetric in its stored pattern+values.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let d = self.to_dense();
        for r in 0..self.rows {
            for c in 0..r {
                if (d.get(r, c) - d.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Which self loops [`unit_pattern`] stores.
#[derive(Copy, Clone, PartialEq)]
enum Loops {
    /// `(i, i)` for every node, on top of the edges' own.
    All,
    /// `(u, u)` once for each self-loop edge `(u, u)`.
    Edges,
    /// None: self-loop edges are dropped.
    Dropped,
}

/// The symmetric 0/1 pattern of `edges` on `n` nodes, as 1.0-valued
/// triplets sorted row-major: both directions of every edge, once each, and
/// the self loops `loops` asks for. No coordinate repeats, so a row's
/// entry count is its degree.
fn unit_pattern(n: usize, edges: &[(usize, usize)], loops: Loops) -> Vec<(usize, usize, f32)> {
    let mut pattern = Vec::with_capacity(2 * edges.len() + n);
    for &(u, v) in edges {
        if u != v || loops != Loops::Dropped {
            pattern.push((u, v, 1.0));
            pattern.push((v, u, 1.0));
        }
    }
    if loops == Loops::All {
        pattern.extend((0..n).map(|i| (i, i, 1.0)));
    }
    pattern.sort_unstable_by_key(|&(r, c, _)| (r, c));
    pattern.dedup_by_key(|&mut (r, c, _)| (r, c));
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `from_triplets` as it was with one `Vec` per row: the oracle for the
    /// scatter-buffer version.
    fn reference_from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Csr {
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols);
            per_row[r].push((c, v));
        }
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    if let Some(tail) = values.last_mut() {
                        *tail += v;
                    }
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// The first-seen, set-deduplicated triplets the adjacency builders
    /// used to collect: both directions of each edge, self loops
    /// (`with_loops`) and self-loop edges (`loop_edges`) as asked.
    fn reference_pattern(
        n: usize,
        edges: &[(usize, usize)],
        loop_edges: bool,
        with_loops: bool,
    ) -> Vec<(usize, usize, f32)> {
        let mut triplets = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &(u, v) in edges {
            if (u != v || loop_edges) && seen.insert((u, v)) {
                triplets.push((u, v, 1.0));
            }
            if u != v && seen.insert((v, u)) {
                triplets.push((v, u, 1.0));
            }
        }
        if with_loops {
            for i in 0..n {
                if seen.insert((i, i)) {
                    triplets.push((i, i, 1.0));
                }
            }
        }
        triplets
    }

    fn reference_normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> Csr {
        let triplets = reference_pattern(n, edges, true, true);
        let mut deg = vec![0.0f32; n];
        for &(r, _, v) in &triplets {
            deg[r] += v;
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let norm: Vec<(usize, usize, f32)> = triplets
            .into_iter()
            .map(|(r, c, v)| (r, c, v * inv_sqrt[r] * inv_sqrt[c]))
            .collect();
        reference_from_triplets(n, n, &norm)
    }

    fn reference_row_normalized(n: usize, edges: &[(usize, usize)]) -> Csr {
        let triplets = reference_pattern(n, edges, true, false);
        let mut deg = vec![0.0f32; n];
        for &(r, _, _) in &triplets {
            deg[r] += 1.0;
        }
        let norm: Vec<(usize, usize, f32)> = triplets
            .into_iter()
            .map(|(r, c, v)| (r, c, v / deg[r].max(1.0)))
            .collect();
        reference_from_triplets(n, n, &norm)
    }

    fn reference_symmetric_adjacency(n: usize, edges: &[(usize, usize)]) -> Csr {
        reference_from_triplets(n, n, &reference_pattern(n, edges, false, false))
    }

    /// Shape, layout and value bits.
    fn bits(m: &Csr) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<u32>) {
        let values = m.values.iter().map(|v| v.to_bits()).collect();
        (m.rows, m.cols, m.indptr.clone(), m.indices.clone(), values)
    }

    fn assert_builders_match(n: usize, edges: &[(usize, usize)]) {
        assert_eq!(
            bits(&Csr::normalized_adjacency(n, edges)),
            bits(&reference_normalized_adjacency(n, edges)),
            "normalized_adjacency {edges:?}"
        );
        assert_eq!(
            bits(&Csr::row_normalized(n, edges)),
            bits(&reference_row_normalized(n, edges)),
            "row_normalized {edges:?}"
        );
        assert_eq!(
            bits(&Csr::symmetric_adjacency(n, edges)),
            bits(&reference_symmetric_adjacency(n, edges)),
            "symmetric_adjacency {edges:?}"
        );
    }

    /// Magnitudes far apart, so a different summation order of duplicate
    /// coordinates changes the sum.
    const VALUES: [f32; 6] = [1e8, -1e8, 1.0, -0.0, 0.5, 3.25];

    #[test]
    fn from_triplets_matches_reference_on_edge_shapes() {
        type Triplets = Vec<(usize, usize, f32)>;
        let cases: [(usize, usize, Triplets); 5] = [
            (0, 0, vec![]),
            (0, 3, vec![]),
            (3, 0, vec![]),
            (4, 3, vec![]),
            // unsorted, duplicates with different values, rows 1 and 3 empty
            (
                5,
                3,
                vec![
                    (2, 2, 1e8),
                    (0, 1, 0.5),
                    (2, 0, 1.0),
                    (2, 2, 1.0),
                    (0, 0, -0.0),
                    (2, 2, -1e8),
                    (4, 1, 3.25),
                    (0, 1, -1e8),
                ],
            ),
        ];
        for (rows, cols, triplets) in cases {
            let m = Csr::from_triplets(rows, cols, &triplets);
            m.validate();
            assert_eq!(
                bits(&m),
                bits(&reference_from_triplets(rows, cols, &triplets))
            );
        }
    }

    #[test]
    fn adjacency_builders_match_reference_on_loops_repeats_and_reversals() {
        assert_builders_match(1, &[]);
        assert_builders_match(3, &[]);
        assert_builders_match(1, &[(0, 0)]);
        // node 4 isolated; 2 carries a self loop; 0-1 repeated and reversed
        assert_builders_match(5, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (2, 2)]);
    }

    proptest! {
        #[test]
        fn from_triplets_matches_reference(
            rows in 0usize..6,
            cols in 0usize..6,
            raw in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6), 0..24),
        ) {
            let triplets: Vec<(usize, usize, f32)> = if rows == 0 || cols == 0 {
                Vec::new()
            } else {
                raw.iter().map(|&(r, c, v)| (r % rows, c % cols, VALUES[v])).collect()
            };
            prop_assert_eq!(
                bits(&Csr::from_triplets(rows, cols, &triplets)),
                bits(&reference_from_triplets(rows, cols, &triplets))
            );
        }

        #[test]
        fn adjacency_builders_match_reference(
            n in 1usize..7,
            raw in proptest::collection::vec((0usize..7, 0usize..7), 0..16),
        ) {
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
            assert_builders_match(n, &edges);
        }
    }

    #[test]
    fn triplets_sum_duplicates_and_sort() {
        let m = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0), (1, 1, 5.0)]);
        assert_eq!(m.nnz(), 3);
        let d = m.to_dense();
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(0, 2), 4.0);
        assert_eq!(d.get(1, 1), 5.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = Csr::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (2, 2, 3.0)]);
        let h = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.spmm(&h), m.to_dense().matmul(&h));
        assert_eq!(m.t_spmm(&h), m.to_dense().transpose().matmul(&h));
    }

    #[test]
    fn normalized_adjacency_is_symmetric_with_self_loops() {
        let a = Csr::normalized_adjacency(3, &[(0, 1), (1, 2)]);
        assert!(a.is_symmetric(1e-6));
        // path graph: middle node degree 3 (incl. self loop), ends degree 2
        let d = a.to_dense();
        assert!((d.get(0, 0) - 0.5).abs() < 1e-6); // 1/sqrt(2)/sqrt(2)
        assert!((d.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
        // rows of Â need not sum to 1, but every diagonal entry is positive
        for i in 0..3 {
            assert!(d.get(i, i) > 0.0);
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one_for_connected_nodes() {
        let a = Csr::row_normalized(4, &[(0, 1), (0, 2), (2, 3)]);
        let d = a.to_dense();
        for r in 0..4 {
            let s: f32 = (0..4).map(|c| d.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let a = Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let sub = a.induced_subgraph(&[1, 2]);
        let d = sub.to_dense();
        assert_eq!(d.get(0, 1), 1.0); // old edge 1→2 survives
        assert_eq!(d.get(1, 0), 0.0); // old 2→3 and 3→0 dropped
    }

    #[test]
    fn eye_spmm_is_identity() {
        let h = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(Csr::eye(2).spmm(&h), h);
    }

    /// A stored zero (e.g. `+1` and `-1` triplets summing out) must still
    /// multiply its dense row: `0 × NaN = NaN` has to reach the output.
    #[test]
    fn spmm_stored_zero_times_nan_propagates() {
        let m = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)]);
        let h = Matrix::from_rows(&[vec![f32::NAN, 1.0], vec![3.0, 4.0]]);
        let c = m.spmm(&h);
        assert!(c.get(0, 0).is_nan(), "0 × NaN was lost: {:?}", c);
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.row(1), &[6.0, 8.0]);
    }

    #[test]
    fn t_spmm_nan_propagates() {
        let m = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        let h = Matrix::from_rows(&[vec![f32::NAN, 1.0], vec![3.0, 4.0]]);
        // out = mᵀ × h: out[1][*] pulls h row 0 (NaN), out[0][*] pulls row 1
        let c = m.t_spmm(&h);
        assert!(c.get(1, 0).is_nan(), "{:?}", c);
        assert_eq!(c.row(0), &[6.0, 8.0]);
    }

    #[test]
    fn csc_groups_round_trip() {
        let m = Csr::from_triplets(3, 4, &[(2, 0, 5.0), (0, 0, 1.0), (0, 3, 2.0), (1, 2, 3.0)]);
        let (col_ptr, entries) = m.csc_groups();
        assert_eq!(col_ptr.len(), 5);
        assert_eq!(entries.len(), m.nnz());
        // column 0 lists rows ascending: (0, 1.0) then (2, 5.0)
        assert_eq!(&entries[col_ptr[0]..col_ptr[1]], &[(0, 1.0), (2, 5.0)]);
        assert_eq!(&entries[col_ptr[2]..col_ptr[3]], &[(1, 3.0)]);
        // rebuilding the dense matrix from the groups matches to_dense
        let mut d = Matrix::zeros(3, 4);
        for c in 0..4 {
            for &(r, v) in &entries[col_ptr[c]..col_ptr[c + 1]] {
                d.set(r, c, d.get(r, c) + v);
            }
        }
        assert_eq!(d, m.to_dense());
    }
}
