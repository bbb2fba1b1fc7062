//! Ordinary least squares / ridge regression with an intercept.
//!
//! This is the kernel behind every rule's predicting part: the paper fits the
//! hyperplane `v ≈ a_0 x_i + a_1 x_{i+1} + ... + a_{D-1} x_{i+D-1} + a_D`
//! over the windows matched by the rule's condition and takes the maximum
//! absolute residual as the rule's expected error.
//!
//! Two solver paths are provided:
//!
//! * **QR** (default) — numerically robust; used when the design matrix has
//!   full column rank.
//! * **Ridge-regularized normal equations** — the fallback for rank-deficient
//!   designs (e.g. a rule whose matched windows are collinear, or fewer
//!   windows than inputs). A tiny Tikhonov term keeps the system solvable and
//!   bounds the coefficients, which is exactly the behaviour the evolutionary
//!   engine needs: a degenerate rule should still get *some* prediction and a
//!   large-ish error rather than aborting the generation.

use crate::cholesky::CholeskyDecomposition;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::qr::QrDecomposition;
use crate::vector;

/// Options controlling the regression solve.
#[derive(Debug, Clone, Copy)]
pub struct RegressionOptions {
    /// Ridge (Tikhonov) penalty applied when the QR path reports rank
    /// deficiency, or always when [`RegressionOptions::force_ridge`] is set.
    pub ridge_lambda: f64,
    /// Skip QR and always solve ridge-regularized normal equations. This is
    /// the fast path for the evolutionary hot loop: forming the Gram matrix
    /// costs `O(n·d²/2)` and solving `O(d³)`, with no `O(n·d²)` reflector
    /// sweeps.
    pub force_ridge: bool,
    /// Fit an intercept column (the paper's `a_D` term). Almost always true.
    pub intercept: bool,
}

impl Default for RegressionOptions {
    fn default() -> Self {
        RegressionOptions {
            ridge_lambda: 1e-8,
            force_ridge: false,
            intercept: true,
        }
    }
}

impl RegressionOptions {
    /// Preset used by the evolutionary engine's offspring evaluation.
    pub fn fast() -> Self {
        RegressionOptions {
            ridge_lambda: 1e-6,
            force_ridge: true,
            intercept: true,
        }
    }
}

/// A fitted linear model `y ≈ coefficients · x + intercept`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    coefficients: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fit with default options (QR, intercept, tiny ridge fallback).
    ///
    /// `xs` is `n x d` (one observation per row), `ys` has length `n`.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] when `ys.len() != xs.rows()`,
    /// * [`LinalgError::Empty`] when there are zero observations or features,
    /// * [`LinalgError::NonFinite`] on NaN/inf input,
    /// * [`LinalgError::Singular`] when even the ridge system fails.
    pub fn fit(xs: &Matrix, ys: &[f64]) -> Result<Self, LinalgError> {
        Self::fit_with(xs, ys, RegressionOptions::default())
    }

    /// Fit with explicit options.
    ///
    /// # Errors
    /// See [`LinearRegression::fit`].
    pub fn fit_with(xs: &Matrix, ys: &[f64], opts: RegressionOptions) -> Result<Self, LinalgError> {
        let (n, d) = xs.shape();
        if ys.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "regression_fit",
                left: (n, d),
                right: (ys.len(), 1),
            });
        }
        if n == 0 || d == 0 {
            return Err(LinalgError::Empty);
        }
        if !xs.all_finite() || !vector::all_finite(ys) {
            return Err(LinalgError::NonFinite);
        }

        let p = if opts.intercept { d + 1 } else { d };

        // Try QR on the (possibly intercept-augmented) design when allowed
        // and the system is overdetermined.
        if !opts.force_ridge && n >= p {
            let design = if opts.intercept {
                Matrix::from_fn(n, p, |i, j| if j < d { xs[(i, j)] } else { 1.0 })
            } else {
                xs.clone()
            };
            match QrDecomposition::new(&design).and_then(|qr| qr.solve_least_squares(ys)) {
                Ok(beta) => return Ok(Self::from_beta(beta, opts.intercept)),
                Err(LinalgError::Singular) => { /* fall through to ridge */ }
                Err(e) => return Err(e),
            }
        }

        Self::fit_ridge_normal_equations(xs, ys, opts)
    }

    /// Ridge path: solve `(XᵀX + λI) β = Xᵀy` on the augmented design. The
    /// Gram matrix is accumulated row-by-row without materializing the
    /// augmented matrix.
    fn fit_ridge_normal_equations(
        xs: &Matrix,
        ys: &[f64],
        opts: RegressionOptions,
    ) -> Result<Self, LinalgError> {
        let (n, d) = xs.shape();
        let p = if opts.intercept { d + 1 } else { d };
        let mut gram = Matrix::zeros(p, p);
        let mut xty = vec![0.0; p];

        let mut row_buf = vec![0.0; p];
        for i in 0..n {
            let row = xs.row(i);
            row_buf[..d].copy_from_slice(row);
            if opts.intercept {
                row_buf[d] = 1.0;
            }
            for a in 0..p {
                let ra = row_buf[a];
                if ra == 0.0 {
                    continue;
                }
                let grow = gram.row_mut(a);
                for b in a..p {
                    grow[b] += ra * row_buf[b];
                }
            }
            vector::axpy(ys[i], &row_buf, &mut xty);
        }
        // Mirror the upper triangle and add the ridge term. Scale λ by the
        // trace so the regularization strength is data-relative.
        let mut trace = 0.0;
        for a in 0..p {
            trace += gram[(a, a)];
        }
        let lambda = opts.ridge_lambda.max(f64::MIN_POSITIVE) * (trace / p as f64).max(1.0);
        for a in 0..p {
            for b in 0..a {
                gram[(a, b)] = gram[(b, a)];
            }
            gram[(a, a)] += lambda;
        }

        let beta = LuDecomposition::new(&gram)?.solve(&xty)?;
        Ok(Self::from_beta(beta, opts.intercept))
    }

    pub(crate) fn from_beta(mut beta: Vec<f64>, intercept: bool) -> Self {
        let b0 = if intercept {
            beta.pop().unwrap_or(0.0)
        } else {
            0.0
        };
        LinearRegression {
            coefficients: beta,
            intercept: b0,
        }
    }

    /// Slope coefficients (length = number of features).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Intercept term (the paper's `a_D`); `0.0` when fitted without one.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Predict a single observation.
    ///
    /// # Panics
    /// Panics in debug builds when `x.len()` differs from the feature count.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.coefficients.len(), "feature count mismatch");
        vector::dot_unchecked(&self.coefficients, x) + self.intercept
    }

    /// Predict every row of `xs`.
    pub fn predict_batch(&self, xs: &Matrix) -> Vec<f64> {
        (0..xs.rows()).map(|i| self.predict(xs.row(i))).collect()
    }

    /// Maximum absolute residual over a dataset — the paper's `e_R`.
    pub fn max_abs_residual(&self, xs: &Matrix, ys: &[f64]) -> f64 {
        (0..xs.rows())
            .map(|i| (ys[i] - self.predict(xs.row(i))).abs())
            .fold(0.0_f64, f64::max)
    }

    /// Mean squared residual over a dataset.
    pub fn mean_squared_residual(&self, xs: &Matrix, ys: &[f64]) -> f64 {
        if xs.rows() == 0 {
            return 0.0;
        }
        let sum: f64 = (0..xs.rows())
            .map(|i| {
                let r = ys[i] - self.predict(xs.row(i));
                r * r
            })
            .sum();
        sum / xs.rows() as f64
    }

    /// Build a model directly from known parameters (used by tests and by
    /// rule serialization round-trips).
    pub fn from_parameters(coefficients: Vec<f64>, intercept: f64) -> Self {
        LinearRegression {
            coefficients,
            intercept,
        }
    }
}

/// Rows a [`RowTile`] holds. Small enough that a tile of Venice-width rows
/// (`p = 25`, stride 28: 14 KiB) stays in L1 while every Gram block sweeps
/// it; large enough that each block's load/store of its 16 Gram entries is
/// amortized over many rows.
pub const TILE_ROWS: usize = 64;

/// A small row-major block of gathered observations — the input of
/// [`NormalEqAccumulator::push_tile`].
///
/// Each row holds the features, then the intercept's `1.0` (when the tile
/// was built with one), then zero padding up to a stride that is a multiple
/// of 4, so the kernel's 4×4 blocks never read past a row. The intercept
/// column and the padding are written once at construction; [`push`] copies
/// only the features.
///
/// [`push`]: RowTile::push
#[derive(Debug, Clone)]
pub struct RowTile {
    /// Feature count `d`.
    d: usize,
    /// Augmented column count `p` (`d + 1` with an intercept).
    order: usize,
    /// Row stride: `p` rounded up to a multiple of 4 (at least 4).
    stride: usize,
    /// Rows currently held.
    rows: usize,
    /// `TILE_ROWS x stride`, row-major.
    values: Vec<f64>,
    /// One target per row.
    targets: Vec<f64>,
}

impl RowTile {
    /// Empty tile for `d`-feature observations.
    pub fn new(d: usize, intercept: bool) -> RowTile {
        let order = if intercept { d + 1 } else { d };
        let stride = order.next_multiple_of(4).max(4);
        let mut values = vec![0.0; TILE_ROWS * stride];
        if intercept {
            for row in values.chunks_exact_mut(stride) {
                row[d] = 1.0;
            }
        }
        RowTile {
            d,
            order,
            stride,
            rows: 0,
            values,
            targets: vec![0.0; TILE_ROWS],
        }
    }

    /// Whether the tile holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether the tile holds [`TILE_ROWS`] rows.
    pub fn is_full(&self) -> bool {
        self.rows == TILE_ROWS
    }

    /// Append one observation.
    ///
    /// # Panics
    /// When the tile is full, or when `features.len() != d`.
    #[inline]
    pub fn push(&mut self, features: &[f64], target: f64) {
        assert!(!self.is_full(), "row tile is full");
        let start = self.rows * self.stride;
        self.values[start..start + self.d].copy_from_slice(features);
        self.targets[self.rows] = target;
        self.rows += 1;
    }

    /// Drop every row (the intercept column and padding stay in place).
    pub fn clear(&mut self) {
        self.rows = 0;
    }
}

/// Streaming accumulator for the ridge normal equations `(XᵀX + λI) β = Xᵀy`.
///
/// The fused evaluation kernel pushes each matched observation as it is
/// discovered, so the design matrix is never materialized: the state is one
/// `p x p` Gram triangle plus `Xᵀy`, `O(p²)` memory regardless of how many
/// rows match. Accumulators over disjoint row chunks can be [`merged`]
/// (entrywise sums), which makes the reduction order explicit — callers that
/// need bit-identical results across sequential/parallel/indexed paths merge
/// per-chunk accumulators in ascending chunk order.
///
/// [`merged`]: NormalEqAccumulator::merge
#[derive(Debug, Clone)]
pub struct NormalEqAccumulator {
    /// Feature count `d` (excluding the intercept column).
    d: usize,
    /// Whether an all-ones intercept column is appended (`p = d + 1`).
    intercept: bool,
    /// Upper triangle of `XᵀX` over the augmented design, row-major `p x p`
    /// (entries below the diagonal stay zero until `solve` mirrors them).
    gram: Vec<f64>,
    /// `Xᵀy` over the augmented design.
    xty: Vec<f64>,
    /// Σ y, kept separately so the mean target is available even without an
    /// intercept column.
    sum_y: f64,
    /// Rows pushed (or merged) so far.
    count: usize,
    /// Scratch row holding `[features..., 1.0]`.
    row_buf: Vec<f64>,
}

impl NormalEqAccumulator {
    /// Empty accumulator for `d`-feature observations.
    pub fn new(d: usize, intercept: bool) -> NormalEqAccumulator {
        let p = if intercept { d + 1 } else { d };
        let mut row_buf = vec![0.0; p];
        if intercept {
            row_buf[d] = 1.0;
        }
        NormalEqAccumulator {
            d,
            intercept,
            gram: vec![0.0; p * p],
            xty: vec![0.0; p],
            sum_y: 0.0,
            count: 0,
            row_buf,
        }
    }

    /// Augmented-design column count (`d + 1` with an intercept).
    pub fn order(&self) -> usize {
        self.xty.len()
    }

    /// Rows accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of the accumulated targets (`Σ y`).
    pub fn sum_targets(&self) -> f64 {
        self.sum_y
    }

    /// Rank-1 update with one observation.
    ///
    /// # Panics
    /// Panics in debug builds when `features.len() != d`.
    #[inline]
    pub fn push_row(&mut self, features: &[f64], target: f64) {
        debug_assert_eq!(features.len(), self.d, "feature count mismatch");
        let p = self.xty.len();
        self.row_buf[..self.d].copy_from_slice(features);
        for a in 0..p {
            let ra = self.row_buf[a];
            if ra == 0.0 {
                continue;
            }
            let grow = &mut self.gram[a * p..(a + 1) * p];
            for b in a..p {
                grow[b] += ra * self.row_buf[b];
            }
        }
        vector::axpy(target, &self.row_buf, &mut self.xty);
        self.sum_y += target;
        self.count += 1;
    }

    /// Rank-k update with every row of `tile`: bit-identical to calling
    /// [`push_row`] on those rows in order, for finite input.
    ///
    /// The feature part of the upper triangle is computed in 4×4 register
    /// blocks. Each block loads its Gram entries once, adds `x_a·x_b` for the
    /// tile's rows in ascending row order, and stores back only the entries
    /// with `a ≤ b < d`. Every entry therefore still receives its products one at
    /// a time in ascending row order — the per-entry summation order is the
    /// only thing that fixes the result, so blocking changes no bit. Rust
    /// never contracts `a*b + c` into a fused multiply-add, so each step is
    /// the same rounded product and rounded sum as in [`push_row`].
    ///
    /// [`push_row`] skips the products of a zero `x_a`; this kernel adds
    /// them. That is exact for finite input: the product is `±0`, an entry
    /// starts at `+0.0`, and a round-to-nearest sum is `-0.0` only when both
    /// operands are `-0.0`, so no entry ever becomes `-0.0` — and adding
    /// `±0` to a value that is not `-0.0` returns it unchanged. (A zero times
    /// an infinite `x_b` would be NaN; callers pass finite rows.)
    ///
    /// The blocks span the `d` feature columns only. The intercept column is
    /// folded in separately: entry `(a, d)` adds `x_a` for each row in
    /// ascending row order (four entries at a time), and `(d, d)` adds the
    /// row count at once. Both are exact: [`push_row`] adds `x_a · 1.0`, and
    /// `x · 1.0 == x` for every finite `x`, signed zeros and subnormals
    /// included; `(d, d)` only ever holds an integer below 2⁵³, so adding
    /// `rows` ones one by one or `rows` at once gives the same exact sum.
    ///
    /// `Xᵀy`, `Σy` and the count are updated per row, as in [`push_row`].
    /// The tile is left as it was; the caller clears it.
    ///
    /// # Panics
    /// When the tile was built for a different feature count or intercept
    /// mode.
    ///
    /// [`push_row`]: NormalEqAccumulator::push_row
    pub fn push_tile(&mut self, tile: &RowTile) {
        assert_eq!(tile.d, self.d, "tile feature count differs");
        let p = self.xty.len();
        assert_eq!(tile.order, p, "tile intercept mode differs");
        let d = self.d;
        let rows = &tile.values[..tile.rows * tile.stride];
        for a0 in (0..d).step_by(4) {
            for b0 in (a0..d).step_by(4) {
                let stored = |i: usize, j: usize| a0 + i <= b0 + j && b0 + j < d;
                let mut c = [[0.0_f64; 4]; 4];
                for (i, ci) in c.iter_mut().enumerate() {
                    for (j, cij) in ci.iter_mut().enumerate() {
                        if stored(i, j) {
                            *cij = self.gram[(a0 + i) * p + b0 + j];
                        }
                    }
                }
                for row in rows.chunks_exact(tile.stride) {
                    let (blocks, _) = row.as_chunks::<4>();
                    let (xa, xb) = (&blocks[a0 / 4], &blocks[b0 / 4]);
                    for (ci, &x) in c.iter_mut().zip(xa) {
                        for (cij, &y) in ci.iter_mut().zip(xb) {
                            *cij += x * y;
                        }
                    }
                }
                for (i, ci) in c.iter().enumerate() {
                    for (j, &cij) in ci.iter().enumerate() {
                        if stored(i, j) {
                            self.gram[(a0 + i) * p + b0 + j] = cij;
                        }
                    }
                }
            }
        }
        if self.intercept {
            for a0 in (0..d).step_by(4) {
                let mut c = [0.0_f64; 4];
                for (i, ci) in c.iter_mut().enumerate() {
                    if a0 + i < d {
                        *ci = self.gram[(a0 + i) * p + d];
                    }
                }
                for row in rows.chunks_exact(tile.stride) {
                    let (blocks, _) = row.as_chunks::<4>();
                    for (ci, &x) in c.iter_mut().zip(&blocks[a0 / 4]) {
                        *ci += x;
                    }
                }
                for (i, &ci) in c.iter().enumerate() {
                    if a0 + i < d {
                        self.gram[(a0 + i) * p + d] = ci;
                    }
                }
            }
            self.gram[d * p + d] += tile.rows as f64;
        }
        for (row, &y) in rows.chunks_exact(tile.stride).zip(&tile.targets) {
            vector::axpy(y, &row[..p], &mut self.xty);
            self.sum_y += y;
        }
        self.count += tile.rows;
    }

    /// Reset to the empty state, keeping the buffers.
    pub fn clear(&mut self) {
        self.gram.fill(0.0);
        self.xty.fill(0.0);
        self.sum_y = 0.0;
        self.count = 0;
    }

    /// Fold another accumulator (over a disjoint row chunk) into this one.
    ///
    /// # Panics
    /// Panics when the two accumulators have different shapes.
    pub fn merge(&mut self, other: &NormalEqAccumulator) {
        assert_eq!(self.d, other.d, "accumulator feature counts differ");
        assert_eq!(self.intercept, other.intercept, "intercept modes differ");
        for (g, o) in self.gram.iter_mut().zip(&other.gram) {
            *g += o;
        }
        for (x, o) in self.xty.iter_mut().zip(&other.xty) {
            *x += o;
        }
        self.sum_y += other.sum_y;
        self.count += other.count;
    }

    /// Solve the accumulated system with the same trace-scaled ridge term as
    /// [`LinearRegression::fit_with`]'s ridge path, via Cholesky (the system
    /// is SPD by construction) with a pivoted-LU fallback.
    ///
    /// # Errors
    /// * [`LinalgError::Empty`] when no rows were pushed,
    /// * [`LinalgError::NonFinite`] when the accumulated sums are not finite,
    /// * [`LinalgError::Singular`] when both solvers fail.
    pub fn solve(&self, ridge_lambda: f64) -> Result<LinearRegression, LinalgError> {
        if self.count == 0 {
            return Err(LinalgError::Empty);
        }
        let p = self.xty.len();
        if !vector::all_finite(&self.gram) || !vector::all_finite(&self.xty) {
            return Err(LinalgError::NonFinite);
        }

        // Mirror the upper triangle and add the trace-scaled ridge term —
        // the exact formula of `fit_ridge_normal_equations`.
        let mut trace = 0.0;
        for a in 0..p {
            trace += self.gram[a * p + a];
        }
        let lambda = ridge_lambda.max(f64::MIN_POSITIVE) * (trace / p as f64).max(1.0);
        let system = Matrix::from_fn(p, p, |a, b| {
            let v = if b >= a {
                self.gram[a * p + b]
            } else {
                self.gram[b * p + a]
            };
            if a == b {
                v + lambda
            } else {
                v
            }
        });

        let beta = match CholeskyDecomposition::new(&system).and_then(|ch| ch.solve(&self.xty)) {
            Ok(beta) => beta,
            Err(LinalgError::Singular) => {
                // Extreme scaling can push the ridge diagonal below the
                // positive-definiteness tolerance; retry with pivoting.
                LuDecomposition::new(&system)?.solve(&self.xty)?
            }
            Err(e) => return Err(e),
        };
        Ok(LinearRegression::from_beta(beta, self.intercept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn design(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn fits_exact_line() {
        let xs = design(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-10);
        assert!((fit.intercept() - 1.0).abs() < 1e-10);
        assert!(fit.max_abs_residual(&xs, &ys) < 1e-10);
    }

    #[test]
    fn fits_exact_plane_two_features() {
        // y = 3*x0 - 2*x1 + 0.5
        let xs = design(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
        ]);
        let ys: Vec<f64> = (0..xs.rows())
            .map(|i| 3.0 * xs[(i, 0)] - 2.0 * xs[(i, 1)] + 0.5)
            .collect();
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((fit.coefficients()[0] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients()[1] + 2.0).abs() < 1e-9);
        assert!((fit.intercept() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_intercept_mode() {
        let xs = design(&[&[1.0], &[2.0], &[3.0]]);
        let ys = [2.0, 4.0, 6.0];
        let opts = RegressionOptions {
            intercept: false,
            ..Default::default()
        };
        let fit = LinearRegression::fit_with(&xs, &ys, opts).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-10);
        assert_eq!(fit.intercept(), 0.0);
    }

    #[test]
    fn ridge_path_handles_single_observation() {
        // One observation, one feature + intercept: underdetermined; ridge
        // must still return finite parameters that roughly reproduce y.
        let xs = design(&[&[2.0]]);
        let ys = [10.0];
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        assert!(fit.coefficients()[0].is_finite());
        assert!(fit.intercept().is_finite());
        assert!((fit.predict(&[2.0]) - 10.0).abs() < 1.0);
    }

    #[test]
    fn ridge_path_handles_collinear_features() {
        // x1 = 2*x0 exactly: QR reports Singular, ridge fallback must fit.
        let xs = design(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0], &[4.0, 8.0]]);
        let ys = [5.0, 10.0, 15.0, 20.0];
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        for (i, y) in ys.iter().enumerate() {
            assert!((fit.predict(xs.row(i)) - y).abs() < 1e-2);
        }
    }

    #[test]
    fn constant_feature_column_is_fine_with_intercept_via_ridge() {
        // A constant feature is collinear with the intercept.
        let xs = design(&[&[1.0], &[1.0], &[1.0]]);
        let ys = [4.0, 4.0, 4.0];
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((fit.predict(&[1.0]) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn fast_options_force_ridge() {
        let xs = design(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = LinearRegression::fit_with(&xs, &ys, RegressionOptions::fast()).unwrap();
        // Ridge shrinks slightly; still near the true line.
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-3);
        assert!((fit.intercept() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn shape_and_emptiness_errors() {
        let xs = design(&[&[1.0], &[2.0]]);
        assert!(matches!(
            LinearRegression::fit(&xs, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            LinearRegression::fit(&Matrix::zeros(0, 1), &[]),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            LinearRegression::fit(&Matrix::zeros(2, 0), &[1.0, 2.0]),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn nan_rejected() {
        let xs = design(&[&[1.0], &[f64::NAN]]);
        assert_eq!(
            LinearRegression::fit(&xs, &[1.0, 2.0]).unwrap_err(),
            LinalgError::NonFinite
        );
        let xs_ok = design(&[&[1.0], &[2.0]]);
        assert_eq!(
            LinearRegression::fit(&xs_ok, &[1.0, f64::INFINITY]).unwrap_err(),
            LinalgError::NonFinite
        );
    }

    #[test]
    fn residual_helpers() {
        let xs = design(&[&[0.0], &[1.0], &[2.0]]);
        let ys = [0.0, 1.0, 4.0]; // not a perfect line
        let fit = LinearRegression::fit(&xs, &ys).unwrap();
        let max_r = fit.max_abs_residual(&xs, &ys);
        let mse = fit.mean_squared_residual(&xs, &ys);
        assert!(max_r > 0.0);
        assert!(mse > 0.0);
        assert!(mse <= max_r * max_r + 1e-12);
        assert_eq!(fit.mean_squared_residual(&Matrix::zeros(0, 1), &[]), 0.0);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let xs = design(&[&[0.5, 1.0], &[1.5, -1.0], &[2.5, 0.0]]);
        let fit = LinearRegression::from_parameters(vec![2.0, -1.0], 0.25);
        let batch = fit.predict_batch(&xs);
        for (i, &b) in batch.iter().enumerate() {
            assert!((b - fit.predict(xs.row(i))).abs() < 1e-15);
        }
    }

    #[test]
    fn accumulator_matches_ridge_fit() {
        let xs = Matrix::from_fn(12, 3, |i, j| {
            (i as f64 * (0.7 + 0.3 * j as f64)).sin() * 4.0
        });
        let ys: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).cos() * 2.0).collect();
        let opts = RegressionOptions::fast();
        let direct = LinearRegression::fit_with(&xs, &ys, opts).unwrap();

        let mut acc = NormalEqAccumulator::new(3, opts.intercept);
        for i in 0..12 {
            acc.push_row(xs.row(i), ys[i]);
        }
        assert_eq!(acc.count(), 12);
        assert_eq!(acc.order(), 4);
        let streamed = acc.solve(opts.ridge_lambda).unwrap();
        for (a, b) in streamed.coefficients().iter().zip(direct.coefficients()) {
            assert!((a - b).abs() < 1e-9, "coefficient drift: {a} vs {b}");
        }
        assert!((streamed.intercept() - direct.intercept()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let xs = Matrix::from_fn(20, 2, |i, j| ((i + 3 * j) as f64 * 0.31).sin() * 3.0);
        let ys: Vec<f64> = (0..20).map(|i| (i as f64 * 0.17).cos()).collect();

        let mut whole = NormalEqAccumulator::new(2, true);
        for i in 0..20 {
            whole.push_row(xs.row(i), ys[i]);
        }
        let mut merged = NormalEqAccumulator::new(2, true);
        for chunk in [(0, 7), (7, 13), (13, 20)] {
            let mut part = NormalEqAccumulator::new(2, true);
            for i in chunk.0..chunk.1 {
                part.push_row(xs.row(i), ys[i]);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.sum_targets() - whole.sum_targets()).abs() < 1e-12);
        let a = whole.solve(1e-6).unwrap();
        let b = merged.solve(1e-6).unwrap();
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert!((x - y).abs() < 1e-10);
        }
        assert!((a.intercept() - b.intercept()).abs() < 1e-10);
    }

    #[test]
    fn accumulator_without_intercept() {
        let xs = design(&[&[1.0], &[2.0], &[3.0]]);
        let ys = [2.0, 4.0, 6.0];
        let mut acc = NormalEqAccumulator::new(1, false);
        for i in 0..3 {
            acc.push_row(xs.row(i), ys[i]);
        }
        let fit = acc.solve(1e-10).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-6);
        assert_eq!(fit.intercept(), 0.0);
        assert!((acc.sum_targets() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_refuses_to_solve() {
        let acc = NormalEqAccumulator::new(3, true);
        assert_eq!(acc.solve(1e-6).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn accumulator_handles_underdetermined_chunks() {
        // One row, two features + intercept: the ridge term must carry it.
        let mut acc = NormalEqAccumulator::new(2, true);
        acc.push_row(&[2.0, -1.0], 10.0);
        let fit = acc.solve(1e-6).unwrap();
        assert!(fit.coefficients().iter().all(|c| c.is_finite()));
        assert!((fit.predict(&[2.0, -1.0]) - 10.0).abs() < 1.0);
    }

    /// Awkward finite values for the tile kernel: signed zeros, subnormals,
    /// and magnitudes around 1e±150 whose products sit near the ends of the
    /// exponent range.
    fn awkward_value(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = *state >> 11;
        let unit = (r >> 4) as f64 / (1u64 << 49) as f64 - 0.5;
        match r & 15 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1 + (r >> 20) % 1000),
            3 => -f64::MIN_POSITIVE * unit,
            4 | 5 => 1e150 * unit,
            6 | 7 => 1e-150 * unit,
            _ => 10.0 * unit,
        }
    }

    fn assert_same_bits(a: &NormalEqAccumulator, b: &NormalEqAccumulator, what: &str) {
        assert_eq!(a.count, b.count, "{what}: count");
        assert_eq!(
            a.sum_y.to_bits(),
            b.sum_y.to_bits(),
            "{what}: sum of targets"
        );
        for (k, (x, y)) in a.gram.iter().zip(&b.gram).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: gram entry {k}: {x:e} vs {y:e}"
            );
        }
        for (k, (x, y)) in a.xty.iter().zip(&b.xty).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: xty entry {k}: {x:e} vs {y:e}"
            );
        }
    }

    #[test]
    fn clear_resets_to_the_empty_state() {
        let mut acc = NormalEqAccumulator::new(2, true);
        acc.push_row(&[1.5, -2.0], 3.0);
        acc.clear();
        assert_same_bits(&acc, &NormalEqAccumulator::new(2, true), "cleared");
    }

    #[test]
    #[should_panic(expected = "row tile is full")]
    fn tile_refuses_a_row_past_its_capacity() {
        let mut tile = RowTile::new(1, true);
        for _ in 0..=TILE_ROWS {
            tile.push(&[1.0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "intercept mode differs")]
    fn tile_of_another_intercept_mode_is_refused() {
        let tile = RowTile::new(3, false);
        NormalEqAccumulator::new(3, true).push_tile(&tile);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn tile_kernel_equals_repeated_push_row_bit_for_bit(seed in 0u64..1_000_000) {
            // p = 1..5 and 25 exercise ragged edge blocks; 97 is D = 96
            // with an intercept. 63/64/65 rows straddle one full tile.
            let mut state = seed;
            for p in [1usize, 2, 4, 5, 25, 97] {
                for intercept in [true, false] {
                    let d = if intercept { p - 1 } else { p };
                    for rows in [0usize, 1, 63, 64, 65] {
                        let mut by_row = NormalEqAccumulator::new(d, intercept);
                        let mut by_tile = NormalEqAccumulator::new(d, intercept);
                        // Start from a non-empty state so loads matter too.
                        for acc in [&mut by_row, &mut by_tile] {
                            acc.push_row(&vec![1.25; d], -0.5);
                        }
                        let mut tile = RowTile::new(d, intercept);
                        for _ in 0..rows {
                            let x: Vec<f64> = (0..d).map(|_| awkward_value(&mut state)).collect();
                            let y = awkward_value(&mut state);
                            by_row.push_row(&x, y);
                            tile.push(&x, y);
                            if tile.is_full() {
                                by_tile.push_tile(&tile);
                                tile.clear();
                            }
                        }
                        by_tile.push_tile(&tile);
                        let what = format!("p = {p}, intercept = {intercept}, rows = {rows}");
                        assert_same_bits(&by_tile, &by_row, &what);
                    }
                }
            }
        }

        #[test]
        fn accumulator_agrees_with_ridge_fit_everywhere(
            n in 2usize..30,
            d in 1usize..5,
            seed in 0u64..300,
        ) {
            let xs = Matrix::from_fn(n, d, |i, j| {
                (i as f64 * (0.713 + 0.317 * j as f64) + seed as f64 * 0.01).sin() * 5.0
            });
            let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53 + seed as f64 * 0.02).cos()).collect();
            let opts = RegressionOptions::fast();
            let direct = LinearRegression::fit_with(&xs, &ys, opts).unwrap();
            let mut acc = NormalEqAccumulator::new(d, opts.intercept);
            for i in 0..n {
                acc.push_row(xs.row(i), ys[i]);
            }
            let streamed = acc.solve(opts.ridge_lambda).unwrap();
            for (a, b) in streamed.coefficients().iter().zip(direct.coefficients()) {
                prop_assert!((a - b).abs() < 1e-8, "coefficients {} vs {}", a, b);
            }
            prop_assert!((streamed.intercept() - direct.intercept()).abs() < 1e-8);
        }

        #[test]
        fn recovers_planted_model(
            n in 6usize..40,
            d in 1usize..5,
            seed in 0u64..500,
        ) {
            prop_assume!(n > d + 1);
            // Distinct irrational frequency per column keeps the design well
            // conditioned for any (n, d) drawn by proptest.
            let xs = Matrix::from_fn(n, d, |i, j| {
                (i as f64 * (0.713 + 0.317 * j as f64) + seed as f64 * 0.01).sin() * 5.0
            });
            let true_coef: Vec<f64> = (0..d).map(|j| (j as f64) - 1.5).collect();
            let ys: Vec<f64> = (0..n)
                .map(|i| vector::dot_unchecked(xs.row(i), &true_coef) + 0.75)
                .collect();
            let fit = LinearRegression::fit(&xs, &ys).unwrap();
            for (got, want) in fit.coefficients().iter().zip(true_coef.iter()) {
                prop_assert!((got - want).abs() < 1e-6);
            }
            prop_assert!((fit.intercept() - 0.75).abs() < 1e-6);
        }

        #[test]
        fn ols_beats_or_ties_mean_predictor(
            n in 4usize..30,
            seed in 0u64..500,
        ) {
            let xs = Matrix::from_fn(n, 1, |i, _| {
                ((i as u64 ^ seed) as f64 * 0.37).sin() * 3.0
            });
            let ys: Vec<f64> = (0..n)
                .map(|i| ((i as u64 ^ seed.wrapping_mul(3)) as f64 * 0.53).cos())
                .collect();
            let fit = LinearRegression::fit(&xs, &ys).unwrap();
            let mse_fit = fit.mean_squared_residual(&xs, &ys);
            let mean = ys.iter().sum::<f64>() / n as f64;
            let mse_mean = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
            prop_assert!(mse_fit <= mse_mean + 1e-9);
        }
    }
}
