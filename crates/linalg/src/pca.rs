//! Principal component analysis on top of the Jacobi eigensolver.
//!
//! The Exathlon pipeline offers PCA as one of its two dimensionality
//! reducers (§5 step 2): either keep the top-`k` components, or keep as many
//! components as needed to cover a target fraction of the data variance.
//! Table 8 of the paper evaluates the AD methods on `FS_pca` with 19
//! components, compared against the 19-feature curated set `FS_custom`.

use crate::eigen::{covariance_matrix, symmetric_eigen};
use crate::matrix::Matrix;

/// How many components a [`Pca`] should retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComponentSelection {
    /// Keep exactly this many leading components (clamped to the feature
    /// count).
    Fixed(usize),
    /// Keep the smallest number of leading components whose cumulative
    /// explained-variance ratio reaches this threshold in `(0, 1]`.
    VarianceCoverage(f64),
}

/// A fitted PCA transform: centering vector + projection matrix.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature means used for centering.
    means: Vec<f64>,
    /// `d x k` projection matrix (columns are principal axes).
    components: Matrix,
    /// Explained-variance ratio of each retained component.
    explained: Vec<f64>,
}

impl Pca {
    /// Fit a PCA on `data` (rows = observations, columns = features).
    ///
    /// # Panics
    /// Panics if `data` has no rows or no columns, or if a
    /// [`ComponentSelection::VarianceCoverage`] threshold is outside `(0, 1]`.
    pub fn fit(data: &Matrix, selection: ComponentSelection) -> Self {
        assert!(data.rows() > 0 && data.cols() > 0, "PCA needs a non-empty matrix");
        let d = data.cols();
        let cov = covariance_matrix(data);
        let eig = symmetric_eigen(&cov, 100, 1e-12);

        let total: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
        let ratios: Vec<f64> = eig
            .values
            .iter()
            .map(|&v| if total > 0.0 { v.max(0.0) / total } else { 0.0 })
            .collect();

        let k = match selection {
            ComponentSelection::Fixed(k) => k.clamp(1, d),
            ComponentSelection::VarianceCoverage(cov_target) => {
                assert!(
                    cov_target > 0.0 && cov_target <= 1.0,
                    "variance coverage must be in (0, 1]"
                );
                let mut acc = 0.0;
                let mut k = d;
                for (i, &r) in ratios.iter().enumerate() {
                    acc += r;
                    if acc >= cov_target {
                        k = i + 1;
                        break;
                    }
                }
                k.max(1)
            }
        };

        let means: Vec<f64> = (0..d).map(|j| crate::stats::mean(&data.col(j))).collect();
        let keep: Vec<usize> = (0..k).collect();
        let components = eig.vectors.select_cols(&keep);
        let explained = ratios[..k].to_vec();

        Self { means, components, explained }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Input dimensionality the transform expects.
    pub fn input_dim(&self) -> usize {
        self.components.rows()
    }

    /// Explained-variance ratio of each retained component (descending).
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained
    }

    /// Project a single observation into component space.
    ///
    /// NaN inputs are imputed with the training mean of the feature before
    /// centering (so they project to zero along that axis).
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.transform_row_into(row, &mut Vec::new(), &mut out);
        out
    }

    /// [`Pca::transform_row`] into caller-reused buffers: `centered`
    /// receives the imputed, centered row and `out` its projection.
    /// Bitwise identical, and allocation-free once both have grown to
    /// their steady-state lengths.
    pub fn transform_row_into(&self, row: &[f64], centered: &mut Vec<f64>, out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.input_dim(), "PCA transform dimension mismatch");
        centered.clear();
        centered.extend(
            row.iter().zip(&self.means).map(|(&x, &mu)| if x.is_nan() { 0.0 } else { x - mu }),
        );
        crate::kernel::transpose_matvec_into(&self.components, centered, out);
    }

    /// Project every row of `data` into component space: one centering
    /// pass, then a single `centered · components` GEMM — the same
    /// ascending-`k` sums as [`Pca::transform_row`], so each row is
    /// bitwise identical to the one-at-a-time path.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.input_dim(), "PCA transform dimension mismatch");
        let mut centered = Matrix::zeros(data.rows(), data.cols());
        for (r, row) in data.iter_rows().enumerate() {
            for ((c, &x), &mu) in centered.row_mut(r).iter_mut().zip(row).zip(&self.means) {
                *c = if x.is_nan() { 0.0 } else { x - mu };
            }
        }
        centered.matmul(&self.components)
    }

    /// Map a point in component space back to the original feature space
    /// (adds back the means).
    pub fn inverse_transform_row(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.n_components(), "PCA inverse dimension mismatch");
        let back = self.components.matvec(z);
        back.iter().zip(&self.means).map(|(&b, &mu)| b + mu).collect()
    }

    /// Serialize into `w` — centering means, projection matrix and
    /// explained ratios, all bitwise.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_f64s(&self.means);
        w.put_matrix(&self.components);
        w.put_f64s(&self.explained);
    }

    /// Decode a transform written by [`Pca::encode`]. Restored state is
    /// field-for-field bitwise identical, so [`Pca::transform_row`]
    /// reproduces the original projections exactly.
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        let means = r.get_f64s()?;
        let components = r.get_matrix()?;
        let explained = r.get_f64s()?;
        if components.rows() != means.len() || components.cols() != explained.len() {
            return Err(crate::codec::CodecError::Corrupt("PCA shape mismatch"));
        }
        if components.cols() == 0 {
            return Err(crate::codec::CodecError::Corrupt("PCA with zero components"));
        }
        Ok(Self { means, components, explained })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data lying exactly on a line in 2D: one component explains everything.
    fn line_data() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
            vec![5.0, 10.0],
        ])
    }

    #[test]
    fn single_component_captures_line() {
        let pca = Pca::fit(&line_data(), ComponentSelection::Fixed(1));
        assert_eq!(pca.n_components(), 1);
        assert!(pca.explained_variance_ratio()[0] > 0.999);
    }

    #[test]
    fn variance_coverage_selects_minimal_k() {
        let pca = Pca::fit(&line_data(), ComponentSelection::VarianceCoverage(0.95));
        assert_eq!(pca.n_components(), 1);
    }

    #[test]
    fn roundtrip_on_line_data() {
        let data = line_data();
        let pca = Pca::fit(&data, ComponentSelection::Fixed(1));
        for row in data.iter_rows() {
            let z = pca.transform_row(row);
            let back = pca.inverse_transform_row(&z);
            for (a, b) in row.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8, "roundtrip lost information: {a} vs {b}");
            }
        }
    }

    #[test]
    fn transform_centers_data() {
        let data = line_data();
        let pca = Pca::fit(&data, ComponentSelection::Fixed(2));
        let z = pca.transform(&data);
        // Projections of centered data must themselves have zero mean.
        for j in 0..z.cols() {
            let m = crate::stats::mean(&z.col(j));
            assert!(m.abs() < 1e-9, "component {j} mean {m}");
        }
    }

    #[test]
    fn fixed_k_clamped_to_dims() {
        let pca = Pca::fit(&line_data(), ComponentSelection::Fixed(10));
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn nan_rows_impute_to_mean() {
        let data = line_data();
        let pca = Pca::fit(&data, ComponentSelection::Fixed(1));
        let z = pca.transform_row(&[f64::NAN, f64::NAN]);
        assert!(z[0].abs() < 1e-12, "NaN row should project to the origin");
    }

    #[test]
    fn explained_ratios_sum_to_at_most_one() {
        let data = Matrix::from_rows(&[
            vec![1.0, 0.2, 3.1],
            vec![2.0, 0.1, 2.9],
            vec![1.5, 0.4, 3.3],
            vec![2.5, 0.3, 3.0],
            vec![1.8, 0.2, 3.2],
        ]);
        let pca = Pca::fit(&data, ComponentSelection::Fixed(3));
        let sum: f64 = pca.explained_variance_ratio().iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert!(sum > 0.99);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_matrix_panics() {
        let _ = Pca::fit(&Matrix::zeros(0, 0), ComponentSelection::Fixed(1));
    }
}
