//! Distance-based baseline: mean Euclidean distance to the `k` nearest
//! training records.
//!
//! Included as the classical comparator the paper's related-work section
//! positions the DL methods against (distance-based methods "are very
//! sensitive to data dimensions"), and used by the ablation benches.

use crate::scorer::AnomalyScorer;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_linalg::kernel::{self, DistanceKernel};
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;

/// Configuration of the kNN scorer.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Number of neighbours to average over.
    pub k: usize,
    /// Cap on the stored reference set (uniform subsample of the training
    /// records).
    pub max_references: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self { k: 5, max_references: 2000 }
    }
}

/// The kNN anomaly detector, backed by the shared batched distance
/// kernel: references are sanitized once at fit time (non-finite
/// features zeroed by [`kernel::sanitize_rows`] — the single rule kNN
/// and LOF now share), and scoring evaluates query chunks through the
/// Gram-trick GEMM instead of per-pair scalar loops.
#[derive(Debug, Clone)]
pub struct KnnDetector {
    config: KnnConfig,
    kernel: DistanceKernel,
}

impl KnnDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: KnnConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        Self { config, kernel: DistanceKernel::fit::<Vec<f64>>(&[]) }
    }

    /// Mean-of-`k`-nearest score for one row of squared distances,
    /// selected in place — the one rule the batch chunks and the
    /// per-record path share. The selection runs over the full row so
    /// the `k`-sum adds the same values in the same order on both.
    fn score_row(k: usize, dists: &mut [f64]) -> f64 {
        // total_cmp: squared distances of finite features can still
        // overflow to ∞; ordering must never panic.
        dists.select_nth_unstable_by(k - 1, f64::total_cmp);
        let mean: f64 = dists[..k].iter().sum::<f64>() / k as f64;
        mean.sqrt()
    }

    /// The record width the fitted reference set takes (0 until fitted).
    pub fn dims(&self) -> usize {
        if self.kernel.is_empty() {
            0
        } else {
            self.kernel.dims()
        }
    }

    /// Score one record against the frozen reference set — the streaming
    /// engine's per-tick path. Bitwise equal to the record's batch score:
    /// the kernel's one-query form reproduces the query's GEMM row
    /// exactly, and the k-selection afterwards is shared. A warmed call
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics if the detector is unfitted.
    pub fn score_record(&self, record: &[f64]) -> f64 {
        assert!(!self.kernel.is_empty(), "detector not fitted");
        let k = self.config.k.min(self.kernel.len());
        self.kernel.with_sq_distances_to(record, |dists| Self::score_row(k, dists))
    }

    /// Serialize the fitted detector (config + reference kernel) into `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.config.k);
        w.put_usize(self.config.max_references);
        self.kernel.encode(w);
    }

    /// Decode a detector written by [`KnnDetector::encode`]. The kernel
    /// rederives its transposed/norm caches from the references with the
    /// fit-time arithmetic, so restored scores are bitwise identical.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.get_usize()?;
        if k == 0 {
            return Err(CodecError::Corrupt("kNN k must be positive"));
        }
        let max_references = r.get_usize()?;
        let kernel = DistanceKernel::decode(r)?;
        Ok(Self { config: KnnConfig { k, max_references }, kernel })
    }
}

impl AnomalyScorer for KnnDetector {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "kNN.fit");
        assert!(!train.is_empty(), "no training traces");
        // Size-1 windows are record views: the kernel fits straight from
        // borrowed slices, zero copies before its own sanitize.
        let mut refs = WindowSet::pooled(train, 1);
        assert!(!refs.is_empty(), "empty training traces");
        refs.subsample(self.config.max_references);
        let views: Vec<&[f64]> = (0..refs.len()).map(|i| refs.window(i)).collect();
        self.kernel = DistanceKernel::fit(&views);
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "kNN.series");
        assert!(!self.kernel.is_empty(), "detector not fitted");
        let k = self.config.k.min(self.kernel.len());
        // Fixed-size query chunks scored independently on the shared
        // worker pool (chunk boundaries never depend on the thread
        // count, so output is identical for any `EXATHLON_THREADS`).
        // This is the O(records × references) hot loop of the P2
        // inference bench, evaluated as one Gram-trick GEMM per chunk.
        let records: Vec<&[f64]> = ts.records().collect();
        let chunks: Vec<&[&[f64]]> = records.chunks(kernel::DIST_CHUNK).collect();
        let scored: Vec<Vec<f64>> = exathlon_linalg::par::par_map(&chunks, |chunk| {
            let mut dists = self.kernel.sq_distances(chunk);
            (0..dists.rows()).map(|i| Self::score_row(k, dists.row_mut(i))).collect()
        });
        scored.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    fn ts(records: &[Vec<f64>]) -> TimeSeries {
        TimeSeries::from_records(default_names(records[0].len()), 0, records)
    }

    #[test]
    fn far_points_score_higher() {
        let train = ts(&(0..100).map(|i| vec![(i % 10) as f64 * 0.1]).collect::<Vec<_>>());
        let mut det = KnnDetector::new(KnnConfig { k: 3, max_references: 1000 });
        det.fit(&[&train]);
        let test = ts(&[vec![0.5], vec![10.0]]);
        let scores = det.score_series(&test);
        assert!(scores[1] > scores[0] * 5.0, "{scores:?}");
    }

    #[test]
    fn training_points_score_near_zero() {
        let train = ts(&(0..50).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut det = KnnDetector::new(KnnConfig { k: 1, max_references: 1000 });
        det.fit(&[&train]);
        let scores = det.score_series(&ts(&[vec![25.0]]));
        assert!(scores[0] < 1e-9);
    }

    #[test]
    fn reference_subsampling_caps_memory() {
        let train = ts(&(0..500).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut det = KnnDetector::new(KnnConfig { k: 2, max_references: 50 });
        det.fit(&[&train]);
        assert_eq!(det.kernel.len(), 50);
    }

    #[test]
    fn nan_values_treated_as_zero() {
        let train = ts(&[vec![0.0], vec![0.1]]);
        let mut det = KnnDetector::new(KnnConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&ts(&[vec![f64::NAN]]));
        assert!(scores[0].is_finite());
    }

    /// Regression test: ∞ features used to survive sanitization (only
    /// NaN was zeroed), so an ∞ in both a reference and a query produced
    /// ∞ − ∞ = NaN distances and the selection comparator panicked.
    #[test]
    fn infinite_values_do_not_panic() {
        let train = ts(&[vec![f64::INFINITY, 1.0], vec![f64::NEG_INFINITY, 2.0], vec![0.0, 3.0]]);
        let mut det = KnnDetector::new(KnnConfig { k: 2, max_references: 1000 });
        det.fit(&[&train]);
        let scores = det.score_series(&ts(&[
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 2.5],
            vec![f64::NAN, 3.0],
        ]));
        assert!(scores.iter().all(|s| s.is_finite()), "{scores:?}");
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_panics() {
        let det = KnnDetector::new(KnnConfig::default());
        let _ = det.score_series(&ts(&[vec![1.0]]));
    }
}
