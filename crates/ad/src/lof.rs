//! Local outlier factor (Breunig et al.) — the density-based AD family of
//! the paper's related work (§2, citation 9): a point is anomalous when its local
//! density is low relative to its neighbours' densities.
//!
//! This is the classic formulation computed against a (sub-sampled)
//! training reference set: k-distance, reachability distance, local
//! reachability density (lrd), and the LOF ratio.

use crate::scorer::AnomalyScorer;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_linalg::kernel::{self, DistanceKernel};
use exathlon_linalg::Matrix;
use exathlon_tsdata::window::{materialized_windows_mode, WindowSet};
use exathlon_tsdata::TimeSeries;

/// Configuration of the LOF detector.
#[derive(Debug, Clone)]
pub struct LofConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Cap on the stored reference set.
    pub max_references: usize,
}

impl Default for LofConfig {
    fn default() -> Self {
        Self { k: 10, max_references: 1000 }
    }
}

/// The LOF anomaly detector, sharing the batched distance kernel (and
/// its single non-finite sanitization rule) with kNN.
#[derive(Debug, Clone)]
pub struct LofDetector {
    config: LofConfig,
    kernel: DistanceKernel,
    /// Per-reference k-distance.
    k_distance: Vec<f64>,
    /// Per-reference local reachability density.
    lrd: Vec<f64>,
    /// Per-reference k nearest reference indices.
    neighbours: Vec<Vec<usize>>,
}

impl LofDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: LofConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        Self {
            config,
            kernel: DistanceKernel::fit::<Vec<f64>>(&[]),
            k_distance: Vec::new(),
            lrd: Vec::new(),
            neighbours: Vec::new(),
        }
    }

    /// k nearest reference indices (ascending by distance) from a
    /// precomputed row of Euclidean distances to every reference,
    /// excluding `exclude` (for self-neighbourhoods during fitting).
    fn knn_from_dists(&self, dists: &[f64], exclude: Option<usize>) -> Vec<(usize, f64)> {
        let mut pairs: Vec<(usize, f64)> = dists
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != exclude)
            .map(|(i, &d)| (i, d))
            .collect();
        // total_cmp: squared distances of finite features can still
        // overflow to ∞; ordering must never panic. The sort is stable,
        // so ties keep ascending reference order, as before.
        pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
        pairs.truncate(self.config.k);
        pairs
    }

    /// Euclidean distances from every reference to every reference, as
    /// one batched self-distance GEMM (or the retained scalar path in
    /// naive mode). Both fit passes read from this single matrix.
    fn self_distances(&self) -> Matrix {
        let mut sq = if kernel::naive_distance_mode() {
            let rows: Vec<Vec<f64>> = (0..self.kernel.len())
                .map(|i| self.kernel.naive_sq_distances_to(self.kernel.reference(i)))
                .collect();
            Matrix::from_rows(&rows)
        } else {
            self.kernel.self_sq_distances()
        };
        for v in sq.as_mut_slice() {
            *v = v.sqrt();
        }
        sq
    }

    /// Local reachability density of a query given its k nearest
    /// reference neighbours.
    fn lrd_of(&self, knn: &[(usize, f64)]) -> f64 {
        if knn.is_empty() {
            return 0.0;
        }
        let sum_reach: f64 = knn.iter().map(|&(j, d)| d.max(self.k_distance[j])).sum();
        if sum_reach <= 0.0 {
            // The query coincides with its neighbours: maximal density.
            f64::INFINITY
        } else {
            knn.len() as f64 / sum_reach
        }
    }

    /// LOF ratio of a query given its k nearest reference neighbours —
    /// the one scoring rule shared by the batch chunks and the streaming
    /// per-record path.
    fn lof_score(&self, knn: &[(usize, f64)]) -> f64 {
        let own_lrd = self.lrd_of(knn);
        if !own_lrd.is_finite() {
            return 1.0; // sits exactly on training data
        }
        if own_lrd <= 0.0 {
            return f64::MAX.sqrt();
        }
        let neighbour_lrd: f64 =
            knn.iter().map(|&(j, _)| self.lrd[j].min(1e12)).sum::<f64>() / knn.len().max(1) as f64;
        (neighbour_lrd / own_lrd).max(0.0)
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
    /// the kernel pins each query row's distances independent of the
    /// query-batch shape, and the LOF arithmetic afterwards is shared.
    ///
    /// # Panics
    /// Panics if the detector is unfitted.
    pub fn score_record(&self, record: &[f64]) -> f64 {
        assert!(!self.kernel.is_empty(), "detector not fitted");
        let mut row = if kernel::naive_distance_mode() {
            self.kernel.naive_sq_distances_to(record)
        } else {
            self.kernel.sq_distances(&[record]).row(0).to_vec()
        };
        for v in &mut row {
            *v = v.sqrt();
        }
        self.lof_score(&self.knn_from_dists(&row, None))
    }

    /// Serialize the fitted detector: config, reference kernel, and the
    /// precomputed per-reference k-distances / lrds / neighbourhoods.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.config.k);
        w.put_usize(self.config.max_references);
        self.kernel.encode(w);
        w.put_f64s(&self.k_distance);
        w.put_f64s(&self.lrd);
        w.put_usize(self.neighbours.len());
        for nb in &self.neighbours {
            w.put_usizes(nb);
        }
    }

    /// Decode a detector written by [`LofDetector::encode`]. All fitted
    /// state is restored bitwise, so scores reproduce exactly.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.get_usize()?;
        if k == 0 {
            return Err(CodecError::Corrupt("LOF k must be positive"));
        }
        let max_references = r.get_usize()?;
        let kernel = DistanceKernel::decode(r)?;
        let k_distance = r.get_f64s()?;
        let lrd = r.get_f64s()?;
        let n = r.get_len(8)?;
        let mut neighbours = Vec::with_capacity(n);
        for _ in 0..n {
            let nb = r.get_usizes()?;
            if nb.iter().any(|&j| j >= kernel.len()) {
                return Err(CodecError::Corrupt("LOF neighbour index out of range"));
            }
            neighbours.push(nb);
        }
        if k_distance.len() != kernel.len() || lrd.len() != kernel.len() || n != kernel.len() {
            return Err(CodecError::Corrupt("LOF state length mismatch"));
        }
        Ok(Self { config: LofConfig { k, max_references }, kernel, k_distance, lrd, neighbours })
    }
}

impl AnomalyScorer for LofDetector {
    fn name(&self) -> &'static str {
        "LOF"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "LOF.fit");
        assert!(!train.is_empty(), "no training traces");
        if materialized_windows_mode() {
            // Pre-dataplane path: clone every record, then clone the
            // subsample survivors.
            let mut refs: Vec<Vec<f64>> = Vec::new();
            for ts in train {
                refs.extend(ts.records().map(|r| r.to_vec()));
            }
            assert!(refs.len() > self.config.k, "need more than k training records");
            let subsampled =
                exathlon_tsdata::sample::stride_subsample(&refs, self.config.max_references);
            let bytes = ((refs.len() + subsampled.len()) * train[0].dims() * 8) as u64;
            exathlon_linalg::obs::counter("dataplane.materialized_bytes", bytes);
            self.kernel = DistanceKernel::fit(&subsampled);
        } else {
            // Size-1 windows are record views: the kernel fits straight
            // from borrowed slices, zero copies before its own sanitize.
            let mut refs = WindowSet::pooled(train, 1);
            assert!(refs.len() > self.config.k, "need more than k training records");
            refs.subsample(self.config.max_references);
            let views: Vec<&[f64]> = (0..refs.len()).map(|i| refs.window(i)).collect();
            self.kernel = DistanceKernel::fit(&views);
        }

        // One batched all-pairs distance matrix feeds both fit passes
        // (the old code recomputed every pass-2 distance from scratch).
        let dists = self.self_distances();

        // Pass 1: k-distances and neighbourhoods.
        let n = self.kernel.len();
        let mut k_distance = Vec::with_capacity(n);
        let mut neighbours = Vec::with_capacity(n);
        for i in 0..n {
            let knn = self.knn_from_dists(dists.row(i), Some(i));
            k_distance.push(knn.last().map(|&(_, d)| d).unwrap_or(0.0));
            neighbours.push(knn.iter().map(|&(j, _)| j).collect());
        }
        self.k_distance = k_distance;
        self.neighbours = neighbours;

        // Pass 2: reference lrds.
        let mut lrd = Vec::with_capacity(n);
        for i in 0..n {
            let knn: Vec<(usize, f64)> =
                self.neighbours[i].iter().map(|&j| (j, dists[(i, j)])).collect();
            lrd.push(self.lrd_of(&knn));
        }
        self.lrd = lrd;
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "LOF.series");
        assert!(!self.kernel.is_empty(), "detector not fitted");
        // Fixed-size query chunks on the shared worker pool (chunk
        // boundaries never depend on the thread count): one Gram-trick
        // GEMM per chunk replaces the per-pair scalar loops.
        let records: Vec<&[f64]> = ts.records().collect();
        let chunks: Vec<&[&[f64]]> = records.chunks(kernel::DIST_CHUNK).collect();
        let scored: Vec<Vec<f64>> = exathlon_linalg::par::par_map(&chunks, |chunk| {
            if kernel::naive_distance_mode() {
                chunk
                    .iter()
                    .map(|r| {
                        let mut row = self.kernel.naive_sq_distances_to(r);
                        for v in &mut row {
                            *v = v.sqrt();
                        }
                        self.lof_score(&self.knn_from_dists(&row, None))
                    })
                    .collect()
            } else {
                let sq = self.kernel.sq_distances(chunk);
                (0..sq.rows())
                    .map(|i| {
                        let row: Vec<f64> = sq.row(i).iter().map(|v| v.sqrt()).collect();
                        self.lof_score(&self.knn_from_dists(&row, None))
                    })
                    .collect()
            }
        });
        scored.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        TimeSeries::from_records(default_names(2), 0, &records)
    }

    #[test]
    fn outlier_has_high_lof() {
        let train = cluster(300, 1);
        let mut det = LofDetector::new(LofConfig::default());
        det.fit(&[&train]);
        let test =
            TimeSeries::from_records(default_names(2), 0, &[vec![0.0, 0.0], vec![15.0, 15.0]]);
        let scores = det.score_series(&test);
        assert!(
            scores[1] > 2.0 * scores[0],
            "outlier LOF {} should dwarf inlier LOF {}",
            scores[1],
            scores[0]
        );
    }

    #[test]
    fn inliers_score_near_one() {
        let train = cluster(300, 2);
        let mut det = LofDetector::new(LofConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&cluster(50, 3));
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((0.5..2.0).contains(&mean), "inlier mean LOF {mean} should be near 1");
    }

    #[test]
    fn reference_cap_respected() {
        let train = cluster(5000, 4);
        let mut det = LofDetector::new(LofConfig { k: 5, max_references: 200 });
        det.fit(&[&train]);
        assert_eq!(det.kernel.len(), 200);
    }

    #[test]
    fn duplicate_of_training_point_is_benign() {
        let train = cluster(100, 5);
        let mut det = LofDetector::new(LofConfig { k: 3, max_references: 1000 });
        det.fit(&[&train]);
        let dup = TimeSeries::from_records(default_names(2), 0, &[train.record(0).to_vec()]);
        let s = det.score_series(&dup)[0];
        assert!(s.is_finite());
        assert!(s < 3.0, "duplicate scored as outlier: {s}");
    }

    /// Regression test: as in kNN, ∞ features used to yield NaN
    /// distances (∞ − ∞) and panic the neighbour sort.
    #[test]
    fn infinite_values_do_not_panic() {
        let mut records: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 0.0]).collect();
        records.push(vec![f64::INFINITY, 0.0]);
        let train = TimeSeries::from_records(default_names(2), 0, &records);
        let mut det = LofDetector::new(LofConfig { k: 3, max_references: 1000 });
        det.fit(&[&train]);
        let scores = det.score_series(&TimeSeries::from_records(
            default_names(2),
            0,
            &[vec![f64::INFINITY, 0.0], vec![f64::NEG_INFINITY, 0.0], vec![f64::NAN, 1.0]],
        ));
        assert!(scores.iter().all(|s| s.is_finite()), "{scores:?}");
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_panics() {
        let det = LofDetector::new(LofConfig::default());
        let _ = det.score_series(&cluster(5, 6));
    }
}
