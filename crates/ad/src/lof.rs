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
use exathlon_tsdata::window::WindowSet;
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

    /// The `k` nearest references of one query, ascending, into `knn`:
    /// `dists` holds the query's Euclidean distance to every reference,
    /// and `exclude` drops one index (the self-neighbourhoods of fitting).
    ///
    /// Neighbours are the `k` smallest keys (distance, index) — exactly
    /// what a stable sort by distance truncated to `k` keeps, since the
    /// stable sort breaks ties by ascending index — found by a selection
    /// over all candidates and a sort of the `k` winners only. The key
    /// must be the √ distance, not the squared one: distinct squared
    /// distances can round to the same √, and the tie then falls to the
    /// index.
    fn knn_from_dists(&self, dists: &[f64], exclude: Option<usize>, knn: &mut Vec<(usize, f64)>) {
        // total_cmp: squared distances of finite features can still
        // overflow to ∞; ordering must never panic.
        let key = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        knn.clear();
        knn.extend(
            dists.iter().enumerate().filter(|(i, _)| Some(*i) != exclude).map(|(i, &d)| (i, d)),
        );
        let k = self.config.k.min(knn.len());
        if k == 0 {
            return;
        }
        if k < knn.len() {
            knn.select_nth_unstable_by(k - 1, key);
            knn.truncate(k);
        }
        knn.sort_unstable_by(key);
    }

    /// Euclidean distances from every reference to every reference, as
    /// one batched self-distance GEMM. Both fit passes read from this
    /// single matrix.
    fn self_distances(&self) -> Matrix {
        let mut sq = self.kernel.self_sq_distances();
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

    /// LOF score of one query from its row of squared distances — the
    /// one rule the batch chunks and the per-record path share. The √ is
    /// taken in place before the neighbour selection.
    fn score_row(&self, row: &mut [f64], knn: &mut Vec<(usize, f64)>) -> f64 {
        for v in row.iter_mut() {
            *v = v.sqrt();
        }
        self.knn_from_dists(row, None, knn);
        self.lof_score(knn)
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
        // Per-thread neighbour scratch, beside the kernel's own query
        // scratch: a warmed call allocates nothing.
        thread_local! {
            static KNN: std::cell::RefCell<Vec<(usize, f64)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let score = |row: &mut [f64]| {
            let mut knn = KNN.take();
            let score = self.score_row(row, &mut knn);
            KNN.set(knn);
            score
        };
        self.kernel.with_sq_distances_to(record, score)
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
        // Size-1 windows are record views: the kernel fits straight from
        // borrowed slices, zero copies before its own sanitize.
        let mut refs = WindowSet::pooled(train, 1);
        assert!(refs.len() > self.config.k, "need more than k training records");
        refs.subsample(self.config.max_references);
        let views: Vec<&[f64]> = (0..refs.len()).map(|i| refs.window(i)).collect();
        self.kernel = DistanceKernel::fit(&views);

        // One batched all-pairs distance matrix feeds both fit passes
        // (the old code recomputed every pass-2 distance from scratch).
        let dists = self.self_distances();

        // Pass 1: k-distances and neighbourhoods.
        let n = self.kernel.len();
        let mut k_distance = Vec::with_capacity(n);
        let mut neighbours = Vec::with_capacity(n);
        let mut knn = Vec::with_capacity(n);
        for i in 0..n {
            self.knn_from_dists(dists.row(i), Some(i), &mut knn);
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
            let mut knn = Vec::new();
            let mut sq = self.kernel.sq_distances(chunk);
            (0..sq.rows()).map(|i| self.score_row(sq.row_mut(i), &mut knn)).collect()
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

    /// The neighbour rule before the selection: collect every candidate,
    /// stable-sort by distance, keep `k`.
    fn stable_sort_oracle(dists: &[f64], exclude: Option<usize>, k: usize) -> Vec<(usize, f64)> {
        let mut pairs: Vec<(usize, f64)> = dists
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != exclude)
            .map(|(i, &d)| (i, d))
            .collect();
        pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
        pairs.truncate(k);
        pairs
    }

    /// Selection by (distance, index) keeps exactly the stable sort's
    /// neighbours, in its order: on rows dense with ties (few distinct
    /// values, so every `k` boundary cuts through a run of equals), with
    /// signed zeros and ∞, for every `k` up to past the row length.
    #[test]
    fn selection_matches_stable_sort_on_tied_rows() {
        let mut rng = StdRng::seed_from_u64(9);
        let palette = [0.0, -0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.0, f64::INFINITY];
        let mut knn = Vec::new();
        for case in 0..300 {
            let n = 1 + case % 40;
            let dists: Vec<f64> =
                (0..n).map(|_| palette[rng.gen_range(0..palette.len())]).collect();
            let exclude = (case % 3 == 0).then(|| case % n);
            for k in 1..=n + 2 {
                let det = LofDetector::new(LofConfig { k, max_references: 1000 });
                det.knn_from_dists(&dists, exclude, &mut knn);
                let want = stable_sort_oracle(&dists, exclude, k);
                assert_eq!(knn.len(), want.len(), "case {case} k {k}");
                for (got, want) in knn.iter().zip(&want) {
                    assert_eq!(got.0, want.0, "case {case} k {k}: {dists:?}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_panics() {
        let det = LofDetector::new(LofConfig::default());
        let _ = det.score_series(&cluster(5, 6));
    }
}
