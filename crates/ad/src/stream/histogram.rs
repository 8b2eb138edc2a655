//! Streaming histogram threshold: per-feature rarity against training
//! histograms.
//!
//! Fit builds one equal-width histogram per feature over the pooled
//! training values ([`exathlon_linalg::stats::Histogram`] — the same
//! structure MacroBase's discretization uses). Scoring a record is O(dims):
//! each finite feature contributes the negative log2 relative frequency of
//! its bin (Laplace-smoothed so empty bins score high but finite), values
//! outside the training range count as an empty bin, and the record score
//! is the maximum across features. Stateless per record, so the batch and
//! streaming paths are the same function called through two traits.

use super::StreamingDetector;
use crate::scorer::AnomalyScorer;
use exathlon_linalg::stats::Histogram;
use exathlon_tsdata::TimeSeries;

/// Configuration of the histogram detector.
#[derive(Debug, Clone)]
pub struct HistogramConfig {
    /// Equal-width bins per feature.
    pub bins: usize,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        Self { bins: 64 }
    }
}

/// The per-feature histogram rarity detector.
#[derive(Debug, Clone)]
pub struct HistogramDetector {
    config: HistogramConfig,
    /// One histogram per feature, with its training value range.
    hists: Vec<(Histogram, f64, f64)>,
}

impl HistogramDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: HistogramConfig) -> Self {
        assert!(config.bins > 0, "need at least one bin");
        Self { config, hists: Vec::new() }
    }

    /// The record width the fitted detector scores (0 until fitted).
    pub fn dims(&self) -> usize {
        self.hists.len()
    }

    /// Rarity of one record: max over finite features of the smoothed
    /// negative log2 bin frequency.
    fn score_record(&self, record: &[f64]) -> f64 {
        assert_eq!(record.len(), self.hists.len(), "dimension mismatch");
        let bins = self.config.bins;
        let mut score = 0.0f64;
        for (&x, (h, lo, hi)) in record.iter().zip(&self.hists) {
            if x.is_nan() {
                continue;
            }
            // Out-of-range values saw zero training mass; in-range values
            // read their bin count.
            let count = if x < *lo || x > *hi { 0 } else { h.counts()[h.bin_of(x)] };
            let p = (count as f64 + 1.0) / (h.total() as f64 + bins as f64);
            score = score.max(-p.log2());
        }
        score
    }

    /// Serialize the fitted detector (config + per-feature histograms
    /// with their stored range bounds) into `w`.
    pub fn encode(&self, w: &mut exathlon_linalg::codec::ByteWriter) {
        w.put_usize(self.config.bins);
        w.put_usize(self.hists.len());
        for (h, lo, hi) in &self.hists {
            h.encode(w);
            w.put_f64(*lo);
            w.put_f64(*hi);
        }
    }

    /// Decode a detector written by [`HistogramDetector::encode`].
    pub fn decode(
        r: &mut exathlon_linalg::codec::ByteReader<'_>,
    ) -> Result<Self, exathlon_linalg::codec::CodecError> {
        let bins = r.get_usize()?;
        if bins == 0 {
            return Err(exathlon_linalg::codec::CodecError::Corrupt("zero histogram bins"));
        }
        let n = r.get_usize()?;
        let mut hists = Vec::new();
        for _ in 0..n {
            let h = Histogram::decode(r)?;
            if h.counts().len() != bins {
                return Err(exathlon_linalg::codec::CodecError::Corrupt(
                    "histogram bin count mismatch",
                ));
            }
            let lo = r.get_f64()?;
            let hi = r.get_f64()?;
            hists.push((h, lo, hi));
        }
        Ok(Self { config: HistogramConfig { bins }, hists })
    }
}

impl AnomalyScorer for HistogramDetector {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "Histogram.fit");
        assert!(!train.is_empty(), "no training traces");
        let dims = train[0].dims();
        let mut hists = Vec::with_capacity(dims);
        for j in 0..dims {
            let mut col = Vec::new();
            for ts in train {
                col.extend(ts.feature_column(j));
            }
            let h = Histogram::from_data(&col, self.config.bins);
            // The histogram's own exact range, NOT rederived through
            // `bin_bounds` float arithmetic: `lo + bins * width` can
            // round below the true maximum, which made the training max
            // itself score as out-of-range (count 0, max rarity).
            let (lo, hi) = h.range();
            hists.push((h, lo, hi));
        }
        self.hists = hists;
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "Histogram.series");
        assert!(!self.hists.is_empty(), "detector not fitted");
        ts.records().map(|r| self.score_record(r)).collect()
    }
}

impl StreamingDetector for HistogramDetector {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        assert!(!self.hists.is_empty(), "detector not fitted");
        self.score_record(record)
    }

    fn reset(&mut self) {
        // Stateless per record: nothing to forget.
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
    fn rare_values_score_higher_than_common() {
        // 90% of mass near 0, a little near 5.
        let mut records: Vec<Vec<f64>> = (0..180).map(|i| vec![(i % 10) as f64 * 0.05]).collect();
        records.extend((0..20).map(|i| vec![5.0 + (i % 3) as f64 * 0.05]));
        let train = ts(&records);
        let mut det = HistogramDetector::new(HistogramConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&ts(&[vec![0.2], vec![5.0], vec![2.5]]));
        assert!(scores[1] > scores[0], "rare region must outscore common: {scores:?}");
        assert!(scores[2] > scores[1], "empty bin must outscore rare: {scores:?}");
    }

    #[test]
    fn out_of_range_scores_like_empty_bin() {
        let train = ts(&(0..100).map(|i| vec![(i % 10) as f64]).collect::<Vec<_>>());
        let mut det = HistogramDetector::new(HistogramConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&ts(&[vec![1e6], vec![4.5]]));
        assert!(scores[0] >= scores[1], "out-of-range must score at least in-range: {scores:?}");
        assert!(scores[0].is_finite(), "smoothing must keep unseen bins finite");
    }

    #[test]
    fn nan_features_skipped() {
        let train = ts(&(0..50).map(|i| vec![i as f64 % 5.0]).collect::<Vec<_>>());
        let mut det = HistogramDetector::new(HistogramConfig::default());
        det.fit(&[&train]);
        assert_eq!(det.score_series(&ts(&[vec![f64::NAN]]))[0], 0.0);
    }

    /// Regression test: with the out-of-range bounds rederived through
    /// `bin_bounds(bins - 1)` float arithmetic, `lo + bins * width` can
    /// round below the true training maximum (e.g. range `0.1..100.3`
    /// with 3 bins rederives `hi = 100.29999999999998`), so the maximum
    /// itself was classified out-of-range and scored maximal rarity. The
    /// fit must use the histogram's exact `range()` instead.
    #[test]
    fn training_max_scores_in_range() {
        // Ranges picked so the rederived upper bound rounds strictly
        // below the true maximum for at least one bin count.
        for (lo, hi, bins) in
            [(0.1, 100.3, 3), (0.1, 0.313, 13), (0.3, 3.1, 9), (-0.3, 0.9, 5), (1.1, 100.3, 11)]
        {
            let n = 60;
            let mut records: Vec<Vec<f64>> =
                (0..n).map(|i| vec![lo + (hi - lo) * i as f64 / (n - 1) as f64]).collect();
            // Pin the endpoint exactly: `lo + (hi - lo)` itself rounds.
            records[n - 1][0] = hi;
            let train = ts(&records);
            let mut det = HistogramDetector::new(HistogramConfig { bins });
            det.fit(&[&train]);
            let total = n as f64;
            // The empty-bin (out-of-range) score under Laplace smoothing.
            let oor_score = -((1.0f64) / (total + bins as f64)).log2();
            let max_score = det.score_series(&ts(&[vec![hi]]))[0];
            assert!(
                max_score < oor_score,
                "training max {hi} scored as out-of-range for bins={bins}: \
                 {max_score} vs empty-bin {oor_score}"
            );
        }
    }

    #[test]
    fn codec_round_trip_scores_bitwise() {
        let records: Vec<Vec<f64>> =
            (0..150).map(|i| vec![(i as f64 * 0.31).sin() * 2.0, (i % 7) as f64]).collect();
        let train = ts(&records);
        let mut det = HistogramDetector::new(HistogramConfig { bins: 16 });
        det.fit(&[&train]);
        let mut w = exathlon_linalg::codec::ByteWriter::new();
        det.encode(&mut w);
        let bytes = w.into_bytes();
        let restored =
            HistogramDetector::decode(&mut exathlon_linalg::codec::ByteReader::new(&bytes))
                .unwrap();
        let probe = ts(&[vec![0.5, 3.0], vec![-5.0, 100.0], vec![f64::NAN, 2.0]]);
        let a = det.score_series(&probe);
        let b = restored.score_series(&probe);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for cut in 0..bytes.len() {
            let mut r = exathlon_linalg::codec::ByteReader::new(&bytes[..cut]);
            assert!(HistogramDetector::decode(&mut r).is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_panics() {
        let det = HistogramDetector::new(HistogramConfig::default());
        let _ = det.score_series(&ts(&[vec![1.0]]));
    }
}
