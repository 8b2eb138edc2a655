//! EWMA forecaster — the simple statistical baseline family the paper's
//! related work opens with (§2, citation 7): forecast each feature as an
//! exponentially-weighted moving average of its past, score by the
//! z-normalized forecast error.
//!
//! Useful as a sanity floor for the DL methods and as a cheap detector in
//! the ablation benches.

use crate::scorer::AnomalyScorer;
use crate::stream::ewma::EwmaLevels;
use exathlon_tsdata::TimeSeries;

/// Configuration of the EWMA detector.
#[derive(Debug, Clone)]
pub struct EwmaConfig {
    /// Smoothing factor in `(0, 1)`: weight of the newest observation.
    pub alpha: f64,
}

impl Default for EwmaConfig {
    fn default() -> Self {
        Self { alpha: 0.15 }
    }
}

/// The EWMA forecaster detector.
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    config: EwmaConfig,
    /// Per-feature standard deviation of the one-step EWMA forecast error
    /// on training data (the score normalizer).
    error_scale: Vec<f64>,
}

impl EwmaDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: EwmaConfig) -> Self {
        assert!(config.alpha > 0.0 && config.alpha < 1.0, "alpha must be in (0, 1)");
        Self { config, error_scale: Vec::new() }
    }

    /// Per-record streaming state of this fitted detector, which
    /// [`AnomalyScorer::score_series`] replays over a whole trace.
    ///
    /// # Panics
    /// Panics if the detector is unfitted.
    pub fn streaming(&self) -> crate::stream::StreamingEwma {
        assert!(!self.error_scale.is_empty(), "detector not fitted");
        crate::stream::StreamingEwma::new(self.config.alpha, self.error_scale.clone())
    }
}

impl AnomalyScorer for EwmaDetector {
    fn name(&self) -> &'static str {
        "EWMA"
    }

    /// Each feature's error scale is the standard deviation of its raw
    /// one-step errors over every training record, read from the same
    /// per-record step the streaming state scores with.
    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "EWMA.fit");
        assert!(!train.is_empty(), "no training traces");
        let m = train[0].dims();
        let mut per_feature: Vec<Vec<f64>> = vec![Vec::new(); m];
        let mut levels = EwmaLevels::new(self.config.alpha, m);
        for ts in train {
            levels.reset();
            for record in ts.records() {
                levels.step(record, |j, e| per_feature[j].push(e));
            }
        }
        self.error_scale =
            per_feature.iter().map(|es| exathlon_linalg::stats::std_dev(es).max(1e-6)).collect();
    }

    /// A replay of [`EwmaDetector::streaming`]: one recurrence, two drivers.
    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "EWMA.series");
        crate::stream::replay(&mut self.streaming(), ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    fn smooth(n: usize) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64 * 0.1).sin()]).collect();
        TimeSeries::from_records(default_names(1), 0, &records)
    }

    #[test]
    fn level_shift_scores_high_at_onset() {
        let train = smooth(300);
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&train]);
        let mut records: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64 * 0.1).sin()]).collect();
        for r in records.iter_mut().skip(50) {
            r[0] += 5.0;
        }
        let test = TimeSeries::from_records(default_names(1), 0, &records);
        let scores = det.score_series(&test);
        let normal_max = scores[5..45].iter().cloned().fold(0.0, f64::max);
        assert!(scores[50] > 5.0 * normal_max, "onset {} vs normal {normal_max}", scores[50]);
    }

    #[test]
    fn adapts_after_shift() {
        // EWMA tracks the new level: errors fall after the onset (the
        // classic statistical-baseline failure mode for range anomalies).
        let train = smooth(300);
        let mut det = EwmaDetector::new(EwmaConfig { alpha: 0.3 });
        det.fit(&[&train]);
        let mut records: Vec<Vec<f64>> = (0..120).map(|_| vec![0.0]).collect();
        for r in records.iter_mut().skip(40) {
            r[0] = 5.0;
        }
        let test = TimeSeries::from_records(default_names(1), 0, &records);
        let scores = det.score_series(&test);
        assert!(scores[40] > 10.0 * scores[100].max(1e-9), "no adaptation");
    }

    #[test]
    fn smooth_data_scores_low() {
        let train = smooth(300);
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&smooth(100));
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(mean < 2.0, "smooth data should score near its training scale: {mean}");
    }

    /// Regression test: a NaN gap used to zero-fill the level (`nan0`), so
    /// a trace hovering around 5.0 with one missing record produced a
    /// spurious |5.0|-sized error spike at the gap *and* at the next
    /// record (forecast from the crashed level).
    fn gapped(n: usize, gap: usize) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![if i == gap { f64::NAN } else { 5.0 + (i as f64 * 0.1).sin() * 0.01 }])
            .collect();
        TimeSeries::from_records(default_names(1), 0, &records)
    }

    #[test]
    fn nan_gap_is_not_an_anomaly() {
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&gapped(300, 150)]);
        let scores = det.score_series(&gapped(100, 50));
        // The gap contributes a 0 error; the neighbourhood stays at the
        // smooth-data scale instead of spiking by the level magnitude.
        assert_eq!(scores[50], 0.0, "gap record must score 0");
        let around_gap = scores[48..53].iter().cloned().fold(0.0, f64::max);
        let elsewhere = scores[5..45].iter().cloned().fold(0.0, f64::max);
        assert!(
            around_gap <= 3.0 * elsewhere.max(1e-9),
            "gap neighbourhood spiked: {around_gap} vs smooth max {elsewhere}"
        );
    }

    #[test]
    fn nan_gap_does_not_pollute_error_scale() {
        // Fitting on a gapped trace must give (essentially) the same
        // error scale as fitting on the same trace without the gap: the
        // old zero-fill inflated `error_scale` by the level magnitude.
        let mut clean = EwmaDetector::new(EwmaConfig::default());
        clean.fit(&[&gapped(300, usize::MAX)]);
        let mut with_gap = EwmaDetector::new(EwmaConfig::default());
        with_gap.fit(&[&gapped(300, 150)]);
        let (c, g) = (clean.error_scale[0], with_gap.error_scale[0]);
        assert!(g < 2.0 * c, "gap inflated error scale: {g} vs clean {c}");
    }

    #[test]
    fn all_nan_prefix_initializes_on_first_value() {
        // A feature whose first records are all NaN starts its level at
        // the first finite value instead of forecasting from 0.0.
        let records =
            vec![vec![f64::NAN], vec![f64::NAN], vec![7.0], vec![7.0], vec![7.0], vec![7.0]];
        let ts = TimeSeries::from_records(default_names(1), 0, &records);
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&smooth(300)]);
        let scores = det.score_series(&ts);
        assert!(scores.iter().all(|&s| s == 0.0), "constant-after-gap trace spiked: {scores:?}");
    }

    /// Regression test: an empty trace used to panic in `errors` via
    /// `ts.record(0)`; it now returns an empty score vector, matching
    /// `difference_features`' empty-series contract.
    #[test]
    fn empty_series_scores_empty() {
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&smooth(300)]);
        let empty = TimeSeries::empty(default_names(1));
        assert!(det.score_series(&empty).is_empty());
    }

    #[test]
    fn single_record_scores_zero() {
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&smooth(300)]);
        let one = TimeSeries::from_records(default_names(1), 0, &[vec![3.0]]);
        assert_eq!(det.score_series(&one), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = EwmaDetector::new(EwmaConfig { alpha: 1.5 });
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_panics() {
        let det = EwmaDetector::new(EwmaConfig::default());
        let _ = det.score_series(&smooth(5));
    }
}
