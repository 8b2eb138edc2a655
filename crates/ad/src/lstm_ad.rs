//! LSTM forecaster-based AD.
//!
//! Following Appendix D.2 (after Bontemps et al.): the model forecasts the
//! next record from a window of past records; a record's outlier score is
//! its *relative forecast error*, kept per-record without window averaging
//! ("the scores produced here were however not further averaged but kept
//! as is") — which is exactly why the paper observes spiky LSTM scores
//! that win at AD1 but collapse at AD4.

use crate::scorer::AnomalyScorer;
use exathlon_nn::lstm::Lstm;
use exathlon_nn::optimizer::Optimizer;
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of the LSTM forecaster detector.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Input window length (records fed to the LSTM before forecasting).
    pub window: usize,
    /// Hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Cap on training pairs (cardinality reduction).
    pub max_pairs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            window: 8,
            hidden: 24,
            epochs: 15,
            batch_size: 16,
            lr: 5e-3,
            max_pairs: 2500,
            seed: 23,
        }
    }
}

/// The LSTM forecaster anomaly detector.
#[derive(Debug, Clone)]
pub struct LstmDetector {
    config: LstmConfig,
    model: Option<Lstm>,
}

impl LstmDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: LstmConfig) -> Self {
        Self { config, model: None }
    }
}

impl AnomalyScorer for LstmDetector {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "LSTM.fit");
        assert!(!train.is_empty(), "no training traces");
        let mut pairs = WindowSet::forecast_pooled(train, self.config.window);
        assert!(!pairs.is_empty(), "training traces shorter than the window size");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let total = pairs.len();
        if total > self.config.max_pairs {
            // Shuffling an index vector draws the same Fisher-Yates RNG
            // values as shuffling the owned pairs did (the swap sequence
            // depends only on length), so the cap keeps the same pairs and
            // the downstream RNG stream is unchanged.
            let mut order: Vec<usize> = (0..total).collect();
            order.shuffle(&mut rng);
            order.truncate(self.config.max_pairs);
            pairs.select(&order);
        }
        let dims = pairs.dims();
        let mut model = Lstm::new(dims, self.config.hidden, dims, &mut rng);
        let opt = Optimizer::adam(self.config.lr);
        // Windows and targets are contiguous views over the traces: the
        // trainer reads them with zero staging copies.
        let views: Vec<(&[f64], &[f64])> =
            (0..pairs.len()).map(|i| (pairs.window(i), pairs.target(i))).collect();
        model.fit_flat(&views, self.config.epochs, self.config.batch_size, &opt, &mut rng);
        self.model = Some(model);
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "LSTM.series");
        let model = self.model.as_ref().expect("detector not fitted");
        let w = self.config.window;
        let n = ts.len();
        let mut scores = vec![0.0; n];
        if n <= w {
            return scores;
        }
        // One input projection for the whole series, one recurrence per
        // window: the same bits as forecasting each window on its own.
        let forecasts = model.forecast_series(ts.records_slice(0, n), w);
        for (t, forecast) in (w..n).zip(forecasts.chunks_exact(model.out_dim())) {
            let actual = ts.record(t);
            // Relative forecast error: squared error normalized by the
            // magnitude of the actual record (plus 1 to stabilize the
            // near-zero records of scaled data).
            let err: f64 = forecast.iter().zip(actual).map(|(f, a)| (f - a) * (f - a)).sum::<f64>()
                / actual.len() as f64;
            let mag: f64 = actual.iter().map(|a| a * a).sum::<f64>() / actual.len() as f64;
            scores[t] = err / (1.0 + mag);
        }
        // Warm-up records inherit the first computed score so every record
        // has a defined value.
        let first = scores[w];
        for s in scores.iter_mut().take(w) {
            *s = first;
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;
    use rand::Rng;

    fn series_with_anomaly(n: usize, anomaly: Option<(usize, usize)>, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.25;
                let shift = match anomaly {
                    Some((s, e)) if i >= s && i < e => 2.5,
                    _ => 0.0,
                };
                vec![t.sin() + rng.gen_range(-0.05..0.05) + shift]
            })
            .collect();
        TimeSeries::from_records(default_names(1), 0, &records)
    }

    fn quick_config() -> LstmConfig {
        LstmConfig { window: 6, hidden: 12, epochs: 10, max_pairs: 600, ..LstmConfig::default() }
    }

    #[test]
    fn detects_level_shift() {
        let train = series_with_anomaly(300, None, 1);
        let test = series_with_anomaly(150, Some((80, 110)), 2);
        let mut det = LstmDetector::new(quick_config());
        det.fit(&[&train]);
        let scores = det.score_series(&test);
        assert_eq!(scores.len(), 150);
        let normal_mean: f64 = scores[10..70].iter().sum::<f64>() / 60.0;
        let anomalous_max = scores[80..110].iter().cloned().fold(0.0, f64::max);
        assert!(
            anomalous_max > 5.0 * normal_mean.max(1e-6),
            "LSTM failed to react: normal {normal_mean} vs peak {anomalous_max}"
        );
    }

    #[test]
    fn onset_spike_dominates() {
        // The forecaster is most surprised at the anomaly onset — the spiky
        // profile the paper reports.
        let train = series_with_anomaly(300, None, 1);
        let test = series_with_anomaly(150, Some((80, 110)), 2);
        let mut det = LstmDetector::new(quick_config());
        det.fit(&[&train]);
        let scores = det.score_series(&test);
        let onset_max = scores[80..86].iter().cloned().fold(0.0, f64::max);
        let mid_mean: f64 = scores[95..105].iter().sum::<f64>() / 10.0;
        assert!(
            onset_max > mid_mean,
            "onset {onset_max} should exceed mid-anomaly mean {mid_mean}"
        );
    }

    #[test]
    fn short_series_zero_scores() {
        let train = series_with_anomaly(100, None, 1);
        let mut det = LstmDetector::new(quick_config());
        det.fit(&[&train]);
        let scores = det.score_series(&series_with_anomaly(4, None, 3));
        assert_eq!(scores, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn scoring_before_fit_panics() {
        let det = LstmDetector::new(quick_config());
        let _ = det.score_series(&series_with_anomaly(50, None, 1));
    }
}
