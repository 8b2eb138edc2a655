//! Autoencoder-based AD (the paper's best-separating method).
//!
//! A dense autoencoder is trained to reconstruct flattened sliding windows
//! of the (transformed) training traces; at test time the MSE of a window
//! is its outlier score and each record's score is the average over the
//! windows enclosing it (§5 step 3.ii) — producing the *smooth* score
//! profile that makes AE strong at range detection (AD2) and
//! exactly-once detection (AD4).

use crate::scorer::{pooled_windows, window_batch, AnomalyScorer};
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_linalg::Matrix;
use exathlon_nn::activation::Activation;
use exathlon_nn::loss::row_squared_errors;
use exathlon_nn::optimizer::Optimizer;
use exathlon_nn::Mlp;
use exathlon_tsdata::window::{record_scores_from_windows, WindowSet};
use exathlon_tsdata::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the autoencoder detector.
#[derive(Debug, Clone)]
pub struct AeConfig {
    /// Sliding-window length in records.
    pub window: usize,
    /// Hidden layer widths of the encoder half.
    pub hidden: Vec<usize>,
    /// Bottleneck (code) size.
    pub code: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Cap on training windows (cardinality reduction).
    pub max_windows: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for AeConfig {
    fn default() -> Self {
        Self {
            window: 8,
            hidden: vec![64],
            code: 8,
            epochs: 30,
            batch_size: 32,
            lr: 1e-3,
            max_windows: 4000,
            seed: 17,
        }
    }
}

/// The autoencoder anomaly detector.
#[derive(Debug, Clone)]
pub struct AutoencoderDetector {
    config: AeConfig,
    model: Option<Mlp>,
}

impl AutoencoderDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: AeConfig) -> Self {
        Self { config, model: None }
    }

    /// Window score (reconstruction MSE) for each flattened window.
    pub(crate) fn window_scores(&self, windows: &Matrix) -> Vec<f64> {
        let model = self.model.as_ref().expect("detector not fitted");
        let recon = model.predict(windows);
        row_squared_errors(&recon, windows)
    }

    /// Reconstruction MSE of a single flattened window (record-major,
    /// `window * dims` values). This is the score function handed to
    /// model-dependent explainers such as LIME.
    ///
    /// Runs the network's one-row inference ([`Mlp::predict_row_with`]),
    /// bitwise equal to the window's row of the batch pass, then the
    /// error expression of [`row_squared_errors`]: a warmed call (the
    /// streaming adapter's tick, each LIME query) allocates nothing.
    ///
    /// # Panics
    /// Panics if the detector is unfitted or the window length mismatches.
    pub fn window_score(&self, flat_window: &[f64]) -> f64 {
        let model = self.model.as_ref().expect("detector not fitted");
        model.predict_row_with(flat_window, |recon| {
            assert_eq!(recon.len(), flat_window.len(), "row error shape mismatch");
            let m = recon.len().max(1) as f64;
            recon.iter().zip(flat_window).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / m
        })
    }

    /// The configured window length.
    pub fn window_len(&self) -> usize {
        self.config.window
    }

    /// The flattened window width the fitted network takes (0 until
    /// fitted).
    pub fn input_width(&self) -> usize {
        self.model.as_ref().map_or(0, |m| m.in_dim())
    }

    /// Serialize the config and (if fitted) the trained network into `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.config.window);
        w.put_usizes(&self.config.hidden);
        w.put_usize(self.config.code);
        w.put_usize(self.config.epochs);
        w.put_usize(self.config.batch_size);
        w.put_f64(self.config.lr);
        w.put_usize(self.config.max_windows);
        w.put_u64(self.config.seed);
        w.put_bool(self.model.is_some());
        if let Some(model) = &self.model {
            model.encode(w);
        }
    }

    /// Decode a detector written by [`AutoencoderDetector::encode`].
    /// Restored weights are bitwise identical, so window scores
    /// reproduce exactly.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let window = r.get_usize()?;
        if window == 0 {
            return Err(CodecError::Corrupt("AE window must be positive"));
        }
        let hidden = r.get_usizes()?;
        let code = r.get_usize()?;
        let epochs = r.get_usize()?;
        let batch_size = r.get_usize()?;
        let lr = r.get_f64()?;
        let max_windows = r.get_usize()?;
        let seed = r.get_u64()?;
        let model = if r.get_bool()? { Some(exathlon_nn::Mlp::decode(r)?) } else { None };
        Ok(Self {
            config: AeConfig { window, hidden, code, epochs, batch_size, lr, max_windows, seed },
            model,
        })
    }
}

impl AnomalyScorer for AutoencoderDetector {
    fn name(&self) -> &'static str {
        "AE"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "AE.fit");
        let windows = pooled_windows(train, self.config.window, self.config.max_windows);
        let x = window_batch(&windows);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut model = Mlp::autoencoder(
            x.cols(),
            &self.config.hidden,
            self.config.code,
            Activation::Tanh,
            &mut rng,
        );
        model.fit(
            &x,
            &x,
            self.config.epochs,
            self.config.batch_size,
            &Optimizer::adam(self.config.lr),
            &mut rng,
        );
        self.model = Some(model);
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "AE.series");
        let w = self.config.window;
        if ts.len() < w {
            return vec![0.0; ts.len()];
        }
        let windows = WindowSet::from_series(ts, w, 1);
        let scores = self.window_scores(&window_batch(&windows));
        record_scores_from_windows(ts.len(), w, &windows.starts(), &scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;
    use rand::Rng;

    /// A periodic 2-feature series with an injected level shift in
    /// `[anomaly_start, anomaly_end)`.
    fn series_with_anomaly(n: usize, anomaly: Option<(usize, usize)>, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.3;
                let shift = match anomaly {
                    Some((s, e)) if i >= s && i < e => 3.0,
                    _ => 0.0,
                };
                vec![
                    t.sin() + rng.gen_range(-0.05..0.05) + shift,
                    t.cos() + rng.gen_range(-0.05..0.05),
                ]
            })
            .collect();
        TimeSeries::from_records(default_names(2), 0, &records)
    }

    fn quick_config() -> AeConfig {
        AeConfig { window: 6, hidden: vec![16], code: 4, epochs: 20, ..AeConfig::default() }
    }

    #[test]
    fn detects_level_shift() {
        let train = series_with_anomaly(400, None, 1);
        let test = series_with_anomaly(200, Some((100, 130)), 2);
        let mut det = AutoencoderDetector::new(quick_config());
        det.fit(&[&train]);
        let scores = det.score_series(&test);
        assert_eq!(scores.len(), 200);
        let normal_mean: f64 = scores[..90].iter().sum::<f64>() / 90.0;
        let anomalous_mean: f64 = scores[100..130].iter().sum::<f64>() / 30.0;
        assert!(
            anomalous_mean > 3.0 * normal_mean,
            "AE failed to separate: normal {normal_mean} vs anomalous {anomalous_mean}"
        );
    }

    #[test]
    fn scores_are_smooth() {
        // Window averaging must bound the tick-to-tick score jumps relative
        // to the score scale.
        let train = series_with_anomaly(400, None, 1);
        let test = series_with_anomaly(200, Some((100, 130)), 2);
        let mut det = AutoencoderDetector::new(quick_config());
        det.fit(&[&train]);
        let scores = det.score_series(&test);
        let max_score = scores.iter().cloned().fold(0.0, f64::max);
        let max_jump = scores.windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0, f64::max);
        assert!(
            max_jump < 0.6 * max_score,
            "scores too spiky for a window-averaged method: jump {max_jump} vs max {max_score}"
        );
    }

    #[test]
    fn short_series_scores_zero() {
        let train = series_with_anomaly(100, None, 1);
        let mut det = AutoencoderDetector::new(quick_config());
        det.fit(&[&train]);
        let tiny = series_with_anomaly(3, None, 3);
        assert_eq!(det.score_series(&tiny), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn scoring_before_fit_panics() {
        let det = AutoencoderDetector::new(quick_config());
        let ts = series_with_anomaly(50, None, 1);
        let _ = det.score_series(&ts);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = series_with_anomaly(200, None, 1);
        let test = series_with_anomaly(50, None, 2);
        let run = || {
            let mut det = AutoencoderDetector::new(quick_config());
            det.fit(&[&train]);
            det.score_series(&test)
        };
        assert_eq!(run(), run());
    }
}
