//! O(1) drift detectors: two-sided CUSUM and Page-Hinkley.
//!
//! Both monitor per-feature robust deviations from a training profile
//! (mean/std fitted per feature, scale floored like the other statistical
//! baselines) and aggregate by the maximum across features — the same
//! commensurable-z-score discipline as the fixed MAD baseline. Both
//! implement [`crate::AnomalyScorer`] *and*
//! [`super::StreamingDetector`]: `score_series` replays a fresh copy of
//! the streaming recurrence, so batch and stream are one implementation
//! with two drivers (pinned by `tests/stream_equivalence.rs`).

use super::StreamingDetector;
use crate::scorer::AnomalyScorer;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_tsdata::TimeSeries;

/// Per-feature training profile: mean and floored standard deviation of
/// the finite values, shared by both drift detectors.
#[derive(Debug, Clone, Default)]
struct ZProfile {
    mean: Vec<f64>,
    scale: Vec<f64>,
}

impl ZProfile {
    fn fit(train: &[&TimeSeries]) -> Self {
        assert!(!train.is_empty(), "no training traces");
        let dims = train[0].dims();
        let mut mean = Vec::with_capacity(dims);
        let mut scale = Vec::with_capacity(dims);
        for j in 0..dims {
            let mut col = Vec::new();
            for ts in train {
                col.extend(ts.feature_column(j).into_iter().filter(|x| !x.is_nan()));
            }
            mean.push(exathlon_linalg::stats::mean(&col));
            scale.push(exathlon_linalg::stats::std_dev(&col).max(1e-6));
        }
        Self { mean, scale }
    }

    fn dims(&self) -> usize {
        self.mean.len()
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.mean);
        w.put_f64s(&self.scale);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mean = r.get_f64s()?;
        let scale = r.get_f64s()?;
        if scale.len() != mean.len() {
            return Err(CodecError::Corrupt("z-profile length mismatch"));
        }
        Ok(Self { mean, scale })
    }

    fn z(&self, j: usize, x: f64) -> f64 {
        (x - self.mean[j]) / self.scale[j]
    }
}

/// Configuration of the CUSUM drift detector.
#[derive(Debug, Clone)]
pub struct CusumConfig {
    /// Allowed drift `k` in z-score units: deviations below `k` decay the
    /// sums toward zero instead of accumulating.
    pub drift: f64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        Self { drift: 0.5 }
    }
}

/// Two-sided CUSUM over per-feature z-scores: classic Page cumulative
/// sums `S⁺ = max(0, S⁺ + z - k)` and `S⁻ = max(0, S⁻ - z - k)`, scored
/// as the maximum sum across sides and features. Catches small sustained
/// mean shifts that the point detectors miss.
#[derive(Debug, Clone)]
pub struct CusumDetector {
    config: CusumConfig,
    profile: ZProfile,
    /// Per-feature upper cumulative sums.
    pos: Vec<f64>,
    /// Per-feature lower cumulative sums.
    neg: Vec<f64>,
}

impl CusumDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: CusumConfig) -> Self {
        assert!(config.drift >= 0.0, "drift must be non-negative");
        Self { config, profile: ZProfile::default(), pos: Vec::new(), neg: Vec::new() }
    }

    /// The record width the fitted detector scores (0 until fitted).
    pub fn dims(&self) -> usize {
        self.profile.dims()
    }

    /// The shared per-record recurrence of the batch and streaming paths.
    fn step(&mut self, record: &[f64]) -> f64 {
        assert_eq!(record.len(), self.profile.dims(), "dimension mismatch");
        let k = self.config.drift;
        let mut score = 0.0f64;
        for (j, &x) in record.iter().enumerate() {
            if !x.is_nan() {
                let z = self.profile.z(j, x);
                self.pos[j] = (self.pos[j] + z - k).max(0.0);
                self.neg[j] = (self.neg[j] - z - k).max(0.0);
            }
            // A gap leaves the sums as they were; they still count.
            score = score.max(self.pos[j]).max(self.neg[j]);
        }
        score
    }

    /// Serialize the fitted profile *and* the in-flight cumulative sums,
    /// so a restored detector continues the trace mid-stream.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.config.drift);
        self.profile.encode(w);
        w.put_f64s(&self.pos);
        w.put_f64s(&self.neg);
    }

    /// Decode a detector written by [`CusumDetector::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let drift = r.get_f64()?;
        if drift.is_nan() || drift < 0.0 {
            return Err(CodecError::Corrupt("CUSUM drift must be non-negative"));
        }
        let profile = ZProfile::decode(r)?;
        let pos = r.get_f64s()?;
        let neg = r.get_f64s()?;
        if pos.len() != profile.dims() || neg.len() != profile.dims() || profile.dims() == 0 {
            return Err(CodecError::Corrupt("CUSUM state length mismatch"));
        }
        Ok(Self { config: CusumConfig { drift }, profile, pos, neg })
    }
}

impl AnomalyScorer for CusumDetector {
    fn name(&self) -> &'static str {
        "CUSUM"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "CUSUM.fit");
        self.profile = ZProfile::fit(train);
        self.pos = vec![0.0; self.profile.dims()];
        self.neg = vec![0.0; self.profile.dims()];
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "CUSUM.series");
        assert!(!self.pos.is_empty(), "detector not fitted");
        let mut fresh = self.clone();
        fresh.reset();
        ts.records().map(|r| fresh.step(r)).collect()
    }
}

impl StreamingDetector for CusumDetector {
    fn name(&self) -> &'static str {
        "CUSUM"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        assert!(!self.pos.is_empty(), "detector not fitted");
        self.step(record)
    }

    fn reset(&mut self) {
        self.pos.iter_mut().for_each(|v| *v = 0.0);
        self.neg.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Configuration of the Page-Hinkley drift detector.
#[derive(Debug, Clone)]
pub struct PageHinkleyConfig {
    /// Magnitude tolerance `δ` in z-score units: the running deviation
    /// only accumulates beyond this slack.
    pub delta: f64,
}

impl Default for PageHinkleyConfig {
    fn default() -> Self {
        Self { delta: 0.05 }
    }
}

/// Page-Hinkley test over per-feature z-scores, two-sided: cumulative
/// deviation from the *running* mean minus its historical minimum. Unlike
/// CUSUM (which drifts against the frozen training mean), PH adapts its
/// reference online, so it flags distribution *changes* rather than
/// distance from training.
#[derive(Debug, Clone)]
pub struct PageHinkleyDetector {
    config: PageHinkleyConfig,
    profile: ZProfile,
    /// Per-feature count of finite observations this trace.
    count: Vec<u64>,
    /// Per-feature running mean of the z-scores this trace.
    run_mean: Vec<f64>,
    /// Per-feature upward cumulative deviation and its minimum.
    up: Vec<f64>,
    min_up: Vec<f64>,
    /// Per-feature downward cumulative deviation and its minimum.
    down: Vec<f64>,
    min_down: Vec<f64>,
}

impl PageHinkleyDetector {
    /// Create an (unfitted) detector.
    pub fn new(config: PageHinkleyConfig) -> Self {
        assert!(config.delta >= 0.0, "delta must be non-negative");
        Self {
            config,
            profile: ZProfile::default(),
            count: Vec::new(),
            run_mean: Vec::new(),
            up: Vec::new(),
            min_up: Vec::new(),
            down: Vec::new(),
            min_down: Vec::new(),
        }
    }

    /// The record width the fitted detector scores (0 until fitted).
    pub fn dims(&self) -> usize {
        self.profile.dims()
    }

    /// The shared per-record recurrence of the batch and streaming paths.
    fn step(&mut self, record: &[f64]) -> f64 {
        assert_eq!(record.len(), self.profile.dims(), "dimension mismatch");
        let d = self.config.delta;
        let mut score = 0.0f64;
        for (j, &x) in record.iter().enumerate() {
            if !x.is_nan() {
                let z = self.profile.z(j, x);
                self.count[j] += 1;
                self.run_mean[j] += (z - self.run_mean[j]) / self.count[j] as f64;
                self.up[j] += z - self.run_mean[j] - d;
                self.min_up[j] = self.min_up[j].min(self.up[j]);
                self.down[j] += self.run_mean[j] - z - d;
                self.min_down[j] = self.min_down[j].min(self.down[j]);
            }
            score = score.max(self.up[j] - self.min_up[j]).max(self.down[j] - self.min_down[j]);
        }
        score
    }

    /// Serialize the fitted profile *and* the in-flight running state,
    /// so a restored detector continues the trace mid-stream.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.config.delta);
        self.profile.encode(w);
        w.put_usize(self.count.len());
        for &c in &self.count {
            w.put_u64(c);
        }
        w.put_f64s(&self.run_mean);
        w.put_f64s(&self.up);
        w.put_f64s(&self.min_up);
        w.put_f64s(&self.down);
        w.put_f64s(&self.min_down);
    }

    /// Decode a detector written by [`PageHinkleyDetector::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let delta = r.get_f64()?;
        if delta.is_nan() || delta < 0.0 {
            return Err(CodecError::Corrupt("Page-Hinkley delta must be non-negative"));
        }
        let profile = ZProfile::decode(r)?;
        let n = r.get_len(8)?;
        let count = (0..n).map(|_| r.get_u64()).collect::<Result<Vec<u64>, _>>()?;
        let run_mean = r.get_f64s()?;
        let up = r.get_f64s()?;
        let min_up = r.get_f64s()?;
        let down = r.get_f64s()?;
        let min_down = r.get_f64s()?;
        let dims = profile.dims();
        if dims == 0
            || [count.len(), run_mean.len(), up.len(), min_up.len(), down.len(), min_down.len()]
                .iter()
                .any(|&l| l != dims)
        {
            return Err(CodecError::Corrupt("Page-Hinkley state length mismatch"));
        }
        Ok(Self {
            config: PageHinkleyConfig { delta },
            profile,
            count,
            run_mean,
            up,
            min_up,
            down,
            min_down,
        })
    }
}

impl AnomalyScorer for PageHinkleyDetector {
    fn name(&self) -> &'static str {
        "PageHinkley"
    }

    fn fit(&mut self, train: &[&TimeSeries]) {
        let _sp = exathlon_linalg::obs::span("train", "PageHinkley.fit");
        self.profile = ZProfile::fit(train);
        let dims = self.profile.dims();
        self.count = vec![0; dims];
        self.run_mean = vec![0.0; dims];
        self.up = vec![0.0; dims];
        self.min_up = vec![0.0; dims];
        self.down = vec![0.0; dims];
        self.min_down = vec![0.0; dims];
    }

    fn score_series(&self, ts: &TimeSeries) -> Vec<f64> {
        let _sp = exathlon_linalg::obs::span("score", "PageHinkley.series");
        assert!(!self.count.is_empty(), "detector not fitted");
        let mut fresh = self.clone();
        fresh.reset();
        ts.records().map(|r| fresh.step(r)).collect()
    }
}

impl StreamingDetector for PageHinkleyDetector {
    fn name(&self) -> &'static str {
        "PageHinkley"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        assert!(!self.count.is_empty(), "detector not fitted");
        self.step(record)
    }

    fn reset(&mut self) {
        self.count.iter_mut().for_each(|v| *v = 0);
        self.run_mean.iter_mut().for_each(|v| *v = 0.0);
        self.up.iter_mut().for_each(|v| *v = 0.0);
        self.min_up.iter_mut().for_each(|v| *v = 0.0);
        self.down.iter_mut().for_each(|v| *v = 0.0);
        self.min_down.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    fn ts(records: &[Vec<f64>]) -> TimeSeries {
        TimeSeries::from_records(default_names(records[0].len()), 0, records)
    }

    fn noisy(n: usize, shift_from: Option<usize>) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let base = (i as f64 * 0.7).sin() * 0.3;
                let shift = match shift_from {
                    Some(s) if i >= s => 1.5,
                    _ => 0.0,
                };
                vec![base + shift]
            })
            .collect();
        TimeSeries::from_records(default_names(1), 0, &records)
    }

    #[test]
    fn cusum_accumulates_on_sustained_shift() {
        let train = noisy(300, None);
        let mut det = CusumDetector::new(CusumConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&noisy(200, Some(100)));
        let before = scores[..100].iter().cloned().fold(0.0, f64::max);
        // The sum grows with shift duration: late into the shift it dwarfs
        // anything the normal region produced.
        assert!(scores[150] > 10.0 * before.max(1e-9), "{} vs {}", scores[150], before);
        assert!(scores[199] > scores[110], "CUSUM must keep accumulating");
    }

    #[test]
    fn cusum_decays_without_drift() {
        let train = noisy(300, None);
        let mut det = CusumDetector::new(CusumConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&noisy(300, None));
        // On in-profile data the sums keep collapsing to ~0 instead of
        // random-walking upward.
        assert!(scores[299] < 5.0, "CUSUM drifted on normal data: {}", scores[299]);
    }

    #[test]
    fn page_hinkley_flags_change_not_distance() {
        let train = noisy(300, None);
        let mut det = PageHinkleyDetector::new(PageHinkleyConfig::default());
        det.fit(&[&train]);
        let scores = det.score_series(&noisy(240, Some(120)));
        let before = scores[..120].iter().cloned().fold(0.0, f64::max);
        let after = scores[130..160].iter().cloned().fold(0.0, f64::max);
        assert!(after > 3.0 * before.max(1e-9), "PH missed the change: {after} vs {before}");
    }

    #[test]
    fn nan_gaps_leave_state_untouched() {
        let train = noisy(300, None);
        let mut det = CusumDetector::new(CusumConfig::default());
        det.fit(&[&train]);
        let mut s1: Vec<Vec<f64>> = (0..50).map(|i| vec![(i as f64 * 0.7).sin() * 0.3]).collect();
        s1[25] = vec![f64::NAN];
        let scores = det.score_series(&ts(&s1));
        assert!(scores.iter().all(|s| s.is_finite()));
        // The gap record repeats the previous score (sums unchanged).
        assert_eq!(scores[25], scores[24]);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_cusum_panics() {
        let det = CusumDetector::new(CusumConfig::default());
        let _ = det.score_series(&noisy(5, None));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_page_hinkley_panics() {
        let det = PageHinkleyDetector::new(PageHinkleyConfig::default());
        let _ = det.score_series(&noisy(5, None));
    }
}
