//! Streaming EWMA forecaster: the per-tick state of a fitted
//! [`crate::ewma::EwmaDetector`].
//!
//! This is EWMA's one recurrence: one level per feature, advanced record
//! by record. The batch detector's `score_series` replays a fresh copy of
//! this state, and its `fit` reads each feature's raw one-step error from
//! the same per-record step, so batch and stream cannot drift apart.
//! A missing value is a gap: it contributes a 0 error and leaves the
//! level untouched.

use super::StreamingDetector;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};

/// Per-feature EWMA levels of one trace: the recurrence without the
/// fitted error scale, which `fit` does not have yet.
#[derive(Debug, Clone)]
pub(crate) struct EwmaLevels {
    alpha: f64,
    /// Per-feature forecast level; NaN = no finite observation yet.
    level: Vec<f64>,
    /// False until the first record of the trace initializes the levels.
    started: bool,
}

impl EwmaLevels {
    pub(crate) fn new(alpha: f64, dims: usize) -> Self {
        Self { alpha, level: vec![f64::NAN; dims], started: false }
    }

    /// Advance the levels by one record and hand each feature's raw
    /// one-step forecast error to `emit(feature, error)`, in feature
    /// order. Record 0 of a trace and a feature's first finite value
    /// have nothing to forecast from: their error is 0.
    pub(crate) fn step(&mut self, record: &[f64], mut emit: impl FnMut(usize, f64)) {
        if !self.started {
            // Levels take the record's values (NaN = still uninitialized).
            self.level.copy_from_slice(record);
            self.started = true;
            for j in 0..record.len() {
                emit(j, 0.0);
            }
            return;
        }
        let a = self.alpha;
        for (j, &x) in record.iter().enumerate() {
            let err = if x.is_nan() {
                // Gap: no forecast, no level update.
                0.0
            } else if self.level[j].is_nan() {
                // First finite observation: initialize, nothing to forecast.
                self.level[j] = x;
                0.0
            } else {
                let e = x - self.level[j];
                self.level[j] += a * (x - self.level[j]);
                e
            };
            emit(j, err);
        }
    }

    pub(crate) fn reset(&mut self) {
        self.level.fill(f64::NAN);
        self.started = false;
    }
}

/// Per-tick EWMA forecast state. Build via
/// [`crate::ewma::EwmaDetector::streaming`].
#[derive(Debug, Clone)]
pub struct StreamingEwma {
    /// Per-feature training error scale (the batch fit's normalizer).
    error_scale: Vec<f64>,
    levels: EwmaLevels,
}

impl StreamingEwma {
    /// Streaming state from a fitted smoothing factor and error scale.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)` or `error_scale` is empty.
    pub fn new(alpha: f64, error_scale: Vec<f64>) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(!error_scale.is_empty(), "empty error scale");
        let levels = EwmaLevels::new(alpha, error_scale.len());
        Self { error_scale, levels }
    }

    /// The record width the detector scores.
    pub fn dims(&self) -> usize {
        self.error_scale.len()
    }

    /// Serialize the full state — fitted scales *and* the in-flight
    /// levels, so a restored detector continues the trace mid-stream.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.levels.alpha);
        w.put_f64s(&self.error_scale);
        w.put_f64s(&self.levels.level);
        w.put_bool(self.levels.started);
    }

    /// Decode state written by [`StreamingEwma::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let alpha = r.get_f64()?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(CodecError::Corrupt("EWMA alpha out of range"));
        }
        let error_scale = r.get_f64s()?;
        let level = r.get_f64s()?;
        if error_scale.is_empty() || level.len() != error_scale.len() {
            return Err(CodecError::Corrupt("EWMA state length mismatch"));
        }
        let started = r.get_bool()?;
        Ok(Self { error_scale, levels: EwmaLevels { alpha, level, started } })
    }
}

impl StreamingDetector for StreamingEwma {
    fn name(&self) -> &'static str {
        "EWMA"
    }

    /// The max |z-scored error| across features.
    fn update(&mut self, record: &[f64]) -> f64 {
        assert_eq!(record.len(), self.dims(), "dimension mismatch");
        let scale = &self.error_scale;
        let mut score = 0.0f64;
        self.levels.step(record, |j, err| score = score.max((err / scale[j]).abs()));
        score
    }

    fn reset(&mut self) {
        self.levels.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::super::replay;
    use crate::ewma::{EwmaConfig, EwmaDetector};
    use crate::AnomalyScorer;
    use exathlon_tsdata::series::default_names;
    use exathlon_tsdata::TimeSeries;

    fn trace(n: usize, gap: Option<usize>) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = (i as f64 * 0.17).sin() * 2.0 + (i as f64 * 0.03).cos();
                vec![if Some(i) == gap { f64::NAN } else { v }, (i as f64 * 0.4).sin()]
            })
            .collect();
        TimeSeries::from_records(default_names(2), 0, &records)
    }

    #[test]
    fn replay_matches_batch_bitwise() {
        let train = trace(400, None);
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&train]);
        for test in [trace(120, None), trace(120, Some(60)), trace(1, None)] {
            let batch = det.score_series(&test);
            let streamed = replay(&mut det.streaming(), &test);
            assert_eq!(batch.len(), streamed.len());
            for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
                assert_eq!(b.to_bits(), s.to_bits(), "record {i}: batch {b} vs stream {s}");
            }
        }
    }

    #[test]
    fn reset_isolates_traces() {
        let train = trace(400, None);
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&train]);
        let mut s = det.streaming();
        // Pollute state with one trace, then replay another; scores must
        // equal a fresh replay of the second trace.
        let _ = replay(&mut s, &trace(50, None));
        let a = replay(&mut s, &trace(80, Some(10)));
        let b = replay(&mut det.streaming(), &trace(80, Some(10)));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn streaming_from_unfitted_panics() {
        let det = EwmaDetector::new(EwmaConfig::default());
        let _ = det.streaming();
    }
}
