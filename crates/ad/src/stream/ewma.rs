//! Streaming EWMA forecaster: the per-tick state of a fitted
//! [`crate::ewma::EwmaDetector`].
//!
//! The batch detector's `errors` recurrence is already online — one level
//! per feature, updated record by record. This struct carries exactly
//! that state across `update` calls, so replaying a trace reproduces
//! [`crate::AnomalyScorer::score_series`] *bitwise*: same per-feature
//! operation order, same NaN-gap semantics (a missing value contributes a
//! 0 error and leaves the level untouched), same max-|z| aggregation.

use super::StreamingDetector;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};

/// Per-tick EWMA forecast state. Build via
/// [`crate::ewma::EwmaDetector::streaming`].
#[derive(Debug, Clone)]
pub struct StreamingEwma {
    alpha: f64,
    /// Per-feature training error scale (the batch fit's normalizer).
    error_scale: Vec<f64>,
    /// Per-feature forecast level; NaN = no finite observation yet.
    level: Vec<f64>,
    /// False until the first record of the trace initializes the levels.
    started: bool,
}

impl StreamingEwma {
    /// Streaming state from a fitted smoothing factor and error scale.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)` or `error_scale` is empty.
    pub fn new(alpha: f64, error_scale: Vec<f64>) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(!error_scale.is_empty(), "empty error scale");
        let dims = error_scale.len();
        Self { alpha, error_scale, level: vec![f64::NAN; dims], started: false }
    }

    /// The record width the detector scores.
    pub fn dims(&self) -> usize {
        self.level.len()
    }

    /// Serialize the full state — fitted scales *and* the in-flight
    /// levels, so a restored detector continues the trace mid-stream.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.alpha);
        w.put_f64s(&self.error_scale);
        w.put_f64s(&self.level);
        w.put_bool(self.started);
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
        Ok(Self { alpha, error_scale, level, started })
    }
}

impl StreamingDetector for StreamingEwma {
    fn name(&self) -> &'static str {
        "EWMA"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        assert_eq!(record.len(), self.level.len(), "dimension mismatch");
        if !self.started {
            // Record 0 of the batch recurrence: levels take the record's
            // values (NaN = still uninitialized), error is 0 everywhere.
            self.level.copy_from_slice(record);
            self.started = true;
            return 0.0;
        }
        let a = self.alpha;
        let mut score = 0.0f64;
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
            score = score.max((err / self.error_scale[j]).abs());
        }
        score
    }

    fn reset(&mut self) {
        for l in &mut self.level {
            *l = f64::NAN;
        }
        self.started = false;
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
