//! Incremental adapters: the fitted batch scorers driven one record at a
//! time.
//!
//! These own a trained detector and translate its batch scoring interface
//! into [`StreamingDetector`] ticks:
//!
//! * [`StreamingKnn`] / [`StreamingLof`] — each record is one query
//!   against the frozen reference set through the distance kernel's
//!   one-query form; per-record scores are bitwise equal to the batch
//!   chunks because that form reproduces the query's GEMM row exactly,
//! * [`StreamingAe`] — records accumulate in a [`RingWindow`]; once it
//!   fills, every tick re-linearizes the window into the batch layout and
//!   scores it through the network's one-row inference, so tick `t`
//!   carries the reconstruction MSE of the window *ending* at `t`. (The
//!   batch scorer then averages each record over all enclosing windows —
//!   an average a stream cannot form until the future arrives, which is
//!   exactly the windowing difference the equivalence test pins.)

use super::StreamingDetector;
use crate::ae_ad::AutoencoderDetector;
use crate::knn_ad::KnnDetector;
use crate::lof::LofDetector;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_tsdata::ring::RingWindow;

/// Per-record kNN scoring against the frozen reference set.
#[derive(Debug, Clone)]
pub struct StreamingKnn {
    det: KnnDetector,
}

impl StreamingKnn {
    /// Wrap a fitted detector.
    pub fn new(det: KnnDetector) -> Self {
        Self { det }
    }

    /// The record width the adapter scores (0 until fitted).
    pub fn dims(&self) -> usize {
        self.det.dims()
    }

    /// Serialize the wrapped detector (the adapter itself is stateless).
    pub fn encode(&self, w: &mut ByteWriter) {
        self.det.encode(w);
    }

    /// Decode an adapter written by [`StreamingKnn::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self { det: KnnDetector::decode(r)? })
    }
}

impl StreamingDetector for StreamingKnn {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        self.det.score_record(record)
    }

    fn reset(&mut self) {
        // Record-at-a-time scoring holds no per-trace state.
    }
}

/// Per-record LOF scoring against the frozen reference set.
#[derive(Debug, Clone)]
pub struct StreamingLof {
    det: LofDetector,
}

impl StreamingLof {
    /// Wrap a fitted detector.
    pub fn new(det: LofDetector) -> Self {
        Self { det }
    }

    /// The record width the adapter scores (0 until fitted).
    pub fn dims(&self) -> usize {
        self.det.dims()
    }

    /// Serialize the wrapped detector (the adapter itself is stateless).
    pub fn encode(&self, w: &mut ByteWriter) {
        self.det.encode(w);
    }

    /// Decode an adapter written by [`StreamingLof::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self { det: LofDetector::decode(r)? })
    }
}

impl StreamingDetector for StreamingLof {
    fn name(&self) -> &'static str {
        "LOF"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        self.det.score_record(record)
    }

    fn reset(&mut self) {
        // Record-at-a-time scoring holds no per-trace state.
    }
}

/// The autoencoder scored over a sliding ring-buffer window.
#[derive(Debug, Clone)]
pub struct StreamingAe {
    det: AutoencoderDetector,
    ring: RingWindow,
    /// Reused flattened-window scratch (`window * dims` values).
    flat: Vec<f64>,
}

impl StreamingAe {
    /// Wrap a fitted detector for `dims`-feature traces.
    ///
    /// # Panics
    /// Panics if `dims` is zero.
    pub fn new(det: AutoencoderDetector, dims: usize) -> Self {
        let w = det.window_len();
        Self { ring: RingWindow::new(w, dims), flat: vec![0.0; w * dims], det }
    }

    /// The record width the adapter scores: 0 when the network is
    /// unfitted or does not take `window * dims` inputs.
    pub fn dims(&self) -> usize {
        let dims = self.ring.dims();
        if self.det.input_width() == self.det.window_len() * dims {
            dims
        } else {
            0
        }
    }

    /// Serialize the wrapped detector *and* the in-flight ring contents
    /// (chronological order), so a restored adapter continues the trace
    /// mid-stream. The flatten scratch is rebuilt zeroed — it is
    /// overwritten before every read.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.det.encode(w);
        w.put_usize(self.ring.dims());
        w.put_usize(self.ring.len());
        for i in 0..self.ring.len() {
            w.put_f64s(self.ring.record(i));
        }
    }

    /// Decode an adapter written by [`StreamingAe::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let det = AutoencoderDetector::decode(r)?;
        let dims = r.get_usize()?;
        if dims == 0 {
            return Err(CodecError::Corrupt("AE adapter dims must be positive"));
        }
        let n = r.get_len(8)?;
        if n > det.window_len() {
            return Err(CodecError::Corrupt("AE ring longer than its window"));
        }
        let mut out = Self::new(det, dims);
        for _ in 0..n {
            let rec = r.get_f64s()?;
            if rec.len() != dims {
                return Err(CodecError::Corrupt("AE ring record length mismatch"));
            }
            out.ring.push(&rec);
        }
        Ok(out)
    }
}

impl StreamingDetector for StreamingAe {
    fn name(&self) -> &'static str {
        "AE"
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        self.ring.push(record);
        if !self.ring.is_full() {
            // Warm-up: no complete window ends here yet.
            return 0.0;
        }
        self.ring.copy_flat_into(&mut self.flat);
        self.det.window_score(&self.flat)
    }

    fn reset(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::replay;
    use super::*;
    use crate::ae_ad::AeConfig;
    use crate::knn_ad::KnnConfig;
    use crate::lof::LofConfig;
    use crate::AnomalyScorer;
    use exathlon_tsdata::series::default_names;
    use exathlon_tsdata::window::{window_starts, WindowSet};
    use exathlon_tsdata::TimeSeries;

    fn trace(n: usize, seed: u64) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.23 + seed as f64;
                vec![t.sin() * 2.0, (t * 0.7).cos(), (i % 13) as f64 * 0.1]
            })
            .collect();
        TimeSeries::from_records(default_names(3), 0, &records)
    }

    #[test]
    fn knn_replay_matches_batch_bitwise() {
        let train = trace(300, 1);
        let mut det = KnnDetector::new(KnnConfig { k: 4, max_references: 200 });
        det.fit(&[&train]);
        let test = trace(90, 2);
        let batch = det.score_series(&test);
        let streamed = replay(&mut StreamingKnn::new(det), &test);
        for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
            assert_eq!(b.to_bits(), s.to_bits(), "record {i}: batch {b} vs stream {s}");
        }
    }

    #[test]
    fn lof_replay_matches_batch_bitwise() {
        let train = trace(300, 3);
        let mut det = LofDetector::new(LofConfig { k: 6, max_references: 200 });
        det.fit(&[&train]);
        let test = trace(90, 4);
        let batch = det.score_series(&test);
        let streamed = replay(&mut StreamingLof::new(det), &test);
        for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
            assert_eq!(b.to_bits(), s.to_bits(), "record {i}: batch {b} vs stream {s}");
        }
    }

    #[test]
    fn ae_stream_scores_the_window_ending_at_each_tick() {
        let train = trace(240, 5);
        // Widths off every GEMM tile width (window * dims = 18, hidden 13).
        let cfg =
            AeConfig { window: 6, hidden: vec![13], code: 3, epochs: 15, ..Default::default() };
        let w = cfg.window;
        let mut det = AutoencoderDetector::new(cfg);
        det.fit(&[&train]);
        let test = trace(60, 6);
        // Reference: the batch GEMM's per-window scores, laid out by
        // window start; the stream's one-row inference must match them
        // bit for bit, as must the public one-window score.
        let windows = WindowSet::from_series(&test, w, 1);
        let expected = det.window_scores(&crate::scorer::window_batch(&windows));
        for (i, e) in expected.iter().enumerate() {
            assert_eq!(det.window_score(windows.window(i)).to_bits(), e.to_bits(), "window {i}");
        }
        assert_eq!(windows.starts(), window_starts(test.len(), w, 1));
        let streamed = replay(&mut StreamingAe::new(det, test.dims()), &test);
        assert_eq!(streamed.len(), test.len());
        // Warm-up ticks score zero; tick t >= w-1 carries window t-w+1.
        for (t, &s) in streamed.iter().enumerate() {
            if t < w - 1 {
                assert_eq!(s, 0.0, "tick {t} is pre-warmup");
            } else {
                let b = expected[t - (w - 1)];
                assert_eq!(b.to_bits(), s.to_bits(), "tick {t}: batch {b} vs stream {s}");
            }
        }
    }

    #[test]
    fn ae_reset_restarts_warmup() {
        let train = trace(240, 7);
        let cfg =
            AeConfig { window: 5, hidden: vec![16], code: 4, epochs: 10, ..Default::default() };
        let mut det = AutoencoderDetector::new(cfg);
        det.fit(&[&train]);
        let mut s = StreamingAe::new(det, 3);
        let test = trace(30, 8);
        let first = replay(&mut s, &test);
        let second = replay(&mut s, &test);
        assert_eq!(first, second, "reset must clear the ring buffer");
    }
}
