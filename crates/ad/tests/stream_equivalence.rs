//! Property pins for the streaming engine's equivalence contract:
//! replaying any trace record-by-record through a `StreamingDetector`
//! reproduces the batch scorer.
//!
//! * kNN / LOF: **bitwise** — the streaming path runs identical
//!   arithmetic against identical fitted state (the distance kernel pins
//!   each query row independent of batch shape),
//! * EWMA / CUSUM / Page-Hinkley / Histogram / Spectral Residual:
//!   **bitwise** — their `score_series` *is* a replay of fresh streaming
//!   state, so batch and stream are one recurrence with two drivers, and
//!   replay must also be insensitive to whatever state an earlier trace
//!   left behind,
//! * AE: **window-shifted** — the streaming score at tick `t` equals the
//!   batch score of the window ending at `t` (a stream cannot average in
//!   future windows); warm-up ticks are zero.
//!
//! Traces carry injected NaN gaps, so the pins also cover the missing-
//! value semantics the statistical-baseline fixes established.

use exathlon_ad::ae_ad::{AeConfig, AutoencoderDetector};
use exathlon_ad::ewma::{EwmaConfig, EwmaDetector};
use exathlon_ad::knn_ad::{KnnConfig, KnnDetector};
use exathlon_ad::lof::{LofConfig, LofDetector};
use exathlon_ad::stream::{
    replay, CusumConfig, CusumDetector, HistogramConfig, HistogramDetector, PageHinkleyConfig,
    PageHinkleyDetector, SpectralResidualConfig, SpectralResidualDetector, StreamingAe,
    StreamingDetector, StreamingKnn, StreamingLof,
};
use exathlon_ad::AnomalyScorer;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;
use proptest::prelude::*;

/// Random traces: `dims` features, length in `min_len..=max_len`, each
/// value NaN with probability 1/10 when `with_nan` (the missing metrics
/// of inactive executors).
fn trace(
    dims: usize,
    min_len: usize,
    max_len: usize,
    with_nan: bool,
) -> impl Strategy<Value = TimeSeries> {
    let value = (0..10u8, -50.0..50.0f64)
        .prop_map(move |(gap, v)| if with_nan && gap == 0 { f64::NAN } else { v });
    proptest::collection::vec(proptest::collection::vec(value, dims), min_len..=max_len)
        .prop_map(move |records| TimeSeries::from_records(default_names(dims), 0, &records))
}

fn assert_bitwise(batch: &[f64], streamed: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.len(), streamed.len());
    for (i, (b, s)) in batch.iter().zip(streamed).enumerate() {
        prop_assert_eq!(b.to_bits(), s.to_bits(), "record {}: batch {} vs stream {}", i, b, s);
    }
    Ok(())
}

/// Replay after polluting the detector with a different trace — catches
/// state that `reset` fails to clear.
fn polluted_replay(
    det: &mut dyn StreamingDetector,
    pollution: &TimeSeries,
    test: &TimeSeries,
) -> Vec<f64> {
    let _ = replay(det, pollution);
    replay(det, test)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ewma_replay_matches_batch_bitwise(
        train in trace(3, 30, 120, true),
        test in trace(3, 1, 120, true),
        pollution in trace(3, 1, 30, true),
    ) {
        let mut det = EwmaDetector::new(EwmaConfig::default());
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut det.streaming(), &test))?;
        assert_bitwise(&batch, &polluted_replay(&mut det.streaming(), &pollution, &test))?;
    }

    #[test]
    fn knn_replay_matches_batch_bitwise(
        train in trace(3, 20, 100, true),
        test in trace(3, 1, 100, true),
    ) {
        let mut det = KnnDetector::new(KnnConfig { k: 3, max_references: 64 });
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut StreamingKnn::new(det), &test))?;
    }

    #[test]
    fn lof_replay_matches_batch_bitwise(
        train in trace(3, 20, 100, true),
        test in trace(3, 1, 100, true),
    ) {
        let mut det = LofDetector::new(LofConfig { k: 5, max_references: 64 });
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut StreamingLof::new(det), &test))?;
    }

    #[test]
    fn cusum_replay_matches_batch_bitwise(
        train in trace(2, 20, 100, true),
        test in trace(2, 1, 100, true),
        pollution in trace(2, 1, 30, true),
    ) {
        let mut det = CusumDetector::new(CusumConfig::default());
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut det, &test))?;
        assert_bitwise(&batch, &polluted_replay(&mut det, &pollution, &test))?;
    }

    #[test]
    fn page_hinkley_replay_matches_batch_bitwise(
        train in trace(2, 20, 100, true),
        test in trace(2, 1, 100, true),
        pollution in trace(2, 1, 30, true),
    ) {
        let mut det = PageHinkleyDetector::new(PageHinkleyConfig::default());
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut det, &test))?;
        assert_bitwise(&batch, &polluted_replay(&mut det, &pollution, &test))?;
    }

    #[test]
    fn histogram_replay_matches_batch_bitwise(
        train in trace(2, 20, 100, true),
        test in trace(2, 1, 100, true),
    ) {
        let mut det = HistogramDetector::new(HistogramConfig { bins: 16 });
        det.fit(&[&train]);
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut det, &test))?;
    }

    #[test]
    fn spectral_residual_replay_matches_batch_bitwise(
        test in trace(2, 1, 100, true),
        pollution in trace(2, 1, 40, true),
    ) {
        let mut det = SpectralResidualDetector::new(SpectralResidualConfig {
            window: 16,
            saliency_avg: 3,
        });
        let batch = det.score_series(&test);
        assert_bitwise(&batch, &replay(&mut det, &test))?;
        assert_bitwise(&batch, &polluted_replay(&mut det, &pollution, &test))?;
    }
}

proptest! {
    // AE cases train a (tiny) network each, so fewer of them.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ae_stream_scores_the_window_ending_at_each_tick(
        train in trace(2, 40, 80, false),
        test in trace(2, 1, 60, false),
    ) {
        let cfg = AeConfig {
            window: 4,
            hidden: vec![8],
            code: 2,
            epochs: 2,
            batch_size: 16,
            max_windows: 200,
            seed: 5,
            ..AeConfig::default()
        };
        let w = cfg.window;
        let mut det = AutoencoderDetector::new(cfg);
        det.fit(&[&train]);
        let expected: Vec<f64> = if test.len() >= w {
            let windows = WindowSet::from_series(&test, w, 1);
            (0..windows.len()).map(|i| det.window_score(windows.window(i))).collect()
        } else {
            Vec::new()
        };
        let streamed = replay(&mut StreamingAe::new(det, test.dims()), &test);
        prop_assert_eq!(streamed.len(), test.len());
        for (t, &s) in streamed.iter().enumerate() {
            if t < w - 1 {
                prop_assert_eq!(s, 0.0, "tick {} is pre-warmup", t);
            } else {
                let b = expected[t - (w - 1)];
                prop_assert_eq!(b.to_bits(), s.to_bits(), "tick {}: batch {} vs stream {}", t, b, s);
            }
        }
    }
}
