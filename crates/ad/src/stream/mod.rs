//! The streaming detection engine: per-record scoring with O(window)
//! state.
//!
//! Everything else in this crate is batch — materialize a full trace,
//! fit, then call [`crate::AnomalyScorer::score_series`] on the whole
//! thing. Exathlon's target setting (§2, §5) is repeated executions
//! *monitored as they happen*: records arrive one at a time and the
//! detector must emit a score per tick from bounded state. This module
//! provides that data plane:
//!
//! * [`StreamingDetector`] — the online counterpart of
//!   [`crate::AnomalyScorer`]: `update(&[f64]) -> f64` per record,
//!   `reset()` between traces,
//! * [`StreamingEwma`] — the fitted EWMA forecaster's per-tick state
//!   ([`crate::ewma::EwmaDetector::streaming`]), which batch scoring
//!   replays,
//! * [`CusumDetector`] / [`PageHinkleyDetector`] — O(1) mean-shift /
//!   drift detectors over per-feature robust z-scores,
//! * [`HistogramDetector`] — per-feature streaming histogram rarity
//!   threshold (negative log frequency against training histograms),
//! * [`SpectralResidualDetector`] — the SR saliency score of the newest
//!   point over a ring-buffer window (Ren et al., KDD 2019),
//! * [`adapters`] — incremental wrappers over the fitted batch scorers:
//!   [`StreamingAe`] scores a ring-buffer window per tick; [`StreamingKnn`]
//!   and [`StreamingLof`] score each record against their frozen reference
//!   sets through the shared distance kernel.
//!
//! **Equivalence contract.** Replaying a trace record-by-record through
//! `update` reproduces the batch scorer's output: bitwise for kNN and LOF
//! (identical arithmetic against identical state), and window-shifted
//! for AE (the streaming score at tick `t` is the batch score of the
//! window *ending* at `t` — a stream cannot average in windows it has
//! not seen). EWMA and the O(1) detectors have a single recurrence: their
//! `score_series` replays a fresh copy of their streaming state, so batch
//! and stream are one recurrence with two drivers (EWMA's `fit` reads its
//! training errors from the same per-record step).
//! `crates/ad/tests/stream_equivalence.rs` pins all of this on random
//! traces.

pub mod adapters;
pub mod cusum;
pub mod ewma;
pub mod histogram;
pub mod snapshot;
pub mod spectral;

pub use adapters::{StreamingAe, StreamingKnn, StreamingLof};
pub use cusum::{CusumConfig, CusumDetector, PageHinkleyConfig, PageHinkleyDetector};
pub use ewma::StreamingEwma;
pub use histogram::{HistogramConfig, HistogramDetector};
pub use snapshot::ServableDetector;
pub use spectral::{SpectralResidualConfig, SpectralResidualDetector};

use exathlon_tsdata::TimeSeries;

/// An online anomaly scorer: one score per record, O(window) state.
///
/// The trait is the streaming face of a *fitted* model — implementations
/// are constructed from trained batch detectors (or fitted directly) and
/// never learn during `update`. State accumulated across `update` calls
/// is per-trace scratch (levels, ring buffers, CUSUM sums), discarded by
/// [`StreamingDetector::reset`] when the monitored execution changes.
pub trait StreamingDetector {
    /// Detector name for reports and bench labels.
    fn name(&self) -> &'static str;

    /// Consume one record, return its outlier score (higher = more
    /// anomalous). Must run in O(window) time and state.
    fn update(&mut self, record: &[f64]) -> f64;

    /// Drop per-trace state (the fitted model is kept), so the next
    /// `update` starts a fresh trace.
    fn reset(&mut self);
}

/// Replay a full trace record-by-record: `reset`, then one `update` per
/// record. This is the reference driver the equivalence tests pin batch
/// scoring against.
pub fn replay(det: &mut dyn StreamingDetector, ts: &TimeSeries) -> Vec<f64> {
    det.reset();
    ts.records().map(|r| det.update(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    /// A minimal detector counting updates, to pin the replay driver's
    /// reset-then-update contract.
    struct Counter {
        ticks: usize,
        resets: usize,
    }

    impl StreamingDetector for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }

        fn update(&mut self, _record: &[f64]) -> f64 {
            self.ticks += 1;
            self.ticks as f64
        }

        fn reset(&mut self) {
            self.ticks = 0;
            self.resets += 1;
        }
    }

    #[test]
    fn replay_resets_then_scores_every_record() {
        let ts = TimeSeries::from_records(default_names(1), 0, &[vec![1.0], vec![2.0], vec![3.0]]);
        let mut det = Counter { ticks: 100, resets: 0 };
        let scores = replay(&mut det, &ts);
        assert_eq!(scores, vec![1.0, 2.0, 3.0]);
        assert_eq!(det.resets, 1);
        let again = replay(&mut det, &ts);
        assert_eq!(again, vec![1.0, 2.0, 3.0], "second replay must start fresh");
    }

    #[test]
    fn replay_empty_trace_is_empty() {
        let ts = TimeSeries::empty(default_names(1));
        let mut det = Counter { ticks: 0, resets: 0 };
        assert!(replay(&mut det, &ts).is_empty());
    }
}
