//! Streaming replay driver: pipeline phase 4 in its online form.
//!
//! The batch pipeline ([`crate::experiment::run_pipeline`]) materializes
//! every test trace and scores it in one call. Exathlon's target setting
//! is *monitoring*: records of a repeated Spark execution arrive one at a
//! time and the detector must emit a score per tick from bounded state.
//! This module drives that path over the same simulated dataset:
//!
//! 1. [`crate::experiment::prepare`] — the exact partition + transform of
//!    the batch pipeline (bit-identical traces),
//! 2. [`build_streaming`] — fit a batch model on `D¹_train` (same split,
//!    same config literals, same derived seed as [`crate::model`]) and
//!    wrap it as a [`StreamingDetector`],
//! 3. [`replay_series`] — feed a trace record-by-record through
//!    `update`, metering `stream.records` / `stream.score_ns` /
//!    `stream.ns_per_record` observability counters.
//!
//! Because steps 1–2 reuse the batch code paths, replaying a trace
//! reproduces the batch scores exactly for the wrapped methods (bitwise
//! for EWMA / kNN / LOF, window-shifted for AE) — pinned end-to-end by
//! `tests/stream_equivalence.rs`.

use crate::config::{ExperimentConfig, StreamMethod};
use crate::evaluate::ScoredTest;
use crate::experiment::{method_seed, prepare, seed_from_label};
use crate::model::{ae_config_for, knn_config_for, lof_config_for, split_train, TrainingBudget};
use crate::transform::TransformedTest;
use exathlon_ad::ae_ad::AutoencoderDetector;
use exathlon_ad::ewma::{EwmaConfig, EwmaDetector};
use exathlon_ad::knn_ad::KnnDetector;
use exathlon_ad::lof::LofDetector;
use exathlon_ad::stream::{
    CusumConfig, CusumDetector, HistogramConfig, HistogramDetector, PageHinkleyConfig,
    PageHinkleyDetector, ServableDetector, SpectralResidualConfig, SpectralResidualDetector,
    StreamingAe, StreamingDetector, StreamingKnn, StreamingLof,
};
use exathlon_ad::AnomalyScorer;
use exathlon_sparksim::dataset::Dataset;
use exathlon_tsdata::TimeSeries;

/// A replay run: the transformed test traces and, per requested method,
/// their streamed per-record scores (in [`ScoredTest`] form, so the
/// batch evaluation machinery applies unchanged).
pub struct ReplayRun {
    /// Transformed, labeled test traces.
    pub tests: Vec<TransformedTest>,
    /// One scored-test set per requested method, in request order.
    pub methods: Vec<(StreamMethod, Vec<ScoredTest>)>,
}

impl ReplayRun {
    /// The scored tests of one method.
    ///
    /// # Panics
    /// Panics if the method was not part of the run.
    pub fn scored(&self, method: StreamMethod) -> &[ScoredTest] {
        &self
            .methods
            .iter()
            .find(|(m, _)| *m == method)
            .unwrap_or_else(|| panic!("{method:?} was not part of this run"))
            .1
    }
}

/// Fit a streaming detector on the transformed training traces: split
/// off `D¹_train` exactly as [`crate::model::train_model`] does, fit the
/// underlying batch model with the shared config literals, and wrap its
/// online face.
pub fn build_streaming(
    method: StreamMethod,
    train: &[TimeSeries],
    holdout: f64,
    budget: TrainingBudget,
    seed: u64,
) -> Box<dyn StreamingDetector + Send> {
    Box::new(build_servable(method, train, holdout, budget, seed))
}

/// [`build_streaming`] in serializable form: the same fit, returned as
/// the concrete [`ServableDetector`] enum so the serving layer can
/// snapshot and restore it. `build_streaming` is a thin wrapper over
/// this, so the replay and serving paths fit identical models.
pub fn build_servable(
    method: StreamMethod,
    train: &[TimeSeries],
    holdout: f64,
    budget: TrainingBudget,
    seed: u64,
) -> ServableDetector {
    let _sp = crate::obs::span("train", method.label());
    let (d1, _d2) = split_train(train, holdout);
    let d1_refs: Vec<&TimeSeries> = d1.iter().collect();
    match method {
        StreamMethod::Ewma => {
            let mut det = EwmaDetector::new(EwmaConfig::default());
            det.fit(&d1_refs);
            det.streaming().into()
        }
        StreamMethod::Cusum => {
            let mut det = CusumDetector::new(CusumConfig::default());
            det.fit(&d1_refs);
            det.into()
        }
        StreamMethod::PageHinkley => {
            let mut det = PageHinkleyDetector::new(PageHinkleyConfig::default());
            det.fit(&d1_refs);
            det.into()
        }
        StreamMethod::Histogram => {
            let mut det = HistogramDetector::new(HistogramConfig::default());
            det.fit(&d1_refs);
            det.into()
        }
        StreamMethod::SpectralResidual => {
            // Training-free: the detector carries only its ring buffer.
            SpectralResidualDetector::new(SpectralResidualConfig::default()).into()
        }
        StreamMethod::Ae => {
            let mut det = AutoencoderDetector::new(ae_config_for(budget, seed));
            det.fit(&d1_refs);
            let dims = train.first().map(|t| t.dims()).expect("no training traces");
            StreamingAe::new(det, dims).into()
        }
        StreamMethod::Knn => {
            let mut det = KnnDetector::new(knn_config_for(budget));
            det.fit(&d1_refs);
            StreamingKnn::new(det).into()
        }
        StreamMethod::Lof => {
            let mut det = LofDetector::new(lof_config_for(budget));
            det.fit(&d1_refs);
            StreamingLof::new(det).into()
        }
    }
}

/// The training seed of a streaming method: the wrapped methods reuse
/// their batch twin's [`method_seed`] (same fitted model on both sides
/// of the equivalence pin); stream-native methods fold their own label.
pub fn stream_seed(experiment_seed: u64, method: StreamMethod) -> u64 {
    match method.batch_method() {
        Some(batch) => method_seed(experiment_seed, batch),
        None => seed_from_label(experiment_seed, method.label()),
    }
}

/// Replay one trace through [`exathlon_ad::stream::replay`] (`reset`,
/// then one `update` per record), metering the per-record cost into the
/// observability counters — `stream.records` and `stream.score_ns`
/// accumulate totals across calls; `stream.ns_per_record` adds each
/// trace's average (so a single-trace replay reads directly as
/// per-record latency).
pub fn replay_series(det: &mut dyn StreamingDetector, ts: &TimeSeries) -> Vec<f64> {
    let _sp = crate::obs::span("score", "stream.replay");
    let start = std::time::Instant::now();
    let scores = exathlon_ad::stream::replay(det, ts);
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    crate::obs::counter("stream.records", ts.len() as u64);
    crate::obs::counter("stream.score_ns", ns);
    if !ts.is_empty() {
        crate::obs::counter("stream.ns_per_record", ns / ts.len() as u64);
    }
    scores
}

/// Run the replay driver end to end: partition + transform exactly as
/// the batch pipeline, then fit each requested streaming detector and
/// feed it every test trace record-by-record.
pub fn run_replay(
    ds: &Dataset,
    config: &ExperimentConfig,
    methods: &[StreamMethod],
    budget: TrainingBudget,
) -> ReplayRun {
    let (_transform, train, tests) = prepare(ds, config);
    let methods = methods
        .iter()
        .map(|&method| {
            let mut det = {
                let _stage = crate::obs::stage("train");
                build_streaming(
                    method,
                    &train,
                    config.threshold_holdout,
                    budget,
                    stream_seed(config.seed, method),
                )
            };
            let _stage = crate::obs::stage("score");
            crate::obs::add_records("score", tests.iter().map(|t| t.series.len() as u64).sum());
            let scored = tests
                .iter()
                .map(|t| ScoredTest {
                    trace_id: t.trace_id,
                    app_id: t.app_id,
                    dominant_type: t.dominant_type,
                    scores: replay_series(det.as_mut(), &t.series),
                    labels: t.labels.clone(),
                    typed_ranges: t.typed_ranges.clone(),
                })
                .collect();
            (method, scored)
        })
        .collect();
    crate::obs::emit_report();
    ReplayRun { tests, methods }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_sparksim::dataset::DatasetBuilder;

    #[test]
    fn replay_runs_every_streaming_method() {
        let ds = DatasetBuilder::tiny(11).build();
        let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
        let run = run_replay(&ds, &config, &StreamMethod::ALL, TrainingBudget::Quick);
        assert_eq!(run.methods.len(), StreamMethod::ALL.len());
        for (m, scored) in &run.methods {
            assert_eq!(scored.len(), run.tests.len(), "{m:?} missed traces");
            for (s, t) in scored.iter().zip(&run.tests) {
                assert_eq!(s.scores.len(), t.series.len(), "{m:?} missed records");
                assert!(
                    s.scores.iter().all(|v| v.is_finite()),
                    "{m:?} produced non-finite streaming scores"
                );
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let ds = DatasetBuilder::tiny(13).build();
        let config = ExperimentConfig::default();
        let methods = [StreamMethod::Cusum, StreamMethod::Knn];
        let a = run_replay(&ds, &config, &methods, TrainingBudget::Quick);
        let b = run_replay(&ds, &config, &methods, TrainingBudget::Quick);
        for ((ma, sa), (mb, sb)) in a.methods.iter().zip(&b.methods) {
            assert_eq!(ma, mb);
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.scores, y.scores, "{ma:?} replay not deterministic");
            }
        }
    }

    #[test]
    fn wrapped_methods_share_the_batch_seed() {
        use crate::config::AdMethod;
        assert_eq!(stream_seed(7, StreamMethod::Knn), method_seed(7, AdMethod::Knn));
        assert_eq!(stream_seed(7, StreamMethod::Ae), method_seed(7, AdMethod::Ae));
        // Stream-native labels must not collide with each other.
        assert_ne!(stream_seed(7, StreamMethod::Cusum), stream_seed(7, StreamMethod::PageHinkley));
    }

    #[test]
    #[should_panic(expected = "was not part of this run")]
    fn missing_method_panics() {
        let ds = DatasetBuilder::tiny(11).build();
        let run = run_replay(
            &ds,
            &ExperimentConfig::default(),
            &[StreamMethod::Ewma],
            TrainingBudget::Quick,
        );
        let _ = run.scored(StreamMethod::Knn);
    }
}
