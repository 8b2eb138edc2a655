//! End-to-end numerics contract of the dense kernel layer: running the
//! full pipeline with the batched GEMM/Gram-trick kernels produces the
//! same detection results as scoring the same data with the naive
//! per-pair distance loop.
//!
//! The naive side is a test-local scalar oracle — a plain kNN and a
//! textbook LOF over the detectors' reference sets (the `D¹_train`
//! records, stride-subsampled to the cap, non-finite features zeroed)
//! built on [`naive_sq_distance`] — applied to the pipeline's own
//! transformed traces. Per-record scores are compared at the kernel
//! layer's 1e-9 relative tolerance (the Gram expansion reassociates the
//! distance sums); predictions and detection metrics must come out
//! identical.

use exathlon_core::config::{AdMethod, ExperimentConfig};
use exathlon_core::evaluate::{evaluate_detection, separation, ScoredTest};
use exathlon_core::experiment::run_pipeline;
use exathlon_core::model::{
    build_scorer, knn_config_for, lof_config_for, split_train, TrainedModel, TrainingBudget,
};
use exathlon_linalg::kernel::{naive_sq_distance, sanitize};
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsdata::sample::stride_subsample;
use exathlon_tsdata::TimeSeries;
use exathlon_tsmetrics::presets::AdLevel;

/// The distance-kernel consumers.
const METHODS: [AdMethod; 2] = [AdMethod::Knn, AdMethod::Lof];

/// The reference set a detector keeps: the records of every training
/// trace in order, stride-subsampled to the cap, non-finite features
/// zeroed.
fn references(train: &[TimeSeries], max_references: usize) -> Vec<Vec<f64>> {
    let records: Vec<Vec<f64>> =
        train.iter().flat_map(|ts| ts.records().map(|r| r.to_vec())).collect();
    stride_subsample(&records, max_references)
        .into_iter()
        .map(|r| r.into_iter().map(sanitize).collect())
        .collect()
}

/// Euclidean distances from `q` to every reference, by the per-pair
/// scalar loop.
fn distances(q: &[f64], refs: &[Vec<f64>]) -> Vec<f64> {
    refs.iter().map(|r| naive_sq_distance(q, r).sqrt()).collect()
}

/// The `k` nearest `(index, distance)` pairs, ties broken by index;
/// `exclude` drops one index (a reference's own self-distance).
fn nearest(dists: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> =
        dists.iter().copied().enumerate().filter(|&(i, _)| Some(i) != exclude).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// A fitted scalar oracle: scores one (sanitized) record.
type Oracle = Box<dyn Fn(&[f64]) -> f64>;

/// Scalar kNN: mean of the `k` smallest squared distances, square-rooted.
fn oracle_knn(d1: &[TimeSeries]) -> Oracle {
    let config = knn_config_for(TrainingBudget::Quick);
    let refs = references(d1, config.max_references);
    let k = config.k.min(refs.len());
    Box::new(move |q| {
        let mut sq: Vec<f64> = refs.iter().map(|r| naive_sq_distance(q, r)).collect();
        sq.sort_by(f64::total_cmp);
        (sq[..k].iter().sum::<f64>() / k as f64).sqrt()
    })
}

/// Textbook LOF (Breunig et al.) against the reference set, with the
/// detector's conventions for degenerate densities: a zero reachability
/// sum is infinite density (score 1), and neighbour densities are capped
/// at 1e12.
fn oracle_lof(d1: &[TimeSeries]) -> Oracle {
    let config = lof_config_for(TrainingBudget::Quick);
    let refs = references(d1, config.max_references);
    let n = refs.len();
    let self_knn: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| nearest(&distances(&refs[i], &refs), config.k.min(n - 1), Some(i)))
        .collect();
    let k_distance: Vec<f64> =
        self_knn.iter().map(|nb| nb.last().map_or(0.0, |&(_, d)| d)).collect();
    let lrd = move |nb: &[(usize, f64)]| {
        let reach: f64 = nb.iter().map(|&(j, d)| d.max(k_distance[j])).sum();
        if reach <= 0.0 {
            f64::INFINITY
        } else {
            nb.len() as f64 / reach
        }
    };
    let ref_lrd: Vec<f64> = self_knn.iter().map(|nb| lrd(nb)).collect();
    let k = config.k.min(n);
    Box::new(move |q| {
        let nb = nearest(&distances(q, &refs), k, None);
        let own = lrd(&nb);
        if !own.is_finite() {
            return 1.0;
        }
        if own <= 0.0 {
            return f64::MAX.sqrt();
        }
        let mean: f64 =
            nb.iter().map(|&(j, _)| ref_lrd[j].min(1e12)).sum::<f64>() / nb.len() as f64;
        (mean / own).max(0.0)
    })
}

fn oracle_scores(oracle: &Oracle, ts: &TimeSeries) -> Vec<f64> {
    ts.records()
        .map(|r| {
            let q: Vec<f64> = r.iter().copied().map(sanitize).collect();
            oracle(&q)
        })
        .collect()
}

fn assert_close(method: AdMethod, what: &str, batched: &[f64], naive: &[f64]) {
    assert_eq!(batched.len(), naive.len(), "{method:?} {what}: score count");
    for (i, (x, y)) in batched.iter().zip(naive).enumerate() {
        let tol = 1e-9 * y.abs().max(1.0);
        assert!((x - y).abs() <= tol, "{method:?} {what} score {i}: batched {x} vs naive {y}");
    }
}

#[test]
fn pipeline_metrics_identical_with_naive_kernels() {
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
    let batched = run_pipeline(&ds, &config, &METHODS, TrainingBudget::Quick);
    let (d1, d2) = split_train(&batched.train, config.threshold_holdout);
    assert!(!d2.is_empty(), "threshold holdout is empty");

    for (method, batched_run) in &batched.methods {
        let oracle = match method {
            AdMethod::Knn => oracle_knn(&d1),
            AdMethod::Lof => oracle_lof(&d1),
            other => unreachable!("{other:?} has no distance kernel"),
        };

        // Threshold-fitting scores: within the kernel numerics contract.
        let d2_scores: Vec<f64> = d2.iter().flat_map(|ts| oracle_scores(&oracle, ts)).collect();
        assert_close(*method, "D²_train", &batched_run.model.d2_scores, &d2_scores);
        let naive_model = TrainedModel {
            method: *method,
            scorer: build_scorer(*method, TrainingBudget::Quick, 0),
            d2_scores,
        };

        // Per-record test scores: within the kernel numerics contract.
        assert_eq!(batched_run.scored.len(), batched.tests.len(), "{method:?}: test count");
        let naive_scored: Vec<ScoredTest> = batched_run
            .scored
            .iter()
            .zip(&batched.tests)
            .map(|(a, test)| {
                let scores = oracle_scores(&oracle, &test.series);
                assert_close(*method, &format!("trace {}", a.trace_id), &a.scores, &scores);
                ScoredTest { scores, ..a.clone() }
            })
            .collect();

        // Detection metrics: identical at every AD level and rule.
        for level in AdLevel::ALL {
            let from_batched = evaluate_detection(&batched_run.model, &batched_run.scored, level);
            let from_naive = evaluate_detection(&naive_model, &naive_scored, level);
            assert_eq!(from_batched.len(), from_naive.len(), "{method:?} {level:?}: rule count");
            for (a, b) in from_batched.iter().zip(&from_naive) {
                assert_eq!(a.rule, b.rule, "{method:?} {level:?}: rule order");
                let ctx = format!("{method:?} {level:?} {}", a.rule);
                assert_eq!(a.f1.to_bits(), b.f1.to_bits(), "{ctx}: f1 {} vs {}", a.f1, b.f1);
                assert_eq!(
                    a.precision.to_bits(),
                    b.precision.to_bits(),
                    "{ctx}: precision {} vs {}",
                    a.precision,
                    b.precision
                );
                assert_eq!(
                    a.recall.to_bits(),
                    b.recall.to_bits(),
                    "{ctx}: recall {} vs {}",
                    a.recall,
                    b.recall
                );
                assert_eq!(a.per_type_recall, b.per_type_recall, "{ctx}: per-type recall");
            }
        }

        // Separation AUPRC rides the same scores (ranking-based, so a
        // sub-1e-9 score wobble must not move it beyond tolerance).
        let naive_separation = separation(&naive_scored);
        for (scope, a, b) in [
            ("trace", &batched_run.separation.trace, &naive_separation.trace),
            ("app", &batched_run.separation.app, &naive_separation.app),
            ("global", &batched_run.separation.global, &naive_separation.global),
        ] {
            assert!(
                (a.average - b.average).abs() <= 1e-9 * b.average.abs().max(1.0),
                "{method:?} {scope} separation: batched {} vs naive {}",
                a.average,
                b.average
            );
        }
    }
}
