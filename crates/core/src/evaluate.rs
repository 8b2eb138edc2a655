//! Pipeline phases 4–5: AD inference and evaluation (§5 steps 4–5).
//!
//! Separation ability (`g`) is assessed as AUPRC at trace, application,
//! and global level, overall and per anomaly type (Table 3). Detection
//! ability (`f`) applies the 24 unsupervised thresholding rules and
//! reports range-based precision/recall/F1 at a chosen AD level, with
//! per-type recall (Table 4); the paper reports the best and the median
//! rule.

use crate::model::TrainedModel;
use crate::transform::TransformedTest;
use exathlon_ad::threshold::ThresholdRule;
use exathlon_sparksim::deg::AnomalyType;
use exathlon_tsmetrics::auprc::auprc;
use exathlon_tsmetrics::presets::{evaluate_at_level, AdLevel};
use exathlon_tsmetrics::range_pr::range_recall;
use exathlon_tsmetrics::Range;

/// A test trace with its outlier scores (AD inference output).
#[derive(Debug, Clone)]
pub struct ScoredTest {
    /// Trace id.
    pub trace_id: usize,
    /// Application id.
    pub app_id: usize,
    /// Dominant anomaly type.
    pub dominant_type: Option<AnomalyType>,
    /// Per-record outlier scores.
    pub scores: Vec<f64>,
    /// Per-record ground-truth labels.
    pub labels: Vec<bool>,
    /// Real anomaly ranges (record-index space), typed.
    pub typed_ranges: Vec<(AnomalyType, Range)>,
}

/// Run AD inference: score every transformed test trace.
///
/// Traces are scored on the shared worker pool ([`crate::par`]); each
/// trace is independent and results keep input order, so the output is
/// identical to the sequential map for any `EXATHLON_THREADS`.
pub fn score_tests(model: &TrainedModel, tests: &[TransformedTest]) -> Vec<ScoredTest> {
    let _stage = crate::obs::stage("score");
    crate::obs::add_records("score", tests.iter().map(|t| t.series.len() as u64).sum());
    let scorer_name = model.scorer.name();
    crate::par::par_map(tests, |t| {
        let _sp = crate::obs::span("score", scorer_name);
        ScoredTest {
            trace_id: t.trace_id,
            app_id: t.app_id,
            dominant_type: t.dominant_type,
            scores: model.scorer.score_series(&t.series),
            labels: t.labels.clone(),
            typed_ranges: t.typed_ranges.clone(),
        }
    })
}

/// Separation (AUPRC) results at the three aggregation levels, overall
/// ("Ave") and per anomaly type — one Table 3 row triple.
#[derive(Debug, Clone, PartialEq)]
pub struct SeparationScores {
    /// Trace-level: mean per-trace AUPRC.
    pub trace: TypedAuprc,
    /// Application-level: mean per-application AUPRC (scores pooled within
    /// an application).
    pub app: TypedAuprc,
    /// Global: AUPRC over all pooled test data.
    pub global: TypedAuprc,
}

/// AUPRC per anomaly type T1..T6 (`None` when the type has no instances
/// in scope) and their mean — the paper's "Ave" column is the mean of the
/// six per-type values (verifiable from Table 3's printed numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedAuprc {
    /// The "Ave" column: mean of the available per-type AUPRCs.
    pub average: f64,
    /// Per-type AUPRCs.
    pub per_type: [Option<f64>; 6],
}

fn pooled_auprc(tests: &[&ScoredTest]) -> Option<f64> {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for t in tests {
        scores.extend_from_slice(&t.scores);
        labels.extend_from_slice(&t.labels);
    }
    if labels.iter().any(|&l| l) {
        Some(auprc(&scores, &labels))
    } else {
        None
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Compute the separation scores of a scored test set.
pub fn separation(tests: &[ScoredTest]) -> SeparationScores {
    let _stage = crate::obs::stage("evaluate");
    let by_type = |filter: Option<AnomalyType>| -> Vec<&ScoredTest> {
        tests.iter().filter(|t| filter.is_none() || t.dominant_type == filter).collect()
    };

    let trace_level = |subset: &[&ScoredTest]| -> Option<f64> {
        let per_trace: Vec<f64> = subset.iter().filter_map(|t| pooled_auprc(&[t])).collect();
        if per_trace.is_empty() {
            None
        } else {
            Some(mean(&per_trace))
        }
    };
    let app_level = |subset: &[&ScoredTest]| -> Option<f64> {
        let mut apps: Vec<usize> = subset.iter().map(|t| t.app_id).collect();
        apps.sort_unstable();
        apps.dedup();
        let per_app: Vec<f64> = apps
            .iter()
            .filter_map(|&a| {
                let group: Vec<&ScoredTest> =
                    subset.iter().filter(|t| t.app_id == a).copied().collect();
                pooled_auprc(&group)
            })
            .collect();
        if per_app.is_empty() {
            None
        } else {
            Some(mean(&per_app))
        }
    };
    let global_level = |subset: &[&ScoredTest]| -> Option<f64> { pooled_auprc(subset) };

    let typed = |level: &dyn Fn(&[&ScoredTest]) -> Option<f64>| -> TypedAuprc {
        let mut per_type = [None; 6];
        for (i, t) in AnomalyType::ALL.iter().enumerate() {
            per_type[i] = level(&by_type(Some(*t)));
        }
        let available: Vec<f64> = per_type.iter().flatten().copied().collect();
        TypedAuprc { average: mean(&available), per_type }
    };

    SeparationScores {
        trace: typed(&trace_level),
        app: typed(&app_level),
        global: typed(&global_level),
    }
}

/// Detection performance of one thresholding rule at one AD level.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Rule label (e.g. `"IQR x2.5 (2-pass)"`).
    pub rule: String,
    /// The fitted threshold value.
    pub threshold: f64,
    /// Range-based F1 over all pooled test traces.
    pub f1: f64,
    /// Range-based precision.
    pub precision: f64,
    /// Range-based recall.
    pub recall: f64,
    /// Recall restricted to each anomaly type T1..T6.
    pub per_type_recall: [Option<f64>; 6],
}

/// The threshold-independent half of a detection evaluation, computed
/// once per sweep instead of once per rule: the real anomaly ranges on
/// the pooled timeline, their per-type subsets, and each trace's start
/// offset. Traces are separated by a one-tick gap so cross-trace ranges
/// never interact.
#[derive(Debug, Clone)]
struct PooledTruth {
    /// All real anomaly ranges on the pooled timeline.
    real: Vec<Range>,
    /// Real ranges restricted to each anomaly type T1..T6, in pooled
    /// order (the same order the old per-rule filter produced).
    per_type: [Vec<Range>; 6],
    /// Pooled-timeline start offset of each test trace.
    offsets: Vec<u64>,
}

fn pooled_truth(tests: &[ScoredTest]) -> PooledTruth {
    let mut real = Vec::new();
    let mut per_type: [Vec<Range>; 6] = Default::default();
    let mut offsets = Vec::with_capacity(tests.len());
    let mut offset = 0u64;
    for t in tests {
        offsets.push(offset);
        for (atype, r) in &t.typed_ranges {
            let shifted = Range::new(r.start + offset, r.end + offset);
            real.push(shifted);
            if let Some(i) = AnomalyType::ALL.iter().position(|a| a == atype) {
                per_type[i].push(shifted);
            }
        }
        offset += t.scores.len() as u64 + 1;
    }
    PooledTruth { real, per_type, offsets }
}

/// Predicted ranges for one threshold, derived directly from the scores:
/// one range per maximal run of `score >= threshold` per trace, shifted
/// to the pooled timeline. Exactly the ranges
/// `ranges_from_flags(ThresholdRule::apply(threshold, scores), offset)`
/// produces, without materializing a per-record flag vector per rule.
fn predicted_ranges(tests: &[ScoredTest], offsets: &[u64], threshold: f64) -> Vec<Range> {
    let mut predicted = Vec::new();
    for (t, &offset) in tests.iter().zip(offsets) {
        let mut open: Option<u64> = None;
        for (i, &s) in t.scores.iter().enumerate() {
            let tick = offset + i as u64;
            match (s >= threshold, open) {
                (true, None) => open = Some(tick),
                (false, Some(start)) => {
                    predicted.push(Range::new(start, tick));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            predicted.push(Range::new(start, offset + t.scores.len() as u64));
        }
    }
    predicted
}

/// Evaluate a model's detection ability at one AD level across all 24
/// thresholding rules.
///
/// The 24 thresholds are fitted in one pass over the sorted D² scores
/// ([`ThresholdRule::fit_grid`]), and the pooled ground truth (real
/// ranges, typed subsets, trace offsets) is computed once and shared by
/// every rule; only the predicted ranges depend on the threshold. The
/// rule grid fans out on the shared worker pool ([`crate::par`]); every
/// rule evaluation is independent and output order matches
/// `ThresholdRule::all_rules()`, so results are identical to the
/// sequential sweep.
pub fn evaluate_detection(
    model: &TrainedModel,
    tests: &[ScoredTest],
    level: AdLevel,
) -> Vec<DetectionOutcome> {
    let _stage = crate::obs::stage("threshold");
    let grid: Vec<(ThresholdRule, f64)> = ThresholdRule::all_rules()
        .into_iter()
        .zip(ThresholdRule::fit_grid(&model.d2_scores))
        .collect();
    let truth = pooled_truth(tests);
    crate::par::par_map(&grid, |(rule, threshold)| {
        let _sp = crate::obs::span("threshold", "rule");
        detection_core(&rule.label(), *threshold, tests, &truth, level)
    })
}

/// Evaluate detection at a fixed threshold (used both by the rule sweep
/// and by ablation benches).
pub fn detection_with_threshold(
    rule_label: &str,
    threshold: f64,
    tests: &[ScoredTest],
    level: AdLevel,
) -> DetectionOutcome {
    detection_core(rule_label, threshold, tests, &pooled_truth(tests), level)
}

/// The per-rule half of a detection evaluation against a precomputed
/// [`PooledTruth`].
fn detection_core(
    rule_label: &str,
    threshold: f64,
    tests: &[ScoredTest],
    truth: &PooledTruth,
    level: AdLevel,
) -> DetectionOutcome {
    let predicted = predicted_ranges(tests, &truth.offsets, threshold);
    let scores = evaluate_at_level(&truth.real, &predicted, level);
    let mut per_type_recall = [None; 6];
    for (i, subset) in truth.per_type.iter().enumerate() {
        if !subset.is_empty() {
            per_type_recall[i] = Some(range_recall(subset, &predicted, &level.recall_params()));
        }
    }
    DetectionOutcome {
        rule: rule_label.to_string(),
        threshold,
        f1: scores.f1,
        precision: scores.precision,
        recall: scores.recall,
        per_type_recall,
    }
}

/// The paper's reporting: the best (upper bound) and the median
/// (realistic) outcome by F1 over the rule grid.
pub fn best_and_median(outcomes: &[DetectionOutcome]) -> (DetectionOutcome, DetectionOutcome) {
    assert!(!outcomes.is_empty(), "no outcomes to rank");
    let mut sorted: Vec<&DetectionOutcome> = outcomes.iter().collect();
    sorted.sort_by(|a, b| b.f1.total_cmp(&a.f1));
    let best = sorted[0].clone();
    let median = sorted[sorted.len() / 2].clone();
    (best, median)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built scored test: scores perfectly track labels.
    fn perfect_test(trace_id: usize, app_id: usize, atype: AnomalyType) -> ScoredTest {
        let labels: Vec<bool> = (0..100).map(|i| (40..60).contains(&i)).collect();
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        ScoredTest {
            trace_id,
            app_id,
            dominant_type: Some(atype),
            scores,
            labels,
            typed_ranges: vec![(atype, Range::new(40, 60))],
        }
    }

    /// Scores uncorrelated with labels.
    fn random_test(trace_id: usize, app_id: usize, atype: AnomalyType) -> ScoredTest {
        let labels: Vec<bool> = (0..100).map(|i| (40..60).contains(&i)).collect();
        let scores: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        ScoredTest {
            trace_id,
            app_id,
            dominant_type: Some(atype),
            scores,
            labels,
            typed_ranges: vec![(atype, Range::new(40, 60))],
        }
    }

    #[test]
    fn perfect_scores_give_unit_auprc_everywhere() {
        let tests = vec![
            perfect_test(0, 0, AnomalyType::BurstyInput),
            perfect_test(1, 1, AnomalyType::StalledInput),
        ];
        let s = separation(&tests);
        assert!((s.trace.average - 1.0).abs() < 1e-9);
        assert!((s.app.average - 1.0).abs() < 1e-9);
        assert!((s.global.average - 1.0).abs() < 1e-9);
        assert_eq!(s.trace.per_type[0], Some(1.0)); // T1
        assert_eq!(s.trace.per_type[2], Some(1.0)); // T3
        assert_eq!(s.trace.per_type[1], None); // no T2 traces
    }

    #[test]
    fn separation_degrades_from_trace_to_global() {
        // Two traces of the SAME type whose score scales differ: each
        // separates perfectly on its own, but pooled the low-scale trace's
        // anomalies rank below the other's normals — the paper's trace ->
        // global degradation.
        let mut low_scale = perfect_test(0, 0, AnomalyType::BurstyInput);
        for s in &mut low_scale.scores {
            *s *= 0.1; // anomalies score 0.1 here
        }
        let mut high_noise = perfect_test(1, 1, AnomalyType::BurstyInput);
        for (i, s) in high_noise.scores.iter_mut().enumerate() {
            *s = if high_noise.labels[i] { 2.0 } else { 0.5 };
        }
        let tests = vec![low_scale, high_noise];
        let s = separation(&tests);
        assert!((s.trace.average - 1.0).abs() < 1e-9, "each trace separates perfectly");
        assert!(
            s.global.average < s.trace.average,
            "pooling must hurt: trace {} vs global {}",
            s.trace.average,
            s.global.average
        );
    }

    #[test]
    fn average_is_mean_of_per_type_values() {
        let tests = vec![
            perfect_test(0, 0, AnomalyType::BurstyInput),
            random_test(1, 1, AnomalyType::StalledInput),
        ];
        let s = separation(&tests);
        let t1 = s.trace.per_type[0].unwrap();
        let t3 = s.trace.per_type[2].unwrap();
        assert!((s.trace.average - (t1 + t3) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn detection_pooling_counts_all_traces() {
        let tests = vec![
            perfect_test(0, 0, AnomalyType::BurstyInput),
            perfect_test(1, 0, AnomalyType::BurstyInput),
        ];
        let out = detection_with_threshold("fixed", 0.5, &tests, AdLevel::Range);
        assert!((out.f1 - 1.0).abs() < 1e-9);
        assert_eq!(out.per_type_recall[0], Some(1.0));
        assert_eq!(out.per_type_recall[3], None);
    }

    #[test]
    fn threshold_too_high_kills_recall() {
        let tests = vec![perfect_test(0, 0, AnomalyType::BurstyInput)];
        let out = detection_with_threshold("fixed", 2.0, &tests, AdLevel::Range);
        assert_eq!(out.recall, 0.0);
        assert_eq!(out.precision, 1.0, "no predictions, no false alarms");
    }

    #[test]
    fn best_and_median_ordering() {
        let mk = |f1: f64| DetectionOutcome {
            rule: format!("r{f1}"),
            threshold: 0.0,
            f1,
            precision: f1,
            recall: f1,
            per_type_recall: [None; 6],
        };
        let outcomes = vec![mk(0.2), mk(0.9), mk(0.5)];
        let (best, median) = best_and_median(&outcomes);
        assert_eq!(best.f1, 0.9);
        assert_eq!(median.f1, 0.5);
    }

    #[test]
    fn pooled_ranges_do_not_collide() {
        let tests = vec![
            perfect_test(0, 0, AnomalyType::BurstyInput),
            perfect_test(1, 0, AnomalyType::BurstyInput),
        ];
        let truth = pooled_truth(&tests);
        let predicted = predicted_ranges(&tests, &truth.offsets, 0.5);
        assert_eq!(truth.real.len(), 2);
        assert_eq!(predicted.len(), 2);
        assert!(truth.real[1].start > truth.real[0].end, "trace offsets must separate ranges");
    }

    /// The direct score-run derivation must produce exactly the ranges the
    /// historical `ranges_from_flags(ThresholdRule::apply(..))` composition
    /// did, for every threshold position — including all-above (trailing
    /// open run), all-below (no ranges), and runs touching both ends.
    #[test]
    fn predicted_ranges_match_flags_composition() {
        use exathlon_tsmetrics::ranges::ranges_from_flags;
        let mut edge = perfect_test(2, 1, AnomalyType::CpuContention);
        // Runs touching both ends of the trace plus an interior run.
        for (i, s) in edge.scores.iter_mut().enumerate() {
            *s = if i < 5 || (30..33).contains(&i) || i >= 95 { 1.0 } else { 0.0 };
        }
        let tests = vec![
            perfect_test(0, 0, AnomalyType::BurstyInput),
            random_test(1, 0, AnomalyType::StalledInput),
            edge,
        ];
        let truth = pooled_truth(&tests);
        for &threshold in &[-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0] {
            let direct = predicted_ranges(&tests, &truth.offsets, threshold);
            let mut expected = Vec::new();
            let mut offset = 0u64;
            for t in &tests {
                let flags = ThresholdRule::apply(threshold, &t.scores);
                expected.extend(ranges_from_flags(&flags, offset));
                offset += t.scores.len() as u64 + 1;
            }
            assert_eq!(direct, expected, "threshold {threshold}");
        }
    }
}
