//! Pipeline phase 2: data transformation (§5 step 2).
//!
//! Resampling (cardinality factor `α = 1/l`), dimensionality reduction
//! (`FS_custom` / `FS_pca`), and rescaling. The transform is *fitted* on
//! training data only; test traces are rescaled dynamically (the paper's
//! customized test-time scaler) because each test trace may come from an
//! unseen (rate, concurrency) context.
//!
//! This module also owns the bookkeeping the later phases need: mapping
//! ground-truth tick intervals into the transformed record-index space
//! (differencing shifts ticks by one; resampling collapses `l` ticks per
//! record).

use crate::config::{ExperimentConfig, FeatureSpace};
use crate::partition::TestSegment;
use exathlon_linalg::pca::{ComponentSelection, Pca};
use exathlon_linalg::Matrix;
use exathlon_sparksim::deg::AnomalyType;
use exathlon_sparksim::metrics::custom_feature_set;
use exathlon_tsdata::resample::resample_mean;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::TimeSeries;
use exathlon_tsmetrics::Range;

/// Adaptation rate of the dynamic test-time scaler.
const DYNAMIC_ALPHA: f64 = 0.004;

/// Input dimensionality `FS_pca` operates on. The paper applies PCA to the
/// raw 2,283-metric layout; fitting a Jacobi eigendecomposition at 2,283
/// dims is out of laptop budget, so PCA runs on a 300-dimension expansion
/// with the same structure (base signals + correlated noisy mixtures +
/// executor nulls) — large enough that variance-based selection drowns the
/// low-variance delay signals, which is the effect Table 8 measures.
const PCA_INPUT_DIMS: usize = 300;
/// Cap on the records used to fit the PCA (uniform stride subsample).
const PCA_FIT_RECORDS: usize = 4000;

/// A fitted end-to-end transform: feature extraction + resampling +
/// scaling.
#[derive(Debug, Clone)]
pub struct FittedTransform {
    feature_space: FeatureSpace,
    resample_l: usize,
    pca: Option<Pca>,
    scaler: StandardScaler,
}

/// A transformed test segment, ready for AD inference and evaluation.
#[derive(Debug, Clone)]
pub struct TransformedTest {
    /// Trace id in the dataset.
    pub trace_id: usize,
    /// Application id.
    pub app_id: usize,
    /// Dominant anomaly type of the trace.
    pub dominant_type: Option<AnomalyType>,
    /// The transformed series (record-index space).
    pub series: TimeSeries,
    /// Point-wise ground-truth labels, one per transformed record.
    pub labels: Vec<bool>,
    /// Ground-truth anomaly ranges in record-index space, tagged by type.
    pub typed_ranges: Vec<(AnomalyType, Range)>,
}

impl TransformedTest {
    /// The untyped real anomaly ranges.
    pub fn real_ranges(&self) -> Vec<Range> {
        self.typed_ranges.iter().map(|(_, r)| *r).collect()
    }
}

impl FittedTransform {
    /// Fit the transform on training base-metric series and return it
    /// along with the transformed training series.
    ///
    /// # Panics
    /// Panics if `train` is empty or traces are too short to difference.
    pub fn fit(train: &[TimeSeries], config: &ExperimentConfig) -> (Self, Vec<TimeSeries>) {
        assert!(!train.is_empty(), "no training traces to fit on");
        let l = config.resample_interval.max(1);

        // Feature extraction (unscaled).
        let pca = match config.feature_space {
            FeatureSpace::Custom => None,
            FeatureSpace::Pca(k) => {
                // PCA is fitted on the expanded raw metric layout of the
                // training traces (NaN imputed to 0, as inactive-executor
                // nulls), subsampled to keep the covariance fit tractable.
                // The subsample indices are picked up front so only the
                // selected records are ever gathered (NaN-filled straight
                // into the fit matrix), instead of materializing and
                // filling every expanded record first.
                let total: usize = train.iter().map(|ts| ts.len()).sum();
                let picks = exathlon_tsdata::sample::stride_indices(total, PCA_FIT_RECORDS);
                let mut data = Matrix::zeros(picks.len(), PCA_INPUT_DIMS);
                let mut next = 0usize;
                let mut base_idx = 0usize;
                for ts in train {
                    let expanded = exathlon_sparksim::metrics::expand_to_full(ts, PCA_INPUT_DIMS);
                    while next < picks.len() && picks[next] < base_idx + expanded.len() {
                        let rec = expanded.record(picks[next] - base_idx);
                        for (o, &v) in data.row_mut(next).iter_mut().zip(rec) {
                            *o = if v.is_nan() { 0.0 } else { v };
                        }
                        next += 1;
                    }
                    base_idx += expanded.len();
                }
                Some(Pca::fit(&data, ComponentSelection::Fixed(k)))
            }
        };

        // Extract + resample all training traces, then fit the scaler on
        // the pool via streaming moments (no concatenated clone).
        let unscaled: Vec<TimeSeries> = train
            .iter()
            .map(|ts| resample_mean(&Self::extract(config.feature_space, pca.as_ref(), ts), l))
            .collect();
        let refs: Vec<&TimeSeries> = unscaled.iter().collect();
        let scaler = StandardScaler::fit_pooled(&refs);
        let this = Self { feature_space: config.feature_space, resample_l: l, pca, scaler };

        let transformed = unscaled.iter().map(|ts| this.scaler.transform(ts)).collect();
        (this, transformed)
    }

    /// Dimensionality of the transformed space.
    pub fn output_dims(&self) -> usize {
        match self.feature_space {
            FeatureSpace::Custom => 19,
            FeatureSpace::Pca(k) => k,
        }
    }

    /// Feature extraction, no resampling or scaling. An associated
    /// function (not `&self`) so [`FittedTransform::fit`] can extract
    /// before the scaler exists.
    fn extract(feature_space: FeatureSpace, pca: Option<&Pca>, base: &TimeSeries) -> TimeSeries {
        match (feature_space, pca) {
            (FeatureSpace::Custom, _) => custom_feature_set(base),
            (FeatureSpace::Pca(k), Some(pca)) => {
                let expanded = exathlon_sparksim::metrics::expand_to_full(base, PCA_INPUT_DIMS);
                // NaN must be imputed to 0 *before* projecting — the
                // projection's own NaN handling imputes in centered space,
                // which is a different value. One reused scratch record
                // replaces the whole-series filled clone.
                let mut scratch = vec![0.0; expanded.dims()];
                let mut values = Vec::with_capacity(expanded.len() * k);
                for rec in expanded.records() {
                    for (s, &v) in scratch.iter_mut().zip(rec) {
                        *s = if v.is_nan() { 0.0 } else { v };
                    }
                    values.extend_from_slice(&pca.transform_row(&scratch));
                }
                let names = (0..k).map(|i| format!("pc{i}")).collect();
                TimeSeries::from_flat(names, base.start_tick(), values)
            }
            (FeatureSpace::Pca(_), None) => unreachable!("PCA space requires a fitted PCA"),
        }
    }

    /// Feature extraction + resampling, no scaling (staged path).
    fn extract_and_resample(&self, base: &TimeSeries) -> TimeSeries {
        let extracted = Self::extract(self.feature_space, self.pca.as_ref(), base);
        resample_mean(&extracted, self.resample_l)
    }

    /// Public form of the unscaled test transform, for callers that feed
    /// the serving layer: extract + resample a raw trace, leaving the
    /// dynamic scaling to the per-tenant [`DynamicScaler`] owned by the
    /// serving profile.
    pub fn extract_unscaled(&self, base: &TimeSeries) -> TimeSeries {
        self.extract_and_resample(base)
    }

    /// A fresh test-time dynamic scaler seeded from this transform's
    /// training statistics — the same construction
    /// [`FittedTransform::apply_test`] performs per trace. Serving
    /// profiles own one of these per tenant so each entity adapts to its
    /// own context.
    pub fn serving_scaler(&self) -> DynamicScaler {
        DynamicScaler::from_standard(self.scaler.clone(), DYNAMIC_ALPHA)
    }

    /// Transform a test segment: extract, resample, dynamically rescale,
    /// and project the ground truth into record-index space.
    ///
    /// Resampling and rescaling run as one fused streaming pass, bitwise
    /// identical to resampling first and then rescaling the materialized
    /// intermediate (pinned in `exathlon_tsdata::scale`'s tests).
    pub fn apply_test(&self, segment: &TestSegment) -> TransformedTest {
        // Dynamic test-time rescaling seeded from the training statistics:
        // clone per trace so traces do not contaminate each other.
        let mut dynamic = DynamicScaler::from_standard(self.scaler.clone(), DYNAMIC_ALPHA);
        let extracted = Self::extract(self.feature_space, self.pca.as_ref(), &segment.series);
        let series = dynamic.transform_series_resampled(&extracted, self.resample_l);
        self.finish_test(segment, series)
    }

    /// Ablation variant of [`FittedTransform::apply_test`]: rescale the
    /// test segment with a frozen scaler (training statistics only, no
    /// test-time adaptation). Used by the `ablation_scaling` bench binary
    /// to quantify the paper's dynamic-rescaling design choice.
    pub fn apply_test_static(
        &self,
        segment: &TestSegment,
        scaler: &StandardScaler,
    ) -> TransformedTest {
        let unscaled = self.extract_and_resample(&segment.series);
        let series = scaler.transform(&self.scaler.transform(&unscaled));
        self.finish_test(segment, series)
    }

    /// Shared tail of the test transforms: ground-truth projection into
    /// record-index space.
    fn finish_test(&self, segment: &TestSegment, series: TimeSeries) -> TransformedTest {
        let n = series.len();
        let st = series.start_tick();
        let l = self.resample_l as u64;
        // Record i covers ticks [st + i*l, st + (i+1)*l).
        let mut labels = vec![false; n];
        let mut typed_ranges = Vec::new();
        for e in &segment.entries {
            let (a_start, a_end) = e.anomaly_interval();
            if a_end <= st {
                continue; // anomaly entirely before the segment (peeked head)
            }
            let i_start = a_start.saturating_sub(st) / l;
            let i_end = a_end.saturating_sub(st).div_ceil(l).min(n as u64);
            if i_start >= i_end {
                continue;
            }
            for i in i_start..i_end {
                labels[i as usize] = true;
            }
            typed_ranges.push((e.anomaly_type, Range::new(i_start, i_end)));
        }

        TransformedTest {
            trace_id: segment.trace_id,
            app_id: segment.app_id,
            dominant_type: segment.dominant_type,
            series,
            labels,
            typed_ranges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearningSetting;
    use crate::partition::partition;
    use exathlon_sparksim::dataset::DatasetBuilder;

    fn setup(
        config: &ExperimentConfig,
    ) -> (FittedTransform, Vec<TimeSeries>, Vec<TransformedTest>) {
        let ds = DatasetBuilder::tiny(5).build();
        let p = partition(&ds, LearningSetting::ls4(), 0.2);
        let (ft, train) = FittedTransform::fit(&p.train, config);
        let test: Vec<TransformedTest> = p.test.iter().map(|s| ft.apply_test(s)).collect();
        (ft, train, test)
    }

    #[test]
    fn custom_space_is_19_dimensional() {
        let (ft, train, test) = setup(&ExperimentConfig::default());
        assert_eq!(ft.output_dims(), 19);
        assert!(train.iter().all(|t| t.dims() == 19));
        assert!(test.iter().all(|t| t.series.dims() == 19));
    }

    #[test]
    fn pca_space_has_requested_dims() {
        let config =
            ExperimentConfig { feature_space: FeatureSpace::Pca(8), ..ExperimentConfig::default() };
        let (ft, train, _) = setup(&config);
        assert_eq!(ft.output_dims(), 8);
        assert!(train.iter().all(|t| t.dims() == 8));
    }

    #[test]
    fn training_data_roughly_standardized() {
        let (_, train, _) = setup(&ExperimentConfig::default());
        let mut pooled = train[0].clone();
        for t in &train[1..] {
            pooled.append(t);
        }
        for j in 0..pooled.dims() {
            let col = pooled.feature_column(j);
            let m = exathlon_linalg::stats::mean(&col);
            assert!(m.abs() < 0.2, "feature {j} mean {m} not centered");
        }
    }

    #[test]
    fn labels_align_with_ground_truth() {
        let (_, _, test) = setup(&ExperimentConfig::default());
        for t in &test {
            assert_eq!(t.labels.len(), t.series.len());
            let flagged = t.labels.iter().filter(|&&b| b).count();
            assert!(flagged > 0, "test trace {} has no anomalous records", t.trace_id);
            assert!(flagged < t.labels.len(), "test trace {} is entirely anomalous", t.trace_id);
            // Ranges agree with labels.
            for (_, r) in &t.typed_ranges {
                assert!(t.labels[r.start as usize]);
                assert!(t.labels[(r.end - 1) as usize]);
            }
        }
    }

    #[test]
    fn resampling_shrinks_series_and_keeps_labels() {
        let config = ExperimentConfig { resample_interval: 5, ..ExperimentConfig::default() };
        let (_, _, test5) = setup(&config);
        let (_, _, test1) = setup(&ExperimentConfig::default());
        for (a, b) in test5.iter().zip(&test1) {
            assert!(a.series.len() < b.series.len() / 4);
            assert!(a.labels.iter().any(|&l| l), "resampled labels lost");
        }
    }

    #[test]
    fn typed_ranges_carry_types() {
        let (_, _, test) = setup(&ExperimentConfig::default());
        let types: Vec<AnomalyType> =
            test.iter().flat_map(|t| t.typed_ranges.iter().map(|(a, _)| *a)).collect();
        assert!(types.contains(&AnomalyType::BurstyInput));
        assert!(types.contains(&AnomalyType::StalledInput));
    }
}
