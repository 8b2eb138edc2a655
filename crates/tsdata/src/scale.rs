//! Feature rescaling.
//!
//! "Most ML algorithms require the features to be scaled into a range"
//! (§5 step 2.iii). The pipeline provides:
//!
//! * [`MinMaxScaler`] — maps each feature into `[0, 1]` using the training
//!   range,
//! * [`StandardScaler`] — zero mean / unit variance using training moments,
//! * [`DynamicScaler`] — the paper's customized method that "rescales test
//!   data dynamically as we run an AD model over the data", because each
//!   test trace may represent an unseen (input-rate, concurrency) context.
//!   It keeps exponentially-weighted running estimates of per-feature center
//!   and spread, seeded from the training statistics.

use crate::series::TimeSeries;

/// Spread values below this are treated as constant features and mapped
/// to zero deviation instead of exploding.
const MIN_SPREAD: f64 = 1e-12;

/// A fitted per-feature affine scaler `x -> (x - center) / spread`.
trait AffineScale {
    fn center(&self) -> &[f64];
    fn spread(&self) -> &[f64];

    fn transform_record_into(&self, record: &[f64], out: &mut Vec<f64>) {
        for ((&x, &c), &s) in record.iter().zip(self.center()).zip(self.spread()) {
            if x.is_nan() {
                out.push(0.0);
            } else if s > MIN_SPREAD {
                out.push((x - c) / s);
            } else {
                out.push(0.0);
            }
        }
    }
}

fn transform_series<S: AffineScale>(scaler: &S, ts: &TimeSeries) -> TimeSeries {
    let mut values = Vec::with_capacity(ts.len() * ts.dims());
    for r in ts.records() {
        scaler.transform_record_into(r, &mut values);
    }
    TimeSeries::from_flat(ts.names().to_vec(), ts.start_tick(), values)
}

/// Min-max scaler: `(x - min) / (max - min)`, clamping is left to callers.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit on training data: per-feature min and range over finite values.
    pub fn fit(train: &TimeSeries) -> Self {
        let m = train.dims();
        let mut mins = vec![f64::INFINITY; m];
        let mut maxs = vec![f64::NEG_INFINITY; m];
        for r in train.records() {
            for j in 0..m {
                let x = r[j];
                if !x.is_nan() {
                    mins[j] = mins[j].min(x);
                    maxs[j] = maxs[j].max(x);
                }
            }
        }
        for j in 0..m {
            if !mins[j].is_finite() {
                mins[j] = 0.0;
                maxs[j] = 0.0;
            }
        }
        let ranges = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
        Self { mins, ranges }
    }

    /// Transform a series feature-by-feature into (roughly) `[0, 1]`.
    pub fn transform(&self, ts: &TimeSeries) -> TimeSeries {
        transform_series(self, ts)
    }

    /// Transform a single record.
    pub fn transform_record(&self, record: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(record.len());
        self.transform_record_into(record, &mut out);
        out
    }
}

impl AffineScale for MinMaxScaler {
    fn center(&self) -> &[f64] {
        &self.mins
    }
    fn spread(&self) -> &[f64] {
        &self.ranges
    }
}

/// Standard scaler: `(x - mean) / std`.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit per-feature mean and population standard deviation.
    pub fn fit(train: &TimeSeries) -> Self {
        Self::fit_pooled(&[train])
    }

    /// Fit on several traces pooled, via streaming moments — no
    /// concatenated copy of the training set is ever materialized.
    ///
    /// Bitwise identical to `fit` on the concatenation: each feature's
    /// accumulator receives its non-NaN values in exactly
    /// record-over-concatenation order, the same addition sequence the
    /// per-column path performs (pinned by a test below).
    ///
    /// # Panics
    /// Panics if `traces` is empty or the traces disagree on features.
    pub fn fit_pooled(traces: &[&TimeSeries]) -> Self {
        assert!(!traces.is_empty(), "no series to fit on");
        let m = traces[0].dims();
        let mut sums = vec![0.0; m];
        let mut ns = vec![0usize; m];
        for ts in traces {
            assert_eq!(ts.dims(), m, "pooled fit feature mismatch");
            for r in ts.records() {
                for (j, &x) in r.iter().enumerate() {
                    if !x.is_nan() {
                        sums[j] += x;
                        ns[j] += 1;
                    }
                }
            }
        }
        let means: Vec<f64> =
            sums.iter().zip(&ns).map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 }).collect();
        let mut sq = vec![0.0; m];
        for ts in traces {
            for r in ts.records() {
                for (j, &x) in r.iter().enumerate() {
                    if !x.is_nan() {
                        sq[j] += (x - means[j]) * (x - means[j]);
                    }
                }
            }
        }
        let stds: Vec<f64> = sq
            .iter()
            .zip(&ns)
            .map(|(&s, &n)| if n == 0 { 0.0 } else { (s / n as f64).sqrt() })
            .collect();
        Self { means, stds }
    }

    /// Transform a series to zero mean / unit variance per feature.
    pub fn transform(&self, ts: &TimeSeries) -> TimeSeries {
        transform_series(self, ts)
    }

    /// Transform a single record.
    pub fn transform_record(&self, record: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(record.len());
        self.transform_record_into(record, &mut out);
        out
    }

    /// Per-feature means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-feature standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

impl AffineScale for StandardScaler {
    fn center(&self) -> &[f64] {
        &self.means
    }
    fn spread(&self) -> &[f64] {
        &self.stds
    }
}

/// The paper's dynamic test-time scaler.
///
/// Seeded with training statistics, it updates exponentially-weighted
/// estimates of per-feature mean and deviation from the test records it has
/// already seen, so that a test trace generated in an unseen context (e.g.
/// a new input rate) is normalized relative to *its own* recent history
/// rather than the training distribution alone.
#[derive(Debug, Clone)]
pub struct DynamicScaler {
    means: Vec<f64>,
    vars: Vec<f64>,
    /// EW update weight for each new record, in `(0, 1)`. Smaller = slower
    /// adaptation.
    alpha: f64,
}

impl DynamicScaler {
    /// Seed from training data with adaptation rate `alpha`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn fit(train: &TimeSeries, alpha: f64) -> Self {
        Self::from_standard(StandardScaler::fit(train), alpha)
    }

    /// Seed from an already-fitted [`StandardScaler`] (e.g. one fitted on
    /// pooled training traces) with adaptation rate `alpha`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn from_standard(base: StandardScaler, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let vars = base.stds.iter().map(|s| s * s).collect();
        Self { means: base.means, vars, alpha }
    }

    /// Rebuild a scaler from previously extracted state (e.g. a
    /// checkpoint). The state is adopted verbatim, so a round trip
    /// through the accessors is bitwise lossless and the restored scaler
    /// continues the exact update sequence of the original.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length or `alpha` is outside
    /// `(0, 1)`.
    pub fn from_state(means: Vec<f64>, vars: Vec<f64>, alpha: f64) -> Self {
        assert_eq!(means.len(), vars.len(), "state length mismatch");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        Self { means, vars, alpha }
    }

    /// Current per-feature running means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Current per-feature running variances.
    pub fn vars(&self) -> &[f64] {
        &self.vars
    }

    /// The EW adaptation rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Normalize one record with the *current* statistics, then fold the
    /// record into the running estimates.
    pub fn transform_and_update(&mut self, record: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(record.len());
        self.transform_and_update_into(record, &mut out);
        out
    }

    /// [`Self::transform_and_update`] appending into a caller-owned buffer
    /// — the allocation-free form the fused transform chain builds on.
    pub fn transform_and_update_into(&mut self, record: &[f64], out: &mut Vec<f64>) {
        assert_eq!(record.len(), self.means.len(), "record dimension mismatch");
        for (j, &x) in record.iter().enumerate() {
            let std = self.vars[j].sqrt();
            if x.is_nan() {
                out.push(0.0);
                continue;
            }
            if std > MIN_SPREAD {
                out.push((x - self.means[j]) / std);
            } else {
                out.push(0.0);
            }
            // EW update after using the old statistics.
            let delta = x - self.means[j];
            self.means[j] += self.alpha * delta;
            self.vars[j] = (1.0 - self.alpha) * (self.vars[j] + self.alpha * delta * delta);
        }
    }

    /// Transform a whole series sequentially (statistics evolve as we go),
    /// resetting nothing — callers should clone the scaler per trace.
    pub fn transform_series(&mut self, ts: &TimeSeries) -> TimeSeries {
        let mut values = Vec::with_capacity(ts.len() * ts.dims());
        for r in ts.records() {
            self.transform_and_update_into(r, &mut values);
        }
        TimeSeries::from_flat(ts.names().to_vec(), ts.start_tick(), values)
    }

    /// Fused `resample_mean(ts, l)` + [`Self::transform_series`] in one
    /// pass: each resampled record is scaled the moment its interval
    /// closes, with no intermediate [`TimeSeries`] in between. Bitwise
    /// identical to the staged pair (the resampled values and the scaler's
    /// update sequence are the same).
    pub fn transform_series_resampled(&mut self, ts: &TimeSeries, l: usize) -> TimeSeries {
        let mut values = Vec::with_capacity(ts.len().div_ceil(l.max(1)) * ts.dims());
        crate::resample::resample_mean_into(ts, l, &mut |rec| {
            self.transform_and_update_into(rec, &mut values);
        });
        TimeSeries::from_flat(ts.names().to_vec(), ts.start_tick(), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::default_names;

    // NaN-skipping column moments, matching exathlon-linalg's semantics —
    // the pre-dataplane per-column fit algorithm, retained as the bitwise
    // reference for `fit_pooled`'s streaming moments.
    fn exathlon_linalg_mean(xs: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &x in xs {
            if !x.is_nan() {
                sum += x;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn exathlon_linalg_std(xs: &[f64]) -> f64 {
        let m = exathlon_linalg_mean(xs);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &x in xs {
            if !x.is_nan() {
                sum += (x - m) * (x - m);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).sqrt()
        }
    }

    fn train() -> TimeSeries {
        TimeSeries::from_records(
            default_names(2),
            0,
            &[vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]],
        )
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let sc = MinMaxScaler::fit(&train());
        let t = sc.transform(&train());
        assert_eq!(t.feature_column(0), vec![0.0, 0.5, 1.0]);
        assert_eq!(t.feature_column(1), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn minmax_out_of_range_extends() {
        let sc = MinMaxScaler::fit(&train());
        let out = sc.transform_record(&[20.0, 10.0]);
        assert_eq!(out, vec![2.0, 0.0]);
    }

    #[test]
    fn minmax_constant_feature_is_zero() {
        let ts = TimeSeries::from_records(default_names(1), 0, &[vec![4.0], vec![4.0]]);
        let sc = MinMaxScaler::fit(&ts);
        assert_eq!(sc.transform(&ts).feature_column(0), vec![0.0, 0.0]);
    }

    #[test]
    fn standard_zero_mean_unit_var() {
        let sc = StandardScaler::fit(&train());
        let t = sc.transform(&train());
        let col = t.feature_column(0);
        let m = exathlon_linalg_mean(&col);
        let s = exathlon_linalg_std(&col);
        assert!(m.abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standard_nan_maps_to_zero() {
        let sc = StandardScaler::fit(&train());
        let out = sc.transform_record(&[f64::NAN, 20.0]);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn dynamic_matches_standard_initially() {
        let tr = train();
        let std_sc = StandardScaler::fit(&tr);
        let mut dyn_sc = DynamicScaler::fit(&tr, 0.01);
        let rec = [5.0, 20.0];
        let a = std_sc.transform_record(&rec);
        let b = dyn_sc.transform_and_update(&rec);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dynamic_adapts_to_level_shift() {
        let tr = train();
        let mut dyn_sc = DynamicScaler::fit(&tr, 0.2);
        // Feed a sustained shift to mean 100: normalized values must shrink
        // over time as the scaler adapts.
        let first = dyn_sc.transform_and_update(&[100.0, 100.0])[0];
        let mut last = first;
        for _ in 0..50 {
            last = dyn_sc.transform_and_update(&[100.0, 100.0])[0];
        }
        assert!(last.abs() < first.abs() / 2.0, "no adaptation: {first} -> {last}");
    }

    #[test]
    fn dynamic_series_transform_evolves() {
        let tr = train();
        let mut dyn_sc = DynamicScaler::fit(&tr, 0.3);
        let test = TimeSeries::from_records(
            default_names(2),
            0,
            &[vec![50.0, 50.0], vec![50.0, 50.0], vec![50.0, 50.0]],
        );
        let t = dyn_sc.transform_series(&test);
        let col = t.feature_column(0);
        assert!(col[2].abs() < col[0].abs());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn dynamic_bad_alpha_panics() {
        let _ = DynamicScaler::fit(&train(), 1.5);
    }

    #[test]
    fn fit_pooled_matches_fit_on_concatenation_bitwise() {
        let a = TimeSeries::from_records(
            default_names(2),
            0,
            &[vec![0.1, f64::NAN], vec![-3.5, 10.0], vec![7.25, 0.3]],
        );
        let b = TimeSeries::from_records(
            default_names(2),
            9,
            &[vec![f64::NAN, 2.0], vec![1e9, -2.0e-3]],
        );
        let mut concat = a.clone();
        concat.append(&b);
        let pooled = StandardScaler::fit_pooled(&[&a, &b]);
        // Reference: the pre-dataplane per-column fit over the
        // materialized concatenation.
        for j in 0..concat.dims() {
            let col = concat.feature_column(j);
            assert_eq!(pooled.means()[j].to_bits(), exathlon_linalg_mean(&col).to_bits());
            assert_eq!(pooled.stds()[j].to_bits(), exathlon_linalg_std(&col).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "no series")]
    fn fit_pooled_empty_panics() {
        let _ = StandardScaler::fit_pooled(&[]);
    }

    #[test]
    fn fused_resample_scale_matches_staged_bitwise() {
        let ts = TimeSeries::from_records(
            default_names(2),
            3,
            &[
                vec![50.0, -0.0],
                vec![f64::NAN, 48.0],
                vec![52.0, 51.0],
                vec![49.0, f64::NAN],
                vec![47.0, 50.5],
            ],
        );
        for l in [1, 2, 3, 7] {
            let base = StandardScaler::fit(&train());
            let mut staged_sc = DynamicScaler::from_standard(base.clone(), 0.25);
            let staged = staged_sc.transform_series(&crate::resample::resample_mean(&ts, l));
            let mut fused_sc = DynamicScaler::from_standard(base, 0.25);
            let fused = fused_sc.transform_series_resampled(&ts, l);
            assert!(staged.same_data(&fused), "l={l}");
        }
    }
}
