//! Descriptive statistics used across the benchmark.
//!
//! These back three separate parts of the paper:
//!
//! * the unsupervised **threshold-selection** rules `threshold = S1 + c*S2`
//!   with `(S1, S2)` drawn from (mean, std), (median, MAD) or (Q3, IQR)
//!   (Appendix D.2),
//! * the **entropy-based consistency** metrics for explanation discovery
//!   (§4.2: stability and concordance),
//! * the **risk-ratio / reward** computations inside the ED methods
//!   themselves (EXstream's entropy-based single-feature reward, MacroBase's
//!   equal-width binning).
//!
//! All statistics here operate on the *finite* values of their input,
//! skipping NaN (the pipeline's missing-metric encoding) **and** ±inf:
//! a serving path ingesting raw client traffic will see infinities, and a
//! single one flowing into the `(S1, S2)` threshold rules used to yield
//! an infinite or NaN threshold that flags nothing (or everything).

/// Arithmetic mean of the finite values; `0.0` when there are none.
pub fn mean(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
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

/// Population variance of the finite values (divides by `n`); `0.0` when
/// there are none.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    let mut sum = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
            let d = x - m;
            sum += d * d;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sorted copy of the finite values of `xs`. Filtering must reject ±inf
/// too, not just NaN: an inf kept here used to surface as an infinite
/// quantile (and from there an infinite or NaN IQR-rule threshold). The
/// sort is stable, so `-0.0` and `0.0` keep their input order.
pub fn sorted_finite(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
    v
}

/// Linear-interpolation quantile `q in [0, 1]` of the finite values.
/// Returns `0.0` for an empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted_finite(xs);
    quantile_sorted(&v, q)
}

/// Quantile of an already-sorted slice (ascending, no NaN).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of the finite values.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median absolute deviation, scaled by the 1.4826 consistency constant so
/// that it estimates the standard deviation under normality — exactly the
/// `MAD = 1.4826 * median(|X - median(X)|)` definition in Appendix D.2.
pub fn mad(xs: &[f64]) -> f64 {
    let med = median(xs);
    let devs: Vec<f64> = xs.iter().filter(|x| x.is_finite()).map(|&x| (x - med).abs()).collect();
    1.4826 * median(&devs)
}

/// Interquartile range `Q3 - Q1` of the finite values.
pub fn iqr(xs: &[f64]) -> f64 {
    let v = sorted_finite(xs);
    quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)
}

/// First and third quartiles `(Q1, Q3)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted_finite(xs);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.75))
}

/// Minimum of the finite values (`+inf` if none). The filter matches the
/// documented contract: a `-inf` sample is *not* the data minimum, it is
/// a broken measurement (and it used to collapse every histogram range
/// built on top of this function).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().filter(|x| x.is_finite()).fold(f64::INFINITY, f64::min)
}

/// Maximum of the finite values (`-inf` if none).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().filter(|x| x.is_finite()).fold(f64::NEG_INFINITY, f64::max)
}

/// Shannon entropy (base 2) of a discrete distribution given as
/// non-negative weights. Weights are normalized internally; zero weights
/// contribute nothing. Returns `0.0` when the total weight is zero.
///
/// This is the `H(A)` of the paper's consistency metric: identical
/// explanations give entropy `log2(k)` for an explanation of `k` features
/// (the paper's `H_1 = 0`, `H_2 = 1`, `H_3 = 1.58` reference points).
pub fn entropy(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    -weights
        .iter()
        .filter(|w| **w > 0.0)
        .map(|&w| {
            let p = w / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// An equal-width histogram over `[lo, hi]` with `bins` buckets.
///
/// Used by MacroBase's discretization step and by the figure-reproduction
/// binaries that print outlier-score distributions (Figure 4).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Build a histogram of the finite values of `xs` with `bins` equal-width
    /// buckets spanning the finite data range. A degenerate range (all values
    /// equal, or no finite value at all) puts everything in the first bucket.
    ///
    /// Non-finite samples are excluded from the range *and* from the
    /// counts. The counting loop used to skip only NaN, so one ±inf
    /// sample both collapsed the range to the `(0.0, 1.0)` fallback and
    /// still got clamp-counted into an edge bin — a single broken
    /// measurement destroyed the whole distribution.
    pub fn from_data(xs: &[f64], bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        let lo = min(xs);
        let hi = max(xs);
        let (lo, hi) = if lo.is_finite() && hi.is_finite() { (lo, hi) } else { (0.0, 1.0) };
        let mut h = Self { lo, hi, counts: vec![0; bins] };
        for &x in xs {
            if x.is_finite() {
                let b = h.bin_of(x);
                h.counts[b] += 1;
            }
        }
        h
    }

    /// The bucket index for value `x` (clamped to the histogram range).
    pub fn bin_of(&self, x: f64) -> usize {
        let bins = self.counts.len();
        if self.hi <= self.lo {
            return 0;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        ((frac * bins as f64) as isize).clamp(0, bins as isize - 1) as usize
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The exact `[lo, hi]` range the histogram was built over.
    ///
    /// Callers that need the in-range test (`lo <= x <= hi`) must use
    /// this rather than rederiving the bounds from
    /// [`Histogram::bin_bounds`]: `lo + bins * width` is float
    /// arithmetic and can round *below* the true `hi`, misclassifying
    /// the training maximum itself as out-of-range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Serialize into `w` (range bounds bitwise, then the counts).
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_f64(self.lo);
        w.put_f64(self.hi);
        w.put_usizes(&self.counts);
    }

    /// Decode a histogram written by [`Histogram::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        let lo = r.get_f64()?;
        let hi = r.get_f64()?;
        let counts = r.get_usizes()?;
        if counts.is_empty() {
            return Err(crate::codec::CodecError::Corrupt("histogram with zero bins"));
        }
        Ok(Self { lo, hi, counts })
    }

    /// Lower and upper bound of bucket `b`.
    pub fn bin_bounds(&self, b: usize) -> (f64, f64) {
        let bins = self.counts.len() as f64;
        let width = (self.hi - self.lo) / bins;
        (self.lo + b as f64 * width, self.lo + (b + 1) as f64 * width)
    }

    /// Total number of counted values.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Pearson correlation between two equal-length slices; `0.0` when either
/// side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson length mismatch");
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        if x.is_nan() || y.is_nan() {
            continue;
        }
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_skips_nan() {
        assert_eq!(mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn quantile_empty_is_zero() {
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(mad(&[5.0; 10]), 0.0);
    }

    #[test]
    fn mad_known_value() {
        // median = 2, |x - 2| = [1, 0, 1], median deviation = 1
        let xs = [1.0, 2.0, 3.0];
        assert!((mad(&xs) - 1.4826).abs() < 1e-12);
    }

    #[test]
    fn iqr_uniform() {
        let xs: Vec<f64> = (0..=100).map(|x| x as f64).collect();
        assert!((iqr(&xs) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_uniform_is_log2_k() {
        assert!((entropy(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[1.0, 1.0, 1.0]) - 3f64.log2()).abs() < 1e-12);
        assert_eq!(entropy(&[1.0]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_skewed_below_uniform() {
        assert!(entropy(&[9.0, 1.0]) < entropy(&[5.0, 5.0]));
    }

    #[test]
    fn histogram_bins_and_bounds() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let h = Histogram::from_data(&xs, 5);
        assert_eq!(h.total(), 10);
        assert_eq!(h.counts().len(), 5);
        // 9.0 must land in the last bin even though it's the max
        assert_eq!(h.bin_of(9.0), 4);
        let (lo, hi) = h.bin_bounds(0);
        assert_eq!(lo, 0.0);
        assert!((hi - 1.8).abs() < 1e-12);
    }

    #[test]
    fn histogram_degenerate_range() {
        let h = Histogram::from_data(&[3.0, 3.0, 3.0], 4);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts()[0], 3);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn quartiles_match_quantiles() {
        let xs: Vec<f64> = (0..101).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&xs);
        assert_eq!(q1, 25.0);
        assert_eq!(q3, 75.0);
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(min(&[f64::NAN, 2.0, -1.0]), -1.0);
        assert_eq!(max(&[f64::NAN, 2.0, -1.0]), 2.0);
    }

    #[test]
    fn min_max_ignore_infinities() {
        assert_eq!(min(&[f64::NEG_INFINITY, 2.0, -1.0]), -1.0);
        assert_eq!(max(&[f64::INFINITY, 2.0, -1.0]), 2.0);
    }

    #[test]
    fn moments_and_quantiles_ignore_infinities() {
        let clean = [1.0, 2.0, 3.0, 4.0];
        let dirty = [1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY, 3.0, f64::NAN, 4.0];
        assert_eq!(mean(&dirty), mean(&clean));
        assert_eq!(variance(&dirty), variance(&clean));
        assert_eq!(median(&dirty), median(&clean));
        assert_eq!(mad(&dirty), mad(&clean));
        assert_eq!(iqr(&dirty), iqr(&clean));
        assert_eq!(quartiles(&dirty), quartiles(&clean));
    }

    /// Regression test: one ±inf sample used to collapse the range to the
    /// `(0.0, 1.0)` fallback *and* still get counted into a clamped edge
    /// bin — the histogram must instead equal the one built on the finite
    /// values alone.
    #[test]
    fn histogram_ignores_infinite_samples() {
        let finite = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut dirty = finite.to_vec();
        dirty.insert(3, f64::INFINITY);
        dirty.push(f64::NEG_INFINITY);
        dirty.push(f64::NAN);
        let clean_h = Histogram::from_data(&finite, 5);
        let dirty_h = Histogram::from_data(&dirty, 5);
        assert_eq!(dirty_h.range(), (0.0, 9.0), "range must span the finite values");
        assert_eq!(dirty_h.range(), clean_h.range());
        assert_eq!(dirty_h.counts(), clean_h.counts());
        assert_eq!(dirty_h.total(), finite.len());
    }

    #[test]
    fn histogram_all_non_finite_falls_back_empty() {
        let h = Histogram::from_data(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN], 4);
        assert_eq!(h.range(), (0.0, 1.0));
        assert_eq!(h.total(), 0, "non-finite samples must not be counted");
    }

    #[test]
    fn histogram_range_is_exact_not_rederived() {
        // A range whose width does not divide evenly: lo + bins*width
        // rounds off, so bin_bounds can disagree with the true bounds.
        let xs = [0.1, 0.2, 0.30000000000000004, 0.7, 1.3];
        let h = Histogram::from_data(&xs, 7);
        let (lo, hi) = h.range();
        assert_eq!(lo.to_bits(), min(&xs).to_bits());
        assert_eq!(hi.to_bits(), max(&xs).to_bits());
    }

    #[test]
    fn histogram_codec_round_trips() {
        let xs = [0.5, 1.5, 2.5, 2.5, 9.75];
        let h = Histogram::from_data(&xs, 8);
        let mut w = crate::codec::ByteWriter::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        let got = Histogram::decode(&mut crate::codec::ByteReader::new(&bytes)).unwrap();
        assert_eq!(got.range().0.to_bits(), h.range().0.to_bits());
        assert_eq!(got.range().1.to_bits(), h.range().1.to_bits());
        assert_eq!(got.counts(), h.counts());
        // Truncations error, never panic.
        for cut in 0..bytes.len() {
            assert!(Histogram::decode(&mut crate::codec::ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}
