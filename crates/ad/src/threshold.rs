//! Unsupervised threshold selection (Appendix D.2).
//!
//! Exathlon offers no labeled data for thresholding, so the threshold on
//! the outlier score is fit on a held-out slice of the *training* data
//! (`D²_train`) as `threshold = S1 + c * S2` with:
//!
//! * **STD**: `S1 = mean`, `S2 = standard deviation`,
//! * **MAD**: `S1 = median`, `S2 = 1.4826 * median(|X - median|)`,
//! * **IQR**: `S1 = Q3`, `S2 = Q3 - Q1`,
//!
//! a thresholding factor `c ∈ {1.5, 2, 2.5, 3}`, and optionally a second
//! pass that recomputes the statistics after dropping the scores above the
//! first-pass threshold ("to drop any obvious outliers that could prevent
//! us from finding a suitable threshold"). The paper reports the *best*
//! and *median* detection performance over the resulting 24 combinations.

/// The statistic pair `(S1, S2)` of a thresholding rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdStat {
    /// Sample mean and standard deviation.
    Std,
    /// Median and scaled median absolute deviation.
    Mad,
    /// Third quartile and interquartile range.
    Iqr,
}

impl ThresholdStat {
    /// All three statistics.
    pub const ALL: [ThresholdStat; 3] =
        [ThresholdStat::Std, ThresholdStat::Mad, ThresholdStat::Iqr];

    /// Display name as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            ThresholdStat::Std => "STD",
            ThresholdStat::Mad => "MAD",
            ThresholdStat::Iqr => "IQR",
        }
    }
}

/// One thresholding rule: statistic, factor, and pass count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRule {
    /// Which `(S1, S2)` pair to use.
    pub stat: ThresholdStat,
    /// The thresholding factor `c`.
    pub factor: f64,
    /// Whether to run the two-pass variant.
    pub two_pass: bool,
}

impl ThresholdRule {
    /// The paper's full grid: 3 statistics x 4 factors x {1, 2} passes =
    /// 24 rules.
    pub fn all_rules() -> Vec<ThresholdRule> {
        let mut rules = Vec::with_capacity(24);
        for stat in ThresholdStat::ALL {
            for &factor in &[1.5, 2.0, 2.5, 3.0] {
                for &two_pass in &[false, true] {
                    rules.push(ThresholdRule { stat, factor, two_pass });
                }
            }
        }
        rules
    }

    /// Fit the threshold on held-out training scores: the one-rule case
    /// of [`ThresholdRule::fit_grid`].
    ///
    /// # Panics
    /// Panics on an empty score slice.
    pub fn fit(&self, scores: &[f64]) -> f64 {
        ScoreGrid::new(scores).fit(*self)
    }

    /// The thresholds of every rule of [`ThresholdRule::all_rules`], in
    /// that order, each bitwise equal to [`ThresholdRule::fit`]. The
    /// scores are sorted once for all MAD and IQR rules, and each
    /// statistic's first pass is computed once for its four factors.
    ///
    /// # Panics
    /// Panics on an empty score slice.
    pub fn fit_grid(scores: &[f64]) -> Vec<f64> {
        let mut grid = ScoreGrid::new(scores);
        Self::all_rules().into_iter().map(|rule| grid.fit(rule)).collect()
    }

    /// Apply a fitted threshold: `score >= threshold` flags an anomaly.
    pub fn apply(threshold: f64, scores: &[f64]) -> Vec<bool> {
        scores.iter().map(|&s| s >= threshold).collect()
    }

    /// Display label, e.g. `"IQR x2.5 (2-pass)"`.
    pub fn label(&self) -> String {
        format!(
            "{} x{}{}",
            self.stat.label(),
            self.factor,
            if self.two_pass { " (2-pass)" } else { "" }
        )
    }
}

/// Held-out scores prepared once for any number of rules.
///
/// The two-pass variant keeps the scores `s <= first` (NaN never passes,
/// `-inf` always does). Of the finite scores those are a prefix of the
/// stable sorted copy, so MAD and IQR read a prefix of one sort. STD
/// sums in the original order, because its float sums depend on order.
/// Every statistic evaluates the expressions of `exathlon_linalg::stats`
/// on the same values in the same order, so thresholds are bitwise equal
/// to the direct formulas.
struct ScoreGrid<'a> {
    scores: &'a [f64],
    /// The finite scores, stably sorted ascending.
    sorted: Vec<f64>,
    /// Reused buffer for MAD's sorted absolute deviations.
    devs: Vec<f64>,
    /// First-pass `(S1, S2)` per statistic, indexed by its discriminant
    /// ([`ThresholdStat::ALL`] order), computed on first use.
    first_pass: [Option<(f64, f64)>; 3],
}

impl<'a> ScoreGrid<'a> {
    fn new(scores: &'a [f64]) -> Self {
        assert!(!scores.is_empty(), "cannot fit a threshold on no scores");
        let sorted = exathlon_linalg::stats::sorted_finite(scores);
        Self { scores, sorted, devs: Vec::new(), first_pass: [None; 3] }
    }

    fn fit(&mut self, rule: ThresholdRule) -> f64 {
        let slot = rule.stat as usize;
        let (s1, s2) = match self.first_pass[slot] {
            Some(pair) => pair,
            None => {
                let pair = self.s1_s2(rule.stat, f64::INFINITY);
                self.first_pass[slot] = Some(pair);
                pair
            }
        };
        let first = s1 + rule.factor * s2;
        if !rule.two_pass || !self.scores.iter().any(|&s| s <= first) {
            return first;
        }
        let (s1, s2) = self.s1_s2(rule.stat, first);
        s1 + rule.factor * s2
    }

    /// `(S1, S2)` over the finite scores `<= cut` (`+inf` keeps them all).
    fn s1_s2(&mut self, stat: ThresholdStat, cut: f64) -> (f64, f64) {
        use exathlon_linalg::stats::quantile_sorted;
        let kept = &self.sorted[..self.sorted.partition_point(|&x| x <= cut)];
        match stat {
            ThresholdStat::Std => mean_std(self.scores, cut),
            ThresholdStat::Mad => {
                let med = quantile_sorted(kept, 0.5);
                sorted_abs_devs(kept, med, &mut self.devs);
                (med, 1.4826 * quantile_sorted(&self.devs, 0.5))
            }
            ThresholdStat::Iqr => {
                let (q1, q3) = (quantile_sorted(kept, 0.25), quantile_sorted(kept, 0.75));
                (q3, q3 - q1)
            }
        }
    }
}

/// Mean and population standard deviation of the finite scores `<= cut`,
/// summed in input order (`stats::{mean, std_dev}` on the kept scores).
fn mean_std(scores: &[f64], cut: f64) -> (f64, f64) {
    let kept = || scores.iter().copied().filter(|&x| x.is_finite() && x <= cut);
    let (mut sum, mut n) = (0.0, 0usize);
    for x in kept() {
        sum += x;
        n += 1;
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    let m = sum / n as f64;
    let mut sq = 0.0;
    for x in kept() {
        let d = x - m;
        sq += d * d;
    }
    (m, (sq / n as f64).sqrt())
}

/// The finite `|x - med|` of an ascending slice, ascending, into `out`.
/// The deviations fall from the left end to `med` and rise after it, so
/// one merge of the two runs sorts them. Equal deviations are bitwise
/// equal (`abs` clears the sign), so the merge yields the same sequence
/// as sorting.
fn sorted_abs_devs(sorted: &[f64], med: f64, out: &mut Vec<f64>) {
    out.clear();
    let split = sorted.partition_point(|&x| x < med);
    let mut left = sorted[..split].iter().rev().map(|&x| (x - med).abs()).peekable();
    let mut right = sorted[split..].iter().map(|&x| (x - med).abs()).peekable();
    loop {
        let next = match (left.peek(), right.peek()) {
            (Some(&l), Some(&r)) if l <= r => left.next(),
            (Some(_), Some(_)) => right.next(),
            (Some(_), None) => left.next(),
            (None, Some(_)) => right.next(),
            (None, None) => break,
        };
        out.extend(next.filter(|d| d.is_finite()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_scores() -> Vec<f64> {
        // Deterministic pseudo-normal spread around 1.0.
        (0..200).map(|i| 1.0 + ((i * 37 % 100) as f64 / 100.0 - 0.5) * 0.4).collect()
    }

    #[test]
    fn grid_has_24_rules() {
        let rules = ThresholdRule::all_rules();
        assert_eq!(rules.len(), 24);
        // All distinct.
        for i in 0..rules.len() {
            for j in (i + 1)..rules.len() {
                assert_ne!(rules[i], rules[j]);
            }
        }
    }

    #[test]
    fn std_rule_formula() {
        use exathlon_linalg::stats::{mean, std_dev};
        let scores = normal_scores();
        let rule = ThresholdRule { stat: ThresholdStat::Std, factor: 2.0, two_pass: false };
        let t = rule.fit(&scores);
        assert!((t - (mean(&scores) + 2.0 * std_dev(&scores))).abs() < 1e-12);
    }

    #[test]
    fn threshold_above_bulk_of_scores() {
        let scores = normal_scores();
        for rule in ThresholdRule::all_rules() {
            let t = rule.fit(&scores);
            let above = scores.iter().filter(|&&s| s >= t).count();
            assert!(
                above < scores.len() / 7,
                "{}: {above} of {} scores above threshold",
                rule.label(),
                scores.len()
            );
        }
    }

    #[test]
    fn two_pass_reduces_threshold_with_outliers() {
        let mut scores = normal_scores();
        scores.extend([50.0, 60.0, 70.0]); // contamination
        let one = ThresholdRule { stat: ThresholdStat::Std, factor: 2.0, two_pass: false };
        let two = ThresholdRule { stat: ThresholdStat::Std, factor: 2.0, two_pass: true };
        assert!(two.fit(&scores) < one.fit(&scores), "second pass should shed the contamination");
    }

    #[test]
    fn mad_robust_to_contamination() {
        let clean = normal_scores();
        let mut dirty = clean.clone();
        dirty.extend([100.0; 5]);
        let rule = ThresholdRule { stat: ThresholdStat::Mad, factor: 2.0, two_pass: false };
        let a = rule.fit(&clean);
        let b = rule.fit(&dirty);
        assert!((a - b).abs() < 0.2 * a, "MAD threshold moved too much: {a} -> {b}");
    }

    #[test]
    fn apply_flags_at_or_above() {
        let flags = ThresholdRule::apply(2.0, &[1.9, 2.0, 2.1]);
        assert_eq!(flags, vec![false, true, true]);
    }

    #[test]
    fn higher_factor_higher_threshold() {
        let scores = normal_scores();
        for stat in ThresholdStat::ALL {
            let lo = ThresholdRule { stat, factor: 1.5, two_pass: false }.fit(&scores);
            let hi = ThresholdRule { stat, factor: 3.0, two_pass: false }.fit(&scores);
            assert!(hi > lo);
        }
    }

    #[test]
    #[should_panic(expected = "no scores")]
    fn empty_scores_panic() {
        let rule = ThresholdRule { stat: ThresholdStat::Std, factor: 2.0, two_pass: false };
        let _ = rule.fit(&[]);
    }

    #[test]
    #[should_panic(expected = "no scores")]
    fn empty_grid_panics() {
        let _ = ThresholdRule::fit_grid(&[]);
    }

    /// The direct formulas, the reference for the sorted grid: `stats`
    /// functions on the scores, and on a filtered copy for the second
    /// pass.
    fn oracle_fit(rule: &ThresholdRule, scores: &[f64]) -> f64 {
        use exathlon_linalg::stats::{mad, mean, median, quartiles, std_dev};
        let s1_s2 = |xs: &[f64]| match rule.stat {
            ThresholdStat::Std => (mean(xs), std_dev(xs)),
            ThresholdStat::Mad => (median(xs), mad(xs)),
            ThresholdStat::Iqr => {
                let (q1, q3) = quartiles(xs);
                (q3, q3 - q1)
            }
        };
        let (s1, s2) = s1_s2(scores);
        let first = s1 + rule.factor * s2;
        if !rule.two_pass {
            return first;
        }
        let kept: Vec<f64> = scores.iter().copied().filter(|&s| s <= first).collect();
        if kept.is_empty() {
            return first;
        }
        let (s1, s2) = s1_s2(&kept);
        s1 + rule.factor * s2
    }

    /// Grid, single-rule fit and oracle agree bit for bit on every rule.
    fn assert_grid_matches_oracle(scores: &[f64]) {
        let grid = ThresholdRule::fit_grid(scores);
        for (rule, got) in ThresholdRule::all_rules().iter().zip(&grid) {
            let want = oracle_fit(rule, scores);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: grid {got} vs oracle {want}",
                rule.label()
            );
            let single = rule.fit(scores);
            assert_eq!(single.to_bits(), want.to_bits(), "{}: fit {single}", rule.label());
        }
    }

    #[test]
    fn grid_matches_oracle_on_edge_inputs() {
        let big = f64::MAX;
        let cases: Vec<Vec<f64>> = vec![
            normal_scores(),
            vec![3.0],
            vec![2.5; 40],
            vec![0.0, -0.0, 0.0, -0.0, 1.0],
            vec![f64::NAN, 1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY, 3.0, f64::NAN],
            vec![f64::NAN; 5],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NAN],
            // Overflowing sums and spreads: a NaN or infinite first pass.
            vec![-big, -big, -big],
            vec![big, -big, big, -big, 1.0],
            vec![big, big, 0.0],
            // Heavy contamination on both sides of the median.
            (0..50).map(|i| if i % 7 == 0 { 1e6 } else { (i % 5) as f64 }).collect(),
            (0..50).map(|i| if i % 9 == 0 { -1e6 } else { i as f64 * 0.1 }).collect(),
        ];
        for scores in &cases {
            assert_grid_matches_oracle(scores);
        }
    }

    /// A two-pass rule whose first-pass threshold keeps no score returns
    /// the first pass, in the grid as in the oracle.
    #[test]
    fn two_pass_that_keeps_nothing_returns_the_first_pass() {
        for scores in [vec![f64::NAN, f64::NAN], vec![-f64::MAX, -f64::MAX, f64::NAN]] {
            for rule in ThresholdRule::all_rules().iter().filter(|r| r.two_pass) {
                let first = ThresholdRule { two_pass: false, ..*rule }.fit(&scores);
                if !scores.iter().any(|&s| s <= first) {
                    assert_eq!(rule.fit(&scores).to_bits(), first.to_bits(), "{}", rule.label());
                }
            }
            assert_grid_matches_oracle(&scores);
        }
        let nan_first = ThresholdRule { stat: ThresholdStat::Std, factor: 2.0, two_pass: true };
        assert!(nan_first.fit(&[-f64::MAX, -f64::MAX]).is_nan());
    }

    /// Value pool with ties, signed zeros and non-finite entries.
    fn score_value() -> impl proptest::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            -5.0f64..5.0,
            (0u8..6).prop_map(|k| k as f64 * 0.5),
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (0.0f64..1.0).prop_map(|u| 1e3 + u * 1e4),
        ]
    }

    proptest::proptest! {
        #[test]
        fn grid_equals_fit_and_oracle_bitwise(
            scores in proptest::collection::vec(score_value(), 1..120)
        ) {
            assert_grid_matches_oracle(&scores);
        }
    }
}
