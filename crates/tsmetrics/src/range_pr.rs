//! The customizable range-based precision/recall framework of Tatbul et
//! al. (NeurIPS 2018), as instantiated by Exathlon (Appendix B).
//!
//! For real anomaly ranges `R1..Rn` and predicted ranges `P1..Pm`:
//!
//! ```text
//! Recall(Ri)    = α · Existence(Ri) + (1 − α) · Cardinality(Ri) · Overlap(Ri)
//! Precision(Pi) =                     Cardinality(Pi) · Overlap(Pi)
//! ```
//!
//! where `Overlap` is the additive positional reward `ω` under a bias `δ`,
//! and `Cardinality` applies the fragmentation penalty `γ` when a range is
//! covered by more than one counterpart. Overall recall/precision average
//! the per-range values.
//!
//! **Monotonicity adjustment.** Exathlon's AD levels must satisfy
//! `score(AD1) ≥ score(AD2) ≥ score(AD3) ≥ score(AD4)` (§4.1). A raw
//! front-biased `ω` can exceed the flat `ω` when the detected portion sits
//! at the front of the range, which would let AD3 beat AD2. Following the
//! paper's "minor normalization adjustment to ensure monotonicity", the
//! positional reward is capped at its flat (unbiased) value: early
//! detection retains the full flat reward while late detection is
//! discounted.

use crate::ranges::Range;
use std::borrow::Cow;

/// Positional bias `δ` of the overlap reward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bias {
    /// Every position of the range worth the same.
    Flat,
    /// Earlier positions worth more (early detection, AD3/AD4 recall).
    Front,
    /// Later positions worth more.
    Back,
}

impl Bias {
    /// Weight of position `i` (0-based) in a range of `len` positions —
    /// the definitional form `omega` integrates in closed form. Kept as
    /// the reference implementation for the property tests.
    #[cfg(test)]
    fn weight(self, i: u64, len: u64) -> f64 {
        match self {
            Bias::Flat => 1.0,
            Bias::Front => (len - i) as f64,
            Bias::Back => (i + 1) as f64,
        }
    }
}

/// Fragmentation (cardinality) penalty `γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cardinality {
    /// No penalty (`γ = 1` in Table 6).
    None,
    /// Reciprocal penalty `1/x` for `x` overlapping counterparts.
    Reciprocal,
    /// Hard penalty: any fragmentation zeroes the score (`γ = 0`,
    /// exactly-once detection).
    Zero,
}

impl Cardinality {
    fn factor(self, overlapping: usize) -> f64 {
        if overlapping <= 1 {
            1.0
        } else {
            match self {
                Cardinality::None => 1.0,
                Cardinality::Reciprocal => 1.0 / overlapping as f64,
                Cardinality::Zero => 0.0,
            }
        }
    }
}

/// Parameters of one side (precision or recall) of the framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeParams {
    /// Existence reward weight `α ∈ [0, 1]` (recall only; precision uses 0).
    pub alpha: f64,
    /// Positional bias `δ`.
    pub bias: Bias,
    /// Fragmentation penalty `γ`.
    pub cardinality: Cardinality,
}

impl RangeParams {
    /// The classical configuration: `α = 0`, flat bias, no penalty.
    pub fn classical() -> Self {
        Self { alpha: 0.0, bias: Bias::Flat, cardinality: Cardinality::None }
    }
}

/// Sum `1 + 2 + … + n` (exact in `u128` for any `u64` length).
fn triangular(n: u128) -> u128 {
    n * (n + 1) / 2
}

/// Additive overlap reward `ω`: positional-weighted fraction of `range`
/// covered by `overlap`, capped at the flat fraction for monotonicity (see
/// module docs).
///
/// All three biases have closed forms over the covered position interval
/// `[a, b)` (relative to `range.start`), so `ω` is O(1) instead of one
/// loop iteration per tick — on hour-long traces at 1s resolution the old
/// loop dominated `evaluate_detection`. The integer sums are exact, so
/// this is also *more* accurate than the float accumulation it replaces.
fn omega(range: &Range, overlap: &Range, bias: Bias) -> f64 {
    let len = range.len();
    // Covered positions relative to the range start, clamped into it
    // (callers pass intersections, which are already inside).
    let a = overlap.start.saturating_sub(range.start).min(len) as u128;
    let b = overlap.end.saturating_sub(range.start).min(len) as u128;
    if b <= a {
        return 0.0;
    }
    let len = len as u128;
    let flat = (b - a) as f64 / len as f64;
    match bias {
        Bias::Flat => flat,
        Bias::Front => {
            // weight(i) = len − i, so Σ_{i=a}^{b−1} = Σ_{j=len−b+1}^{len−a} j.
            let covered = triangular(len - a) - triangular(len - b);
            let biased = covered as f64 / triangular(len) as f64;
            biased.min(flat)
        }
        Bias::Back => {
            // weight(i) = i + 1, so Σ_{i=a}^{b−1} = Σ_{j=a+1}^{b} j.
            let covered = triangular(b) - triangular(a);
            let biased = covered as f64 / triangular(len) as f64;
            biased.min(flat)
        }
    }
}

/// Counterpart ranges ordered by start, with the running maximum of
/// their ends, so two binary searches bound the only counterparts that
/// can overlap a given range.
struct Counterparts<'a> {
    /// The counterparts, stably ordered by start (borrowed when the
    /// input already is).
    ranges: Cow<'a, [Range]>,
    /// `max_end[i]` is the largest end among `ranges[..=i]`.
    max_end: Vec<u64>,
}

impl<'a> Counterparts<'a> {
    fn new(ranges: &'a [Range]) -> Self {
        let ranges = if ranges.windows(2).all(|w| w[0].start <= w[1].start) {
            Cow::Borrowed(ranges)
        } else {
            let mut owned = ranges.to_vec();
            owned.sort_by_key(|r| r.start);
            Cow::Owned(owned)
        };
        let mut running = 0;
        let max_end = ranges
            .iter()
            .map(|r| {
                running = running.max(r.end);
                running
            })
            .collect();
        Self { ranges, max_end }
    }

    /// The counterparts that can overlap `range`, in start order: those
    /// starting before it ends, after the last prefix whose ends all lie
    /// at or before its start. Candidates that do not overlap it (a short
    /// range behind a long one) are dropped by the caller's intersection.
    fn candidates(&self, range: &Range) -> &[Range] {
        let hi = self.ranges.partition_point(|o| o.start < range.end);
        let lo = self.max_end[..hi].partition_point(|&e| e <= range.start);
        &self.ranges[lo..hi]
    }
}

/// Score of a single range against its candidate counterparts, summing
/// the overlap rewards in counterpart order.
fn single_range_score(range: &Range, candidates: &[Range], p: &RangeParams) -> f64 {
    let mut overlapping = 0usize;
    let mut overlap_reward = 0.0;
    for o in candidates {
        if let Some(overlap) = range.intersect(o) {
            overlapping += 1;
            overlap_reward += omega(range, &overlap, p.bias);
        }
    }
    let existence = if overlapping == 0 { 0.0 } else { 1.0 };
    if p.alpha >= 1.0 {
        return existence;
    }
    let cardinality = p.cardinality.factor(overlapping);
    // The additive overlap sum over disjoint intersections of one range
    // cannot exceed 1 because the weights partition the range.
    let overlap_reward: f64 = overlap_reward.min(1.0);
    p.alpha * existence + (1.0 - p.alpha) * cardinality * overlap_reward
}

/// Range-based recall: average per-real-range score.
/// Returns 1.0 when there are no real ranges (nothing to recall).
///
/// Costs O((n + m) log m) for `n` real and `m` predicted ranges, plus one
/// step per candidate walked (the overlapping pairs, when predicted
/// ranges do not nest). Each real range's overlap rewards are summed in the start
/// order of the predicted ranges, so the result is bitwise that of the
/// all-pairs definition when `predicted` is ordered by start (as
/// [`crate::ranges::ranges_from_flags`] produces it), and equal up to
/// float reassociation otherwise.
pub fn range_recall(real: &[Range], predicted: &[Range], p: &RangeParams) -> f64 {
    if real.is_empty() {
        return 1.0;
    }
    let predicted = Counterparts::new(predicted);
    real.iter().map(|r| single_range_score(r, predicted.candidates(r), p)).sum::<f64>()
        / real.len() as f64
}

/// Range-based precision: average per-predicted-range score. `α` is forced
/// to 0 (existence is meaningless for precision, Appendix B). Returns 1.0
/// when there are no predictions (no false alarms). The same ordering
/// contract as [`range_recall`] holds with the roles swapped: bitwise
/// the all-pairs value when `real` is ordered by start.
pub fn range_precision(real: &[Range], predicted: &[Range], p: &RangeParams) -> f64 {
    if predicted.is_empty() {
        return 1.0;
    }
    let p = RangeParams { alpha: 0.0, ..*p };
    let real = Counterparts::new(real);
    predicted.iter().map(|pr| single_range_score(pr, real.candidates(pr), &p)).sum::<f64>()
        / predicted.len() as f64
}

/// The F-beta score of a precision/recall pair (`beta = 1` for F1).
pub fn f_score(precision: f64, recall: f64, beta: f64) -> f64 {
    let b2 = beta * beta;
    if precision <= 0.0 && recall <= 0.0 {
        0.0
    } else {
        (1.0 + b2) * precision * recall / (b2 * precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> Range {
        Range::new(s, e)
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let real = vec![r(10, 20), r(30, 40)];
        let p = RangeParams::classical();
        assert_eq!(range_recall(&real, &real, &p), 1.0);
        assert_eq!(range_precision(&real, &real, &p), 1.0);
    }

    #[test]
    fn no_prediction_zero_recall_full_precision() {
        let real = vec![r(10, 20)];
        let p = RangeParams::classical();
        assert_eq!(range_recall(&real, &[], &p), 0.0);
        assert_eq!(range_precision(&real, &[], &p), 1.0);
    }

    #[test]
    fn half_coverage_flat_recall() {
        let real = vec![r(0, 10)];
        let pred = vec![r(0, 5)];
        let p = RangeParams::classical();
        assert!((range_recall(&real, &pred, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn existence_alpha_one_rewards_any_overlap() {
        let real = vec![r(0, 100)];
        let pred = vec![r(99, 100)]; // tiny overlap
        let p = RangeParams { alpha: 1.0, bias: Bias::Flat, cardinality: Cardinality::None };
        assert_eq!(range_recall(&real, &pred, &p), 1.0);
    }

    #[test]
    fn front_bias_caps_at_flat() {
        // Early detection covering the front half: flat gives 0.5; raw
        // front bias would give more, the adjustment caps it at 0.5.
        let real = vec![r(0, 10)];
        let front = RangeParams { alpha: 0.0, bias: Bias::Front, cardinality: Cardinality::None };
        let flat = RangeParams::classical();
        let early = vec![r(0, 5)];
        assert!(
            (range_recall(&real, &early, &front) - range_recall(&real, &early, &flat)).abs()
                < 1e-12
        );
        // Late detection covering the back half: front bias discounts it.
        let late = vec![r(5, 10)];
        assert!(range_recall(&real, &late, &front) < range_recall(&real, &late, &flat));
    }

    #[test]
    fn back_bias_rewards_late() {
        let real = vec![r(0, 10)];
        let late = vec![r(5, 10)];
        let back = RangeParams { alpha: 0.0, bias: Bias::Back, cardinality: Cardinality::None };
        let flat = RangeParams::classical();
        // Back bias is also capped at flat by the monotonicity adjustment,
        // so late detection equals flat while early detection is discounted.
        assert!(
            (range_recall(&real, &late, &back) - range_recall(&real, &late, &flat)).abs() < 1e-12
        );
        let early = vec![r(0, 5)];
        assert!(range_recall(&real, &early, &back) < range_recall(&real, &early, &flat));
    }

    #[test]
    fn fragmentation_zero_kills_score() {
        let real = vec![r(0, 10)];
        let fragmented = vec![r(0, 3), r(6, 9)];
        let p = RangeParams { alpha: 0.0, bias: Bias::Flat, cardinality: Cardinality::Zero };
        assert_eq!(range_recall(&real, &fragmented, &p), 0.0);
        // A single covering prediction keeps its score.
        let single = vec![r(0, 10)];
        assert_eq!(range_recall(&real, &single, &p), 1.0);
    }

    #[test]
    fn fragmentation_reciprocal_halves() {
        let real = vec![r(0, 10)];
        let fragmented = vec![r(0, 5), r(5, 10)];
        let p = RangeParams { alpha: 0.0, bias: Bias::Flat, cardinality: Cardinality::Reciprocal };
        // Full coverage but 2 fragments: 1.0 * 1/2.
        assert!((range_recall(&real, &fragmented, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn precision_penalizes_false_positives() {
        let real = vec![r(10, 20)];
        let pred = vec![r(10, 20), r(50, 60)];
        let p = RangeParams::classical();
        assert!((range_precision(&real, &pred, &p) - 0.5).abs() < 1e-12);
        assert_eq!(range_recall(&real, &pred, &p), 1.0);
    }

    #[test]
    fn recall_averages_over_real_ranges() {
        let real = vec![r(0, 10), r(20, 30)];
        let pred = vec![r(0, 10)];
        let p = RangeParams::classical();
        assert!((range_recall(&real, &pred, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f_score_known_values() {
        assert!((f_score(0.5, 0.5, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(f_score(0.0, 0.0, 1.0), 0.0);
        assert!((f_score(1.0, 0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_real_ranges_recall_one() {
        assert_eq!(range_recall(&[], &[r(0, 5)], &RangeParams::classical()), 1.0);
    }

    /// The definitional per-tick loop `omega` (the implementation before
    /// the closed form), used as the property-test reference.
    fn omega_loop(range: &Range, overlap: &Range, bias: Bias) -> f64 {
        let len = range.len();
        let mut total = 0.0;
        let mut covered = 0.0;
        for i in 0..len {
            let w = bias.weight(i, len);
            total += w;
            if overlap.contains(range.start + i) {
                covered += w;
            }
        }
        let biased = if total > 0.0 { covered / total } else { 0.0 };
        if bias == Bias::Flat {
            biased
        } else {
            let flat = overlap.len() as f64 / len as f64;
            biased.min(flat)
        }
    }

    proptest::proptest! {
        /// The closed-form `omega` agrees with the definitional loop for
        /// every bias over arbitrary ranges and sub-overlaps.
        #[test]
        fn omega_closed_form_matches_loop(
            start in 0u64..5000,
            len in 1u64..2000,
            a_off in 0u64..2000,
            b_off in 0u64..2000,
        ) {
            proptest::prop_assume!(a_off < len && b_off < len);
            let (a_off, b_off) = (a_off.min(b_off), a_off.max(b_off) + 1);
            let range = Range::new(start, start + len);
            let overlap = Range::new(start + a_off, start + b_off);
            for bias in [Bias::Flat, Bias::Front, Bias::Back] {
                let fast = omega(&range, &overlap, bias);
                let slow = omega_loop(&range, &overlap, bias);
                proptest::prop_assert!(
                    (fast - slow).abs() < 1e-9,
                    "bias {bias:?}, range {range:?}, overlap {overlap:?}: {fast} vs {slow}"
                );
                proptest::prop_assert!((0.0..=1.0).contains(&fast));
            }
        }
    }

    /// The all-pairs definition, the reference for the sorted sweep:
    /// every range against every counterpart, overlaps collected in
    /// counterpart order.
    fn oracle_score(range: &Range, others: &[Range], p: &RangeParams) -> f64 {
        let overlaps: Vec<Range> = others.iter().filter_map(|o| range.intersect(o)).collect();
        let existence = if overlaps.is_empty() { 0.0 } else { 1.0 };
        if p.alpha >= 1.0 {
            return existence;
        }
        let cardinality = p.cardinality.factor(overlaps.len());
        let overlap_reward: f64 = overlaps.iter().map(|o| omega(range, o, p.bias)).sum();
        let overlap_reward = overlap_reward.min(1.0);
        p.alpha * existence + (1.0 - p.alpha) * cardinality * overlap_reward
    }

    fn oracle_recall(real: &[Range], predicted: &[Range], p: &RangeParams) -> f64 {
        if real.is_empty() {
            return 1.0;
        }
        real.iter().map(|r| oracle_score(r, predicted, p)).sum::<f64>() / real.len() as f64
    }

    fn oracle_precision(real: &[Range], predicted: &[Range], p: &RangeParams) -> f64 {
        if predicted.is_empty() {
            return 1.0;
        }
        let p = RangeParams { alpha: 0.0, ..*p };
        predicted.iter().map(|pr| oracle_score(pr, real, &p)).sum::<f64>() / predicted.len() as f64
    }

    /// Every bias and penalty, with no, partial and full existence weight.
    fn all_params() -> Vec<RangeParams> {
        let mut out = Vec::new();
        for alpha in [0.0, 0.5, 1.0] {
            for bias in [Bias::Flat, Bias::Front, Bias::Back] {
                for cardinality in [Cardinality::None, Cardinality::Reciprocal, Cardinality::Zero] {
                    out.push(RangeParams { alpha, bias, cardinality });
                }
            }
        }
        out
    }

    /// Ranges of arbitrary position and length: overlapping, nested and
    /// out of order.
    fn ranges(max: usize) -> impl proptest::Strategy<Value = Vec<Range>> {
        use proptest::Strategy;
        proptest::collection::vec((0u64..400, 1u64..60), 0..max)
            .prop_map(|v| v.into_iter().map(|(s, l)| r(s, s + l)).collect())
    }

    /// Disjoint ranges in start order, as `ranges_from_flags` yields them.
    fn flag_ranges() -> impl proptest::Strategy<Value = Vec<Range>> {
        use proptest::Strategy;
        proptest::collection::vec(0u8..4, 0..400).prop_map(|v| {
            let flags: Vec<bool> = v.iter().map(|&x| x == 0).collect();
            crate::ranges::ranges_from_flags(&flags, 3)
        })
    }

    fn by_start(mut v: Vec<Range>) -> Vec<Range> {
        v.sort_by_key(|r| r.start);
        v
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        let tol = 1e-12 * want.abs().max(1.0);
        assert!((got - want).abs() <= tol, "{what}: {got} vs {want}");
    }

    proptest::proptest! {
        /// Counterparts ordered by start (each side in turn): the sweep
        /// is the all-pairs value bit for bit, whatever the other side.
        #[test]
        fn sweep_is_bitwise_the_oracle_for_start_ordered_counterparts(
            real in ranges(40),
            predicted in ranges(60),
            flagged in flag_ranges(),
        ) {
            for p in all_params() {
                for (real, predicted) in [
                    (&real, &flagged),
                    (&by_start(real.clone()), &predicted),
                    (&flagged, &by_start(predicted.clone())),
                ] {
                    let got = range_recall(real, predicted, &p);
                    let want = oracle_recall(real, &by_start(predicted.clone()), &p);
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "recall {:?}", p);
                    let want = oracle_recall(real, predicted, &p);
                    if predicted.windows(2).all(|w| w[0].start <= w[1].start) {
                        proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
                    }
                    let got = range_precision(predicted, real, &p);
                    let want = oracle_precision(&by_start(predicted.clone()), real, &p);
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "precision {:?}", p);
                }
            }
        }

        /// Unordered, overlapping and nested counterparts: the sweep sums
        /// the same rewards in start order, so it agrees with the oracle
        /// up to float reassociation.
        #[test]
        fn sweep_matches_the_oracle_for_any_counterparts(
            real in ranges(40),
            predicted in ranges(60),
        ) {
            for p in all_params() {
                assert_close(
                    range_recall(&real, &predicted, &p),
                    oracle_recall(&real, &predicted, &p),
                    "recall",
                );
                assert_close(
                    range_precision(&real, &predicted, &p),
                    oracle_precision(&real, &predicted, &p),
                    "precision",
                );
            }
        }
    }

    #[test]
    fn a_long_range_ahead_keeps_later_short_ones_reachable() {
        // The running maximum end must not let the binary search skip a
        // counterpart that starts early but ends late.
        let predicted = vec![r(0, 100), r(10, 12), r(50, 52)];
        let real = vec![r(60, 70), r(11, 12)];
        for p in all_params() {
            let got = range_recall(&real, &predicted, &p);
            assert_eq!(got.to_bits(), oracle_recall(&real, &predicted, &p).to_bits(), "{p:?}");
            let got = range_precision(&predicted, &real, &p);
            assert_close(got, oracle_precision(&predicted, &real, &p), "precision");
        }
    }

    /// The closed form stays exact at scales where the loop would be
    /// impractical to run per evaluation (here it is only a reference).
    #[test]
    fn omega_large_range_exact() {
        let range = r(0, 1 << 40);
        let full = omega(&range, &range, Bias::Front);
        assert!((full - 1.0).abs() < 1e-12, "{full}");
        let half = omega(&range, &r(0, 1 << 39), Bias::Back);
        // Back-biased reward of the front half: S(n/2) / S(n) → 1/4.
        assert!((half - 0.25).abs() < 1e-6, "{half}");
    }
}
