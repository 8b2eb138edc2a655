//! Sliding-window extraction.
//!
//! Window-based AD models (the autoencoder and BiGAN) consume fixed-size
//! windows of consecutive records, flattened to a single vector; the LSTM
//! forecaster consumes a window of inputs plus the next record as the
//! forecast target. The paper's outlier-score derivation (§5 step 3.ii)
//! averages window scores back onto the records the window encloses —
//! [`record_scores_from_windows`] implements exactly that.
//!
//! Windows are never copied out one by one: a [`WindowSet`] holds
//! `(trace, start)` views, and batches are gathered straight from the
//! series buffers into one matrix. The gathered bytes equal the owned
//! rows [`flattened_windows`] returns, which the tests pin.

use crate::sample::stride_indices;
use crate::series::TimeSeries;

/// A set of fixed-size windows as `(trace, start)` views over the
/// contiguous row-major buffers of one or more [`TimeSeries`] — no
/// per-window allocation. A stride-1 window of `size` consecutive records
/// is one contiguous slice of the underlying buffer
/// ([`TimeSeries::records_slice`]), so batch assembly needs exactly one
/// `copy_from_slice` per window. Subsampling selects entries, not rows.
#[derive(Debug, Clone)]
pub struct WindowSet<'a> {
    traces: Vec<&'a TimeSeries>,
    /// `(trace index, start record)` per window, in enumeration order.
    entries: Vec<(u32, u32)>,
    size: usize,
    dims: usize,
    /// True when built by [`WindowSet::forecast_pooled`]: every window has
    /// a one-step forecast target at `start + size`.
    forecast: bool,
}

impl<'a> WindowSet<'a> {
    fn build(
        traces: &[&'a TimeSeries],
        size: usize,
        forecast: bool,
        mut starts_of: impl FnMut(usize) -> Vec<usize>,
    ) -> Self {
        assert!(size > 0, "window size and stride must be positive");
        let dims = traces.first().map(|ts| ts.dims()).unwrap_or(0);
        let kept: Vec<&TimeSeries> = traces.to_vec();
        let mut entries = Vec::new();
        for (t, ts) in kept.iter().enumerate() {
            assert_eq!(ts.dims(), dims, "window set feature mismatch");
            let t32 = u32::try_from(t).expect("too many traces for a window set");
            for s in starts_of(ts.len()) {
                entries.push((t32, u32::try_from(s).expect("trace too long for a window set")));
            }
        }
        Self { traces: kept, entries, size, dims, forecast }
    }

    /// All `[start, start + size)` windows of one series with the given
    /// stride, in start order. View-equivalent of [`flattened_windows`].
    pub fn from_series(ts: &'a TimeSeries, size: usize, stride: usize) -> Self {
        Self::build(&[ts], size, false, |len| window_starts(len, size, stride))
    }

    /// All stride-1 windows of every trace long enough to hold one,
    /// pooled in trace order. Traces shorter than `size` are skipped.
    pub fn pooled(traces: &[&'a TimeSeries], size: usize) -> Self {
        Self::build(traces, size, false, |len| {
            if len < size {
                Vec::new()
            } else {
                window_starts(len, size, 1)
            }
        })
    }

    /// All stride-1 forecast windows of every trace: starts `0..len-size`,
    /// each paired with the target record at `start + size`. Traces with
    /// no complete `(window, target)` pair are skipped. View-equivalent of
    /// [`forecast_pairs`] with stride 1.
    pub fn forecast_pooled(traces: &[&'a TimeSeries], size: usize) -> Self {
        Self::build(traces, size, true, |len| {
            if len <= size {
                Vec::new()
            } else {
                (0..len - size).collect()
            }
        })
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no windows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records per window.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Features per record.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Length of one flattened window (`size * dims`).
    pub fn flat_len(&self) -> usize {
        self.size * self.dims
    }

    /// Window `i` as one contiguous record-major slice — bitwise identical
    /// to [`flatten_window`] of the same range, with zero copies.
    #[inline]
    pub fn window(&self, i: usize) -> &'a [f64] {
        let (t, s) = self.entries[i];
        self.traces[t as usize].records_slice(s as usize, self.size)
    }

    /// Forecast target of window `i`: the record right after the window.
    ///
    /// # Panics
    /// Panics unless the set was built by [`WindowSet::forecast_pooled`].
    #[inline]
    pub fn target(&self, i: usize) -> &'a [f64] {
        assert!(self.forecast, "window set has no forecast targets");
        let (t, s) = self.entries[i];
        self.traces[t as usize].record(s as usize + self.size)
    }

    /// Start record of window `i` within its trace.
    pub fn start(&self, i: usize) -> usize {
        self.entries[i].1 as usize
    }

    /// Start indices of every window, in order (meaningful for
    /// single-trace sets, where they feed [`record_scores_from_windows`]).
    pub fn starts(&self) -> Vec<usize> {
        self.entries.iter().map(|&(_, s)| s as usize).collect()
    }

    /// Keep exactly the windows at `indices`, in that order. Indices may
    /// repeat.
    pub fn select(&mut self, indices: &[usize]) {
        self.entries = indices.iter().map(|&i| self.entries[i]).collect();
    }

    /// Evenly subsample down to at most `max` windows — the same
    /// stride-selection rule as [`crate::sample::stride_subsample`], but
    /// over `(trace, start)` entries instead of owned rows.
    pub fn subsample(&mut self, max: usize) {
        if self.entries.len() > max {
            let picks = stride_indices(self.entries.len(), max);
            self.select(&picks);
        }
    }

    /// Materialize every window as an owned flattened row: the reference
    /// the gathered batches are tested against.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.window(i).to_vec()).collect()
    }
}

/// Iterator-free enumeration of the `[start, start + size)` record windows
/// of a series with the given stride. Returns the start indices.
pub fn window_starts(len: usize, size: usize, stride: usize) -> Vec<usize> {
    assert!(size > 0 && stride > 0, "window size and stride must be positive");
    if len < size {
        return Vec::new();
    }
    (0..=(len - size)).step_by(stride).collect()
}

/// Flatten the window starting at `start` into a single vector
/// (record-major: all features of record `start`, then `start+1`, ...).
pub fn flatten_window(ts: &TimeSeries, start: usize, size: usize) -> Vec<f64> {
    let m = ts.dims();
    let mut out = Vec::with_capacity(size * m);
    for i in start..start + size {
        out.extend_from_slice(ts.record(i));
    }
    out
}

/// Extract all flattened windows of `size` records with the given stride.
pub fn flattened_windows(ts: &TimeSeries, size: usize, stride: usize) -> Vec<Vec<f64>> {
    window_starts(ts.len(), size, stride).into_iter().map(|s| flatten_window(ts, s, size)).collect()
}

/// Extract `(input_window, target_record)` pairs for a one-step forecaster:
/// the input is the flattened window `[i, i + size)` and the target is
/// record `i + size`.
pub fn forecast_pairs(ts: &TimeSeries, size: usize, stride: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    assert!(size > 0 && stride > 0, "window size and stride must be positive");
    if ts.len() <= size {
        return Vec::new();
    }
    (0..ts.len() - size)
        .step_by(stride)
        .map(|i| (flatten_window(ts, i, size), ts.record(i + size).to_vec()))
        .collect()
}

/// Convert per-window scores back to per-record scores by averaging the
/// scores of every window that encloses the record (§5 step 3.ii: "derive
/// the v score of each data point by averaging the scores of its enclosed
/// sliding windows").
///
/// `window_starts` and `scores` must be parallel. Records enclosed by no
/// window (possible with stride > 1 near the end) inherit the score of the
/// nearest scored record.
pub fn record_scores_from_windows(
    len: usize,
    size: usize,
    window_starts: &[usize],
    scores: &[f64],
) -> Vec<f64> {
    assert_eq!(window_starts.len(), scores.len(), "starts/scores length mismatch");
    // Difference arrays + prefix sums: O(windows + len) instead of the
    // O(windows * size) inner loop. Counts are integers, so they are exact;
    // the running score sum reassociates the per-record additions, which is
    // not bitwise identical to the old inner loop in general — the proptest
    // in `tests/proptests.rs` pins it to the naive accumulation within
    // tolerance, and both data-plane modes share this one implementation.
    let mut sum_diff = vec![0.0; len + 1];
    let mut count_diff = vec![0i64; len + 1];
    for (&start, &score) in window_starts.iter().zip(scores) {
        let end = (start + size).min(len);
        if start >= end {
            continue;
        }
        sum_diff[start] += score;
        sum_diff[end] -= score;
        count_diff[start] += 1;
        count_diff[end] -= 1;
    }
    let mut out = vec![f64::NAN; len];
    let mut sum = 0.0;
    let mut count = 0i64;
    for (o, (&ds, &dc)) in out.iter_mut().zip(sum_diff.iter().zip(&count_diff)) {
        sum += ds;
        count += dc;
        if count > 0 {
            *o = sum / count as f64;
        }
    }
    // Fill any uncovered records from the nearest covered neighbour.
    let mut last = None;
    for o in out.iter_mut() {
        if o.is_nan() {
            if let Some(v) = last {
                *o = v;
            }
        } else {
            last = Some(*o);
        }
    }
    let mut next = None;
    for o in out.iter_mut().rev() {
        if o.is_nan() {
            *o = next.unwrap_or(0.0);
        } else {
            next = Some(*o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::default_names;

    fn counting_series(n: usize, m: usize) -> TimeSeries {
        let records: Vec<Vec<f64>> =
            (0..n).map(|i| (0..m).map(|j| (i * m + j) as f64).collect()).collect();
        TimeSeries::from_records(default_names(m), 0, &records)
    }

    #[test]
    fn window_starts_basic() {
        assert_eq!(window_starts(10, 4, 1), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(window_starts(10, 4, 3), vec![0, 3, 6]);
        assert_eq!(window_starts(3, 4, 1), Vec::<usize>::new());
        assert_eq!(window_starts(4, 4, 1), vec![0]);
    }

    #[test]
    fn flatten_window_order() {
        let ts = counting_series(5, 2);
        assert_eq!(flatten_window(&ts, 1, 2), vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn flattened_windows_count() {
        let ts = counting_series(6, 2);
        let ws = flattened_windows(&ts, 3, 1);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].len(), 6);
    }

    #[test]
    fn forecast_pairs_target_is_next_record() {
        let ts = counting_series(5, 2);
        let pairs = forecast_pairs(&ts, 2, 1);
        assert_eq!(pairs.len(), 3);
        let (input, target) = &pairs[0];
        assert_eq!(input, &vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(target, &vec![4.0, 5.0]);
    }

    #[test]
    fn forecast_pairs_too_short() {
        let ts = counting_series(3, 1);
        assert!(forecast_pairs(&ts, 3, 1).is_empty());
    }

    #[test]
    fn record_scores_average_overlaps() {
        // len 4, size 2, windows at 0,1,2 with scores 1, 3, 5.
        // record 0: [1] -> 1; record 1: [1,3] -> 2; record 2: [3,5] -> 4;
        // record 3: [5] -> 5.
        let out = record_scores_from_windows(4, 2, &[0, 1, 2], &[1.0, 3.0, 5.0]);
        assert_eq!(out, vec![1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn record_scores_fill_uncovered_tail() {
        // len 5, size 2, stride 2 windows at 0, 2 -> record 4 uncovered.
        let out = record_scores_from_windows(5, 2, &[0, 2], &[1.0, 2.0]);
        assert_eq!(out[4], 2.0);
    }

    #[test]
    fn record_scores_fill_uncovered_head() {
        let out = record_scores_from_windows(3, 1, &[2], &[7.0]);
        assert_eq!(out, vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn record_scores_empty_windows() {
        let out = record_scores_from_windows(3, 2, &[], &[]);
        assert_eq!(out, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_panics() {
        let _ = window_starts(10, 2, 0);
    }

    #[test]
    fn window_set_matches_flattened_windows() {
        let ts = counting_series(7, 2);
        let ws = WindowSet::from_series(&ts, 3, 2);
        let owned = flattened_windows(&ts, 3, 2);
        assert_eq!(ws.len(), owned.len());
        assert_eq!(ws.flat_len(), 6);
        for (i, row) in owned.iter().enumerate() {
            assert_eq!(ws.window(i), &row[..]);
        }
        assert_eq!(ws.to_rows(), owned);
        assert_eq!(ws.starts(), window_starts(7, 3, 2));
    }

    #[test]
    fn window_set_pools_and_skips_short_traces() {
        let a = counting_series(6, 2);
        let b = counting_series(3, 2);
        let ws = WindowSet::pooled(&[&a, &b], 5);
        // Only `a` holds a 5-record window: starts 0 and 1.
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.window(0), &flatten_window(&a, 0, 5)[..]);
        assert_eq!(ws.window(1), &flatten_window(&a, 1, 5)[..]);
    }

    #[test]
    fn window_set_subsample_matches_stride_subsample() {
        let ts = counting_series(40, 1);
        let mut ws = WindowSet::from_series(&ts, 4, 1);
        ws.subsample(10);
        let owned = crate::sample::stride_subsample(&flattened_windows(&ts, 4, 1), 10);
        assert_eq!(ws.len(), owned.len());
        for (i, row) in owned.iter().enumerate() {
            assert_eq!(ws.window(i), &row[..]);
        }
    }

    #[test]
    fn window_set_forecast_targets() {
        let ts = counting_series(5, 2);
        let ws = WindowSet::forecast_pooled(&[&ts], 2);
        let pairs = forecast_pairs(&ts, 2, 1);
        assert_eq!(ws.len(), pairs.len());
        for (i, (input, target)) in pairs.iter().enumerate() {
            assert_eq!(ws.window(i), &input[..]);
            assert_eq!(ws.target(i), &target[..]);
        }
    }

    #[test]
    #[should_panic(expected = "no forecast targets")]
    fn non_forecast_target_panics() {
        let ts = counting_series(5, 2);
        let ws = WindowSet::from_series(&ts, 2, 1);
        let _ = ws.target(0);
    }

    #[test]
    fn window_set_select_reorders() {
        let ts = counting_series(6, 1);
        let mut ws = WindowSet::from_series(&ts, 2, 1);
        ws.select(&[3, 0]);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.window(0), &[3.0, 4.0]);
        assert_eq!(ws.window(1), &[0.0, 1.0]);
    }
}
