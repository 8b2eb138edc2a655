//! The common interface of all AD methods: the outlier-score function
//! `g: x -> R` of §5 step 3 — plus the window data plane shared by the
//! window-based methods: pooled [`WindowSet`] views and the batch gather
//! that assembles them into a `Matrix` with one `copy_from_slice` per
//! window, metered through the `dataplane.gather_bytes` obs counter.

use exathlon_linalg::Matrix;
use exathlon_tsdata::window::WindowSet;
use exathlon_tsdata::TimeSeries;

/// A semi-supervised anomaly scorer: fit a normality model on normal
/// traces, then score every record of a test trace.
pub trait AnomalyScorer {
    /// Method name as it appears in the paper's tables (`"LSTM"`, `"AE"`,
    /// `"BiGAN"`, ...).
    fn name(&self) -> &'static str;

    /// Fit the normality model on training traces (assumed mostly normal,
    /// possibly noisy — the paper's "noisy semi-supervised" setting).
    ///
    /// # Panics
    /// Implementations panic when `train` is empty or traces are too short
    /// for the method's window size.
    fn fit(&mut self, train: &[&TimeSeries]);

    /// Outlier score per record of `ts` (same length as `ts`). Higher
    /// means more anomalous.
    fn score_series(&self, ts: &TimeSeries) -> Vec<f64>;
}

/// Collect windows from several traces into one training pool, capped at
/// `max_windows` by uniform striding (the cardinality-reduction lever the
/// benchmark grants user algorithms, §4.3).
///
/// Returns views, never owned rows: subsampling selects `(trace, start)`
/// entries.
pub fn pooled_windows<'a>(
    train: &[&'a TimeSeries],
    window: usize,
    max_windows: usize,
) -> WindowSet<'a> {
    assert!(!train.is_empty(), "no training traces");
    let mut ws = WindowSet::pooled(train, window);
    assert!(!ws.is_empty(), "training traces shorter than the window size");
    ws.subsample(max_windows);
    ws
}

/// Assemble the batch matrix for a window set, reusing `out`'s buffer:
/// one `copy_from_slice` per window.
pub fn gather_window_batch(ws: &WindowSet<'_>, out: &mut Matrix) {
    out.reset(ws.len(), ws.flat_len());
    for i in 0..ws.len() {
        out.row_mut(i).copy_from_slice(ws.window(i));
    }
    exathlon_linalg::obs::counter("dataplane.gather_bytes", (ws.len() * ws.flat_len() * 8) as u64);
}

/// [`gather_window_batch`] into a fresh matrix.
pub fn window_batch(ws: &WindowSet<'_>) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    gather_window_batch(ws, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    fn ts(n: usize) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        TimeSeries::from_records(default_names(1), 0, &records)
    }

    #[test]
    fn pooled_windows_combines_traces() {
        let a = ts(10);
        let b = ts(10);
        let w = pooled_windows(&[&a, &b], 3, 1000);
        assert_eq!(w.len(), 16); // 8 per trace
        assert_eq!(w.flat_len(), 3);
    }

    #[test]
    fn pooled_windows_caps_count() {
        let a = ts(100);
        let w = pooled_windows(&[&a], 4, 10);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn pooled_windows_skips_short_traces() {
        let a = ts(2);
        let b = ts(10);
        let w = pooled_windows(&[&a, &b], 5, 100);
        assert_eq!(w.len(), 6);
    }

    #[test]
    #[should_panic(expected = "shorter than the window")]
    fn all_short_panics() {
        let a = ts(2);
        let _ = pooled_windows(&[&a], 5, 100);
    }

    #[test]
    fn pooled_windows_matches_old_owned_pool() {
        // The view-based pool must select exactly the rows the
        // pre-dataplane flatten + stride_subsample pool selected.
        let a = ts(37);
        let b = ts(19);
        let ws = pooled_windows(&[&a, &b], 4, 12);
        let mut all = Vec::new();
        for t in [&a, &b] {
            all.extend(exathlon_tsdata::window::flattened_windows(t, 4, 1));
        }
        let old = exathlon_tsdata::sample::stride_subsample(&all, 12);
        assert_eq!(ws.len(), old.len());
        for (i, row) in old.iter().enumerate() {
            assert_eq!(ws.window(i), &row[..]);
        }
    }

    #[test]
    fn window_batch_matches_from_rows_bitwise() {
        let a = ts(25);
        let ws = pooled_windows(&[&a], 3, 9);
        let gathered = window_batch(&ws);
        let from_rows = Matrix::from_rows(&ws.to_rows());
        assert_eq!(gathered.shape(), from_rows.shape());
        for (x, y) in gathered.as_slice().iter().zip(from_rows.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The gather must also land bitwise-identically in a dirty
        // reused buffer.
        let mut reused = Matrix::filled(2, 17, f64::NAN);
        gather_window_batch(&ws, &mut reused);
        assert_eq!(reused.shape(), from_rows.shape());
        for (x, y) in reused.as_slice().iter().zip(from_rows.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
