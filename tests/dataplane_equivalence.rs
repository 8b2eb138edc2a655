//! End-to-end numerics contract of the zero-copy window data plane:
//! running the full pipeline on view-based windows, gathered batches,
//! and the fused transform chain produces *bitwise identical* results
//! to the materialized data plane it replaced, which copied every window
//! into an owned row.
//!
//! The data plane only moves bytes, so every score, threshold, and metric
//! must match to the bit. The materialized path no longer exists; its
//! output is pinned by the golden digests, which it produced exactly for
//! the window-batch consumers (AE fit/score batches, LSTM forecast pairs)
//! and the record-view kNN reference set. The gathered batches themselves
//! are also compared against owned-row materializations of the
//! pipeline's own transformed traces.

mod common {
    pub mod golden;
}

use exathlon_ad::scorer::window_batch;
use exathlon_core::config::{AdMethod, ExperimentConfig};
use exathlon_core::experiment::prepare;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsdata::window::{flattened_windows, forecast_pairs, WindowSet};

/// The window-batch consumers (AE fit/score batches, LSTM forecast
/// pairs) plus the record-view kNN path as a reference-set consumer.
const METHODS: [AdMethod; 3] = [AdMethod::Ae, AdMethod::Lstm, AdMethod::Knn];

/// Window sizes the quick-budget pipeline reads: kNN's record views and
/// the AE/LSTM window.
const SIZES: [usize; 2] = [1, 6];

#[test]
fn pipeline_bitwise_identical_with_materialized_windows() {
    common::golden::assert_golden(&METHODS);

    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
    let (_, train, tests) = prepare(&ds, &config);
    let traces = train.iter().chain(tests.iter().map(|t| &t.series));
    for (t, ts) in traces.enumerate() {
        for size in SIZES.into_iter().filter(|&s| s < ts.len()) {
            let batch = window_batch(&WindowSet::from_series(ts, size, 1));
            let rows = flattened_windows(ts, size, 1);
            assert_eq!(batch.rows(), rows.len(), "trace {t} size {size}: window count");
            for (i, row) in rows.iter().enumerate() {
                assert!(
                    batch.row(i).iter().zip(row).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "trace {t} size {size}: window {i} differs from its materialized row"
                );
            }

            let views = WindowSet::forecast_pooled(&[ts], size);
            let pairs = forecast_pairs(ts, size, 1);
            assert_eq!(views.len(), pairs.len(), "trace {t} size {size}: pair count");
            for (i, (window, target)) in pairs.iter().enumerate() {
                assert_eq!(views.window(i), window.as_slice(), "trace {t} size {size}: pair {i}");
                assert_eq!(views.target(i), target.as_slice(), "trace {t} size {size}: target {i}");
            }
        }
    }
}
