//! Regression suite for the single non-finite sanitization rule kNN and
//! LOF share through [`exathlon_linalg::kernel::DistanceKernel`]: NaN
//! and ±∞ features are zeroed once at fit/query time, identically in the
//! batched Gram-trick path and the retained scalar (naive-mode) path.
//!
//! The per-record path runs the kernel's one-query form instead of the
//! batch GEMM; the property block at the end pins it bitwise to the
//! batch scores on the same dirty inputs.
//!
//! `EXATHLON_NAIVE_KERNELS` is process-global, so every toggle happens
//! under one lock and is restored before the test returns.

use exathlon_ad::knn_ad::{KnnConfig, KnnDetector};
use exathlon_ad::lof::{LofConfig, LofDetector};
use exathlon_ad::AnomalyScorer;
use exathlon_linalg::kernel::NAIVE_KERNELS_ENV;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;
use proptest::prelude::*;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Take the env lock AND clear any inherited `EXATHLON_NAIVE_KERNELS`
/// (CI sets it for some jobs) so the "batched" measurements below really
/// take the batched path.
fn lock_batched_mode() -> std::sync::MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(NAIVE_KERNELS_ENV);
    guard
}

fn with_naive_kernels<R>(body: impl FnOnce() -> R) -> R {
    std::env::set_var(NAIVE_KERNELS_ENV, "1");
    let result = body();
    std::env::remove_var(NAIVE_KERNELS_ENV);
    result
}

/// Deterministic 3-feature training trace with NaN and ±∞ planted in
/// every feature column.
fn messy_train() -> TimeSeries {
    let mut records: Vec<Vec<f64>> = (0..120)
        .map(|i| {
            let t = i as f64;
            vec![(t * 0.37).sin() * 4.0, (t * 0.11).cos() * 2.0 + 0.5, (t % 13.0) * 0.3]
        })
        .collect();
    records[7][0] = f64::NAN;
    records[19][1] = f64::INFINITY;
    records[31][2] = f64::NEG_INFINITY;
    records[53][0] = f64::INFINITY;
    records[71][1] = f64::NAN;
    TimeSeries::from_records(default_names(3), 0, &records)
}

/// Queries mixing clean rows, partially non-finite rows, and rows that
/// are non-finite in every feature.
fn messy_queries() -> TimeSeries {
    TimeSeries::from_records(
        default_names(3),
        0,
        &[
            vec![0.1, 0.7, 1.2],
            vec![f64::NAN, 0.7, 1.2],
            vec![0.1, f64::INFINITY, 1.2],
            vec![0.1, 0.7, f64::NEG_INFINITY],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            vec![9.0, -4.0, 6.5],
        ],
    )
}

fn assert_close(batched: &[f64], naive: &[f64], context: &str) {
    assert_eq!(batched.len(), naive.len(), "{context}: score count differs");
    for (i, (b, n)) in batched.iter().zip(naive).enumerate() {
        assert!(b.is_finite(), "{context}: batched score {i} not finite: {b}");
        assert!(n.is_finite(), "{context}: naive score {i} not finite: {n}");
        let tol = 1e-8 * n.abs().max(1.0);
        assert!((b - n).abs() <= tol, "{context}: score {i} diverged: batched {b} vs naive {n}");
    }
}

/// Both detectors score NaN/∞-laden data identically (within the kernel
/// tolerance) through the batched path and the retained scalar path —
/// one sanitization rule, two distance implementations.
#[test]
fn knn_and_lof_batched_matches_naive_on_messy_data() {
    let _guard = lock_batched_mode();
    let train = messy_train();
    let queries = messy_queries();

    let mut knn = KnnDetector::new(KnnConfig { k: 4, max_references: 500 });
    knn.fit(&[&train]);
    let mut lof = LofDetector::new(LofConfig { k: 6, max_references: 500 });
    lof.fit(&[&train]);

    let knn_batched = knn.score_series(&queries);
    let lof_batched = lof.score_series(&queries);
    let (knn_naive, lof_naive) =
        with_naive_kernels(|| (knn.score_series(&queries), lof.score_series(&queries)));

    assert_close(&knn_batched, &knn_naive, "kNN");
    assert_close(&lof_batched, &lof_naive, "LOF");
}

/// The sanitization rule is "non-finite → 0.0", so a query row that is
/// non-finite in every feature must score bitwise identically to the
/// all-zero row — for both detectors.
#[test]
fn fully_non_finite_row_scores_as_zero_row() {
    let _guard = lock_batched_mode();
    let train = messy_train();
    let probe = TimeSeries::from_records(
        default_names(3),
        0,
        &[vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY], vec![0.0, 0.0, 0.0]],
    );

    let mut knn = KnnDetector::new(KnnConfig { k: 4, max_references: 500 });
    knn.fit(&[&train]);
    let mut lof = LofDetector::new(LofConfig { k: 6, max_references: 500 });
    lof.fit(&[&train]);

    for (name, scores) in [("kNN", knn.score_series(&probe)), ("LOF", lof.score_series(&probe))] {
        assert_eq!(
            scores[0].to_bits(),
            scores[1].to_bits(),
            "{name}: sanitized row {} vs zero row {}",
            scores[0],
            scores[1]
        );
    }
}

/// Fit-time sanitization also goes through the shared rule: training on
/// non-finite-laden data and scoring clean data stays finite and agrees
/// across both distance paths.
#[test]
fn messy_training_data_scores_clean_queries_consistently() {
    let _guard = lock_batched_mode();
    let train = messy_train();
    let clean = TimeSeries::from_records(
        default_names(3),
        0,
        &(0..40).map(|i| vec![i as f64 * 0.1, 1.0 - i as f64 * 0.05, 2.0]).collect::<Vec<_>>(),
    );

    let mut knn = KnnDetector::new(KnnConfig { k: 3, max_references: 64 });
    knn.fit(&[&train]);
    let mut lof = LofDetector::new(LofConfig { k: 5, max_references: 64 });
    lof.fit(&[&train]);

    let knn_batched = knn.score_series(&clean);
    let lof_batched = lof.score_series(&clean);
    let (knn_naive, lof_naive) =
        with_naive_kernels(|| (knn.score_series(&clean), lof.score_series(&clean)));

    assert_close(&knn_batched, &knn_naive, "kNN (messy fit)");
    assert_close(&lof_batched, &lof_naive, "LOF (messy fit)");
}

/// A feature value: finite, or NaN / ±∞ with probability 1/12 each.
fn dirty_value() -> impl Strategy<Value = f64> {
    (0..12u8, -8.0..8.0f64).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// Dirty reference records, each base record repeated `copies` times:
/// equal references give equal distances, so with `copies` above 1 the
/// `k` boundary cuts through runs of ties for queries near them.
fn dirty_refs(dims: usize) -> impl Strategy<Value = TimeSeries> {
    (proptest::collection::vec(proptest::collection::vec(dirty_value(), dims), 2..24), 1usize..4)
        .prop_map(move |(base, copies)| {
            let records: Vec<Vec<f64>> =
                base.iter().flat_map(|r| std::iter::repeat_n(r.clone(), copies)).collect();
            TimeSeries::from_records(default_names(dims), 0, &records)
        })
}

/// Queries: dirty random records plus copies of the first references
/// (distance exactly zero to a run of tied duplicates).
fn queries_for(refs: &TimeSeries, random: Vec<Vec<f64>>) -> TimeSeries {
    let mut records = random;
    records.extend((0..refs.len().min(3)).map(|i| refs.record(i).to_vec()));
    TimeSeries::from_records(refs.names().to_vec(), 0, &records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// kNN's per-record score is bitwise its batch score: NaN/±∞
    /// features, tied duplicate references, and `k` up to past the
    /// reference count.
    #[test]
    fn knn_score_record_matches_batch_bitwise(
        refs in dirty_refs(3),
        random in proptest::collection::vec(proptest::collection::vec(dirty_value(), 3), 1..12),
        k in 1usize..80,
    ) {
        let _guard = lock_batched_mode();
        let mut det = KnnDetector::new(KnnConfig { k, max_references: 1000 });
        det.fit(&[&refs]);
        let queries = queries_for(&refs, random);
        let batch = det.score_series(&queries);
        for (i, q) in queries.records().enumerate() {
            let one = det.score_record(q);
            prop_assert_eq!(one.to_bits(), batch[i].to_bits(), "query {}: {} vs {}", i, one, batch[i]);
        }
    }

    /// LOF's per-record score is bitwise its batch score on the same
    /// inputs. Its fit needs more than `k` training records, but a
    /// reference cap below `k` still leaves `k` at or past the stored
    /// reference count.
    #[test]
    fn lof_score_record_matches_batch_bitwise(
        refs in dirty_refs(3),
        random in proptest::collection::vec(proptest::collection::vec(dirty_value(), 3), 1..12),
        k in 1usize..80,
        cap in 2usize..80,
    ) {
        let _guard = lock_batched_mode();
        let k = k.min(refs.len() - 1);
        let mut det = LofDetector::new(LofConfig { k, max_references: cap });
        det.fit(&[&refs]);
        let queries = queries_for(&refs, random);
        let batch = det.score_series(&queries);
        for (i, q) in queries.records().enumerate() {
            let one = det.score_record(q);
            prop_assert_eq!(one.to_bits(), batch[i].to_bits(), "query {}: {} vs {}", i, one, batch[i]);
        }
    }
}
