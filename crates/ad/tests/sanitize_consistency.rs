//! Regression suite for the single non-finite sanitization rule kNN and
//! LOF share through [`exathlon_linalg::kernel::DistanceKernel`]: NaN
//! and ±∞ features are zeroed once at fit/query time. The batched
//! Gram-trick scores are checked against test-local scalar oracles, a
//! plain kNN and a textbook LOF over zero-sanitized rows and
//! [`kernel::naive_sq_distance`].
//!
//! The per-record path runs the kernel's one-query form instead of the
//! batch GEMM; the property block at the end pins it bitwise to the
//! batch scores on the same dirty inputs.

use exathlon_ad::knn_ad::{KnnConfig, KnnDetector};
use exathlon_ad::lof::{LofConfig, LofDetector};
use exathlon_ad::AnomalyScorer;
use exathlon_linalg::kernel::{self, naive_sq_distance};
use exathlon_tsdata::sample::stride_subsample;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;
use proptest::prelude::*;

/// The reference set a detector keeps: the training records, stride-
/// subsampled to the cap, with every non-finite feature zeroed.
fn references(train: &TimeSeries, max_references: usize) -> Vec<Vec<f64>> {
    let records: Vec<Vec<f64>> = train.records().map(|r| r.to_vec()).collect();
    stride_subsample(&records, max_references)
        .into_iter()
        .map(|r| r.into_iter().map(kernel::sanitize).collect())
        .collect()
}

/// Euclidean distances from `q` to every reference, by the per-pair
/// scalar loop.
fn distances(q: &[f64], refs: &[Vec<f64>]) -> Vec<f64> {
    refs.iter().map(|r| naive_sq_distance(q, r).sqrt()).collect()
}

/// The `k` nearest `(index, distance)` pairs, ties broken by index;
/// `exclude` drops one index (a reference's own self-distance).
fn nearest(dists: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> =
        dists.iter().copied().enumerate().filter(|&(i, _)| Some(i) != exclude).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Scalar kNN: mean of the `k` smallest squared distances, square-rooted.
fn oracle_knn(train: &TimeSeries, config: &KnnConfig, queries: &TimeSeries) -> Vec<f64> {
    let refs = references(train, config.max_references);
    let k = config.k.min(refs.len());
    queries
        .records()
        .map(|q| {
            let mut sq: Vec<f64> = refs.iter().map(|r| naive_sq_distance(q, r)).collect();
            sq.sort_by(f64::total_cmp);
            (sq[..k].iter().sum::<f64>() / k as f64).sqrt()
        })
        .collect()
}

/// Textbook LOF (Breunig et al.) against the reference set, with the
/// detector's conventions for degenerate densities: a zero reachability
/// sum is infinite density (score 1), and neighbour densities are capped
/// at 1e12.
fn oracle_lof(train: &TimeSeries, config: &LofConfig, queries: &TimeSeries) -> Vec<f64> {
    let refs = references(train, config.max_references);
    let n = refs.len();
    let self_knn: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| nearest(&distances(&refs[i], &refs), config.k.min(n - 1), Some(i)))
        .collect();
    let k_distance: Vec<f64> =
        self_knn.iter().map(|nb| nb.last().map_or(0.0, |&(_, d)| d)).collect();
    let lrd = |nb: &[(usize, f64)]| {
        let reach: f64 = nb.iter().map(|&(j, d)| d.max(k_distance[j])).sum();
        if reach <= 0.0 {
            f64::INFINITY
        } else {
            nb.len() as f64 / reach
        }
    };
    let ref_lrd: Vec<f64> = self_knn.iter().map(|nb| lrd(nb)).collect();
    queries
        .records()
        .map(|q| {
            let nb = nearest(&distances(q, &refs), config.k.min(n), None);
            let own = lrd(&nb);
            if !own.is_finite() {
                return 1.0;
            }
            if own <= 0.0 {
                return f64::MAX.sqrt();
            }
            let mean: f64 =
                nb.iter().map(|&(j, _)| ref_lrd[j].min(1e12)).sum::<f64>() / nb.len() as f64;
            (mean / own).max(0.0)
        })
        .collect()
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

fn assert_close(batched: &[f64], oracle: &[f64], context: &str) {
    assert_eq!(batched.len(), oracle.len(), "{context}: score count differs");
    for (i, (b, o)) in batched.iter().zip(oracle).enumerate() {
        assert!(b.is_finite(), "{context}: batched score {i} not finite: {b}");
        assert!(o.is_finite(), "{context}: oracle score {i} not finite: {o}");
        let tol = 1e-8 * o.abs().max(1.0);
        assert!((b - o).abs() <= tol, "{context}: score {i} diverged: batched {b} vs oracle {o}");
    }
}

/// Both detectors score NaN/∞-laden data like the scalar oracles (within
/// the kernel tolerance) — one sanitization rule, two distance
/// implementations.
#[test]
fn knn_and_lof_batched_matches_naive_on_messy_data() {
    let train = messy_train();
    let queries = messy_queries();
    let knn_config = KnnConfig { k: 4, max_references: 500 };
    let lof_config = LofConfig { k: 6, max_references: 500 };

    let mut knn = KnnDetector::new(knn_config.clone());
    knn.fit(&[&train]);
    let mut lof = LofDetector::new(lof_config.clone());
    lof.fit(&[&train]);

    assert_close(&knn.score_series(&queries), &oracle_knn(&train, &knn_config, &queries), "kNN");
    assert_close(&lof.score_series(&queries), &oracle_lof(&train, &lof_config, &queries), "LOF");
}

/// The sanitization rule is "non-finite → 0.0", so a query row that is
/// non-finite in every feature must score bitwise identically to the
/// all-zero row — for both detectors.
#[test]
fn fully_non_finite_row_scores_as_zero_row() {
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
/// with the scalar oracles, which also subsample the references.
#[test]
fn messy_training_data_scores_clean_queries_consistently() {
    let train = messy_train();
    let clean = TimeSeries::from_records(
        default_names(3),
        0,
        &(0..40).map(|i| vec![i as f64 * 0.1, 1.0 - i as f64 * 0.05, 2.0]).collect::<Vec<_>>(),
    );
    let knn_config = KnnConfig { k: 3, max_references: 64 };
    let lof_config = LofConfig { k: 5, max_references: 64 };

    let mut knn = KnnDetector::new(knn_config.clone());
    knn.fit(&[&train]);
    let mut lof = LofDetector::new(lof_config.clone());
    lof.fit(&[&train]);

    assert_close(
        &knn.score_series(&clean),
        &oracle_knn(&train, &knn_config, &clean),
        "kNN (messy fit)",
    );
    assert_close(
        &lof.score_series(&clean),
        &oracle_lof(&train, &lof_config, &clean),
        "LOF (messy fit)",
    );
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
